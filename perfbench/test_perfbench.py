"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.bootstrap()

import d2dcap.cli  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from checks import CASES, REGIMES, Artifact  # noqa: E402
from workloads import WORKLOADS, Op, _simulate_config, make_ops  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


@pytest.mark.parametrize("seed", [1, 2])
def test_analytic_scenarios_reach_every_regime_and_case(tmp_path, seed):
    ops = [op for op in make_ops("analytic", seed) if op.command == "bounds"]
    for op in ops:
        if op.config is not None:
            (tmp_path / f"s{op.scenario}.yaml").write_text(op.config)
    seen = {"case": set(), "regime": set()}
    for ex in run.run_pass(ops, d2dcap.cli.main, tmp_path, 0):
        for row in Artifact(ex.out.read_text()).rows:
            seen["case"].add(row["case"])
            seen["regime"].add(row["regime"])
    assert seen == {"case": CASES, "regime": REGIMES}


def _swap_bound_columns(text: str) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[header].split(",")
    up, lo = cols.index("t_upper_bps"), cols.index("t_lower_bps")
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        cells[up], cells[lo] = cells[lo], cells[up]
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_last_row(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


@pytest.mark.parametrize("workload, command", [("analytic", "bounds"), ("saturation", "simulate")])
@pytest.mark.parametrize("corrupt", [_swap_bound_columns, _drop_last_row])
def test_corrupted_artifact_counts_as_failed(tmp_path, workload, command, corrupt):
    if workload == "analytic":
        ops = make_ops(workload, 3)[:3]  # the preset scenario: guard, bounds, sweep
    else:
        # a short saturation run at d_cb = 0, where every trial beats t_lower
        ops = [Op("simulate", 0, _simulate_config("saturation", 0.0, None),
                  ("--trials", "4", "--threads", "2", "--seed", "3"),
                  trials=4, mode="saturation")]
    for op in ops:
        if op.config is not None:
            (tmp_path / f"s{op.scenario}.yaml").write_text(op.config)
    done = run.run_pass(ops, d2dcap.cli.main, tmp_path, 0)
    problems, _ = run.evaluate(ops, done)
    assert not any(problems), problems
    victim = next(i for i, op in enumerate(ops) if op.command == command)
    path = done[victim].out
    path.write_text(corrupt(path.read_text()))
    problems, _ = run.evaluate(ops, done)
    assert [bool(p) for p in problems] == [i == victim for i in range(len(ops))]


def test_trial_spans_keep_cmd_simulate_as_parent_under_threads(tmp_path):
    op = replace(make_ops("saturation", 5)[0], flags=("--trials", "6", "--threads", "2"))
    (tmp_path / f"s{op.scenario}.yaml").write_text(op.config)
    rec = tracing.SpanRecorder()
    with tracing.instrument(rec):
        run.run_pass([op], rec.wrap("cli.main", d2dcap.cli.main), tmp_path, 0, rec)
    by_id = {s.id: s for s in rec.spans}
    trials = [s for s in rec.spans if s.name == "mcsim.run_saturation_trial"]
    assert len(trials) == 6
    assert len({s.thread for s in trials}) == 2
    assert all(by_id[s.parent].name == "cli.cmd_simulate" for s in trials)
    assert d2dcap.cli.main.__name__ == "main"  # instrument restored the originals
    assert not hasattr(d2dcap.cli.cmd_simulate, "__wrapped__")


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        tracing.Span(0, "parent", None, 0, 1, 0.0, 0.0, 10.0),
        tracing.Span(1, "child", 0, 0, 2, 0.0, 1.0, 3.0),
        tracing.Span(2, "child", 0, 0, 3, 0.0, 2.0, 5.0),  # overlaps, other thread
        tracing.Span(3, "grandchild", 2, 0, 3, 0.0, 2.5, 4.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.5, 3: 1.5}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dominant_layer_covers_op_wall_time(workload):
    ops = make_ops(workload, 11)
    if workload == "saturation":
        ops = ops[:4]  # a whole pass takes about 30 s
    result, cover = run.run_workload(workload, 11, 0.1, True, ops=ops, report=lambda _: None)
    assert result["correct"], result
    assert cover >= 0.9
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "analytic":
        assert m["guard.solve_gb.busy_s"] > m["scenario.load_scenario.busy_s"]
        assert m["scenario.load_scenario.busy_s"] > m["bounds.deployable_area.busy_s"]
        assert m["mcsim.run_saturation_trial.calls"] == m["mcsim.run_ppp_trial.calls"] == 0
    else:
        assert m["guard.solve_gb.calls"] == len(ops)  # one guard solve per op
        assert m["mcsim.pairs_accepted"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(run.END_TO_END[m["name"]] == m["unit"] for m in spec["end_to_end"])


def test_speed_scale_uses_the_probes_nearest_in_time():
    probe = speed.SpeedProbe()
    # probes at t = 0, 1, ..., 9; the host runs at half speed from t = 5 on
    probe._mid = [float(t) for t in range(10)]
    probe._dur = [speed.REFERENCE_S[1] * (1 if t < 5 else 2) for t in range(10)]
    assert probe.scale(1.0, 1.5) == 1.0
    assert probe.scale(7.0, 8.0) == 0.5
    assert probe.scale(100.0, 101.0) == 0.5  # past the last probe
