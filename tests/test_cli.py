import json
import math
import os
import threading
from pathlib import Path

import pytest

from d2dcap import mcsim
from d2dcap.cli import main
from d2dcap.guard import guard_distances
from d2dcap.propagation import CellConfig, RadioConfig
from d2dcap.scenario import ScenarioError, load_scenario

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_guard_record_matches_solver(tmp_path):
    code, out = run(["guard", "--config", str(DATA / "small.yaml")], tmp_path)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    gd = guard_distances(RadioConfig(noise_mode="zero"), CellConfig())
    assert float(values["g_d_m"]) == pytest.approx(gd.g_d, rel=1e-8)
    assert float(values["g_b_m"]) == pytest.approx(gd.g_b, rel=1e-8)
    assert int(values["n_s"]) == gd.n_s
    assert values["noise_mode"] == "zero"
    assert float(values["r_in_m"]) >= 0.0


def test_guard_embeds_resolved_config(tmp_path):
    code, out = run(["guard", "--config", str(DATA / "small.yaml")], tmp_path)
    text = out.read_text()
    assert "# radio.sir_due=0.319507911" in text
    assert "# radio.noise_mode=zero" in text
    assert "# seed=12345" in text


def test_bounds_golden_file(tmp_path):
    code, out = run(["bounds", "--config", str(DATA / "small.yaml")], tmp_path)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "bounds_small.csv").read_bytes()


@pytest.mark.parametrize(
    "command, config, golden",
    [
        ("guard", "small.yaml", "guard_small.csv"),
        ("sweep", "small.yaml", "sweep_small.csv"),
        ("simulate", "small.yaml", "simulate_small.csv"),
        ("simulate", "ppp_small.yaml", "simulate_ppp_small.json"),
    ],
)
def test_command_golden_files(tmp_path, command, config, golden):
    code, out = run([command, "--config", str(DATA / config)], tmp_path, golden)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_bounds_first_row_full_ring(tmp_path):
    code, out = run(["bounds", "--config", str(DATA / "small.yaml")], tmp_path)
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    first = rows[1].split(",")
    assert first[2] == "full-ring"


def test_config_validation_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cell: {d_min_m: 200.0, d_max_m: 150.0}\n")
    code = main(["guard", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "d_min_m" in err and "d_max_m" in err


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("radio: {bogus_knob: 3}\n")
    code = main(["guard", "--config", str(bad)])
    assert code == 2
    assert "radio.bogus_knob" in capsys.readouterr().err


def test_noise_limited_surfaces_as_exit_3(tmp_path, capsys):
    cfg = tmp_path / "per_hz.yaml"
    cfg.write_text("radio: {noise_mode: per-hz}\n")
    code = main(["guard", "--config", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert "noise" in err.lower()


@pytest.mark.parametrize("exponent", ["1.0e-300", "300.0", "1.0e-3"])
@pytest.mark.parametrize("command", ["guard", "simulate"])
def test_overflowing_pair_guard_exits_3(tmp_path, capsys, command, exponent):
    cfg = tmp_path / "steep.yaml"
    cfg.write_text(f"radio: {{pl_due: {{exponent: {exponent}}}}}\n")
    assert main([command, "--config", str(cfg), "--trials", "1"]) == 3
    assert "radio.pl_due" in capsys.readouterr().err


def test_flag_overrides_file_seed(tmp_path):
    _, out_a = run(
        ["simulate", "--config", str(DATA / "small.yaml"), "--trials", "2", "--seed", "77"],
        tmp_path,
        "a.csv",
    )
    _, out_b = run(
        ["simulate", "--config", str(DATA / "small.yaml"), "--trials", "2", "--seed", "78"],
        tmp_path,
        "b.csv",
    )
    assert "# seed=77" in out_a.read_text()
    assert out_a.read_text() != out_b.read_text()


def test_json_output_structure(tmp_path):
    code, out = run(
        ["bounds", "--config", str(DATA / "small.yaml"), "--format", "json"],
        tmp_path,
        "out.json",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "columns", "rows"}
    assert payload["columns"][0] == "d_cb_m"
    assert payload["config"]["radio.noise_mode"] == "zero"
    assert len(payload["rows"]) == 5
    assert payload["rows"][0]["case"] == "full-ring"


PPP_GRID = (
    "radio: {noise_mode: zero}\n"
    "sim: {mode: ppp, densities: [4.0e-5, 1.0e-4]}\n"
    "sweep: [{name: d_cb, start: 0.0, stop: 400.0, steps: 3}]\n"
)


@pytest.mark.parametrize("config", [None, PPP_GRID], ids=["small", "ppp-grid"])
def test_simulate_deterministic_across_threads(tmp_path, config):
    path = DATA / "small.yaml"
    if config is not None:
        path = tmp_path / "grid.yaml"
        path.write_text(config)
    args = ["simulate", "--config", str(path), "--trials", "4", "--seed", "5"]
    outs = [run(args + ["--threads", t], tmp_path, f"t{t}.csv")[1] for t in ("1", "2", "4")]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_simulate_runs_trials_in_calling_thread_in_stream_order(tmp_path, monkeypatch):
    calls = []
    real = mcsim.run_trial

    def spy(*args, trial_index):
        calls.append((threading.get_ident(), trial_index))
        return real(*args, trial_index=trial_index)

    monkeypatch.setattr(mcsim, "run_trial", spy)
    args = ["simulate", "--config", str(DATA / "small.yaml"), "--trials", "2", "--threads", "4"]
    code, _ = run(args, tmp_path)
    assert code == 0
    points = 5  # the d_cb axis of small.yaml
    assert [thread for thread, _ in calls] == [threading.get_ident()] * (points * 2)
    assert [index for _, index in calls] == list(range(points * 2))


GUARD_COLUMNS = [
    "g_d_m", "k", "g_b_m", "n_s", "r_e_min_m", "r_e_max_m", "r_in_m", "r_out_m",
    "gd_iterations", "noise_mode", "sir_due", "sir_bs",
]
BOUNDS_COLUMNS = ["d_cb_m", "s_d_m2", "case", "regime", "t_upper_bps", "t_lower_bps"]
SWEEP_COLUMNS = ["p_due_mw", "p_cue_max", "g_d_m", "g_b_m", "t_upper_bps"]
SIMULATE_COLUMNS = [
    "d_cb_m", "trials", "mean_pairs", "mean_throughput_bps", "stderr_throughput_bps",
    "ci95_low_bps", "ci95_high_bps", "t_lower_bps", "t_upper_bps",
    "sir_success_rate", "rotation_success_rate",
]
SWEEP_GRID = (
    "radio: {noise_mode: zero}\n"
    "sweep: [{name: p_due, start: 0.5, stop: 1.0, steps: 3}]\n"
    "versus: {name: p_cue_max, values: [140.0, 200.0]}\n"
)


@pytest.mark.parametrize(
    "command, config, columns, n_rows",
    [
        ("guard", None, GUARD_COLUMNS, 1),
        ("bounds", None, BOUNDS_COLUMNS, 5),
        ("simulate", None, SIMULATE_COLUMNS, 5),
        ("simulate", PPP_GRID, ["density_per_m2", *SIMULATE_COLUMNS], 2 * 3),
        ("sweep", SWEEP_GRID, SWEEP_COLUMNS, 3 * 2),
    ],
    ids=["guard", "bounds", "saturation", "ppp", "sweep"],
)
def test_artifact_columns(tmp_path, command, config, columns, n_rows):
    path = DATA / "small.yaml"
    if config is not None:
        path = tmp_path / "grid.yaml"
        path.write_text(config)
    args = [command, "--config", str(path), "--trials", "1"]
    code, out = run(args, tmp_path)
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == ",".join(columns)
    assert len(rows) == 1 + n_rows
    assert all(len(row.split(",")) == len(columns) for row in rows[1:])
    code, out = run(args + ["--format", "json"], tmp_path, "out.json")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == columns
    assert [list(row) for row in payload["rows"]] == [columns] * n_rows


def test_header_keeps_nine_digits(tmp_path):
    cfg = tmp_path / "digits.yaml"
    cfg.write_text(
        "sweep: [{name: d_cb, start: 237.83123456, stop: 237.83123456, steps: 1}]\n"
        "versus: {values: [140.123456789]}\n"
        "sim: {densities: [5.623413251903491e-05]}\n"
    )
    code, out = run(["bounds", "--config", str(cfg)], tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    header = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
    d_cb = [l for l in lines if not l.startswith("#")][1].split(",")[0]
    assert header["sweep"] == f"d_cb:{d_cb}:{d_cb}:1" == "d_cb:237.831235:237.831235:1"
    assert header["versus.values"] == "140.123457"
    assert header["sim.densities"] == "5.62341325e-05"


def test_preset_radio_is_the_library_default():
    assert load_scenario().radio == RadioConfig(noise_mode="zero")


def test_user_config_leaves_the_cached_preset_untouched(tmp_path):
    preset = load_scenario()
    cfg = tmp_path / "over.yaml"
    cfg.write_text("cell: {d_max_m: 120.0}\nsim: {mode: ppp, densities: [1.0e-3]}\n")
    assert load_scenario(str(cfg)) != preset
    assert load_scenario() == preset


def test_partial_path_loss_override_keeps_preset_intercept(tmp_path):
    cfg = tmp_path / "pl.yaml"
    cfg.write_text("radio: {pl_bs: {exponent: 3.76}, pl_due: {exponent: 4.0}}\n")
    scenario = load_scenario(str(cfg))
    assert scenario.radio.pl_bs.intercept_db == -15.3
    assert scenario.radio.pl_due.intercept_db == -38.0
    assert scenario.radio.pl_due.exponent == 4.0


@pytest.mark.parametrize(
    "text, field",
    [
        ("sim: {d2d_dist: fixed, d_fixed: 500.0}\n", "sim.d_fixed"),
        ("sim: {d2d_dist: fixed}\n", "sim.d_fixed"),
        ("sim: {mode: ppp, densities: []}\n", "sim.densities"),
        ("sim: {densities: [1.0e-4, -1.0]}\n", "sim.densities"),
        ("sim: {mode: bogus}\n", "sim.mode"),
        ("sim: {stop_after_failures: 0}\n", "sim.stop_after_failures"),
        ("seed: -3\n", "seed"),
        ("sweep: [{name: p_due, start: -1.0, stop: 1.0, steps: 3}]\n", "sweep[0].start"),
        ("versus: {name: bitrate, values: [-5.0]}\n", "versus.values"),
        ("radio: {pl_bs: 3.76}\n", "radio.pl_bs"),
        ("radio: {p_cue_max_mw: .inf}\n", "radio.p_cue_max_mw"),
        ("radio: {sir_due: .inf}\n", "radio.sir_due"),
        ("radio: {pl_due: {exponent: .inf}}\n", "radio.pl_due.exponent"),
        ("radio: {p_due_mw: .inf}\n", "radio.p_due_mw"),
        ("radio: {bitrate_bps: .inf}\n", "radio.bitrate_bps"),
        ("cell: {r_cell_m: .inf}\n", "cell.r_cell_m"),
        ("cell: {r_cell_m: 1.0e+200}\n", "cell.r_cell_m"),
        ("cell: {r_cell_m: 1.0e+80}\n", "cell.r_cell_m"),
        ("cell: {d_max_m: .nan}\n", "cell.d_max_m"),
        ("versus: {values: [.inf]}\n", "versus.values"),
        ("sim: {mode: ppp, densities: [.inf]}\n", "sim.densities"),
        ("sweep: 5\n", "sweep"),
        ("versus: {values: 5}\n", "versus.values"),
        ("sim: {densities: 5}\n", "sim.densities"),
        ("sim: {mode: ppp, d2d_dist: fixed, d_fixed: 50.0, densities: [1.0e-4]}\n", "sim.d2d_dist"),
        ("radio: {bitrate_bps: 1.0e+10}\n", "radio.bitrate_bps"),
        ("versus: {name: bitrate, values: [1.0e+10]}\n", "versus.values"),
        ("threads: 2\n", "threads"),
        ("versus: {name: [bitrate]}\n", "versus.name"),
        ("output: {path: [a.csv]}\n", "output.path"),
        ("radio: {pl_bs: {intercept_db: 5000.0}}\n", "radio.pl_bs"),
        ("radio: {pl_due: {intercept_db: 5000.0}}\n", "radio.pl_due"),
        (
            "radio: {noise_mode: per-hz, noise_density_dbm_hz: 5000.0}\n",
            "radio.noise_density_dbm_hz",
        ),
        (
            "sweep: [{name: d_cb, start: 0.0, stop: 100.0, steps: 3},"
            " {name: d_cb, start: 200.0, stop: 300.0, steps: 2}]\n",
            "sweep[1].name",
        ),
        ("sweep: [{name: d_cb, start: 0.0, stop: 2.0, steps: 10000000000000}]\n", "sweep[0].steps"),
        ("sweep: [{name: p_due, start: 0.1, stop: 2.0, steps: 100001}]\n", "sweep[0].steps"),
    ],
)
def test_bad_config_exits_2_naming_field(tmp_path, capsys, text, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    command = "sweep" if text.startswith(("sweep", "versus")) else "simulate"
    code = main([command, "--config", str(bad), "--trials", "1"])
    assert code == 2
    assert field in capsys.readouterr().err


def test_ppp_density_bounded_by_expected_pairs(tmp_path):
    # loaded only: a trial at these densities would exhaust memory
    cfg = tmp_path / "dense.yaml"
    for density in ("1.0e+300", "1.0e+2"):
        cfg.write_text(f"sim: {{mode: ppp, densities: [1.0e-4, {density}]}}\n")
        with pytest.raises(ScenarioError, match=r"sim\.densities"):
            load_scenario(str(cfg))
    cfg.write_text("sim: {mode: ppp, densities: [1.0e-2]}\n")
    assert load_scenario(str(cfg)).densities == [1.0e-2]


def test_negative_seed_flag_exits_2(capsys):
    assert main(["simulate", "--seed", "-3", "--trials", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_unwritable_out_exits_2_naming_output_path(tmp_path, capsys):
    code, _ = run(["guard"], tmp_path / "missing", "x.csv")
    assert code == 2
    assert "output.path" in capsys.readouterr().err


def test_unwritable_out_fails_before_any_trial(tmp_path, monkeypatch, capsys):
    calls = []
    real = mcsim.run_trial

    def spy(*args, trial_index):
        calls.append(trial_index)
        return real(*args, trial_index=trial_index)

    monkeypatch.setattr(mcsim, "run_trial", spy)
    code, _ = run(["simulate", "--trials", "2"], tmp_path / "missing", "x.csv")
    assert code == 2
    assert "output.path" in capsys.readouterr().err
    assert calls == []


def test_sweep_solver_failure_is_nan_row(tmp_path):
    cfg = tmp_path / "noisy.yaml"
    cfg.write_text(
        "radio: {noise_mode: per-hz}\n"
        "cell: {d_max_m: 60.0}\n"
        "sweep: [{name: p_due, start: 0.01, stop: 6.0, steps: 3}]\n"
        "versus: {name: p_cue_max, values: [200.0]}\n"
    )
    code, out = run(["sweep", "--config", str(cfg)], tmp_path)
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    first, *rest = rows[1:]
    assert first[2:] == ["nan", "nan", "nan"]
    assert len(rest) == 2
    assert all(math.isfinite(float(v)) for row in rest for v in row)


def test_simulate_default_cue_axis_ends_at_small_cell_edge(tmp_path):
    cfg = tmp_path / "small_cell.yaml"
    cfg.write_text("cell: {r_cell_m: 151.0}\n")
    code, out = run(["simulate", "--config", str(cfg), "--trials", "2"], tmp_path)
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert [float(row[0]) for row in rows[1:]] == [0.0, 37.75, 75.5, 113.25, 151.0]
