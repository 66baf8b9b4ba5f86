import dataclasses
import functools
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import pytest
import yaml

from d2dcap import guard, hexpack, mcsim, scenario
from d2dcap.cli import main
from d2dcap.guard import GB_TOL_M, guard_distances
from d2dcap.propagation import CellConfig, RadioConfig
from d2dcap.scenario import DEFAULT_YAML, ScenarioError, load_scenario

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
        ("simulate", "fixed_small.yaml", "simulate_fixed_small.csv"),
        ("simulate", "ppp_small.yaml", "simulate_ppp_small.json"),
    ],
)
def test_command_golden_files(tmp_path, command, config, golden):
    code, out = run([command, "--config", str(DATA / config)], tmp_path, golden)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_golden_files_under_the_pure_python_loader(tmp_path, monkeypatch):
    # the loader scenario falls back to when pyyaml has no libyaml
    opened = []

    class PurePythonLoader(yaml.SafeLoader):
        yaml_implicit_resolvers = scenario._Loader.yaml_implicit_resolvers

        def __init__(self, stream):
            opened.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(scenario, "_Loader", PurePythonLoader)
    monkeypatch.setattr(scenario, "_preset", functools.cache(scenario._preset.__wrapped__))
    runs = [
        ("guard", "small.yaml", "guard_small.csv"),
        ("bounds", "small.yaml", "bounds_small.csv"),
        ("sweep", "small.yaml", "sweep_small.csv"),
        ("simulate", "small.yaml", "simulate_small.csv"),
        ("simulate", "fixed_small.yaml", "simulate_fixed_small.csv"),
        ("simulate", "ppp_small.yaml", "simulate_ppp_small.json"),
    ]
    for command, config, golden in runs:
        code, out = run([command, "--config", str(DATA / config)], tmp_path, golden)
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    assert len(opened) == 1 + len(runs)  # the preset once, then each config file


def test_help_lists_the_four_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # one line per command: its name, then its description
    listed = re.findall(r"^ +(?:command +)?(\w+) {2,}\w", capsys.readouterr().out, re.M)
    assert listed == ["guard", "bounds", "sweep", "simulate"]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--config", "x.yaml"], ["guard", "bounds"]])
def test_missing_or_unknown_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: d2dcap" in capsys.readouterr().err


def test_options_may_precede_the_command(tmp_path):
    out = tmp_path / "guard.csv"
    assert main(["--out", str(out), "--config", str(DATA / "small.yaml"), "guard"]) == 0
    assert out.read_bytes() == (GOLDEN / "guard_small.csv").read_bytes()


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
    assert load_scenario().cell == CellConfig()


def _leaf_keys(mapping, prefix=""):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["guard", "bounds", "sweep", "simulate"])
def test_header_lists_the_schema_keys_in_order(tmp_path, command, fmt):
    keys = [k for k in _leaf_keys(yaml.safe_load(DEFAULT_YAML)) if not k.startswith("output.")]
    args = [command, "--config", str(DATA / "small.yaml"), "--trials", "1", "--format", fmt]
    code, out = run(args, tmp_path)
    assert code == 0
    text = out.read_text()
    if fmt == "json":
        header = list(json.loads(text)["config"])
    else:
        header = [l[2:].split("=", 1)[0] for l in text.splitlines() if l.startswith("# ")]
    assert header == keys


def test_user_config_leaves_the_cached_preset_untouched(tmp_path):
    preset = load_scenario()
    cfg = tmp_path / "over.yaml"
    cfg.write_text("cell: {d_max_m: 120.0}\nsim: {mode: ppp, densities: [1.0e-3]}\n")
    assert load_scenario(str(cfg)) != preset
    assert load_scenario() == preset


def _containers(obj):
    """Every dict and list reachable from `obj`, also through dataclass fields."""
    if isinstance(obj, (dict, list)):
        yield obj
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _containers(getattr(obj, f.name))


@pytest.mark.parametrize(
    "text, flags",
    [
        (None, {}),
        ("radio: {pl_bs: {exponent: 3.5}}\n", {}),
        (
            "sweep: [{name: d_cb, start: 0.0, stop: 400.0, steps: 5},"
            " {name: p_due, start: 0.5, stop: 2.0, steps: 4}]\n",
            {},
        ),
        ("sim: {mode: ppp, densities: [1.0e-4, 1.0e-3]}\n", {}),
        ("versus: {name: bitrate, values: [1.0e+6, 2.0e+6]}\n", {}),
        (None, {"seed": 7, "trials": 3, "out": "x.csv", "fmt": "json"}),
    ],
    ids=["preset", "partial-path-loss", "sweep", "densities", "versus", "flags"],
)
def test_loaded_scenario_shares_no_container_with_the_preset(tmp_path, text, flags):
    cfg = tmp_path / "cfg.yaml"
    if text is not None:
        cfg.write_text(text)
    loaded = load_scenario(str(cfg) if text is not None else None, **flags)
    shared = {id(c) for c in _containers(scenario._preset())}
    assert not [c for c in _containers(loaded) if id(c) in shared]
    assert scenario._preset() == yaml.load(DEFAULT_YAML, Loader=scenario._Loader)


def test_main_after_failed_calls_and_help_writes_the_golden_bytes(tmp_path, capsys):
    # one parser serves every main call of a process
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: -3\n")
    small = ["--config", str(DATA / "small.yaml")]
    other = ["--out", str(tmp_path / "other.out")]
    calls = [
        (["guard", "--config", str(bad), *other], 2),
        (["bogus", *other], 2),
        (["guard", *small, "--format", "json", "--seed", "9", "--trials", "1", *other], 0),
        (["--help"], 0),
    ]
    for argv, want in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == want, argv
        for command in ("guard", "bounds"):
            golden = f"{command}_small.csv"
            code, out = run([command, *small], tmp_path, golden)
            assert code == 0
            assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    assert "usage: d2dcap" in capsys.readouterr().err


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
        ('radio: {p_due_mw: "0.5"}\n', "radio.p_due_mw"),  # quoted: a string
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
        ("radio: {pl_bs: {intercept_db: 300.0}}\n", "radio.pl_bs"),
        ("radio: {pl_due: {intercept_db: 300.0}}\n", "radio.pl_due"),
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
        ("cell: {d_min_m: true}\n", "cell.d_min_m"),
        ("radio: {sir_bs: abc}\n", "radio.sir_bs"),
        ("sim: {d_fixed: abc}\n", "sim.d_fixed"),
        ("sweep: [{name: d_cb, stop: x}]\n", "sweep[0].stop"),
        ("sweep: [{name: d_cb, bogus: 1}]\n", "sweep[0].bogus"),
        ("sweep: [3]\n", "sweep[0]"),
        ("output: {format: xml}\n", "output.format"),
        ("versus: {values: []}\n", "versus.values"),
        ("sweep: [{name: foo}]\n", "sweep[0].name"),
        ("sweep: [{name: d_cb, start: 0.0, stop: 600.0, steps: 3}]\n", "sweep[0]"),
        ("sim: {d2d_dist: bogus}\n", "sim.d2d_dist"),
    ],
)
def test_bad_config_exits_2_naming_field(tmp_path, capsys, text, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    command = "sweep" if text.startswith(("sweep", "versus")) else "simulate"
    code = main([command, "--config", str(bad), "--trials", "1"])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text", ["trials: 0\n", "trials: 2.5\n"])
def test_bad_trials_in_config_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    # no --trials: the flag would replace the file's value
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, says",
    [
        ("- 1\n- 2\n", "the root must be a mapping"),
        # libyaml and pyyaml word the parse error differently
        ("radio: {p_due_mw: [1\n", "is not valid YAML"),
        (None, "cannot read config file"),
    ],
    ids=["list-root", "invalid-yaml", "missing-file"],
)
def test_config_file_error_exits_2_naming_the_file(tmp_path, capsys, text, says):
    cfg = tmp_path / "scenario.yaml"
    if text is not None:
        cfg.write_text(text)
    assert main(["guard", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("d2dcap: configuration error: ")
    assert str(cfg) in err
    assert says in err


def test_exponent_float_without_a_dot_is_a_number(tmp_path):
    artifacts = []
    for n, literal in enumerate(["1e-3", "1.0e-3", "0.001"]):
        cfg = tmp_path / f"p{n}.yaml"
        cfg.write_text(f"radio: {{p_due_mw: {literal}}}\n")
        code, out = run(["guard", "--config", str(cfg)], tmp_path, f"p{n}.csv")
        assert code == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1] == artifacts[2]


@pytest.mark.parametrize("command", ["guard", "bounds", "sweep"])
def test_empty_config_file_is_the_preset(tmp_path, command):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    code, with_file = run([command, "--config", str(empty)], tmp_path, "with.csv")
    assert code == 0
    code, preset = run([command], tmp_path, "preset.csv")
    assert code == 0
    assert with_file.read_bytes() == preset.read_bytes()


def test_ppp_density_bounded_by_expected_pairs(tmp_path):
    # loaded only: a trial at these densities would exhaust memory
    cfg = tmp_path / "dense.yaml"
    for density in ("1.0e+300", "1.0e+2"):
        cfg.write_text(f"sim: {{mode: ppp, densities: [1.0e-4, {density}]}}\n")
        with pytest.raises(ScenarioError, match=r"sim\.densities"):
            load_scenario(str(cfg))
    cfg.write_text("sim: {mode: ppp, densities: [1.0e-2]}\n")
    assert [s.density for s in load_scenario(str(cfg)).sims] == [1.0e-2]


def test_trials_flag_replaces_the_file_value_before_it_is_checked(tmp_path):
    cfg = tmp_path / "float_trials.yaml"
    cfg.write_text("trials: 2.0\n")
    code, out = run(["simulate", "--config", str(cfg), "--trials", "2"], tmp_path)
    assert code == 0
    assert "# trials=2\n" in out.read_text()


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_fails_on_flush_and_close_exits_2(capsys):
    # /dev/full opens, but every flush fails with ENOSPC, and so does the close
    assert main(["guard", "--out", "/dev/full"]) == 2
    assert "output.path: cannot write /dev/full" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code",
    [
        ("radio: {noise_mode: per-hz, bitrate_bps: 2.0e+7}\n", 3),
        ("radio: {noise_mode: zero}\ncell: {r_cell_m: 1.0e+5, d_min_m: 1.0, d_max_m: 2.0}\n", 2),
    ],
    ids=["noise-limited", "layout-too-large"],
)
def test_failed_run_keeps_the_previous_out_file(tmp_path, capsys, text, code):
    cfg = tmp_path / "failing.yaml"
    cfg.write_text(text)
    prev = tmp_path / "prev.csv"
    prev.write_text("previous artifact\n")
    assert main(["guard", "--config", str(cfg), "--out", str(prev)]) == code
    assert prev.read_text() == "previous artifact\n"
    assert capsys.readouterr().err


def test_successful_run_replaces_the_previous_out_file(tmp_path):
    prev = tmp_path / "prev.csv"
    prev.write_text("previous artifact\n" * 1000)
    assert main(["guard", "--out", str(prev)]) == 0
    code, fresh = run(["guard"], tmp_path, "fresh.csv")
    assert code == 0
    assert prev.read_bytes() == fresh.read_bytes()


def test_simulate_memory_does_not_grow_with_trials(tmp_path, monkeypatch):
    # a stub trial, a new result each call, keeps 100,000 trials to seconds;
    # the 10-trial run first fills the one-off caches of a process
    def stub(cfg, radio, cell, gd, trial_index):
        k = trial_index % 7
        return mcsim.TrialResult(k, 2.0e6 * k, 1.0 + 0.1 * k, 3.0 / (k + 1), k < 4, k % 2 == 0)

    monkeypatch.setattr(mcsim, "run_trial", stub)
    cfg = tmp_path / "one_point.yaml"
    cfg.write_text("sweep: [{name: d_cb, start: 100.0, stop: 100.0, steps: 1}]\n")
    peaks = []
    for trials in ("10", "1000", "100000"):
        tracemalloc.start()
        try:
            code, _ = run(["simulate", "--config", str(cfg), "--trials", trials], tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[2] <= peaks[1] + 64 * 1024


def test_ppp_density_cap_counts_the_first_pairing_shell(tmp_path, capsys):
    # the preset cell at 2e-2 nodes/m^2 lists about 2.5e4 node pairs within
    # 7 m and runs; a 140 m d_min lists every pair within d_max = 150 m
    cfg = tmp_path / "dense.yaml"
    cfg.write_text(
        "sim: {mode: ppp, densities: [2.0e-2]}\n"
        "sweep: [{name: d_cb, start: 100.0, stop: 100.0, steps: 1}]\n"
    )
    code, out = run(["simulate", "--config", str(cfg), "--trials", "1"], tmp_path)
    assert code == 0
    assert float(out.read_text().splitlines()[-1].split(",")[3]) > 0.0
    cfg.write_text("cell: {d_min_m: 140.0}\nsim: {mode: ppp, densities: [1.0e-2]}\n")
    assert main(["simulate", "--config", str(cfg), "--trials", "1"]) == 2
    assert "sim.densities" in capsys.readouterr().err


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


def test_sweep_keeps_one_bisection_path_of_ring_sums(tmp_path, monkeypatch):
    cfg = tmp_path / "long.yaml"
    cfg.write_text(
        "sweep: [{name: p_due, start: 0.25, stop: 6.0, steps: 200}]\n"
        "versus: {name: p_cue_max, values: [200.0]}\n"
    )
    shared = []
    solve_gb = guard.solve_gb

    def spy(radio, cell, g_d, sums=None):
        shared.append(sums)
        return solve_gb(radio, cell, g_d, sums)

    monkeypatch.setattr(guard, "solve_gb", spy)
    code, _ = run(["sweep", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert len(shared) == 200
    sums = shared[0]
    assert all(s is sums for s in shared)
    (g_d,) = {key[0] for key in sums}
    steps = math.ceil(math.log2((CellConfig().r_cell_m - g_d / 2.0) / GB_TOL_M))
    assert 0 < len(sums) <= steps + 2


def test_sweep_ring_sums_do_not_outlive_one_call(tmp_path, monkeypatch):
    sizes_at_entry, summed = [], []
    solve_gb, sum_layers = guard.solve_gb, hexpack._sum_layers

    def spy(radio, cell, g_d, sums=None):
        sizes_at_entry.append(len(sums))
        return solve_gb(radio, cell, g_d, sums)

    monkeypatch.setattr(guard, "solve_gb", spy)
    monkeypatch.setattr(
        hexpack, "_sum_layers", lambda *args: summed.append(args) or sum_layers(*args)
    )
    per_call = []
    for _ in range(2):
        sizes_at_entry.clear()
        summed.clear()
        code, _ = run(["sweep"], tmp_path)
        assert code == 0
        assert sizes_at_entry[0] == 0  # each call starts with no sums
        per_call.append(len(summed))
    # the preset sweep's 48 solves test 903 guard radii; 283 of them lie on
    # the previous point's bisection path, so 620 are summed
    assert per_call == [620, 620]


def test_sweep_builds_one_layout_per_solved_row(tmp_path, monkeypatch):
    cfg = tmp_path / "d_max_40.yaml"
    cfg.write_text("cell: {d_max_m: 40.0}\n")
    layouts = []
    build_layout = hexpack.build_layout
    monkeypatch.setattr(
        hexpack, "build_layout", lambda *args: layouts.append(args) or build_layout(*args)
    )
    code, out = run(["sweep", "--config", str(cfg)], tmp_path)
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert sum(math.isfinite(float(row[-1])) for row in rows) == len(rows) == 48
    assert len(layouts) == 48  # the packed count's; solve_gb builds none


def test_simulate_default_cue_axis_ends_at_small_cell_edge(tmp_path):
    cfg = tmp_path / "small_cell.yaml"
    cfg.write_text("cell: {r_cell_m: 151.0}\n")
    code, out = run(["simulate", "--config", str(cfg), "--trials", "2"], tmp_path)
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert [float(row[0]) for row in rows[1:]] == [0.0, 37.75, 75.5, 113.25, 151.0]
