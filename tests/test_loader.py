"""The scenario loader reads what yaml.safe_load reads, plus YAML 1.2 exponent floats.

`scenario._Loader` is libyaml's safe loader where pyyaml has it and the
pure-Python one otherwise; both must build the same mappings.
"""

import sys
from pathlib import Path

import pytest
import yaml

from d2dcap import cli, scenario

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_ops  # noqa: E402


class PurePythonLoader(yaml.SafeLoader):
    """The fallback `_Loader` is when pyyaml has no libyaml: same resolvers."""

    yaml_implicit_resolvers = scenario._Loader.yaml_implicit_resolvers


LOADERS = [scenario._Loader, PurePythonLoader]


def _texts():
    yield "DEFAULT_YAML", scenario.DEFAULT_YAML
    for path in sorted((ROOT / "tests" / "data").glob("*.yaml")):
        yield path.name, path.read_text(encoding="utf-8")
    for seed in (1, 2, 3):
        for workload in WORKLOADS:
            for n, op in enumerate(make_ops(workload, seed)):
                if op.config is not None:
                    yield f"{workload}-{seed}-{n}", op.config


def test_loader_builds_the_mappings_safe_load_builds():
    names = []
    for name, text in _texts():
        want = repr(yaml.safe_load(text))
        for loader in LOADERS:
            assert repr(yaml.load(text, Loader=loader)) == want, (name, loader)
        names.append(name)
    assert len(names) > 100


@pytest.mark.parametrize("loader", LOADERS, ids=["libyaml-or-fallback", "pure-python"])
@pytest.mark.parametrize(
    "text, value",
    [
        ("1e-3", 1e-3),
        ("1.0e3", 1e3),
        ("2E6", 2e6),
        ("-4e+2", -400.0),
        ("+.5e1", 5.0),
        ("1.0e-3", 1e-3),  # YAML 1.1 already read these
        (".inf", float("inf")),
        ("3", 3),
        ("'1e-3'", "1e-3"),  # quoted: a string
        ('"0.5"', "0.5"),
        ("1e", "1e"),
        ("e5", "e5"),
        ("1e5x", "1e5x"),
    ],
)
def test_exponent_floats_without_a_dot_are_floats(loader, text, value):
    got = yaml.load(f"x: {text}\n", Loader=loader)["x"]
    assert type(got) is type(value)
    assert got == value


def test_loader_leaves_pyyaml_classes_alone():
    for cls in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        assert yaml.load("x: 1e-3\n", Loader=cls) == {"x": "1e-3"}


@pytest.mark.parametrize("loader", LOADERS, ids=["libyaml-or-fallback", "pure-python"])
def test_config_that_is_not_utf8_exits_2_naming_the_file(loader, tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"radio: {p_due_mw: 0.5}\n# \xff\n")
    monkeypatch.setattr(scenario, "_Loader", loader)
    assert cli.main(["guard", "--config", str(bad), "--out", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err
