"""Every config drawn from DEFAULT_YAML's own schema exits 0, 2 or 3.

A config is the preset's keys with values drawn from each key's type, then
up to two of them (or an unknown key) replaced by a hostile value: zero,
signed zero, ±1e-300, ±1e300, a negative number, a wrong type.  Each runs
through `guard`, `bounds`, `sweep` and `simulate --trials 1`; no exception
may escape `main`, and exit 2 must name a key of the schema.
"""

import contextlib
import io
import math
import re

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from d2dcap import scenario
from d2dcap.cli import main

PRESET = yaml.load(scenario.DEFAULT_YAML, Loader=scenario._Loader)
#: key -> the choices its comment in DEFAULT_YAML lists, e.g. noise_mode
CHOICES = {
    key: [c.strip() for c in choices.split("|")]
    for key, choices in re.findall(r"^\s*(\w+):[^#\n]*#\s*([\w-]+(?:\s*\|\s*[\w-]+)+)\s*$",
                                   scenario.DEFAULT_YAML, re.M)
}
#: ranges of the keys whose preset is null but whose value is a number
NULLABLE = {"sir_due": (0.05, 20.0), "sir_bs": (0.05, 20.0), "d_fixed": (50.0, 150.0)}
HOSTILE = [0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, -1.0, 2**1100, math.inf, math.nan,
           "x", True, None, [], {}, [1.0, "x"]]
COMMANDS = (["guard"], ["bounds"], ["sweep"], ["simulate", "--trials", "1"])


def _paths(mapping, prefix=""):
    """Dotted path of every key of a nested mapping, sections included."""
    for key, value in mapping.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


SCHEMA_PATHS = sorted(_paths(PRESET), key=len, reverse=True)


def _typed(key, preset):
    """A value of the preset's type, within a factor of 2 of it."""
    if isinstance(preset, dict):
        return st.fixed_dictionaries({}, optional={k: _typed(k, v) for k, v in preset.items()})
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if isinstance(preset, int):
        return st.integers(0, 2 * preset + 1)
    if isinstance(preset, float):
        lo, hi = sorted((preset / 2.0, preset * 2.0))
        return st.floats(lo, hi)
    if key in NULLABLE:
        return st.none() | st.floats(*NULLABLE[key])
    if key == "sweep":
        axis = st.sampled_from([("d_cb", 0.0, 500.0), ("p_due", 0.05, 5.0)]).flatmap(
            lambda a: st.fixed_dictionaries(
                {"name": st.just(a[0])},
                optional={"start": st.floats(a[1], a[2]), "stop": st.floats(a[1], a[2]),
                          "steps": st.integers(1, 4)},
            )
        )
        return st.lists(axis, max_size=2)
    if isinstance(preset, list):  # densities and versus values, capped at twice the preset
        return st.lists(st.floats(min(preset) / 2.0, max(preset) * 2.0), min_size=1, max_size=3)
    return st.just(preset)  # output.path: --out replaces it


def _get(mapping, path):
    for key in path.split("."):
        if not isinstance(mapping, dict):
            return None
        mapping = mapping.get(key)
    return mapping


def _set(config, path, value):
    *sections, key = path.split(".")
    for section in sections:
        inner = config.get(section)
        if not isinstance(inner, dict):
            inner = config[section] = {}
        config = inner
    config[key] = value


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_drawn_config_exits_0_2_or_3(tmp_path_factory, data):
    config = data.draw(_typed("", PRESET), label="typed")
    unknown = [f"{p}.bogus" for p in SCHEMA_PATHS if isinstance(PRESET.get(p), dict)]
    targets = data.draw(
        st.lists(st.sampled_from(SCHEMA_PATHS + unknown + ["bogus"]), max_size=2), label="targets"
    )
    for path in targets:
        preset = _get(PRESET, path)
        negative = [-abs(preset) - 1.0] if isinstance(preset, (int, float)) else []
        _set(config, path, data.draw(st.sampled_from(HOSTILE + negative), label=path))
    tmp = tmp_path_factory.mktemp("drawn")
    cfg = tmp / "drawn.yaml"
    cfg.write_text(yaml.safe_dump(config))
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--config", str(cfg), "--out", str(tmp / "out.csv")])
        assert code in (0, 2, 3), (command, config)
        if code == 2:
            message = err.getvalue()
            named = (re.search(rf"(?<![\w.]){re.escape(p)}\b", message) for p in SCHEMA_PATHS + targets)
            assert any(named), (command, config, message)
