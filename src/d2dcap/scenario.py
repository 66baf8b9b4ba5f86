"""Experiment configuration: YAML ingestion, validation, defaulting.

A scenario bundles the radio and cell parameters with the sweep axes,
trial counts and output destination for one CLI run.  Config files are
YAML with nested sections; `DEFAULT_YAML` is the schema, giving each key's
default and type.  CLI flags override file values.  Unknown keys and out-of-range values raise
ScenarioError naming the offending field.

The preset used when no file is given is the urban single-cell parameter
set in interference-limited form (noise_mode "zero"), which is what the
standard sweeps assume; the resolved choice is always embedded in emitted
artifacts.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace

import yaml

from .propagation import CellConfig, PathLossModel, RadioConfig, cue_rx_power

__all__ = [
    "ScenarioError",
    "SweepAxis",
    "TrialConfig",
    "PPP_MAX_PAIRS",
    "Scenario",
    "load_scenario",
    "format_float",
    "DEFAULT_YAML",
]

DEFAULT_YAML = """\
radio:
  bandwidth_hz: 5.0e+6
  noise_density_dbm_hz: -174.0
  bitrate_bps: 2.0e+6
  p_cue_max_mw: 200.0
  p_due_mw: 0.7
  sir_due: null             # null: Shannon threshold for bitrate in bandwidth
  sir_bs: null
  noise_mode: zero          # per-hz | total | zero
  pl_bs:  {exponent: 3.76, intercept_db: -15.3}
  pl_due: {exponent: 3.76, intercept_db: -38.0}
cell:
  r_cell_m: 500.0
  d_min_m: 2.0
  d_max_m: 150.0
sweep: []                   # e.g. [{name: d_cb, start: 0.0, stop: 500.0, steps: 101}]
versus:                     # second axis of the `sweep` command
  name: p_cue_max           # p_cue_max | bitrate
  values: [140.0, 200.0]
sim:
  mode: saturation          # saturation | ppp
  d2d_dist: uniform         # uniform | fixed
  d_fixed: null
  densities: [4.0e-5, 6.0e-5, 8.0e-5, 1.0e-4, 1.2e-4]
trials: 200
seed: 1
output:
  path: null                # null: stdout
  format: csv               # csv | json
"""


def format_float(value: float) -> str:
    """Text of a float in every artifact: 9 significant digits."""
    return f"{value:.9g}"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The one YAML loader of scenarios: libyaml's safe loader where pyyaml
    has it, else the pure-Python one, which builds the same mappings."""


# YAML 1.2 exponent floats that YAML 1.1 leaves as strings: 1e-3, 1.0e3, 2E6
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@functools.cache
def _preset() -> dict:
    """DEFAULT_YAML parsed once per process; `_merge` never hands out its containers."""
    return yaml.load(DEFAULT_YAML, Loader=_Loader)


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        """np.linspace(start, stop, steps) in plain floats, bit for bit:
        numpy's recipe, including its rescaling when the step underflows
        to 0 and its undefined step (a product with 0) at one point."""
        start, stop, num = self.start, self.stop, self.steps
        delta = stop - start
        if num == 1:
            return [0.0 * delta + start]
        div = num - 1
        step = delta / div
        if step == 0.0:
            points = [i / div * delta + start for i in range(num)]
        else:
            points = [i * step + start for i in range(num)]
        points[-1] = stop
        return points


_AXIS_NAMES = ("d_cb", "p_due")
#: Most points on one sweep axis; every command holds a row per point.
MAX_SWEEP_STEPS = 100_000
#: versus.name -> the RadioConfig field it sets
_VERSUS_FIELDS = {"p_cue_max": "p_cue_max_mw", "bitrate": "bitrate_bps"}
#: Largest expected count of node pairs within the first pairing shell's
#: reach (see `TrialConfig.check_cell`), which is what PPP pairing lists at
#: once.  At this count, pairing one node draw in the preset cell peaks at
#: 10, 66 and 100 MiB traced (tracemalloc) for d_min 140, 50 and 2 m.
PPP_MAX_PAIRS = 1e6


def _shell_reach(d_min: float, d_max: float, start: float) -> float:
    """Reach of a PPP pairing shell starting at 1/sqrt(density), or at twice the
    last reach: max(2 d_min, start), or d_max once twice that passes d_max."""
    reach = max(2.0 * d_min, start)
    return reach if 2.0 * reach <= d_max else d_max


@dataclass(frozen=True)
class TrialConfig:
    """Deterministic description of one simulation trial.

    mode is "saturation" or "ppp" (the latter needs `density` in
    nodes/m^2); d2d_dist is "uniform" over the allowed link range or
    "fixed" at `d_fixed` metres, in saturation mode only (PPP links are
    node distances).  The seed, together with a trial index, fully
    determines the trial.  The checks below, with `check_cell`, are the
    sim-option rules; `load_scenario` builds its records through them, so
    the messages name the config fields.
    """

    mode: str = "saturation"
    density: float | None = None
    d2d_dist: str = "uniform"
    d_fixed: float | None = None
    d_cb: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("saturation", "ppp"):
            raise ValueError(f"sim.mode must be 'saturation' or 'ppp', got {self.mode!r}")
        if self.density is None:
            if self.mode == "ppp":
                raise ValueError("sim.densities must give a density in ppp mode")
        elif not self.density > 0.0:
            raise ValueError(f"sim.densities must all be > 0, got {self.density}")
        if self.d2d_dist not in ("uniform", "fixed"):
            raise ValueError(
                f"sim.d2d_dist must be 'uniform' or 'fixed', got {self.d2d_dist!r}"
            )
        if self.mode == "ppp" and self.d2d_dist == "fixed":
            raise ValueError("sim.d2d_dist must be 'uniform' in ppp mode")
        if self.d2d_dist == "fixed" and self.d_fixed is None:
            raise ValueError("sim.d_fixed is required with d2d_dist='fixed'")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def check_cell(self, cell: CellConfig) -> None:
        """The cell-dependent rules: a fixed link length lies in [d_min, d_max],
        and a PPP density expects at most PPP_MAX_PAIRS node pairs within h,
        0.5 * N * density * pi * h^2 for N = density * pi r_cell^2 nodes.  h
        is the reach of pairing's first shell (`_shell_reach`).
        """
        if self.d_fixed is not None and not cell.d_min_m <= self.d_fixed <= cell.d_max_m:
            raise ValueError(
                f"sim.d_fixed must lie in [{cell.d_min_m}, {cell.d_max_m}], got {self.d_fixed}"
            )
        if self.mode == "ppp":
            h = _shell_reach(cell.d_min_m, cell.d_max_m, 1 / math.sqrt(self.density))
            x = self.density * math.pi * cell.r_cell_m
            pairs = 0.5 * x * x * h * h
            if not pairs <= PPP_MAX_PAIRS:
                raise ValueError(
                    f"sim.densities: {self.density} nodes/m^2 expects {pairs:.3g} node pairs "
                    f"within {h:.6g} m in this cell, more than {PPP_MAX_PAIRS:.0e}"
                )


@dataclass
class Scenario:
    """Fully resolved experiment description."""

    radio: RadioConfig
    cell: CellConfig
    sweep: list[SweepAxis]
    versus_name: str
    versus_values: list[float]
    # one record per density in ppp mode, a single density-free one in
    # saturation mode; `simulate` sets d_cb per grid point
    sims: list[TrialConfig]
    trials: int
    out: str | None
    fmt: str
    # raw keyword dicts kept so sweeps can rebuild configs with re-derived
    # defaults (e.g. Shannon SIR thresholds tracking a swept bitrate)
    radio_kwargs: dict = field(default_factory=dict, repr=False)
    # the artifact header: every key of DEFAULT_YAML but output.*, dotted,
    # in its order; output path and format are left out on purpose, since
    # the emitted bytes must not depend on them
    header: dict = field(default_factory=dict, repr=False)

    def axis(self, name: str, default: SweepAxis) -> SweepAxis:
        for ax in self.sweep:
            if ax.name == name:
                return ax
        return default

    @property
    def versus_field(self) -> str:
        return _VERSUS_FIELDS[self.versus_name]

    def radio_with(self, **overrides) -> RadioConfig:
        return _build(RadioConfig, {**self.radio_kwargs, **overrides})


#: Keys whose preset is null but whose value, when given, is a number.
_NULLABLE_NUMBERS = ("sir_due", "sir_bs", "d_fixed", "stop")
#: The preset of one `sweep` entry; a null stop is the start.
_AXIS_PRESET = {"name": None, "start": 0.0, "stop": None, "steps": 1}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # inf, NaN, or an int beyond float range
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _merge(base: dict, user, where: str = "") -> dict:
    """Overlay `user` on the preset mapping `base`, whose keys and values are
    the schema, and return the result as a new mapping in `base`'s key order.

    Nested mappings merge key by key, so a partial override keeps the
    preset's other values.  Where the preset holds a float the user gives a
    finite number, stored as a float; where it holds an int, an integer;
    where it holds a string, a string; where it holds a list, a list or
    null (an empty list) of numbers, or of mappings merged onto
    `_AXIS_PRESET` for `sweep`.  Every mapping and list of the result is
    new, so a caller may change it without touching `base`.
    """
    if not isinstance(user, dict):
        raise ScenarioError(f"{where} must be a mapping")
    given = {}
    for key, value in user.items():
        path = f"{where}.{key}" if where else f"{key}"
        if key not in base:
            raise ScenarioError(f"unknown config key {path}")
        preset = base[key]
        if isinstance(preset, dict):
            value = _merge(preset, value, path)
        elif isinstance(preset, list):
            if not (value is None or isinstance(value, list)):
                raise ScenarioError(f"{path} must be a list")
            value = [
                _merge(_AXIS_PRESET, v, f"{path}[{n}]") if key == "sweep"
                else _number(v, path)
                for n, v in enumerate(value or [])
            ]
        elif isinstance(preset, float) or (key in _NULLABLE_NUMBERS and value is not None):
            value = _number(value, path)
        elif isinstance(preset, int):
            value = _integer(value, path)
        elif isinstance(preset, str) and not isinstance(value, str):
            raise ScenarioError(f"{path} must be a string, got {value!r}")
        given[key] = value
    return {
        key: given[key] if key in given
        else _merge(preset, {}) if isinstance(preset, dict)
        else list(preset) if isinstance(preset, list)
        else preset
        for key, preset in base.items()
    }


def _build(cls, kwargs: dict, where: str = ""):
    """cls(**kwargs) from checked values; its ValueError becomes a ScenarioError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}{exc}") from exc


def _build_axes(entries: list[dict], cell: CellConfig) -> list[SweepAxis]:
    axes = []
    for n, entry in enumerate(entries):
        where = f"sweep[{n}]"
        name, start, stop, steps = entry["name"], entry["start"], entry["stop"], entry["steps"]
        if name not in _AXIS_NAMES:
            raise ScenarioError(f"{where}.name must be one of {_AXIS_NAMES}, got {name!r}")
        if any(ax.name == name for ax in axes):
            raise ScenarioError(f"{where}.name {name!r} repeats an earlier sweep axis")
        if not 1 <= steps <= MAX_SWEEP_STEPS:
            raise ScenarioError(f"{where}.steps must lie in [1, {MAX_SWEEP_STEPS}], got {steps}")
        stop = start if stop is None else stop
        if name == "d_cb" and not (0.0 <= start <= stop <= cell.r_cell_m):
            raise ScenarioError(
                f"{where}: d_cb range [{start}, {stop}] outside [0, {cell.r_cell_m}]"
            )
        axes.append(SweepAxis(name=name, start=start, stop=stop, steps=steps))
    return axes


def _flatten(mapping: dict, prefix: str = "") -> dict:
    """Nested mappings and dataclasses as one mapping with dotted keys, in order."""
    flat = {}
    for key, value in mapping.items():
        if is_dataclass(value):
            value = {f.name: getattr(value, f.name) for f in fields(value)}
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def load_scenario(
    path: str | None = None,
    *,
    seed: int | None = None,
    trials: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
) -> Scenario:
    """Build a Scenario from a YAML file (or the built-in preset) plus overrides.

    The seed and trials overrides replace the file's values before they are
    checked.
    """
    user = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.load(fh, Loader=_Loader)
        except OSError as exc:
            raise ScenarioError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ScenarioError(f"config file {path} is not valid YAML: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"config file {path} is not valid UTF-8: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ScenarioError(f"config file {path}: the root must be a mapping")
    flags = {k: v for k, v in (("seed", seed), ("trials", trials)) if v is not None}
    data = _merge(_preset(), user | flags)

    radio_kwargs = {
        k: _build(PathLossModel, v, f"radio.{k}: ") if isinstance(v, dict) else v
        for k, v in data["radio"].items()
    }
    radio = _build(RadioConfig, radio_kwargs)
    cell = _build(CellConfig, data["cell"])
    try:
        cue_rx_power(radio, cell)
    except (OverflowError, ZeroDivisionError):
        raise ScenarioError(
            f"cell.r_cell_m={cell.r_cell_m} puts the cell-edge path loss out of float "
            f"range with radio.pl_bs exponent {radio.pl_bs.exponent}"
        ) from None
    axes = _build_axes(data["sweep"], cell)

    versus = data["versus"]
    versus_name, versus_values = versus["name"], versus["values"]
    if versus_name not in _VERSUS_FIELDS:
        raise ScenarioError(
            f"versus.name must be one of {tuple(_VERSUS_FIELDS)}, got {versus_name!r}"
        )
    if not versus_values:
        raise ScenarioError("versus.values must not be empty")

    sim = data["sim"]
    try:
        sims = [
            TrialConfig(
                mode=sim["mode"],
                density=density,
                d2d_dist=sim["d2d_dist"],
                d_fixed=sim["d_fixed"],
                seed=data["seed"],
            )
            for density in sim["densities"] or [None]
        ]
        for record in sims:
            record.check_cell(cell)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if sims[0].mode == "saturation":
        sims = [replace(sims[0], density=None)]

    output = data.pop("output")
    if not (output["path"] is None or isinstance(output["path"], str)):
        raise ScenarioError(f"output.path must be a string or null, got {output['path']!r}")

    data["radio"] = {k: getattr(radio, k) for k in data["radio"]}
    data["sweep"] = ";".join(
        f"{a.name}:{format_float(a.start)}:{format_float(a.stop)}:{a.steps}" for a in axes
    )
    versus["values"] = ",".join(map(format_float, versus_values))
    sim["densities"] = ",".join(map(format_float, sim["densities"]))
    scenario = Scenario(
        radio=radio,
        cell=cell,
        sweep=axes,
        versus_name=versus_name,
        versus_values=versus_values,
        sims=sims,
        trials=data["trials"],
        out=out if out is not None else output["path"],
        fmt=fmt if fmt is not None else output["format"],
        radio_kwargs=radio_kwargs,
        header=_flatten(data),
    )
    if scenario.trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {scenario.trials}")
    if scenario.fmt not in ("csv", "json"):
        raise ScenarioError(f"output.format must be csv or json, got {scenario.fmt!r}")

    # the sweep command rebuilds the radio at every grid point
    def check_radio(where: str, **overrides) -> None:
        try:
            scenario.radio_with(**overrides)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    for n, ax in enumerate(axes):
        if ax.name == "p_due":
            check_radio(f"sweep[{n}].start", p_due_mw=ax.start)
            check_radio(f"sweep[{n}].stop", p_due_mw=ax.stop)
    for value in versus_values:
        check_radio("versus.values", **{scenario.versus_field: value})
    return scenario
