"""Experiment configuration: YAML ingestion, validation, defaulting.

A scenario bundles the radio and cell parameters with the sweep axes,
trial counts and output destination for one CLI run.  Config files are
YAML with nested sections (see `DEFAULT_YAML` for the full schema); CLI
flags override file values.  Unknown keys and out-of-range values raise
ScenarioError naming the offending field.

The preset used when no file is given is the urban single-cell parameter
set in interference-limited form (noise_mode "zero"), which is what the
standard sweeps assume; the resolved choice is always embedded in emitted
artifacts.
"""

from __future__ import annotations

import copy
import functools
import sys
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .mcsim import TrialConfig
from .propagation import CellConfig, PathLossModel, RadioConfig, cue_rx_power

__all__ = [
    "ScenarioError",
    "SweepAxis",
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
  noise_mode: zero          # per-hz | total | zero
  sir_due: null             # null: Shannon threshold for bitrate in bandwidth
  sir_bs: null
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


@functools.cache
def _preset() -> dict:
    """DEFAULT_YAML parsed once per process; callers merge into a deep copy."""
    return yaml.safe_load(DEFAULT_YAML)


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


_AXIS_NAMES = ("d_cb", "p_due")
#: Most points on one sweep axis; every command holds a row per point.
MAX_SWEEP_STEPS = 100_000
#: versus.name -> the RadioConfig field it sets
_VERSUS_FIELDS = {"p_cue_max": "p_cue_max_mw", "bitrate": "bitrate_bps"}


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
    densities: list[float]
    trials: int
    out: str | None
    fmt: str
    # raw keyword dicts kept so sweeps can rebuild configs with re-derived
    # defaults (e.g. Shannon SIR thresholds tracking a swept bitrate)
    radio_kwargs: dict = field(default_factory=dict, repr=False)

    def axis(self, name: str, default: SweepAxis) -> SweepAxis:
        for ax in self.sweep:
            if ax.name == name:
                return ax
        return default

    @property
    def versus_field(self) -> str:
        return _VERSUS_FIELDS[self.versus_name]

    def radio_with(self, **overrides) -> RadioConfig:
        kwargs = dict(self.radio_kwargs)
        kwargs.update(overrides)
        return _build_radio(kwargs)

    def resolved_config(self) -> dict:
        """Flat, ordered view of everything that determines the results.

        Output path and format are excluded on purpose: the emitted bytes
        must not depend on them.
        """
        r, c, sim = self.radio, self.cell, self.sims[0]
        cfg = {
            "radio.bandwidth_hz": r.bandwidth_hz,
            "radio.noise_density_dbm_hz": r.noise_density_dbm_hz,
            "radio.bitrate_bps": r.bitrate_bps,
            "radio.p_cue_max_mw": r.p_cue_max_mw,
            "radio.p_due_mw": r.p_due_mw,
            "radio.sir_due": r.sir_due,
            "radio.sir_bs": r.sir_bs,
            "radio.noise_mode": r.noise_mode,
            "radio.pl_bs.exponent": r.pl_bs.exponent,
            "radio.pl_bs.intercept_db": r.pl_bs.intercept_db,
            "radio.pl_due.exponent": r.pl_due.exponent,
            "radio.pl_due.intercept_db": r.pl_due.intercept_db,
            "cell.r_cell_m": c.r_cell_m,
            "cell.d_min_m": c.d_min_m,
            "cell.d_max_m": c.d_max_m,
            "sweep": ";".join(
                f"{a.name}:{format_float(a.start)}:{format_float(a.stop)}:{a.steps}"
                for a in self.sweep
            ),
            "versus.name": self.versus_name,
            "versus.values": ",".join(map(format_float, self.versus_values)),
            "sim.mode": sim.mode,
            "sim.d2d_dist": sim.d2d_dist,
            "sim.d_fixed": sim.d_fixed,
            "sim.densities": ",".join(map(format_float, self.densities)),
            "trials": self.trials,
            "seed": sim.seed,
        }
        return cfg


def _require(mapping: dict, allowed: tuple[str, ...], where: str):
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"unknown config key {where}.{key}")


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


def _merge(base: dict, user: dict, where: str = "") -> None:
    """Overlay `user` on the preset mapping `base`, whose keys are the schema.

    Nested mappings merge key by key, so a partial override keeps the
    preset's other values.  Where the preset holds a list the user gives a
    list or null (an empty list).
    """
    for key, value in user.items():
        path = f"{where}{key}"
        if key not in base:
            raise ScenarioError(f"unknown config key {path}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ScenarioError(f"{path} must be a mapping")
            _merge(base[key], value, f"{path}.")
            continue
        if isinstance(base[key], list) and not (value is None or isinstance(value, list)):
            raise ScenarioError(f"{path} must be a list")
        base[key] = value


def _build_pl(data: dict, where: str) -> PathLossModel:
    try:
        return PathLossModel(
            exponent=_number(data["exponent"], f"{where}.exponent"),
            intercept_db=_number(data["intercept_db"], f"{where}.intercept_db"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build_radio(kwargs: dict) -> RadioConfig:
    try:
        return RadioConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _radio_kwargs(data: dict) -> dict:
    kwargs: dict = {}
    for name, value in data.items():
        where = f"radio.{name}"
        if name in ("pl_bs", "pl_due"):
            kwargs[name] = _build_pl(value, where)
        elif name == "noise_mode":
            kwargs[name] = value
        elif value is not None or name not in ("sir_due", "sir_bs"):
            # a null SIR threshold is left to RadioConfig's Shannon default
            kwargs[name] = _number(value, where)
    return kwargs


def _build_cell(data: dict) -> CellConfig:
    kwargs = {k: _number(v, f"cell.{k}") for k, v in data.items()}
    try:
        return CellConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _build_axes(entries, cell: CellConfig) -> list[SweepAxis]:
    axes = []
    for n, entry in enumerate(entries or []):
        where = f"sweep[{n}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where} must be a mapping")
        _require(entry, ("name", "start", "stop", "steps"), where)
        name = entry.get("name")
        if name not in _AXIS_NAMES:
            raise ScenarioError(f"{where}.name must be one of {_AXIS_NAMES}, got {name!r}")
        if any(ax.name == name for ax in axes):
            raise ScenarioError(f"{where}.name {name!r} repeats an earlier sweep axis")
        steps = _integer(entry.get("steps", 1), f"{where}.steps")
        if not 1 <= steps <= MAX_SWEEP_STEPS:
            raise ScenarioError(f"{where}.steps must lie in [1, {MAX_SWEEP_STEPS}], got {steps}")
        start = _number(entry.get("start", 0.0), f"{where}.start")
        stop = _number(entry.get("stop", start), f"{where}.stop")
        if name == "d_cb" and not (0.0 <= start <= stop <= cell.r_cell_m):
            raise ScenarioError(
                f"{where}: d_cb range [{start}, {stop}] outside [0, {cell.r_cell_m}]"
            )
        axes.append(SweepAxis(name=name, start=start, stop=stop, steps=steps))
    return axes


def load_scenario(
    path: str | None = None,
    *,
    seed: int | None = None,
    trials: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
) -> Scenario:
    """Build a Scenario from a YAML file (or the built-in preset) plus overrides."""
    data = copy.deepcopy(_preset())
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ScenarioError(f"config file {path} is not valid YAML: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ScenarioError("config root must be a mapping")
        _merge(data, user)

    radio_kwargs = _radio_kwargs(data["radio"])
    radio = _build_radio(radio_kwargs)
    cell = _build_cell(data["cell"])
    try:
        cue_rx_power(radio, cell)
    except OverflowError:
        raise ScenarioError(
            f"cell.r_cell_m={cell.r_cell_m} overflows the cell-edge path loss "
            f"with radio.pl_bs exponent {radio.pl_bs.exponent}"
        ) from None
    axes = _build_axes(data["sweep"], cell)

    versus = data["versus"]
    versus_name = versus["name"]
    if not isinstance(versus_name, str) or versus_name not in _VERSUS_FIELDS:
        raise ScenarioError(
            f"versus.name must be one of {tuple(_VERSUS_FIELDS)}, got {versus_name!r}"
        )
    versus_values = [_number(v, "versus.values") for v in versus["values"] or []]
    if not versus_values:
        raise ScenarioError("versus.values must not be empty")

    sim = data["sim"]
    densities = [_number(v, "sim.densities") for v in sim["densities"] or []]
    d_fixed = sim["d_fixed"]
    if d_fixed is not None:
        d_fixed = _number(d_fixed, "sim.d_fixed")
    seed = seed if seed is not None else _integer(data["seed"], "seed")
    try:
        sims = [
            TrialConfig(
                mode=sim["mode"],
                density=density,
                d2d_dist=sim["d2d_dist"],
                d_fixed=d_fixed,
                seed=seed,
            )
            for density in densities or [None]
        ]
        for record in sims:
            record.check_cell(cell)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if sims[0].mode == "saturation":
        sims = [replace(sims[0], density=None)]

    output = data["output"]
    if not (output["path"] is None or isinstance(output["path"], str)):
        raise ScenarioError(f"output.path must be a string or null, got {output['path']!r}")

    scenario = Scenario(
        radio=radio,
        cell=cell,
        sweep=axes,
        versus_name=versus_name,
        versus_values=versus_values,
        sims=sims,
        densities=densities,
        trials=trials if trials is not None else _integer(data["trials"], "trials"),
        out=out if out is not None else output["path"],
        fmt=fmt if fmt is not None else output["format"],
        radio_kwargs=radio_kwargs,
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
