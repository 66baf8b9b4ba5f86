"""Radio-layer primitives: dB conversions, path loss, power control, noise.

All internal quantities are linear: powers in mW, distances in metres,
bandwidth in Hz, gains and SIR thresholds as plain ratios.  Decibels appear
only at the boundaries of the API (model intercepts, noise density).
Mixing dB and linear terms inside the link-budget products is the classic
source of silent unit bugs, so the conversion happens exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "NOISE_MODES",
    "PathLossModel",
    "RadioConfig",
    "CellConfig",
    "db_to_linear",
    "shannon_sir_threshold",
    "path_loss",
    "cue_rx_power",
    "cue_tx_power",
    "noise_power",
]

#: How the configured noise density is turned into a noise power:
#: ``per-hz``  : density in dBm/Hz, multiplied by the system bandwidth;
#: ``total``   : the configured value already is the total power in dBm;
#: ``zero``    : interference-limited analysis, noise ignored.
NOISE_MODES = ("per-hz", "total", "zero")


def db_to_linear(x_db: float) -> float:
    """Convert a dB (or dBm) value to a linear ratio (or mW); inf on overflow."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def shannon_sir_threshold(bitrate_bps: float, bandwidth_hz: float) -> float:
    """Minimum linear SIR sustaining `bitrate_bps` in `bandwidth_hz`.

    This is the inverse of the capacity formula R = W log2(1 + SIR); it is
    used as the default receiver threshold when none is configured.
    """
    return 2.0 ** (bitrate_bps / bandwidth_hz) - 1.0


@dataclass(frozen=True)
class PathLossModel:
    """Power-law attenuation  L(d) = beta / d**exponent  (linear gain).

    Parameters
    ----------
    exponent
        Path-loss exponent, > 0.
    intercept_db
        Gain in dB at d = 1 m, at most 0; beta = 10**(intercept_db / 10).
    """

    exponent: float
    intercept_db: float

    def __post_init__(self):
        if not self.exponent > 0.0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.exponent}")
        if not self.intercept_db <= 0.0:
            raise ValueError(
                f"path-loss intercept_db must be <= 0 (a gain of at most 1 at 1 m), "
                f"got {self.intercept_db}"
            )
        if not self.beta > 0.0:
            raise ValueError(
                f"path-loss intercept_db={self.intercept_db} gives linear gain {self.beta}"
            )

    @cached_property
    def beta(self) -> float:
        """Linear gain at 1 m, computed once per model.

        Not a field: headers, equality and hashing see only the exponent
        and the intercept.
        """
        return db_to_linear(self.intercept_db)

    def gain(self, d):
        """Linear gain at distance d (metres); accepts scalars or arrays."""
        return self.beta / d ** self.exponent


def path_loss(model: PathLossModel, d):
    """Linear path-loss gain beta / d**alpha at distance d > 0 (metres)."""
    nonpositive = d <= 0.0  # a bool, or a numpy bool or bool array
    if nonpositive if isinstance(nonpositive, bool) else nonpositive.any():
        raise ValueError("path loss is undefined at non-positive distance")
    return model.gain(d)


@dataclass(frozen=True)
class RadioConfig:
    """All radio-layer scalars shared by the solvers and the simulator.

    `sir_due` / `sir_bs` default to the Shannon threshold for `bitrate_bps`
    in `bandwidth_hz` when left unset; the resolved values are stored so
    every downstream artifact can report them.
    """

    bandwidth_hz: float = 5e6
    noise_density_dbm_hz: float = -174.0
    bitrate_bps: float = 2e6
    p_cue_max_mw: float = 200.0
    p_due_mw: float = 0.7
    # urban macro: the BS link is -128.1 dB at 1 km, the device link -38 dB at 1 m
    pl_bs: PathLossModel = PathLossModel(exponent=3.76, intercept_db=-15.3)
    pl_due: PathLossModel = PathLossModel(exponent=3.76, intercept_db=-38.0)
    sir_due: float | None = None
    sir_bs: float | None = None
    noise_mode: str = "per-hz"

    def __post_init__(self):
        for name in ("bandwidth_hz", "bitrate_bps", "p_cue_max_mw", "p_due_mw"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"radio.{name} must be > 0, got {getattr(self, name)}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(
                f"radio.noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}"
            )
        if not noise_power(self) < math.inf:
            raise ValueError(
                f"radio.noise_density_dbm_hz={self.noise_density_dbm_hz} overflows the noise power"
            )
        try:
            default_sir = shannon_sir_threshold(self.bitrate_bps, self.bandwidth_hz)
        except OverflowError:
            raise ValueError(
                f"radio.bitrate_bps={self.bitrate_bps} overflows its Shannon SIR threshold"
            ) from None
        if self.sir_due is None:
            object.__setattr__(self, "sir_due", default_sir)
        if self.sir_bs is None:
            object.__setattr__(self, "sir_bs", default_sir)
        if not (self.sir_due > 0.0 and self.sir_bs > 0.0):
            raise ValueError("radio.sir_due and radio.sir_bs must be > 0")


@dataclass(frozen=True)
class CellConfig:
    """Cell geometry: coverage radius and the allowed D2D link range."""

    r_cell_m: float = 500.0
    d_min_m: float = 2.0
    d_max_m: float = 150.0

    def __post_init__(self):
        if not (0.0 < self.d_min_m < self.d_max_m < self.r_cell_m):
            raise ValueError(
                "cell geometry requires 0 < cell.d_min_m < cell.d_max_m < cell.r_cell_m, got "
                f"cell.d_min_m={self.d_min_m}, cell.d_max_m={self.d_max_m}, "
                f"cell.r_cell_m={self.r_cell_m}"
            )


def cue_rx_power(cfg: RadioConfig, cell: CellConfig) -> float:
    """Uplink power (mW) the BS receives from the power-controlled CUE.

    Power control holds it at the level of a cell-edge user transmitting
    at full power: P_r,CB = p_cue_max_mw * L_B(r_cell).
    """
    return cfg.p_cue_max_mw * path_loss(cfg.pl_bs, cell.r_cell_m)


def cue_tx_power(cfg: RadioConfig, cell: CellConfig, d_cb: float) -> float:
    """Uplink transmit power (mW) of a power-controlled CUE at distance d_cb.

    It delivers P_r,CB at the BS, so P_t,C = P_r,CB / L_B(d_cb); that is 0
    where d_cb**alpha underflows to 0, as at d_cb = 0.
    """
    if not 0.0 < d_cb <= cell.r_cell_m:
        raise ValueError(
            f"CUE distance must lie in (0, {cell.r_cell_m}], got {d_cb}"
        )
    try:
        gain = path_loss(cfg.pl_bs, d_cb)
    except ZeroDivisionError:
        return 0.0
    return cue_rx_power(cfg, cell) / gain


def noise_power(cfg: RadioConfig) -> float:
    """Noise power in mW according to `cfg.noise_mode` (0.0 for "zero")."""
    if cfg.noise_mode == "zero":
        return 0.0
    if cfg.noise_mode == "total":
        return db_to_linear(cfg.noise_density_dbm_hz)
    return db_to_linear(cfg.noise_density_dbm_hz) * cfg.bandwidth_hz
