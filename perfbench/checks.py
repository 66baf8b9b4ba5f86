"""Artifact checks: shape, parse, and the invariants the design guarantees.

`check_artifact` returns a list of problems; an op whose list is non-empty
counts as failed.  The invariants are

* t_lower_bps <= t_upper_bps on every bounds and simulate row;
* 0 <= s_d_m2 <= the ring area pi (r_out^2 - r_in^2) of the scenario's own
  guard record;
* case and regime labels are the constants `d2dcap.bounds` exports;
* a sweep's t_upper_bps is NaN or an integer multiple of the bit rate;
* saturation: t_lower_bps <= mean throughput <= t_upper_bps (criterion 7);
* ppp: mean throughput <= t_upper_bps;
* both SIR success rates lie in [0, 1].
"""

from __future__ import annotations

import math

from d2dcap import bounds

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
BOUNDS_ROWS = 101  # default d_cb axis
SWEEP_ROWS = 48  # default 24-point p_due axis times two p_cue_max values

CASES = {
    bounds.CASE_FULL_RING, bounds.CASE_INNER_CROSS, bounds.CASE_INTERIOR,
    bounds.CASE_OUTER_CROSS, bounds.CASE_DOUBLE_CROSS,
}
REGIMES = {bounds.REGIME_LOW, bounds.REGIME_MID, bounds.REGIME_HIGH}

# Artifacts print 9 significant digits, so values are compared at that
# resolution, relative to the scale of the quantity: the ring area for
# s_d_m2, the largest upper bound for throughputs.  A cut-out that swallows
# the whole ring leaves s_d_m2 = -2**-32 m^2 (one ulp of a 1e6 m^2 ring
# area), which is zero at that resolution.
_RTOL = 1e-8


def _le(a: float, b: float, scale: float) -> bool:
    return a <= b + _RTOL * abs(scale)


class Artifact:
    """A parsed CSV artifact: embedded config, column names, rows of cells."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.config: dict[str, str] = {}
        while lines and lines[0].startswith("# "):
            key, sep, value = lines.pop(0)[2:].partition("=")
            if not sep:
                raise ValueError(f"malformed config line {key!r}")
            self.config[key] = value
        if not lines:
            raise ValueError("no column header")
        self.columns = lines[0].split(",")
        self.rows = [dict(zip(self.columns, line.split(","))) for line in lines[1:]]
        for n, line in enumerate(lines[1:]):
            if len(line.split(",")) != len(self.columns):
                raise ValueError(f"row {n} has the wrong number of cells")

    def num(self, row: dict, column: str) -> float:
        return float(row[column])


def _shape(art: Artifact, columns: list[str], rows: int) -> list[str]:
    problems = []
    if art.columns != columns:
        problems.append(f"columns {art.columns} != {columns}")
    if len(art.rows) != rows:
        problems.append(f"{len(art.rows)} rows, expected {rows}")
    return problems


def ring_area(guard: Artifact) -> float:
    row = guard.rows[0]
    return math.pi * (guard.num(row, "r_out_m") ** 2 - guard.num(row, "r_in_m") ** 2)


def _check_guard(art: Artifact) -> list[str]:
    problems = _shape(art, GUARD_COLUMNS, 1)
    if not problems:
        row = art.rows[0]
        if not 0.0 <= art.num(row, "r_in_m") < art.num(row, "r_out_m"):
            problems.append("ring radii out of order")
        if int(row["gd_iterations"]) < 1:
            problems.append("gd_iterations < 1")
    return problems


def _check_bounds(art: Artifact, ring: float | None) -> list[str]:
    problems = _shape(art, BOUNDS_COLUMNS, BOUNDS_ROWS)
    if problems:
        return problems
    if ring is None:
        return ["no guard record to check the ring area against"]
    t_scale = max(abs(art.num(row, "t_upper_bps")) for row in art.rows)
    for n, row in enumerate(art.rows):
        s_d = art.num(row, "s_d_m2")
        if not (_le(0.0, s_d, ring) and _le(s_d, ring, ring)):
            problems.append(f"row {n}: s_d_m2 {s_d} outside [0, {ring}]")
        if not _le(art.num(row, "t_lower_bps"), art.num(row, "t_upper_bps"), t_scale):
            problems.append(f"row {n}: t_lower_bps > t_upper_bps")
        if row["case"] not in CASES:
            problems.append(f"row {n}: unknown case {row['case']!r}")
        if row["regime"] not in REGIMES:
            problems.append(f"row {n}: unknown regime {row['regime']!r}")
    return problems


def _check_sweep(art: Artifact) -> list[str]:
    problems = _shape(art, SWEEP_COLUMNS, SWEEP_ROWS)
    if problems:
        return problems
    bitrate = float(art.config["radio.bitrate_bps"])
    for n, row in enumerate(art.rows):
        t_upper = art.num(row, "t_upper_bps")
        if math.isnan(t_upper):
            continue
        pairs = t_upper / bitrate
        if pairs < 0.0 or abs(pairs - round(pairs)) > _RTOL * max(pairs, 1.0):
            problems.append(f"row {n}: t_upper_bps {t_upper} is not a multiple of {bitrate}")
    return problems


def _check_simulate(art: Artifact, mode: str, trials: int) -> list[str]:
    columns = SIMULATE_COLUMNS if mode == "saturation" else ["density_per_m2"] + SIMULATE_COLUMNS
    problems = _shape(art, columns, 1)
    if problems:
        return problems
    row = art.rows[0]
    if int(row["trials"]) != trials:
        problems.append(f"trials {row['trials']} != {trials}")
    t_lower, t_upper = art.num(row, "t_lower_bps"), art.num(row, "t_upper_bps")
    mean = art.num(row, "mean_throughput_bps")
    if not _le(t_lower, t_upper, t_upper):
        problems.append("t_lower_bps > t_upper_bps")
    if mode == "saturation" and not t_lower <= mean <= t_upper:
        problems.append(f"mean throughput {mean} outside [{t_lower}, {t_upper}]")
    if mode == "ppp" and not mean <= t_upper:
        problems.append(f"mean throughput {mean} above t_upper_bps {t_upper}")
    for rate in ("sir_success_rate", "rotation_success_rate"):
        if not 0.0 <= art.num(row, rate) <= 1.0:
            problems.append(f"{rate} {row[rate]} outside [0, 1]")
    return problems


def check_artifact(op, text: str, guard: Artifact | None = None) -> list[str]:
    """Problems found in the artifact `text` that `op` wrote.

    `guard` is the parsed guard record of the op's scenario, which the
    bounds check needs for the ring area.
    """
    try:
        art = Artifact(text)
        if op.command == "guard":
            return _check_guard(art)
        if op.command == "bounds":
            return _check_bounds(art, None if guard is None else ring_area(guard))
        if op.command == "sweep":
            return _check_sweep(art)
        return _check_simulate(art, op.mode, op.trials)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable artifact: {exc}"]
