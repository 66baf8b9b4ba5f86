"""Solvers for the three protection radii of the uplink-reuse system.

* g_d: minimum spacing between a D2D receiver and any other transmitting
  device, from the worst-case first ring of interferers.
* k:   slope of the CUE exclusion radius, g_c = k * d_cb.
* g_b: minimum BS-to-transmitter spacing keeping the accumulated D2D
  interference at the BS below its SIR threshold, found numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import hexpack
from .propagation import (
    CellConfig,
    RadioConfig,
    cue_rx_power,
    noise_power,
    shannon_sir_threshold,
)

__all__ = [
    "NoiseLimited",
    "NonConvergent",
    "Infeasible",
    "GuardDistances",
    "pair_guard_for_neighbors",
    "solve_gd",
    "compute_k",
    "compute_gc",
    "solve_gb",
    "guard_distances",
    "guard_report",
]


GD_MAX_ITER = 64  # neighbour-count / guard-distance alternations before NonConvergent
GB_TOL_M = 1e-3  # width (m) of the final bisection bracket of the BS guard radius


class NoiseLimited(ArithmeticError):
    """The target bit rate is unreachable at d_max even without interference."""


class NonConvergent(RuntimeError):
    """The coupled neighbour-count / guard-distance iteration found no fixed point."""


class Infeasible(RuntimeError):
    """No BS guard radius admits any D2D pair under the BS SIR constraint."""


@dataclass(frozen=True)
class GuardDistances:
    """Solved guard radii, the derived disk and ring dimensions (m), and the
    first-ring count n_s and `solve_gd` alternations at the g_d fixed point."""

    g_d: float
    k: float
    g_b: float
    n_s: int
    r_e_min: float
    r_e_max: float
    r_in: float
    r_out: float
    gd_iterations: int


def pair_guard_for_neighbors(cfg: RadioConfig, cell: CellConfig, n_s: int) -> float:
    """Closed-form pair guard distance given n_s first-ring interferers.

    Solves the worst-case rate equation (victim link at d_max, n_s equal
    interferers at the guard distance) for that distance:

        g_d = d_max * (beta' n_s P_d gamma / (beta' P_d - N W d_max^a' gamma))^(1/a')

    with gamma = 2^(R_b/W) - 1 and (a', beta') the device-link path-loss
    parameters.  n_s = 0 yields 0.  Raises NoiseLimited when the
    denominator is non-positive (rate unreachable even interference-free),
    Infeasible when a power of the exponent overflows.
    """
    if n_s < 0:
        raise ValueError("neighbour count must be non-negative")
    gamma = shannon_sir_threshold(cfg.bitrate_bps, cfg.bandwidth_hz)
    alpha = cfg.pl_due.exponent
    beta = cfg.pl_due.beta
    try:
        denom = beta * cfg.p_due_mw - noise_power(cfg) * cell.d_max_m**alpha * gamma
        if denom <= 0.0:
            snr_edge = beta * cfg.p_due_mw / (noise_power(cfg) * cell.d_max_m**alpha)
            raise NoiseLimited(
                f"bit rate {cfg.bitrate_bps:g} bit/s needs SIR {gamma:.4g} but the "
                f"noise-limited SNR at d_max = {cell.d_max_m:g} m is only {snr_edge:.4g} "
                f"(noise_mode={cfg.noise_mode!r}); no guard distance can help"
            )
        numer = beta * n_s * cfg.p_due_mw * gamma
        return cell.d_max_m * (numer / denom) ** (1.0 / alpha)
    except OverflowError:
        raise Infeasible(
            f"radio.pl_due: exponent {alpha:g} overflows the pair guard distance "
            f"for {n_s} neighbours"
        ) from None


def solve_gd(cfg: RadioConfig, cell: CellConfig) -> tuple[float, int, int]:
    """Fixed point of the coupled pair-guard / neighbour-count system.

    Starting from n_s = 6 (the equal-disk kissing number), alternate the
    closed-form guard distance for n_s with the neighbour count implied by
    that distance until n_s repeats.  A cycle through previously seen
    counts is resolved conservatively by taking its largest member (larger
    n_s means a longer guard distance).  Returns (g_d, n_s, iterations),
    the last being the number of alternations made.  Raises NonConvergent
    after GD_MAX_ITER alternations, NoiseLimited if the rate is
    unreachable, and Infeasible if a guard distance has no neighbour ring
    (an arc length that is zero, undefined or NaN).
    """

    def neighbors_for(g_d: float) -> int:
        try:
            return hexpack.first_layer_neighbors(g_d, *hexpack.disk_radii(g_d, cell))
        except ValueError as exc:
            raise Infeasible(
                f"radio.pl_due: exponent {cfg.pl_due.exponent:g} gives pair guard distance "
                f"{g_d:.6g} m, where the neighbour ring is undefined ({exc})"
            ) from None

    n_s = 6
    seen: list[int] = []
    for iteration in range(1, GD_MAX_ITER + 1):
        g_d = pair_guard_for_neighbors(cfg, cell, n_s)
        n_next = neighbors_for(g_d)
        if n_next == n_s:
            return g_d, n_s, iteration
        if n_next in seen:
            n_s = max(n_s, n_next)
            g_d = pair_guard_for_neighbors(cfg, cell, n_s)
            return g_d, n_s, iteration
        seen.append(n_s)
        n_s = n_next
    raise NonConvergent(
        f"no neighbour-count fixed point within {GD_MAX_ITER} iterations (last n_s={n_s})"
    )


def compute_k(cfg: RadioConfig, cell: CellConfig) -> float:
    """Slope of the CUE exclusion radius: g_c = k * d_cb.

    k = (d_max / r_cell) * (sir_due * p_cue_max / p_due)^(1/alpha), using
    the device-link exponent (the small exponent difference between the
    two links is neglected, which is what makes g_c linear in d_cb).
    """
    alpha = cfg.pl_due.exponent
    return (cell.d_max_m / cell.r_cell_m) * (
        cfg.sir_due * cfg.p_cue_max_mw / cfg.p_due_mw
    ) ** (1.0 / alpha)


def compute_gc(k: float, d_cb: float) -> float:
    """CUE exclusion radius at CUE-BS distance d_cb."""
    if d_cb < 0.0:
        raise ValueError("CUE distance must be non-negative")
    return k * d_cb


def solve_gb(
    cfg: RadioConfig, cell: CellConfig, g_d: float, sums: dict | None = None
) -> float:
    """Smallest BS guard radius satisfying the BS SIR constraint.

    A candidate g_b is feasible when the accumulated interference of the
    hexagonal layout of minimum-size exclusion disks, 3 p_due times its
    ring sum, stays within the cap P_r,CB / sir_bs; the layout itself is
    not built.  One `hexpack.ring_sums` kernel per call sums every
    candidate, so the parts of the sum that do not depend on g_b are
    computed once.  The feasibility boundary is located by bisection on
    [g_d / 2, r_cell] to absolute tolerance GB_TOL_M; the lower end keeps
    the deployable ring's inner radius non-negative and is returned
    directly when feasible everywhere.  Raises Infeasible when only
    configurations with zero admissible pairs satisfy the constraint.

    `sums`, if given, maps (g_d, g_b) to ring sums of an earlier solve in
    the same cell under the same BS path loss.  Those sums are reused, and
    the dict is then left holding this solve's bisection path alone (about
    log2(r_cell / GB_TOL_M) entries).  A p_due sweep passes one dict: the
    ring sum does not depend on p_due, so neighbouring points, which share
    the top of their bisection trees, share those sums.
    """
    cap = cue_rx_power(cfg, cell) / cfg.sir_bs
    path = {} if sums is None else sums
    known = path.copy()
    path.clear()
    ring_sum = hexpack.ring_sums(g_d, cell, cfg.pl_bs)

    def feasible(g_b: float) -> bool:
        key = (g_d, g_b)
        total = known.get(key)
        if total is None:
            total = ring_sum(g_b)
        path[key] = total
        return 3.0 * cfg.p_due_mw * total <= cap

    lo = g_d / 2.0
    hi = cell.r_cell_m
    if lo > hi:
        raise Infeasible(
            f"pair guard distance {g_d:.3f} m exceeds the cell diameter budget; "
            "no BS guard radius leaves room for the deployable ring"
        )
    if feasible(lo):
        return lo
    a, b = lo, hi
    while b - a > GB_TOL_M:
        mid = 0.5 * (a + b)
        if feasible(mid):
            b = mid
        else:
            a = mid
    # every layer holds a pair, so the ring holds none exactly when it has no layer
    r_e_min, _ = hexpack.disk_radii(g_d, cell)
    r_h1, r_h2 = hexpack.hex_radii(b, cell.r_cell_m)
    if not hexpack._layers(r_h1, r_h2, cell.d_min_m, r_e_min, []):
        raise Infeasible(
            "the BS SIR constraint is met only where the ring holds no pair "
            f"(boundary guard radius {b:.3f} m of cell radius {cell.r_cell_m:g} m)"
        )
    return b


def guard_distances(cfg: RadioConfig, cell: CellConfig) -> GuardDistances:
    """Solve all three guard radii and derive the disk/ring dimensions."""
    g_d, n_s, iterations = solve_gd(cfg, cell)
    g_b = solve_gb(cfg, cell, g_d)
    r_e_min, r_e_max = hexpack.disk_radii(g_d, cell)
    return GuardDistances(
        g_d=g_d,
        k=compute_k(cfg, cell),
        g_b=g_b,
        n_s=n_s,
        r_e_min=r_e_min,
        r_e_max=r_e_max,
        r_in=g_b - g_d / 2.0,
        r_out=cell.r_cell_m + g_d / 2.0,
        gd_iterations=iterations,
    )


def guard_report(cfg: RadioConfig, cell: CellConfig) -> dict:
    """The guard_distances record plus the noise mode and SIR thresholds, flat.

    The fields keep the GuardDistances order; lengths get an `_m` suffix.
    """
    gd = guard_distances(cfg, cell)
    record = {
        f.name if f.name in ("k", "n_s", "gd_iterations") else f"{f.name}_m": getattr(gd, f.name)
        for f in fields(gd)
    }
    record.update(noise_mode=cfg.noise_mode, sir_due=cfg.sir_due, sir_bs=cfg.sir_bs)
    return record
