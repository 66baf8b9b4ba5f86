"""Deployable ring area versus CUE position, and the throughput bounds.

Exclusion-disk centres may use the ring between r_in = g_b - g_d/2 and
r_out = r_cell + g_d/2 (hard cores stay clear of the BS guard disk and
inside the cell while the disks themselves overhang by g_d/2).  The CUE
carves out of that ring a disk of radius k*d_cb - g_d/2 around itself;
depending on k and d_cb this cut-out can hide inside the central hole,
cross it, float in the ring interior, leave through the outer boundary,
or cross both boundaries at once.  The resulting piecewise area S_D drives
the pair-capacity and throughput bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import intersection_area
from .guard import GuardDistances
from .propagation import CellConfig

__all__ = [
    "CASE_FULL_RING",
    "CASE_INNER_CROSS",
    "CASE_INTERIOR",
    "CASE_OUTER_CROSS",
    "CASE_DOUBLE_CROSS",
    "REGIME_LOW",
    "REGIME_MID",
    "REGIME_HIGH",
    "DeployableArea",
    "ThroughputBounds",
    "k_thresholds",
    "ring_area",
    "deployable_area",
    "pair_capacity",
    "throughput_bounds",
    "packing_upper_bound",
]

CASE_FULL_RING = "full-ring"
CASE_INNER_CROSS = "inner-cross"
CASE_INTERIOR = "interior"
CASE_OUTER_CROSS = "outer-cross"
CASE_DOUBLE_CROSS = "double-cross"

REGIME_LOW = "K<=Kth1"
REGIME_MID = "Kth1<K<=Kth2"
REGIME_HIGH = "K>Kth2"

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class DeployableArea:
    """Ring area available for exclusion disks, with the active case."""

    area_m2: float
    case_label: str
    regime: str


@dataclass(frozen=True)
class ThroughputBounds:
    """Aggregate throughput bounds (bit/s) from the two extreme disk sizes."""

    t_upper_bps: float
    t_lower_bps: float


def k_thresholds(g_b: float, r_cell: float) -> tuple[float, float]:
    """Exclusion-slope thresholds separating the three crossing regimes.

    Below k_th1 = (r_cell - g_b) / (r_cell + g_b) the CUE cut-out can never
    touch both ring boundaries at once; above
    k_th2 = (r_cell - g_b) / g_b such double crossing, once started,
    persists to the cell edge.
    """
    if not 0.0 < g_b <= r_cell:
        raise ValueError(f"guard radius must lie in (0, {r_cell}], got {g_b}")
    return (r_cell - g_b) / (r_cell + g_b), (r_cell - g_b) / g_b


def ring_area(gd: GuardDistances) -> float:
    """Full deployable ring area pi (r_out^2 - r_in^2)."""
    return math.pi * (gd.r_out**2 - gd.r_in**2)


def deployable_area(d_cb: float, gd: GuardDistances, cell: CellConfig) -> DeployableArea:
    """Piecewise deployable area S_D at CUE-BS distance d_cb.

    Case boundaries are g_b/(1+k) (cut-out still inside the central hole),
    r_cell/(1+k) (cut-out reaches the outer boundary) and g_b/(1-k)
    (cut-out clears the central hole; unreachable when k >= 1).  Ties are
    resolved toward the earlier-listed case; intervals are intersected
    with [0, r_cell].  Where the cut-out swallows the whole ring the
    difference of areas can round a hair below zero; the area is clamped
    at 0.
    """
    if not 0.0 <= d_cb <= cell.r_cell_m:
        raise ValueError(f"CUE distance must lie in [0, {cell.r_cell_m}], got {d_cb}")
    k = gd.k
    g_b = gd.g_b
    r_in, r_out = gd.r_in, gd.r_out
    s_r = ring_area(gd)
    r_cue = max(k * d_cb - gd.g_d / 2.0, 0.0)
    k_th1, k_th2 = k_thresholds(g_b, cell.r_cell_m)

    b_hole = g_b / (1.0 + k)
    b_edge = cell.r_cell_m / (1.0 + k)
    b_clear = g_b / (1.0 - k) if k < 1.0 else math.inf

    def inner_cross() -> float:
        return s_r - math.pi * r_cue**2 + intersection_area(r_in, r_cue, d_cb)

    def interior() -> float:
        return s_r - math.pi * r_cue**2

    def outer_cross() -> float:
        return s_r - intersection_area(r_out, r_cue, d_cb)

    def double_cross() -> float:
        return (
            s_r
            + intersection_area(r_in, r_cue, d_cb)
            - intersection_area(r_out, r_cue, d_cb)
        )

    if k <= k_th1:
        regime = REGIME_LOW
        if d_cb <= b_hole:
            case, area = CASE_FULL_RING, s_r
        elif d_cb <= b_clear:
            case, area = CASE_INNER_CROSS, inner_cross()
        elif d_cb <= b_edge:
            case, area = CASE_INTERIOR, interior()
        else:
            case, area = CASE_OUTER_CROSS, outer_cross()
    elif k <= k_th2:
        regime = REGIME_MID
        if d_cb <= b_hole:
            case, area = CASE_FULL_RING, s_r
        elif d_cb < b_edge:
            case, area = CASE_INNER_CROSS, inner_cross()
        elif d_cb < b_clear:
            case, area = CASE_DOUBLE_CROSS, double_cross()
        else:
            case, area = CASE_OUTER_CROSS, outer_cross()
    else:
        regime = REGIME_HIGH
        if d_cb <= b_hole:
            case, area = CASE_FULL_RING, s_r
        elif d_cb < b_edge:
            case, area = CASE_INNER_CROSS, inner_cross()
        else:
            case, area = CASE_DOUBLE_CROSS, double_cross()

    return DeployableArea(area_m2=max(area, 0.0), case_label=case, regime=regime)


def pair_capacity(area, r_e: float) -> float:
    """Continuous pair count: area / (2 sqrt(3) r_e^2).

    Each disk of radius r_e claims a hexagonal lattice cell of area
    2 sqrt(3) r_e^2.  The value is deliberately not floored: the
    throughput bounds use it as a continuous quantity, while the integer
    construction lives in `hexpack`.  `area` may be a DeployableArea or a
    plain area in m^2.
    """
    if r_e <= 0.0:
        raise ValueError("disk radius must be positive")
    area_m2 = getattr(area, "area_m2", area)
    return area_m2 / (2.0 * _SQRT3 * r_e**2)


def throughput_bounds(
    area, gd: GuardDistances, cell: CellConfig, r_b: float
) -> ThroughputBounds:
    """Aggregate throughput bounds for deployable area `area`.

    Upper bound: every pair at the shortest link (disk radius r_e_min);
    lower bound: every pair at the longest (r_e_max).  Both equal
    r_b * pair_capacity at the respective radius.
    """
    area_m2 = getattr(area, "area_m2", area)
    upper = 2.0 * r_b * area_m2 / (_SQRT3 * (gd.g_d + cell.d_min_m) ** 2)
    lower = 2.0 * r_b * area_m2 / (_SQRT3 * (gd.g_d + cell.d_max_m) ** 2)
    return ThroughputBounds(t_upper_bps=upper, t_lower_bps=lower)


def packing_upper_bound(n_pairs: int, r_b: float) -> float:
    """Throughput (bit/s) of `n_pairs` concurrent pairs at rate r_b each."""
    if n_pairs < 0:
        raise ValueError("pair count must be non-negative")
    return n_pairs * r_b
