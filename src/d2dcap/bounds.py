"""Deployable ring area versus CUE position, and the throughput bounds.

Exclusion-disk centres may use the ring between r_in = g_b - g_d/2 and
r_out = r_cell + g_d/2 (hard cores stay clear of the BS guard disk and
inside the cell while the disks themselves overhang by g_d/2).  The CUE
carves out of that ring a disk C of radius k*d_cb - g_d/2 around itself.
Because the inner disk lies inside the outer one, the deployable area is
one inclusion-exclusion identity for every CUE position,

    S_D = S_R - (|C & D_out| - |C & D_in|),

with exact lens areas from `geometry`.  The paper's five cases (the
cut-out hides inside the central hole, crosses it, floats in the ring
interior, leaves through the outer boundary, or crosses both) are kept as
labels; they classify the geometry but no longer select a formula.  S_D
drives the pair-capacity and throughput bounds.

The simulator (`mcsim`) admits a pair of link length d only with its
centre in [g_b + d/2, r_cell - d/2] and at least k*d_cb + d/2 from the CUE:
its hard core, not its exclusion disk, must clear the guard disks and stay
in the cell.  That region lies inside the one credited above, so the bounds
side is the looser one.  The saturation sampler draws centres only from
grid cells that can still hold such a pair and packs until none can, so
its pair count is that of a truly jammed ring; acceptance criterion 7
checks that the simulated mean still falls between the bounds, closer to
the lower one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import intersection_area
from .guard import GuardDistances, compute_gc
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
    """Full deployable ring area pi (r_out^2 - r_in^2).

    Written as the two full-disk terms that `intersection_area` returns for
    contained disks, so that a cut-out swallowing the whole ring cancels it
    exactly.
    """
    return math.pi * gd.r_out * gd.r_out - math.pi * gd.r_in * gd.r_in


def deployable_area(d_cb: float, gd: GuardDistances, cell: CellConfig) -> DeployableArea:
    """Deployable area S_D at CUE-BS distance d_cb, with the paper's case.

    S_D = S_R - (|C & D_out| - |C & D_in|) for every d_cb: the bracket is
    the part of the cut-out C inside the ring, exactly zero while C hides
    in the central hole.  Where C swallows the whole ring both sides are
    the same two full-disk terms and S_D is exactly 0.  The area is
    clamped at 0 against rounding in the lens terms.

    The case label is the paper's classification and does not select a
    formula.  Its boundaries are g_b/(1+k) (cut-out still inside the
    central hole), r_cell/(1+k) (cut-out reaches the outer boundary) and
    g_b/(1-k) (cut-out clears the central hole; never reached when k >= 1
    or k > Kth2).  Ties are resolved toward the earlier-listed case;
    intervals are intersected with [0, r_cell].
    """
    if not 0.0 <= d_cb <= cell.r_cell_m:
        raise ValueError(f"CUE distance must lie in [0, {cell.r_cell_m}], got {d_cb}")
    k = gd.k
    r_cue = max(compute_gc(k, d_cb) - gd.g_d / 2.0, 0.0)
    cut = intersection_area(gd.r_out, r_cue, d_cb) - intersection_area(gd.r_in, r_cue, d_cb)
    area = max(ring_area(gd) - cut, 0.0)

    k_th1, k_th2 = k_thresholds(gd.g_b, cell.r_cell_m)
    b_hole = gd.g_b / (1.0 + k)
    b_edge = cell.r_cell_m / (1.0 + k)
    b_clear = gd.g_b / (1.0 - k) if k < 1.0 and k <= k_th2 else math.inf
    if d_cb <= b_hole:
        case = CASE_FULL_RING
    elif k <= k_th1:
        if d_cb <= b_clear:
            case = CASE_INNER_CROSS
        elif d_cb <= b_edge:
            case = CASE_INTERIOR
        else:
            case = CASE_OUTER_CROSS
    elif d_cb <= b_edge:
        case = CASE_INNER_CROSS
    elif d_cb < b_clear:
        case = CASE_DOUBLE_CROSS
    else:
        case = CASE_OUTER_CROSS
    regime = REGIME_LOW if k <= k_th1 else REGIME_MID if k <= k_th2 else REGIME_HIGH
    return DeployableArea(area_m2=area, case_label=case, regime=regime)


def pair_capacity(area_m2: float, r_e: float) -> float:
    """Continuous pair count: area_m2 / (2 sqrt(3) r_e^2).

    Each disk of radius r_e claims a hexagonal lattice cell of area
    2 sqrt(3) r_e^2.  The value is deliberately not floored: the
    throughput bounds use it as a continuous quantity, while the integer
    construction lives in `hexpack`.
    """
    if r_e <= 0.0:
        raise ValueError("disk radius must be positive")
    return area_m2 / (2.0 * _SQRT3 * r_e**2)


def throughput_bounds(area_m2: float, gd: GuardDistances, r_b: float) -> ThroughputBounds:
    """Aggregate throughput bounds for a deployable area of area_m2 (m^2).

    Upper bound: every pair at the shortest link (disk radius r_e_min);
    lower bound: every pair at the longest (r_e_max).  Both equal
    r_b * pair_capacity at the respective radius.
    """
    return ThroughputBounds(
        t_upper_bps=r_b * pair_capacity(area_m2, gd.r_e_min),
        t_lower_bps=r_b * pair_capacity(area_m2, gd.r_e_max),
    )
