"""Hexagonal layering of exclusion disks in the cell ring.

The ring between the BS guard disk (radius g_b) and the cell edge is
approximated by two concentric hexagons: the inner one circumscribes the
guard disk, the outer one is sized so the six trapezoids between them
match the ring area.  Identical exclusion disks of radius r_e_min are then
laid out on a hexagonal lattice inside one third of that ring, which gives
a closed-form pair count per layer and, via the law of cosines, the exact
centre distances needed to accumulate uplink interference at the BS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import arc_length
from .propagation import CellConfig, PathLossModel

__all__ = [
    "HexApprox",
    "PackingLayout",
    "disk_radii",
    "hex_radii",
    "build_layout",
    "packed_layout",
    "bs_interference",
    "ring_sums",
    "first_layer_neighbors",
    "MAX_LAYERS",
    "LayoutTooLarge",
]

_SQRT3 = math.sqrt(3.0)
_SQRT2_3 = math.sqrt(2.0) / 3.0
_GUARD_TERM = _SQRT3 * math.pi - 6.0

#: Most layers a layout may hold.  A layout of L layers holds about
#: 1.5 L^2 disks, and a `ring_sums` kernel computes about half as many
#: distinct terms, one pass over the layers per guard radius the BS solver
#: tries; its layer table holds at most L rows.
MAX_LAYERS = 1000


class LayoutTooLarge(ValueError):
    """The cell is too wide for the disks: the layout would exceed MAX_LAYERS."""


@dataclass(frozen=True)
class HexApprox:
    """Side lengths of the inner and outer approximation hexagons (m)."""

    r_h1: float
    r_h2: float


@dataclass(frozen=True)
class PackingLayout:
    """Layered lattice arrangement of exclusion disks in one third of the ring.

    `per_layer` holds, for each layer, the number of disks on the side of
    the radial seed segment that excludes the on-segment disk and on the
    side that includes it.  `kappa` is the BS distance of each layer's
    base centre; within layer i the j-th off-segment disk sits at lattice
    offset 2*j*r_e and the k-th on-segment-side disk at 2*(k-1)*r_e, both
    along a direction 60 degrees off the radial.  `r_e` is the disk radius
    the lattice was built with.
    """

    per_layer: tuple[tuple[int, int], ...]
    kappa: tuple[float, ...]
    r_e: float

    @property
    def n_total(self) -> int:
        """Total disk count over the full ring (three symmetric thirds)."""
        return 3 * sum(a + b for a, b in self.per_layer)


def disk_radii(g_d: float, cell: CellConfig) -> tuple[float, float]:
    """Exclusion-disk radii (r_e_min, r_e_max) of the shortest and longest links.

    A pair with link length d claims a disk of radius (d + g_d) / 2.
    """
    return (g_d + cell.d_min_m) / 2.0, (g_d + cell.d_max_m) / 2.0


def hex_radii(g_b: float, r_cell: float) -> HexApprox:
    """Hexagon side lengths for guard radius g_b inside a cell of radius r_cell.

    The inner hexagon circumscribes the guard disk (r_h1 = 2 g_b / sqrt(3));
    the outer side solves the area identity
    pi (r_cell^2 - g_b^2) = (3 sqrt(3) / 2) (r_h2^2 - r_h1^2).
    g_b may equal r_cell, in which case the ring is empty (r_h2 = r_h1).
    """
    return HexApprox(*_sides(g_b, r_cell, _SQRT3 * math.pi * r_cell**2))


def _sides(g_b: float, r_cell: float, cell_term: float) -> tuple[float, float]:
    """`hex_radii` as (r_h1, r_h2), given its cell term sqrt(3) pi r_cell^2."""
    if not 0.0 <= g_b <= r_cell:
        raise ValueError(f"guard radius must lie in [0, {r_cell}], got {g_b}")
    return 2.0 * g_b / _SQRT3, _SQRT2_3 * math.sqrt(cell_term - _GUARD_TERM * g_b**2)


def _layers(r_h1: float, r_h2: float, d_min: float, r_e_min: float, rows: list) -> list:
    """(kappa_i, (n_excl, n_incl)) for each layer `build_layout` lists.

    `rows` caches each layer's g_b-free shifts, 2 (i - 1) r_e_min and
    (2 i - 3) r_e_min, and grows to the widest ring asked for.  Raises
    LayoutTooLarge, before any layer is listed, beyond MAX_LAYERS layers.
    """
    arg = (r_h2 - r_h1 - d_min) / (2.0 * r_e_min)
    if not arg < MAX_LAYERS:
        raise LayoutTooLarge(
            f"cell.r_cell_m: a ring of width {r_h2 - r_h1:.6g} m holds "
            f"{arg:.3g} layers of disks of radius {r_e_min:.6g} m, more than {MAX_LAYERS}"
        )
    n_layers = 0 if arg < 0.0 else math.floor(arg) + 1
    for i in range(len(rows) + 1, n_layers + 1):
        rows.append((2.0 * (i - 1) * r_e_min, (2 * i - 3) * r_e_min))
    base = r_h1 + d_min / 2.0
    step = 2.0 * r_e_min
    floor = math.floor
    layers = []
    for shift, edge in rows[:n_layers]:
        kappa_i = base + shift
        layers.append((kappa_i, (max(floor((base + edge) / step), 0), floor(kappa_i / step) + 1)))
    return layers


def build_layout(hexes: HexApprox, d_min: float, r_e_min: float) -> PackingLayout:
    """Layered arrangement of disks of radius r_e_min in the hexagon ring.

    floor((r_h2 - r_h1 - d_min) / (2 r_e_min)) + 1 layers fit between the
    hexagons, none when the gap is narrower than d_min (the construction
    assumes a wide ring).  Layer i (1-based) has its base centre at
    kappa_i = r_h1 + d_min/2 + 2 (i - 1) r_e_min.  The two trapezoid halves
    meeting at the radial seed segment are counted separately: the
    excluding side leaves the on-segment disk out, the including side
    keeps it, which prevents double counting at the shared boundary.  The
    excluding count is clamped at 0 for degenerate inner hexagons.  Raises
    LayoutTooLarge beyond MAX_LAYERS layers.
    """
    layers = _layers(hexes.r_h1, hexes.r_h2, d_min, r_e_min, [])
    return PackingLayout(
        tuple(counts for _, counts in layers), tuple(kappa for kappa, _ in layers), r_e_min
    )


def packed_layout(g_d: float, g_b: float, cell: CellConfig) -> PackingLayout:
    """Minimum-size disks (radius r_e_min) layered in the ring outside g_b.

    Its `n_total` is the packed pair count the BS guard solver and the
    packed-count throughput use.
    """
    r_e_min, _ = disk_radii(g_d, cell)
    return build_layout(hex_radii(g_b, cell.r_cell_m), cell.d_min_m, r_e_min)


def _sum_layers(layers, offsets: list, r_e: float, beta: float, alpha: float) -> float:
    """One-third ring sum of beta / d^alpha over (kappa_i, (n_excl, n_incl)) layers.

    Within layer i (base distance kappa_i) the lattice offsets are
    kappa_j = 2 j r_e on the excluding side and kappa_k = 2 (k - 1) r_e on
    the including side; the 60-degree lattice direction gives BS distances
    sqrt(kappa_i^2 + kappa^2 - kappa_i * kappa).  The two sides share most
    offsets, so each offset's term is computed once; the terms are still
    added excluding side, then including side, one layer at a time.
    `offsets` caches each offset kappa with its square, and grows to the
    widest layer summed, so a ring-sum kernel builds them once per solve.
    """
    step = 2.0 * r_e
    sqrt = math.sqrt
    total = 0.0
    for kappa_i, (n_excl, n_incl) in layers:
        width = max(n_excl + 1, n_incl)
        for m in range(len(offsets), width):
            o = step * m
            offsets.append((o, o * o))
        k2 = kappa_i**2
        terms = [beta / sqrt(k2 + oo - kappa_i * o) ** alpha for o, oo in offsets[:width]]
        # loops, not sum(): on Python >= 3.12 sum() compensates, giving other bits
        layer = 0.0
        for term in terms[1 : n_excl + 1]:
            layer += term
        for term in terms[:n_incl]:
            layer += term
        total += layer
    return total


def bs_interference(layout: PackingLayout, p_due: float, pl_bs: PathLossModel) -> float:
    """Aggregate received power (mW) at the BS from one transmitter per disk.

    Each disk centre stands in for its transmitter; the one-third ring
    sum is tripled for the full ring.
    """
    layers = zip(layout.kappa, layout.per_layer)
    return 3.0 * p_due * _sum_layers(layers, [], layout.r_e, pl_bs.beta, pl_bs.exponent)


def ring_sums(g_d: float, cell: CellConfig, pl_bs: PathLossModel):
    """Ring-sum kernel: g_b -> the one-third sum behind `bs_interference` of
    `packed_layout(g_d, g_b, cell)`.

    3 p_due ring_sums(g_d, cell, pl_bs)(g_b) equals that interference bit
    for bit, without building the layout.  What does not depend on g_b is
    computed once per kernel: r_e_min, beta and alpha, the hexagon's cell
    term, and the tables of layer shifts and lattice offsets, which grow
    to the widest ring asked for.  Each call computes the hexagon sides,
    the layers' base distances and counts, and their terms.
    """
    r_cell, d_min = cell.r_cell_m, cell.d_min_m
    r_e_min, _ = disk_radii(g_d, cell)
    cell_term = _SQRT3 * math.pi * r_cell**2
    beta, alpha = pl_bs.beta, pl_bs.exponent
    rows, offsets = [], []

    def ring_sum(g_b: float) -> float:
        r_h1, r_h2 = _sides(g_b, r_cell, cell_term)
        layers = _layers(r_h1, r_h2, d_min, r_e_min, rows)
        return _sum_layers(layers, offsets, r_e_min, beta, alpha)

    return ring_sum


def first_layer_neighbors(g_d: float, r_e_min: float, r_e_max: float) -> int:
    """How many minimum-size exclusion disks ring a maximum-size one.

    The neighbouring disk centres sit on a circle of radius
    r_e_max + g_d / 2 around the victim receiver; each neighbour claims the
    arc its disk subtends there, so the count is the circumference divided
    by that arc, floored.  Seven equal disks (six neighbours around one)
    is the sanity case.  Raises ValueError when the geometry admits no
    neighbour ring at all (zero, undefined or NaN arc).
    """
    if g_d <= 0.0:
        raise ValueError("neighbour count requires a positive guard distance")
    ring_r = r_e_max + g_d / 2.0
    arc = arc_length(ring_r, r_e_min, r_e_min + r_e_max)
    if not arc > 0.0:
        raise ValueError(f"degenerate neighbour geometry: arc length {arc}")
    return int(math.floor(2.0 * math.pi * ring_r / arc))
