"""Monte Carlo placement simulator for concurrent D2D pairs.

Two deployment modes validate the analytical bounds:

* saturation: random sequential packing of pairs (uniform centre, link
  length and orientation over the pairs that fit) run to true jamming:
  candidates are drawn only from the grid cells where a pair may still
  fit, and the trial ends when no such cell is left;
* ppp: a Poisson number of nodes scattered in the cell, greedily matched
  into pairs within the allowed link range, then admitted in random order;
  candidate pairs come from a cell list one distance shell at a time, far
  shells only among unmatched nodes, each in runs of bounded size, so memory
  grows with one shell's feasible pairs, not with its cell list's candidates;
  a table of bin offsets, at most _BINS_PER_NODE bins per node (the pitch,
  never below d_max, widens to keep it so), gives each node's neighbours.

Both samplers admit through one kernel, `_Arena.admit`: every accepted
pair respects the hard-core rules (inside the cell, clear of the BS guard
disk and of the CUE cut-out) and disjoint exclusion disks.  A trial keeps
its pairs only as one (5, n) array, `_Arena.pairs`, and one `evaluate_sir`
call reads its first four rows to audit the guard-distance design after
the fact, with the roles as placed and with every pair's transmitter and
receiver swapped, both in one stacked pass.  The scalar form of the
placement rules is the brute-force oracle in tests/test_mcsim.py.

Trials are pure functions of (config, trial index); each derives its own
random stream (for saturation, blocks of _BLOCK candidates drawn from the
live cells, see `_saturate`), so runs are reproducible and
order-independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .guard import GuardDistances, compute_gc
from .propagation import CellConfig, RadioConfig, cue_rx_power, cue_tx_power, path_loss
from .scenario import PPP_MAX_PAIRS, TrialConfig, _shell_reach

__all__ = [
    "SIR_CAP",
    "PPP_MAX_PAIRS",
    "TrialConfig",
    "TrialResult",
    "MetricStats",
    "run_saturation_trial",
    "run_ppp_trial",
    "run_trial",
    "evaluate_sir",
    "aggregate",
]

#: Reported SIR when a receiver sees no interference at all; keeps the
#: per-trial aggregates finite.
SIR_CAP = 1e12

#: Candidates drawn and admitted at once by a saturation trial.
_BLOCK = 128
#: Most cells along one side of a saturation trial's first grid.
_MAX_SIDE = 256
#: The refinement floor: a saturation trial that would split its live cells
#: more often than this, or into more cells than this, ends where it is.
_MAX_SPLITS = 40
_MAX_CELLS = 1 << 18
#: Most elements of a (disks x cells) or (disks x candidates) array.
_SPAN = 1 << 16
#: Most bins per node in the cell list of PPP pairing.
_BINS_PER_NODE = 64


@dataclass(frozen=True)
class TrialResult:
    """Measured outcome of one trial.

    min_due_sir / bs_sir come from the nominal transmitter/receiver
    assignment, and sir_ok records whether they meet both SIR thresholds;
    rotation_ok records the same verdict with every pair's roles swapped.
    A trial without pairs passes both.  floor_hit marks a saturation trial
    that ended at the sampler's refinement floor rather than jammed.
    """

    n_pairs: int
    throughput_bps: float
    min_due_sir: float
    bs_sir: float
    rotation_ok: bool
    sir_ok: bool
    floor_hit: bool = False


@dataclass(frozen=True)
class MetricStats:
    """Sample statistics of one metric over a batch of trials."""

    mean: float
    stderr: float
    ci_low: float
    ci_high: float


class _Arena:
    """Mutable accepted-set state with vectorised admissibility checks and
    the cell bounds of the saturation sampler.  `pairs` holds the accepted
    pairs, one column each in acceptance order: a (5, n) array of centre x,
    centre y, link length, heading and exclusion radius."""

    def __init__(self, gd: GuardDistances, cell: CellConfig, d_cb: float):
        self.gd = gd
        self.cell = cell
        self.d_cb = d_cb
        self.g_c = compute_gc(gd.k, d_cb)
        self.pairs = np.empty((5, 0))

    def admit(self, cx, cy, d_d2d, angle) -> None:
        """Admit a batch of candidates in order.

        A candidate is admissible when (a) its hard core (diameter d_d2d
        around the disk centre) lies inside the cell, (b) the hard core
        misses the BS guard disk, (c) it misses the CUE cut-out of radius
        k*d_cb at (d_cb, 0), and (d) its exclusion disk, of radius
        (d_d2d + g_d)/2, is disjoint from every accepted one; tangency
        counts as admissible.  Clauses (a)-(c) are checked on the whole
        batch; clause (d) narrows the survivors against the accepted disks,
        a slice of them at a time, and then each acceptance checks only the
        later survivors.
        """
        half = 0.5 * d_d2d
        rho = np.hypot(cx, cy)
        ok = rho + half <= self.cell.r_cell_m
        ok &= rho >= self.gd.g_b + half
        ok &= np.hypot(cx - self.d_cb, cy) >= self.g_c + half
        er = 0.5 * (d_d2d + self.gd.g_d)
        live = ok.nonzero()[0]
        for x, y, r in self._disks(0, len(live)):
            live = live[(np.hypot(cx[live] - x, cy[live] - y) >= er[live] + r).all(axis=0)]
        taken = []
        while len(live):
            j, live = int(live[0]), live[1:]
            taken.append(j)
            live = live[np.hypot(cx[live] - cx[j], cy[live] - cy[j]) >= er[live] + er[j]]
        if taken:
            j = np.array(taken)
            new = (cx[j], cy[j], d_d2d[j], angle[j], er[j])
            self.pairs = np.concatenate((self.pairs, new), axis=1)

    def _disks(self, first: int, width: int):
        """The accepted disks from index `first` on, as (x, y, r) column views
        of rows 0, 1 and 4 of `pairs`, in slices of at most _SPAN // width
        disks."""
        step = max(_SPAN // max(width, 1), 1)
        for i in range(first, self.pairs.shape[1], step):
            p = self.pairs[:, i : i + step, None]
            yield p[0], p[1], p[4]

    def link_bound(self, xc, yc, h: float):
        """Longest link any centre in each cell could use; cells are h x h squares
        centred at (xc, yc).

        The least of d_max, 2(r_cell - near_0), 2(far_0 - g_b),
        2(far_cue - g_c) and `disk_bound`, where near_p and far_p are the
        cell's nearest and farthest distances from p.
        """
        ax, ay = np.abs(xc), np.abs(yc)
        near = np.hypot(np.maximum(ax - 0.5 * h, 0.0), np.maximum(ay - 0.5 * h, 0.0))
        bound = np.minimum(2.0 * (self.cell.r_cell_m - near), self.disk_bound(xc, yc, h))
        np.minimum(bound, 2.0 * (np.hypot(ax + 0.5 * h, ay + 0.5 * h) - self.gd.g_b), out=bound)
        np.minimum(bound, self.cell.d_max_m, out=bound)
        if self.g_c > 0.0:
            far = np.hypot(np.abs(xc - self.d_cb) + 0.5 * h, ay + 0.5 * h)
            np.minimum(bound, 2.0 * (far - self.g_c), out=bound)
        return bound

    def disk_bound(self, xc, yc, h: float, first: int = 0):
        """Least of 2(far_j - r_j) - g_d over the disks j accepted from index
        `first` on (inf for none), for the cells of `link_bound`.  The least
        far_j - r_j is taken first and mapped once: fl(2x - g_d) is
        monotone in x, so this equals the least of the mapped values."""
        low = np.inf
        for x, y, r in self._disks(first, len(xc)):
            far = np.hypot(np.abs(xc - x) + 0.5 * h, np.abs(yc - y) + 0.5 * h)
            low = np.minimum(low, (far - r).min(axis=0))
        return 2.0 * low - self.gd.g_d


def _finish(arena: _Arena, radio: RadioConfig, floor_hit: bool = False) -> TrialResult:
    n = arena.pairs.shape[1]
    if n == 0:
        return TrialResult(0, 0.0, SIR_CAP, SIR_CAP, True, True, floor_hit)

    def meets(min_sir: float, bs_sir: float) -> bool:
        return min_sir >= radio.sir_due and bs_sir >= radio.sir_bs

    (min_sir, bs_sir), swapped = evaluate_sir(arena.pairs[:4], radio, arena.cell, arena.d_cb)
    return TrialResult(
        n_pairs=n,
        throughput_bps=n * radio.bitrate_bps,
        min_due_sir=min_sir,
        bs_sir=bs_sir,
        rotation_ok=meets(*swapped),
        sir_ok=meets(min_sir, bs_sir),
        floor_hit=floor_hit,
    )


def _saturate(cfg: TrialConfig, cell: CellConfig, gd: GuardDistances, trial_index: int):
    """Random sequential packing to jamming: (arena, whether the floor ended it).

    The cell's bounding square is cut into side x side square cells, side =
    min(ceil(8 r_cell / (d_lo + g_d)), _MAX_SIDE), so the pitch is at most
    (d_lo + g_d) / 4 until the cap binds; d_lo is d_min, or d_fixed for
    fixed links.  Each cell carries its slack, `link_bound` - d_lo, where
    `link_bound` is the longest link any centre in it could still use, and
    is live while the slack is positive (not negative for fixed links).
    The first grid and its slacks depend only on the guard radii, the cell,
    d_cb and d_lo, so `_first_grid` builds them once per such combination
    and the trials share them read-only.  Each block draws one (5, _BLOCK)
    array of uniforms from the stream ((4, _BLOCK) for fixed links): row 0
    picks a live cell, weighted by its slack (evenly for fixed links), rows
    1 and 2 place the centre uniformly in it, row 3 draws the link length
    uniformly on [d_min, bound] (uniform links only) and the last row the
    heading.  The proposal is uniform over a superset of the admissible
    (centre, link) pairs, so `_Arena.admit` accepts exactly the random
    sequential adsorption sequence.  After a block, the new disks tighten
    the live cells' slacks; a block that accepts nothing splits every live
    cell into four and bounds them afresh.  The trial ends jammed once no
    cell is live, or at the refinement floor (_MAX_SPLITS splits, or more
    than _MAX_CELLS cells after one).
    """
    rng = np.random.default_rng([cfg.seed, trial_index])
    arena = _Arena(gd, cell, cfg.d_cb)
    fixed = cfg.d2d_dist == "fixed"
    d_lo = float(cfg.d_fixed) if fixed else cell.d_min_m
    h, (xc, yc, slack) = _first_grid(gd, cell, cfg.d_cb, d_lo)
    splits = 0
    while True:
        live = slack >= 0.0 if fixed else slack > 0.0
        xc, yc, slack = xc[live], yc[live], slack[live]
        if not len(xc):
            return arena, False
        u = rng.random((4 if fixed else 5, _BLOCK))
        cum = np.cumsum(np.ones(len(xc)) if fixed else slack)
        k = cum[:-1].searchsorted(u[0] * cum[-1], side="right")  # < len(xc), even at cum[-1]
        cx, cy = xc[k] + h * (u[1] - 0.5), yc[k] + h * (u[2] - 0.5)
        dd = np.full(_BLOCK, d_lo) if fixed else d_lo + slack[k] * u[3]
        n = arena.pairs.shape[1]
        arena.admit(cx, cy, dd, 2.0 * math.pi * u[-1])
        if arena.pairs.shape[1] > n:
            np.minimum(slack, arena.disk_bound(xc, yc, h, n) - d_lo, out=slack)
        elif splits == _MAX_SPLITS or 4 * len(xc) > _MAX_CELLS:
            return arena, True
        else:
            q = 0.25 * h
            xc = np.concatenate((xc - q, xc + q, xc - q, xc + q))
            yc = np.concatenate((yc - q, yc - q, yc + q, yc + q))
            h *= 0.5
            slack = arena.link_bound(xc, yc, h) - d_lo
            splits += 1


@functools.lru_cache(maxsize=1)
def _first_grid(gd: GuardDistances, cell: CellConfig, d_cb: float, d_lo: float):
    """The first grid of `_saturate` in the empty arena: (h, cells), cells a
    read-only (3, side^2) array of centre x, centre y and slack.  A memo of
    one entry: the trials of a grid point run one after another, so they
    share one build (1.5 MiB at _MAX_SIDE)."""
    r = cell.r_cell_m
    side = min(math.ceil(8.0 * r / (d_lo + gd.g_d)), _MAX_SIDE)
    h = 2.0 * r / side
    i = np.arange(side * side)
    xc, yc = h * (i // side + 0.5) - r, h * (i % side + 0.5) - r
    cells = np.array((xc, yc, _Arena(gd, cell, d_cb).link_bound(xc, yc, h) - d_lo))
    cells.flags.writeable = False
    return h, cells


def run_saturation_trial(
    cfg: TrialConfig,
    radio: RadioConfig,
    cell: CellConfig,
    gd: GuardDistances,
    trial_index: int = 0,
) -> TrialResult:
    """Random sequential packing until no admissible pair is left.

    Centres, link lengths (from the configured distribution) and headings
    are uniform over the pairs still admissible; see `_saturate`.
    Deterministic given (cfg.seed, trial_index).  `floor_hit` marks a trial
    that stopped at the refinement floor with room possibly left.
    """
    if cfg.mode != "saturation":
        raise ValueError("run_saturation_trial requires a saturation-mode TrialConfig")
    cfg.check_cell(cell)
    arena, floor_hit = _saturate(cfg, cell, gd, trial_index)
    return _finish(arena, radio, floor_hit)


def _feasible_pairs(px, py, d_min: float, d_max: float):
    """Node pairs a < b with d_min <= |ab| <= d_max, nearest first.

    The pairs come from `_cell_list_pairs`, a cell list of pitch never below
    d_max, widened so that its table of bin offsets holds at most
    _BINS_PER_NODE bins per node.  Distances are np.hypot(px[a] - px[b],
    py[a] - py[b]); ties go by a * n + b, the stable order of the full
    distance matrix scanned row by row above its diagonal, so neither the
    pitch nor the order in which the cell list meets the pairs changes the
    result.  Returns (a, b, distance).
    """
    a, b, d = _cell_list_pairs(px, py, d_min, d_max)
    rank = np.argsort(d)
    d_sorted = d[rank]
    if np.any(d_sorted[1:] == d_sorted[:-1]):
        rank = np.lexsort((a * len(px) + b, d))
    return a[rank], b[rank], d[rank]


def _cell_list_pairs(px, py, d_min: float, d_max: float):
    """The pairs of `_feasible_pairs`, unsorted, from a cell list (a function
    of its own, so that its arrays are freed before the caller sorts).

    Nodes are binned on a grid of pitch just over d_max, so every feasible
    partner of a node sits in its own bin or one of the 8 around it; each
    bin is joined with itself and 4 forward neighbours (a half stencil), so
    no pair is listed twice.  The pitch doubles until the grid has at most
    _BINS_PER_NODE bins per node; a table of bin offsets (sorted on 16-bit
    keys while the grid has at most 2**16 bins) gives each stencil row's
    span of partners by lookup.  The stencil's (offset, node) rows,
    offset-major, are walked in runs of at most _SPAN >> 3 candidates (or
    one longer row), so memory grows with one run; each candidate's
    distance is computed once and kept if it lies in [d_min, d_max].
    """
    n = len(px)
    x0, y0 = px.min(), py.min()
    w, h = float(px.max() - x0), float(py.max() - y0)
    pitch = d_max * (1.0 + 1e-9)  # rounding cannot push a pair two bins apart
    while (w / pitch + 2.0) * (h / pitch + 2.0) > _BINS_PER_NODE * n:
        pitch *= 2.0
    ix = ((px - x0) / pitch).astype(np.int64)
    iy = ((py - y0) / pitch).astype(np.int64)
    stride = int(iy.max()) + 2  # a spare, empty column: iy - 1 never wraps a row
    size = (int(ix.max()) + 2) * stride  # every stencil target lies below this
    key = ix * stride + iy
    order = np.argsort(key.astype(np.uint16) if size <= 1 << 16 else key, kind="stable")
    key = key[order]
    first = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=size), out=first[1:])
    targets = key + np.array((0, 1, stride - 1, stride, stride + 1))[:, None]
    lo = first[targets].ravel()
    lo[:n] = np.arange(1, n + 1)  # in a node's own bin, only the nodes after it
    counts = first[1:][targets].ravel() - lo
    ends = np.cumsum(counts)
    xs, ys = px[order], py[order]
    parts, r0 = [], 0
    while r0 < 5 * n:
        start = ends[r0] - counts[r0]
        r1 = max(int(np.searchsorted(ends, start + (_SPAN >> 3), side="right")), r0 + 1)
        c = counts[r0:r1]
        i = np.repeat(np.arange(r0, r1) % n, c)
        j = np.repeat(lo[r0:r1] - (ends[r0:r1] - c - start), c) + np.arange(len(i))
        d = np.hypot(xs[i] - xs[j], ys[i] - ys[j])
        keep = np.flatnonzero((d >= d_min) & (d <= d_max))
        i, j = order[i[keep]], order[j[keep]]
        parts.append((np.minimum(i, j), np.maximum(i, j), d[keep]))
        r0 = r1
    return tuple(np.concatenate(col) for col in zip(*parts))


def _greedy_matching(a, b, n: int):
    """Indices of the edges a greedy scan in list order would match.

    Edge e ranks above edge f when e < f.  Each round takes every live edge
    that is the best-ranked live edge at both of its ends ("locally
    dominant"), then drops the edges touching a matched node; this takes
    exactly the edges of the sequential greedy scan (Preis, STACS 1999;
    Manne & Bisseling, PPAM 2007).  Returned ascending, i.e. in scan order.
    """
    taken = np.zeros(len(a), dtype=bool)
    used = np.zeros(n, dtype=bool)
    live = np.arange(len(a))
    while len(live):
        la, lb = a[live], b[live]
        best = np.full(n, len(a))
        np.minimum.at(best, la, live)
        np.minimum.at(best, lb, live)
        win = (best[la] == live) & (best[lb] == live)
        taken[live[win]] = True
        used[la[win]] = used[lb[win]] = True
        live = live[~(used[la] | used[lb])]
    return np.flatnonzero(taken)


def _match_in_shells(px, py, d_min: float, d_max: float, first: float):
    """Pairs that one greedy scan of all feasible pairs, nearest first, would
    match: (a, b, distance) in scan order, for two nodes or more.

    The scan runs shell by shell among the nodes still unmatched: [d_min, r]
    for r = max(2 d_min, first), then (r, 2r] and so on, each an octave or
    more wide, the last ending at d_max.  A shell's edges precede the next
    one's, and no feasible pair within r joins two unmatched nodes (the scan
    took it), so each shell is listed from d_min and the scans agree; node
    subsets stay ascending, which keeps the ties of `_feasible_pairs`.
    """
    used = np.zeros(len(px), dtype=bool)
    nodes, parts = np.arange(len(px)), []
    hi = _shell_reach(d_min, d_max, first)
    while True:
        a, b, d = _feasible_pairs(px[nodes], py[nodes], d_min, hi)
        taken = _greedy_matching(a, b, len(nodes))
        a, b = nodes[a[taken]], nodes[b[taken]]
        used[a] = used[b] = True
        parts.append((a, b, d[taken]))
        nodes = np.flatnonzero(~used)
        if hi == d_max or len(nodes) < 2:
            return tuple(np.concatenate(col) for col in zip(*parts))
        hi = _shell_reach(d_min, d_max, 2.0 * hi)


def run_ppp_trial(
    cfg: TrialConfig,
    radio: RadioConfig,
    cell: CellConfig,
    gd: GuardDistances,
    trial_index: int = 0,
) -> TrialResult:
    """Poisson node deployment, greedy pairing, random-order admission.

    N ~ Poisson(density * cell area) nodes land uniformly in the cell.
    Feasible node pairs (link length within [d_min, d_max]) are matched
    greedily in ascending-distance order, each node at most once, one
    distance shell at a time, the first out to about the node spacing
    1/sqrt(density) (`_match_in_shells`): memory grows with the near pairs
    of each shell, not with every feasible pair.  The matched pairs are
    then admitted in random order under the same placement rules as
    saturation mode.
    """
    if cfg.mode != "ppp":
        raise ValueError("run_ppp_trial requires a ppp-mode TrialConfig")
    cfg.check_cell(cell)
    rng = np.random.default_rng([cfg.seed, trial_index])
    arena = _Arena(gd, cell, cfg.d_cb)
    n_nodes = int(rng.poisson(cfg.density * math.pi * cell.r_cell_m**2))
    if n_nodes >= 2:
        rho = cell.r_cell_m * np.sqrt(rng.random(n_nodes))
        theta = rng.uniform(0.0, 2.0 * math.pi, n_nodes)
        px = rho * np.cos(theta)
        py = rho * np.sin(theta)
        a, b, dd = _match_in_shells(px, py, cell.d_min_m, cell.d_max_m, 1 / math.sqrt(cfg.density))
        shuffle = rng.permutation(len(a))
        a, b, dd = a[shuffle], b[shuffle], dd[shuffle]
        cx = 0.5 * (px[a] + px[b])
        cy = 0.5 * (py[a] + py[b])
        angle = np.arctan2(py[a] - py[b], px[a] - px[b])
        arena.admit(cx, cy, dd, angle)
    return _finish(arena, radio)


def run_trial(
    cfg: TrialConfig,
    radio: RadioConfig,
    cell: CellConfig,
    gd: GuardDistances,
    trial_index: int = 0,
) -> TrialResult:
    """Dispatch on cfg.mode."""
    if cfg.mode == "ppp":
        return run_ppp_trial(cfg, radio, cell, gd, trial_index)
    return run_saturation_trial(cfg, radio, cell, gd, trial_index)


def evaluate_sir(
    pairs: np.ndarray, radio: RadioConfig, cell: CellConfig, d_cb: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Both SIR audits of a trial: ((min_due_sir, bs_sir), the same with
    every pair's transmitter and receiver swapped).

    `pairs` is a (4, n) array, one column per pair: centre x, centre y,
    link length d_d2d and heading a.  A pair's transmitter sits at
    c + d_d2d/2 (cos a, sin a) and its receiver at c - d_d2d/2 (cos a,
    sin a).  min_due_sir is the worst receiver SIR: each receiver's
    desired power is p_due * L_D(d_d2d); interference sums the other
    pairs' transmitters through the device-link model plus the
    power-controlled CUE at (d_cb, 0) (absent at d_cb = 0, where power
    control drives its transmit power to zero).  bs_sir is the controlled
    uplink power at the BS against the sum of all D2D transmitters seen
    through the BS-link model.  Interference-free receivers report SIR_CAP.
    Both audits run stacked: transmitters are (2, n) arrays, one row per role
    assignment, and receivers the same rows reversed.  The receiver x
    transmitter gains are built (2, rows, n) at a time, at most _SPAN
    elements each, and every row is summed on its own.
    """
    cx, cy, d_link, angle = pairs
    n = len(cx)
    if not n:
        raise ValueError("evaluate_sir requires at least one pair")
    hx, hy = 0.5 * d_link * np.cos(angle), 0.5 * d_link * np.sin(angle)
    tx_x, tx_y = np.array((cx + hx, cx - hx)), np.array((cy + hy, cy - hy))
    rx_x, rx_y = tx_x[::-1], tx_y[::-1]
    desired = radio.p_due_mw * path_loss(radio.pl_due, d_link)
    p_cue = cue_tx_power(radio, cell, d_cb) if d_cb > 0.0 else 0.0
    p_r_cb = cue_rx_power(radio, cell)
    rows = max(_SPAN // (2 * n), 1)
    interference = np.empty((2, n))
    for i in range(0, n, rows):
        block = slice(i, i + rows)
        cross = np.hypot(rx_x[:, block, None] - tx_x[:, None], rx_y[:, block, None] - tx_y[:, None])
        gains = radio.p_due_mw * radio.pl_due.gain(np.where(cross > 0.0, cross, 1.0))
        k = np.arange(gains.shape[1])
        gains[:, k, k + i] = 0.0
        interference[:, block] = gains.sum(axis=2)
    if d_cb > 0.0:
        interference += p_cue * path_loss(radio.pl_due, np.hypot(rx_x - d_cb, rx_y))
    sir = np.divide(desired, interference, out=np.full((2, n), SIR_CAP), where=interference > 0.0)
    bs_interf = np.sum(radio.p_due_mw * path_loss(radio.pl_bs, np.hypot(tx_x, tx_y)), axis=1)
    worst = np.minimum(sir, SIR_CAP).min(axis=1).tolist()
    bs_sir = [min(p_r_cb / b, SIR_CAP) if b > 0.0 else SIR_CAP for b in bs_interf.tolist()]
    return tuple(zip(worst, bs_sir))


def aggregate(results: Iterable[TrialResult]) -> dict[str, MetricStats]:
    """Mean, standard error and 95% interval for each TrialResult metric.

    One pass over any iterable: per field only the exact sums of the values
    and of their squares are kept, as integers scaled by 2**e and 4**e for
    the largest binary exponent e seen (float.as_integer_ratio), so memory
    stays constant and each statistic is rounded once.  Single-trial
    batches get a degenerate interval (stderr 0); a non-finite value gives
    a non-finite mean and a NaN stderr, as numpy would.  Boolean verdicts
    are aggregated as success rates.
    """
    names = [f.name for f in fields(TrialResult)]
    acc = {name: [0, 0, 0, 0.0] for name in names}  # e, sum, sum of squares, non-finite sum
    n = 0
    for n, r in enumerate(results, 1):
        for name in names:
            a, v = acc[name], float(getattr(r, name))
            if not math.isfinite(v):
                a[3] += v
                continue
            p, q = v.as_integer_ratio()
            e = q.bit_length() - 1
            if e > a[0]:
                a[:3] = e, a[1] << e - a[0], a[2] << 2 * (e - a[0])
            p <<= a[0] - e
            a[1:3] = a[1] + p, a[2] + p * p
    if not n:
        raise ValueError("aggregate requires at least one trial result")
    out: dict[str, MetricStats] = {}
    for name, (e, s, sq, bad) in acc.items():
        mean = bad or s / (n << e)
        var = (n * sq - s * s) / (n * n * (n - 1) << 2 * e) if n > 1 and not bad else 0.0
        stderr = math.nan if bad and n > 1 else math.sqrt(var)
        out[name] = MetricStats(mean, stderr, mean - 1.96 * stderr, mean + 1.96 * stderr)
    return out
