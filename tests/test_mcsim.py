import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from d2dcap import hexpack, mcsim
from d2dcap.guard import GuardDistances
from d2dcap.mcsim import (
    SIR_CAP,
    TrialConfig,
    TrialResult,
    _Arena,
    _feasible_pairs,
    _greedy_matching,
    _match_in_shells,
    _saturate,
    aggregate,
    evaluate_sir,
    run_ppp_trial,
    run_saturation_trial,
)
from d2dcap.propagation import CellConfig, RadioConfig, cue_tx_power, path_loss
from d2dcap.scenario import format_float


def brute_force_admissible(candidate, accepted, gd, cell, d_cb):
    """Independent re-derivation of the four placement clauses.

    `candidate` and each of `accepted` are (cx, cy, d_d2d) tuples: the
    exclusion-disk centre and the link length.  A pair's hard core has
    diameter d_d2d and its exclusion disk radius (d_d2d + g_d)/2, both
    around the centre.  This is the one scalar form of the placement rules.
    """
    cx, cy, d_link = candidate
    hc = d_link / 2.0
    if math.sqrt(cx * cx + cy * cy) + hc > cell.r_cell_m:
        return False
    if math.sqrt(cx * cx + cy * cy) < gd.g_b + hc:
        return False
    if math.sqrt((cx - d_cb) ** 2 + cy * cy) < gd.k * d_cb + hc:
        return False
    return all(
        math.sqrt((cx - ox) ** 2 + (cy - oy) ** 2) >= (d_link + gd.g_d) / 2.0 + (od + gd.g_d) / 2.0
        for ox, oy, od in accepted
    )


def arena_admits(candidate, accepted, gd, cell, d_cb):
    """Whether `_Arena.admit` takes `candidate` alone into an arena that holds
    `accepted`; both as in `brute_force_admissible`."""
    arena = _Arena(gd, cell, d_cb)
    rows = [(cx, cy, d_link, 0.0, 0.5 * (d_link + gd.g_d)) for cx, cy, d_link in accepted]
    arena.pairs = np.array(rows, dtype=float).reshape(-1, 5).T
    arena.admit(*(np.array([v], dtype=float) for v in (*candidate, 0.0)))
    return arena.pairs.shape[1] > len(accepted)


def arena_pairs(arena):
    """The accepted pairs as (cx, cy, d_d2d) tuples, in acceptance order."""
    return list(zip(*arena.pairs[:3].tolist()))


def arena_columns(arena):
    """The (4, n) array `evaluate_sir` reads: centre x, centre y, link, heading."""
    x, y, d_link, angle, _ = arena.pairs
    return np.array((x, y, d_link, angle))


def endpoints(cx, cy, d_link, angle):
    """(tx, rx) of a pair: its centre plus and minus half the link along the heading."""
    hx, hy = 0.5 * d_link * math.cos(angle), 0.5 * d_link * math.sin(angle)
    return (cx + hx, cy + hy), (cx - hx, cy - hy)


def sir_oracle(pairs, radio, cell, d_cb, rotate=False):
    """Scalar double loop over (cx, cy, d_d2d, heading) rows: the worst
    receiver SIR and the SIR at the BS, as `evaluate_sir` defines them."""
    ends = [endpoints(*p) for p in pairs]
    if rotate:
        ends = [(rx, tx) for tx, rx in ends]
    p_cue = cue_tx_power(radio, cell, d_cb) if d_cb > 0.0 else 0.0
    worst = SIR_CAP
    for i, (_, rx) in enumerate(ends):
        interference = 0.0
        for j, (tx, _) in enumerate(ends):
            if j != i:
                interference += radio.p_due_mw * path_loss(radio.pl_due, math.dist(rx, tx))
        if d_cb > 0.0:
            interference += p_cue * path_loss(radio.pl_due, math.dist(rx, (d_cb, 0.0)))
        if interference > 0.0:
            desired = radio.p_due_mw * path_loss(radio.pl_due, pairs[i][2])
            worst = min(worst, desired / interference)
    bs_interference = 0.0
    for tx, _ in ends:
        bs_interference += radio.p_due_mw * path_loss(radio.pl_bs, math.hypot(*tx))
    p_r_cb = radio.p_cue_max_mw * path_loss(radio.pl_bs, cell.r_cell_m)
    return worst, min(p_r_cb / bs_interference, SIR_CAP)


def quadratic_pairing(px, py, d_min, d_max):
    """The former N x N pairing of run_ppp_trial, kept as the oracle.

    Feasible pairs in stable ascending-distance order over the row-major
    upper triangle of the distance matrix, then one greedy scan.  Returns
    the ordered candidates (i, j, distance) and the matched (i, j) list.
    """
    n = len(px)
    dist = np.hypot(px[:, None] - px[None, :], py[:, None] - py[None, :])
    iu, ju = np.triu_indices(n, k=1)
    feas = (dist[iu, ju] >= d_min) & (dist[iu, ju] <= d_max)
    order = np.argsort(dist[iu, ju][feas], kind="stable")
    cand_i, cand_j = iu[feas][order], ju[feas][order]
    used = np.zeros(n, dtype=bool)
    matched = []
    for a, b in zip(cand_i, cand_j):
        if not used[a] and not used[b]:
            used[a] = used[b] = True
            matched.append((int(a), int(b)))
    return cand_i, cand_j, dist[cand_i, cand_j], matched


def _ppp_nodes(density, seed, r_cell=500.0):
    rng = np.random.default_rng(seed)
    n = rng.poisson(density * math.pi * r_cell**2)
    rho = r_cell * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return rho * np.cos(theta), rho * np.sin(theta), 2.0, 150.0


def _lattice_nodes(seed):
    # 250 sites of a 30 x 30 unit lattice: many exactly equal distances
    sites = np.random.default_rng(seed).choice(900, size=250, replace=False)
    return (sites // 30).astype(float), (sites % 30).astype(float), 1.0, 4.0


def _cluster_nodes():
    # 60 nodes in a 20 m square, all in one bin, some closer than d_min
    rng = np.random.default_rng(4)
    return 100.0 + 20.0 * rng.random(60), -50.0 + 20.0 * rng.random(60), 2.0, 150.0


def _wide_key_nodes():
    # 1,200 nodes over a 265 m square at d_max 1 m: about 267 x 267 bins,
    # within the cap of 64 per node, so the bin keys pass 2**16 (to 70,486);
    # each of the last 600 nodes lies 0.05 to 1.05 m from one of the first
    rng = np.random.default_rng(5)
    x, y = 265.0 * rng.random((2, 600))
    heading = rng.uniform(0.0, 2.0 * math.pi, 600)
    reach = 0.05 + rng.random(600)
    return (
        np.concatenate((x, x + reach * np.cos(heading))),
        np.concatenate((y, y + reach * np.sin(heading))),
        0.1,
        1.0,
    )


def _line_nodes(vertical):
    # 400 nodes on one axis-parallel line, on a half-metre lattice: a single
    # row or column of bins, and many equal distances
    along = 0.5 * np.random.default_rng(6).choice(2000, size=400, replace=False)
    across = np.full(400, -3.0)
    px, py = (across, along) if vertical else (along, across)
    return px, py, 1.0, 4.0


def _bin_edge_nodes():
    # bin corners k * pitch from a node at the origin, each with partners at
    # d_max along both axes and at d_min diagonally, across the bin edges
    d_min, d_max = 1.0, 4.0
    pitch = d_max * (1.0 + 1e-9)
    corner = pitch * np.arange(1.0, 9.0)
    x, y = (v.ravel() for v in np.meshgrid(corner, corner))
    diagonal = d_min / math.sqrt(2.0)
    steps = [(0.0, 0.0), (d_max, 0.0), (-d_max, 0.0), (0.0, d_max), (0.0, -d_max)]
    steps += [(sx * diagonal, sy * diagonal) for sx in (-1, 1) for sy in (-1, 1)]
    px = np.concatenate([[0.0]] + [x + dx for dx, _ in steps])
    py = np.concatenate([[0.0]] + [y + dy for _, dy in steps])
    return px, py, d_min, d_max


def _sparse_wide_nodes():
    # 200 nodes over a 2 km square at d_max 1 m, 100 of them within 0.8 m of
    # another: a bin table at pitch d_max would hold about 4 million bins
    rng = np.random.default_rng(7)
    x, y = 2000.0 * rng.random((2, 100))
    dx, dy = 0.8 * rng.random((2, 100))
    return np.concatenate((x, x + dx)), np.concatenate((y, y - dy)), 0.1, 1.0


def _pitch_margin_nodes():
    # two pairs exactly d_max = 150 m apart, one along each axis, that bins
    # of pitch d_max would put two apart: from the lowest node, at -869 m,
    # one end lies an ulp short of 3 d_max and the other rounds onto 4 d_max
    near = np.nextafter(-869.0 + 450.0, -np.inf)
    line = np.array([-869.0, near, near + 150.0])
    across = np.zeros(3)
    return np.concatenate((line, across)), np.concatenate((across, line)), 2.0, 150.0


NODE_SETS = {
    "ppp-4e-05": lambda: _ppp_nodes(4e-5, 1),
    "ppp-1e-03": lambda: _ppp_nodes(1e-3, 2),
    "ppp-2e-03": lambda: _ppp_nodes(2e-3, 3),
    "lattice-0": lambda: _lattice_nodes(0),
    "lattice-1": lambda: _lattice_nodes(1),
    "lattice-2": lambda: _lattice_nodes(2),
    "cluster": _cluster_nodes,
    "no-feasible-pair": lambda: (np.array([0.0, 200.0]), np.array([0.0, 0.0]), 2.0, 150.0),
    "wide-keys": _wide_key_nodes,
    "one-row": lambda: _line_nodes(False),
    "one-column": lambda: _line_nodes(True),
    "bin-edges": _bin_edge_nodes,
    "sparse-wide": _sparse_wide_nodes,
    "pitch-margin": _pitch_margin_nodes,
}


@pytest.mark.parametrize("name", list(NODE_SETS))
def test_cell_list_matching_matches_quadratic_oracle(name):
    px, py, d_min, d_max = NODE_SETS[name]()
    cand_i, cand_j, cand_d, matched = quadratic_pairing(px, py, d_min, d_max)
    a, b, d = _feasible_pairs(px, py, d_min, d_max)
    np.testing.assert_array_equal(a, cand_i)
    np.testing.assert_array_equal(b, cand_j)
    np.testing.assert_array_equal(d, cand_d)
    taken = _greedy_matching(a, b, len(px))
    assert list(zip(a[taken].tolist(), b[taken].tolist())) == matched


@pytest.mark.parametrize("name", list(NODE_SETS))
def test_shelled_matching_matches_quadratic_oracle(name):
    # first radii below d_min, at d_max and beyond, and at the node spacing
    # 1/sqrt(density) over the set's bounding box (0 for the two-node set);
    # on the lattices also the tie distances 2 and sqrt(5), and a d_max of
    # 10 under which sqrt(5) and 2 sqrt(5) both end shells
    px, py, d_min, d_max = NODE_SETS[name]()
    spacing = math.sqrt(np.ptp(px) * np.ptp(py) / len(px))
    cases = [(d_max, first) for first in (0.5 * d_min, d_max, 2.0 * d_max, spacing)]
    if name.startswith("lattice-"):
        cases += [(top, first) for top in (d_max, 10.0) for first in (2.0, np.hypot(1.0, 2.0))]
    for top, first in cases:
        *_, matched = quadratic_pairing(px, py, d_min, top)
        a, b, d = _match_in_shells(px, py, d_min, top, float(first))
        assert list(zip(a.tolist(), b.tolist())) == matched, (top, first)
        np.testing.assert_array_equal(d, np.hypot(px[a] - px[b], py[a] - py[b]))


@pytest.mark.parametrize("budget", [1, 7])
@pytest.mark.parametrize("name", list(NODE_SETS))
def test_pairing_in_small_runs_matches_default_and_oracle(name, budget, monkeypatch):
    # _feasible_pairs walks its stencil in runs of at most _SPAN >> 3
    # candidate pairs; budgets of 1 and 7 cut the sets into many runs, and
    # a stencil row longer than the budget is a run of its own
    px, py, d_min, d_max = NODE_SETS[name]()
    first = math.sqrt(np.ptp(px) * np.ptp(py) / len(px))
    cand_i, cand_j, cand_d, matched = quadratic_pairing(px, py, d_min, d_max)
    want = _feasible_pairs(px, py, d_min, d_max) + _match_in_shells(px, py, d_min, d_max, first)
    monkeypatch.setattr(mcsim, "_SPAN", budget << 3)
    listed = _feasible_pairs(px, py, d_min, d_max)
    shelled = _match_in_shells(px, py, d_min, d_max, first)
    for got, full in zip(listed + shelled, want):
        np.testing.assert_array_equal(got, full)
    for got, oracle in zip(listed, (cand_i, cand_j, cand_d)):
        np.testing.assert_array_equal(got, oracle)
    assert list(zip(shelled[0].tolist(), shelled[1].tolist())) == matched


def test_thin_shell_pairing_memory_bounded():
    # d_min 140 m at 6e-3 m^-2, at the PPP cap: 4,715 nodes whose one
    # [140, 150] m shell joins every node pair in the 150 m stencil; walking
    # the stencil's five spans in one pass traced over 100 MiB here
    px, py, _, d_max = _ppp_nodes(6e-3, [1, 0])
    assert len(px) == 4715
    tracemalloc.start()
    try:
        a, _, d = _match_in_shells(px, py, 140.0, d_max, 1 / math.sqrt(6e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) > 0 and d.min() >= 140.0
    assert peak < 24 * 2**20


def test_sparse_wide_pairing_bin_table_bounded():
    # a bin table at pitch d_max over this set's bounding box would hold
    # about 4 million bins and traced 59 MiB; at most 64 bins per node hold
    # at most 12,800 (0.09 MiB traced in all)
    px, py, d_min, d_max = NODE_SETS["sparse-wide"]()
    tracemalloc.start()
    try:
        a, _, _ = _feasible_pairs(px, py, d_min, d_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) > 50
    assert peak < 2**20


def test_ppp_trial_pairs_by_shells_at_dense_deployment(radio, cell, gd):
    # about 7,850 nodes: the former N x N float64 matrix alone took ~470 MiB;
    # listing every feasible pair at once took 237 MiB here; the near
    # shells of about 7,850 nodes need a few MiB
    cfg = TrialConfig(mode="ppp", density=1e-2, d_cb=200.0, seed=3)
    tracemalloc.start()
    try:
        res = run_ppp_trial(cfg, radio, cell, gd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_pairs > 0
    assert peak < 16 * 2**20


def test_saturation_trial_memory_bounded(radio, cell, gd):
    # a trial holds one block of 5 x 128 uniforms and the bounds of its live
    # cells (441 at first in the preset cell); the first trial in a process
    # also loads about 0.7 MiB of numpy state
    cfg = TrialConfig(d_cb=250.0, seed=11)
    run_saturation_trial(cfg, radio, cell, gd, trial_index=1)
    tracemalloc.start()
    try:
        res = run_saturation_trial(cfg, radio, cell, gd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_pairs > 0
    assert peak < 2**20


def test_saturation_trial_memory_bounded_in_large_cell(radio):
    # a 100 km cell with 51-55 m disks: a grid of pitch (d_min + g_d)/4
    # would hold about 6e7 cells, but the first grid is capped at 256 x 256
    # (0.5 MiB per array); a CUE cut-out leaves an 8 m wide crescent for
    # a few dozen pairs, so the live cells are split many times
    cell = CellConfig(r_cell_m=1e5, d_min_m=2.0, d_max_m=10.0)
    gd = GuardDistances(
        g_d=100.0,
        k=(1.5e5 - 10.0) / 5e4,
        g_b=0.0,
        n_s=6,
        r_e_min=51.0,
        r_e_max=55.0,
        r_in=-50.0,
        r_out=1e5 + 50.0,
        gd_iterations=0,
    )
    cfg = TrialConfig(d_cb=5e4, seed=5)
    run_saturation_trial(cfg, radio, cell, gd, trial_index=1)
    tracemalloc.start()
    try:
        res = run_saturation_trial(cfg, radio, cell, gd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_pairs > 0 and not res.floor_hit
    assert peak < 8 * 2**20


def test_measure_zero_room_ends_at_refinement_floor(radio, cell):
    # fixed 150 m links between g_b = 350 m and r_cell = 500 m fit only with
    # their centre exactly 425 m from the BS: the cells along that circle
    # never die, and the trial stops at the floor instead of splitting on
    gd = GuardDistances(
        g_d=192.5,
        k=1.0,
        g_b=350.0,
        n_s=8,
        r_e_min=97.25,
        r_e_max=171.25,
        r_in=253.75,
        r_out=596.25,
        gd_iterations=0,
    )
    cfg = TrialConfig(d2d_dist="fixed", d_fixed=150.0, seed=3)
    res = run_saturation_trial(cfg, radio, cell, gd)
    assert res.floor_hit and res.n_pairs == 0
    assert not run_saturation_trial(replace(cfg, d_fixed=149.0), radio, cell, gd).floor_hit


def test_admissible_examples(gd, cell):
    at_bs = (0.0, 0.0, cell.d_min_m)
    assert not arena_admits(at_bs, [], gd, cell, 0.0)
    legal = (gd.g_b + cell.d_min_m, 0.0, cell.d_min_m)
    assert arena_admits(legal, [], gd, cell, 0.0)
    # same spot already occupied
    assert not arena_admits(legal, [legal], gd, cell, 0.0)


def test_admissible_matches_brute_force(gd, cell):
    # the production kernel, one candidate at a time, against the scalar rule
    rng = np.random.default_rng(11)
    accepted = []
    agree = 0
    for _ in range(1000):
        center = (rng.uniform(-600, 600), rng.uniform(-600, 600))
        d_link = rng.uniform(cell.d_min_m, cell.d_max_m)
        rng.uniform(0, 2 * math.pi)  # the heading, which no clause reads
        candidate = (*center, d_link)
        d_cb = rng.uniform(0.0, cell.r_cell_m)
        got = arena_admits(candidate, accepted, gd, cell, d_cb)
        want = brute_force_admissible(candidate, accepted, gd, cell, d_cb)
        assert got == want
        agree += 1
        if got and len(accepted) < 25:
            accepted.append(candidate)
    assert agree == 1000


def test_first_grid_memo_is_keyed_on_every_input_and_read_only(radio, cell, gd):
    # grid point A's trials alternate with those of points that differ from
    # A in one input of the memo key each (d_lo: fixed 40 m links instead of
    # uniform ones from d_min; the cell; the guard radii; d_cb), in reverse
    # trial order, and equal the same trials each run from a cleared memo
    a = (TrialConfig(d_cb=150.0, seed=17), cell, gd)
    others = [
        (replace(a[0], d2d_dist="fixed", d_fixed=40.0), cell, gd),
        (a[0], CellConfig(r_cell_m=450.0), gd),
        (a[0], cell, replace(gd, g_d=0.9 * gd.g_d)),
        (replace(a[0], d_cb=350.0), cell, gd),
    ]
    runs = [(t, run) for t in (2, 1, 0) for other in others for run in (a, other)] + [(0, a)]

    def fresh(t, cfg, cell, gd):
        mcsim._first_grid.cache_clear()
        return run_saturation_trial(cfg, radio, cell, gd, t)

    want = [fresh(t, *run) for t, run in runs]
    got = [run_saturation_trial(cfg, radio, c, g, t) for t, (cfg, c, g) in runs]
    assert got == want
    assert mcsim._first_grid.cache_info().currsize == 1
    _, cells = mcsim._first_grid(gd, cell, a[0].d_cb, cell.d_min_m)
    for row in (cells, *cells):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


def _disk_bound_oracle(arena, xc, yc, h, first):
    """min over the disks j >= first of 2(far_j - r_j) - g_d, one disk and
    one cell at a time, in the order the formula is written (inf for none)."""
    bound = np.full(len(xc), np.inf)
    disks = arena.pairs[(0, 1, 4), first:].T.tolist()
    for i in range(len(xc)):
        for x, y, r in disks:
            far = np.hypot(abs(xc[i] - x) + 0.5 * h, abs(yc[i] - y) + 0.5 * h)
            bound[i] = min(bound[i], 2.0 * (far - r) - arena.gd.g_d)
    return bound


def test_disk_bound_and_admit_in_many_slices_match_one_slice_and_oracle(radio, cell, gd, monkeypatch):
    # with a 64-element span the 150 cells, and the more than 32 candidates
    # that pass clauses (a)-(c), meet the disks one per slice; bounds and
    # acceptances stay bit for bit those of one slice, and disk_bound stays
    # the elementwise minimum of 2(far - r) - g_d
    arena = _saturate(TrialConfig(d_cb=250.0, seed=41), cell, gd, 0)[0]
    n = arena.pairs.shape[1]
    rng = np.random.default_rng(26)
    xc, yc = rng.uniform(-cell.r_cell_m, cell.r_cell_m, (2, 150))
    h = 9.0
    batch = (*rng.uniform(-cell.r_cell_m, cell.r_cell_m, (2, 120)), rng.uniform(2.0, 20.0, 120))
    batch = (*batch, rng.uniform(0.0, 2.0 * math.pi, 120))

    def admitted():
        fresh = _Arena(gd, cell, 250.0)
        fresh.pairs = arena.pairs[:, : n // 2]
        fresh.admit(*batch)
        return arena_pairs(fresh)

    assert sum(brute_force_admissible(c, [], gd, cell, 250.0) for c in zip(*batch[:3])) > 32
    full = [arena.disk_bound(xc, yc, h, first) for first in (0, n - 3, n)]
    full_admitted = admitted()
    assert all(n * w <= mcsim._SPAN for w in (150, 120))  # one slice by default
    monkeypatch.setattr(mcsim, "_SPAN", 64)
    for first, want in zip((0, n - 3, n), full):
        got = np.broadcast_to(arena.disk_bound(xc, yc, h, first), len(xc))
        assert np.array_equal(got, np.broadcast_to(want, len(xc)))
        assert np.array_equal(got, _disk_bound_oracle(arena, xc, yc, h, first))
    assert admitted() == full_admitted
    accepted = arena_pairs(arena)[: n // 2]
    for candidate in zip(*batch[:3]):
        if brute_force_admissible(candidate, accepted, gd, cell, 250.0):
            accepted.append(candidate)
    assert full_admitted == accepted
    assert len(accepted) > n // 2  # the batch adds pairs


def test_saturation_trial_deterministic(radio, cell, gd):
    cfg = TrialConfig(d_cb=150.0, seed=99)
    a = run_saturation_trial(cfg, radio, cell, gd, trial_index=3)
    b = run_saturation_trial(cfg, radio, cell, gd, trial_index=3)
    assert a == b
    c = run_saturation_trial(cfg, radio, cell, gd, trial_index=4)
    assert c != a  # different stream


def test_ppp_trial_deterministic(radio, cell, gd):
    cfg = TrialConfig(mode="ppp", density=1e-4, d_cb=100.0, seed=5)
    assert run_ppp_trial(cfg, radio, cell, gd, 0) == run_ppp_trial(cfg, radio, cell, gd, 0)


def test_trial_throughput_identity(radio, cell, gd):
    cfg = TrialConfig(d_cb=0.0, seed=1)
    res = run_saturation_trial(cfg, radio, cell, gd)
    assert res.throughput_bps == res.n_pairs * radio.bitrate_bps


def test_covering_cue_disk_blocks_everything(radio, cell):
    # exclusion slope so large the cut-out swallows the whole ring
    gd = GuardDistances(
        g_d=192.5,
        k=5.0,
        g_b=97.4,
        n_s=8,
        r_e_min=97.25,
        r_e_max=171.25,
        r_in=1.15,
        r_out=596.25,
        gd_iterations=0,
    )
    cfg = TrialConfig(d_cb=400.0, seed=2)
    res = run_saturation_trial(cfg, radio, cell, gd)
    assert res.n_pairs == 0
    assert res.min_due_sir == SIR_CAP


def test_saturation_count_vs_packed_count(radio, cell, gd):
    # Sequential random packing jams well below the hexagonal-lattice
    # count; the ratio was pinned by a 1000-trial pilot at 0.644 with
    # per-trial sd ~0.05 (fixed d = d_min, no CUE), when trials stopped
    # after 2,000 straight rejections.  Packed to true jamming, a
    # 1000-trial pilot gives 0.675 with sd ~0.043.
    cfg = TrialConfig(d2d_dist="fixed", d_fixed=cell.d_min_m, d_cb=0.0, seed=31)
    counts = [
        run_saturation_trial(cfg, radio, cell, gd, trial_index=t).n_pairs
        for t in range(40)
    ]
    ratio = np.mean(counts) / hexpack.packed_layout(gd.g_d, gd.g_b, cell).n_total
    assert 0.55 <= ratio <= 0.75


@pytest.mark.parametrize("d_fixed", [None, 75.0], ids=["uniform", "fixed"])
@pytest.mark.parametrize("seed", [1, 255, 256, 257, 800, 4097])
def test_trials_pass_posthoc_audit(radio, cell, gd, seed, d_fixed):
    # each accepted pair is admissible, by the scalar rule, against the pairs
    # accepted before it, and the trial reports the SIR of the pairs it placed
    dist = "uniform" if d_fixed is None else "fixed"
    counts = []
    for d_cb, index in ((0.0, 0), (200.0, 3), (450.0, 1)):
        cfg = TrialConfig(d2d_dist=dist, d_fixed=d_fixed, d_cb=d_cb, seed=seed)
        res = run_saturation_trial(cfg, radio, cell, gd, trial_index=index)
        arena, floor_hit = _saturate(cfg, cell, gd, index)
        pairs = arena_pairs(arena)
        assert not floor_hit and not res.floor_hit
        assert len(pairs) == res.n_pairs
        counts.append(res.n_pairs)
        for i, p in enumerate(pairs):
            assert brute_force_admissible(p, pairs[:i], gd, cell, d_cb)
            assert cell.d_min_m <= p[2] <= cell.d_max_m
            assert d_fixed is None or p[2] == d_fixed
        if pairs:
            nominal, _ = evaluate_sir(arena_columns(arena), radio, cell, d_cb)
            assert nominal == (res.min_due_sir, res.bs_sir)
    assert min(counts[:2]) > 0


def _screen(x, y, pairs, gd, cell, d_cb, d_link, tol=1e-6):
    """Centres where a pair of link length d_link is admissible, give or take tol (m).

    A numpy pre-screen for `brute_force_admissible`: every clause is loosened
    by tol, so it keeps every centre the exact rule admits.
    """
    half = 0.5 * d_link
    rho = np.hypot(x, y)
    keep = (rho + half <= cell.r_cell_m + tol) & (rho >= gd.g_b + half - tol)
    keep &= np.hypot(x - d_cb, y) >= gd.k * d_cb + half - tol
    er = 0.5 * (d_link + gd.g_d)
    for ox, oy, od in pairs:
        keep &= np.hypot(x - ox, y - oy) >= er + 0.5 * (od + gd.g_d) - tol
    return keep


@pytest.mark.parametrize(
    "d_cb, d_fixed", [(0.0, None), (250.0, None), (400.0, None), (250.0, 75.0)]
)
def test_saturation_trials_end_jammed(cell, gd, d_cb, d_fixed):
    # 10^6 uniform centres in the cell, each with the smallest hard core
    # (every clause is monotone in the link length), find no room left
    dist = "uniform" if d_fixed is None else "fixed"
    cfg = TrialConfig(d2d_dist=dist, d_fixed=d_fixed, d_cb=d_cb, seed=61)
    d_link = cell.d_min_m if d_fixed is None else d_fixed
    rng = np.random.default_rng(62)
    for index in range(2):
        arena, floor_hit = _saturate(cfg, cell, gd, index)
        assert not floor_hit
        pairs = arena_pairs(arena)
        rho = cell.r_cell_m * np.sqrt(rng.random(10**6))
        theta = 2.0 * math.pi * rng.random(10**6)
        x, y = rho * np.cos(theta), rho * np.sin(theta)
        keep = _screen(x, y, pairs, gd, cell, d_cb, d_link)
        for cx, cy in zip(x[keep].tolist(), y[keep].tolist()):
            assert not brute_force_admissible((cx, cy, d_link), pairs, gd, cell, d_cb)
        # the screen keeps what the scalar rule admits once half the pairs go
        half = pairs[: len(pairs) // 2]
        keep = _screen(x[:2000], y[:2000], half, gd, cell, d_cb, d_link)
        exact = np.array(
            [
                brute_force_admissible((cx, cy, d_link), half, gd, cell, d_cb)
                for cx, cy in zip(x[:2000].tolist(), y[:2000].tolist())
            ]
        )
        assert exact.any() and keep[exact].all()


def test_first_pair_link_length_law(cell, gd):
    # with nothing placed and no CUE cut-out, the pairs that fit are the
    # centres in the annulus [g_b + d/2, r_cell - d/2], of area
    # pi (r_cell + g_b)(L - d) with L = r_cell - g_b, so the first pair's
    # link length has density proportional to (L - d)+ on [d_min, d_max]
    n = 2000
    cfg = TrialConfig(d_cb=0.0, seed=2012)
    d = np.sort([_saturate(cfg, cell, gd, t)[0].pairs[2, 0] for t in range(n)])
    length = cell.r_cell_m - gd.g_b
    a, b = length - cell.d_min_m, length - min(cell.d_max_m, length)
    law = (a * a - (length - d) ** 2) / (a * a - b * b)
    uniform = (d - cell.d_min_m) / (cell.d_max_m - cell.d_min_m)
    rank = np.arange(1, n + 1)

    def ks(cdf):
        return max((rank / n - cdf).max(), (cdf - (rank - 1) / n).max())

    critical = math.sqrt(-0.5 * math.log(0.01 / 2.0) / n)  # Kolmogorov, alpha = 0.01
    assert ks(law) < critical
    assert ks(uniform) > critical  # a uniform link length is told apart


def test_fixed_links_jam_at_rsa_coverage(radio):
    # Equal exclusion disks of radius 1 m with centres in a disk of radius
    # 30 m: the bulk of a jammed packing covers theta_J = 0.547 of the plane
    # (Hinrichsen, Feder & Josang 1986).  Centres are counted within 20 m,
    # five diameters clear of the boundary layer.  A jammed 2-D RSA packing
    # has S(0) ~ 0.06, so the ~220 centres counted per trial vary by ~1.6%
    # and the mean of 6 trials by ~0.7%; the tolerance, 0.02 (3.7%), adds
    # room for what is left of the boundary layer and the window's edge.
    cell = CellConfig(r_cell_m=30.1, d_min_m=0.1, d_max_m=0.2)
    gd = GuardDistances(
        g_d=1.8, k=0.0, g_b=0.0, n_s=6, r_e_min=0.95, r_e_max=1.0, r_in=-0.9, r_out=31.0,
        gd_iterations=0,
    )
    cfg = TrialConfig(d2d_dist="fixed", d_fixed=0.2, d_cb=0.0, seed=1986)
    window = 20.0
    coverage = []
    for t in range(6):
        arena, floor_hit = _saturate(cfg, cell, gd, t)
        assert not floor_hit
        inside = np.hypot(*arena.pairs[:2]) <= window
        coverage.append(inside.sum() * 1.0**2 / window**2)
    assert abs(np.mean(coverage) - 0.547) < 0.02


def test_dense_ppp_passes_saturation_toward_fixed_shortest_links(radio, cell, gd):
    # Nearest-first matching shortens the links as the density grows, and a
    # shorter link has a smaller exclusion disk, (d + g_d)/2: the PPP mean
    # pair count rises past the uniform-link saturation mean and heads for
    # the jamming count of links fixed at d_min, a random sequential
    # addition of equal disks (Feder 1980).  On 300 trials per point these
    # means are 12.94 (saturation), 16.21 (fixed at d_min) and 7.07, 10.71,
    # 13.08, 14.71 and 15.28 (PPP, at the densities below).  Each mean here
    # pools 24 trials at each of 5 CUE positions; a trial's count varies by
    # about 2 pairs, so a mean's standard error is near 0.2, and "clearly
    # above" means by more than 3 standard errors of the difference.
    def mean_pairs(runner, **options):
        counts = [
            runner(TrialConfig(d_cb=d_cb, seed=1980 + point, **options), radio, cell, gd, t).n_pairs
            for point, d_cb in enumerate((0.0, 100.0, 200.0, 300.0, 400.0))
            for t in range(24)
        ]
        return np.mean(counts), np.std(counts, ddof=1) / math.sqrt(len(counts))

    def clearly_above(x, y):
        return x[0] - y[0] > 3.0 * math.hypot(x[1], y[1])

    densities = (1.2e-4, 5e-4, 2e-3, 1e-2, 2e-2)
    ppp = [mean_pairs(run_ppp_trial, mode="ppp", density=lam) for lam in densities]
    saturation = mean_pairs(run_saturation_trial)
    fixed = mean_pairs(run_saturation_trial, d2d_dist="fixed", d_fixed=cell.d_min_m)
    assert not any(clearly_above(lo, hi) for lo, hi in zip(ppp, ppp[1:]))  # never decreases
    assert clearly_above(saturation, ppp[1]) and clearly_above(ppp[3], saturation)
    assert 0.85 * fixed[0] < ppp[-1][0] < fixed[0]
    # the sparse end: about 7.0 pairs, where scanning each shell farthest
    # first gives about 4.3
    assert clearly_above(ppp[0], (6.0, 0.0))


@pytest.mark.parametrize("density", [1e-4, 1e-3])
def test_ppp_trials_pass_posthoc_audit(radio, cell, gd, density):
    # replay the nodes, pair them with the quadratic oracle, admit with
    # `brute_force_admissible`
    for seed, d_cb in ((7, 0.0), (8, 200.0), (9, 450.0)):
        cfg = TrialConfig(mode="ppp", density=density, d_cb=d_cb, seed=seed)
        res = run_ppp_trial(cfg, radio, cell, gd)
        assert res.n_pairs > 0
        rows = _replay_ppp_pairs(cfg, cell, gd)
        assert len(rows) == res.n_pairs
        assert evaluate_sir(np.array(rows).T, radio, cell, d_cb)[0] == pytest.approx(
            (res.min_due_sir, res.bs_sir), rel=1e-9
        )
        pairs = [row[:3] for row in rows]
        for i, p in enumerate(pairs):
            others = pairs[:i] + pairs[i + 1 :]
            assert brute_force_admissible(p, others, gd, cell, d_cb)


def _replay_ppp_pairs(cfg, cell, gd, trial_index=0):
    """Rebuild the accepted set of a PPP trial from its random stream, as
    (cx, cy, d_d2d, heading) rows in acceptance order."""
    rng = np.random.default_rng([cfg.seed, trial_index])
    n = int(rng.poisson(cfg.density * math.pi * cell.r_cell_m**2))
    rho = cell.r_cell_m * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    px, py = rho * np.cos(theta), rho * np.sin(theta)
    *_, matched = quadratic_pairing(px, py, cell.d_min_m, cell.d_max_m)
    rows = []
    for k in rng.permutation(len(matched)):
        a, b = matched[k]
        dx, dy = float(px[a] - px[b]), float(py[a] - py[b])
        cx, cy = float(0.5 * (px[a] + px[b])), float(0.5 * (py[a] + py[b]))
        candidate = (cx, cy, math.hypot(dx, dy))
        if brute_force_admissible(candidate, [row[:3] for row in rows], gd, cell, cfg.d_cb):
            rows.append((*candidate, math.atan2(dy, dx)))
    return rows


def _sir_sets(cell, gd, d_cb):
    """Real accepted sets, many pairs each: two saturation arenas and two
    replayed PPP trials, as (4, n) columns."""
    cfg = TrialConfig(d_cb=d_cb, seed=41)
    sets = [arena_columns(_saturate(cfg, cell, gd, t)[0]) for t in (0, 1)]
    for density in (1e-4, 1e-3):
        cfg = TrialConfig(mode="ppp", density=density, d_cb=d_cb, seed=42)
        sets.append(np.array(_replay_ppp_pairs(cfg, cell, gd)).T)
    return sets


@pytest.mark.parametrize("rotate", [False, True], ids=["nominal", "rotated"])
@pytest.mark.parametrize("d_cb", [0.0, 250.0])
def test_evaluate_sir_matches_scalar_oracle(radio, cell, gd, d_cb, rotate):
    # evaluate_sir returns the nominal audit first and the swapped one second
    for columns in _sir_sets(cell, gd, d_cb):
        assert columns.shape[1] >= 3
        want = sir_oracle(columns.T.tolist(), radio, cell, d_cb, rotate)
        got = evaluate_sir(columns, radio, cell, d_cb)[rotate]
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("d_cb", [0.0, 250.0])
def test_evaluate_sir_in_many_row_blocks_matches_oracle(radio, cell, gd, d_cb, monkeypatch):
    # with an 8-element span every set, of 3 pairs or more, runs through
    # several row blocks, and both audits stay bit for bit those of the
    # default span, one (2, n, n) block for each of these sets
    sets = _sir_sets(cell, gd, d_cb)
    full = [evaluate_sir(columns, radio, cell, d_cb) for columns in sets]
    assert all(2 * columns.shape[1] ** 2 <= mcsim._SPAN for columns in sets)
    monkeypatch.setattr(mcsim, "_SPAN", 8)
    for columns, want in zip(sets, full):
        n = columns.shape[1]
        assert n > max(8 // n, 1)  # more than one block
        got = evaluate_sir(columns, radio, cell, d_cb)
        assert got == want
        for rotate in (False, True):
            oracle = sir_oracle(columns.T.tolist(), radio, cell, d_cb, rotate)
            assert got[rotate] == pytest.approx(oracle, rel=1e-9)


def test_evaluate_sir_memory_bounded():
    # 4,000 pairs: one 4,000 x 4,000 float64 array alone would take 122 MiB
    n = 4000
    rng = np.random.default_rng(4000)
    rho, theta = 480.0 * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
    pairs = np.array(
        (rho * np.cos(theta), rho * np.sin(theta), rng.uniform(2.0, 20.0, n), rng.uniform(0.0, 6.3, n))
    )
    radio, cell = RadioConfig(noise_mode="zero"), CellConfig()
    tracemalloc.start()
    try:
        nominal, swapped = evaluate_sir(pairs, radio, cell, 250.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert 0.0 < nominal[0] < SIR_CAP and 0.0 < swapped[1] < SIR_CAP


def test_trial_audits_both_role_assignments_in_one_call(radio, cell, gd, monkeypatch):
    calls = []
    real = mcsim.evaluate_sir

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mcsim, "evaluate_sir", spy)
    res = run_saturation_trial(TrialConfig(d_cb=250.0, seed=23), radio, cell, gd, 0)
    assert len(calls) == 1
    nominal, swapped = real(*calls[0])
    assert nominal == (res.min_due_sir, res.bs_sir)
    assert res.rotation_ok == (swapped[0] >= radio.sir_due and swapped[1] >= radio.sir_bs)


def test_evaluate_sir_single_pair_no_cue(radio, cell):
    pair = (300.0, 0.0, 50.0, 0.3)
    (min_sir, bs_sir), _ = evaluate_sir(np.array([pair]).T, radio, cell, 0.0)
    assert min_sir == SIR_CAP  # no interferer, no CUE term at d_cb = 0
    tx, _ = endpoints(*pair)
    expected_bs = (
        radio.p_cue_max_mw
        * path_loss(radio.pl_bs, cell.r_cell_m)
        / (radio.p_due_mw * path_loss(radio.pl_bs, math.hypot(*tx)))
    )
    assert bs_sir == pytest.approx(expected_bs, rel=1e-12)


def test_evaluate_sir_symmetric_pairs(radio, cell):
    a = (250.0, 0.0, 60.0, math.pi / 2.0)
    b = (-250.0, 0.0, 60.0, math.pi / 2.0)
    (min_sir, _), _ = evaluate_sir(np.array([a, b]).T, radio, cell, 0.0)
    # both receivers see one interferer at the same distance; compute one
    # side by hand
    d_cross = math.dist(endpoints(*a)[1], endpoints(*b)[0])
    want = (
        radio.p_due_mw
        * path_loss(radio.pl_due, 60.0)
        / (radio.p_due_mw * path_loss(radio.pl_due, d_cross))
    )
    assert min_sir == pytest.approx(want, rel=1e-12)


def test_evaluate_sir_includes_cue_interference(radio, cell):
    pair = (300.0, 0.0, 50.0, 0.3)
    d_cb = 100.0
    (min_sir, _), _ = evaluate_sir(np.array([pair]).T, radio, cell, d_cb)
    p_cue = cue_tx_power(radio, cell, d_cb)
    want = (
        radio.p_due_mw
        * path_loss(radio.pl_due, 50.0)
        / (p_cue * path_loss(radio.pl_due, math.dist(endpoints(*pair)[1], (d_cb, 0.0))))
    )
    assert min_sir == pytest.approx(want, rel=1e-12)


def test_evaluate_sir_rejects_empty(radio, cell):
    with pytest.raises(ValueError):
        evaluate_sir(np.empty((4, 0)), radio, cell, 0.0)


def test_worst_case_links_respect_design_threshold(radio, cell, gd):
    # guard distances are worst-case constructions: even with every link
    # at d_max the receiver SIR should clear the threshold almost always
    cfg = TrialConfig(d2d_dist="fixed", d_fixed=cell.d_max_m, d_cb=250.0, seed=17)
    failures = 0
    trials = 100
    for t in range(trials):
        res = run_saturation_trial(cfg, radio, cell, gd, trial_index=t)
        if res.min_due_sir < radio.sir_due:
            failures += 1
    assert failures / trials <= 0.01


def test_rotation_insensitivity_small_batch(radio, cell, gd):
    cfg = TrialConfig(d_cb=250.0, seed=23)
    results = [run_saturation_trial(cfg, radio, cell, gd, t) for t in range(60)]
    nominal = np.mean([r.sir_ok for r in results])
    rotated = np.mean([r.rotation_ok for r in results])
    assert abs(nominal - rotated) < 0.05
    # sir_ok is the nominal threshold rule; thresholds at the batch medians
    # let each clause decide some trials
    strict = replace(
        radio,
        sir_due=float(np.median([r.min_due_sir for r in results])),
        sir_bs=float(np.median([r.bs_sir for r in results])),
    )
    verdicts = set()
    for t in range(20):
        r = run_saturation_trial(cfg, strict, cell, gd, t)
        due_ok, bs_ok = r.min_due_sir >= strict.sir_due, r.bs_sir >= strict.sir_bs
        assert r.sir_ok == (due_ok and bs_ok)
        verdicts.add((due_ok, bs_ok))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_ppp_sparse_and_dense(radio, cell, gd):
    sparse = [
        run_ppp_trial(
            TrialConfig(mode="ppp", density=1e-6, d_cb=0.0, seed=3), radio, cell, gd, t
        ).n_pairs
        for t in range(20)
    ]
    dense = [
        run_ppp_trial(
            TrialConfig(mode="ppp", density=1.2e-4, d_cb=0.0, seed=3), radio, cell, gd, t
        ).n_pairs
        for t in range(20)
    ]
    assert np.mean(sparse) < 1.0
    assert np.mean(dense) > np.mean(sparse) + 3.0


def test_samplers_reject_the_other_mode(radio, cell, gd):
    with pytest.raises(ValueError, match="saturation-mode"):
        run_saturation_trial(TrialConfig(mode="ppp", density=1e-4), radio, cell, gd)
    with pytest.raises(ValueError, match="ppp-mode"):
        run_ppp_trial(TrialConfig(), radio, cell, gd)


def test_aggregate_statistics():
    from d2dcap.mcsim import TrialResult

    results = [TrialResult(int(v), v, v, v, True, v < 3.0) for v in (1.0, 2.0, 3.0)]
    stats = aggregate(results)
    assert stats["throughput_bps"].mean == pytest.approx(2.0)
    assert stats["rotation_ok"].mean == 1.0
    assert stats["sir_ok"].mean == pytest.approx(2.0 / 3.0)
    assert stats["throughput_bps"].stderr == pytest.approx(0.5773502691896258, rel=1e-12)
    single = aggregate(results[:1])
    assert single["throughput_bps"].stderr == 0.0
    assert single["throughput_bps"].ci_low == single["throughput_bps"].ci_high == 1.0
    constant = aggregate([results[0], results[0]])
    assert constant["throughput_bps"].stderr == 0.0
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_matches_numpy_at_nine_digits():
    # random batches of 1-600 trials: Poisson pair counts at several bit
    # rates, random SIRs and boolean verdicts; the exact fold prints the
    # numpy statistics wherever an artifact would print them
    rng = np.random.default_rng(1404)
    rates = (2.0e6, 1.0e6 / 3.0, 5.5e6, 1.0e7 / 7.0, 20.0)
    for batch in range(500):
        n = int(rng.integers(1, 601))
        rate = rates[batch % len(rates)]
        counts = rng.poisson(rng.uniform(0.5, 40.0), n)
        sirs = rng.lognormal(1.0, 2.0, (2, n))
        verdicts = rng.random((2, n)) < rng.random()
        results = [
            TrialResult(int(k), int(k) * rate, float(a), float(b), bool(u), bool(v))
            for k, a, b, u, v in zip(counts, *sirs, *verdicts)
        ]
        stats = aggregate(results)
        for name in stats:
            values = np.array([getattr(r, name) for r in results], dtype=float)
            mean = float(values.mean())
            stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            want = (mean, stderr, mean - 1.96 * stderr, mean + 1.96 * stderr)
            got = stats[name]
            assert [format_float(v) for v in (got.mean, got.stderr, got.ci_low, got.ci_high)] == [
                format_float(v) for v in want
            ], (batch, name)


def test_aggregate_reads_any_iterable_once():
    results = [TrialResult(k, 2.0e6 * k, 0.1 * k + 1.0, 3.0 / (k + 1), k % 2 == 0, k < 4) for k in range(9)]
    assert aggregate(r for r in results) == aggregate(results)
    stats = aggregate(iter([replace(results[0], bs_sir=math.inf), results[1]]))
    assert stats["bs_sir"].mean == math.inf and math.isnan(stats["bs_sir"].stderr)
    assert stats["min_due_sir"] == aggregate(results[:2])["min_due_sir"]


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrialConfig(mode="ppp")  # missing density
    with pytest.raises(ValueError):
        TrialConfig(d2d_dist="fixed")  # missing d_fixed
    with pytest.raises(ValueError):
        TrialConfig(seed=-1)
    with pytest.raises(ValueError):
        TrialConfig(density=-1e-4)
    with pytest.raises(ValueError, match="sim.d_fixed"):
        TrialConfig(d2d_dist="fixed", d_fixed=500.0).check_cell(CellConfig())
    with pytest.raises(ValueError, match="sim.d2d_dist"):
        TrialConfig(mode="ppp", density=1e-4, d2d_dist="fixed", d_fixed=50.0)
    # the cap counts the node pairs within pairing's first shell: a few
    # metres at the preset's d_min, d_max itself at d_min = 140 m
    TrialConfig(mode="ppp", density=2e-2).check_cell(CellConfig())
    TrialConfig(mode="ppp", density=5e-3).check_cell(CellConfig(d_min_m=140.0))
    with pytest.raises(ValueError, match="sim.densities"):
        TrialConfig(mode="ppp", density=1e-2).check_cell(CellConfig(d_min_m=140.0))
    with pytest.raises(ValueError, match="sim.densities"):
        TrialConfig(mode="ppp", density=1.0).check_cell(CellConfig())
