import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from d2dcap import hexpack
from d2dcap.guard import GuardDistances
from d2dcap.mcsim import (
    SIR_CAP,
    PairPlacement,
    TrialConfig,
    _feasible_pairs,
    _greedy_matching,
    aggregate,
    admissible,
    evaluate_sir,
    make_placement,
    run_ppp_trial,
    run_saturation_trial,
)
from d2dcap.propagation import CellConfig, RadioConfig, cue_tx_power, path_loss


def brute_force_admissible(candidate, accepted, gd, cell, d_cb):
    """Independent re-derivation of the four placement clauses."""
    cx, cy = candidate.er_center
    hc = candidate.d_d2d / 2.0
    if math.sqrt(cx * cx + cy * cy) + hc > cell.r_cell_m:
        return False
    if math.sqrt(cx * cx + cy * cy) < gd.g_b + hc:
        return False
    if math.sqrt((cx - d_cb) ** 2 + cy * cy) < gd.k * d_cb + hc:
        return False
    return all(
        math.sqrt((cx - o.er_center[0]) ** 2 + (cy - o.er_center[1]) ** 2)
        >= candidate.er_radius + o.er_radius
        for o in accepted
    )


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


NODE_SETS = {
    "ppp-4e-05": lambda: _ppp_nodes(4e-5, 1),
    "ppp-1e-03": lambda: _ppp_nodes(1e-3, 2),
    "ppp-2e-03": lambda: _ppp_nodes(2e-3, 3),
    "lattice-0": lambda: _lattice_nodes(0),
    "lattice-1": lambda: _lattice_nodes(1),
    "lattice-2": lambda: _lattice_nodes(2),
    "cluster": _cluster_nodes,
    "no-feasible-pair": lambda: (np.array([0.0, 200.0]), np.array([0.0, 0.0]), 2.0, 150.0),
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


def test_ppp_trial_memory_bounded_at_dense_deployment(radio, cell, gd):
    # about 7,850 nodes: the former N x N float64 matrix alone took ~470 MiB
    cfg = TrialConfig(mode="ppp", density=1e-2, d_cb=200.0, seed=3)
    tracemalloc.start()
    try:
        res = run_ppp_trial(cfg, radio, cell, gd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_pairs > 0
    assert peak < 300 * 2**20


def test_saturation_trial_memory_bounded(radio, cell, gd):
    # a trial holds one draw block of at most 16 x 256 candidates at a time;
    # the first trial in a process also loads about 0.7 MiB of numpy state
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


def test_make_placement_invariants(gd):
    p = make_placement((120.0, -40.0), 77.0, 1.1, gd.g_d)
    assert math.dist(p.tx, p.rx) == pytest.approx(77.0, abs=1e-9)
    assert p.er_center == ((p.tx[0] + p.rx[0]) / 2.0, (p.tx[1] + p.rx[1]) / 2.0)
    assert p.er_radius == pytest.approx((77.0 + gd.g_d) / 2.0, rel=1e-15)


def test_admissible_examples(gd, cell):
    at_bs = make_placement((0.0, 0.0), cell.d_min_m, 0.0, gd.g_d)
    assert not admissible(at_bs, [], gd, cell, 0.0)
    legal = make_placement((gd.g_b + cell.d_min_m, 0.0), cell.d_min_m, 0.0, gd.g_d)
    assert admissible(legal, [], gd, cell, 0.0)
    # same spot already occupied
    assert not admissible(legal, [legal], gd, cell, 0.0)


def test_admissible_matches_brute_force(gd, cell):
    rng = np.random.default_rng(11)
    accepted = []
    agree = 0
    for _ in range(1000):
        center = (rng.uniform(-600, 600), rng.uniform(-600, 600))
        d_link = rng.uniform(cell.d_min_m, cell.d_max_m)
        candidate = make_placement(center, d_link, rng.uniform(0, 2 * math.pi), gd.g_d)
        d_cb = rng.uniform(0.0, cell.r_cell_m)
        got = admissible(candidate, accepted, gd, cell, d_cb)
        want = brute_force_admissible(candidate, accepted, gd, cell, d_cb)
        assert got == want
        agree += 1
        if got and len(accepted) < 25:
            accepted.append(candidate)
    assert agree == 1000


def test_saturation_trial_deterministic(radio, cell, gd):
    cfg = TrialConfig(d_cb=150.0, seed=99, stop_after_failures=1000)
    a = run_saturation_trial(cfg, radio, cell, gd, trial_index=3)
    b = run_saturation_trial(cfg, radio, cell, gd, trial_index=3)
    assert a == b
    c = run_saturation_trial(cfg, radio, cell, gd, trial_index=4)
    assert c != a  # different stream


def test_ppp_trial_deterministic(radio, cell, gd):
    cfg = TrialConfig(mode="ppp", density=1e-4, d_cb=100.0, seed=5)
    assert run_ppp_trial(cfg, radio, cell, gd, 0) == run_ppp_trial(cfg, radio, cell, gd, 0)


def test_trial_throughput_identity(radio, cell, gd):
    cfg = TrialConfig(d_cb=0.0, seed=1, stop_after_failures=500)
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
    )
    cfg = TrialConfig(d_cb=400.0, seed=2, stop_after_failures=300)
    res = run_saturation_trial(cfg, radio, cell, gd)
    assert res.n_pairs == 0
    assert res.min_due_sir == SIR_CAP


def test_saturation_count_vs_packed_count(radio, cell, gd):
    # Sequential random packing jams well below the hexagonal-lattice
    # count; the ratio was pinned by a 1000-trial pilot at 0.644 with
    # per-trial sd ~0.05 (fixed d = d_min, no CUE).
    cfg = TrialConfig(
        d2d_dist="fixed", d_fixed=cell.d_min_m, d_cb=0.0, seed=31, stop_after_failures=2000
    )
    counts = [
        run_saturation_trial(cfg, radio, cell, gd, trial_index=t).n_pairs
        for t in range(40)
    ]
    ratio = np.mean(counts) / hexpack.packed_layout(gd.g_d, gd.g_b, cell).n_total
    assert 0.55 <= ratio <= 0.75


@pytest.mark.parametrize("d_fixed", [None, 75.0], ids=["uniform", "fixed"])
@pytest.mark.parametrize("cap", [1, 255, 256, 257, 800, 4097])
def test_trials_pass_posthoc_audit(radio, cell, gd, cap, d_fixed):
    # replay each trial's 256-candidate chunks through the scalar `admissible`;
    # 4,096 candidates is the edge of one draw block
    dist = "uniform" if d_fixed is None else "fixed"
    counts = []
    for seed, d_cb, index in ((7, 0.0, 0), (8, 200.0, 3), (9, 450.0, 1)):
        cfg = TrialConfig(
            d2d_dist=dist, d_fixed=d_fixed, d_cb=d_cb, seed=seed, stop_after_failures=cap
        )
        res = run_saturation_trial(cfg, radio, cell, gd, trial_index=index)
        placements = _replay_placements(cfg, cell, gd, index)
        assert len(placements) == res.n_pairs
        counts.append(res.n_pairs)
        if not placements:
            continue
        assert evaluate_sir(placements, radio, cell, d_cb) == pytest.approx(
            (res.min_due_sir, res.bs_sir), rel=1e-9
        )
        # every placement admissible against all the others
        for i, p in enumerate(placements):
            others = placements[:i] + placements[i + 1 :]
            assert admissible(p, others, gd, cell, d_cb)
    assert cap == 1 or max(counts) > 0


@pytest.mark.parametrize("density", [1e-4, 1e-3])
def test_ppp_trials_pass_posthoc_audit(radio, cell, gd, density):
    # replay the nodes, pair them with the quadratic oracle, admit with `admissible`
    for seed, d_cb in ((7, 0.0), (8, 200.0), (9, 450.0)):
        cfg = TrialConfig(mode="ppp", density=density, d_cb=d_cb, seed=seed)
        res = run_ppp_trial(cfg, radio, cell, gd)
        assert res.n_pairs > 0
        placements = _replay_ppp_placements(cfg, cell, gd)
        assert len(placements) == res.n_pairs
        assert evaluate_sir(placements, radio, cell, d_cb) == pytest.approx(
            (res.min_due_sir, res.bs_sir), rel=1e-9
        )
        for i, p in enumerate(placements):
            others = placements[:i] + placements[i + 1 :]
            assert admissible(p, others, gd, cell, d_cb)


def _replay_ppp_placements(cfg, cell, gd):
    """Rebuild the accepted set of a PPP trial from its random stream."""
    rng = np.random.default_rng([cfg.seed, 0])
    n = int(rng.poisson(cfg.density * math.pi * cell.r_cell_m**2))
    rho = cell.r_cell_m * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    px, py = rho * np.cos(theta), rho * np.sin(theta)
    *_, matched = quadratic_pairing(px, py, cell.d_min_m, cell.d_max_m)
    placements = []
    for k in rng.permutation(len(matched)):
        a, b = matched[k]
        dx, dy = float(px[a] - px[b]), float(py[a] - py[b])
        center = (float(0.5 * (px[a] + px[b])), float(0.5 * (py[a] + py[b])))
        candidate = make_placement(center, math.hypot(dx, dy), math.atan2(dy, dx), gd.g_d)
        if admissible(candidate, placements, gd, cell, cfg.d_cb):
            placements.append(candidate)
    return placements


def _replay_placements(cfg, cell, gd, trial_index=0):
    """Rebuild the accepted set of a saturation trial via the public API.

    One candidate at a time, from chunks of 256 draws per variable; a
    fixed link length draws nothing, so its chunks hold 3 x 256 draws.
    """
    rng = np.random.default_rng([cfg.seed, trial_index])
    placements = []
    failures = 0
    chunk = 256
    while failures < cfg.stop_after_failures:
        rho = np.sqrt(rng.random(chunk) * (gd.r_out**2 - gd.r_in**2) + gd.r_in**2)
        theta = rng.uniform(0.0, 2.0 * math.pi, chunk)
        cx = rho * np.cos(theta)
        cy = rho * np.sin(theta)
        if cfg.d2d_dist == "fixed":
            dd = np.full(chunk, cfg.d_fixed)
        else:
            dd = rng.uniform(cell.d_min_m, cell.d_max_m, chunk)
        angle = rng.uniform(0.0, 2.0 * math.pi, chunk)
        for j in range(chunk):
            candidate = make_placement(
                (float(cx[j]), float(cy[j])), float(dd[j]), float(angle[j]), gd.g_d
            )
            if admissible(candidate, placements, gd, cell, cfg.d_cb):
                placements.append(candidate)
                failures = 0
            else:
                failures += 1
                if failures >= cfg.stop_after_failures:
                    break
    return placements


def test_evaluate_sir_single_pair_no_cue(radio, cell, gd):
    pair = make_placement((300.0, 0.0), 50.0, 0.3, gd.g_d)
    min_sir, bs_sir = evaluate_sir([pair], radio, cell, 0.0)
    assert min_sir == SIR_CAP  # no interferer, no CUE term at d_cb = 0
    expected_bs = (
        radio.p_cue_max_mw
        * path_loss(radio.pl_bs, cell.r_cell_m)
        / (radio.p_due_mw * path_loss(radio.pl_bs, math.hypot(*pair.tx)))
    )
    assert bs_sir == pytest.approx(expected_bs, rel=1e-12)


def test_evaluate_sir_symmetric_pairs(radio, cell, gd):
    a = make_placement((250.0, 0.0), 60.0, math.pi / 2.0, gd.g_d)
    b = make_placement((-250.0, 0.0), 60.0, math.pi / 2.0, gd.g_d)
    min_sir, _ = evaluate_sir([a, b], radio, cell, 0.0)
    # both receivers see one interferer at the same distance; compute one
    # side by hand
    d_cross = math.dist(a.rx, b.tx)
    want = (
        radio.p_due_mw
        * path_loss(radio.pl_due, 60.0)
        / (radio.p_due_mw * path_loss(radio.pl_due, d_cross))
    )
    assert min_sir == pytest.approx(want, rel=1e-12)


def test_evaluate_sir_includes_cue_interference(radio, cell, gd):
    pair = make_placement((300.0, 0.0), 50.0, 0.3, gd.g_d)
    d_cb = 100.0
    min_sir, _ = evaluate_sir([pair], radio, cell, d_cb)
    p_cue = cue_tx_power(radio, cell, d_cb)
    want = (
        radio.p_due_mw
        * path_loss(radio.pl_due, 50.0)
        / (p_cue * path_loss(radio.pl_due, math.dist(pair.rx, (d_cb, 0.0))))
    )
    assert min_sir == pytest.approx(want, rel=1e-12)


def test_evaluate_sir_rejects_empty(radio, cell):
    with pytest.raises(ValueError):
        evaluate_sir([], radio, cell, 0.0)


def test_worst_case_links_respect_design_threshold(radio, cell, gd):
    # guard distances are worst-case constructions: even with every link
    # at d_max the receiver SIR should clear the threshold almost always
    cfg = TrialConfig(
        d2d_dist="fixed", d_fixed=cell.d_max_m, d_cb=250.0, seed=17, stop_after_failures=800
    )
    failures = 0
    trials = 100
    for t in range(trials):
        res = run_saturation_trial(cfg, radio, cell, gd, trial_index=t)
        if res.min_due_sir < radio.sir_due:
            failures += 1
    assert failures / trials <= 0.01


def test_rotation_insensitivity_small_batch(radio, cell, gd):
    cfg = TrialConfig(d_cb=250.0, seed=23, stop_after_failures=800)
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


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrialConfig(mode="ppp")  # missing density
    with pytest.raises(ValueError):
        TrialConfig(d2d_dist="fixed")  # missing d_fixed
    with pytest.raises(ValueError):
        TrialConfig(stop_after_failures=0)
    with pytest.raises(ValueError):
        TrialConfig(seed=-1)
    with pytest.raises(ValueError):
        TrialConfig(density=-1e-4)
    with pytest.raises(ValueError, match="sim.d_fixed"):
        TrialConfig(d2d_dist="fixed", d_fixed=500.0).check_cell(CellConfig())
    with pytest.raises(ValueError, match="sim.d2d_dist"):
        TrialConfig(mode="ppp", density=1e-4, d2d_dist="fixed", d_fixed=50.0)
    TrialConfig(mode="ppp", density=1e-2).check_cell(CellConfig())
    with pytest.raises(ValueError, match="sim.densities"):
        TrialConfig(mode="ppp", density=2e-2).check_cell(CellConfig())
