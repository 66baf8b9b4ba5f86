"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
all).  Criteria 2 and 9 encode consistency targets that the implemented
constructions genuinely cannot meet; they are asserted as stated and fail
honestly.  The measured values are printed and the analysis lives in the
project notes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from d2dcap import bounds, hexpack
from d2dcap.cli import main
from d2dcap.guard import guard_distances, solve_gb, solve_gd
from d2dcap.mcsim import TrialConfig, run_ppp_trial, run_saturation_trial
from d2dcap.propagation import CellConfig, RadioConfig
from d2dcap.geometry import arc_length, intersection_area, segment_area

DATA = Path(__file__).parent / "data"


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{suffix}")
    return ok


def packed_throughput(radio: RadioConfig, cell: CellConfig) -> tuple[float, float, float]:
    """(t_upper, g_b, g_d) from the integer packing at the solved radii."""
    g_d, _, _ = solve_gd(radio, cell)
    g_b = solve_gb(radio, cell, g_d)
    n_pairs = hexpack.packed_layout(g_d, g_b, cell).n_total
    return n_pairs * radio.bitrate_bps, g_b, g_d


def argmax_plateau(values, grid):
    """Contiguous region of grid points attaining the maximum."""
    top = max(values)
    idx = [i for i, v in enumerate(values) if v == top]
    start, end = idx[0], idx[0]
    for i in idx[1:]:
        if i == end + 1:
            end = i
        else:
            break
    return grid[start], grid[end], top


@pytest.mark.slow
def test_criterion_01_geometry_oracle():
    # analytic trivial cases, exact
    assert arc_length(2.0, 1.0, 3.0) == pytest.approx(0.0, abs=1e-9)
    R = 7.0
    assert segment_area(R, R) == pytest.approx(0.0, abs=1e-12)
    assert segment_area(R, 0.0) == pytest.approx(math.pi * R * R / 2.0, rel=1e-14)
    assert segment_area(R, -R) == pytest.approx(math.pi * R * R, rel=1e-14)

    rng = np.random.default_rng(1_000_003)
    n_samples = 1_000_000
    violations = 0
    worst = 0.0
    for _ in range(1000):
        R = rng.uniform(0.1, 10.0)
        r = rng.uniform(0.1, 10.0)
        d = rng.uniform(0.0, 1.2 * (R + r))
        analytic = intersection_area(R, r, d)
        small, big = min(R, r), max(R, r)
        cx = d if r <= R else 0.0  # centre of the smaller disk
        bx = 0.0 if r <= R else d
        rho = small * np.sqrt(rng.random(n_samples))
        theta = rng.uniform(0.0, 2.0 * math.pi, n_samples)
        hits = (cx + rho * np.cos(theta) - bx) ** 2 + (rho * np.sin(theta)) ** 2 <= big**2
        p = hits.mean()
        area_small = math.pi * small**2
        estimate = area_small * p
        se = area_small * math.sqrt(p * (1.0 - p) / n_samples)
        if se == 0.0:
            assert analytic == pytest.approx(estimate, abs=1e-9 * area_small)
            continue
        z = abs(analytic - estimate) / se
        worst = max(worst, z)
        if z > 3.0:
            violations += 1
    # |z| > 3 has probability 0.27% per triple, so a seeded run of 1000
    # produces a few excursions even when the analytic area is exact
    ok = violations <= 8
    report(1, "geometry vs hit-miss oracle", ok, f"{violations} of 1000 beyond 3 SE, max z = {worst:.2f}")
    assert ok


def test_criterion_02_packing_count_consistency():
    radio = RadioConfig(noise_mode="zero")
    cell = CellConfig()
    gd = guard_distances(radio, cell)
    lattice_count = hexpack.packed_layout(gd.g_d, gd.g_b, cell).n_total
    area_count = bounds.pair_capacity(bounds.ring_area(gd), gd.r_e_min)
    deviation = abs(lattice_count - area_count)
    ok = deviation <= 3.0
    report(
        2,
        "packing-count consistency",
        ok,
        f"layered count {lattice_count}, continuous count {area_count:.2f}, |delta| = {deviation:.2f}",
    )
    # The two counts cover different regions.  The layered count tracks
    # the lattice count of the simulator's hard-core region, [g_b + d_min/2,
    # r_cell - d_min/2]; the continuous estimate is a lattice count of the
    # larger ring the bounds credit, [r_in, r_out].  The area-matched outer
    # hexagon also puts some layered centres beyond the cell (3 of 27 at
    # 502.5 m here).  So at these parameters the counts differ by ~7 pairs,
    # not <= 3.
    assert ok, "layered and continuous pair counts differ by more than 3"


def test_criterion_03_due_power_plateau():
    cell = CellConfig()
    grid = np.linspace(0.25, 6.0, 100)
    target_ranges = {140.0: (0.50, 0.60), 200.0: (0.70, 0.84)}
    plateaus = {}
    for p_cue, target in target_ranges.items():
        curve = []
        for p_due in grid:
            radio = RadioConfig(
                noise_mode="zero", p_due_mw=float(p_due), p_cue_max_mw=p_cue
            )
            curve.append(packed_throughput(radio, cell)[0])
        start, end, top = argmax_plateau(curve, grid)
        plateaus[p_cue] = (start, end)
        overlap = start <= target[1] and end >= target[0]
        assert report(
            3,
            f"optimal-power plateau overlap at {p_cue:g} mW",
            overlap,
            f"plateau [{start:.2f}, {end:.2f}] vs target [{target[0]}, {target[1]}]",
        )
        # plateau endpoints deviate from the published ones by more than
        # 25%, so the qualitative fallback must hold: a collapse of at
        # least 50% within +0.3 mW past the plateau end
        after = [v for p, v in zip(grid, curve) if end < p <= end + 0.3]
        collapse = bool(after) and min(after) <= 0.5 * top
        assert report(
            3,
            f"post-plateau collapse at {p_cue:g} mW",
            collapse,
            f"min within +0.3 mW = {min(after) / top if after else float('nan'):.2f} of max",
        )
    shifted = plateaus[200.0][1] > plateaus[140.0][1]
    assert report(
        3,
        "plateau shifts right with CUE power",
        shifted,
        f"ends {plateaus[140.0][1]:.2f} -> {plateaus[200.0][1]:.2f} mW",
    )


def test_criterion_04_bs_guard_monotonicity():
    cell = CellConfig()
    p_due_grid = np.linspace(0.25, 6.0, 20)
    p_cue_grid = [120.0, 140.0, 170.0, 200.0]
    g_b = {}
    t_u = {}
    for p_cue in p_cue_grid:
        for p_due in p_due_grid:
            radio = RadioConfig(
                noise_mode="zero", p_due_mw=float(p_due), p_cue_max_mw=p_cue
            )
            t, gb, _ = packed_throughput(radio, cell)
            g_b[(p_cue, p_due)] = gb
            t_u[(p_cue, p_due)] = t
    rows_ok = all(
        g_b[(pc, a)] <= g_b[(pc, b)] + 1e-9
        for pc in p_cue_grid
        for a, b in zip(p_due_grid, p_due_grid[1:])
    )
    cols_ok = all(
        g_b[(a, pd)] >= g_b[(b, pd)] - 1e-9
        for pd in p_due_grid
        for a, b in zip(p_cue_grid, p_cue_grid[1:])
    )
    assert report(4, "guard radius monotone in device power", rows_ok)
    assert report(4, "guard radius monotone in CUE power", cols_ok)
    sharp = {}
    for p_cue in (140.0, 200.0):
        curve = [t_u[(p_cue, p)] for p in p_due_grid]
        _, end, _ = argmax_plateau(curve, p_due_grid)
        gbs = [g_b[(p_cue, p)] for p in p_due_grid]
        steps = np.diff(gbs)
        before = steps[: list(p_due_grid).index(end) + 1]
        after = steps[list(p_due_grid).index(end) + 1 :]
        sharp[p_cue] = after.max() >= 2.0 * max(before.max(), 1e-9)
    ok = all(sharp.values())
    assert report(4, "guard radius rises sharply past the plateau", ok, str(sharp))


def test_criterion_05_pair_guard_dominated_by_rate():
    cell = CellConfig()
    for rb in (1e6, 2e6, 3e6):
        g_values = [
            solve_gd(RadioConfig(noise_mode="zero", bitrate_bps=rb, p_due_mw=float(p)), cell)[0]
            for p in np.linspace(0.25, 6.0, 20)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(g_values, g_values[1:]))
    by_rate = [
        solve_gd(RadioConfig(noise_mode="zero", bitrate_bps=rb), cell)[0]
        for rb in (1e6, 2e6, 3e6)
    ]
    ok = by_rate[0] < by_rate[1] < by_rate[2]
    report(5, "pair guard driven by bit rate", ok, f"g_d = {[round(g, 2) for g in by_rate]}")
    assert ok


def test_criterion_06_throughput_flat_then_decreasing():
    cell = CellConfig()
    radio = RadioConfig(noise_mode="zero")
    gd = guard_distances(radio, cell)
    flat_end = gd.g_b / (1.0 + gd.k)
    grid = np.linspace(0.0, cell.r_cell_m, 800)
    t_u = [
        bounds.throughput_bounds(
            bounds.deployable_area(float(d), gd, cell).area_m2, gd, radio.bitrate_bps
        ).t_upper_bps
        for d in grid
    ]
    base = t_u[0]
    flat_ok = all(v == base for d, v in zip(grid, t_u) if d <= flat_end)
    beyond = [v for d, v in zip(grid, t_u) if d > flat_end]
    mono_ok = all(a >= b - 1e-9 * base for a, b in zip(beyond, beyond[1:]))
    assert report(6, "throughput flat on the guarded span", flat_ok)
    assert report(6, "throughput non-increasing beyond", mono_ok)
    flat_lengths = []
    for p_due in (0.5, 0.7, 0.9):
        r = RadioConfig(noise_mode="zero", p_due_mw=p_due)
        g = guard_distances(r, cell)
        flat_lengths.append(g.g_b / (1.0 + g.k))
    grows = flat_lengths[0] < flat_lengths[1] < flat_lengths[2]
    assert report(
        6,
        "flat span grows with device power",
        grows,
        f"lengths = {[round(v, 2) for v in flat_lengths]}",
    )


def test_criterion_07_simulation_bracketed_by_bounds():
    cell = CellConfig()
    radio = RadioConfig(noise_mode="zero")
    gd = guard_distances(radio, cell)
    grid = np.linspace(0.0, cell.r_cell_m, 20)
    trials = 200
    inside = closer_to_lower = 0
    details = []
    for point, d_cb in enumerate(grid):
        cfg = TrialConfig(d_cb=float(d_cb), seed=2024)
        mean_tp = np.mean(
            [
                run_saturation_trial(cfg, radio, cell, gd, point * trials + t).throughput_bps
                for t in range(trials)
            ]
        )
        tb = bounds.throughput_bounds(
            bounds.deployable_area(float(d_cb), gd, cell).area_m2, gd, radio.bitrate_bps
        )
        if tb.t_lower_bps <= mean_tp <= tb.t_upper_bps:
            inside += 1
        if (mean_tp - tb.t_lower_bps) < (tb.t_upper_bps - mean_tp):
            closer_to_lower += 1
        details.append((float(d_cb), mean_tp, tb.t_lower_bps, tb.t_upper_bps))
    ok = inside == len(grid) and closer_to_lower >= 0.7 * len(grid)
    report(
        7,
        "simulated mean bracketed by bounds",
        ok,
        f"inside {inside}/20, closer to lower bound {closer_to_lower}/20",
    )
    assert ok, details


@pytest.mark.parametrize(
    "regime, radio, cell",
    [
        (
            bounds.REGIME_LOW,
            RadioConfig(noise_mode="zero", p_due_mw=0.05, p_cue_max_mw=100.0),
            CellConfig(d_max_m=55.0),
        ),
        (
            bounds.REGIME_HIGH,
            RadioConfig(noise_mode="zero", p_due_mw=0.003, p_cue_max_mw=380.0),
            CellConfig(d_max_m=145.0),
        ),
    ],
)
def test_simulation_bracketed_by_bounds_in_other_slope_regimes(regime, radio, cell):
    # criterion 7 runs the preset (Kth1 < K <= Kth2); these are the benchmark's
    # d_max 55 m and K > Kth2 recipes.  The thinnest margin, K > Kth2 at
    # d_cb = 100 m, is about 4 standard errors above t_lower.
    gd = guard_distances(radio, cell)
    trials = 48
    for point, d_cb in enumerate((0.0, 100.0, 250.0, 400.0)):
        area = bounds.deployable_area(d_cb, gd, cell)
        assert area.regime == regime
        tb = bounds.throughput_bounds(area.area_m2, gd, radio.bitrate_bps)
        cfg = TrialConfig(d_cb=d_cb, seed=7)
        mean_tp = np.mean(
            [
                run_saturation_trial(cfg, radio, cell, gd, point * trials + t).throughput_bps
                for t in range(trials)
            ]
        )
        assert tb.t_lower_bps <= mean_tp <= tb.t_upper_bps, (d_cb, tb, mean_tp)


def test_criterion_08_rotation_insensitivity():
    cell = CellConfig()
    radio = RadioConfig(noise_mode="zero")
    gd = guard_distances(radio, cell)
    cfg = TrialConfig(d_cb=250.0, seed=777)
    trials = 1000
    nominal = rotated = 0
    for t in range(trials):
        res = run_saturation_trial(cfg, radio, cell, gd, t)
        nominal += res.min_due_sir >= radio.sir_due and res.bs_sir >= radio.sir_bs
        rotated += res.rotation_ok
    gap = abs(nominal - rotated) / trials
    ok = gap < 0.01
    report(
        8,
        "transmitter/receiver rotation insensitivity",
        ok,
        f"success {nominal / trials:.3f} vs rotated {rotated / trials:.3f}",
    )
    assert ok


def test_criterion_09_ppp_saturation():
    cell = CellConfig()
    radio = RadioConfig(noise_mode="zero")
    gd = guard_distances(radio, cell)
    d_cb_grid = [0.0, 100.0, 200.0, 300.0, 400.0]
    trials = 150
    lambdas = [4e-5, 6e-5, 8e-5, 10e-5, 12e-5]

    def grid_mean(mode, density):
        total = 0.0
        for point, d_cb in enumerate(d_cb_grid):
            cfg = TrialConfig(
                mode=mode, density=density, d_cb=d_cb, seed=4096 + point
            )
            runner = run_ppp_trial if mode == "ppp" else run_saturation_trial
            total += np.mean(
                [runner(cfg, radio, cell, gd, t).throughput_bps for t in range(trials)]
            )
        return total / len(d_cb_grid)

    ppp_means = [grid_mean("ppp", lam) for lam in lambdas]
    saturation_mean = grid_mean("saturation", None)

    mono = all(a <= b + 1e-9 for a, b in zip(ppp_means, ppp_means[1:]))
    assert report(
        9,
        "throughput non-decreasing in node density",
        mono,
        f"means (Mbit/s) = {[round(v / 1e6, 2) for v in ppp_means]}",
    )
    pair_gap = abs(ppp_means[-1] - ppp_means[-2]) / (0.5 * (ppp_means[-1] + ppp_means[-2]))
    sat_gap = max(
        abs(ppp_means[-1] - saturation_mean), abs(ppp_means[-2] - saturation_mean)
    ) / saturation_mean
    ok = pair_gap < 0.05 and sat_gap < 0.05
    report(
        9,
        "dense deployments reach saturation",
        ok,
        f"top-density gap {pair_gap:.1%}, gap to saturation {sat_gap:.1%}",
    )
    # At these densities greedy matching of a sparse node set offers far
    # fewer placement candidates than sequential packing to jamming, so the
    # two densest deployments stay well below the saturation average.  The
    # PPP mean passes saturation's near 2e-3 m^-2 and does not settle
    # there: mean pairs per trial on this setup go 7.00 -> 15.66 from
    # 1.2e-4 to 5e-2 m^-2, against 12.91 for saturation and 16.29 for fixed
    # links at d_min, because nearest-first matching shortens the links.
    assert ok, "dense PPP deployments do not reach the jamming-limit average"


def test_criterion_10_deterministic_artifacts(tmp_path):
    args = ["simulate", "--config", str(DATA / "small.yaml"), "--trials", "6", "--seed", "99"]
    files = {}
    for tag, extra in (
        ("run1_t1", ["--threads", "1"]),
        ("run2_t1", ["--threads", "1"]),
        ("run3_t4", ["--threads", "4"]),
    ):
        out = tmp_path / f"{tag}.csv"
        assert main(args + extra + ["--out", str(out)]) == 0
        files[tag] = out.read_bytes()
    same_run = files["run1_t1"] == files["run2_t1"]
    same_threads = files["run1_t1"] == files["run3_t4"]
    guard_a = tmp_path / "guard_a.csv"
    guard_b = tmp_path / "guard_b.csv"
    main(["guard", "--config", str(DATA / "small.yaml"), "--out", str(guard_a)])
    main(["guard", "--config", str(DATA / "small.yaml"), "--out", str(guard_b)])
    same_guard = guard_a.read_bytes() == guard_b.read_bytes()
    ok = same_run and same_threads and same_guard
    report(
        10,
        "byte-identical artifacts across runs and thread counts",
        ok,
        f"rerun={same_run} threads={same_threads} guard={same_guard}",
    )
    assert ok
