import math

import numpy as np
import pytest

from d2dcap import hexpack
from d2dcap.cli import main
from d2dcap.guard import (
    Infeasible,
    NoiseLimited,
    compute_gc,
    compute_k,
    guard_distances,
    guard_report,
    pair_guard_for_neighbors,
    solve_gb,
    solve_gd,
)
from d2dcap.propagation import (
    CellConfig,
    PathLossModel,
    RadioConfig,
    path_loss,
    shannon_sir_threshold,
)

# frozen fixed point at the default interference-limited parameter set
GD_DEFAULT = 192.52536783902982
NS_DEFAULT = 8
K_DEFAULT = 0.9965700766833433


def grid_scan_gd(radio, cell, step=0.01):
    """Independent oracle: scan candidate guard distances for consistency.

    A candidate g is consistent when the neighbour count its geometry
    implies reproduces g through the closed-form distance, up to half a
    grid step.  Formulas are re-derived inline, not imported.
    """
    gamma = shannon_sir_threshold(radio.bitrate_bps, radio.bandwidth_hz)
    alpha = radio.pl_due.exponent
    g = np.arange(1.0, 1000.0, step)
    re_min = (g + cell.d_min_m) / 2.0
    re_max = (g + cell.d_max_m) / 2.0
    ring_r = re_max + g / 2.0
    d = re_min + re_max
    arg = (d * d - re_min * re_min + ring_r * ring_r) / (2.0 * d * ring_r)
    n_s = np.floor(2.0 * np.pi * ring_r / (2.0 * ring_r * np.arccos(arg))).astype(int)
    g_implied = cell.d_max_m * (n_s * gamma) ** (1.0 / alpha)  # zero-noise closed form
    consistent = np.abs(g_implied - g) <= step / 2.0
    return g[consistent], n_s[consistent]


def layout_interference(radio, cell, g_d, g_b):
    """BS interference of the built layout of minimum-size disks outside g_b."""
    r_e_min = (g_d + cell.d_min_m) / 2.0
    layout = hexpack.build_layout(hexpack.hex_radii(g_b, cell.r_cell_m), cell.d_min_m, r_e_min)
    return hexpack.bs_interference(layout, radio.p_due_mw, radio.pl_bs)


def linear_scan_gb(radio, cell, g_d, step=0.01):
    """Independent oracle: first feasible guard radius walking up from g_d/2."""
    cap = radio.p_cue_max_mw * path_loss(radio.pl_bs, cell.r_cell_m) / radio.sir_bs
    g = g_d / 2.0
    while layout_interference(radio, cell, g_d, g) > cap:
        g += step
        if g > cell.r_cell_m:
            raise AssertionError("scan oracle found no feasible radius")
    return g


def test_pair_guard_zero_neighbors(radio, cell):
    assert pair_guard_for_neighbors(radio, cell, 0) == 0.0


def test_pair_guard_zero_noise_closed_form(radio, cell):
    gamma = shannon_sir_threshold(radio.bitrate_bps, radio.bandwidth_hz)
    for n_s in (1, 6, 8, 13):
        expected = cell.d_max_m * (n_s * gamma) ** (1.0 / radio.pl_due.exponent)
        assert pair_guard_for_neighbors(radio, cell, n_s) == pytest.approx(expected, rel=1e-12)


def test_pair_guard_independent_of_power_without_noise(cell):
    values = {
        pair_guard_for_neighbors(RadioConfig(noise_mode="zero", p_due_mw=p), cell, 8)
        for p in (0.1, 0.7, 5.0)
    }
    assert len(values) == 1


def test_noise_limited_default_parameters(cell):
    with pytest.raises(NoiseLimited):
        solve_gd(RadioConfig(), cell)  # per-hz noise floor sits above the link budget


def test_solve_gd_fixed_point(radio, cell):
    g_d, n_s, _ = solve_gd(radio, cell)
    assert n_s == NS_DEFAULT
    assert g_d == pytest.approx(GD_DEFAULT, rel=1e-12)


def test_solve_gd_agrees_with_grid_scan(radio, cell):
    g_d, n_s, _ = solve_gd(radio, cell)
    scan_g, scan_n = grid_scan_gd(radio, cell)
    assert len(scan_g) > 0
    idx = np.argmin(np.abs(scan_g - g_d))
    assert abs(scan_g[idx] - g_d) <= 0.01
    assert scan_n[idx] == n_s


def test_compute_k_radicals_cancel(cell):
    radio = RadioConfig(noise_mode="zero", p_due_mw=0.7, sir_due=0.7 / 200.0)
    assert compute_k(radio, cell) == pytest.approx(cell.d_max_m / cell.r_cell_m, rel=1e-12)


def test_compute_k_vanishing_threshold(cell):
    radio = RadioConfig(noise_mode="zero", sir_due=1e-30)
    assert compute_k(radio, cell) < 1e-6


def test_compute_k_pinned(radio, cell):
    assert compute_k(radio, cell) == pytest.approx(K_DEFAULT, rel=1e-12)


def test_k_scaling_identity(cell):
    # k * p_due**(1/alpha) is independent of the device power
    products = [
        compute_k(RadioConfig(noise_mode="zero", p_due_mw=p), cell) * p ** (1.0 / 3.76)
        for p in (0.1, 0.7, 2.0, 10.0)
    ]
    assert all(v == pytest.approx(products[0], rel=1e-12) for v in products)


def test_compute_gc():
    assert compute_gc(1.0, 0.0) == 0.0
    assert compute_gc(1.0, 250.0) == 250.0
    assert compute_gc(0.5, 100.0) * 2.0 == compute_gc(0.5, 200.0)
    with pytest.raises(ValueError):
        compute_gc(1.0, -1.0)


def test_solve_gb_lower_clamp_without_interference(radio, cell):
    quiet = RadioConfig(noise_mode="zero", p_due_mw=1e-9)
    g_d, _, _ = solve_gd(quiet, cell)
    assert solve_gb(quiet, cell, g_d) == pytest.approx(g_d / 2.0, rel=1e-12)


def test_solve_gb_infeasible_for_huge_threshold(radio, cell):
    strict = RadioConfig(noise_mode="zero", sir_bs=1e12)
    g_d, _, _ = solve_gd(strict, cell)
    with pytest.raises(Infeasible):
        solve_gb(strict, cell, g_d)


def test_solve_gb_agrees_with_linear_scan(radio, cell):
    g_d, _, _ = solve_gd(radio, cell)
    g_b = solve_gb(radio, cell, g_d)
    scan = linear_scan_gb(radio, cell, g_d)
    assert abs(g_b - scan) <= 0.02


def test_solve_gb_boundary_tight(radio, cell):
    g_d, _, _ = solve_gd(radio, cell)
    g_b = solve_gb(radio, cell, g_d)
    assert g_b > g_d / 2.0  # interior solution at these parameters
    cap = radio.p_cue_max_mw * path_loss(radio.pl_bs, cell.r_cell_m) / radio.sir_bs
    assert layout_interference(radio, cell, g_d, g_b) <= cap
    assert layout_interference(radio, cell, g_d, g_b - 2e-3) > cap


def _p_due_grid(start, stop, steps):
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


# name -> (radio fields shared by the sweep, d_max_m, versus field, versus
# values, p_due values in sweep order)
GB_SWEEPS = {
    "ascending": ({}, 150.0, "p_cue_max_mw", (140.0, 200.0), _p_due_grid(0.25, 6.0, 24)),
    "descending": ({}, 150.0, "p_cue_max_mw", (140.0, 200.0), _p_due_grid(6.0, 0.25, 24)),
    # g_d changes with each versus value
    "versus_bitrate": ({}, 150.0, "bitrate_bps", (1e6, 2e6, 3e6), _p_due_grid(0.25, 6.0, 16)),
    # g_d changes with each point; the weakest points are noise-limited
    "per_hz": ({"noise_mode": "per-hz"}, 60.0, "p_cue_max_mw", (200.0,), _p_due_grid(0.01, 6.0, 24)),
}


@pytest.mark.parametrize("sweep", sorted(GB_SWEEPS))
def test_solve_gb_with_shared_sums_equals_fresh_solves(sweep, monkeypatch):
    fields, d_max, versus, versus_values, p_due_grid = GB_SWEEPS[sweep]
    cell = CellConfig(d_max_m=d_max)
    calls = []
    ring_sums = hexpack.ring_sums

    def counting_ring_sums(*args):
        ring_sum = ring_sums(*args)
        return lambda g_b: calls.append(g_b) or ring_sum(g_b)

    monkeypatch.setattr(hexpack, "ring_sums", counting_ring_sums)
    sums = {}
    shared_calls = fresh_calls = solved = 0
    for value in versus_values:
        for p_due in p_due_grid:
            radio = RadioConfig(**{"noise_mode": "zero", **fields, versus: value, "p_due_mw": p_due})
            try:
                g_d, _, _ = solve_gd(radio, cell)
            except NoiseLimited:
                continue
            solved += 1
            calls.clear()
            shared = solve_gb(radio, cell, g_d, sums)
            shared_calls += len(calls)
            assert sums and all(key[0] == g_d for key in sums)
            calls.clear()
            fresh = solve_gb(radio, cell, g_d)
            fresh_calls += len(calls)
            assert shared == fresh, (value, p_due)
    assert solved >= len(p_due_grid) // 2
    assert fresh_calls > 0
    if sweep == "per_hz":
        assert shared_calls == fresh_calls  # no two points share a g_d
    else:
        assert shared_calls < fresh_calls


def test_gb_monotone_on_coarse_grid(cell):
    p_due_grid = np.linspace(0.3, 4.0, 6)
    p_cue_grid = np.linspace(120.0, 220.0, 6)
    table = {}
    for p_cue in p_cue_grid:
        for p_due in p_due_grid:
            radio = RadioConfig(noise_mode="zero", p_due_mw=p_due, p_cue_max_mw=p_cue)
            g_d, _, _ = solve_gd(radio, cell)
            table[(p_cue, p_due)] = solve_gb(radio, cell, g_d)
    for p_cue in p_cue_grid:
        row = [table[(p_cue, p)] for p in p_due_grid]
        assert all(a <= b + 1e-9 for a, b in zip(row, row[1:]))
    for p_due in p_due_grid:
        col = [table[(p, p_due)] for p in p_cue_grid]
        assert all(a >= b - 1e-9 for a, b in zip(col, col[1:]))


def test_gd_monotone_in_bitrate(cell):
    g_values = []
    for rb in (1e6, 2e6, 3e6):
        radio = RadioConfig(noise_mode="zero", bitrate_bps=rb)
        g_d, _, _ = solve_gd(radio, cell)
        g_values.append(g_d)
    assert g_values[0] < g_values[1] < g_values[2]


def test_guard_distances_record(radio, cell, gd):
    assert gd.g_d == pytest.approx(GD_DEFAULT, rel=1e-12)
    assert gd.n_s == NS_DEFAULT
    assert gd.r_e_min == pytest.approx((gd.g_d + cell.d_min_m) / 2.0, rel=1e-15)
    assert gd.r_e_max == pytest.approx((gd.g_d + cell.d_max_m) / 2.0, rel=1e-15)
    assert gd.r_in == pytest.approx(gd.g_b - gd.g_d / 2.0, rel=1e-12)
    assert gd.r_out == pytest.approx(cell.r_cell_m + gd.g_d / 2.0, rel=1e-15)
    assert 0.0 <= gd.r_in < gd.r_out
    assert gd.g_b <= cell.r_cell_m


def test_guard_report_metadata(radio, cell):
    report = guard_report(radio, cell)
    assert report["noise_mode"] == "zero"
    assert report["sir_due"] == radio.sir_due
    assert report["gd_iterations"] >= 1
    assert report["g_b_m"] == pytest.approx(guard_distances(radio, cell).g_b, rel=1e-12)


@pytest.mark.parametrize(
    "bitrate, exponent, d_min, d_max, counts, n_s, iterations",
    [
        (1.0e6, 2.5, 1.75, 210.0, [9, 8, 9], 9, 3),  # 6 -> 9 -> 8 -> 9
        (1.6e7, 5.0, 23.6, 84.0, [7, 6], 7, 2),  # 6 -> 7 -> 6
    ],
)
def test_solve_gd_resolves_a_cycle_to_its_largest_count(
    tmp_path, monkeypatch, bitrate, exponent, d_min, d_max, counts, n_s, iterations
):
    radio = RadioConfig(
        noise_mode="zero",
        bitrate_bps=bitrate,
        pl_due=PathLossModel(exponent=exponent, intercept_db=-38.0),
    )
    cell = CellConfig(r_cell_m=500.0, d_min_m=d_min, d_max_m=d_max)
    seen = []
    real = hexpack.first_layer_neighbors
    monkeypatch.setattr(
        hexpack, "first_layer_neighbors", lambda *a: seen.append(real(*a)) or seen[-1]
    )
    g_d, got_n_s, got_iterations = solve_gd(radio, cell)
    assert seen == counts  # the last count was seen before: a cycle, not a fixed point
    assert (got_n_s, got_iterations) == (n_s, iterations)
    assert g_d == pair_guard_for_neighbors(radio, cell, n_s)

    cfg = tmp_path / "cycle.yaml"
    cfg.write_text(
        f"radio: {{noise_mode: zero, bitrate_bps: {bitrate!r}, "
        f"pl_due: {{exponent: {exponent!r}, intercept_db: -38.0}}}}\n"
        f"cell: {{r_cell_m: 500.0, d_min_m: {d_min!r}, d_max_m: {d_max!r}}}\n"
    )
    out = tmp_path / "guard.csv"
    assert main(["guard", "--config", str(cfg), "--out", str(out)]) == 0
    header, values = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    record = dict(zip(header.split(","), values.split(",")))
    assert int(record["n_s"]) == n_s
    assert int(record["gd_iterations"]) == iterations
