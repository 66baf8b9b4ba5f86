import math

import numpy as np
import pytest

from d2dcap.bounds import (
    CASE_DOUBLE_CROSS,
    CASE_FULL_RING,
    CASE_INNER_CROSS,
    CASE_INTERIOR,
    CASE_OUTER_CROSS,
    REGIME_HIGH,
    REGIME_LOW,
    REGIME_MID,
    deployable_area,
    k_thresholds,
    packing_upper_bound,
    pair_capacity,
    ring_area,
    throughput_bounds,
)
from d2dcap.guard import GuardDistances, guard_distances
from d2dcap.propagation import CellConfig, RadioConfig

SQRT3 = math.sqrt(3.0)


def synthetic_gd(g_d, k, g_b, cell):
    """Guard record with chosen radii; bypasses the solvers."""
    return GuardDistances(
        g_d=g_d,
        k=k,
        g_b=g_b,
        n_s=0,
        r_e_min=(g_d + cell.d_min_m) / 2.0,
        r_e_max=(g_d + cell.d_max_m) / 2.0,
        r_in=g_b - g_d / 2.0,
        r_out=cell.r_cell_m + g_d / 2.0,
        gd_iterations=0,
    )


def mc_deployable_area(d_cb, gd, n_samples, rng):
    """Membership oracle: area-uniform ring samples outside the CUE cut-out."""
    rho = np.sqrt(rng.random(n_samples) * (gd.r_out**2 - gd.r_in**2) + gd.r_in**2)
    theta = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    x = rho * np.cos(theta)
    y = rho * np.sin(theta)
    r_cue = max(gd.k * d_cb - gd.g_d / 2.0, 0.0)
    keep = np.hypot(x - d_cb, y) >= r_cue
    s_r = math.pi * (gd.r_out**2 - gd.r_in**2)
    p = keep.mean()
    return s_r * p, s_r * math.sqrt(p * (1.0 - p) / n_samples)


def test_k_thresholds_exact_fractions():
    assert k_thresholds(500.0, 500.0) == (0.0, 0.0)
    k1, k2 = k_thresholds(500.0 / 3.0, 500.0)
    assert k1 == pytest.approx(0.5, rel=1e-12)
    assert k2 == pytest.approx(2.0, rel=1e-12)
    k1, k2 = k_thresholds(250.0, 500.0)
    assert k1 == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert k2 == pytest.approx(1.0, rel=1e-12)


def test_full_ring_region_is_exact(gd, cell):
    s_r = ring_area(gd)
    flat_end = gd.g_b / (1.0 + gd.k)
    for d_cb in np.linspace(0.0, flat_end, 7):
        area = deployable_area(float(d_cb), gd, cell)
        assert area.area_m2 == s_r  # bit-exact, not approximately
        assert area.case_label == CASE_FULL_RING


def test_case_boundary_tie_goes_to_earlier_case(gd, cell):
    boundary = gd.g_b / (1.0 + gd.k)
    assert deployable_area(boundary, gd, cell).case_label == CASE_FULL_RING
    # exact ties at the cell edge r_cell/(1+k): the cut-out only touches the
    # outer boundary there, so the label is still inner-cross
    ties = ((1.5, 100.0, REGIME_MID, 200.0), (4.0, 250.0, REGIME_HIGH, 100.0))
    for k, g_b, regime, edge in ties:
        tie = synthetic_gd(40.0, k, g_b, cell)
        assert cell.r_cell_m / (1.0 + k) == edge
        at = deployable_area(edge, tie, cell)
        assert (at.regime, at.case_label) == (regime, CASE_INNER_CROSS)
        above = deployable_area(math.nextafter(edge, math.inf), tie, cell)
        assert above.case_label == CASE_DOUBLE_CROSS


def test_interior_case_regime_low(cell):
    # small exclusion slope: the cut-out floats inside the ring for
    # mid-range CUE positions and the area is the plain disk subtraction
    gd = synthetic_gd(40.0, 0.2, 150.0, cell)
    k1, k2 = k_thresholds(gd.g_b, cell.r_cell_m)
    assert gd.k <= k1
    d_cb = 0.5 * (gd.g_b / (1.0 - gd.k) + cell.r_cell_m / (1.0 + gd.k))
    area = deployable_area(d_cb, gd, cell)
    assert area.regime == REGIME_LOW
    assert area.case_label == CASE_INTERIOR
    r_cue = gd.k * d_cb - gd.g_d / 2.0
    assert area.area_m2 == pytest.approx(ring_area(gd) - math.pi * r_cue**2, rel=1e-12)


def test_case_sequence_all_regimes(cell):
    expectations = [
        (0.2, 150.0, REGIME_LOW, [CASE_FULL_RING, CASE_INNER_CROSS, CASE_INTERIOR, CASE_OUTER_CROSS]),
        (1.0, 150.0, REGIME_MID, [CASE_FULL_RING, CASE_INNER_CROSS, CASE_DOUBLE_CROSS]),
        # g_b/(1-k) = 400 m lies inside the cell: the cut-out clears the
        # central hole again and leaves only through the outer boundary
        (0.75, 100.0, REGIME_MID, [CASE_FULL_RING, CASE_INNER_CROSS, CASE_DOUBLE_CROSS, CASE_OUTER_CROSS]),
        (4.0, 150.0, REGIME_HIGH, [CASE_FULL_RING, CASE_INNER_CROSS, CASE_DOUBLE_CROSS]),
    ]
    for k, g_b, regime, allowed in expectations:
        gd = synthetic_gd(40.0, k, g_b, cell)
        seen = []
        for d_cb in np.linspace(0.0, cell.r_cell_m, 201):
            area = deployable_area(float(d_cb), gd, cell)
            assert area.regime == regime
            if not seen or seen[-1] != area.case_label:
                seen.append(area.case_label)
        assert seen == allowed


def test_area_continuous_at_case_boundaries(cell, gd):
    records = [gd] + [
        synthetic_gd(40.0, k, g_b, cell)
        for k, g_b in (
            (0.2, 150.0), (0.8, 150.0), (1.0, 150.0), (4.0, 100.0), (0.5, 300.0), (0.75, 100.0)
        )
    ]
    eps = 1e-5
    for record in records:
        s_r = ring_area(record)
        boundaries = [record.g_b / (1.0 + record.k), cell.r_cell_m / (1.0 + record.k)]
        if record.k < 1.0:
            boundaries.append(record.g_b / (1.0 - record.k))
        for b in boundaries:
            if not eps <= b <= cell.r_cell_m - eps:
                continue
            below = deployable_area(b - eps, record, cell).area_m2
            above = deployable_area(b + eps, record, cell).area_m2
            assert abs(below - above) <= 1e-6 * s_r


def test_area_matches_membership_oracle(cell, gd):
    rng = np.random.default_rng(42)
    records = [gd] + [
        synthetic_gd(40.0, k, g_b, cell)
        for k, g_b in ((0.2, 150.0), (0.9, 200.0), (0.75, 100.0), (4.2, 100.0))
    ]
    visited = set()
    for record in records:
        # the midpoint of every case interval, then random positions
        k = record.k
        edges = [0.0, record.g_b / (1.0 + k), cell.r_cell_m / (1.0 + k), cell.r_cell_m]
        if k < 1.0:
            edges.append(record.g_b / (1.0 - k))
        edges = sorted(b for b in edges if b <= cell.r_cell_m)
        midpoints = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
        for d_cb in [*midpoints, *rng.uniform(0.0, cell.r_cell_m, 8)]:
            result = deployable_area(float(d_cb), record, cell)
            visited.add((result.regime, result.case_label))
            area = result.area_m2
            estimate, se = mc_deployable_area(float(d_cb), record, 400_000, rng)
            if se == 0.0:
                # all samples on one side: the analytic value matches up to
                # the cancellation noise of the lens subtraction
                assert area == pytest.approx(estimate, abs=1e-9 * ring_area(record))
            else:
                assert abs(area - estimate) <= 4.0 * se
    low = [CASE_FULL_RING, CASE_INNER_CROSS, CASE_INTERIOR, CASE_OUTER_CROSS]
    mid = [CASE_FULL_RING, CASE_INNER_CROSS, CASE_DOUBLE_CROSS, CASE_OUTER_CROSS]
    high = [CASE_FULL_RING, CASE_INNER_CROSS, CASE_DOUBLE_CROSS]
    assert visited == {
        *((REGIME_LOW, c) for c in low),
        *((REGIME_MID, c) for c in mid),
        *((REGIME_HIGH, c) for c in high),
    }


def test_pair_capacity_trivial():
    assert pair_capacity(0.0, 10.0) == 0.0
    r_e = 97.0
    assert pair_capacity(2.0 * SQRT3 * r_e**2, r_e) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        pair_capacity(1.0, 0.0)


def test_pair_capacity_accepts_area_record(gd, cell):
    area = deployable_area(0.0, gd, cell)
    assert pair_capacity(area, gd.r_e_min) == pytest.approx(
        pair_capacity(area.area_m2, gd.r_e_min), rel=1e-15
    )


def test_throughput_bounds_zero_area(gd, cell):
    tb = throughput_bounds(0.0, gd, 2e6)
    assert tb.t_upper_bps == 0.0 and tb.t_lower_bps == 0.0


def test_throughput_ratio_identity(gd, cell):
    tb = throughput_bounds(12345.0, gd, 2e6)
    expected = ((gd.g_d + cell.d_max_m) / (gd.g_d + cell.d_min_m)) ** 2
    assert tb.t_upper_bps / tb.t_lower_bps == pytest.approx(expected, rel=1e-12)
    assert tb.t_lower_bps <= tb.t_upper_bps


def test_throughput_matches_capacity_definition(gd, cell):
    area = deployable_area(100.0, gd, cell)
    tb = throughput_bounds(area, gd, 2e6)
    assert tb.t_upper_bps == pytest.approx(
        2e6 * pair_capacity(area, gd.r_e_min), rel=1e-12
    )
    assert tb.t_lower_bps == pytest.approx(
        2e6 * pair_capacity(area, gd.r_e_max), rel=1e-12
    )


def test_area_flat_then_non_increasing_regime_low(cell):
    # Non-increasing holds up to the outer-boundary crossing; past
    # r_cell/(1+k) a slow cut-out (k < 1) slides out of the ring faster
    # than it grows, so the area recovers slightly (verified against the
    # membership oracle).
    gd = synthetic_gd(40.0, 0.2, 150.0, cell)
    flat_end = gd.g_b / (1.0 + gd.k)
    outer_crossing = cell.r_cell_m / (1.0 + gd.k)
    grid = np.linspace(0.0, cell.r_cell_m, 1001)
    areas = [deployable_area(float(d), gd, cell).area_m2 for d in grid]
    s_r = ring_area(gd)
    for d, a in zip(grid, areas):
        if d <= flat_end:
            assert a == s_r
    inside = [a for d, a in zip(grid, areas) if flat_end < d <= outer_crossing]
    assert all(x >= y - 1e-9 * s_r for x, y in zip(inside, inside[1:]))
    assert inside[-1] < s_r


def test_packing_upper_bound():
    assert packing_upper_bound(0, 2e6) == 0.0
    assert packing_upper_bound(100, 2e6) == 200e6
    with pytest.raises(ValueError):
        packing_upper_bound(-1, 2e6)


def test_deployable_area_rejects_out_of_cell(gd, cell):
    with pytest.raises(ValueError):
        deployable_area(-1.0, gd, cell)
    with pytest.raises(ValueError):
        deployable_area(cell.r_cell_m + 1.0, gd, cell)


@pytest.mark.parametrize(
    "p_due_mw, p_cue_max_mw, d_max_m, d_cb",
    [
        # the double-cross difference of areas used to round to -1.16e-10 m^2
        (0.0021825829322329703, 382.63393315194935, 73.81322018937942, 350.0),
        # ... and here to +2.33e-10 m^2, which the clamp let through
        (0.004003909530837493, 351.63982098191025, 146.6217039395001, 200.0),
    ],
    ids=["negative-residue", "positive-residue"],
)
def test_swallowed_ring_area_clamped_at_zero(p_due_mw, p_cue_max_mw, d_max_m, d_cb):
    # the CUE cut-out covers the whole ring
    radio = RadioConfig(noise_mode="zero", p_due_mw=p_due_mw, p_cue_max_mw=p_cue_max_mw)
    cell = CellConfig(d_max_m=d_max_m)
    gd = guard_distances(radio, cell)
    area = deployable_area(d_cb, gd, cell)
    assert area.case_label == CASE_DOUBLE_CROSS
    assert area.area_m2 == 0.0
    tb = throughput_bounds(area, gd, radio.bitrate_bps)
    assert tb.t_upper_bps == 0.0 and tb.t_lower_bps == 0.0
