import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from d2dcap import hexpack
from d2dcap.hexpack import (
    MAX_LAYERS,
    HexApprox,
    LayoutTooLarge,
    PackingLayout,
    bs_interference,
    build_layout,
    first_layer_neighbors,
    hex_radii,
    packed_layout,
    ring_sums,
)
from d2dcap.guard import solve_gd
from d2dcap.propagation import CellConfig, PathLossModel, RadioConfig

SQRT3 = math.sqrt(3.0)


def enumerate_interference(layout, p_due, pl, r_e_min):
    """Coordinate oracle: place every disk centre explicitly and sum powers.

    The base of layer i sits at kappa_i along the radial axis; the two
    lattice rows leave it at +/-120 degrees from that axis, which is the
    vector-geometry counterpart of the law-of-cosines distances used by
    the implementation.
    """
    u = np.array([1.0, 0.0])
    w_excl = np.array([-0.5, SQRT3 / 2.0])
    w_incl = np.array([-0.5, -SQRT3 / 2.0])
    total = 0.0
    for kappa_i, (n_excl, n_incl) in zip(layout.kappa, layout.per_layer):
        for j in range(1, n_excl + 1):
            pos = kappa_i * u + (2.0 * j * r_e_min) * w_excl
            total += p_due * pl.beta / np.hypot(*pos) ** pl.exponent
        for kk in range(1, n_incl + 1):
            pos = kappa_i * u + (2.0 * (kk - 1) * r_e_min) * w_incl
            total += p_due * pl.beta / np.hypot(*pos) ** pl.exponent
    return 3.0 * total


def one_by_one_interference(layout, p_due, pl):
    """Bit-exact oracle: each disk's term computed on its own, added in the
    order excluding side, including side, one layer at a time."""
    step = 2.0 * layout.r_e
    total = 0.0
    for kappa_i, (n_excl, n_incl) in zip(layout.kappa, layout.per_layer):
        layer = 0.0
        for m in [*range(1, n_excl + 1), *range(n_incl)]:
            offset = step * m
            d2 = kappa_i**2 + offset * offset - kappa_i * offset
            layer += pl.beta / math.sqrt(d2) ** pl.exponent
        total += layer
    return 3.0 * p_due * total


def test_hex_radii_full_disk_limit():
    hexes = hex_radii(0.0, 500.0)
    assert hexes.r_h1 == 0.0
    assert hexes.r_h2 == pytest.approx(500.0 * math.sqrt(2.0 * SQRT3 * math.pi) / 3.0, rel=1e-12)


def test_hex_radii_touches_cell_boundary():
    r_cell = 500.0
    hexes = hex_radii(r_cell * SQRT3 / 2.0, r_cell)
    assert hexes.r_h1 == pytest.approx(r_cell, rel=1e-12)


def test_hex_radii_pinned():
    hexes = hex_radii(300.0, 500.0)
    assert hexes.r_h1 == pytest.approx(346.41016151377546, rel=1e-12)
    assert hexes.r_h2 == pytest.approx(559.8856420600400, rel=1e-12)


def test_hex_radii_rejects_outside_cell():
    with pytest.raises(ValueError):
        hex_radii(501.0, 500.0)
    with pytest.raises(ValueError):
        hex_radii(-1.0, 500.0)


@given(st.floats(min_value=1e-3, max_value=499.999))
def test_hex_area_identity(g_b):
    r_cell = 500.0
    hexes = hex_radii(g_b, r_cell)
    ring = math.pi * (r_cell**2 - g_b**2)
    trapezoids = 1.5 * SQRT3 * (hexes.r_h2**2 - hexes.r_h1**2)
    assert trapezoids == pytest.approx(ring, rel=1e-9)


def test_layer_count_examples():
    r_e_min, d_min = 50.0, 2.0

    def n_layers(hexes):
        layout = build_layout(hexes, d_min, r_e_min)
        assert len(layout.per_layer) == len(layout.kappa)
        return len(layout.kappa)

    assert n_layers(HexApprox(100.0, 100.0 + d_min)) == 1
    assert n_layers(HexApprox(100.0, 100.0 + d_min + 4 * r_e_min)) == 3
    assert n_layers(HexApprox(100.0, 100.5)) == 0


def test_layer_pairs_degenerate_inner_hexagon():
    hexes = HexApprox(0.0, 1000.0)
    assert build_layout(hexes, 0.0, 50.0).per_layer[0] == (0, 1)


@given(
    st.floats(min_value=1.0, max_value=400.0),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=5.0, max_value=150.0),
)
def test_row_counts_differ_by_one_or_two(g_b, d_min, r_e_min):
    layout = build_layout(hex_radii(g_b, 500.0), d_min, r_e_min)
    for n_excl, n_incl in layout.per_layer:
        assert n_incl - n_excl in (1, 2)


def test_total_pairs_examples():
    assert PackingLayout((), (), 50.0).n_total == 0
    assert PackingLayout(((2, 3),), (100.0,), 50.0).n_total == 15


def test_layout_kappa_spacing(gd, cell):
    hexes = hex_radii(gd.g_b, cell.r_cell_m)
    layout = build_layout(hexes, cell.d_min_m, gd.r_e_min)
    for a, b in zip(layout.kappa, layout.kappa[1:]):
        assert b - a == pytest.approx(2.0 * gd.r_e_min, rel=1e-15)


def test_default_parameter_layer_table(gd, cell):
    # frozen from direct evaluation at the solved guard radii
    hexes = hex_radii(gd.g_b, cell.r_cell_m)
    layout = build_layout(hexes, cell.d_min_m, gd.r_e_min)
    assert layout.per_layer == ((0, 1), (1, 2), (2, 3))
    assert layout.n_total == 27
    assert packed_layout(gd.g_d, gd.g_b, cell) == layout


def test_total_pairs_non_increasing_in_disk_radius(gd, cell):
    hexes = hex_radii(gd.g_b, cell.r_cell_m)
    counts = [
        build_layout(hexes, cell.d_min_m, r_e).n_total
        for r_e in np.linspace(40.0, 200.0, 60)
    ]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_bs_interference_trivial_cases():
    pl = PathLossModel(exponent=3.76, intercept_db=-15.3)
    assert bs_interference(PackingLayout((), (), 50.0), 0.7, pl) == 0.0
    single = PackingLayout(((0, 1),), (150.0,), 50.0)
    expected = 3.0 * 0.7 * pl.beta / 150.0**3.76
    assert bs_interference(single, 0.7, pl) == pytest.approx(expected, rel=1e-15)


def test_bs_interference_matches_coordinate_oracle():
    pl = PathLossModel(exponent=3.76, intercept_db=-15.3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        g_b = rng.uniform(20.0, 480.0)
        r_e_min = rng.uniform(5.0, 120.0)
        d_min = rng.uniform(0.5, 10.0)
        p_due = rng.uniform(0.05, 5.0)
        layout = build_layout(hex_radii(g_b, 500.0), d_min, r_e_min)
        got = bs_interference(layout, p_due, pl)
        want = enumerate_interference(layout, p_due, pl, r_e_min)
        assert got == pytest.approx(want, rel=1e-9)


# (radio overrides, d_max_m): the preset and the three analytic recipes of
# the benchmark (d_max 30 m; d_max 120 m; a weak DUE against a strong CUE,
# which puts K above Kth2)
RING_CASES = {
    "preset": ({}, 150.0),
    "d_max_30": ({"p_due_mw": 0.1}, 30.0),
    "d_max_120": ({"p_due_mw": 1.0}, 120.0),
    "k_above_kth2": ({"p_due_mw": 0.003, "p_cue_max_mw": 380.0}, 145.0),
}


@pytest.mark.parametrize("case", sorted(RING_CASES))
def test_ring_sum_is_bs_interference_bit_for_bit(case):
    overrides, d_max = RING_CASES[case]
    radio = RadioConfig(noise_mode="zero", **overrides)
    cell = CellConfig(d_max_m=d_max)
    g_d, _, _ = solve_gd(radio, cell)
    lo = g_d / 2.0
    grid = [lo + (cell.r_cell_m - lo) * i / 600 for i in range(601)]
    # shuffled, so the kernel's tables serve narrow rings after wider ones
    random.Random(case).shuffle(grid)
    ring_sum = ring_sums(g_d, cell, radio.pl_bs)
    layer_counts = set()
    for g_b in grid:
        layout = packed_layout(g_d, g_b, cell)
        layer_counts.add(len(layout.kappa))
        for p_due in (radio.p_due_mw, 0.37):
            want = one_by_one_interference(layout, p_due, radio.pl_bs)
            assert bs_interference(layout, p_due, radio.pl_bs) == want
            assert 3.0 * p_due * ring_sum(g_b) == want
            assert 3.0 * p_due * ring_sums(g_d, cell, radio.pl_bs)(g_b) == want
    assert len(layer_counts) >= 4  # the grid crosses several layer-count changes


@pytest.mark.parametrize("case", sorted(RING_CASES))
def test_ring_sums_at_the_ends_of_the_guard_range(case):
    overrides, d_max = RING_CASES[case]
    radio = RadioConfig(noise_mode="zero", **overrides)
    cell = CellConfig(d_max_m=d_max)
    g_d, _, _ = solve_gd(radio, cell)
    r_e_min = (g_d + cell.d_min_m) / 2.0
    ring_sum = ring_sums(g_d, cell, radio.pl_bs)
    # near the cell edge the ring holds no layer and sums to zero
    assert packed_layout(g_d, cell.r_cell_m, cell).per_layer == ()
    assert ring_sum(cell.r_cell_m) == 0.0
    # at g_b = 0 the first layer's excluding count is clamped up from -1
    assert math.floor((cell.d_min_m / 2.0 - r_e_min) / (2.0 * r_e_min)) == -1
    layout = packed_layout(g_d, 0.0, cell)
    assert layout.per_layer[0][0] == 0
    assert 3.0 * 0.37 * ring_sum(0.0) == one_by_one_interference(layout, 0.37, radio.pl_bs)
    for g_b in (-1e-9, cell.r_cell_m * (1.0 + 1e-12)):
        with pytest.raises(ValueError, match="guard radius"):
            ring_sum(g_b)


def test_ring_sum_refuses_more_than_max_layers(monkeypatch):
    # the kernel raises on the call, before any term is summed
    summed = []
    monkeypatch.setattr(hexpack, "_sum_layers", lambda *args: summed.append(args))
    ring_sum = ring_sums(0.0, CellConfig(r_cell_m=1e4, d_min_m=2.0), PathLossModel(3.76, -15.3))
    with pytest.raises(LayoutTooLarge, match="cell.r_cell_m"):
        ring_sum(0.0)
    assert summed == []


def test_first_layer_neighbors_kissing_number():
    # equal-disk ring: six unit disks fit around one
    assert first_layer_neighbors(2.0, 1.0, 1.0) == 6


def test_first_layer_neighbors_monotone_in_small_radius():
    counts = [
        first_layer_neighbors(100.0, r_small, 150.0)
        for r_small in np.linspace(150.0, 30.0, 25)
    ]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_first_layer_neighbors_default_fixed_point(gd):
    assert first_layer_neighbors(gd.g_d, gd.r_e_min, gd.r_e_max) == gd.n_s == 8


def test_first_layer_neighbors_rejects_degenerate():
    with pytest.raises(ValueError):
        first_layer_neighbors(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        # neighbour disk far smaller than the guard spacing: the neighbour
        # ring never reaches the victim's arc (arccos argument > 1)
        first_layer_neighbors(100.0, 10.0, 1000.0)


def test_build_layout_refuses_more_than_max_layers():
    # 10 km of ring for 1 m disks: about 5,500 layers, some 45M disks
    with pytest.raises(LayoutTooLarge, match="cell.r_cell_m"):
        build_layout(hex_radii(0.0, 1e4), 2.0, 1.0)
    assert len(build_layout(hex_radii(0.0, 1e3), 2.0, 1.0).per_layer) <= MAX_LAYERS
