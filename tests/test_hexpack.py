import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dcap import hexpack
from d2dcap.hexpack import (
    MAX_LAYERS,
    LayoutTooLarge,
    PackingLayout,
    bs_interference,
    build_layout,
    first_layer_neighbors,
    hex_radii,
    packed_layout,
    ring_sum,
)
from d2dcap.guard import guard_distances, solve_gd
from d2dcap.propagation import CellConfig, PathLossModel, RadioConfig

SQRT3 = math.sqrt(3.0)


def layered_centres(hexes, d_min, r_e_min):
    """Coordinate oracle: every disk centre of the layered construction, (n, 2).

    The base of layer i sits at (kappa_i, 0) on the seed radial.  The
    excluding side's j-th disk (j = 1..n_excl) sits 2 j r_e_min from it at
    +120 degrees from the outward radial, the including side's k-th disk
    (k = 1..n_incl) 2 (k - 1) r_e_min from it at -120 degrees; this is the
    vector-geometry counterpart of the law-of-cosines distances used by
    the implementation.  The other two thirds are that third rotated by
    120 and 240 degrees.
    """
    w_excl = np.array([-0.5, SQRT3 / 2.0])
    w_incl = np.array([-0.5, -SQRT3 / 2.0])
    third = []
    for kappa_i, (n_excl, n_incl) in hexpack._layers(*hexes, d_min, r_e_min):
        base = np.array([kappa_i, 0.0])
        third += [base + 2.0 * j * r_e_min * w_excl for j in range(1, n_excl + 1)]
        third += [base + 2.0 * (k - 1) * r_e_min * w_incl for k in range(1, n_incl + 1)]
    third = np.reshape(third, (-1, 2))
    turns = [2.0 * math.pi * m / 3.0 for m in range(3)]
    return np.concatenate(
        [third @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]) for t in turns]
    )


def coordinate_interference(centres, p_due, pl):
    """Received power at the BS (the origin) from one transmitter per centre."""
    return float(np.sum(p_due * pl.beta / np.hypot(centres[:, 0], centres[:, 1]) ** pl.exponent))


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
    r_h1, r_h2 = hex_radii(0.0, 500.0)
    assert r_h1 == 0.0
    assert r_h2 == pytest.approx(500.0 * math.sqrt(2.0 * SQRT3 * math.pi) / 3.0, rel=1e-12)


def test_hex_radii_touches_cell_boundary():
    r_cell = 500.0
    r_h1, _ = hex_radii(r_cell * SQRT3 / 2.0, r_cell)
    assert r_h1 == pytest.approx(r_cell, rel=1e-12)


def test_hex_radii_pinned():
    r_h1, r_h2 = hex_radii(300.0, 500.0)
    assert r_h1 == pytest.approx(346.41016151377546, rel=1e-12)
    assert r_h2 == pytest.approx(559.8856420600400, rel=1e-12)


def test_hex_radii_rejects_outside_cell():
    with pytest.raises(ValueError):
        hex_radii(501.0, 500.0)
    with pytest.raises(ValueError):
        hex_radii(-1.0, 500.0)


@given(st.floats(min_value=1e-3, max_value=499.999))
def test_hex_area_identity(g_b):
    r_cell = 500.0
    r_h1, r_h2 = hex_radii(g_b, r_cell)
    ring = math.pi * (r_cell**2 - g_b**2)
    trapezoids = 1.5 * SQRT3 * (r_h2**2 - r_h1**2)
    assert trapezoids == pytest.approx(ring, rel=1e-9)


def test_layer_count_examples():
    r_e_min, d_min = 50.0, 2.0

    def n_layers(hexes):
        layout = build_layout(hexes, d_min, r_e_min)
        assert len(layout.per_layer) == len(layout.kappa)
        return len(layout.kappa)

    assert n_layers((100.0, 100.0 + d_min)) == 1
    assert n_layers((100.0, 100.0 + d_min + 4 * r_e_min)) == 3
    assert n_layers((100.0, 100.5)) == 0


def test_layer_pairs_degenerate_inner_hexagon():
    assert build_layout((0.0, 1000.0), 0.0, 50.0).per_layer[0] == (0, 1)


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
        hexes = hex_radii(g_b, 500.0)
        got = bs_interference(build_layout(hexes, d_min, r_e_min), p_due, pl)
        want = coordinate_interference(layered_centres(hexes, d_min, r_e_min), p_due, pl)
        assert got == pytest.approx(want, rel=1e-9)


# (radio overrides, d_max_m) -> (n_total, centres beyond r_cell - d_min/2,
# the farthest centre's BS distance in m): the preset and the d_max 55, 40
# and 30 m recipes of the benchmark
CENTRE_CASES = {
    "preset": (({}, 150.0), (27, 3, 502.5)),
    "d_max_55": (({"p_due_mw": 0.05, "p_cue_max_mw": 100.0}, 55.0), (168, 6, 527.1)),
    "d_max_40": (({"p_due_mw": 0.1, "p_cue_max_mw": 200.0}, 40.0), (324, 30, 549.8)),
    "d_max_30": (({"p_due_mw": 0.1, "p_cue_max_mw": 200.0}, 30.0), (480, 15, 520.6)),
}


@pytest.mark.parametrize("case", sorted(CENTRE_CASES))
def test_layered_centres_at_the_solved_radii(case):
    (overrides, d_max), (n_total, n_beyond, farthest) = CENTRE_CASES[case]
    radio = RadioConfig(noise_mode="zero", **overrides)
    cell = CellConfig(d_max_m=d_max)
    gd = guard_distances(radio, cell)
    centres = layered_centres(hex_radii(gd.g_b, cell.r_cell_m), cell.d_min_m, gd.r_e_min)
    layout = packed_layout(gd.g_d, gd.g_b, cell)
    assert len(centres) == layout.n_total == n_total
    gaps = np.hypot(*(centres[:, None, :] - centres[None, :, :]).transpose(2, 0, 1))
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= 2.0 * gd.r_e_min * (1.0 - 1e-9)
    assert coordinate_interference(centres, 1.0, radio.pl_bs) == pytest.approx(
        bs_interference(layout, 1.0, radio.pl_bs), rel=1e-12
    )
    # the area-matched outer hexagon puts some centres beyond the hard-core edge
    rho = np.hypot(centres[:, 0], centres[:, 1])
    assert np.count_nonzero(rho > cell.r_cell_m - cell.d_min_m / 2.0) == n_beyond
    assert rho.max() == pytest.approx(farthest, abs=0.05)


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
    # shuffled, as a bisection visits guard radii out of order
    random.Random(case).shuffle(grid)
    layer_counts = set()
    for g_b in grid:
        layout = packed_layout(g_d, g_b, cell)
        layer_counts.add(len(layout.kappa))
        for p_due in (radio.p_due_mw, 0.37):
            want = one_by_one_interference(layout, p_due, radio.pl_bs)
            assert bs_interference(layout, p_due, radio.pl_bs) == want
            assert 3.0 * p_due * ring_sum(g_d, g_b, cell, radio.pl_bs) == want
    assert len(layer_counts) >= 4  # the grid crosses several layer-count changes


@pytest.mark.parametrize("case", sorted(RING_CASES))
def test_ring_sums_at_the_ends_of_the_guard_range(case):
    overrides, d_max = RING_CASES[case]
    radio = RadioConfig(noise_mode="zero", **overrides)
    cell = CellConfig(d_max_m=d_max)
    g_d, _, _ = solve_gd(radio, cell)
    r_e_min = (g_d + cell.d_min_m) / 2.0
    # near the cell edge the ring holds no layer and sums to zero
    assert packed_layout(g_d, cell.r_cell_m, cell).per_layer == ()
    assert ring_sum(g_d, cell.r_cell_m, cell, radio.pl_bs) == 0.0
    # at g_b = 0 the first layer's excluding count is clamped up from -1
    assert math.floor((cell.d_min_m / 2.0 - r_e_min) / (2.0 * r_e_min)) == -1
    layout = packed_layout(g_d, 0.0, cell)
    assert layout.per_layer[0][0] == 0
    want = one_by_one_interference(layout, 0.37, radio.pl_bs)
    assert 3.0 * 0.37 * ring_sum(g_d, 0.0, cell, radio.pl_bs) == want
    for g_b in (-1e-9, cell.r_cell_m * (1.0 + 1e-12)):
        with pytest.raises(ValueError, match="guard radius"):
            ring_sum(g_d, g_b, cell, radio.pl_bs)


def test_ring_sum_refuses_more_than_max_layers():
    # it raises before any term is computed; each term raises a distance to
    # the path-loss exponent, which this exponent records
    powered = []

    class Exponent(float):
        def __rpow__(self, base):
            powered.append(base)
            return base ** float(self)

    spied = PathLossModel(Exponent(3.76), -15.3)
    plain = PathLossModel(3.76, -15.3)
    preset = CellConfig()
    assert ring_sum(100.0, 200.0, preset, spied) == ring_sum(100.0, 200.0, preset, plain)
    assert powered
    powered.clear()
    cell = CellConfig(r_cell_m=1e4, d_min_m=2.0)
    with pytest.raises(LayoutTooLarge, match="cell.r_cell_m"):
        ring_sum(0.0, 0.0, cell, spied)
    assert powered == []


def test_ring_sum_is_one_by_one_interference_on_drawn_cells():
    """3 p ring_sum equals the one-by-one sum over the packed layout, bit for
    bit, on drawn cells, guard radii, path losses and powers.

    Guard radii come mostly from the solver's range [g_d/2, r_cell], which
    reaches rings of no layer (at r_cell), of one layer and of dozens.
    There the first layer's excluding count is at least 0 before clamping,
    since r_h1 = 2 g_b / sqrt(3) > g_d / 2; it is 0 when the step
    g_d + d_min is long.  The clamp itself needs g_b < sqrt(3) g_d / 4, so
    some radii are drawn below g_d/2.
    """
    layer_counts, first_layers = set(), set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        r_cell=st.floats(50.0, 2000.0),
        d_max_frac=st.floats(0.01, 0.99),
        d_min_frac=st.floats(0.001, 0.99),
        g_d_frac=st.floats(0.0, 1.0),
        below=st.booleans(),
        g_b_frac=st.floats(0.0, 1.0),
        exponent=st.floats(2.0, 6.0),
        intercept_db=st.floats(-60.0, 0.0),
        p_due=st.floats(1e-3, 10.0),
    )
    def check(r_cell, d_max_frac, d_min_frac, g_d_frac, below, g_b_frac, exponent,
              intercept_db, p_due):
        d_max = d_max_frac * r_cell
        cell = CellConfig(r_cell_m=r_cell, d_min_m=d_min_frac * d_max, d_max_m=d_max)
        # at most about 60 layers, and lattice steps of at least r_cell / 50
        g_d = r_cell * (0.02 + 1.98 * g_d_frac)
        lo = g_d / 2.0
        g_b = g_b_frac * lo if below else lo + g_b_frac * (r_cell - lo)
        pl = PathLossModel(exponent, intercept_db)
        layout = packed_layout(g_d, g_b, cell)
        want = one_by_one_interference(layout, p_due, pl)
        assert bs_interference(layout, p_due, pl) == want
        assert 3.0 * p_due * ring_sum(g_d, g_b, cell, pl) == want
        layer_counts.add(len(layout.per_layer))
        if layout.per_layer:
            r_h1, _ = hex_radii(g_b, r_cell)
            first_layers.add((layout.per_layer[0][0] == 0, r_h1 < lo))

    check()
    assert {0, 1} <= layer_counts and max(layer_counts) >= 20
    # a first layer with no excluding disk, without and with the clamp
    assert {(True, False), (True, True)} <= first_layers


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
