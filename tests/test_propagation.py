import math

import pytest
from hypothesis import given, strategies as st

from d2dcap.propagation import (
    CellConfig,
    PathLossModel,
    RadioConfig,
    cue_tx_power,
    db_to_linear,
    linear_to_db,
    noise_power,
    path_loss,
    shannon_sir_threshold,
)


def test_db_identity_and_decade():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
    assert db_to_linear(5000.0) == math.inf


def test_dbm_to_mw_pinned():
    # 10**(23/10), high-precision reference
    assert db_to_linear(23.0) == pytest.approx(199.5262314968880, rel=1e-12)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


@given(st.floats(min_value=-200.0, max_value=50.0))
def test_db_round_trip(x_db):
    assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, rel=1e-12, abs=1e-12)


def test_default_models_match_reference_points(radio):
    # BS link: -128.1 dB at 1 km; device link: -38 dB at 1 m, -75.6 dB at 10 m
    assert path_loss(radio.pl_bs, 1000.0) == pytest.approx(db_to_linear(-128.1), rel=1e-12)
    assert path_loss(radio.pl_due, 1.0) == pytest.approx(db_to_linear(-38.0), rel=1e-12)
    assert path_loss(radio.pl_due, 10.0) == pytest.approx(2.754228703338166e-08, rel=1e-12)
    assert linear_to_db(path_loss(radio.pl_due, 10.0)) == pytest.approx(-75.6, rel=1e-12)


def test_path_loss_rejects_nonpositive_distance(radio):
    with pytest.raises(ValueError):
        path_loss(radio.pl_bs, 0.0)
    with pytest.raises(ValueError):
        path_loss(radio.pl_bs, -5.0)


@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
)
def test_path_loss_log_log_linear(d1, d2):
    model = PathLossModel(exponent=3.76, intercept_db=-38.0)
    lhs = math.log10(model.gain(d2)) - math.log10(model.gain(d1))
    rhs = -model.exponent * (math.log10(d2) - math.log10(d1))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_model_invariants():
    with pytest.raises(ValueError):
        PathLossModel(exponent=0.0, intercept_db=-38.0)
    model = PathLossModel.from_db_at(1000.0, -128.1, 3.76)
    assert model.intercept_db == pytest.approx(-15.3, rel=1e-12)


def test_cue_power_boundary_and_half(radio, cell):
    assert cue_tx_power(radio, cell, cell.r_cell_m) == pytest.approx(
        radio.p_cue_max_mw, rel=1e-12
    )
    half = cue_tx_power(radio, cell, cell.r_cell_m / 2.0)
    assert half == pytest.approx(radio.p_cue_max_mw * 2.0 ** -3.76, rel=1e-12)


def test_cue_power_pinned(radio, cell):
    # direct evaluation at d_cb = 250 m with the default models
    assert cue_tx_power(radio, cell, 250.0) == pytest.approx(14.76240826786913, rel=1e-12)


def test_cue_power_range(radio, cell):
    with pytest.raises(ValueError):
        cue_tx_power(radio, cell, 0.0)
    with pytest.raises(ValueError):
        cue_tx_power(radio, cell, cell.r_cell_m + 1.0)


@given(st.floats(min_value=1e-3, max_value=500.0))
def test_power_control_invariant(d_cb):
    radio = RadioConfig(noise_mode="zero")
    cell = CellConfig()
    received = cue_tx_power(radio, cell, d_cb) * path_loss(radio.pl_bs, d_cb)
    target = radio.p_cue_max_mw * path_loss(radio.pl_bs, cell.r_cell_m)
    assert received == pytest.approx(target, rel=1e-9)


def test_noise_modes():
    per_hz = RadioConfig()
    assert per_hz.noise_mode == "per-hz"
    assert noise_power(per_hz) == pytest.approx(1.990535852767486e-11, rel=1e-12)
    assert noise_power(RadioConfig(noise_mode="zero")) == 0.0
    assert noise_power(RadioConfig(noise_mode="total")) == pytest.approx(
        10.0 ** -17.4, rel=1e-12
    )
    with pytest.raises(ValueError):
        RadioConfig(noise_mode="bogus")


def test_sir_defaults_are_shannon_thresholds():
    cfg = RadioConfig()
    expected = shannon_sir_threshold(cfg.bitrate_bps, cfg.bandwidth_hz)
    assert cfg.sir_due == expected == cfg.sir_bs
    assert expected == pytest.approx(2.0 ** 0.4 - 1.0, rel=1e-15)
    override = RadioConfig(sir_due=1.5)
    assert override.sir_due == 1.5
    assert override.sir_bs == expected


def test_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(bandwidth_hz=0.0)
    for intercept_db in (5000.0, -5000.0):  # linear gain overflows or underflows
        with pytest.raises(ValueError, match="intercept_db"):
            PathLossModel(exponent=3.76, intercept_db=intercept_db)
    for mode in ("per-hz", "total"):
        with pytest.raises(ValueError, match="radio.noise_density_dbm_hz"):
            RadioConfig(noise_mode=mode, noise_density_dbm_hz=5000.0)
    RadioConfig(noise_mode="zero", noise_density_dbm_hz=5000.0)  # noise unused
    with pytest.raises(ValueError):
        RadioConfig(sir_due=-1.0)
    with pytest.raises(ValueError):
        CellConfig(d_min_m=200.0, d_max_m=150.0)
    with pytest.raises(ValueError):
        CellConfig(r_cell_m=100.0)
