import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from d2dcap.propagation import (
    CellConfig,
    PathLossModel,
    RadioConfig,
    cue_tx_power,
    db_to_linear,
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


@given(st.floats(min_value=-200.0, max_value=50.0))
def test_db_round_trip(x_db):
    assert 10 * math.log10(db_to_linear(x_db)) == pytest.approx(x_db, rel=1e-12, abs=1e-12)


def test_default_models_match_reference_points(radio):
    # BS link: -128.1 dB at 1 km; device link: -38 dB at 1 m, -75.6 dB at 10 m
    assert path_loss(radio.pl_bs, 1000.0) == pytest.approx(db_to_linear(-128.1), rel=1e-12)
    assert path_loss(radio.pl_due, 1.0) == pytest.approx(db_to_linear(-38.0), rel=1e-12)
    assert path_loss(radio.pl_due, 10.0) == pytest.approx(2.754228703338166e-08, rel=1e-12)
    assert 10 * math.log10(path_loss(radio.pl_due, 10.0)) == pytest.approx(-75.6, rel=1e-12)


def test_path_loss_rejects_nonpositive_distance(radio):
    bad = [0.0, -5.0, 0, np.float64(0.0), np.float32(-1.0), np.array([3.0, 0.0, 7.0]), np.array(-2.0)]
    for d in bad:
        with pytest.raises(ValueError):
            path_loss(radio.pl_bs, d)


def test_path_loss_keeps_numpy_forms_and_passes_nan(radio):
    d = np.array([1.0, 10.0, 1000.0])
    gains = path_loss(radio.pl_due, d)
    assert isinstance(gains, np.ndarray)
    expected = [path_loss(radio.pl_due, float(x)) for x in d]
    assert gains.tolist() == pytest.approx(expected, rel=1e-12)
    assert isinstance(path_loss(radio.pl_due, np.float64(10.0)), np.float64)
    assert math.isnan(path_loss(radio.pl_due, math.nan))
    assert np.isnan(path_loss(radio.pl_due, np.array([5.0, np.nan]))[1])


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
    # the preset BS link: -128.1 dB at 1 km with exponent 3.76 is -15.3 dB at 1 m
    model = RadioConfig().pl_bs
    assert model.exponent == 3.76
    assert -128.1 + 10.0 * model.exponent * math.log10(1000.0) == pytest.approx(
        model.intercept_db, rel=1e-12
    )


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
    # gains above 1 at 1 m, and one that underflows to 0
    for intercept_db in (0.1, 5000.0, -5000.0):
        with pytest.raises(ValueError, match="intercept_db"):
            PathLossModel(exponent=3.76, intercept_db=intercept_db)
    assert PathLossModel(exponent=3.76, intercept_db=0.0).beta == 1.0
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
