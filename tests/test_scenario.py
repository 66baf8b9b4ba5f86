"""SweepAxis.values in plain floats against np.linspace, bit for bit."""

import struct

import numpy as np
import pytest

from d2dcap.scenario import MAX_SWEEP_STEPS, SweepAxis


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _check(start, stop, steps):
    got = SweepAxis("p_due", start, stop, steps).values()
    assert all(type(v) is float for v in got)
    assert _bits(got) == _bits(np.linspace(start, stop, steps))


def test_values_match_linspace_on_random_triples():
    rng = np.random.default_rng(20140409)
    for _ in range(5_000):
        start, stop = rng.uniform(-1e3, 1e3, 2) * 10.0 ** rng.integers(-6, 7, 2)
        _check(float(start), float(stop), int(rng.integers(1, 400)))


@pytest.mark.parametrize(
    "start, stop, steps",
    [
        (0.0, 500.0, 101),  # the bounds default
        (0.0, 400.0, 5),  # the simulate default
        (0.25, 6.0, 24),  # the sweep default
        (6.0, 0.25, 24),  # a descending p_due range
        (3.7, 0.01, 999),
        (250.0, 250.0, 7),  # start == stop: the zero-step branch
        (-0.0, 0.0, 3),
        (0.0, 5e-324, 9),  # a step that underflows to 0
        (42.0, 42.0, 1),
        (0.3, 17.0, 1),  # one point: numpy's undefined step
        (-0.0, 5.0, 1),
        (0.0, 500.0, MAX_SWEEP_STEPS),
        (0.1, 0.7, MAX_SWEEP_STEPS),
    ],
)
def test_values_match_linspace_on_edge_cases(start, stop, steps):
    _check(start, stop, steps)
