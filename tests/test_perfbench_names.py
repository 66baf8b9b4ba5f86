"""The call sites perfbench traces still exist in d2dcap.

perfbench wraps library functions by attribute name; a rename in `src/`
would otherwise surface only when the benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from d2dcap import mcsim  # noqa: E402
from d2dcap.propagation import CellConfig, RadioConfig  # noqa: E402


def _read(where, name):
    return where[name] if isinstance(where, dict) else getattr(where, name)


def test_traced_names_resolve_and_are_restored():
    # building the targets looks up every traced attribute
    targets = tracing._targets(tracing.SpanRecorder())
    assert {"evaluate_sir", "run_saturation_trial", "run_ppp_trial"} <= {n for _, n, _ in targets}
    originals = [(where, name, _read(where, name)) for where, name, _ in targets]
    rec = tracing.SpanRecorder()
    with tracing.instrument(rec):
        for where, name, original in originals:
            assert _read(where, name) is not original
        pair = np.array([[300.0], [0.0], [50.0], [0.3]])
        mcsim.evaluate_sir(pair, RadioConfig(noise_mode="zero"), CellConfig(), 0.0)
    assert [span.name for span in rec.spans] == ["mcsim.evaluate_sir"]
    for where, name, original in originals:
        assert _read(where, name) is original
