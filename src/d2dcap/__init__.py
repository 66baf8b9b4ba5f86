"""Throughput analysis for D2D pairs reusing cellular uplink spectrum.

The library solves the interference guard radii that let many
device-to-device pairs transmit concurrently under one in-band uplink
user, packs their exclusion disks to count how many fit, bounds the
aggregate throughput as a function of the uplink user's position, and
cross-checks everything with a Monte Carlo placement simulator.
"""

import importlib

from .propagation import (
    CellConfig,
    PathLossModel,
    RadioConfig,
    cue_rx_power,
    cue_tx_power,
    db_to_linear,
    noise_power,
    path_loss,
    shannon_sir_threshold,
)
from .bounds import (
    DeployableArea,
    ThroughputBounds,
    deployable_area,
    k_thresholds,
    pair_capacity,
    ring_area,
    throughput_bounds,
)
from .geometry import arc_length, chord_abscissa, intersection_area, segment_area
from .guard import (
    GuardDistances,
    Infeasible,
    NoiseLimited,
    NonConvergent,
    compute_gc,
    compute_k,
    guard_distances,
    solve_gb,
    solve_gd,
)
from .hexpack import (
    PackingLayout,
    bs_interference,
    build_layout,
    disk_radii,
    first_layer_neighbors,
    hex_radii,
    packed_layout,
)
from .scenario import Scenario, ScenarioError, SweepAxis, TrialConfig, load_scenario

__version__ = "0.1.0"

# The simulator needs numpy and the analytic chain does not, so its names
# load on first use.  import_module, unlike `from . import mcsim`, does not
# look `mcsim` up through this function first.
_MCSIM_NAMES = frozenset(
    ("TrialResult", "aggregate", "evaluate_sir", "run_ppp_trial", "run_saturation_trial",
     "run_trial")
)


def __getattr__(name: str):
    if name in _MCSIM_NAMES:
        return getattr(importlib.import_module(".mcsim", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
