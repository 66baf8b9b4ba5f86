"""Throughput analysis for D2D pairs reusing cellular uplink spectrum.

The library solves the interference guard radii that let many
device-to-device pairs transmit concurrently under one in-band uplink
user, packs their exclusion disks to count how many fit, bounds the
aggregate throughput as a function of the uplink user's position, and
cross-checks everything with a Monte Carlo placement simulator.
"""

# propagation comes first: it holds the package's first numpy import, and
# numpy imports faster here than nested under bounds -> guard -> hexpack
# (a fresh `import d2dcap.cli` took 12% longer that way, with or without
# cached bytecode: medians of 15 interleaved runs on a 2-vCPU host).
from .propagation import (
    CellConfig,
    PathLossModel,
    RadioConfig,
    cue_rx_power,
    cue_tx_power,
    db_to_linear,
    linear_to_db,
    noise_power,
    path_loss,
    shannon_sir_threshold,
)
from .bounds import (
    DeployableArea,
    ThroughputBounds,
    deployable_area,
    k_thresholds,
    packing_upper_bound,
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
    HexApprox,
    PackingLayout,
    bs_interference,
    build_layout,
    disk_radii,
    first_layer_neighbors,
    hex_radii,
    packed_layout,
)
from .mcsim import (
    TrialConfig,
    TrialResult,
    aggregate,
    evaluate_sir,
    run_ppp_trial,
    run_saturation_trial,
    run_trial,
)
from .scenario import Scenario, ScenarioError, SweepAxis, load_scenario

__version__ = "0.1.0"
