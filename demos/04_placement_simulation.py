"""Monte Carlo placement trials against the analytical bounds.

Random sequential packing with uniformly random link lengths jams the
deployable ring; the measured average throughput should land between the
two analytical bounds (and nearer the lower one, since random packing is
looser than a hexagonal lattice and long links claim big disks).  Also
shows a Poisson node deployment and the SIR audit with role rotation.
"""

from pathlib import Path

import numpy as np

from d2dcap import (
    CellConfig,
    RadioConfig,
    TrialConfig,
    aggregate,
    deployable_area,
    guard_distances,
    run_ppp_trial,
    run_saturation_trial,
    throughput_bounds,
)

cell = CellConfig()
radio = RadioConfig(noise_mode="zero")
gd = guard_distances(radio, cell)
trials = 60

print("Saturation packing vs analytical bounds (uniform link lengths)")
print(f"{'d_cb [m]':>9} {'mean pairs':>11} {'mean T [Mbit/s]':>16} {'T_L':>7} {'T_U':>7}")
curves = []
for point, d_cb in enumerate((0.0, 125.0, 250.0, 375.0, 500.0)):
    cfg = TrialConfig(d_cb=d_cb, seed=2718)
    results = [run_saturation_trial(cfg, radio, cell, gd, point * trials + t) for t in range(trials)]
    stats = aggregate(results)
    tb = throughput_bounds(deployable_area(d_cb, gd, cell), gd, radio.bitrate_bps)
    curves.append((d_cb, stats["throughput_bps"].mean, tb.t_lower_bps, tb.t_upper_bps))
    print(
        f"{d_cb:9.0f} {stats['n_pairs'].mean:11.2f} {stats['throughput_bps'].mean / 1e6:16.2f}"
        f" {tb.t_lower_bps / 1e6:7.2f} {tb.t_upper_bps / 1e6:7.2f}"
    )

print("\nPoisson deployments fill the cell as the node density grows")
print(f"{'density [/km^2]':>16} {'mean pairs':>11}")
for lam in (4e-5, 8e-5, 12e-5):
    cfg = TrialConfig(mode="ppp", density=lam, d_cb=250.0, seed=31415)
    results = [run_ppp_trial(cfg, radio, cell, gd, t) for t in range(trials)]
    print(f"{lam * 1e6:16.0f} {aggregate(results)['n_pairs'].mean:11.2f}")

print("\nSIR audit at d_cb = 250 m (design thresholds are worst-case)")
cfg = TrialConfig(d_cb=250.0, seed=99)
results = [run_saturation_trial(cfg, radio, cell, gd, t) for t in range(trials)]
ok = np.mean([r.sir_ok for r in results])
rot = np.mean([r.rotation_ok for r in results])
print(f"  nominal roles meet both thresholds in {ok:.0%} of trials")
print(f"  swapped roles meet both thresholds in {rot:.0%} of trials")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    d, mean, tl, tu = np.array(curves).T
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.fill_between(d, tl / 1e6, tu / 1e6, alpha=0.2, label="analytical bounds")
    ax.plot(d, mean / 1e6, "o-", color="C3", label="simulated average")
    ax.set_xlabel("CUE distance from the BS [m]")
    ax.set_ylabel("aggregate D2D throughput [Mbit/s]")
    ax.legend()
    fig.tight_layout()
    out = Path(__file__).with_suffix(".png")
    fig.savefig(out, dpi=120)
    print(f"\nplot saved to {out}")
except ImportError:
    print("\nmatplotlib not available, skipping the plot")
