"""Deployable area and throughput bounds versus the CUE's position.

As the in-band uplink user moves outward, its exclusion disk grows and
sweeps across the deployable ring, passing through the piecewise cases
(inside the central hole, crossing it, interior, crossing the outer
boundary, or both at once).  The upper/lower throughput bounds follow the
area.  Saves a plot next to this script when matplotlib is available.
"""

from pathlib import Path

import numpy as np

from d2dcap import (
    CellConfig,
    RadioConfig,
    deployable_area,
    guard_distances,
    throughput_bounds,
)

cell = CellConfig()
radio = RadioConfig(noise_mode="zero")
gd = guard_distances(radio, cell)

print(f"Flat span: the exclusion disk hides inside the BS guard for d_cb <= "
      f"{gd.g_b / (1 + gd.k):.1f} m\n")

grid = np.linspace(0.0, cell.r_cell_m, 26)
rows = []
print(f"{'d_cb [m]':>9} {'case':>12} {'area [km^2]':>12} {'T_U [Mbit/s]':>13} {'T_L [Mbit/s]':>13}")
for d_cb in grid:
    area = deployable_area(float(d_cb), gd, cell)
    tb = throughput_bounds(area.area_m2, gd, radio.bitrate_bps)
    rows.append((d_cb, area.area_m2, tb.t_upper_bps, tb.t_lower_bps))
    print(
        f"{d_cb:9.0f} {area.case_label:>12} {area.area_m2 / 1e6:12.4f}"
        f" {tb.t_upper_bps / 1e6:13.2f} {tb.t_lower_bps / 1e6:13.2f}"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    d, _, tu, tl = np.array(rows).T
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(d, tu / 1e6, "o-", label="upper bound (all links shortest)")
    ax.plot(d, tl / 1e6, "s-", label="lower bound (all links longest)")
    ax.axvline(gd.g_b / (1 + gd.k), ls=":", color="gray", label="flat-span end")
    ax.set_xlabel("CUE distance from the BS [m]")
    ax.set_ylabel("aggregate D2D throughput [Mbit/s]")
    ax.legend()
    fig.tight_layout()
    out = Path(__file__).with_suffix(".png")
    fig.savefig(out, dpi=120)
    print(f"\nplot saved to {out}")
except ImportError:
    print("\nmatplotlib not available, skipping the plot")
