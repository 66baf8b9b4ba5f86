"""Solving the three guard radii and watching them respond to power.

The pair guard g_d comes from a fixed point between the worst-case rate
equation and the first-ring neighbour count; the CUE exclusion slope k
scales the CUE's forbidden disk; the BS guard g_b is the smallest radius
keeping the packed interference at the BS under its SIR cap.
"""

import numpy as np

from d2dcap import CellConfig, RadioConfig, guard_distances, packed_layout

cell = CellConfig()
radio = RadioConfig(noise_mode="zero")

gd = guard_distances(radio, cell)
print("Guard radii at the urban defaults (interference-limited)")
print(f"  pair guard        g_d = {gd.g_d:8.2f} m   (first ring holds {gd.n_s} interferers)")
print(f"  CUE slope         k   = {gd.k:8.4f}     (exclusion radius = k * d_cb)")
print(f"  BS guard          g_b = {gd.g_b:8.2f} m")
print(f"  exclusion disks   r_e in [{gd.r_e_min:.2f}, {gd.r_e_max:.2f}] m")
print(f"  deployable ring   [{gd.r_in:.2f}, {gd.r_out:.2f}] m")

layout = packed_layout(gd.g_d, gd.g_b, cell)
print(f"\nHexagonal layering packs {layout.n_total} minimum-size pairs:")
for i, ((n_excl, n_incl), kappa) in enumerate(zip(layout.per_layer, layout.kappa), 1):
    print(f"  layer {i}: base at {kappa:6.1f} m, {n_excl} + {n_incl} disks per third")

print("\nRaising the device power enlarges the BS guard and shrinks the pack:")
print(f"{'P_t,D [mW]':>11} {'g_b [m]':>9} {'pairs':>6}")
for p_due in np.linspace(0.5, 4.0, 8):
    r = RadioConfig(noise_mode="zero", p_due_mw=float(p_due))
    g = guard_distances(r, cell)
    n = packed_layout(g.g_d, g.g_b, cell).n_total
    print(f"{p_due:11.2f} {g.g_b:9.2f} {n:6d}")
