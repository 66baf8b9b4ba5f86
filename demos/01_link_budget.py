"""Link-budget basics: path loss, uplink power control, noise conventions.

Walks through the radio-layer primitives that everything else builds on:
the two power-law path-loss models, the power-controlled CUE transmit
power, and the three ways the noise figure can be interpreted.
"""

import math

import numpy as np

from d2dcap import (
    CellConfig,
    RadioConfig,
    cue_tx_power,
    noise_power,
    path_loss,
)

radio = RadioConfig(noise_mode="zero")
cell = CellConfig()

print("Path-loss models (dB gain)")
print(f"{'distance':>10} {'BS link':>10} {'device link':>12}")
for d in (1.0, 10.0, 100.0, 500.0, 1000.0):
    print(
        f"{d:10.0f} {10 * math.log10(path_loss(radio.pl_bs, d)):10.1f}"
        f" {10 * math.log10(path_loss(radio.pl_due, d)):12.1f}"
    )

print("\nUplink power control (received power at the BS is held constant)")
print(f"{'d_cb [m]':>10} {'P_t,C [mW]':>12} {'received [dBm]':>15}")
for d_cb in (50.0, 125.0, 250.0, 375.0, 500.0):
    p = cue_tx_power(radio, cell, d_cb)
    rx = p * path_loss(radio.pl_bs, d_cb)
    print(f"{d_cb:10.0f} {p:12.4f} {10 * math.log10(rx):15.2f}")

print("\nNoise conventions")
for mode in ("per-hz", "total", "zero"):
    cfg = RadioConfig(noise_mode=mode)
    n = noise_power(cfg)
    level = f"{10 * math.log10(n):.1f} dBm" if n > 0 else "off"
    print(f"  {mode:8s}: {n:.3e} mW ({level})")

print(
    "\nNote: with the urban defaults the per-hz noise floor exceeds the"
    "\npower budget of a 2 Mbit/s device link at 150 m, so the guard-"
    "\ndistance solver refuses that combination; the interference-limited"
    "\n'zero' mode is the working configuration for the standard sweeps."
)
