"""Antenna patterns and departure-angle sampling.

The four bundled horn presets use a Gaussian power shape whose deviation
comes straight from the half-power beamwidth. Sampled departure angles
follow that same shape, so a histogram of draws reproduces the pattern.
"""

import numpy as np

from multiell import draw_aod_offsets, power_gain, sigma_from_hpbw, wrap_degrees
from multiell.presets import ANTENNAS, antenna_pattern

rng = np.random.default_rng(42)

print("preset   gain    HPBW   sigma   gain at 5/10/20 deg off boresight")
for name, spec in ANTENNAS.items():
    pattern = antenna_pattern(name)
    gains = power_gain(pattern, np.array([5.0, 10.0, 20.0]))
    print(f"  {name}    {spec.gain_dbi:4.0f} dBi {spec.hpbw_deg:4.0f} deg "
          f"{sigma_from_hpbw(spec.hpbw_deg):6.3f}   "
          + "  ".join(f"{g:.3f}" for g in gains))

print("\nSampled departure density vs the pattern shape (antenna A, 200k draws):")
pattern = antenna_pattern("A")
offsets = np.empty(200_000)
draw_aod_offsets(pattern, rng, offsets)  # relative to the boresight
draws = wrap_degrees(offsets + pattern.boresight_deg)
edges = np.arange(-30.0, 32.0, 2.0)
hist, _ = np.histogram(draws, bins=edges, density=True)
shape = power_gain(pattern, edges[:-1] + 1.0)
shape /= shape.sum() * 2.0
for lo, h, s in zip(edges[:-1], hist, shape):
    bar = "#" * int(round(300 * h))
    print(f"  {lo:+6.0f}..{lo + 2:+4.0f}  sampled {h:.4f}  shape {s:.4f}  {bar}")
