"""Power angular spectrum of one realization.

Antenna A at both ends, the transmit beam pointed at the receiver (180 deg;
in the geometry's frame a departure at 0 heads away from the receiver).
With the receiver looking at the transmitter the spectrum is a narrow lump;
removing the receive pattern (omni) exposes the full angular field, which is
far wider. The spectrum CSV written here is plot-ready for any tool.
"""

import numpy as np

from multiell import angular_spread, estimate_pas, run_realization
from multiell.presets import scenario

for rx, label in (("same", "antenna A receiver at 0 deg"), ("omni", "omni receiver")):
    cfg = scenario("A", rx, alpha_t_deg=180.0, alpha_r_deg=0.0,
                   paths_per_cluster=20_000, seed=11)
    paths = run_realization(cfg)
    spectrum = estimate_pas(paths, bin_width_deg=2.0)
    out = f"demo_pas_{rx}.csv"
    np.savetxt(out, np.column_stack([spectrum.bin_centers_deg, spectrum.density_per_deg]),
               delimiter=",", header="angle_deg,density_per_deg", comments="")
    print(f"\n{label}: rms angle spread {angular_spread(paths):.2f} deg -> {out}")

    density = spectrum.density_per_deg
    step = 6  # 12 degree rows for the console sketch
    for k in range(0, density.size, step):
        row = density[k:k + step].mean()
        angle = spectrum.bin_centers_deg[k:k + step].mean()
        print(f"  {angle:+7.0f} deg  {'#' * int(round(row * 1200))}")
