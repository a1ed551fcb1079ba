"""Angle spread versus receiver orientation.

Reproduces the sweep of antenna A with the transmit beam pointed at the
receiver (180 deg; in the geometry's frame a departure at 0 heads away from
the receiver): a minimum with the receiver facing the transmitter, a bump
where the beam straddles the edge of the local-scattering lump, and a
plateau near half the beamwidth once the beam only sees the broad geometric
field. Past ~150 deg the linear second moment blows up as the filtered
spectrum wraps at +-180.
"""

import numpy as np

from multiell.presets import scenario
from multiell.stats import SweepAxis, sweep_as

cfg = scenario("A", "same", alpha_t_deg=180.0, seed=5, paths_per_cluster=1000)
angles = [float(a) for a in range(0, 185, 5)]
result = sweep_as(cfg, SweepAxis.RX_ORIENTATION, angles, trials=4)

rows = np.column_stack([result.angles_deg, result.mean_as_deg, result.std_as_deg])
np.savetxt("demo_sweep_rx_A.csv", rows, delimiter=",",
           header="angle,mean_as_deg,std_as_deg", comments="")
print("wrote demo_sweep_rx_A.csv")
print(f"{'rx angle':>9} {'mean AS':>8} {'std':>6}")
for angle, mean, std in rows:
    bar = "#" * min(int(round(mean * 2)), 80)
    print(f"{angle:>9.0f} {mean:>8.2f} {std:>6.2f}  {bar}")
