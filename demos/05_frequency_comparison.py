"""6 vs 60 GHz angular dispersion.

The carrier band enters only through the delay spread (363 ns at 6 GHz,
228 ns at 60 GHz): longer delay spread means rounder ellipses and wider
arrival fans. With an omnidirectional receiver every matched 6 GHz pairing
comes out above its 60 GHz counterpart; once a directional receiver filters
the field, its beamwidth dominates and the frequency effect all but
disappears.
"""

from multiell.presets import ANTENNAS, scenario
from multiell.stats import SweepAxis, sweep_as


def mean_spread(name, rx, alpha_t, alpha_r=0.0, trials=6):
    cfg = scenario(name, rx, alpha_t_deg=alpha_t, alpha_r_deg=alpha_r,
                   seed=31, paths_per_cluster=1000)
    axis = SweepAxis.RX_ORIENTATION
    return sweep_as(cfg, axis, [alpha_r], trials=trials).mean_as_deg[0]


print("scenario                              60GHz(A)  60GHz(B)   6GHz(C)   6GHz(D)")
for label, kwargs in (
    ("both at 0 deg (tx beam away from rx)", dict(rx="same", alpha_t=0.0)),
    ("tx beam on rx, rx facing (a_R = 0)", dict(rx="same", alpha_t=180.0)),
    ("tx beam on rx, rx at 90 deg", dict(rx="same", alpha_t=180.0, alpha_r=90.0)),
    ("tx beam on rx, omni rx", dict(rx="omni", alpha_t=180.0)),
):
    values = [mean_spread(n, **kwargs) for n in ANTENNAS]
    print(f"{label:<38}" + "".join(f"{v:>10.2f}" for v in values))

print("\nHPBW for reference: " +
      ", ".join(f"{n}={ANTENNAS[n].hpbw_deg:.0f} deg" for n in ANTENNAS))
