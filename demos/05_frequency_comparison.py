"""6 vs 60 GHz angular dispersion, as the bundled presets pair them.

Each preset band sets two inputs at once: the delay spread (363 ns at 6 GHz,
228 ns at 60 GHz; a longer one means rounder ellipses and wider arrival
fans) and the antenna (A and B at 60 GHz, C and D at 6 GHz, whose
beamwidths are printed last). So every column mixes beam width with delay
spread, and a gap between a 6 GHz and a 60 GHz column measures the two
together, not the band's delay spread alone. With an omnidirectional
receiver each 6 GHz antenna reads above its 60 GHz counterpart (C above A,
D above B); with the antenna at both ends the 6 GHz columns read below,
where their beams are also the narrower ones. Telling the two causes apart
takes configs that differ in one of them only.
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
