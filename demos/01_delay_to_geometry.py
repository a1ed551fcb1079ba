"""From delays to geometry.

Each tap of the bundled delay profile fixes one confocal ellipse around the
200 m link. Short excess delays hug the focal segment (eccentricity near 1)
and squeeze every arrival toward the transmitter direction; long delays give
rounder ellipses that pass departure angles through almost unchanged.
"""

import numpy as np

from multiell import aoa_from_aod, eccentricity_from_delay, scale_pdp, builtin_nlos_profile
from multiell.geometry import DEGENERATE_DELAY_S, SPEED_OF_LIGHT_M_S
from multiell.presets import DS_BY_BAND, TXRX_DISTANCE_M

profile = builtin_nlos_profile()

for band in ("60GHz", "6GHz"):
    scaled = scale_pdp(profile, DS_BY_BAND[band])
    print(f"\n=== {band}: delay spread {DS_BY_BAND[band] * 1e9:.0f} ns, "
          f"distance {TXRX_DISTANCE_M:.0f} m ===")
    print(f"{'tap':>4} {'delay [ns]':>11} {'power':>7} {'ecc':>7} {'a [m]':>8} "
          f"{'arrival of a 10 deg departure':>30}")
    taps = zip(scaled.excess_delays_s.tolist(), scaled.powers_lin.tolist())
    for i, (delay, power) in enumerate(taps, start=1):
        if delay <= DEGENERATE_DELAY_S:
            print(f"{i:>4} {delay * 1e9:>11.1f} {power:>7.3f} "
                  f"{'-':>7} {'-':>8}   degenerate: routed to local scattering")
            continue
        ecc = eccentricity_from_delay(delay, TXRX_DISTANCE_M)
        semi_major = (TXRX_DISTANCE_M + SPEED_OF_LIGHT_M_S * delay) / 2.0  # half the path
        arrived = aoa_from_aod(10.0, ecc)
        print(f"{i:>4} {delay * 1e9:>11.1f} {power:>7.3f} {ecc:>7.4f} "
              f"{semi_major:>8.1f} {arrived:>26.3f} deg")

print("\nThe same departure fan, mapped by three eccentricities:")
fan = np.array([0.0, 30.0, 90.0, 150.0, 180.0])
for e in (0.2, 0.6476, 0.95):
    mapped = aoa_from_aod(fan, e)
    row = "  ".join(f"{a:6.1f}->{b:7.2f}" for a, b in zip(fan, mapped))
    print(f"  e={e:6.4f}: {row}")
