"""Confocal-ellipse link geometry.

Each time-cluster of a power delay profile maps to one ellipse whose foci
hold the transmitter and receiver: every point on the ellipse gives the same
total Tx-scatterer-Rx path length, fixed by the cluster's excess delay.

Coordinate frame: Tx focus at (-D/2, 0), Rx focus at (+D/2, 0), with D the
Tx-Rx distance. Angles are in degrees on (-180, 180].

Angle references for the departure/arrival map: 0 degrees lies along the
focal axis at both ends, oriented so that a departure at 0 leaves the
transmitter heading away from the receiver (the bounce lands behind the
transmitter) and an arrival at 0 reaches the receiver from the direction of
the transmitter. Both angles are positive on the same side of the axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEllipse, InvalidGeometry

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Below this excess delay the ellipse collapses onto the focal segment
# (eccentricity -> 1); such clusters belong to the local-scattering component.
DEGENERATE_DELAY_S = 1e-10


def wrap_in_place(angles: np.ndarray) -> np.ndarray:
    """Wrap a C-contiguous float array into (-180, 180] in place and return it.

    Values already inside the interval are not touched, so angles far below
    the 180-degree rounding scale keep full precision. Only the others are
    read and written, as ``(a + 180) % 360 - 180`` with -180 sent to 180.
    Its callers are the departure wrap of the angle map and the wrappers
    (:func:`wrap_degrees`, ``sample_aod``); the receive gain takes the
    shorter arc without it (see ``power_gain``).
    """
    if not angles.flags.c_contiguous:
        raise ValueError("wrap_in_place needs a C-contiguous array")
    flat = angles.reshape(-1)  # a view, since the array is contiguous
    # Integer indices gather and scatter several times faster than the mask.
    out_of_range = np.flatnonzero((flat <= -180.0) | (flat > 180.0))
    if out_of_range.size:
        t = flat[out_of_range] + 180.0
        t %= 360.0
        t -= 180.0
        t[t == -180.0] = 180.0
        flat[out_of_range] = t
    return angles


def wrap_degrees(angle_deg):
    """Wrap angles into (-180, 180], as :func:`wrap_in_place` does, into a new
    array. Accepts scalars or arrays; a scalar or 0-d input gives a float."""
    a = wrap_in_place(np.array(angle_deg, dtype=float))
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class Ellipse:
    """One confocal ellipse (one time-cluster).

    Attributes:
        semi_major_m: semi-major axis a, in meters.
        focal_half_distance_m: half the Tx-Rx distance (D/2), in meters.
        eccentricity: D / (2a), strictly inside (0, 1).
    """

    semi_major_m: float
    focal_half_distance_m: float
    eccentricity: float


def ellipse_from_delay(excess_delay_s: float, txrx_distance_m: float) -> Ellipse:
    """Build the ellipse whose total reflection path exceeds the direct path
    by ``excess_delay_s``.

    The total path length is D + c * excess_delay, so the semi-major axis is
    half of that and the eccentricity is D divided by the total path.

    Raises:
        InvalidGeometry: if the Tx-Rx distance is not positive, or so long
            against the path excess that the eccentricity rounds to 1.
        DegenerateEllipse: if the excess delay is at or below the degenerate
            threshold; the caller must route that cluster to local scattering.
    """
    if txrx_distance_m <= 0.0:
        raise InvalidGeometry(f"txrx_distance_m must be > 0, got {txrx_distance_m}")
    if excess_delay_s <= DEGENERATE_DELAY_S:
        raise DegenerateEllipse(
            f"excess delay {excess_delay_s} s is at or below {DEGENERATE_DELAY_S} s")
    total_path_m = txrx_distance_m + SPEED_OF_LIGHT_M_S * excess_delay_s
    eccentricity = txrx_distance_m / total_path_m
    if eccentricity >= 1.0:
        raise InvalidGeometry(f"txrx_distance_m {txrx_distance_m} is too long for an excess delay"
                              f" of {excess_delay_s} s: the eccentricity rounds to 1")
    return Ellipse(
        semi_major_m=total_path_m / 2.0,
        focal_half_distance_m=txrx_distance_m / 2.0,
        eccentricity=eccentricity,
    )


def aoa_from_aod(phi_t_deg, eccentricity):
    """Arrival angle at the receiver for a departure angle on one ellipse.

    Implemented as the half-angle form tan(aoa/2) = r * tan(aod/2) with
    r = (1 - e) / (1 + e), which is algebraically identical to

        aoa = sgn(aod) * arccos[(2e + (1+e^2) cos aod) / (1 + e^2 + 2e cos aod)]

    but numerically stable near 0 and 180 degrees. e = 0 reduces to the
    identity; e -> 1 compresses every arrival toward the transmitter
    direction. |aod| = 180 maps to itself. Accepts scalar or array
    ``phi_t_deg``.

    ``eccentricity`` is a scalar, or an array that broadcasts against the
    angles without enlarging them: shape (rows, 1) gives each row of a 2-D
    angle array its own ellipse.
    """
    phi = np.asarray(phi_t_deg, dtype=float)
    out = _aoa_in_place(np.array(phi, ndmin=1), eccentricity)
    return float(out[0]) if phi.ndim == 0 else out


def _aoa_in_place(angles: np.ndarray, eccentricity) -> np.ndarray:
    # aoa_from_aod on a C-contiguous float array, overwriting and returning it.
    e = np.asarray(eccentricity, dtype=float)
    if not np.all((e >= 0.0) & (e < 1.0)):
        raise InvalidGeometry(f"eccentricity must be in [0, 1), got {eccentricity}")
    ratio = (1.0 - e) / (1.0 + e)
    out = wrap_in_place(angles)
    # Every step below is odd bit for bit (numpy's tan and arctan included),
    # so a signed angle maps to sgn(aod) times the map of |aod|. Adding 0
    # first turns -0.0 into +0.0, which keeps sgn(0) = +1.
    out += 0.0
    back = out == 180.0
    out /= 2.0
    out *= np.pi / 180.0  # np.radians, bit for bit
    np.tan(out, out=out)
    out *= ratio
    np.arctan(out, out=out)
    out *= 180.0 / np.pi  # np.degrees, bit for bit
    out *= 2.0
    out[back] = 180.0
    return out
