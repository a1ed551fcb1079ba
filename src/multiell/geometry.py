"""Confocal-ellipse link geometry.

Each time-cluster of a power delay profile maps to one ellipse whose foci
hold the transmitter and receiver: every point on the ellipse gives the same
total Tx-scatterer-Rx path length, D + c * delay for the cluster's excess
delay. Only the eccentricity, D over that path length, enters the
single-bounce angle map, so :func:`eccentricity_from_delay` is the whole
step from delays to geometry and :func:`aoa_from_aod` maps departures to
arrivals with it.

Coordinate frame: Tx focus at (-D/2, 0), Rx focus at (+D/2, 0), with D the
Tx-Rx distance. Angles are in degrees on (-180, 180].

Angle references for the departure/arrival map: 0 degrees lies along the
focal axis at both ends, oriented so that a departure at 0 leaves the
transmitter heading away from the receiver (the bounce lands behind the
transmitter) and an arrival at 0 reaches the receiver from the direction of
the transmitter. Both angles are positive on the same side of the axis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidGeometry

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Below this excess delay the ellipse collapses onto the focal segment
# (eccentricity -> 1); such clusters belong to the local-scattering component.
DEGENERATE_DELAY_S = 1e-10


def wrap_in_place(angles: np.ndarray) -> np.ndarray:
    """Wrap a C-contiguous float array into (-180, 180] in place and return it.

    Values already inside the interval are not touched, so angles far below
    the 180-degree rounding scale keep full precision. Only the others are
    read and written, as ``(a + 180) % 360 - 180`` with -180 sent to 180.
    Its callers are the departure wrap of the angle map, which skips it
    when the departures' bounds show that none leaves the interval, and
    :func:`wrap_degrees`; the receive gain takes the shorter arc without it
    (see ``power_gain``).
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


def _require_finite_positive(name: str, value, error: type[Exception]) -> None:
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range, too long to print
        raise error(f"{name} must be finite and > 0, got an int beyond the float range") from None
    if not (number > 0.0 and math.isfinite(number)):
        raise error(f"{name} must be finite and > 0, got {number}")


def eccentricity_from_delay(excess_delays_s, txrx_distance_m: float):
    """Eccentricity of the ellipse of each excess delay: the distance D over
    the total reflection path D + c * delay. Accepts a scalar or an array
    (empty included) and returns the same shape; a scalar gives a float.

    Raises ``InvalidGeometry`` for a distance that is not finite and
    positive, for a delay that is not above ``DEGENERATE_DELAY_S`` (NaN
    included; such a tap belongs to local scattering), and for a distance
    so long against a delay that the eccentricity rounds to 1. A delay so
    long that c * delay overflows gives the limit, e = 0.
    """
    _require_finite_positive("txrx_distance_m", txrx_distance_m, InvalidGeometry)
    delays = np.asarray(excess_delays_s, dtype=float)
    degenerate = ~(delays > DEGENERATE_DELAY_S)
    if degenerate.any():
        raise InvalidGeometry(f"excess delay {delays[degenerate].flat[0]} s is not above"
                              f" {DEGENERATE_DELAY_S} s")
    with np.errstate(over="ignore"):  # D / inf is the limit 0
        eccentricity = txrx_distance_m / (txrx_distance_m + SPEED_OF_LIGHT_M_S * delays)
    rounds_to_one = eccentricity >= 1.0
    if rounds_to_one.any():
        # As a float: an int distance would print every digit.
        raise InvalidGeometry(f"txrx_distance_m {float(txrx_distance_m)} is too long for an"
                              f" excess delay of {delays[rounds_to_one].flat[0]} s: the"
                              " eccentricity rounds to 1")
    return float(eccentricity) if delays.ndim == 0 else eccentricity


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
    # A C-ordered copy with -0.0 turned into +0.0, as _aoa_in_place takes it.
    out = _aoa_in_place(np.add(np.atleast_1d(phi), 0.0, order="C"),
                        _half_angle_ratio(eccentricity))
    return float(out[0]) if phi.ndim == 0 else out


def _half_angle_ratio(eccentricity):
    # The ratio r = (1 - e) / (1 + e) of the half-angle map, the only form
    # of the eccentricity that _aoa_in_place reads, for e in [0, 1).
    e = np.asarray(eccentricity, dtype=float)
    if not np.all((e >= 0.0) & (e < 1.0)):
        raise InvalidGeometry(f"eccentricity must be in [0, 1), got {eccentricity}")
    return (1.0 - e) / (1.0 + e)


def _aoa_in_place(angles: np.ndarray, ratio, bounds: tuple[float, float] | None = None
                  ) -> np.ndarray:
    # aoa_from_aod on a C-contiguous float array that holds no -0.0,
    # overwriting and returning it; ``ratio`` comes from _half_angle_ratio.
    # ``bounds``, if given, is a (lo, hi) with lo <= every angle <= hi. When
    # lo > -180 and hi <= 180 every angle is already in (-180, 180], so the
    # wrap, which would touch none of them, is skipped; when moreover
    # hi < 180 no angle is 180, so the fix-up of the angles at 180 is
    # skipped too. Either way every bit is the one the full map writes.
    if bounds is None or not (bounds[0] > -180.0 and bounds[1] <= 180.0):
        out = wrap_in_place(angles)
        fix_up = True
    else:
        out = angles
        fix_up = bounds[1] == 180.0
    # Every step below is odd bit for bit (numpy's tan and arctan included),
    # so a signed angle maps to sgn(aod) times the map of |aod|. The angles
    # hold no -0.0 (the callers add 0 as they fill them, and the wrap makes
    # none), which keeps sgn(0) = +1.
    if fix_up:
        back = out == 180.0
    out *= 0.5  # the same rounding of the same real as out /= 2.0
    out *= np.pi / 180.0  # np.radians, bit for bit
    np.tan(out, out=out)
    out *= ratio
    np.arctan(out, out=out)
    out *= 180.0 / np.pi  # np.degrees, bit for bit
    out *= 2.0
    if fix_up:
        # tan(pi / 2) is finite in floating point, so a small ratio pulls 180
        # below itself.
        out[back] = 180.0
    return out
