"""Confocal-ellipse link geometry.

Each time-cluster of a power delay profile maps to one ellipse whose foci
hold the transmitter and receiver, on which every Tx-scatterer-Rx path has
the length D + c * delay. Only its eccentricity enters the single-bounce
angle map: :func:`eccentricity_from_delay` takes delays to geometry and
:func:`aoa_from_aod` maps departures to arrivals.

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
import numbers
import operator
import reprlib

import numpy as np

from .errors import ConfigError, InvalidGeometry, MultiellError

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Below this excess delay the ellipse collapses onto the focal segment
# (eccentricity -> 1); such clusters belong to the local-scattering component.
DEGENERATE_DELAY_S = 1e-10


def wrap_in_place(angles: np.ndarray) -> np.ndarray:
    """Wrap a C-contiguous float array into (-180, 180] in place, exactly,
    and return it. A value outside becomes ``fmod(a, 360)`` (exact), moved
    by 360 where still outside (exact by Sterbenz); a wrapped zero is +0.0
    and +-inf gives NaN. Values inside (-0.0 too) and NaN keep every bit,
    and an array inside the interval is only read. Raises ``ValueError``
    for an array that is not C-contiguous."""
    if not angles.flags.c_contiguous:
        raise ValueError("wrap_in_place needs a C-contiguous array")
    flat = angles.reshape(-1)  # a view, since the array is contiguous
    if not (flat.min(initial=0.0) > -180.0 and flat.max(initial=0.0) <= 180.0):  # NaN fails
        # Integer indices gather and scatter several times faster than the mask.
        out_of_range = np.flatnonzero((flat <= -180.0) | (flat > 180.0))
        with np.errstate(invalid="ignore"):  # +-inf gives NaN, as stated
            t = np.fmod(flat[out_of_range], 360.0)
        t -= 360.0 * (t > 180.0)
        t += 360.0 * (t <= -180.0)  # adding +0.0 turns fmod's -0.0 into +0.0
        flat[out_of_range] = t
    return angles


def wrap_degrees(angle_deg):
    """:func:`wrap_in_place` into a new array: the angles wrapped into
    (-180, 180], exactly. Accepts scalars or arrays; a scalar or 0-d input
    gives a float, a NaN or +-inf angle gives NaN, and an int beyond the
    float range raises ``MultiellError``."""
    a = wrap_in_place(_floats("angle_deg", angle_deg, copy=True))
    return float(a) if a.ndim == 0 else a


def _floats(name: str, value, error: type[Exception] = MultiellError, must: str = "a float",
            copy: bool | None = None) -> np.ndarray:
    # ``value`` as a float array, 0-d for a scalar, copied if ``copy`` and
    # otherwise only where needed. Raises ``error``, saying that ``name``
    # must be ``must``, for a value that is not made of real numbers (numpy
    # would read None as NaN, and a string as the number it spells, if any),
    # and for an int beyond the float range: its hundreds of digits would
    # bury the message.
    try:
        held = np.asarray(value)
        real = held.dtype.kind in "biuf" or held.dtype.kind == "O" and all(
            isinstance(x, numbers.Real) for x in held.flat)
    except ValueError:  # a ragged nesting
        real = False
    if not real:
        raise error(f"{name} must be {must}, got {reprlib.repr(value)}")
    try:
        return np.array(held, dtype=float, copy=copy)
    except OverflowError:
        raise error(f"{name} must be {must}, got an int beyond the float range") from None


def _number(name: str, value, error: type[Exception], must: str = "finite",
            ok=math.isfinite) -> float:
    # ``value`` as a float: one real number (Python, numpy or 0-d) for which
    # ``ok`` holds. Otherwise raises ``error``, saying that ``name`` must be
    # ``must``, as _floats does for a value that is not made of real numbers.
    held = _floats(name, value, error, must)
    if held.ndim or not ok(float(held)):
        raise error(f"{name} must be {must}, got {held}")
    return float(held)


def _positive(number: float) -> bool:
    return 0.0 < number < math.inf


def _as_int(name: str, value) -> int:
    # ``value`` as a Python int if it is an integer, Python or numpy.
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _shown(value) -> str:
    # repr(value), but words for an int of more than 40 digits, and for a
    # tuple or list that holds one: hundreds of digits would bury the
    # message, and past 4,300 the repr raises.
    def long(x):
        return isinstance(x, int) and abs(x) >= 10**40
    if long(value):
        return "an int of more than 40 digits"
    if isinstance(value, (tuple, list)) and any(map(long, value)):
        return f"a {type(value).__name__} holding an int of more than 40 digits"
    return repr(value)


def eccentricity_from_delay(excess_delays_s, txrx_distance_m: float):
    """Eccentricity of the ellipse of each excess delay: the distance D over
    the total reflection path D + c * delay. Accepts a scalar or an array
    (empty included) and returns the same shape; a scalar gives a float.

    Raises ``InvalidGeometry`` for a distance that is not one finite number
    > 0, for delays that are not real numbers, for a delay that is not
    above ``DEGENERATE_DELAY_S`` (NaN included; such a tap belongs to local
    scattering), and for a distance so long against a delay that the
    eccentricity rounds to 1. A delay so long that c * delay overflows gives
    the limit, e = 0.
    """
    distance = _number("txrx_distance_m", txrx_distance_m, InvalidGeometry, "finite and > 0",
                       _positive)
    delays = _floats("excess_delays_s", excess_delays_s, InvalidGeometry, "real numbers")
    degenerate = ~(delays > DEGENERATE_DELAY_S)
    if degenerate.any():
        raise InvalidGeometry(f"excess delay {delays[degenerate].flat[0]} s is not above"
                              f" {DEGENERATE_DELAY_S} s")
    with np.errstate(over="ignore"):  # D / inf is the limit 0
        eccentricity = distance / (distance + SPEED_OF_LIGHT_M_S * delays)
    rounds_to_one = eccentricity >= 1.0
    if rounds_to_one.any():
        raise InvalidGeometry(f"txrx_distance_m {distance} is too long for an"
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
    ``phi_t_deg``; a NaN or +-inf angle gives NaN, and an int beyond the
    float range raises ``MultiellError``.

    ``eccentricity`` is a scalar, or an array that broadcasts against the
    angles without enlarging them: shape (rows, 1) gives each row of a 2-D
    angle array its own ellipse. One that is not made of real numbers in
    [0, 1) raises ``InvalidGeometry``.
    """
    phi = _floats("phi_t_deg", phi_t_deg)
    # A wrapped C-ordered copy. Every step of the map is odd bit for bit
    # (numpy's tan and arctan included), so an angle maps to sgn(aod) times
    # the map of |aod|, with sgn(0) = +1 as long as no -0.0 enters. None
    # does: adding +0.0 turns -0.0 into +0.0, and the wrap makes none.
    out = wrap_in_place(np.add(np.atleast_1d(phi), 0.0, order="C"))
    back = out == 180.0
    out *= 0.5  # the same rounding of the same real as out /= 2.0
    out *= np.pi / 180.0  # np.radians, bit for bit
    np.tan(out, out=out)
    out *= _half_angle_ratio(eccentricity)
    np.arctan(out, out=out)
    out *= 180.0 / np.pi  # np.degrees, bit for bit
    out *= 2.0
    # tan(pi / 2) is finite in floating point, so a small ratio pulls 180
    # below itself.
    out[back] = 180.0
    return float(out[0]) if phi.ndim == 0 else out


def _half_angle_ratio(eccentricity):
    # The ratio r = (1 - e) / (1 + e) of the half-angle map, the only form
    # of the eccentricity that the map reads, for e in [0, 1).
    e = _floats("eccentricity", eccentricity, InvalidGeometry, "in [0, 1)")
    if not np.all((e >= 0.0) & (e < 1.0)):
        raise InvalidGeometry(f"eccentricity must be in [0, 1), got {eccentricity}")
    return (1.0 - e) / (1.0 + e)
