"""Antenna patterns: omnidirectional or a Gaussian main beam.

The Gaussian shape applies to the normalized power pattern, so the
half-power beamwidth (HPBW) fixes the deviation directly: the gain falls to
one half at HPBW/2 off boresight. Absolute gain in dBi is carried as
metadata only; nothing downstream scales by it (angle statistics are
invariant to a common power factor).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidHpbw, MultiellError
from .geometry import _PAS_BLOCK, _floats, _number, _require_out, _require_type, wrap_degrees

_HALF_POWER_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))  # ~2.3548

# Rounds of the departure redraw loop. Even the widest beam rejects under a
# quarter of each round, so a million paths settle in a few dozen rounds.
_MAX_REDRAW_ROUNDS = 1000


class PatternKind(enum.Enum):
    OMNI = "omni"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class AntennaPattern:
    kind: PatternKind = PatternKind.OMNI
    gain_dbi: float = 0.0
    hpbw_deg: float | None = None
    boresight_deg: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, PatternKind):
            raise ConfigError(f"kind must be a PatternKind, got {self.kind!r}")
        object.__setattr__(self, "gain_dbi", _number("gain_dbi", self.gain_dbi, ConfigError))
        if self.hpbw_deg is not None:
            object.__setattr__(self, "hpbw_deg", _hpbw(self.hpbw_deg))
        elif self.kind is PatternKind.GAUSSIAN:
            raise ConfigError("Gaussian pattern requires hpbw_deg")
        object.__setattr__(self, "boresight_deg",
                           wrap_degrees(_number("boresight_deg", self.boresight_deg, ConfigError)))

    # The parameter defaults below are the field defaults above, read from
    # the class body while it runs.
    @staticmethod
    def omni(gain_dbi: float = gain_dbi) -> "AntennaPattern":
        return AntennaPattern(PatternKind.OMNI, gain_dbi=gain_dbi)

    @staticmethod
    def gaussian(hpbw_deg: float, boresight_deg: float = boresight_deg,
                 gain_dbi: float = gain_dbi) -> "AntennaPattern":
        return AntennaPattern(PatternKind.GAUSSIAN, gain_dbi=gain_dbi,
                              hpbw_deg=hpbw_deg, boresight_deg=boresight_deg)


def sigma_from_hpbw(hpbw_deg: float) -> float:
    """Standard deviation of the Gaussian power shape exp(-phi^2 / (2 sigma^2))
    that reaches one half at phi = hpbw/2, i.e. hpbw / (2 sqrt(2 ln 2)).

    Raises ``InvalidHpbw`` outside (0, 360) (a value that is not one number,
    or an int beyond the float range, too), and for a beam so narrow (below
    about 2.2e-152 degrees) that 2 sigma^2 underflows to 0 or the exponent
    overflows at 180 degrees off boresight, taken as ``_gain_in_place``
    takes it: the square times the reciprocal of 2 sigma^2.
    """
    return _hpbw(hpbw_deg) / _HALF_POWER_FACTOR


def _hpbw(hpbw_deg) -> float:
    # ``hpbw_deg`` as a Python float, checked as sigma_from_hpbw states. A
    # Python float in range skips _number, which costs about four times this
    # test: the gain and the departure draws check a pattern's width at
    # every use.
    if not (type(hpbw_deg) is float and 0.0 < hpbw_deg < 360.0):
        hpbw_deg = _number("hpbw_deg", hpbw_deg, InvalidHpbw, "in (0, 360)",
                           lambda width: 0.0 < width < 360.0)
    two_var = 2.0 * (hpbw_deg / _HALF_POWER_FACTOR)**2
    if two_var == 0.0 or math.isinf(180.0**2 * (1.0 / two_var)):
        raise InvalidHpbw(f"hpbw_deg {hpbw_deg} is too narrow for the Gaussian gain to be"
                          " computed")
    return hpbw_deg


def power_gain(pattern: AntennaPattern, phi_deg):
    """Normalized power gain at azimuth ``phi_deg`` (1 at boresight): a new
    array for an array, a float for a scalar.

    Omni: 1 everywhere. Gaussian: ``exp(d**2 * (-1 / (2 sigma**2)))`` with
    ``d`` the wrapped difference ``wrap_degrees(phi - boresight)``, bit for
    bit, so ``d`` carries the difference's one rounding only, the wrap being
    exact (the shortest-arc argument is at ``_gain_in_place``). The square is
    multiplied by one reciprocal rather than divided, so the exponent takes
    one rounding more than the quotient ``-d**2 / (2 sigma**2)``, and a gain
    can differ from the quotient's by about ``|exponent| * 2**-52``. Under
    it, a NaN or +-inf angle gives NaN (omni: 1), and an int beyond the
    float range raises ``MultiellError``. A ``pattern`` that is not an
    ``AntennaPattern`` raises ``ConfigError``.
    """
    _require_type("pattern", pattern, AntennaPattern)
    phi = _floats("phi_deg", phi_deg)
    if pattern.kind is PatternKind.OMNI:
        gain = np.ones_like(phi)
    else:
        # (0, 0) calls for no wrap candidate at any boresight.
        lo, hi = (float(phi.min()), float(phi.max())) if phi.size else (0.0, 0.0)
        if not (lo >= -180.0 and hi <= 180.0):  # NaN fails this too
            phi, lo, hi = wrap_degrees(phi), -180.0, 180.0
        gain = _gain_in_place(pattern, phi, (lo, hi), np.empty_like(phi))
    return float(gain) if gain.ndim == 0 else gain


def _gain_in_place(pattern: AntennaPattern, phi: np.ndarray, span: tuple[float, float],
                   out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    # The Gaussian ``pattern``'s gain at ``phi``, written into ``out`` (shaped
    # like ``phi``) and returned. Precondition, not checked: every ``phi``
    # lies in [-180, 180] and ``span = (lo, hi)`` bounds them. ``scratch``,
    # shaped like ``out``, holds the wrap candidate; one is made if needed.
    sigma = sigma_from_hpbw(pattern.hpbw_deg)
    boresight = pattern.boresight_deg
    lo, hi = span
    # The shortest arc, with the wrapped difference's bits, selecting no
    # paths. With the boresight b in (-180, 180], d = phi - b can leave
    # (-180, 180] on one side only: below -180 if b >= 0, above 180 if b < 0.
    # Where it can, x = -d (as b - phi; rounding is symmetric) or x = d,
    # which can pass 180 only, and the smaller of x and 360 - x is squared.
    # Where x > 180, 360 - x is exact (Sterbenz: x <= 360) and is the
    # magnitude of the exact wrap of d; elsewhere 360 - x >= 180 >= x, through
    # the monotonic rounding too, and x is kept. So the square is the wrapped
    # difference's, bit for bit, and a NaN passes through. Rounding keeps
    # every d between the differences of the ends of ``span``: when those stay
    # in [-180, 180] no d wraps and no candidate is computed. At b = +-0, d is
    # phi up to the sign of a zero, which the square drops: phi is squared.
    if lo - boresight < -180.0 or hi - boresight > 180.0:
        if scratch is None:
            scratch = np.empty_like(out)
        if boresight >= 0.0:
            np.subtract(boresight, phi, out=out)  # -d
        else:
            np.subtract(phi, boresight, out=out)  # d
        np.subtract(360.0, out, out=scratch)
        d = np.minimum(out, scratch, out=out)
    elif boresight == 0.0:
        d = phi
    else:
        d = np.subtract(phi, boresight, out=out)
    np.square(d, out=out)
    # A multiply by the reciprocal, cheaper per path than a divide;
    # sigma_from_hpbw has checked that 180**2 times it is finite, so no
    # square overflows it.
    out *= -1.0 / (2.0 * sigma**2)
    np.exp(out, out=out)
    return out


def draw_aod_offsets(pattern: AntennaPattern, rng: np.random.Generator,
                     out: np.ndarray) -> None:
    """Fill ``out`` with departure draws taken relative to the boresight.

    Omni: the departures themselves, uniform on [-180, 180).
    Gaussian: sigma * z with z standard normal, what ``rng.normal(boresight,
    sigma)`` adds to the boresight, bit for bit and from the same stream; an
    offset beyond +-180 is drawn again (the normal truncated to boresight
    +-180), and ``MultiellError`` is raised after ``_MAX_REDRAW_ROUNDS``
    rounds. The rule reads only the offset, never the boresight, so the
    draws hold at every boresight.

    Before any draw, raises ``ConfigError`` for a ``pattern`` that is not an
    ``AntennaPattern`` and for an ``out`` that is not a writable, aligned,
    C-contiguous, 1-D float64 array.
    """
    _require_type("pattern", pattern, AntennaPattern)
    _require_out(out)
    if pattern.kind is PatternKind.OMNI:
        rng.random(out=out)
        out *= 360.0
        out -= 180.0
        return
    sigma = sigma_from_hpbw(pattern.hpbw_deg)
    rng.standard_normal(out=out)
    out *= sigma
    rounds = 0
    while max(out.max(initial=0.0), -out.min(initial=0.0)) > 180.0:
        if rounds == _MAX_REDRAW_ROUNDS:
            raise MultiellError(f"departure draws still beyond 180 degrees after"
                                f" {_MAX_REDRAW_ROUNDS} redraw rounds")
        rounds += 1
        # Each offset beyond +-180, found by two comparisons (no float
        # temporary of |out|), is drawn again, a block at a time in path
        # order: numpy draws each normal in turn from the stream, so the
        # blocks take the doubles of one pass over the whole array, and no
        # temporary is longer than a block.
        for start in range(0, out.size, _PAS_BLOCK):
            block = out[start:start + _PAS_BLOCK]
            bad = np.flatnonzero((block > 180.0) | (block < -180.0))
            redrawn = rng.standard_normal(bad.size)
            redrawn *= sigma
            block[bad] = redrawn
