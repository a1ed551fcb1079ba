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
from .geometry import wrap_degrees

_HALF_POWER_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))  # ~2.3548

# Rounds of the departure redraw loop. Even the widest beam rejects under a
# quarter of each round, so a million paths settle in a few dozen rounds.
_MAX_REDRAW_ROUNDS = 1000


class PatternKind(enum.Enum):
    OMNI = "omni"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class AntennaPattern:
    kind: PatternKind
    gain_dbi: float = 0.0
    hpbw_deg: float | None = None
    boresight_deg: float = 0.0

    def __post_init__(self):
        if self.kind is PatternKind.GAUSSIAN:
            if self.hpbw_deg is None:
                raise ConfigError("Gaussian pattern requires hpbw_deg")
            sigma_from_hpbw(self.hpbw_deg)
        if not math.isfinite(self.boresight_deg):
            raise ConfigError(f"boresight_deg must be finite, got {self.boresight_deg}")
        object.__setattr__(self, "boresight_deg", wrap_degrees(self.boresight_deg))

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

    Raises ``InvalidHpbw`` outside (0, 360), and for a beam so narrow (below
    about 2.2e-152 degrees) that 2 sigma^2 underflows to 0 or the exponent
    overflows at 180 degrees off boresight.
    """
    if not 0.0 < hpbw_deg < 360.0:
        raise InvalidHpbw(f"hpbw_deg must be in (0, 360), got {hpbw_deg}")
    sigma = hpbw_deg / _HALF_POWER_FACTOR
    two_var = 2.0 * sigma**2
    if two_var == 0.0 or math.isinf(180.0**2 / two_var):
        raise InvalidHpbw(f"hpbw_deg {hpbw_deg} is too narrow for the Gaussian gain to be"
                          " computed")
    return sigma


def power_gain(pattern: AntennaPattern, phi_deg):
    """Normalized power gain at azimuth ``phi_deg`` (1 at boresight): a new
    array for an array, a float for a scalar.

    Omni: 1 everywhere. Gaussian: ``exp(-d**2 / (2 sigma**2))`` with ``d``
    the wrapped difference ``wrap_degrees(phi - boresight)``, bit for bit
    (the shortest-arc argument is at ``_gain_in_place``).
    """
    phi = np.asarray(phi_deg, dtype=float)
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
    # Where it can, the smaller of two signed candidates is squared, once.
    # For b >= 0 they are -d, computed as b - phi (rounding is symmetric), and
    # s = (540 - (b - phi)) - 180. Where d < -180, d + 180 and the last - 180
    # of the wrap ((d + 180) + 360) - 180 are exact (Sterbenz), so that wrap
    # equals s, in [0, 180) and below -d; elsewhere s >= 180 >= -d, and the
    # minimum keeps -d, whose square is that of d. For b < 0 they are d and
    # c = 540 - (d + 180), an exact subtraction: where d > 180, c is the
    # magnitude of the wrap ((d + 180) - 360) - 180, in [0, 180) and below d;
    # elsewhere c >= 180 >= d. (The bounds hold through rounding, which is
    # monotonic.) So the square is the wrapped difference's, bit for bit, a
    # NaN passes through, and where both candidates are 180 (the wrap sends
    # -180 to 180) the squares are equal. Rounding keeps every d between the
    # differences of the ends of ``span``: when those stay in [-180, 180] no
    # d wraps and no candidate is computed, and a candidate computed where
    # none is needed is never the smaller one.
    if lo - boresight < -180.0 or hi - boresight > 180.0:
        if scratch is None:
            scratch = np.empty_like(out)
        if boresight >= 0.0:
            np.subtract(boresight, phi, out=out)  # -d
            np.subtract(540.0, out, out=scratch)
            scratch -= 180.0
        else:
            np.subtract(phi, boresight, out=out)  # d
            np.add(out, 180.0, out=scratch)
            np.subtract(540.0, scratch, out=scratch)
        np.minimum(out, scratch, out=out)
    else:
        np.subtract(phi, boresight, out=out)
    np.square(out, out=out)
    out /= -(2.0 * sigma**2)
    np.exp(out, out=out)
    return out


def draw_aod_offsets(pattern: AntennaPattern, rng: np.random.Generator,
                     out: np.ndarray) -> float:
    """Fill ``out`` with departure draws taken relative to the boresight, and
    return a bound on their magnitude: every ``abs(out)`` is at most it.

    Omni: the departures themselves, uniform on [-180, 180), bound 180.
    Gaussian: sigma * z with z standard normal, what ``rng.normal(boresight,
    sigma)`` adds to the boresight, bit for bit and from the same stream; an
    offset beyond +-180 is drawn again (the normal truncated to boresight
    +-180), and ``MultiellError`` is raised after ``_MAX_REDRAW_ROUNDS``
    rounds. The rule reads only the offset, never the boresight, so the
    draws hold at every boresight. The bound is the larger of the largest
    draw and minus the smallest (0 for an empty ``out``), which the redraw
    check takes anyway: negation is exact, so it is the largest magnitude.
    """
    if pattern.kind is PatternKind.OMNI:
        rng.random(out=out)
        out *= 360.0
        out -= 180.0
        return 180.0
    sigma = sigma_from_hpbw(pattern.hpbw_deg)
    rng.standard_normal(out=out)
    out *= sigma
    rounds = 0
    while (bound := float(max(out.max(initial=0.0), -out.min(initial=0.0)))) > 180.0:
        if rounds == _MAX_REDRAW_ROUNDS:
            raise MultiellError(f"departure draws still beyond 180 degrees after"
                                f" {_MAX_REDRAW_ROUNDS} redraw rounds")
        rounds += 1
        bad = np.abs(out) > 180.0
        out[bad] = sigma * rng.standard_normal(int(bad.sum()))
    return bound
