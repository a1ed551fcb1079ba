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

    def pointed_at(self, boresight_deg: float) -> "AntennaPattern":
        """Copy of this pattern with a new boresight."""
        return AntennaPattern(self.kind, self.gain_dbi, self.hpbw_deg, boresight_deg)


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


def power_gain(pattern: AntennaPattern, phi_deg, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None, *,
               angle_range: tuple[float, float] | None = None):
    """Normalized power gain at azimuth ``phi_deg`` (1 at boresight).

    Omni patterns return 1 everywhere. Gaussian patterns use the shortest
    angular distance to boresight. Accepts scalars or arrays. ``out``, a
    C-contiguous float array shaped like an array ``phi_deg``, receives the
    gains in place of a new array; ``scratch``, another such array, holds
    an intermediate (a new one is made without it). ``angle_range``, the
    smallest and largest of the angles, saves scanning them for it: a
    caller that weights one set of angles under many patterns scans once.
    It is trusted, not checked: a range that does not bound the angles
    gives wrong gains without an error.

    The shortest arc is taken without selecting the paths to wrap. With
    ``phi`` in [-180, 180] and the boresight ``b`` in (-180, 180],
    ``d = phi - b`` can leave (-180, 180] on one side only: below -180 when
    ``b >= 0``, above 180 when ``b < 0``. Where it can, the smaller of two
    signed candidates is squared, once. For ``b >= 0`` they are ``-d``,
    computed as ``b - phi`` (rounding is symmetric, so these are the bits
    of ``-d``), and ``s = (540 - (b - phi)) - 180``. Where ``d < -180``,
    ``d + 180`` and the last ``- 180`` of :func:`wrap_in_place`'s
    ``((d + 180) + 360) - 180`` are exact (Sterbenz), so that wrap equals
    ``s``, which lies in [0, 180), below ``-d``; elsewhere ``s`` is at least
    180, so at least ``-d``, and the minimum keeps ``-d``, whose square is
    that of ``d``. For ``b < 0`` they are ``d`` and ``c = 540 - (d + 180)``:
    the subtraction is exact, so where ``d > 180`` ``c`` is the magnitude of
    the wrap ``((d + 180) - 360) - 180``, in [0, 180) and below ``d``, and
    elsewhere ``c`` is at least 180, so at least ``d``. (The bounds hold
    through rounding, which is monotonic.) Either way the square is that of
    the wrapped difference, bit for bit, and a NaN passes through. Where
    both candidates are 180 the squares are equal, which also covers the
    wrap sending -180 to 180. Rounding keeps every ``d`` between the
    differences of the smallest and largest ``phi``; when those stay in
    [-180, 180], no ``d`` wraps and no candidate is computed. An angle
    outside [-180, 180] is wrapped first with :func:`wrap_degrees`.
    """
    phi = np.asarray(phi_deg, dtype=float)
    scalar = phi.ndim == 0
    if out is None:
        out = np.empty_like(phi)
    if pattern.kind is PatternKind.OMNI:
        out.fill(1.0)
        return float(out) if scalar else out
    sigma = sigma_from_hpbw(pattern.hpbw_deg)
    boresight = pattern.boresight_deg
    if angle_range is None:
        angle_range = (float(phi.min()), float(phi.max())) if phi.size else (boresight, boresight)
    lo, hi = angle_range
    if not (lo >= -180.0 and hi <= 180.0):
        phi, lo, hi = wrap_degrees(phi), -180.0, 180.0
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
    return float(out) if scalar else out


def draw_aod_offsets(pattern: AntennaPattern, rng: np.random.Generator,
                     out: np.ndarray) -> float:
    """Fill ``out`` with departure draws taken relative to the boresight, and
    return a bound on their magnitude: every ``abs(out)`` is at most it.

    Omni: the departure angles themselves, uniform on [-180, 180), with the
    bound 180. Gaussian: sigma * z with z standard normal, which is what
    ``rng.normal(boresight, sigma)`` adds to the boresight, bit for bit and
    from the same stream. An offset beyond +-180 degrees is drawn again (the
    normal is truncated to boresight +-180), for at most
    ``_MAX_REDRAW_ROUNDS`` rounds. The rule reads only the offset, so the
    draws hold at every boresight. The bound is the largest magnitude, which
    the redraw check takes anyway, as the larger of the largest draw and
    minus the smallest (0 for an empty ``out``): the same value as the
    largest ``abs(out)`` without a temporary the size of ``out``.
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
