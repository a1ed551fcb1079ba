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
from .geometry import wrap_degrees, wrap_in_place

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

    @staticmethod
    def omni(gain_dbi: float = 0.0) -> "AntennaPattern":
        return AntennaPattern(PatternKind.OMNI, gain_dbi=gain_dbi)

    @staticmethod
    def gaussian(hpbw_deg: float, boresight_deg: float = 0.0,
                 gain_dbi: float = 0.0) -> "AntennaPattern":
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


def power_gain(pattern: AntennaPattern, phi_deg, out: np.ndarray | None = None):
    """Normalized power gain at azimuth ``phi_deg`` (1 at boresight).

    Omni patterns return 1 everywhere. Gaussian patterns use the shortest
    angular distance to boresight. Accepts scalars or arrays. ``out``, a
    C-contiguous float array shaped like an array ``phi_deg``, receives the
    gains in place of a new array.
    """
    phi = np.asarray(phi_deg, dtype=float)
    scalar = phi.ndim == 0
    if out is None:
        out = np.empty_like(phi)
    if pattern.kind is PatternKind.OMNI:
        out.fill(1.0)
        return float(out) if scalar else out
    sigma = sigma_from_hpbw(pattern.hpbw_deg)
    wrap_in_place(np.subtract(phi, pattern.boresight_deg, out=out))
    np.square(out, out=out)
    np.negative(out, out=out)
    out /= 2.0 * sigma**2
    np.exp(out, out=out)
    return float(out) if scalar else out


def draw_aod_offsets(pattern: AntennaPattern, rng: np.random.Generator,
                     out: np.ndarray) -> None:
    """Fill ``out`` with departure draws taken relative to the boresight.

    Omni: the departure angles themselves, uniform on [-180, 180). Gaussian:
    sigma * z with z standard normal, which is what ``rng.normal(boresight,
    sigma)`` adds to the boresight, bit for bit and from the same stream.
    An offset beyond +-180 degrees is drawn again (the normal is truncated
    to boresight +-180), for at most ``_MAX_REDRAW_ROUNDS`` rounds. The rule
    reads only the offset, so the draws hold at every boresight.
    """
    if pattern.kind is PatternKind.OMNI:
        rng.random(out=out)
        out *= 360.0
        out -= 180.0
        return
    sigma = sigma_from_hpbw(pattern.hpbw_deg)
    rng.standard_normal(out=out)
    out *= sigma
    rounds = 0
    while (bad := np.abs(out) > 180.0).any():
        if rounds == _MAX_REDRAW_ROUNDS:
            raise MultiellError(f"departure draws still beyond 180 degrees after"
                                f" {_MAX_REDRAW_ROUNDS} redraw rounds")
        rounds += 1
        out[bad] = sigma * rng.standard_normal(int(bad.sum()))


def sample_aod(pattern: AntennaPattern, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw departure angles from the pattern-shaped density.

    Omni: uniform on (-180, 180]. Gaussian: normal around the boresight with
    deviation sigma_from_hpbw, redrawing any offset beyond 180 degrees (see
    :func:`draw_aod_offsets`; rejection keeps the density unimodal, and for
    beams of a few tens of degrees the rejected mass is far below 1e-15).
    Results are wrapped into (-180, 180].
    """
    draws = np.empty(size)
    draw_aod_offsets(pattern, rng, draws)
    if pattern.kind is PatternKind.GAUSSIAN:
        draws += pattern.boresight_deg
    return wrap_in_place(draws)
