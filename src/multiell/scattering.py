"""Local scattering around the receiver: von Mises angular distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KappaOutOfRange
from .geometry import wrap_degrees

_KAPPA_MAX = 500.0


@dataclass(frozen=True)
class VonMisesParams:
    """Mean direction (degrees), concentration, and the fraction of total
    power carried by local scattering.

    ``power_share=None`` means "use the power of whatever clusters the
    geometry routed away as degenerate" (for profiles with a zero-delay tap
    that is exactly that tap's share).
    """

    mu_deg: float = 0.0
    kappa: float = 3.0
    power_share: float | None = None

    def __post_init__(self):
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise ConfigError(f"kappa must be finite and >= 0, got {self.kappa}")
        if self.kappa > _KAPPA_MAX:
            # the density's I0(kappa) overflows a double just past 700
            raise KappaOutOfRange(f"kappa {self.kappa} exceeds {_KAPPA_MAX}")
        if not math.isfinite(self.mu_deg):
            raise ConfigError(f"mu_deg must be finite, got {self.mu_deg}")
        if self.power_share is not None and not 0.0 <= self.power_share <= 1.0:
            raise ConfigError(f"power_share must be in [0, 1], got {self.power_share}")
        object.__setattr__(self, "mu_deg", wrap_degrees(self.mu_deg))


def von_mises_pdf(phi_deg, params: VonMisesParams):
    """Density per radian at azimuth ``phi_deg``:
    exp(kappa cos(phi - mu)) / (2 pi I0(kappa)). Accepts scalars or arrays."""
    phi = np.asarray(phi_deg, dtype=float)
    scalar = phi.ndim == 0
    delta = np.radians(wrap_degrees(phi - params.mu_deg))
    out = np.exp(params.kappa * np.cos(delta)) / (2.0 * math.pi * np.i0(params.kappa))
    return float(out) if scalar else out


def sample_von_mises(params: VonMisesParams, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """Draw ``size`` azimuths in degrees, wrapped to (-180, 180], from the von
    Mises distribution about ``params.mu_deg`` (degrees).

    numpy's :meth:`~numpy.random.Generator.vonmises` draws the offsets in
    radians about 0 with Best and Fisher's (1979) wrapped-Cauchy rejection
    sampler (uniform for kappa below 1e-8, a series for its constant below
    1e-5); they are then turned into degrees and shifted by the mean.
    """
    return wrap_degrees(params.mu_deg + np.degrees(rng.vonmises(0.0, params.kappa, size)))
