"""Local scattering around the receiver: von Mises angular distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KappaOutOfRange
from .geometry import _floats, _number, wrap_degrees, wrap_in_place

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
        kappa = _number("kappa", self.kappa, ConfigError, "finite and >= 0",
                        lambda k: 0.0 <= k < math.inf)
        if kappa > _KAPPA_MAX:
            # the density's I0(kappa) overflows a double just past 700
            raise KappaOutOfRange(f"kappa {kappa} exceeds {_KAPPA_MAX}")
        mu = _number("mu_deg", self.mu_deg, ConfigError)
        if self.power_share is not None:
            _number("power_share", self.power_share, ConfigError, "in [0, 1]",
                    lambda share: 0.0 <= share <= 1.0)
        object.__setattr__(self, "mu_deg", wrap_degrees(mu))


def von_mises_pdf(phi_deg, params: VonMisesParams):
    """Density per radian at azimuth ``phi_deg``:
    exp(kappa cos(phi - mu)) / (2 pi I0(kappa)). Accepts scalars or arrays;
    a NaN or +-inf angle gives NaN, and an int beyond the float range raises
    ``MultiellError``."""
    phi = _floats("phi_deg", phi_deg)
    scalar = phi.ndim == 0
    delta = np.radians(wrap_degrees(phi - params.mu_deg))
    out = np.exp(params.kappa * np.cos(delta)) / (2.0 * math.pi * np.i0(params.kappa))
    return float(out) if scalar else out


def sample_von_mises(params: VonMisesParams, rng: np.random.Generator,
                     out: np.ndarray) -> None:
    """Fill ``out``, a C-contiguous float array, with azimuths in degrees,
    wrapped to (-180, 180], drawn from the von Mises distribution about
    ``params.mu_deg`` (degrees).

    numpy's :meth:`~numpy.random.Generator.vonmises` draws the offsets in
    radians about 0 with Best and Fisher's (1979) wrapped-Cauchy rejection
    sampler (uniform for kappa below 1e-8, a series for its constant below
    1e-5); they are then turned into degrees and shifted by the mean.
    """
    # + 0.0 makes a kappa of -0.0 (which passes the check >= 0) +0.0:
    # numpy rejects a negative sign bit, and changes no other kappa.
    np.degrees(rng.vonmises(0.0, params.kappa + 0.0, out.size), out=out)
    out += params.mu_deg
    wrap_in_place(out)
