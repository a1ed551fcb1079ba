"""Local scattering around the receiver: von Mises angular distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KappaOutOfRange, MultiellError
from .geometry import wrap_degrees

_KAPPA_MAX = 500.0
_KAPPA_UNIFORM = 1e-8
# Below this the closed form of b cancels (its rho is 0 under 1.4e-8 and
# twice too large at 1.5e-8), so b takes its series 1/kappa + kappa, as in
# numpy's own von Mises sampler.
_KAPPA_SERIES = 1e-5
# Rounds of the Best-Fisher loop. Each round accepts at least 65% of the
# proposals at any kappa, so a million draws settle in a few dozen rounds.
_MAX_PROPOSAL_ROUNDS = 1000


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
    """Draw from the von Mises distribution, wrapped to (-180, 180].

    Rejection sampling with the wrapped-Cauchy envelope (Best-Fisher):
    with tau = 1 + sqrt(1 + 4 kappa^2), rho = (tau - sqrt(2 tau)) / (2 kappa)
    and b = (1 + rho^2) / (2 rho), a proposal z = cos(pi u1) gives
    f = (1 + b z) / (b + z) and c = kappa (b - f); the draw arccos(f) is
    accepted when c (2 - c) > u2 or log(c / u2) + 1 >= c, signed by a third
    uniform. kappa = 0 degenerates to the uniform circle; below
    ``_KAPPA_SERIES``, b is 1/kappa + kappa.
    """
    kappa = params.kappa
    if kappa < _KAPPA_UNIFORM:
        return wrap_degrees(rng.random(size) * 360.0 - 180.0)

    if kappa < _KAPPA_SERIES:
        b = 1.0 / kappa + kappa
    else:
        tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
        rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
        b = (1.0 + rho * rho) / (2.0 * rho)

    out = np.empty(size, dtype=float)
    filled = 0
    rounds = 0
    while filled < size:
        if rounds == _MAX_PROPOSAL_ROUNDS:
            raise MultiellError(f"von Mises sampler filled {filled} of {size} draws in"
                                f" {_MAX_PROPOSAL_ROUNDS} rounds")
        rounds += 1
        m = size - filled
        u1, u2, u3 = rng.random((3, m))
        z = np.cos(math.pi * u1)
        f = (1.0 + b * z) / (b + z)
        c = kappa * (b - f)
        # u2 can be exactly 0; log(inf) accepts, which is the right limit
        with np.errstate(divide="ignore"):
            accept = (c * (2.0 - c) - u2 > 0.0) | (np.log(c / u2) + 1.0 - c >= 0.0)
        angles = np.sign(u3[accept] - 0.5) * np.arccos(np.clip(f[accept], -1.0, 1.0))
        k = angles.size
        out[filled:filled + k] = angles
        filled += k
    return wrap_degrees(params.mu_deg + np.degrees(out))
