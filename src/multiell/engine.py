"""One Monte Carlo realization: ellipses from the scaled profile, antenna-
shaped departure angles, the single-bounce map to arrival angles, per-path
powers, receive-pattern weighting, local scattering, and an optional direct
path controlled by a Rice factor.

Randomness: one seedable generator is split into independent substreams, one
per profile tap plus one for local scattering, so changing the path count of
one cluster never perturbs another cluster's draws. Path ordering in the
output is fixed: clusters in profile order, then local scattering, then the
direct path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .antenna import AntennaPattern, power_gain, sample_aod
from .errors import ConfigError
from .geometry import DEGENERATE_DELAY_S, ellipse_from_delay, aoa_from_aod
from .pdp import NormalizedPdp, scale_pdp
from .scattering import VonMisesParams, sample_von_mises

_MAX_SEED = 2**64
# 5x the densest benchmark run; with the bundled profile that is 23M paths,
# 184 MB per float array.
_MAX_PATHS_PER_CLUSTER = 1_000_000


class SourceKind(enum.IntEnum):
    CLUSTER = 0
    LOCAL_SCATTER = 1
    LOS = 2


class PathSet:
    """Propagation paths as parallel arrays: arrival azimuth, powers, source
    kind and 1-based cluster index (-1 for non-cluster paths).

    ``power_lin`` holds powers after receive-pattern weighting;
    ``raw_power_lin`` holds the pre-weighting powers, which sum to one.
    """

    def __init__(self, aoa_deg, raw_power_lin, power_lin, source_kind, cluster_index):
        self.aoa_deg = np.asarray(aoa_deg, dtype=float)
        self.raw_power_lin = np.asarray(raw_power_lin, dtype=float)
        self.power_lin = np.asarray(power_lin, dtype=float)
        self.source_kind = np.asarray(source_kind, dtype=np.int8)
        self.cluster_index = np.asarray(cluster_index, dtype=np.int32)

    @property
    def raw_power_sum(self) -> float:
        return float(self.raw_power_lin.sum())


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one link."""

    pdp: NormalizedPdp
    ds_s: float
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    txrx_distance_m: float = 200.0
    paths_per_cluster: int = 500
    local_scattering: VonMisesParams = field(default_factory=VonMisesParams)
    rice_factor_db: float | None = None  # None means NLOS
    seed: int = 0
    frequency_label: str = ""

    def validate(self) -> None:
        if not (self.txrx_distance_m > 0.0 and math.isfinite(self.txrx_distance_m)):
            raise ConfigError(f"txrx_distance_m must be finite and > 0, got {self.txrx_distance_m}")
        if not (self.ds_s > 0.0 and math.isfinite(self.ds_s)):
            raise ConfigError(f"ds_s must be finite and > 0, got {self.ds_s}")
        if not 1 <= self.paths_per_cluster <= _MAX_PATHS_PER_CLUSTER:
            raise ConfigError(f"paths_per_cluster must be in [1, {_MAX_PATHS_PER_CLUSTER}],"
                              f" got {self.paths_per_cluster}")
        if not 0 <= int(self.seed) < _MAX_SEED:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.rice_factor_db is not None and math.isnan(self.rice_factor_db):
            raise ConfigError("rice_factor_db must be a number or None")

    def with_orientations(self, alpha_t_deg: float | None = None,
                          alpha_r_deg: float | None = None) -> "ScenarioConfig":
        """Copy with one or both boresights replaced."""
        tx = self.tx_pattern if alpha_t_deg is None else self.tx_pattern.pointed_at(alpha_t_deg)
        rx = self.rx_pattern if alpha_r_deg is None else self.rx_pattern.pointed_at(alpha_r_deg)
        from dataclasses import replace
        return replace(self, tx_pattern=tx, rx_pattern=rx)


def _rice_split(rice_factor_db: float) -> tuple[float, float]:
    # Returns (scatter scale 1/(K+1), direct share K/(K+1)).
    if math.isinf(rice_factor_db) and rice_factor_db > 0:
        return 0.0, 1.0
    k = 10.0 ** (rice_factor_db / 10.0)
    return 1.0 / (k + 1.0), k / (k + 1.0)


def run_realization(config: ScenarioConfig,
                    rng: np.random.Generator | None = None) -> PathSet:
    """Generate one set of propagation paths for the scenario.

    Per non-degenerate cluster i, exactly ``paths_per_cluster`` paths: the
    departure angle is drawn from the transmit pattern, mapped through the
    cluster ellipse, and the cluster's power budget is split by rescaled
    uniform draws. Degenerate clusters (zero-delay taps) contribute their
    power to the local-scattering budget unless an explicit power share is
    configured. Local scattering adds ``paths_per_cluster`` von Mises paths.
    Under a finite Rice factor one direct path at 0 degrees takes K/(K+1) of
    the total. Pre-weighting powers always sum to one; the receive pattern
    then scales each path (:func:`reweight`).

    ``rng`` defaults to a fresh PCG64 generator seeded from ``config.seed``;
    pass an unused generator for reproducibility when providing one.
    """
    config.validate()
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))

    scaled = scale_pdp(config.pdp, config.ds_s)
    n = config.paths_per_cluster
    delays = scaled.excess_delays_s
    powers = scaled.powers_lin
    geometric = delays > DEGENERATE_DELAY_S
    routed_power = float(powers[~geometric].sum())

    share = config.local_scattering.power_share
    if not geometric.any():
        share = 1.0
        budgets = powers * 0.0
    elif share is None:
        share = routed_power
        budgets = powers
    else:
        budgets = powers * ((1.0 - share) / float(powers[geometric].sum()))

    streams = rng.spawn(len(delays) + 1)

    clusters = np.flatnonzero(geometric)
    aoa_parts, raw_parts = [], []
    for i in clusters:
        eccentricity = ellipse_from_delay(float(delays[i]), config.txrx_distance_m).eccentricity
        aod = sample_aod(config.tx_pattern, streams[i], size=n)
        u = streams[i].random(n)
        aoa_parts.append(aoa_from_aod(aod, eccentricity))
        raw_parts.append(u * (float(budgets[i]) / u.sum()))

    local_rng = streams[-1]
    aoa_parts.append(sample_von_mises(config.local_scattering, local_rng, size=n))
    u = local_rng.random(n)
    raw_parts.append(u * (share / u.sum()) if share > 0.0 else np.zeros(n))

    # One label per block of n paths: the clusters in profile order (1-based
    # tap index), then local scattering, then the direct path.
    kinds = [SourceKind.CLUSTER] * clusters.size + [SourceKind.LOCAL_SCATTER]
    labels = [*(clusters + 1), -1]
    counts = [n] * len(labels)
    aoa = np.concatenate(aoa_parts)
    raw = np.concatenate(raw_parts)

    if config.rice_factor_db is not None:
        scatter_scale, direct_share = _rice_split(config.rice_factor_db)
        aoa = np.append(aoa, 0.0)
        raw = np.append(raw * scatter_scale, direct_share)
        kinds.append(SourceKind.LOS)
        labels.append(-1)
        counts.append(1)

    kind = np.repeat(np.array(kinds, dtype=np.int8), counts)
    index = np.repeat(np.array(labels, dtype=np.int32), counts)
    return reweight(PathSet(aoa, raw, raw, kind, index), config.rx_pattern)


def reweight(paths: PathSet, rx_pattern: AntennaPattern) -> PathSet:
    """The same paths with ``power_lin`` recomputed from ``raw_power_lin``
    under another receive pattern. The angle, raw-power, source and index
    arrays are shared with ``paths``; nothing in ``paths`` is modified."""
    weighted = paths.raw_power_lin * power_gain(rx_pattern, paths.aoa_deg)
    return PathSet(paths.aoa_deg, paths.raw_power_lin, weighted,
                   paths.source_kind, paths.cluster_index)
