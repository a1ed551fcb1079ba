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

from .antenna import AntennaPattern, PatternKind, draw_aod_offsets, power_gain
from .errors import ConfigError
from .geometry import DEGENERATE_DELAY_S, _aoa_in_place, ellipse_from_delay
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
    An omni receive pattern weights nothing, so :func:`reweight` makes the
    raw-power array itself the ``power_lin``, shared, not copied.
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
        if not math.isfinite(self.ds_s * self.pdp.taps[-1][0]):
            raise ConfigError(f"ds_s {self.ds_s} makes the last tap's delay overflow")
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
    try:
        k = 10.0 ** (rice_factor_db / 10.0)
    except OverflowError:  # above about 3083 dB
        k = math.inf
    if math.isinf(k):
        return 0.0, 1.0
    return 1.0 / (k + 1.0), k / (k + 1.0)


@dataclass(frozen=True)
class Draws:
    """Every random draw of one realization, kept apart from the transmit
    boresight so that one set of draws serves many boresights.

    ``angles`` is one buffer with an entry per path. Its head, ``offsets``,
    is a view with one row of ``paths_per_cluster`` departure draws per
    geometric cluster, relative to the boresight for a Gaussian pattern
    (see :func:`~multiell.antenna.draw_aod_offsets`); ``eccentricities`` has
    one row per cluster. Its tail, ``tail_aoa``, holds the arrival angles
    that follow the clusters: local scattering, then the direct path under
    a Rice factor. ``raw_power_lin``, ``source_kind`` and ``cluster_index``
    cover every path and do not depend on either boresight. ``relative``
    says whether the offsets are taken relative to the transmit boresight
    (False for an omni transmitter, whose draws are the departures
    themselves). No draw depends on the boresight, so the draws hold at
    every one, until :func:`aim_realization` aims them in ``angles``.
    """

    relative: bool
    angles: np.ndarray
    offsets: np.ndarray
    eccentricities: np.ndarray
    raw_power_lin: np.ndarray
    source_kind: np.ndarray
    cluster_index: np.ndarray

    @property
    def tail_aoa(self) -> np.ndarray:
        return self.angles[self.offsets.size:]


def draw_realization(config: ScenarioConfig,
                     rng: np.random.Generator | None = None) -> Draws:
    """Make every random draw of one realization of ``config``.

    Per non-degenerate cluster i, exactly ``paths_per_cluster`` departure
    draws from the transmit pattern, then as many uniform draws that split
    the cluster's power budget. Degenerate clusters (zero-delay taps)
    contribute their power to the local-scattering budget unless an explicit
    power share is configured. Local scattering adds ``paths_per_cluster``
    von Mises paths. Under a finite Rice factor one direct path at 0 degrees
    takes K/(K+1) of the total. Pre-weighting powers always sum to one.

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
    direct = config.rice_factor_db is not None
    raw = np.empty((clusters.size + 1) * n + direct)
    # One row of n per cluster, then local scattering; the direct path is last.
    raw_rows = raw[:raw.size - direct].reshape(-1, n)
    # The angles follow the same layout as the raw powers.
    angles = np.empty(raw.size)
    offsets = angles[:clusters.size * n].reshape(clusters.size, n)
    eccentricities = np.empty((clusters.size, 1))
    for row, i in enumerate(clusters):
        eccentricities[row] = ellipse_from_delay(float(delays[i]),
                                                 config.txrx_distance_m).eccentricity
        draw_aod_offsets(config.tx_pattern, streams[i], offsets[row])
        u = streams[i].random(out=raw_rows[row])
        u *= float(budgets[i]) / u.sum()

    local_rng = streams[-1]
    tail_aoa = angles[offsets.size:]
    tail_aoa[:n] = sample_von_mises(config.local_scattering, local_rng, size=n)
    u = local_rng.random(out=raw_rows[-1])
    if share > 0.0:
        u *= share / u.sum()
    else:
        u[:] = 0.0

    # One label per block of n paths: the clusters in profile order (1-based
    # tap index), then local scattering, then the direct path.
    kinds = [SourceKind.CLUSTER] * clusters.size + [SourceKind.LOCAL_SCATTER]
    labels = [*(clusters + 1), -1]
    counts = [n] * len(labels)
    if direct:
        scatter_scale, direct_share = _rice_split(config.rice_factor_db)
        raw_rows *= scatter_scale
        raw[-1] = direct_share
        tail_aoa[-1] = 0.0
        kinds.append(SourceKind.LOS)
        labels.append(-1)
        counts.append(1)

    return Draws(relative=config.tx_pattern.kind is not PatternKind.OMNI, angles=angles,
                 offsets=offsets, eccentricities=eccentricities, raw_power_lin=raw,
                 source_kind=np.repeat(np.array(kinds, dtype=np.int8), counts),
                 cluster_index=np.repeat(np.array(labels, dtype=np.int32), counts))


def aim_realization(draws: Draws, boresight_deg: float, rx_pattern: AntennaPattern,
                    out: np.ndarray | None = None) -> PathSet:
    """The paths that ``draws`` give with the transmit beam turned to
    ``boresight_deg`` (a wrapped angle, as ``AntennaPattern`` holds it; an
    omni transmitter ignores it) and the receiver pointed as ``rx_pattern``.

    Each departure is the boresight plus its offset, wrapped and mapped
    through its cluster's ellipse in one pass over all clusters; the
    receive pattern then scales each path (:func:`reweight`). The raw-power,
    source and index arrays are those of ``draws``, shared, not copied.
    The result equals :func:`run_realization` of the same config turned to
    ``boresight_deg``, from the same stream, bit for bit.

    ``out``, a float array with one entry per path, receives the arrival
    angles in place of a new array. ``out=draws.angles`` aims the draws in
    their own buffer, which uses them up: aim them only once that way.
    """
    aoa = np.empty(draws.angles.size) if out is None else out
    departures = aoa[:draws.offsets.size].reshape(draws.offsets.shape)
    # When ``aoa`` is ``draws.angles`` the two plain copies below are no-ops.
    if draws.relative:
        np.add(draws.offsets, boresight_deg, out=departures)
    else:
        departures[...] = draws.offsets
    _aoa_in_place(departures, draws.eccentricities)
    aoa[draws.offsets.size:] = draws.tail_aoa
    raw = draws.raw_power_lin
    return reweight(PathSet(aoa, raw, raw, draws.source_kind, draws.cluster_index),
                    rx_pattern)


def run_realization(config: ScenarioConfig,
                    rng: np.random.Generator | None = None) -> PathSet:
    """Generate one set of propagation paths for the scenario: the draws of
    :func:`draw_realization`, aimed at the config's own boresights by
    :func:`aim_realization` in the draws' own angle buffer, which becomes
    the paths' ``aoa_deg``.

    ``rng`` defaults to a fresh PCG64 generator seeded from ``config.seed``;
    pass an unused generator for reproducibility when providing one.
    """
    draws = draw_realization(config, rng)
    return aim_realization(draws, config.tx_pattern.boresight_deg, config.rx_pattern,
                           out=draws.angles)


def reweight(paths: PathSet, rx_pattern: AntennaPattern,
             out: np.ndarray | None = None) -> PathSet:
    """The same paths with ``power_lin`` recomputed from ``raw_power_lin``
    under another receive pattern. The angle, raw-power, source and index
    arrays are shared with ``paths``; nothing in ``paths`` is modified.
    ``out``, an array shaped like ``paths.aoa_deg``, becomes the new
    ``power_lin`` (see :func:`~multiell.antenna.power_gain`). An omni
    pattern weights nothing: its ``power_lin`` is ``paths.raw_power_lin``
    itself, or a copy of it in ``out``."""
    raw = paths.raw_power_lin
    if rx_pattern.kind is not PatternKind.OMNI:
        weighted = power_gain(rx_pattern, paths.aoa_deg, out=out)
        weighted *= raw
    elif out is None:
        weighted = raw
    else:
        weighted = out
        weighted[...] = raw
    return PathSet(paths.aoa_deg, raw, weighted, paths.source_kind, paths.cluster_index)
