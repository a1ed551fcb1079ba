"""One Monte Carlo realization: ellipses from the scaled profile, antenna-
shaped departure angles, the single-bounce map to arrival angles, per-path
powers, receive-pattern weighting, local scattering, and an optional direct
path controlled by a Rice factor.

Randomness: one seedable generator is split into independent substreams, one
per profile tap plus one for local scattering, so changing the path count of
one cluster never perturbs another cluster's draws. :class:`PathSet` states
the fixed path layout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .antenna import AntennaPattern, PatternKind, draw_aod_offsets, power_gain
from .errors import ConfigError
from .geometry import (DEGENERATE_DELAY_S, _aoa_in_place, _half_angle_ratio,
                       _require_finite_positive, eccentricity_from_delay)
from .pdp import NormalizedPdp, _require_delay_spread, scale_pdp
from .scattering import VonMisesParams, sample_von_mises

_MAX_SEED = 2**64
# 5x the densest benchmark run; with the bundled profile that is 23M paths,
# 184 MB per float array.
_MAX_PATHS_PER_CLUSTER = 1_000_000


class SourceKind(enum.IntEnum):
    CLUSTER = 0
    LOCAL_SCATTER = 1
    LOS = 2


@dataclass(frozen=True, eq=False)
class PathSet:
    """Propagation paths as three parallel float arrays, with provenance per
    source. The paths come in contiguous blocks: ``paths_per_cluster`` per
    geometric tap in profile order, as many of local scattering, then the
    direct path alone under a Rice factor. ``sources`` holds one
    ``(kind, tap, slice)`` per block, in that order: its ``SourceKind``, its
    1-based tap index (-1 for local scattering and the direct path) and its
    slice of paths; the slices tile the paths.

    ``power_lin`` holds powers after receive-pattern weighting;
    ``raw_power_lin`` holds the pre-weighting powers, which sum to one.
    """

    aoa_deg: np.ndarray
    raw_power_lin: np.ndarray
    power_lin: np.ndarray
    sources: tuple[tuple[SourceKind, int, slice], ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one link; building one with a field
    out of range raises ``ConfigError``."""

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

    def __post_init__(self):
        _require_finite_positive("txrx_distance_m", self.txrx_distance_m, ConfigError)
        _require_delay_spread(self.pdp, self.ds_s, ConfigError)
        if not 1 <= self.paths_per_cluster <= _MAX_PATHS_PER_CLUSTER:
            raise ConfigError(f"paths_per_cluster must be in [1, {_MAX_PATHS_PER_CLUSTER}],"
                              f" got {self.paths_per_cluster}")
        if not 0 <= int(self.seed) < _MAX_SEED:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.rice_factor_db is not None and math.isnan(self.rice_factor_db):
            raise ConfigError("rice_factor_db must be a number or None")


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
    """Every random draw of one realization, apart from the transmit
    boresight: one set of draws serves every boresight (see
    :func:`~multiell.antenna.draw_aod_offsets`).

    ``angles`` has an entry per path. Its head, ``offsets``, is a view with
    one row of ``paths_per_cluster`` departure draws per geometric cluster,
    relative to the boresight if ``relative`` (an omni transmitter's draws
    are the departures themselves); ``offset_bound`` bounds their magnitude.
    Its tail, ``tail_aoa``, holds the arrival angles of local scattering,
    then of the direct path under a Rice factor. ``ratios`` has one row per
    cluster, (1 - e) / (1 + e) for its eccentricity e. ``raw_power_lin``
    and ``sources`` are laid out as in :class:`PathSet`.
    """

    relative: bool
    angles: np.ndarray
    offsets: np.ndarray
    offset_bound: float
    ratios: np.ndarray
    raw_power_lin: np.ndarray
    sources: tuple[tuple[SourceKind, int, slice], ...]

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
    if direct:
        # Scaling each scattered row as soon as it is drawn gives every power
        # the same two multiplies, in the same order, as one pass over all
        # rows after the loop would, so the powers have that pass's bits.
        scatter_scale, direct_share = _rice_split(config.rice_factor_db)
    raw = np.empty((clusters.size + 1) * n + direct)
    # One row of n per cluster, then local scattering; the direct path is last.
    raw_rows = raw[:raw.size - direct].reshape(-1, n)
    angles = np.empty(raw.size)
    offsets = angles[:clusters.size * n].reshape(clusters.size, n)
    ratios = _half_angle_ratio(eccentricity_from_delay(delays[clusters],
                                                       config.txrx_distance_m).reshape(-1, 1))
    offset_bound = 0.0
    sources = []
    for row, i in enumerate(clusters):
        offset_bound = max(offset_bound,
                           draw_aod_offsets(config.tx_pattern, streams[i], offsets[row]))
        u = streams[i].random(out=raw_rows[row])
        u *= float(budgets[i]) / u.sum()
        if direct:
            u *= scatter_scale
        sources.append((SourceKind.CLUSTER, int(i) + 1, slice(row * n, (row + 1) * n)))

    local_rng = streams[-1]
    tail_aoa = angles[offsets.size:]
    tail_aoa[:n] = sample_von_mises(config.local_scattering, local_rng, size=n)
    u = local_rng.random(out=raw_rows[-1])
    if share > 0.0:
        u *= share / u.sum()
        if direct:
            u *= scatter_scale
    else:
        u[:] = 0.0
    sources.append((SourceKind.LOCAL_SCATTER, -1, slice(offsets.size, offsets.size + n)))

    if direct:
        raw[-1] = direct_share
        tail_aoa[-1] = 0.0
        sources.append((SourceKind.LOS, -1, slice(raw.size - 1, raw.size)))

    return Draws(relative=config.tx_pattern.kind is not PatternKind.OMNI, angles=angles,
                 offsets=offsets, offset_bound=offset_bound, ratios=ratios,
                 raw_power_lin=raw, sources=tuple(sources))


def aim_realization(draws: Draws, boresight_deg: float, out: np.ndarray) -> np.ndarray:
    """Write into ``out``, a float array with one entry per path, the arrival
    angles that ``draws`` give with the transmit beam turned to
    ``boresight_deg`` (a wrapped angle, as ``AntennaPattern`` holds it; an
    omni transmitter ignores it), and return ``out``: those of
    :func:`run_realization` at that boresight, from the same stream, bit
    for bit. ``out=draws.angles`` aims in the draws' own buffer and uses
    them up. The wrap and the fix-up at 180 run only where the boresight
    and ``offset_bound`` reach +-180 (see ``geometry._aoa_in_place``).
    """
    departures = out[:draws.offsets.size].reshape(draws.offsets.shape)
    shift = boresight_deg if draws.relative else 0.0
    # The bounds and the + 0.0 are what _aoa_in_place's skips and signs need.
    np.add(draws.offsets, shift + 0.0, out=departures)
    m = draws.offset_bound
    _aoa_in_place(departures, draws.ratios, (shift - m, shift + m))
    out[draws.offsets.size:] = draws.tail_aoa
    return out


def run_realization(config: ScenarioConfig,
                    rng: np.random.Generator | None = None) -> PathSet:
    """Generate one set of propagation paths for the scenario: the draws of
    :func:`draw_realization` (``rng`` as there), aimed at the transmit
    boresight (:func:`aim_realization`), then weighted by the receive
    pattern (:func:`reweight`).

    The paths hold one float array of angles and one of raw powers, plus
    the weighted powers of a directional receiver: the draws are aimed in
    their own buffer, and an omni receiver's ``power_lin`` is the raw-power
    array itself. Neither moves a bit: the aim adds the boresight and maps
    each angle element by element, so every output reads only its own
    input, and a gain of exactly 1 would change no power.
    """
    draws = draw_realization(config, rng)
    aoa = aim_realization(draws, config.tx_pattern.boresight_deg, draws.angles)
    raw = draws.raw_power_lin
    return reweight(PathSet(aoa, raw, raw, draws.sources), config.rx_pattern)


def reweight(paths: PathSet, rx_pattern: AntennaPattern) -> PathSet:
    """The same paths with ``power_lin`` recomputed from ``raw_power_lin``
    under another receive pattern. The angle and raw-power arrays and the
    ``sources`` are shared with ``paths``; nothing in ``paths`` is modified.
    An omni pattern weights nothing: its ``power_lin`` is
    ``paths.raw_power_lin`` itself (see :func:`run_realization`)."""
    raw = weighted = paths.raw_power_lin
    if rx_pattern.kind is not PatternKind.OMNI:
        weighted = power_gain(rx_pattern, paths.aoa_deg)
        weighted *= raw
    return PathSet(paths.aoa_deg, raw, weighted, paths.sources)
