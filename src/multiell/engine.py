"""One Monte Carlo realization: ellipses from the scaled profile, antenna-
shaped departure angles, the single-bounce map to arrival angles, per-path
powers, receive-pattern weighting, local scattering, and an optional direct
path controlled by a Rice factor.

Randomness: each realization's generator is seeded from the config's seed
and a stream key (see :func:`draw_realization`), then split into independent
substreams, one per profile tap plus one for local scattering, so changing
the path count of one cluster never perturbs another cluster's draws.
:class:`PathSet` states the fixed path layout.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .antenna import AntennaPattern, PatternKind, _gain_in_place, draw_aod_offsets, power_gain
from .errors import ConfigError
from .geometry import (DEGENERATE_DELAY_S, _as_int, _half_angle_ratio, _number, _positive,
                       _shown, eccentricity_from_delay)
from .pdp import NormalizedPdp, _require_delay_spread, scale_pdp
from .scattering import VonMisesParams, sample_von_mises

_MAX_SEED = 2**64
# 5x the densest benchmark run; with the bundled profile that is 23M paths,
# 184 MB per float array. run_realization holds two such arrays, three aimed
# off 0 or under a directional rx, four while that rx's gain takes a wrap
# candidate; a `pas` run (stats.realization_pas) holds
# none: it reduces one source row at a time, in two row buffers of 8 MB each,
# with the binner's few row-sized temporaries.
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

    The engine's paths meet this contract as made; user paths given to
    ``angular_spread`` or ``estimate_pas`` are checked against it once, in
    this order, and the first fault raises, naming the array or first path:
    ``aoa_deg`` and ``power_lin`` are 1-D arrays of float64 or a narrower
    float (taken as float64), else ``BadPaths``; of one size, else
    ``BadAngle``; every angle lies in [-180, 180], else ``BadAngle``; every
    power is finite and >= 0, else ``NoPower``; and ``sources`` is a tuple
    whose slices tile the paths in order, else ``BadPaths``.
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
        for name, kind in (("pdp", NormalizedPdp), ("tx_pattern", AntennaPattern),
                           ("rx_pattern", AntennaPattern), ("local_scattering", VonMisesParams)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be of type {kind.__name__},"
                                  f" got {type(getattr(self, name)).__name__}")
        _number("txrx_distance_m", self.txrx_distance_m, ConfigError, "finite and > 0", _positive)
        _require_delay_spread(self.pdp, self.ds_s, ConfigError)
        if not 1 <= _as_int("paths_per_cluster", self.paths_per_cluster) <= _MAX_PATHS_PER_CLUSTER:
            raise ConfigError(f"paths_per_cluster must be in [1, {_MAX_PATHS_PER_CLUSTER}],"
                              f" got {_shown(int(self.paths_per_cluster))}")
        if not 0 <= _as_int("seed", self.seed) < _MAX_SEED:
            raise ConfigError("seed must be a 64-bit unsigned integer,"
                              f" got {_shown(int(self.seed))}")
        if self.rice_factor_db is not None:  # +-inf dB is legal
            _number("rice_factor_db", self.rice_factor_db, ConfigError, "a number or None",
                    lambda k: not math.isnan(k))


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

    ``angles`` has an entry per path. Its head, ``tangents``, is a view with
    one row of ``paths_per_cluster`` entries per geometric cluster: the
    half-angle tangent tan(o / 2) of each departure draw o, taken one
    ``tan`` per path when drawn; o is relative to the boresight if
    ``relative`` (an omni transmitter's o is the departure itself). Its
    tail, ``tail_aoa``, holds the arrival angles of local scattering, then
    of the direct path under a Rice factor. ``ratios`` has one row per
    cluster, (1 - e) / (1 + e) for its eccentricity e. ``raw_power_lin``
    and ``sources`` are laid out as in :class:`PathSet`.
    """

    relative: bool
    angles: np.ndarray
    tangents: np.ndarray
    ratios: np.ndarray
    raw_power_lin: np.ndarray
    sources: tuple[tuple[SourceKind, int, slice], ...]

    @property
    def tail_aoa(self) -> np.ndarray:
        return self.angles[self.tangents.size:]


def draw_realization(config: ScenarioConfig, stream_key: tuple[int, ...] = ()) -> Draws:
    """Make every random draw of one realization of ``config``.

    Per non-degenerate cluster i, exactly ``paths_per_cluster`` departure
    draws from the transmit pattern, then as many uniform draws that split
    the cluster's power budget. Degenerate clusters (zero-delay taps)
    contribute their power to the local-scattering budget unless an explicit
    power share is configured. Local scattering adds ``paths_per_cluster``
    von Mises paths. Under a finite Rice factor one direct path at 0 degrees
    takes K/(K+1) of the total. Pre-weighting powers always sum to one.

    The draws come from one PCG64 generator whose seed entropy is
    ``(config.seed, *stream_key)``, the one place a seed is read; the empty
    key gives the stream of ``config.seed`` alone. The key must be a
    sequence of integers >= 0, or ``ConfigError`` is raised.
    """
    rows = _draw_rows(config, stream_key, stacked=True)
    raw, angles, ratios = next(rows)
    sources = tuple((kind, tap, paths) for kind, tap, paths, _, _ in rows)
    n = config.paths_per_cluster
    return Draws(relative=_steer(config.tx_pattern) is not None, angles=angles,
                 tangents=angles[:ratios.size * n].reshape(ratios.size, n), ratios=ratios,
                 raw_power_lin=raw, sources=sources)


def _draw_rows(config: ScenarioConfig, stream_key, stacked: bool):
    # The draw loop of draw_realization, one source row at a time in stream
    # order, as a generator. Its first item is (raw, angles, ratios): the
    # raw-power and angle buffers, one entry per path if ``stacked``, else
    # one row's worth that every row reuses; and each cluster's half-angle
    # ratio, shaped (clusters, 1). Then, as each row is filled, (kind, tap,
    # paths, angles, raw): its entry of PathSet.sources and its views of the
    # two buffers; the angles are Draws.tangents for a cluster row and
    # arrival angles otherwise.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (config.seed, *_stream_key_entries(stream_key)))))

    scaled = scale_pdp(config.pdp, config.ds_s)
    n = config.paths_per_cluster
    delays = scaled.excess_delays_s
    powers = scaled.powers_lin
    geometric = delays > DEGENERATE_DELAY_S

    share = config.local_scattering.power_share
    if not geometric.any():
        share = 1.0
    elif share is None:
        share = float(powers[~geometric].sum())
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
    # One row of n per cluster, then local scattering; the direct path is last.
    size = (clusters.size + 1) * n + direct
    raw = np.empty(size if stacked else n)
    angles = np.empty(raw.size)
    ratios = _half_angle_ratio(eccentricity_from_delay(delays[clusters],
                                                       config.txrx_distance_m).reshape(-1, 1))
    yield raw, angles, ratios

    def row(start: int, stop: int) -> tuple[slice, np.ndarray, np.ndarray]:
        paths = slice(start, stop)
        held = paths if stacked else slice(stop - start)
        return paths, angles[held], raw[held]

    for r, i in enumerate(clusters):
        paths, tangents, u = row(r * n, (r + 1) * n)
        draw_aod_offsets(config.tx_pattern, streams[i], tangents)
        tangents *= math.pi / 360.0
        np.tan(tangents, out=tangents)
        streams[i].random(out=u)
        u *= float(budgets[i]) / u.sum()
        if direct:
            u *= scatter_scale
        yield SourceKind.CLUSTER, int(i) + 1, paths, tangents, u

    local_rng = streams[-1]
    paths, aoa, u = row(clusters.size * n, (clusters.size + 1) * n)
    sample_von_mises(config.local_scattering, local_rng, aoa)
    local_rng.random(out=u)
    if share > 0.0:
        u *= share / u.sum()
        if direct:
            u *= scatter_scale
    else:
        u[:] = 0.0
    yield SourceKind.LOCAL_SCATTER, -1, paths, aoa, u

    if direct:
        paths, aoa, u = row(size - 1, size)
        u[:] = direct_share
        aoa[:] = 0.0
        yield SourceKind.LOS, -1, paths, aoa, u


def _stream_key_entries(stream_key) -> list[int]:
    # The entries of ``stream_key`` as Python ints, each of them >= 0.
    try:
        entries = [operator.index(k) for k in stream_key]
    except TypeError:  # not iterable, or an entry that is not an integer
        entries = None
    if entries is None or min(entries, default=0) < 0:
        raise ConfigError("stream_key must be a sequence of integers >= 0,"
                          f" got {_shown(stream_key)}")
    return entries


def _aim(tangents: np.ndarray, ratios: np.ndarray, turn_deg: float, out: np.ndarray,
         scratch: np.ndarray | None = None) -> np.ndarray:
    # Writes into ``out`` (shaped like ``tangents``, which may be ``out``
    # itself) the arrival angles of departures b + o, where ``tangents``
    # holds t = tan(o / 2) and b = ``turn_deg``, the angle the draws turn by
    # (``_steer(tx) or 0.0``); ``ratios`` broadcasts against them. By tangent
    # addition tan((b + o) / 2) = (t + t_b) / (1 - t_b * t) with t_b =
    # tan(b / 2), and tan(aoa / 2) is r times that: both have period 360
    # degrees in b + o, so no departure is wrapped. At t_b = +-0 the quotient
    # is t. ``scratch``, shaped like ``out`` and apart from ``tangents``,
    # takes its denominator; or one is made.
    t_b = math.tan(turn_deg * (math.pi / 360.0))
    quotient = tangents
    if t_b:
        denominator = np.multiply(tangents, -t_b, out=scratch)
        denominator += 1.0
        quotient = np.add(tangents, t_b, out=out)
        with np.errstate(divide="ignore"):  # a zero denominator: +-inf, a half turn
            quotient /= denominator
    np.multiply(quotient, ratios, out=out)
    np.arctan(out, out=out)
    out *= 360.0 / math.pi
    # arctan is at most pi / 2 as rounded, which scales to 180 exactly: the
    # half turn arrives as 180 or -180, and -180 is sent to 180.
    if out.min(initial=0.0) == -180.0:
        out[out == -180.0] = 180.0
    return out


def run_realization(config: ScenarioConfig, stream_key: tuple[int, ...] = ()) -> PathSet:
    """Generate one set of propagation paths for the scenario: the draws of
    :func:`draw_realization` (``stream_key`` as there), aimed at the transmit
    boresight, then weighted by the receive pattern as :func:`reweight`
    weights them. It is the one-key, one-point case of the loop that runs
    every trial of :func:`~multiell.stats.sweep_as`.

    The paths hold one float array of angles and one of raw powers, plus
    the weighted powers of a directional receiver: the draws are aimed in
    their own buffer, and an omni receiver's ``power_lin`` is the raw-power
    array itself. Neither moves a bit: the aim maps each tangent element by
    element, so every output reads only its own input, and a gain of
    exactly 1 would change no power.
    """
    return _grid(config, [stream_key], [(config.tx_pattern, config.rx_pattern)],
                 lambda d, aoa, power, _: PathSet(aoa, d.raw_power_lin, power, d.sources))[0][0]


def _steer(pattern: AntennaPattern) -> float | None:
    # What a pattern's orientation adds to a point: its boresight, or None
    # for an omni pattern, whose boresight nothing reads. An omni
    # transmitter's draws are the departures themselves, turned by no angle,
    # and an omni receiver weights nothing.
    return None if pattern.kind is PatternKind.OMNI else pattern.boresight_deg


def _grid(config: ScenarioConfig, stream_keys, points, reduce, spare: bool = False) -> list:
    # The one aim-and-weight loop: per stream key, draws once, then aims and
    # weights at the (tx, rx) pattern pairs of ``points`` (config's patterns
    # up to their boresights) and keeps reduce(draws, aoa, power, free), in
    # one list per key with one entry per point. A point's key is its pair
    # of _steer parts, so -180 and 180 are one point, and so are +0 and -0,
    # which compare and hash alike and which the aim and the gain treat
    # alike. Each distinct point is computed once per stream key, first as
    # it comes, and its entry serves every point with its key. The draws are
    # aimed in their own buffer where the tx part never changes, else again
    # at each new one into one buffer of arrival angles; ``power`` is the
    # raw-power array itself under an omni receiver; ``free`` is a spare
    # path-sized buffer if ``spare``, else None. The buffers are allocated
    # at the first key and overwritten at the next point or key; a key's
    # draws are released before the next draw.
    keys = [(_steer(tx), _steer(rx)) for tx, rx in points]
    distinct = {}
    for key, point in zip(keys, points):
        distinct.setdefault(key, point)
    directional = _steer(config.rx_pattern) is not None
    # The gain kernel needs a span bounding the aimed angles, which lie in
    # [-180, 180]. At a receive boresight of +-0 neither (-180, 180) nor a
    # scanned span calls for a wrap candidate, so both give the same bits:
    # only a directional receiver turned off 0 somewhere scans, once per aim.
    ranged = any(rx for _, rx in distinct)
    span = (-180.0, 180.0)
    # The beam turns only where the points hold more than one tx part; an
    # omni transmitter's is None at every point.
    turns = len({tx for tx, _ in distinct}) > 1
    results = []
    for stream_key in stream_keys:
        draws = draw_realization(config, stream_key)
        raw, tangents = draws.raw_power_lin, draws.tangents
        if not results:
            weighted = np.empty(raw.size) if directional or spare else None
            free = (np.empty(raw.size) if directional else weighted) if spare else None
            turned = np.empty(raw.size) if turns else None
        aoa = turned if turns else draws.angles
        aoa[tangents.size:] = draws.tail_aoa  # onto itself where the beam never turns
        done = {}
        for key, (_, rx) in distinct.items():
            # The first point aims whatever its tx part: an omni one is None.
            if not done or key[0] != aimed:
                aimed = key[0]
                _aim(tangents, draws.ratios, aimed or 0.0,
                     aoa[:tangents.size].reshape(tangents.shape),
                     None if weighted is None else weighted[:tangents.size].reshape(tangents.shape))
                if ranged:
                    span = (float(aoa.min()), float(aoa.max()))
            power = raw
            if directional:
                power = _gain_in_place(rx, aoa, span, weighted, free)
                power *= raw
            done[key] = reduce(draws, aoa, power, free)
        results.append([done[key] for key in keys])
        del draws, raw, tangents, aoa, power  # the next key's draws replace these
    return results


def _realization_rows(config: ScenarioConfig):
    # run_realization(config) a source row at a time, in two reused row
    # buffers: yields each row's (angles, powers) in path order, one per
    # entry of PathSet.sources, as views of the buffers that the next row
    # overwrites: its arrival angles and its power_lin. The bits are
    # run_realization's: the aim and the gain act element by element, and a
    # row's own angle span, within the whole realization's, skips only work
    # that would change no bit (see antenna._gain_in_place).
    rows = _draw_rows(config, (), stacked=False)
    _, _, ratios = next(rows)
    turn, rx = _steer(config.tx_pattern) or 0.0, config.rx_pattern
    for r, (kind, _, _, angles, powers) in enumerate(rows):
        if kind is SourceKind.CLUSTER:
            _aim(angles, ratios[r], turn, angles)
        if _steer(rx) is not None:
            # The gain times the raw power, as reweight multiplies them.
            np.multiply(power_gain(rx, angles), powers, out=powers)
        yield angles, powers


def reweight(paths: PathSet, rx_pattern: AntennaPattern) -> PathSet:
    """The same paths with ``power_lin`` recomputed from ``raw_power_lin``
    under another receive pattern. The angle and raw-power arrays and the
    ``sources`` are shared with ``paths``; nothing in ``paths`` is modified.
    An omni pattern weights nothing: its ``power_lin`` is
    ``paths.raw_power_lin`` itself (see :func:`run_realization`). Under a
    directional pattern, a NaN or +-inf angle gives a NaN power."""
    raw = weighted = paths.raw_power_lin
    if _steer(rx_pattern) is not None:
        weighted = power_gain(rx_pattern, paths.aoa_deg)
        weighted *= raw
    return PathSet(paths.aoa_deg, raw, weighted, paths.sources)
