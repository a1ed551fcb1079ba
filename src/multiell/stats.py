"""Angle statistics: rms angle spread, power angular spectrum estimation,
and orientation sweeps."""

from __future__ import annotations

import enum
import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .engine import PathSet, ScenarioConfig, _grid, _realization_rows
from .errors import BadAngle, BadBinWidth, BadPaths, ConfigError, NoPower
from .geometry import _PAS_BLOCK, _as_int, _floats, _number, _positive


class SweepAxis(enum.Enum):
    TX_ORIENTATION = "tx"
    RX_ORIENTATION = "rx"


_AXIS_CODE = {SweepAxis.TX_ORIENTATION: 1, SweepAxis.RX_ORIENTATION: 2}

# Realizations per sweep angle, and PAS bin width in degrees, when none is given.
DEFAULT_TRIALS = 10
DEFAULT_BIN_WIDTH_DEG = 1.0

# 0.0001-degree bins; the bin edges alone then take 29 MB.
_MAX_PAS_BINS = 3_600_000

# Half the band, in bins, around each PAS bin edge inside which
# numpy.histogram's two comparisons against the edges settle an angle's bin.
# Outside it the floor of the position q = fl(fl(x - lo) * fl(1 / width)) is
# exact: q takes three roundings of relative size u = 2**-53, at most
# 3u * 3.6e6 < 1.2e-9 bins at the most bins allowed, and each edge
# fl(-180 + fl(width * k)) is off by at most 540u degrees, under 6e-10 bins
# at the narrowest width (1e-4 degrees). A q more than 1e-6 from every whole
# number is thus more than 1e-6 - 2e-9 bins from every edge as rounded, a
# margin above 100x. So every bin holds exactly numpy.histogram's angles.
_EDGE_BAND = 1e-6

# Path-power totals taken as they are; see _total_power.
_MIN_TOTAL_POWER = 1e-300
_MAX_TOTAL_POWER = 1e300

# 1,000x the figure sweeps; each trial is a realization at every angle.
_MAX_SWEEP_TRIALS = 10_000


@dataclass(frozen=True)
class AngularSpectrum:
    """Power-weighted arrival-angle density on uniform circular bins;
    ``density_per_deg`` integrates to one over (-180, 180]."""

    bin_centers_deg: np.ndarray
    density_per_deg: np.ndarray
    bin_width_deg: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Angle spreads of an orientation sweep: ``as_deg[j, t]`` is trial
    ``t``'s spread at ``angles_deg[j]``. Per angle, the transmit and receive
    boresights that ran (wrapped into (-180, 180]), and the mean and sample
    standard deviation of its row (0 for a single trial)."""

    axis: SweepAxis
    angles_deg: np.ndarray
    tx_boresight_deg: np.ndarray
    rx_boresight_deg: np.ndarray
    mean_as_deg: np.ndarray
    std_as_deg: np.ndarray
    as_deg: np.ndarray


def _total_power(power_lin: np.ndarray) -> tuple[np.ndarray, float]:
    # The powers and their total, which must be positive. A total outside
    # [_MIN_TOTAL_POWER, _MAX_TOTAL_POWER] is taken again over the powers
    # divided by the largest (a copy): finite and >= 0 (_require_paths),
    # they sum to between 1 and the path count, so none is rescaled twice.
    # Inside the range the spread's weighted sums, at most 360**2 times the
    # total, and the PAS norm, the total times a bin width of at least 1e-4,
    # neither overflow nor underflow.
    total = power_lin.sum()
    if _in_range(total):
        return power_lin, total
    return _total_power(power_lin / power_lin.max())


def _in_range(total: float) -> bool:
    # Whether a path-power total is taken as it is (see _total_power);
    # NoPower if it is not positive.
    if not total > 0.0:  # NaN fails this too
        raise NoPower(f"total path power is {total}")
    return _MIN_TOTAL_POWER <= total <= _MAX_TOTAL_POWER


def _require_paths(paths: PathSet) -> tuple[np.ndarray, np.ndarray, list]:
    # The one check of user paths: PathSet's contract, in its order. Returns
    # the angles and powers as float64 (a narrower float is copied, so that
    # no sum overflows it) and each source's (angles, powers), views of them.
    # A bad angle or power would give a garbage statistic, or an inf power no
    # finite largest to rescale by. The engine's paths meet the contract as
    # made; its routes check none.
    for name in ("aoa_deg", "power_lin"):
        a = getattr(paths, name)
        if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind == "f"
                and a.itemsize <= 8):
            got = f"a {a.ndim}-D {a.dtype} array" if isinstance(a, np.ndarray) else type(a).__name__
            raise BadPaths(f"{name} must be a 1-D array of float64 or narrower, got {got}")
    aoa, power = paths.aoa_deg.astype(float, copy=False), paths.power_lin.astype(float, copy=False)
    if aoa.size != power.size:
        raise BadAngle(f"{aoa.size} arrival angles for {power.size} path powers")
    if aoa.size and not (aoa.min() >= -180.0 and aoa.max() <= 180.0):  # NaN fails this too
        i = int(np.flatnonzero(~((aoa >= -180.0) & (aoa <= 180.0)))[0])
        raise BadAngle(f"path {i} has arrival angle {aoa[i]}, not in [-180, 180]")
    if power.size and not (power.min() >= 0.0 and power.max() < math.inf):
        i = int(np.flatnonzero(~((power >= 0.0) & (power < math.inf)))[0])
        raise NoPower(f"path {i} has power {power[i]}, not a finite number >= 0")
    if not isinstance(paths.sources, tuple):
        raise BadPaths(f"sources must be a tuple, got {type(paths.sources).__name__}")
    pieces, start = [], 0
    for source in paths.sources:
        block = source[-1] if isinstance(source, tuple) and source else None
        if not (isinstance(block, slice) and block.step is None
                and all(isinstance(i, (int, np.integer)) for i in (block.start, block.stop))
                and block.start == start <= block.stop <= aoa.size):
            raise BadPaths(f"source {source!r} does not continue the sources at path {start}")
        pieces.append((aoa[block], power[block]))
        start = int(block.stop)
    if start != aoa.size:
        raise BadPaths(f"the sources cover {start} of {aoa.size} paths")
    return aoa, power, pieces


def angular_spread(paths: PathSet) -> float:
    """rms angle spread in degrees: the square root of the power-weighted
    second central moment of the arrival angles, taken linearly on
    (-180, 180] (no circular statistics; the wrap artifact at +-180 is part
    of the definition). Takes one path-sized temporary; the precision
    arguments are at ``_spread_in_place`` and ``_total_power``. Paths that
    break :class:`~multiell.engine.PathSet`'s contract for user paths raise
    as it states; so does a total power that is not positive (``NoPower``).
    """
    aoa, power, _ = _require_paths(paths)
    with np.errstate(over="ignore"):  # a total beyond the float range is rescaled
        return _spread_in_place(aoa, power, np.empty_like(aoa))


def _spread_in_place(phi: np.ndarray, power: np.ndarray, deviation: np.ndarray) -> float:
    # angular_spread of ``power`` at ``phi`` in two passes, overwriting the
    # float array ``deviation`` (shaped like ``phi``) with the squared
    # deviations from the weighted mean. Being centered, it cancels no large
    # second moment against the squared mean, and its second sum adds
    # products of non-negative weights and squares, so it is never negative.
    # np.einsum calls no BLAS, so no thread count sets its summation order.
    power, total = _total_power(power)
    mean = np.einsum("i,i->", power, phi) / total
    np.subtract(phi, mean, out=deviation)
    np.square(deviation, out=deviation)
    return math.sqrt(np.einsum("i,i->", power, deviation) / total)


def estimate_pas(paths: PathSet, bin_width_deg: float = DEFAULT_BIN_WIDTH_DEG) -> AngularSpectrum:
    """Power-weighted histogram of arrival angles, normalized to unit mass.

    ``bin_width_deg`` must be finite and divide 360 evenly, into at most
    3,600,000 bins, or ``BadBinWidth`` is raised; then paths that break
    :class:`~multiell.engine.PathSet`'s contract for user paths raise as it
    states, and a total power that is not positive raises ``NoPower`` (see
    ``_total_power`` for totals near the limits). The bins are
    ``numpy.histogram``'s for the edges ``-180 + k * bin_width_deg``, exactly
    (see ``_EDGE_BAND``), and every path falls in one. The paths are
    reduced source by source, in ``paths.sources`` order: each bin's power
    is the sum of the sources' ``np.bincount`` partials, and the total is
    0.0 plus the sum of the sources' ``ndarray.sum``, so neither the thread
    count nor the SIMD target sets an order.
    """
    edges = _pas_edges(bin_width_deg)
    pieces = _require_paths(paths)[2]
    return _pas(lambda: pieces, edges, bin_width_deg)


def realization_pas(config: ScenarioConfig,
                    bin_width_deg: float = DEFAULT_BIN_WIDTH_DEG) -> AngularSpectrum:
    """``estimate_pas(run_realization(config), bin_width_deg)``, bit for bit,
    holding no path-sized array where that holds two or three: each source
    row of the realization is drawn, aimed and weighted in two reused row
    buffers, with temporaries a block of paths long, and binned and summed
    as it comes, the row being the source that ``estimate_pas`` reduces.
    Raises ``BadBinWidth`` as ``estimate_pas`` does, before any draw, and
    ``NoPower`` for a total that is not positive.
    """
    edges = _pas_edges(bin_width_deg)
    return _pas(lambda: _realization_rows(config), edges, bin_width_deg)


def _pas(stream, edges: np.ndarray, width: float) -> AngularSpectrum:
    # The spectrum of estimate_pas for the paths of ``stream()``, which
    # gives afresh at each call an iterable of (angles, powers) pieces in
    # path order, one per source, each read before the next is asked for,
    # with finite powers >= 0 (see _require_paths). Each piece is
    # binned into the per-bin sums and its ndarray.sum added to the total as
    # it passes; its largest power is kept. A total out of range
    # (_total_power) is reduced again from a second stream() over the powers
    # divided by the largest, which total between 1 and the path count, so
    # once; this pass's sums and last row go first, to hold no more than it.
    sums = np.zeros(edges.size - 1)
    total = peak = 0.0
    with np.errstate(over="ignore"):  # a total beyond the float range is rescaled
        for angles, powers in stream():
            peak = max(peak, float(powers.max(initial=0.0)))
            total += float(powers.sum())
            _bin_power(angles, powers, edges, width, sums)
    if not _in_range(total):
        del sums, angles, powers
        return _pas(lambda: ((a, p / peak) for a, p in stream()), edges, width)
    sums /= total * width
    return AngularSpectrum(bin_centers_deg=edges[:-1] + width / 2.0, density_per_deg=sums,
                           bin_width_deg=float(width))


def _pas_edges(bin_width_deg: float) -> np.ndarray:
    # The PAS bin edges -180 + k * bin_width_deg; BadBinWidth as estimate_pas states.
    width = _number("bin_width_deg", bin_width_deg, BadBinWidth, "finite and > 0", _positive)
    if width < 360.0 / _MAX_PAS_BINS:
        raise BadBinWidth(f"bin width {width} gives more than {_MAX_PAS_BINS} bins")
    n_bins = 360.0 / width
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise BadBinWidth(f"bin width {width} does not divide 360 evenly")
    return -180.0 + width * np.arange(int(round(n_bins)) + 1)


def _bin_power(angles: np.ndarray, powers: np.ndarray, edges: np.ndarray, width: float,
               sums: np.ndarray) -> None:
    # Adds to ``sums`` the powers per bin of estimate_pas of one piece of
    # paths, whose angles lie in [-180, 180] (_require_paths): the
    # floor of q = (x - lo) * (1 / width), settled against ``edges`` near an
    # edge. The piece is cut into blocks from its start, each
    # max(_PAS_BLOCK, bin count) paths but the last, and each block's
    # np.bincount is added in turn. The buffers are as long as the piece or
    # a block, whichever is shorter.
    n_bins = sums.size
    lo = edges[0]
    block = max(_PAS_BLOCK, n_bins)
    scale = 1.0 / width
    q = np.empty(min(block, angles.size))
    idx = np.empty(q.size, dtype=np.intp)
    for start in range(0, angles.size, block):
        x, w = angles[start:start + block], powers[start:start + block]
        qb, ib = q[:x.size], idx[:x.size]
        np.subtract(x, lo, out=qb)
        qb *= scale
        # q >= 0, as x >= lo: the cast truncates it to its floor, and taking
        # that back leaves the fractional part, exactly.
        np.copyto(ib, qb, casting="unsafe")
        qb -= ib
        near = np.flatnonzero((qb < _EDGE_BAND) | (qb > 1.0 - _EDGE_BAND))
        if near.size:
            # Only here can the floor be a bin off, or be n_bins at x == hi.
            xs = x[near]
            i = np.minimum(ib[near], n_bins - 1)
            i -= xs < edges[i]
            i += (xs >= edges[i + 1]) & (i < n_bins - 1)
            ib[near] = i
        # np.bincount over the block's own span of bins: a bin outside it
        # would add 0.0, which changes no sum (a sum starts at 0.0 and only
        # adds partials, so it is never -0.0). So the bits are those of a
        # count over every bin, at a cost set by the block: a row of one
        # path at 1e-4-degree bins does not pass over all 3.6M of them.
        first = int(ib.min(initial=n_bins))
        ib -= first
        partial = np.bincount(ib, weights=w)
        sums[first:first + partial.size] += partial


def sweep_as(config: ScenarioConfig, axis: SweepAxis, angles_deg,
             trials: int = DEFAULT_TRIALS) -> SweepResult:
    """Angle spread versus one antenna orientation.

    For each angle the corresponding boresight is overridden and
    ``trials`` independent realizations are run, one row of
    ``SweepResult.as_deg`` per angle. Raises ``ConfigError`` for an ``axis``
    that is not a ``SweepAxis``, angles that are not a sequence of numbers
    or are none, and ``trials`` that is not an integer in [1, 10,000].

    Trial t's spread at an angle equals
    ``angular_spread(run_realization(point_config, (code, t)))`` bit for bit,
    where ``point_config`` is ``config`` with that boresight and ``code`` is
    1 for the tx axis and 2 for the rx axis. Every angle shares the trial's
    stream, so each trial is drawn once (``antenna.draw_aod_offsets``). Each
    distinct point is computed once per trial and its spread copied to the
    rows that repeat it, a point being what the engine's one aim-and-weight
    loop (``engine._grid``) takes it to be: -180 and 180 are one point, and
    an omni end's boresight is no part of one, so an omni-receiver rx sweep
    computes one spread per trial. Besides the draws, a sweep holds at most
    three path-sized buffers, allocated once: the arrival angles of a
    turning beam, the weighted powers and the deviations, which share one
    buffer under an omni receiver.
    """
    if not isinstance(axis, SweepAxis):
        raise ConfigError(f"axis must be a SweepAxis, got {axis!r}")
    angles = _floats("angles_deg", angles_deg, ConfigError, "a sequence of numbers")
    if angles.ndim != 1:
        raise ConfigError("angles_deg must be a sequence of numbers,"
                          f" got {reprlib.repr(angles_deg)}")
    angles = angles.tolist()
    if _as_int("trials", trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials > _MAX_SWEEP_TRIALS:
        raise ConfigError(f"trials {trials} exceeds the limit of {_MAX_SWEEP_TRIALS}")
    if not angles:
        raise ConfigError("angles must be non-empty")

    tx, rx = config.tx_pattern, config.rx_pattern
    if axis is SweepAxis.TX_ORIENTATION:
        points = [(replace(tx, boresight_deg=a), rx) for a in angles]
    else:
        points = [(tx, replace(rx, boresight_deg=a)) for a in angles]
    computed = _grid(config, [(_AXIS_CODE[axis], t) for t in range(trials)], points,
                     lambda draws, aoa, power, free: _spread_in_place(aoa, power, free),
                     spare=True)
    # Angle-major and C-contiguous: numpy sums the rows of a transposed table
    # in another order, which would move the bits of the mean and std.
    spreads = np.array(computed).T.copy()
    std = spreads.std(axis=1, ddof=1) if trials > 1 else np.zeros(len(angles))
    return SweepResult(axis=axis, angles_deg=np.array(angles),
                       tx_boresight_deg=np.array([tx_j.boresight_deg for tx_j, _ in points]),
                       rx_boresight_deg=np.array([rx_j.boresight_deg for _, rx_j in points]),
                       mean_as_deg=spreads.mean(axis=1), std_as_deg=std, as_deg=spreads)
