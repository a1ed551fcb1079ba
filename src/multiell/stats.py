"""Angle statistics: rms angle spread, power angular spectrum estimation,
and orientation sweeps."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .antenna import PatternKind, _gain_in_place
from .engine import PathSet, ScenarioConfig, aim_realization, draw_realization
from .errors import BadBinWidth, ConfigError, NoPower


class SweepAxis(enum.Enum):
    TX_ORIENTATION = "tx"
    RX_ORIENTATION = "rx"


_AXIS_CODE = {SweepAxis.TX_ORIENTATION: 1, SweepAxis.RX_ORIENTATION: 2}

# Realizations per sweep angle, and PAS bin width in degrees, when none is given.
DEFAULT_TRIALS = 10
DEFAULT_BIN_WIDTH_DEG = 1.0

# 0.0001-degree bins; the bin edges alone then take 29 MB.
_MAX_PAS_BINS = 3_600_000

# Paths per block of the PAS reduction, raised to the bin count where that is
# larger: each block's temporaries stay a few hundred kB at 0.1-degree bins.
_PAS_BLOCK = 2**15

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
    # divided by the largest (a copy), which sum to between 1 and the path
    # count. Inside the range the spread's weighted sums, at most 360**2
    # times the total, and the PAS norm, the total times a bin width of at
    # least 1e-4, neither overflow nor underflow.
    total = power_lin.sum()
    if not total > 0.0:  # NaN fails this too
        raise NoPower(f"total path power is {total}")
    if _MIN_TOTAL_POWER <= total <= _MAX_TOTAL_POWER:
        return power_lin, total
    peak = power_lin.max()
    if peak == math.inf:
        raise NoPower(f"path {int(power_lin.argmax())} has power inf, not a finite number")
    power_lin = power_lin / peak
    return power_lin, power_lin.sum()


def _require_path_powers(power_lin: np.ndarray) -> None:
    # A negative power would pass a positive total and give a garbage
    # result. The sweep's weights, gain times raw power, need no check.
    if power_lin.size and not power_lin.min() >= 0.0:  # NaN fails this too
        i = int(np.flatnonzero(~(power_lin >= 0.0))[0])
        raise NoPower(f"path {i} has power {power_lin[i]}, not a number >= 0")


def angular_spread(paths: PathSet) -> float:
    """rms angle spread in degrees: the square root of the power-weighted
    second central moment of the arrival angles, taken linearly on
    (-180, 180] (no circular statistics; the wrap artifact at +-180 is part
    of the definition). Takes one path-sized temporary; the precision
    arguments are at ``_spread_in_place`` and ``_total_power``. Raises
    ``NoPower``, naming the path, for a negative, NaN or infinite power, and
    for a total that is not positive."""
    _require_path_powers(paths.power_lin)
    with np.errstate(over="ignore"):  # a total beyond the float range is rescaled
        return _spread_in_place(paths.aoa_deg, paths.power_lin, np.empty_like(paths.aoa_deg))


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
    3,600,000 bins, or ``BadBinWidth`` is raised. The bins are
    ``numpy.histogram``'s for the edges ``-180 + k * bin_width_deg``, exactly
    (see ``_EDGE_BAND``); angles outside the edges and NaN count in the
    total power only. Each bin's power is a sum in path order, block by
    block, whatever the thread count or SIMD target. Raises ``NoPower``,
    naming the path, for a negative, NaN or infinite power, and for a total
    that is not positive (see ``_total_power`` for totals near the limits).
    """
    if not (bin_width_deg > 0.0 and math.isfinite(bin_width_deg)):
        raise BadBinWidth(f"bin width must be finite and > 0, got {bin_width_deg}")
    if bin_width_deg < 360.0 / _MAX_PAS_BINS:
        raise BadBinWidth(f"bin width {bin_width_deg} gives more than {_MAX_PAS_BINS} bins")
    n_bins = 360.0 / bin_width_deg
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise BadBinWidth(f"bin width {bin_width_deg} does not divide 360 evenly")
    n_bins = int(round(n_bins))

    _require_path_powers(paths.power_lin)
    with np.errstate(over="ignore"):  # a total beyond the float range is rescaled
        power, total = _total_power(paths.power_lin)
    edges = -180.0 + bin_width_deg * np.arange(n_bins + 1)
    density = _bin_power(paths.aoa_deg, power, edges, bin_width_deg)
    density /= total * bin_width_deg
    centers = edges[:-1] + bin_width_deg / 2.0
    return AngularSpectrum(bin_centers_deg=centers, density_per_deg=density,
                           bin_width_deg=float(bin_width_deg))


def _bin_power(angles: np.ndarray, power: np.ndarray, edges: np.ndarray,
               width: float) -> np.ndarray:
    # Sums of ``power`` per bin of estimate_pas: the floor of
    # q = (x - lo) * (1 / width), settled against ``edges`` near an edge.
    n_bins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    block = max(_PAS_BLOCK, n_bins)
    scale = 1.0 / width
    q, k = np.empty((2, min(block, angles.size)))
    idx = np.empty(q.size, dtype=np.intp)
    sums = np.zeros(n_bins)
    for start in range(0, angles.size, block):
        x = angles[start:start + block]
        w = power[start:start + block]
        if not (x.min() >= lo and x.max() <= hi):  # NaN fails this too
            inside = (x >= lo) & (x <= hi)
            x, w = x[inside], w[inside]
        qb, kb, ib = q[:x.size], k[:x.size], idx[:x.size]
        np.subtract(x, lo, out=qb)
        qb *= scale
        np.floor(qb, out=kb)
        np.copyto(ib, kb, casting="unsafe")
        qb -= kb  # the fractional part, exactly
        near = np.flatnonzero((qb < _EDGE_BAND) | (qb > 1.0 - _EDGE_BAND))
        if near.size:
            # Only here can the floor be a bin off, or be n_bins at x == hi.
            xs = x[near]
            i = np.minimum(ib[near], n_bins - 1)
            i -= xs < edges[i]
            i += (xs >= edges[i + 1]) & (i < n_bins - 1)
            ib[near] = i
        sums += np.bincount(ib, weights=w, minlength=n_bins)
    return sums


def _point_rng(seed: int, axis: SweepAxis, trial: int) -> np.random.Generator:
    # One stream per (seed, axis, trial); sweep angles share it so that an
    # omni receiver yields bit-identical paths across orientations.
    ss = np.random.SeedSequence((int(seed), _AXIS_CODE[axis], int(trial)))
    return np.random.Generator(np.random.PCG64(ss))


def sweep_as(config: ScenarioConfig, axis: SweepAxis, angles_deg,
             trials: int = DEFAULT_TRIALS) -> SweepResult:
    """Angle spread versus one antenna orientation.

    For each angle the corresponding boresight is overridden and
    ``trials`` independent realizations are run, one row of
    ``SweepResult.as_deg`` per angle. Raises ``ConfigError`` for no angles
    and for ``trials`` outside [1, 10,000].

    Every spread equals :func:`angular_spread` of ``run_realization`` at that
    point, from the trial's stream, bit for bit. Every angle shares that
    stream, so each trial is drawn once (``antenna.draw_aod_offsets``) and
    aimed again only when the transmit boresight changes, into three
    path-sized buffers allocated once per sweep.
    """
    angles = [float(a) for a in angles_deg]
    if trials < 1:
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
    spreads = np.empty((len(angles), trials))
    # The gain kernel needs a span bounding the aimed angles, which lie in
    # [-180, 180]. At a receive boresight of +-0 neither (-180, 180) nor a
    # scanned span calls for a wrap candidate, so both give the same bits:
    # only a directional receiver turned off 0 somewhere scans, once per aim.
    directional = rx.kind is not PatternKind.OMNI
    ranged = directional and any(rx_j.boresight_deg != 0.0 for _, rx_j in points)
    span = (-180.0, 180.0)
    aoa = None
    for trial in range(trials):
        draws = draw_realization(config, _point_rng(config.seed, axis, trial))
        raw = draws.raw_power_lin
        if aoa is None:
            aoa, weighted, scratch = np.empty((3, raw.size))
        aimed = None
        for j, (tx_j, rx_j) in enumerate(points):
            # Omni draws are the departures themselves: one aim serves all.
            if aimed is None or draws.relative and tx_j.boresight_deg != aimed:
                aimed = tx_j.boresight_deg
                aim_realization(draws, aimed, aoa)
                if ranged:
                    span = (float(aoa.min()), float(aoa.max()))
            power = raw
            if directional:
                power = _gain_in_place(rx_j, aoa, span, weighted, scratch)
                power *= raw
            spreads[j, trial] = _spread_in_place(aoa, power, scratch)

    std = spreads.std(axis=1, ddof=1) if trials > 1 else np.zeros(len(angles))
    return SweepResult(axis=axis, angles_deg=np.array(angles),
                       tx_boresight_deg=np.array([tx_j.boresight_deg for tx_j, _ in points]),
                       rx_boresight_deg=np.array([rx_j.boresight_deg for _, rx_j in points]),
                       mean_as_deg=spreads.mean(axis=1), std_as_deg=std, as_deg=spreads)
