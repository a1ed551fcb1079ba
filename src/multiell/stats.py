"""Angle statistics: rms angle spread, power angular spectrum estimation,
and orientation sweeps."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .antenna import PatternKind
from .engine import PathSet, ScenarioConfig, aim_realization, draw_realization, reweight
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

# Half the band, in bins, around each PAS bin edge in which an angle's bin
# by floor is checked against the edges. The floor is exact outside it: the
# position q = fl(fl(x - lo) * fl(1 / width)) takes three roundings of
# relative size u = 2**-53, at most 3u * 3.6e6 < 1.2e-9 bins at the most
# bins allowed, and each edge fl(-180 + fl(width * k)) is off by at most
# 540u degrees, under 6e-10 bins at the narrowest width (1e-4 degrees).
# An angle whose q lies more than 1e-6 from every whole number is thus more
# than 1e-6 - 2e-9 bins from every edge as rounded, a margin above 100x.
_EDGE_BAND = 1e-6

# Path powers whose total lies outside this range are divided by the
# largest of them first. Above it the spread's weighted sums, at most 360**2
# times the total, or the PAS norm, the total times the bin width, could
# overflow; below it that norm (the width is at least 1e-4) could underflow.
_MIN_TOTAL_POWER = 1e-300
_MAX_TOTAL_POWER = 1e300

# 1,000x the figure sweeps; each trial is a realization at every angle.
_MAX_SWEEP_TRIALS = 10_000


@dataclass(frozen=True)
class AngularSpectrum:
    """Power-weighted arrival-angle density on uniform circular bins.

    ``density_per_deg`` integrates to one over (-180, 180].
    """

    bin_centers_deg: np.ndarray
    density_per_deg: np.ndarray
    bin_width_deg: float


@dataclass(frozen=True)
class SweepResult:
    """Per-(angle, trial) angle spreads plus per-angle aggregates."""

    axis: SweepAxis
    rows: list[tuple[float, float, int, float]]  # (alpha_t, alpha_r, trial, as_deg)
    aggregate: list[tuple[float, float, float]]  # (angle, mean_as_deg, std_as_deg)


def _total_power(power_lin: np.ndarray) -> tuple[np.ndarray, float]:
    # The powers and their total, which must be positive. A total outside
    # [_MIN_TOTAL_POWER, _MAX_TOTAL_POWER] is taken again over the powers
    # divided by the largest, which then sum to between 1 and the path count.
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
    of the definition).

    The moment is centered: the weighted mean first, then the weighted
    mean square of the deviations from it, so no large second moment
    cancels against the squared mean. The path powers are left as they
    are; the deviations take one path-sized array. Powers whose total is
    above 1e300 or below 1e-300 are divided by the largest of them first
    (a copy), so the weighted sums neither overflow nor lose their digits.
    Raises ``NoPower``, naming the path, for a negative, NaN or infinite
    power, and for a total that is not positive."""
    _require_path_powers(paths.power_lin)
    with np.errstate(over="ignore"):  # a total beyond the float range is rescaled
        return _spread_in_place(paths.aoa_deg, paths.power_lin, np.empty_like(paths.aoa_deg))


def _spread_in_place(phi: np.ndarray, power: np.ndarray, deviation: np.ndarray) -> float:
    # angular_spread of ``power`` at ``phi`` in two passes, overwriting the
    # float array ``deviation`` (shaped like ``phi``) with the squared
    # deviations from the weighted mean. np.einsum sums the products in the
    # same order for any thread count; it calls no BLAS, unlike np.dot.
    power, total = _total_power(power)
    mean = np.einsum("i,i->", power, phi) / total
    np.subtract(phi, mean, out=deviation)
    np.square(deviation, out=deviation)
    return math.sqrt(max(np.einsum("i,i->", power, deviation) / total, 0.0))


def estimate_pas(paths: PathSet, bin_width_deg: float = DEFAULT_BIN_WIDTH_DEG) -> AngularSpectrum:
    """Power-weighted histogram of arrival angles, normalized to unit mass.

    ``bin_width_deg`` must divide 360 evenly, into at most 3,600,000 bins.
    The bins are ``numpy.histogram``'s for the edges ``-180 + k * bin_width_deg``:
    each holds the angles in ``[edges[k], edges[k + 1])``, and the last one
    holds ``edges[-1]`` too. Angles outside ``[edges[0], edges[-1]]`` and NaN
    stay out of every bin but still count in the total power. Each bin's
    power is a sum in path order, block by block, so its bits do not depend
    on the thread count or the SIMD target.

    An angle's bin is the floor of its offset from ``edges[0]`` times the
    reciprocal width. That floor is exact unless the angle lies within
    1e-6 bins of an edge: the roundings of the offset, the reciprocal, the
    product and the edges add up to under 2e-9 bins at any allowed width.
    The few angles within that band are placed by numpy.histogram's own
    comparisons against the edges, so every bin holds exactly
    numpy.histogram's angles.

    Powers whose total is above 1e300 or below 1e-300 are divided by the
    largest of them first, so that the total times the bin width neither
    overflows nor underflows. Raises ``NoPower``, naming the path, for a
    negative, NaN or infinite power, and for a total that is not positive.
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
    # Per-bin sums of ``power`` over the bins estimate_pas documents. An
    # angle's bin is the floor of its position in bins, q = (x - lo) * (1 /
    # width), except within _EDGE_BAND of an edge, where numpy.histogram's
    # two comparisons against ``edges`` settle it. The buffers are made once
    # per call, no larger than the angles.
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
    ``trials`` independent realizations are run; rows are emitted
    angle-major, trial-minor. Aggregates report the mean and sample standard
    deviation (0 for a single trial) per angle.

    Each trial's stream is shared by every angle, and no draw depends on
    either boresight, so one loop serves both axes. Each trial is drawn once.
    Every trial has the same path count, so the sweep allocates three
    path-sized buffers once: the arrival angles, re-aimed only when the
    transmit boresight changes and only once per trial for an omni
    transmitter (:func:`~multiell.engine.aim_realization`), the weighted
    powers (:func:`~multiell.engine.reweight`), and a scratch array. For a
    directional receiver turned off 0 at some point, the angles are
    scanned once after each aim for their smallest and largest value, which
    every receive gain at that aim reuses. Otherwise no scan is made and
    every gain gets (-180, 180): aimed angles lie in [-180, 180], and at a
    boresight of +-0 that range, like the scanned one, calls for no wrap
    candidate (the second signed difference that
    :func:`~multiell.antenna.power_gain` weighs against the first where a
    difference can leave (-180, 180]), so the gains have the same bits (an
    omni receiver reads no range at all). The scratch
    holds the receive gain's intermediate, then the spread's squared
    deviations from the weighted mean (the centered reduction of
    :func:`angular_spread`, bit for bit).
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
        points = [(tx.pointed_at(a), rx) for a in angles]
    else:
        points = [(tx, rx.pointed_at(a)) for a in angles]
    spreads = np.empty((len(angles), trials))
    # Only a directional receiver off 0 can need the scanned range.
    ranged = rx.kind is not PatternKind.OMNI and any(rx_j.boresight_deg != 0.0
                                                     for _, rx_j in points)
    span = (-180.0, 180.0)
    aoa = None
    for trial in range(trials):
        draws = draw_realization(config, _point_rng(config.seed, axis, trial))
        raw = draws.raw_power_lin
        if aoa is None:
            aoa, weighted, scratch = np.empty((3, raw.size))
        paths = PathSet(aoa, raw, raw, draws.sources)
        aimed = None
        for j, (tx_j, rx_j) in enumerate(points):
            # Omni draws are the departures themselves: one aim serves all.
            if aimed is None or draws.relative and tx_j.boresight_deg != aimed:
                aimed = tx_j.boresight_deg
                aim_realization(draws, aimed, aoa)
                if ranged:
                    span = (float(aoa.min()), float(aoa.max()))
            reweight(paths, rx_j, out=weighted, scratch=scratch, angle_range=span)
            spreads[j, trial] = _spread_in_place(aoa, weighted, scratch)

    rows: list[tuple[float, float, int, float]] = []
    aggregate: list[tuple[float, float, float]] = []
    for angle, (tx_j, rx_j), row in zip(angles, points, spreads):
        rows.extend((tx_j.boresight_deg, rx_j.boresight_deg, trial, float(row[trial]))
                    for trial in range(trials))
        std = float(row.std(ddof=1)) if trials > 1 else 0.0
        aggregate.append((angle, float(row.mean()), std))
    return SweepResult(axis=axis, rows=rows, aggregate=aggregate)
