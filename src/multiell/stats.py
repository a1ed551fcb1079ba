"""Angle statistics: rms angle spread, power angular spectrum estimation,
and orientation sweeps."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .engine import PathSet, ScenarioConfig, aim_realization, draw_realization, reweight
from .errors import BadBinWidth, ConfigError, NoPower


class SweepAxis(enum.Enum):
    TX_ORIENTATION = "tx"
    RX_ORIENTATION = "rx"


_AXIS_CODE = {SweepAxis.TX_ORIENTATION: 1, SweepAxis.RX_ORIENTATION: 2}

# 0.0001-degree bins; the bin edges alone then take 29 MB.
_MAX_PAS_BINS = 3_600_000

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


def _total_power(power_lin: np.ndarray) -> float:
    total = power_lin.sum()
    if not total > 0.0:  # NaN fails this too
        raise NoPower(f"total path power is {total}")
    return total


def angular_spread(paths: PathSet) -> float:
    """rms angle spread in degrees: the square root of the power-weighted
    second central moment of the arrival angles, taken linearly on
    (-180, 180] (no circular statistics; the wrap artifact at +-180 is part
    of the definition)."""
    return _spread_in_place(paths.aoa_deg, paths.power_lin.copy())


def _spread_in_place(phi: np.ndarray, moment: np.ndarray) -> float:
    # angular_spread of the powers in ``moment`` at ``phi``, overwriting them.
    moment /= _total_power(moment)
    moment *= phi
    mean = float(moment.sum())
    moment *= phi
    second = float(moment.sum())
    return float(np.sqrt(max(second - mean * mean, 0.0)))


def estimate_pas(paths: PathSet, bin_width_deg: float = 1.0) -> AngularSpectrum:
    """Power-weighted histogram of arrival angles, normalized to unit mass.

    ``bin_width_deg`` must divide 360 evenly, into at most 3,600,000 bins.
    """
    if not (bin_width_deg > 0.0 and math.isfinite(bin_width_deg)):
        raise BadBinWidth(f"bin width must be finite and > 0, got {bin_width_deg}")
    if bin_width_deg < 360.0 / _MAX_PAS_BINS:
        raise BadBinWidth(f"bin width {bin_width_deg} gives more than {_MAX_PAS_BINS} bins")
    n_bins = 360.0 / bin_width_deg
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise BadBinWidth(f"bin width {bin_width_deg} does not divide 360 evenly")
    n_bins = int(round(n_bins))

    total = _total_power(paths.power_lin)
    edges = -180.0 + bin_width_deg * np.arange(n_bins + 1)
    counts, _ = np.histogram(paths.aoa_deg, bins=edges, weights=paths.power_lin)
    density = counts / (total * bin_width_deg)
    centers = edges[:-1] + bin_width_deg / 2.0
    return AngularSpectrum(bin_centers_deg=centers, density_per_deg=density,
                           bin_width_deg=float(bin_width_deg))


def _point_rng(seed: int, axis: SweepAxis, trial: int) -> np.random.Generator:
    # One stream per (seed, axis, trial); sweep angles share it so that an
    # omni receiver yields bit-identical paths across orientations.
    ss = np.random.SeedSequence((int(seed), _AXIS_CODE[axis], int(trial)))
    return np.random.Generator(np.random.PCG64(ss))


def sweep_as(config: ScenarioConfig, axis: SweepAxis, angles_deg,
             trials: int = 10) -> SweepResult:
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
    powers (:func:`~multiell.engine.reweight`), which the spread's moments
    then overwrite, and the receive gain's scratch.
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
    aoa = None
    for trial in range(trials):
        draws = draw_realization(config, _point_rng(config.seed, axis, trial))
        raw = draws.raw_power_lin
        if aoa is None:
            aoa, weighted, scratch = np.empty((3, raw.size))
        paths = PathSet(aoa, raw, raw, draws.source_kind, draws.cluster_index)
        aimed = None
        for j, (tx_j, rx_j) in enumerate(points):
            # Omni draws are the departures themselves: one aim serves all.
            if aimed is None or draws.relative and tx_j.boresight_deg != aimed:
                aimed = tx_j.boresight_deg
                aim_realization(draws, aimed, aoa)
            reweight(paths, rx_j, out=weighted, scratch=scratch)
            spreads[j, trial] = _spread_in_place(aoa, weighted)

    rows: list[tuple[float, float, int, float]] = []
    aggregate: list[tuple[float, float, float]] = []
    for angle, (tx_j, rx_j), row in zip(angles, points, spreads):
        rows.extend((tx_j.boresight_deg, rx_j.boresight_deg, trial, float(row[trial]))
                    for trial in range(trials))
        std = float(row.std(ddof=1)) if trials > 1 else 0.0
        aggregate.append((angle, float(row.mean()), std))
    return SweepResult(axis=axis, rows=rows, aggregate=aggregate)
