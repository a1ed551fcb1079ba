import math
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.antenna import AntennaPattern, _gain_in_place
from multiell.cli import _fmt
from multiell.engine import aim_realization, reweight, run_realization
from multiell.errors import BadBinWidth, ConfigError, MultiellError, NoPower
from multiell.presets import fig_presets, scenario
from multiell.scattering import VonMisesParams, von_mises_pdf, sample_von_mises
from multiell.stats import (_PAS_BLOCK, SweepAxis, SweepResult, _bin_power, _point_rng,
                            angular_spread, estimate_pas, sweep_as)

from conftest import make_pathset

UNIFORM_AS = 103.92304845413264  # 360 / sqrt(12)


class TestAngularSpread:
    def test_symmetric_two_delta(self):
        for theta in (1.0, 30.0, 90.0, 179.0):
            paths = make_pathset([-theta, theta], [0.5, 0.5])
            assert angular_spread(paths) == pytest.approx(theta, abs=1e-9)

    def test_single_path_zero_spread(self):
        assert angular_spread(make_pathset([42.0], [0.3])) == 0.0

    def test_uniform_circle(self, rng):
        aoa = rng.random(1_000_000) * 360.0 - 180.0
        paths = make_pathset(aoa, np.ones(aoa.size))
        assert angular_spread(paths) == pytest.approx(UNIFORM_AS, abs=0.2)

    def test_scale_invariance(self, rng):
        aoa = rng.uniform(-170, 170, 1000)
        w = rng.random(1000)
        a = angular_spread(make_pathset(aoa, w))
        b = angular_spread(make_pathset(aoa, 7.0 * w))
        assert b == pytest.approx(a, rel=1e-12)

    def test_reflection_symmetry(self, rng):
        aoa = rng.uniform(-179, 180, 1000)
        w = rng.random(1000)
        assert angular_spread(make_pathset(-aoa, w)) == angular_spread(make_pathset(aoa, w))

    def test_range_bounds(self, rng):
        for _ in range(50):
            aoa = rng.uniform(-180, 180, 200)
            w = rng.random(200)
            assert 0.0 <= angular_spread(make_pathset(aoa, w)) <= 180.0

    def test_extreme_two_delta(self):
        paths = make_pathset([-180.0, 180.0], [0.5, 0.5])
        # wrap maps -180 to +180, a single point: zero spread
        assert angular_spread(paths) in (0.0, 180.0)

    def test_leaves_powers_untouched(self, rng):
        paths = make_pathset(rng.uniform(-180.0, 180.0, 100), rng.random(100))
        before = paths.power_lin.copy()
        angular_spread(paths)
        assert paths.power_lin.tobytes() == before.tobytes()

    def test_huge_powers_give_a_finite_spread(self, rng):
        aoa = rng.uniform(-180.0, 180.0, 1000)
        w = rng.random(1000)
        for scale in (1e299, 1e303, 1e305):
            assert angular_spread(make_pathset(aoa, scale * w)) == pytest.approx(
                angular_spread(make_pathset(aoa, w)), rel=1e-12)

    def test_no_power_raises(self):
        with pytest.raises(NoPower):
            angular_spread(make_pathset([1.0, 2.0], [0.0, 0.0]))
        with pytest.raises(NoPower):
            angular_spread(make_pathset([], []))

    def test_nan_power_raises(self):
        paths = make_pathset([0.0, 10.0], [np.nan, 1.0])
        with pytest.raises(NoPower):
            angular_spread(paths)
        with pytest.raises(NoPower):
            estimate_pas(paths)

    @pytest.mark.parametrize("power, index", [([-1.0, 2.0], 0), ([2.0, -1e-300], 1),
                                              ([1.0, 0.0, np.nan], 2),
                                              ([1.0, -np.inf, 3.0], 1),
                                              ([1.0, np.inf, 3.0], 1)])
    def test_negative_or_nan_power_raises_naming_the_path(self, power, index):
        # [-1, 2] at [0, 90] gave a spread of 0.0 and a negative PAS density
        paths = make_pathset([0.0, 90.0, 45.0][:len(power)], power)
        for statistic in (angular_spread, lambda p: estimate_pas(p, bin_width_deg=90.0)):
            with pytest.raises(NoPower, match=rf"^path {index} has power "):
                statistic(paths)

    @pytest.mark.parametrize("power", [1e-320, 1e308])
    def test_extreme_totals_give_the_spread_and_spectrum_of_unit_powers(self, power):
        # Two paths of 1e-320 at 1e-4-degree bins underflowed the PAS norm to
        # 0 (NaN and inf densities); two of 1e308 overflowed the total to inf,
        # which zeroed every density and turned the spread to NaN.
        paths = make_pathset([-90.0, 90.0], [power, power])
        unit = make_pathset([-90.0, 90.0], [1.0, 1.0])
        assert angular_spread(paths) == angular_spread(unit) == 90.0
        density = estimate_pas(paths, bin_width_deg=1e-4).density_per_deg
        assert density.tobytes() == estimate_pas(unit, 1e-4).density_per_deg.tobytes()
        assert density.sum() * 1e-4 == pytest.approx(1.0, rel=1e-12)

    def test_zero_and_negative_zero_powers_are_accepted(self):
        paths = make_pathset([0.0, 90.0, 10.0], [-0.0, 1.0, 0.0])
        assert angular_spread(paths) == 0.0
        assert estimate_pas(paths, bin_width_deg=90.0).density_per_deg.min() == 0.0


class TestEstimatePas:
    def test_single_path_single_bin(self):
        spectrum = estimate_pas(make_pathset([0.0], [2.0]), bin_width_deg=1.0)
        assert spectrum.density_per_deg.max() == pytest.approx(1.0, rel=1e-12)
        assert np.count_nonzero(spectrum.density_per_deg) == 1
        center = spectrum.bin_centers_deg[spectrum.density_per_deg.argmax()]
        assert abs(center) < 1.0

    def test_uniform_bins(self, rng):
        aoa = rng.random(1_000_000) * 360.0 - 180.0
        spectrum = estimate_pas(make_pathset(aoa, np.ones(aoa.size)), bin_width_deg=10.0)
        assert np.all(np.abs(spectrum.density_per_deg * 360.0 - 1.0) < 0.05)

    def test_mass_conservation(self, rng):
        aoa = rng.uniform(-180, 180, 5000)
        w = rng.random(5000)
        spectrum = estimate_pas(make_pathset(aoa, w), bin_width_deg=2.0)
        mass = spectrum.density_per_deg.sum() * spectrum.bin_width_deg
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_matches_von_mises_density(self, rng):
        params = VonMisesParams(mu_deg=0.0, kappa=2.0)
        draws = sample_von_mises(params, rng, size=100_000)
        spectrum = estimate_pas(make_pathset(draws, np.ones(draws.size)), bin_width_deg=5.0)
        expected = von_mises_pdf(spectrum.bin_centers_deg, params) * np.radians(5.0)
        expected /= expected.sum()
        empirical = spectrum.density_per_deg * 5.0
        tv = 0.5 * np.abs(empirical - expected).sum()
        assert tv < 0.02

    def test_binned_spread_consistent_with_samples(self, rng):
        aoa = np.degrees(np.arcsin(rng.uniform(-1, 1, 100_000))) * 1.5
        w = rng.random(aoa.size)
        paths = make_pathset(aoa, w)
        direct = angular_spread(paths)
        spectrum = estimate_pas(paths, bin_width_deg=0.1)
        masses = spectrum.density_per_deg * spectrum.bin_width_deg
        mean = (masses * spectrum.bin_centers_deg).sum()
        second = (masses * spectrum.bin_centers_deg**2).sum()
        binned = np.sqrt(max(second - mean**2, 0.0))
        assert binned == pytest.approx(direct, abs=0.1)

    def test_bad_bin_width(self):
        paths = make_pathset([0.0], [1.0])
        for bad in (7.0, 0.0, -1.0, 360.1):
            with pytest.raises(BadBinWidth):
                estimate_pas(paths, bin_width_deg=bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_bin_width(self, bad):
        with pytest.raises(BadBinWidth, match="finite"):
            estimate_pas(make_pathset([0.0], [1.0]), bin_width_deg=bad)

    def test_bin_count_guard_raises_before_allocating(self):
        paths = make_pathset([0.0], [1.0])
        tracemalloc.start()
        try:
            for bad in (1e-9, 9e-5, 5e-324):  # 3.6e11, 4e6 and inf bins
                with pytest.raises(BadBinWidth, match="more than 3600000 bins"):
                    estimate_pas(paths, bin_width_deg=bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert estimate_pas(paths, bin_width_deg=1e-4).density_per_deg.size == 3_600_000

    def test_no_power(self):
        with pytest.raises(NoPower):
            estimate_pas(make_pathset([0.0], [0.0]), bin_width_deg=1.0)


def _bin_edges(width):
    return -180.0 + width * np.arange(int(round(360.0 / width)) + 1)


def _histogram_bins(x, edges):
    # np.histogram's bin of each angle: [edges[k], edges[k + 1]), the last bin
    # closed; -1 or the bin count outside [edges[0], edges[-1]] and for NaN.
    bins = np.searchsorted(edges, x, side="right") - 1
    bins[x == edges[-1]] = edges.size - 2
    return bins


class TestPasBins:
    """estimate_pas bins like np.histogram and sums each bin exactly."""

    @pytest.mark.parametrize("width", [1e-4, 0.1, 1 / 3, 0.36, 7.2, 360.0])
    def test_membership_equals_np_histogram(self, width, rng):
        edges = _bin_edges(width)
        if edges.size > 100_000:
            # np.histogram takes 18 s for all 3.6M edges; every 200th and both ends.
            edges_in = np.concatenate([edges[:200], edges[200:-200:200], edges[-200:]])
        else:
            edges_in = edges
        x = np.concatenate([edges_in, np.nextafter(edges_in, -np.inf),
                            np.nextafter(edges_in, np.inf),
                            [180.0, -180.0, 0.0, -0.0, 1e-300, -1e-300, 181.0, -181.0,
                             np.nan, np.inf, -np.inf],
                            rng.uniform(-180.0, 180.0, 10_000)])
        density = estimate_pas(make_pathset(x, np.ones(x.size)), width).density_per_deg
        expected = np.histogram(x, bins=edges)[0] / (x.size * width)
        assert density.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name, changes, width", [
        ("fig4-A", {}, 1.0),
        ("fig2-C-omni", {"rice_factor_db": 6.0, "paths_per_cluster": 20_000}, 0.1),
    ])
    def test_printed_density_equals_fsum(self, name, changes, width):
        # A directional rx leaves tail bins of tiny mass, which a difference of
        # cumulative sums used to lose; 460,001 paths span several blocks.
        paths = run_realization(replace(fig_presets()[name].config, **changes))
        x, power = paths.aoa_deg, paths.power_lin
        edges = _bin_edges(width)
        n_bins = edges.size - 1
        bins = _histogram_bins(x, edges)
        inside = (bins >= 0) & (bins < n_bins)
        order = np.argsort(bins[inside], kind="stable")
        members = np.bincount(bins[inside], minlength=n_bins)
        assert np.array_equal(members, np.histogram(x, bins=edges)[0])
        starts = np.concatenate([[0], np.cumsum(members)]).tolist()
        in_bins = power[inside][order].tolist()
        scale = math.fsum(power.tolist()) * width
        reference = [_fmt(math.fsum(in_bins[a:b]) / scale) for a, b in zip(starts, starts[1:])]
        printed = [_fmt(d) for d in estimate_pas(paths, width).density_per_deg.tolist()]
        assert printed == reference

    def test_reduction_works_in_blocks(self, rng):
        aoa = rng.uniform(-180.0, 180.0, 1_000_000)
        paths = make_pathset(aoa, rng.random(aoa.size))
        tracemalloc.start()
        try:
            estimate_pas(paths, bin_width_deg=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000  # a whole-array intp bin index alone takes 8 MB


def _bin_power_by_gathers(angles, power, edges, width):
    # The PAS reduction before binning by floor: every angle's index by
    # division, then two comparisons against gathered edges.
    n_bins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    block = max(_PAS_BLOCK, n_bins)
    sums = np.zeros(n_bins)
    for start in range(0, angles.size, block):
        x = angles[start:start + block]
        w = power[start:start + block]
        if not (x.min() >= lo and x.max() <= hi):
            inside = (x >= lo) & (x <= hi)
            x, w = x[inside], w[inside]
        idx = ((x - lo) / width).astype(np.intp)
        np.minimum(idx, n_bins - 1, out=idx)
        idx -= x < edges[idx]
        idx += (x >= edges[1:][idx]) & (idx < n_bins - 1)
        sums += np.bincount(idx, weights=w, minlength=n_bins)
    return sums


SPECIAL_ANGLES = [0.0, -0.0, 180.0, -180.0, 1e-300, -1e-300, 181.0, -181.0,
                  np.nan, np.inf, -np.inf]


def _edge_angles(width):
    # Bin edges and their float neighbours on both sides, all within the band
    # that binning by floor checks; at 1e-4-degree bins every 200th edge.
    edges = _bin_edges(width)
    if edges.size > 100_000:
        edges = np.concatenate([edges[:200], edges[200:-200:200], edges[-200:]])
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


class TestPasBinsByFloor:
    """The floor binning equals the gather-based reduction it replaced, bit for
    bit, over several blocks."""

    @pytest.mark.parametrize("width", [1e-4, 1 / 3, 0.36, 7.2, 360.0])
    def test_bits_equal_the_gathers_near_every_edge(self, width, rng):
        edges = _bin_edges(width)
        block = max(_PAS_BLOCK, edges.size - 1)
        # Every other angle is an edge, a neighbour of one or a special value,
        # repeated so that every block has angles to check against the edges.
        x = rng.uniform(-180.0, 180.0, block + _PAS_BLOCK + 777)
        x[::2] = np.resize(np.concatenate([_edge_angles(width), SPECIAL_ANGLES]),
                           x[::2].size)
        w = rng.random(x.size)
        expected = _bin_power_by_gathers(x, w, edges, width)
        assert _bin_power(x, w, edges, width).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1 / 3, 7.2])
    def test_bits_equal_the_gathers_with_a_block_of_edge_angles_only(self, width, rng):
        edges = _bin_edges(width)
        near = np.resize(_edge_angles(width), _PAS_BLOCK)
        position = (near + 180.0) * (1.0 / width)
        assert np.all(np.abs(position - np.round(position)) < 1e-6)  # all in the band
        x = np.concatenate([rng.uniform(-180.0, 180.0, _PAS_BLOCK), near,
                            SPECIAL_ANGLES, rng.uniform(-180.0, 180.0, 500)])
        w = rng.random(x.size)
        expected = _bin_power_by_gathers(x, w, edges, width)
        assert _bin_power(x, w, edges, width).tobytes() == expected.tobytes()

    def test_buffers_are_sized_by_the_path_count(self, rng):
        # At 1e-4-degree bins a block is the 3.6M-bin count; buffers that size
        # would take 86 MB more than the per-bin sums and np.bincount's output.
        edges = _bin_edges(1e-4)
        x = rng.uniform(-180.0, 180.0, 1000)
        tracemalloc.start()
        try:
            _bin_power(x, np.ones(x.size), edges, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (edges.size - 1) + 1_000_000


class TestSweepAs:
    def test_omni_rx_identical_across_angles(self):
        cfg = scenario("A", "omni", alpha_t_deg=135.0, seed=21, paths_per_cluster=200)
        result = sweep_as(cfg, SweepAxis.RX_ORIENTATION,
                          [-120.0, -30.0, 0.0, 45.0, 170.0], trials=3)
        for values in result.as_deg.T:  # one trial's spreads at every angle
            assert len(set(values.tolist())) == 1  # bit-identical

    def test_deterministic_repeat(self):
        cfg = scenario("B", "same", alpha_t_deg=180.0, seed=5, paths_per_cluster=100)
        a = sweep_as(cfg, SweepAxis.RX_ORIENTATION, [0.0, 40.0, 90.0], trials=2)
        b = sweep_as(cfg, SweepAxis.RX_ORIENTATION, [0.0, 40.0, 90.0], trials=2)
        assert_same_sweep(a, b)

    def test_row_ordering_angle_major(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [10.0, 20.0], trials=3)
        assert result.as_deg.shape == (2, 3)
        assert result.tx_boresight_deg.tolist() == [10.0, 20.0]
        for j, angle in enumerate([10.0, 20.0]):  # row j holds angle j's trials
            alone = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [angle], trials=3)
            assert same_bits(result.as_deg[j], alone.as_deg[0])

    def test_aggregate_mean_and_std(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=50)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=5)
        values = result.as_deg[0]
        angle, mean, std = result.angles_deg[0], result.mean_as_deg[0], result.std_as_deg[0]
        assert angle == 0.0
        assert mean == pytest.approx(np.mean(values), rel=1e-12)
        assert std == pytest.approx(np.std(values, ddof=1), rel=1e-12)

    def test_single_trial_std_zero(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=1)
        assert result.std_as_deg.tolist() == [0.0]

    def test_tx_sweep_overrides_tx_boresight(self):
        cfg = scenario("A", "same", alpha_t_deg=0.0, seed=1, paths_per_cluster=20)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [45.0], trials=1)
        assert result.tx_boresight_deg.tolist() == [45.0]
        assert result.rx_boresight_deg.tolist() == [0.0]

    def test_invalid_arguments(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        with pytest.raises(ConfigError):
            sweep_as(cfg, SweepAxis.TX_ORIENTATION, [], trials=1)
        with pytest.raises(ConfigError):
            sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=0)

    @pytest.mark.parametrize("trials", [10_001, 10**8, 10**12])
    def test_trial_count_above_ceiling_rejected(self, trials):
        # 1e12 once died in np.empty, and 1e8 would have run for hours
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        with pytest.raises(ConfigError, match=f"trials {trials} exceeds the limit of 10000"):
            sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=trials)

    def test_result_keeps_only_its_arrays(self):
        # One Python tuple per (angle, trial) and per angle once kept 14x the
        # spread matrix: 832 kB against 57.8 kB here.
        cfg = replace(fig_presets()["fig4-A"].config, paths_per_cluster=1)
        angles = np.arange(-180.0, 181.0)
        sweep_as(cfg, SweepAxis.RX_ORIENTATION, angles[:1], trials=1)  # fills the caches
        tracemalloc.start()
        try:
            result = sweep_as(cfg, SweepAxis.RX_ORIENTATION, angles, trials=20)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.as_deg.shape == (361, 20)
        assert kept < 4 * result.as_deg.nbytes

    def test_boresight_minimum_scenario(self):
        # antenna A at both ends, both pointing along the axis: spread within
        # a couple degrees (the documented minimum for this geometry)
        cfg = scenario("A", "same", alpha_t_deg=0.0, alpha_r_deg=0.0, seed=8)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=3)
        assert result.mean_as_deg[0] == pytest.approx(1.5, abs=1.5)


def long_double_spread(phi, power):
    """Two-pass spread of the same float64 inputs in long double arithmetic."""
    p, w = phi.astype(np.longdouble), power.astype(np.longdouble)
    total = w.sum()
    deviation = p - (w * p).sum() / total
    return np.sqrt((w * deviation * deviation).sum() / total)


def one_pass_spread(phi, power):
    """The spread as E[phi^2] - E[phi]^2 in one pass, as the sweep once took it."""
    moment = power / power.sum()
    moment *= phi
    mean = float(moment.sum())
    moment *= phi
    return float(np.sqrt(max(float(moment.sum()) - mean * mean, 0.0)))


def twelve_digit_tie_distance(x: float) -> float:
    """Relative distance from ``x`` > 0 to the nearest halfway point between
    two 12-significant-digit decimals, where ``.12g`` rounding flips."""
    scaled = Decimal(x).scaleb(11 - math.floor(math.log10(x)))
    return float(abs(scaled - int(scaled) - Decimal("0.5")) / scaled)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs a long double wider than float64")
class TestSpreadPrecision:
    # Every figure preset at 500 paths per cluster, seed 5, 3 trials, every
    # 5 degrees: 3,942 sweep points.
    ANGLES = np.linspace(-180.0, 180.0, 73)
    TRIALS = 3
    # The one-pass reduction's worst error on these points (fig8-A, a spread
    # of 0.0756 degrees at rx -165) is 5.22e-11 relative.
    ONE_PASS_REL = 5.3e-11
    TIE_REL = 4e-15

    def test_printed_spreads_equal_a_long_double_reference(self, monkeypatch):
        import multiell.stats
        spread = multiell.stats._spread_in_place
        points = []

        def recording_spread(phi, power, deviation):
            value = spread(phi, power, deviation)
            points.append((value, one_pass_spread(phi, power),
                           float(long_double_spread(phi, power))))
            return value

        monkeypatch.setattr(multiell.stats, "_spread_in_place", recording_spread)
        n = self.ANGLES.size
        one_pass_misprints = 0
        for name, preset in sorted(fig_presets().items()):
            cfg = replace(preset.config, paths_per_cluster=500, seed=5)
            points.clear()
            result = sweep_as(cfg, preset.axis, self.ANGLES, trials=self.TRIALS)
            assert len(points) == result.as_deg.size == n * self.TRIALS
            for k, (value, one_pass, reference) in enumerate(points):
                t, j = divmod(k, n)  # the sweep runs trial-major
                point = (name, float(self.ANGLES[j]), t)
                assert result.as_deg[j, t] == value
                if _fmt(value) != _fmt(reference):
                    assert twelve_digit_tie_distance(reference) < self.TIE_REL, point
                one_pass_misprints += _fmt(one_pass) != _fmt(reference)
                assert abs(value - one_pass) <= self.ONE_PASS_REL * value, point
        # The check can fail: the one-pass reduction misprints 81 of these
        # points (66 of fig8-A's 219).
        assert one_pass_misprints > 0


def reference_sweep(config, axis, angles_deg, trials):
    """One full realization per (angle, trial), each from that trial's
    stream, and each angle's mean and standard deviation taken over its own
    row, as a SweepResult."""
    angles = [float(a) for a in angles_deg]
    end = "tx_pattern" if axis is SweepAxis.TX_ORIENTATION else "rx_pattern"
    spreads = np.empty((len(angles), trials))
    tx, rx, mean, std = [], [], [], []
    for row, angle in zip(spreads, angles):
        cfg = replace(config, **{end: replace(getattr(config, end), boresight_deg=angle)})
        for trial in range(trials):
            row[trial] = angular_spread(run_realization(cfg, _point_rng(config.seed, axis,
                                                                         trial)))
        tx.append(cfg.tx_pattern.boresight_deg)
        rx.append(cfg.rx_pattern.boresight_deg)
        mean.append(float(row.mean()))
        std.append(float(row.std(ddof=1)) if trials > 1 else 0.0)
    return SweepResult(axis, np.array(angles), np.array(tx), np.array(rx), np.array(mean),
                       np.array(std), spreads)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_sweep(got, expected):
    assert got.axis is expected.axis
    for field in fields(SweepResult)[1:]:
        assert same_bits(getattr(got, field.name), getattr(expected, field.name)), field.name


PATH_ARRAYS = ("aoa_deg", "raw_power_lin", "power_lin")

# Omni, or a Gaussian beam up to 359 degrees wide, at any boresight.
BEAMS = st.just(AntennaPattern.omni()) | st.builds(
    lambda hpbw, at: AntennaPattern.gaussian(hpbw, boresight_deg=at),
    st.floats(0.5, 359.0), st.floats(-180.0, 180.0))
# A few angles, always with both ends of the wrap and one angle beyond 360.
SWEEP_ANGLES = st.tuples(st.lists(st.floats(-540.0, 540.0), max_size=3),
                         st.floats(360.0, 1080.0, exclude_min=True)).flatmap(
    lambda drawn: st.permutations([-180.0, 180.0, drawn[1], *drawn[0]]))


class TestSweepEquivalence:
    @pytest.mark.parametrize("axis", list(SweepAxis))
    @pytest.mark.parametrize("rx", ["same", "omni"])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_matches_per_point_realizations(self, axis, rx, trials):
        cfg = scenario("A", rx, alpha_t_deg=150.0, alpha_r_deg=20.0, seed=11,
                       paths_per_cluster=40)
        angles = [-180.0, 0.0, 180.0, 400.0, 0.0]
        result = sweep_as(cfg, axis, angles, trials=trials)
        assert_same_sweep(result, reference_sweep(cfg, axis, angles, trials))

    @pytest.mark.parametrize("rx_b", [AntennaPattern.gaussian(12.0, boresight_deg=-75.0),
                                      AntennaPattern.omni()])
    def test_reweight_equals_realization(self, rx_b):
        cfg_a = scenario("A", "same", alpha_t_deg=40.0, alpha_r_deg=30.0, seed=3,
                         paths_per_cluster=200, rice_factor_db=3.0)
        cfg_b = replace(cfg_a, rx_pattern=rx_b)
        paths_a = run_realization(cfg_a)
        before = {name: getattr(paths_a, name).copy() for name in PATH_ARRAYS}
        got = reweight(paths_a, cfg_b.rx_pattern)
        expected = run_realization(cfg_b)
        for name in PATH_ARRAYS:
            assert same_bits(getattr(got, name), getattr(expected, name)), name
            assert same_bits(getattr(paths_a, name), before[name]), name
        assert got.sources == expected.sources == paths_a.sources

    # -180 and 180 are one boresight; an rx sweep keeps the tx at 30
    @pytest.mark.parametrize("axis, boresights", [(SweepAxis.TX_ORIENTATION, [180.0, 0.0]),
                                                  (SweepAxis.RX_ORIENTATION, [30.0])],
                             ids=["tx", "rx"])
    def test_one_buffer_per_sweep_and_one_aim_per_boresight(self, axis, boresights,
                                                            monkeypatch):
        # A fresh path-sized array per angle made the sweep's speed depend on
        # whether the C allocator trimmed the heap after each one; one per
        # trial cost peak memory.
        import multiell.stats
        weighted, aimed = [], []

        def recording_gain(pattern, phi, span, out, scratch=None):
            weighted.append((phi, out, scratch))
            return _gain_in_place(pattern, phi, span, out, scratch)

        def recording_aim(draws, boresight_deg, out):
            aimed.append((boresight_deg, out))
            return aim_realization(draws, boresight_deg, out)

        monkeypatch.setattr(multiell.stats, "_gain_in_place", recording_gain)
        monkeypatch.setattr(multiell.stats, "aim_realization", recording_aim)
        cfg = scenario("A", "same", alpha_t_deg=30.0, paths_per_cluster=30, seed=4)
        sweep_as(cfg, axis, [-180.0, 180.0, 0.0], trials=2)
        assert [b for b, _ in aimed] == boresights * 2
        assert len(weighted) == 6
        _, out, scratch = weighted[0]
        angles = aimed[0][1]
        assert out is not None and scratch is not None
        assert all(p is angles and o is out and s is scratch for p, o, s in weighted)
        assert all(a is angles for _, a in aimed)
        assert len({id(angles), id(out), id(scratch)}) == 3
        # An omni receiver weights nothing: no gain is computed.
        weighted.clear()
        aimed.clear()
        sweep_as(replace(cfg, rx_pattern=AntennaPattern.omni()), axis, [-180.0, 180.0, 0.0],
                 trials=2)
        assert [b for b, _ in aimed] == boresights * 2
        assert weighted == []

    @pytest.mark.parametrize("axis, rx, alpha_r, angles, scans", [
        (SweepAxis.TX_ORIENTATION, "same", 0.0, [-90.0, 0.0, 90.0], False),
        (SweepAxis.TX_ORIENTATION, "omni", 0.0, [-90.0, 0.0, 90.0], False),
        (SweepAxis.TX_ORIENTATION, "same", 20.0, [-90.0, 0.0, 90.0], True),
        (SweepAxis.RX_ORIENTATION, "same", 0.0, [-90.0, 0.0, 90.0], True),
        (SweepAxis.RX_ORIENTATION, "same", 0.0, [0.0, -0.0, 360.0], False),
        (SweepAxis.RX_ORIENTATION, "omni", 0.0, [-90.0, 0.0, 90.0], False),
    ], ids=["same", "omni", "same-rx-off-0", "rx-sweep", "rx-sweep-at-0", "rx-sweep-omni"])
    def test_sweep_scans_the_range_once_per_aim_for_a_directional_rx(
            self, axis, rx, alpha_r, angles, scans, monkeypatch):
        # Only a directional receiver turned off 0 at some point can need the
        # scanned range. Every other directional sweep passes (-180, 180),
        # which bounds every aimed angle and, at boresight +-0, calls for no
        # wrap candidate; an omni receiver computes no gain at all.
        import multiell.stats
        ranges = []

        def recording_gain(pattern, phi, span, out, scratch=None):
            ranges.append((span, (float(phi.min()), float(phi.max()))))
            return _gain_in_place(pattern, phi, span, out, scratch)

        monkeypatch.setattr(multiell.stats, "_gain_in_place", recording_gain)
        cfg = scenario("A", rx, alpha_t_deg=170.0, alpha_r_deg=alpha_r, paths_per_cluster=30,
                       seed=4)
        result = sweep_as(cfg, axis, angles, trials=2)
        assert len(ranges) == (0 if rx == "omni" else 6)
        for span, scanned in ranges:
            assert span[0] <= scanned[0] and scanned[1] <= span[1]
            assert span == (scanned if scans else (-180.0, 180.0))
        monkeypatch.undo()
        assert_same_sweep(result, reference_sweep(cfg, axis, angles, 2))

    def test_narrow_tx_sweep_wraps_only_where_the_bound_crosses_the_half_turn(
            self, monkeypatch):
        # A departure leaves (-180, 180] only if the boresight b and the
        # draws' offset bound m give b - m <= -180 or b + m > 180; at every
        # other aim the departure wrap is skipped.
        import multiell.geometry
        import multiell.stats
        aims = []
        real_wrap = multiell.geometry.wrap_in_place

        def recording_aim(draws, boresight_deg, out):
            aims.append([boresight_deg, draws.offset_bound, False])
            return aim_realization(draws, boresight_deg, out)

        def recording_wrap(angles):
            if angles.ndim == 2:  # the departures; wrap_degrees passes 0-d arrays
                aims[-1][2] = True
            return real_wrap(angles)

        monkeypatch.setattr(multiell.stats, "aim_realization", recording_aim)
        monkeypatch.setattr(multiell.geometry, "wrap_in_place", recording_wrap)
        cfg = replace(scenario("D", "same", seed=2, paths_per_cluster=200),
                      tx_pattern=AntennaPattern.gaussian(9.0))
        angles = np.arange(-180.0, 181.0, 5.0)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, angles, trials=2)
        monkeypatch.undo()
        assert len(aims) == 2 * angles.size
        for boresight, bound, wrapped in aims:
            assert 0.0 < bound < 30.0
            assert wrapped == (boresight - bound <= -180.0 or boresight + bound > 180.0)
        assert 0 < sum(wrapped for *_, wrapped in aims) <= 2 * 12
        assert_same_sweep(result, reference_sweep(cfg, SweepAxis.TX_ORIENTATION, angles, 2))

    def test_omni_tx_aims_once_per_trial(self, monkeypatch):
        # An omni transmitter's draws are the departures themselves.
        import multiell.stats
        aimed = []

        def recording_aim(draws, boresight_deg, out):
            aimed.append(boresight_deg)
            return aim_realization(draws, boresight_deg, out)

        monkeypatch.setattr(multiell.stats, "aim_realization", recording_aim)
        cfg = replace(fig_presets()["fig4-A"].config, tx_pattern=AntennaPattern.omni(),
                      paths_per_cluster=40, seed=6)
        angles = [-180.0, -90.0, 0.0, 45.0, 180.0, 400.0]
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, angles, trials=3)
        monkeypatch.undo()
        assert len(aimed) == 3
        assert_same_sweep(result, reference_sweep(cfg, SweepAxis.TX_ORIENTATION, angles, 3))

    @given(tx=BEAMS, rx=BEAMS, rice=st.none() | st.floats(-20.0, 20.0),
           n=st.integers(1, 40), angles=SWEEP_ANGLES, axis=st.sampled_from(SweepAxis),
           trials=st.integers(1, 3), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=2000)
    def test_generated_sweeps_match_per_point_realizations(self, tx, rx, rice, n, angles,
                                                           axis, trials, seed):
        cfg = replace(scenario("A", seed=seed, paths_per_cluster=n, rice_factor_db=rice),
                      tx_pattern=tx, rx_pattern=rx)
        try:
            expected = reference_sweep(cfg, axis, angles, trials)
        except MultiellError as exc:  # a narrow rx beam can miss every path
            with pytest.raises(type(exc)):
                sweep_as(cfg, axis, angles, trials=trials)
            return
        assert_same_sweep(sweep_as(cfg, axis, angles, trials=trials), expected)

    @pytest.mark.parametrize("axis", list(SweepAxis))
    @pytest.mark.parametrize("tx", [AntennaPattern.gaussian(330.0, boresight_deg=150.0),
                                    AntennaPattern.omni()], ids=["wide-tx", "omni-tx"])
    def test_wide_and_omni_tx(self, tx, axis, monkeypatch):
        # A 330-degree beam makes the redraw rule fire; the draws still hold
        # at every boresight, so no sweep point runs a full realization.
        import multiell.engine
        import multiell.stats
        full_runs = []
        real = multiell.engine.run_realization
        # also under the name stats would call it by, were it imported there
        for module in (multiell.engine, multiell.stats):
            monkeypatch.setattr(module, "run_realization",
                                lambda *a: full_runs.append(a) or real(*a), raising=False)
        cfg = replace(scenario("A", "same", alpha_r_deg=20.0, seed=11, paths_per_cluster=40),
                      tx_pattern=tx)
        angles = [-180.0, -90.0, 0.0, 150.0, 180.0, 400.0]
        result = sweep_as(cfg, axis, angles, trials=3)
        monkeypatch.undo()
        assert_same_sweep(result, reference_sweep(cfg, axis, angles, 3))
        assert full_runs == []
