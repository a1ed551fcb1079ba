import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.antenna import AntennaPattern
from multiell.engine import aim_realization, reweight, run_realization
from multiell.errors import BadBinWidth, ConfigError, MultiellError, NoPower
from multiell.presets import fig_presets, scenario
from multiell.scattering import VonMisesParams, von_mises_pdf, sample_von_mises
from multiell.stats import SweepAxis, _point_rng, angular_spread, estimate_pas, sweep_as

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


class TestSweepAs:
    def test_omni_rx_identical_across_angles(self):
        cfg = scenario("A", "omni", alpha_t_deg=135.0, seed=21, paths_per_cluster=200)
        result = sweep_as(cfg, SweepAxis.RX_ORIENTATION,
                          [-120.0, -30.0, 0.0, 45.0, 170.0], trials=3)
        by_trial = {}
        for _, _, trial, as_deg in result.rows:
            by_trial.setdefault(trial, []).append(as_deg)
        for values in by_trial.values():
            assert len(set(values)) == 1  # bit-identical

    def test_deterministic_repeat(self):
        cfg = scenario("B", "same", alpha_t_deg=180.0, seed=5, paths_per_cluster=100)
        a = sweep_as(cfg, SweepAxis.RX_ORIENTATION, [0.0, 40.0, 90.0], trials=2)
        b = sweep_as(cfg, SweepAxis.RX_ORIENTATION, [0.0, 40.0, 90.0], trials=2)
        assert a.rows == b.rows
        assert a.aggregate == b.aggregate

    def test_row_ordering_angle_major(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [10.0, 20.0], trials=3)
        keys = [(row[0], row[2]) for row in result.rows]
        assert keys == [(10.0, 0), (10.0, 1), (10.0, 2), (20.0, 0), (20.0, 1), (20.0, 2)]

    def test_aggregate_mean_and_std(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=50)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=5)
        values = [row[3] for row in result.rows]
        angle, mean, std = result.aggregate[0]
        assert angle == 0.0
        assert mean == pytest.approx(np.mean(values), rel=1e-12)
        assert std == pytest.approx(np.std(values, ddof=1), rel=1e-12)

    def test_single_trial_std_zero(self):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=1)
        assert result.aggregate[0][2] == 0.0

    def test_tx_sweep_overrides_tx_boresight(self):
        cfg = scenario("A", "same", alpha_t_deg=0.0, seed=1, paths_per_cluster=20)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [45.0], trials=1)
        alpha_t, alpha_r, _, _ = result.rows[0]
        assert alpha_t == 45.0 and alpha_r == 0.0

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

    def test_boresight_minimum_scenario(self):
        # antenna A at both ends, both pointing along the axis: spread within
        # a couple degrees (the documented minimum for this geometry)
        cfg = scenario("A", "same", alpha_t_deg=0.0, alpha_r_deg=0.0, seed=8)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=3)
        assert result.aggregate[0][1] == pytest.approx(1.5, abs=1.5)


def reference_sweep(config, axis, angles_deg, trials):
    """One full realization per (angle, trial), each from that trial's stream."""
    rows, aggregate = [], []
    for angle in angles_deg:
        angle = float(angle)
        if axis is SweepAxis.TX_ORIENTATION:
            cfg = replace(config, tx_pattern=config.tx_pattern.pointed_at(angle))
        else:
            cfg = replace(config, rx_pattern=config.rx_pattern.pointed_at(angle))
        spreads = np.empty(trials)
        for trial in range(trials):
            paths = run_realization(cfg, _point_rng(config.seed, axis, trial))
            spreads[trial] = angular_spread(paths)
            rows.append((cfg.tx_pattern.boresight_deg, cfg.rx_pattern.boresight_deg,
                         trial, float(spreads[trial])))
        std = float(spreads.std(ddof=1)) if trials > 1 else 0.0
        aggregate.append((angle, float(spreads.mean()), std))
    return rows, aggregate


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


PATH_ARRAYS = ("aoa_deg", "raw_power_lin", "power_lin", "source_kind", "cluster_index")

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
        rows, aggregate = reference_sweep(cfg, axis, angles, trials)
        assert result.rows == rows
        assert result.aggregate == aggregate

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
        out = np.full_like(paths_a.aoa_deg, np.nan)
        assert reweight(paths_a, cfg_b.rx_pattern, out=out).power_lin is out
        assert same_bits(out, expected.power_lin)

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

        def recording_reweight(paths, rx_pattern, out=None, scratch=None):
            weighted.append((out, scratch))
            return reweight(paths, rx_pattern, out=out, scratch=scratch)

        def recording_aim(draws, boresight_deg, out):
            aimed.append((boresight_deg, out))
            return aim_realization(draws, boresight_deg, out)

        monkeypatch.setattr(multiell.stats, "reweight", recording_reweight)
        monkeypatch.setattr(multiell.stats, "aim_realization", recording_aim)
        cfg = scenario("A", "same", alpha_t_deg=30.0, paths_per_cluster=30, seed=4)
        sweep_as(cfg, axis, [-180.0, 180.0, 0.0], trials=2)
        assert [b for b, _ in aimed] == boresights * 2
        assert len(weighted) == 6
        out, scratch = weighted[0]
        angles = aimed[0][1]
        assert out is not None and scratch is not None
        assert all(o is out and s is scratch for o, s in weighted)
        assert all(a is angles for _, a in aimed)
        assert len({id(angles), id(out), id(scratch)}) == 3

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
        rows, aggregate = reference_sweep(cfg, SweepAxis.TX_ORIENTATION, angles, 3)
        assert result.rows == rows
        assert result.aggregate == aggregate

    @given(tx=BEAMS, rx=BEAMS, rice=st.none() | st.floats(-20.0, 20.0),
           n=st.integers(1, 40), angles=SWEEP_ANGLES, axis=st.sampled_from(SweepAxis),
           trials=st.integers(1, 3), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=2000)
    def test_generated_sweeps_match_per_point_realizations(self, tx, rx, rice, n, angles,
                                                           axis, trials, seed):
        cfg = replace(scenario("A", seed=seed, paths_per_cluster=n, rice_factor_db=rice),
                      tx_pattern=tx, rx_pattern=rx)
        try:
            rows, aggregate = reference_sweep(cfg, axis, angles, trials)
        except MultiellError as exc:  # a narrow rx beam can miss every path
            with pytest.raises(type(exc)):
                sweep_as(cfg, axis, angles, trials=trials)
            return
        result = sweep_as(cfg, axis, angles, trials=trials)
        assert result.rows == rows
        assert result.aggregate == aggregate

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
        rows, aggregate = reference_sweep(cfg, axis, angles, 3)
        assert result.rows == rows
        assert result.aggregate == aggregate
        assert full_runs == []
