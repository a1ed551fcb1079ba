import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.antenna import AntennaPattern, sigma_from_hpbw
from multiell.engine import (PathSet, ScenarioConfig, SourceKind, _grid, _steer,
                             draw_realization, reweight, run_realization)
from multiell.errors import ConfigError, MultiellError
from multiell.geometry import (DEGENERATE_DELAY_S, SPEED_OF_LIGHT_M_S,
                               eccentricity_from_delay, wrap_degrees)
from multiell.pdp import builtin_nlos_profile, loads_pdp, scale_pdp
from multiell.presets import fig_presets, scenario
from multiell.scattering import VonMisesParams, sample_von_mises
from multiell.stats import _PAS_BLOCK, angular_spread, realization_pas, sweep_as

from conftest import aim_draws

TAP1_SHARE = 0.14098344168360796  # zero-delay tap's linear share of the builtin profile


def single_cluster_config(e=0.5, n=100_000, seed=9, rx=None):
    """One tap whose excess path length makes eccentricity exactly e."""
    distance = 200.0
    extra_path = distance * (1.0 - e) / e
    return ScenarioConfig(
        pdp=loads_pdp("1.0 0.0\n"),
        ds_s=extra_path / SPEED_OF_LIGHT_M_S,
        tx_pattern=AntennaPattern.omni(),
        rx_pattern=rx or AntennaPattern.omni(),
        txrx_distance_m=distance,
        paths_per_cluster=n,
        local_scattering=VonMisesParams(power_share=0.0),
        seed=seed,
    )


def usually_in(lo, hi):
    """Floats in [lo, hi], mixed with any float at all (NaN and +-inf too)."""
    return st.floats(lo, hi) | st.floats()


def pattern(hpbw, boresight):
    """Omni for ``hpbw=None``, else a Gaussian beam."""
    if hpbw is None:
        return AntennaPattern.omni()
    return AntennaPattern.gaussian(hpbw, boresight_deg=boresight)


class TestConservation:
    def test_builtin_scenario(self):
        paths = run_realization(scenario("A", "same", alpha_t_deg=180.0))
        assert float(paths.raw_power_lin.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_random_configs(self, rng):
        for trial in range(30):
            hpbw = rng.uniform(5.0, 90.0)
            share = None if trial % 3 else float(rng.uniform(0.0, 0.9))
            cfg = ScenarioConfig(
                pdp=builtin_nlos_profile(),
                ds_s=float(10 ** rng.uniform(-8.0, -6.0)),
                tx_pattern=AntennaPattern.gaussian(hpbw, boresight_deg=rng.uniform(-180, 180)),
                rx_pattern=AntennaPattern.omni(),
                txrx_distance_m=float(rng.uniform(10.0, 2000.0)),
                paths_per_cluster=50,
                local_scattering=VonMisesParams(kappa=float(rng.uniform(0, 20)),
                                                power_share=share),
                rice_factor_db=None if trial % 2 else float(rng.uniform(-10, 20)),
                seed=int(rng.integers(0, 2**32)),
            )
            assert float(run_realization(cfg).raw_power_lin.sum()) == pytest.approx(1.0, abs=1e-9)

    @given(tx_hpbw=st.none() | usually_in(0.5, 359.0), tx_at=usually_in(-180.0, 180.0),
           rx_hpbw=st.none() | usually_in(0.5, 359.0), rx_at=usually_in(-180.0, 180.0),
           ds_s=usually_in(1e-10, 1e-5), distance=usually_in(1.0, 1e4),
           n=st.integers(1, 50), kappa=usually_in(0.0, 500.0), mu=usually_in(-180.0, 180.0),
           share=st.none() | usually_in(0.0, 1.0), rice=st.none() | usually_in(-40.0, 40.0),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=2000)
    def test_generated_configs_conserve_or_raise(self, tx_hpbw, tx_at, rx_hpbw, rx_at, ds_s,
                                                 distance, n, kappa, mu, share, rice, seed):
        try:
            paths = run_realization(ScenarioConfig(
                pdp=builtin_nlos_profile(), ds_s=ds_s, tx_pattern=pattern(tx_hpbw, tx_at),
                rx_pattern=pattern(rx_hpbw, rx_at), txrx_distance_m=distance,
                paths_per_cluster=n,
                local_scattering=VonMisesParams(mu_deg=mu, kappa=kappa, power_share=share),
                rice_factor_db=rice, seed=seed))
        except MultiellError:
            return
        assert np.isfinite(paths.aoa_deg).all()
        assert np.isfinite(paths.power_lin).all()
        assert float(paths.raw_power_lin.sum()) == pytest.approx(1.0, abs=1e-9)
        # The source slices tile the paths in order, and a Rice factor puts
        # exactly one path under the direct path's kind.
        stops = [block.stop for _, _, block in paths.sources]
        direct = [block.stop - block.start for kind, _, block in paths.sources
                  if kind == SourceKind.LOS]
        assert ([block for _, _, block in paths.sources]
                == [slice(start, stop) for start, stop in zip([0, *stops], stops)]
                and stops[-1] == paths.aoa_deg.size
                and direct == ([] if rice is None else [1]))


class TestDeterminism:
    def test_same_seed_same_paths(self):
        cfg = scenario("B", "same", alpha_t_deg=180.0, alpha_r_deg=40.0, seed=77)
        a = run_realization(cfg)
        b = run_realization(cfg)
        assert np.array_equal(a.aoa_deg, b.aoa_deg)
        assert np.array_equal(a.power_lin, b.power_lin)
        assert a.sources == b.sources

    def test_different_seed_differs(self):
        a = run_realization(scenario("B", "same", seed=1))
        b = run_realization(scenario("B", "same", seed=2))
        assert not np.array_equal(a.aoa_deg, b.aoa_deg)


class TestOmniRxInvariance:
    def test_paths_identical_for_any_rx_orientation(self):
        base = scenario("A", "omni", alpha_t_deg=135.0, seed=5)
        reference = run_realization(base)
        for alpha_r in (-170.0, -45.0, 30.0, 90.0, 180.0):
            cfg = replace(base, rx_pattern=replace(base.rx_pattern, boresight_deg=alpha_r))
            paths = run_realization(cfg)
            assert np.array_equal(paths.aoa_deg, reference.aoa_deg)
            assert np.array_equal(paths.power_lin, reference.power_lin)


class TestRxWeighting:
    def test_narrower_beam_never_increases_power(self):
        cfg = scenario("A", "same", alpha_t_deg=180.0, alpha_r_deg=25.0, seed=3)
        wide = run_realization(cfg)
        narrow_rx = AntennaPattern.gaussian(8.0, boresight_deg=25.0)
        from dataclasses import replace
        narrow = run_realization(replace(cfg, rx_pattern=narrow_rx))
        assert np.array_equal(wide.aoa_deg, narrow.aoa_deg)
        assert np.all(narrow.power_lin <= wide.power_lin)

    def test_weighted_equals_raw_times_gain(self):
        from multiell.antenna import power_gain
        cfg = scenario("C", "same", alpha_t_deg=180.0, alpha_r_deg=60.0, seed=11)
        paths = run_realization(cfg)
        expected = paths.raw_power_lin * power_gain(cfg.rx_pattern, paths.aoa_deg)
        assert np.array_equal(paths.power_lin, expected)


def of_kind(paths, kind, values):
    """The entries of the per-path array ``values`` that sources of ``kind``
    fill, selected by their slices in path order."""
    return np.concatenate([values[block] for k, _, block in paths.sources if k == kind])


class TestRiceFactor:
    def test_infinite_k_gives_all_power_to_direct_path(self):
        cfg = scenario("A", "omni", seed=2, rice_factor_db=math.inf)
        paths = run_realization(cfg)
        size = paths.aoa_deg.size
        assert paths.sources[-1] == (SourceKind.LOS, -1, slice(size - 1, size))
        assert paths.aoa_deg[-1] == 0.0
        assert paths.raw_power_lin[-1] > 0.999
        assert float(paths.raw_power_lin.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_finite_k_split(self):
        cfg = scenario("A", "omni", seed=2, rice_factor_db=10.0)
        paths = run_realization(cfg)
        direct = of_kind(paths, SourceKind.LOS, paths.raw_power_lin)
        assert direct.sum() == pytest.approx(10.0 / 11.0, rel=1e-12)
        assert float(paths.raw_power_lin.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_k_beyond_float_range_is_the_infinite_limit(self):
        # 10 ** (4000 / 10) overflows a float
        huge = run_realization(scenario("A", "omni", seed=2, rice_factor_db=4000.0))
        limit = run_realization(scenario("A", "omni", seed=2, rice_factor_db=math.inf))
        assert huge.raw_power_lin.tobytes() == limit.raw_power_lin.tobytes()

    @pytest.mark.parametrize("changes", [
        {"rice_factor_db": 6.0},
        {"rice_factor_db": -3.0, "local_scattering": VonMisesParams(kappa=3.0, power_share=0.0)},
        {"rice_factor_db": 40.0, "local_scattering": VonMisesParams(kappa=3.0, power_share=None)},
    ], ids=["6dB", "no-local-share", "auto-local-share"])
    def test_raw_powers_equal_the_nlos_draw_scaled(self, changes):
        # Each scattered row is scaled as it is drawn, with the bits of the
        # NLOS draw from the same stream scaled by 1 / (K + 1) afterwards.
        cfg = replace(scenario("A", "same", seed=6, paths_per_cluster=300), **changes)
        nlos = draw_realization(replace(cfg, rice_factor_db=None))
        k = 10.0 ** (cfg.rice_factor_db / 10.0)
        expected = np.append(nlos.raw_power_lin * (1.0 / (k + 1.0)), k / (k + 1.0))
        assert draw_realization(cfg).raw_power_lin.tobytes() == expected.tobytes()

    def test_nlos_has_no_direct_path(self):
        paths = run_realization(scenario("A", "omni", seed=2))
        assert SourceKind.LOS not in [kind for kind, _, _ in paths.sources]


class TestOrderingAndRouting:
    def test_path_order_clusters_then_local_then_los(self):
        cfg = scenario("A", "same", seed=4, rice_factor_db=6.0, paths_per_cluster=10)
        paths = run_realization(cfg)
        zone = {kind: [block for k, _, block in paths.sources if k == kind]
                for kind in SourceKind}
        assert (max(block.stop for block in zone[SourceKind.CLUSTER])
                <= zone[SourceKind.LOCAL_SCATTER][0].start < zone[SourceKind.LOS][0].start)
        taps = [tap for kind, tap, _ in paths.sources if kind == SourceKind.CLUSTER]
        assert taps == sorted(taps)  # profile order
        assert min(taps) == 2  # tap 1 is the zero-delay tap, routed away

    def test_auto_share_equals_routed_power(self):
        cfg = scenario("A", "omni", seed=4,
                       local_scattering=VonMisesParams(kappa=3.0, power_share=None))
        paths = run_realization(cfg)
        local = of_kind(paths, SourceKind.LOCAL_SCATTER, paths.raw_power_lin)
        assert local.sum() == pytest.approx(TAP1_SHARE, rel=1e-9)

    def test_explicit_share_rescales_clusters(self):
        cfg = scenario("A", "omni", seed=4,
                       local_scattering=VonMisesParams(kappa=3.0, power_share=0.4))
        paths = run_realization(cfg)
        local = of_kind(paths, SourceKind.LOCAL_SCATTER, paths.raw_power_lin)
        clusters = of_kind(paths, SourceKind.CLUSTER, paths.raw_power_lin)
        assert local.sum() == pytest.approx(0.4, rel=1e-9)
        assert clusters.sum() == pytest.approx(0.6, rel=1e-9)

    def test_zero_share_still_emits_local_paths(self):
        cfg = scenario("A", "omni", seed=4, paths_per_cluster=37,
                       local_scattering=VonMisesParams(kappa=3.0, power_share=0.0))
        paths = run_realization(cfg)
        local = of_kind(paths, SourceKind.LOCAL_SCATTER, paths.raw_power_lin)
        assert local.size == 37  # drawn either way, just carrying no power
        assert np.all(local == 0.0)
        assert float(paths.raw_power_lin.sum()) == pytest.approx(1.0, abs=1e-9)


def per_cluster_labels(cfg):
    """Source kinds and cluster indices built part by part: one block of
    ``paths_per_cluster`` per geometric tap in profile order, one block of
    local scattering, then the direct path under a Rice factor."""
    n = cfg.paths_per_cluster
    kinds, index = [], []
    delays = scale_pdp(cfg.pdp, cfg.ds_s).excess_delays_s
    for i, delay in enumerate(delays, start=1):
        if delay > DEGENERATE_DELAY_S:
            kinds.append(np.full(n, SourceKind.CLUSTER, dtype=np.int8))
            index.append(np.full(n, i, dtype=np.int32))
    kinds.append(np.full(n, SourceKind.LOCAL_SCATTER, dtype=np.int8))
    index.append(np.full(n, -1, dtype=np.int32))
    if cfg.rice_factor_db is not None:
        kinds.append(np.full(1, SourceKind.LOS, dtype=np.int8))
        index.append(np.full(1, -1, dtype=np.int32))
    return np.concatenate(kinds), np.concatenate(index)


class TestPathLabels:
    @pytest.mark.parametrize("cfg", [
        scenario("A", "same", seed=4, paths_per_cluster=7),
        scenario("C", "omni", seed=4, paths_per_cluster=7, rice_factor_db=6.0),
        scenario("A", "omni", seed=4, paths_per_cluster=7,
                 local_scattering=VonMisesParams(kappa=3.0, power_share=0.4)),
        ScenarioConfig(pdp=loads_pdp("0.0 0\n0.0 -3\n"), ds_s=1e-7,
                       tx_pattern=AntennaPattern.omni(), rx_pattern=AntennaPattern.omni(),
                       paths_per_cluster=7, seed=4),
    ], ids=["nlos", "rice-6dB", "explicit-share", "zero-delay-only"])
    def test_kind_and_index_match_per_cluster_parts(self, cfg):
        paths = run_realization(cfg)
        kinds, index = per_cluster_labels(cfg)
        # Expand the per-source slices to per-path labels; -9 marks a path
        # that no slice covers.
        got_kinds = np.full(paths.aoa_deg.size, -9, dtype=np.int8)
        got_index = np.full(paths.aoa_deg.size, -9, dtype=np.int32)
        for kind, tap, block in paths.sources:
            got_kinds[block], got_index[block] = kind, tap
        assert np.array_equal(got_kinds, kinds)
        assert np.array_equal(got_index, index)
        assert paths.aoa_deg.size == kinds.size


class TestPushforward:
    def test_single_cluster_matches_uniform_aod_pushforward(self):
        # weighted arrival histogram vs quadrature of the analytic density
        # (1/2pi) (1-e^2) / (1+e^2 - 2 e cos phi), the uniform-departure
        # image on one ellipse
        e = 0.5
        paths = run_realization(single_cluster_config(e=e, n=100_000))
        edges = np.linspace(-180.0, 180.0, 101)  # 3.6 degree bins
        counts, _ = np.histogram(paths.aoa_deg, bins=edges, weights=paths.power_lin)
        empirical = counts / counts.sum()

        expected = np.empty(100)
        for i in range(100):
            theta = np.radians(np.linspace(edges[i], edges[i + 1], 201))
            density = (1.0 - e * e) / (2.0 * np.pi * (1.0 + e * e - 2.0 * e * np.cos(theta)))
            expected[i] = np.trapezoid(density, theta)
        expected /= expected.sum()

        tv = 0.5 * np.abs(empirical - expected).sum()
        assert tv < 0.02


class TestValidation:
    def test_invalid_fields_raise(self):
        good = scenario("A", "same")
        from dataclasses import replace
        for bad in (
            dict(txrx_distance_m=0.0),
            dict(ds_s=0.0),
            dict(paths_per_cluster=0),
            dict(paths_per_cluster=1_000_001),  # raises before any draw
            dict(seed=-1),
            dict(seed=2**64),
            dict(txrx_distance_m=math.nan),
            dict(txrx_distance_m=math.inf),
            dict(ds_s=math.nan),
            dict(ds_s=math.inf),
            dict(ds_s=1e308),  # the last tap's delay overflows
            dict(txrx_distance_m=10**400),  # an int beyond the float range
            dict(ds_s=10**400),
            dict(seed=1.5),  # integers only, Python or numpy
            dict(seed=2.0),
            dict(seed="3"),
            dict(paths_per_cluster=2.5),
            dict(paths_per_cluster=20.0),
        ):
            with pytest.raises(ConfigError) as caught:
                replace(good, **bad)
            assert len(str(caught.value)) < 100  # the field, not 401 digits

    @pytest.mark.parametrize("make", [
        lambda: replace(scenario("A"), tx_pattern=None),
        lambda: replace(scenario("A"), rx_pattern="omni"),
        lambda: replace(scenario("A"), local_scattering=None),
        lambda: replace(scenario("A"), pdp=None),
        lambda: AntennaPattern("omni"),
        lambda: AntennaPattern(None),
    ], ids=["tx_pattern", "rx_pattern", "local_scattering", "pdp", "kind-str", "kind-None"])
    def test_object_fields_of_another_type_raise(self, make):
        # Each was built, then raised AttributeError or TypeError at its first use.
        with pytest.raises(ConfigError):
            make()

    def test_path_count_ceiling_is_inclusive(self):
        from dataclasses import replace
        replace(scenario("A", "same"), paths_per_cluster=1_000_000)

    @pytest.mark.parametrize("key", [(-1,), (1, -2), (1.5,), ("0",), 5, 2.5, None,
                                     np.random.default_rng(0), "12"])
    def test_bad_stream_key_raises(self, key):
        # A key that is not a sequence raised a bare TypeError, and "12", read
        # entry by entry, was named by its first entry alone.
        for draw in (draw_realization, run_realization):
            with pytest.raises(ConfigError) as caught:
                draw(scenario("A", "same", paths_per_cluster=20), key)
            assert f"got {key!r}" in str(caught.value)

    @pytest.mark.parametrize("make, name", [
        (lambda: replace(scenario("A"), seed=10**400), "seed"),
        (lambda: replace(scenario("A"), seed=10**300), "seed"),
        (lambda: replace(scenario("A"), seed=-10**5000), "seed"),
        (lambda: replace(scenario("A"), paths_per_cluster=10**400), "paths_per_cluster"),
        (lambda: run_realization(scenario("A", "same", paths_per_cluster=20), (-10**400,)),
         "stream_key"),
        (lambda: draw_realization(scenario("A", "same", paths_per_cluster=20), [1, -10**400]),
         "stream_key"),
    ], ids=["seed", "seed-301-digits", "seed-5001-digits", "paths_per_cluster", "stream_key",
            "stream_key-list"])
    def test_a_long_int_is_named_in_short(self, make, name):
        # Each printed every digit; past 4,300 digits the message itself
        # raised a bare ValueError.
        with pytest.raises(ConfigError, match=f"^{name} .*an int of more than 40 digits$") as caught:
            make()
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.uint32(5)])
    def test_numpy_integer_seed_is_the_python_int(self, seed):
        cfg = scenario("A", "same", seed=5, paths_per_cluster=50)
        for key in ((), (2, 3)):
            got = run_realization(replace(cfg, seed=seed), key)
            expected = run_realization(cfg, key)
            for name in ("aoa_deg", "raw_power_lin", "power_lin"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


def at_boresight_0(cfg):
    """``cfg`` with its transmit beam turned to 0 degrees."""
    return replace(cfg, tx_pattern=replace(cfg.tx_pattern, boresight_deg=0.0))


def per_cluster_draws(cfg, rng):
    """The engine's sampling as it ran cluster by cluster before the draw
    stage: per geometric tap, ``rng.normal`` around the tx boresight with
    every draw beyond 180 degrees drawn again (omni: ``random(n)`` scaled to
    [-180, 180)), then ``random(n)`` for the power split. Returns the
    unwrapped departure angles and the uniforms, one row per cluster, and
    whether any draw was redrawn."""
    n = cfg.paths_per_cluster
    delays = scale_pdp(cfg.pdp, cfg.ds_s).excess_delays_s
    streams = rng.spawn(len(delays) + 1)
    tx = cfg.tx_pattern
    aods, uniforms, redrawn = [], [], False
    for i in np.flatnonzero(delays > DEGENERATE_DELAY_S):
        if tx.hpbw_deg is None:
            draws = streams[i].random(n) * 360.0 - 180.0
        else:
            sigma = sigma_from_hpbw(tx.hpbw_deg)
            draws = streams[i].normal(tx.boresight_deg, sigma, n)
            while True:
                bad = np.abs(draws - tx.boresight_deg) > 180.0
                if not bad.any():
                    break
                redrawn = True
                draws[bad] = streams[i].normal(tx.boresight_deg, sigma, int(bad.sum()))
        aods.append(draws)
        uniforms.append(streams[i].random(n))
    return np.array(aods), np.array(uniforms), redrawn


AUTO_SHARE = VonMisesParams(kappa=10.0, power_share=None)  # cluster budgets = tap powers


class TestDrawStage:
    @pytest.mark.parametrize("cfg", [
        scenario("D", "same", alpha_t_deg=-35.0, seed=6, paths_per_cluster=300,
                 local_scattering=AUTO_SHARE),
        replace(scenario("A", "omni", seed=6, paths_per_cluster=300, local_scattering=AUTO_SHARE),
                tx_pattern=AntennaPattern.gaussian(330.0, boresight_deg=120.0)),
        replace(scenario("A", "omni", seed=6, paths_per_cluster=300, local_scattering=AUTO_SHARE),
                tx_pattern=AntennaPattern.omni()),
    ], ids=["narrow-tx", "wide-tx", "omni-tx"])
    def test_matches_per_cluster_sampler(self, cfg):
        draws = draw_realization(cfg)
        # Drawn around a boresight of 0, the departures are the offsets,
        # which the draws hold as half-angle tangents.
        offsets, uniforms, redrawn = per_cluster_draws(at_boresight_0(cfg), np.random.default_rng(
            np.random.SeedSequence(cfg.seed)))
        assert draws.tangents.tobytes() == np.tan(offsets * (np.pi / 360.0)).tobytes()
        powers = scale_pdp(cfg.pdp, cfg.ds_s).powers_lin[1:]  # tap 1 is routed away
        rows = draws.raw_power_lin.reshape(-1, cfg.paths_per_cluster)[:-1]  # last: local
        for row, u, budget in zip(rows, uniforms, powers, strict=True):
            assert row.tobytes() == (u * (float(budget) / u.sum())).tobytes()
        # the tail: n von Mises angles, then n uniforms for the routed share,
        # both from the last spawned stream
        n, taps = cfg.paths_per_cluster, scale_pdp(cfg.pdp, cfg.ds_s).powers_lin
        local = np.random.default_rng(np.random.SeedSequence(cfg.seed)).spawn(taps.size + 1)[-1]
        tail = draws.angles[draws.tangents.size:]
        expected = np.empty(n)
        sample_von_mises(cfg.local_scattering, local, expected)
        assert tail[:n].tobytes() == expected.tobytes()
        u = local.random(n)
        share = float(taps[0])  # the auto share is the routed tap's power
        assert draws.raw_power_lin[-n:].tobytes() == (u * (share / u.sum())).tobytes()
        assert redrawn == (cfg.tx_pattern.hpbw_deg == 330.0)


class TestAimStage:
    def test_other_boresight_matches_its_own_realization(self):
        narrow = scenario("C", "same", alpha_t_deg=10.0, alpha_r_deg=-20.0, seed=8,
                          paths_per_cluster=200, rice_factor_db=3.0)
        # a 330-degree beam makes the redraw rule fire in every cluster
        wide = replace(scenario("A", "omni", seed=6, paths_per_cluster=300),
                       tx_pattern=AntennaPattern.gaussian(330.0, boresight_deg=120.0))
        for cfg in (narrow, wide):
            draws = draw_realization(cfg)
            aoa, raw = np.empty(draws.angles.size), draws.raw_power_lin
            for alpha_t in (-180.0, -95.5, -60.0, 0.0, 10.0, 120.0, 179.0):
                aimed = replace(cfg, tx_pattern=replace(cfg.tx_pattern, boresight_deg=alpha_t))
                assert aim_draws(draws, aimed.tx_pattern.boresight_deg, aoa) is aoa
                got = reweight(PathSet(aoa, raw, raw, draws.sources), aimed.rx_pattern)
                expected = run_realization(aimed)
                for name in ("aoa_deg", "raw_power_lin", "power_lin"):
                    assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
                assert got.sources == expected.sources

    @pytest.mark.parametrize("cfg", [
        scenario("C", "same", alpha_t_deg=40.0, alpha_r_deg=-30.0, seed=8,
                 paths_per_cluster=200),
        scenario("A", "omni", alpha_t_deg=100.0, seed=8, paths_per_cluster=200,
                 rice_factor_db=3.0),
        replace(scenario("A", "omni", seed=8, paths_per_cluster=200, rice_factor_db=3.0),
                tx_pattern=AntennaPattern.omni()),
    ], ids=["gaussian-tx", "rice", "omni-tx"])
    def test_in_place_equals_new_array(self, cfg):
        fresh_draws = draw_realization(cfg)
        fresh = np.empty(fresh_draws.angles.size)
        turn = _steer(cfg.tx_pattern) or 0.0
        expected = aim_draws(fresh_draws, turn, fresh)
        draws = draw_realization(cfg)
        got = aim_draws(draws, turn, draws.angles)
        assert expected is fresh and got is draws.angles
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == run_realization(cfg).aoa_deg.tobytes()

    @pytest.mark.parametrize("tx", [AntennaPattern.gaussian(20.0, boresight_deg=150.0),
                                    AntennaPattern.omni()], ids=["gaussian-tx", "omni-tx"])
    def test_other_ratios_give_the_realization_at_another_delay_spread(self, tx):
        # Above about 0.93 ns every tap of the bundled profile but the first
        # stays geometric, so a trial's draws depend on the delay spread only
        # through the ratios: a delay-spread sweep can draw once and aim again.
        base = replace(scenario("A", "same", seed=7, paths_per_cluster=200), tx_pattern=tx)
        drawn, other = replace(base, ds_s=50e-9), replace(base, ds_s=700e-9)
        draws = replace(draw_realization(drawn), ratios=draw_realization(other).ratios)
        expected = run_realization(other)
        got = aim_draws(draws, _steer(tx) or 0.0, np.empty(draws.angles.size))
        assert got.tobytes() == expected.aoa_deg.tobytes()
        assert draws.raw_power_lin.tobytes() == expected.raw_power_lin.tobytes()

    def test_draws_share_one_angle_buffer(self):
        draws = draw_realization(scenario("C", "same", seed=8, paths_per_cluster=50,
                                          rice_factor_db=3.0))
        assert draws.angles.size == draws.raw_power_lin.size
        assert np.shares_memory(draws.tangents, draws.angles)
        assert np.shares_memory(draws.tail_aoa, draws.angles)
        assert draws.tangents.size + draws.tail_aoa.size == draws.angles.size


def cluster_eccentricities(cfg):
    """One row per geometric cluster: its ellipse's eccentricity."""
    delays = scale_pdp(cfg.pdp, cfg.ds_s).excess_delays_s
    geometric = delays[delays > DEGENERATE_DELAY_S]
    return eccentricity_from_delay(geometric, cfg.txrx_distance_m).reshape(-1, 1)


def always_wrapping_aim(draws, turn_deg, eccentricities):
    """The arrival angles of ``draws`` turned by ``turn_deg`` (as
    ``aim_draws`` takes it) by tangent addition with every pass always run:
    the quotient even where the turn's half-angle tangent is 0, and the wrap
    of every arrival into (-180, 180]; the ratio is taken from the
    eccentricities."""
    t = draws.tangents
    t_b = math.tan(turn_deg * (math.pi / 360.0))
    ratio = (1.0 - eccentricities) / (1.0 + eccentricities)
    with np.errstate(divide="ignore"):
        out = np.arctan(ratio * ((t + t_b) / (1.0 - t_b * t))) * (360.0 / math.pi)
    return np.concatenate([wrap_degrees(out).reshape(-1), draws.tail_aoa])


def circle_error_deg(got, reference):
    """|got - reference| in degrees, taken on the circle."""
    return abs((got - reference + 180.0) % 360.0 - 180.0)


# +-0, +-180 and their neighbours, and a boresight either side of 0.
EDGE_BORESIGHTS = [0.0, -0.0, 5e-324, -5e-324, 180.0, -180.0, np.nextafter(180.0, 0.0),
                   np.nextafter(-180.0, 0.0), 90.0, -37.0, 172.5, -172.5]


class TestAimSkips:
    """The aim skips the quotient of the tangent addition where the
    boresight's half-angle tangent is +-0, wraps no departure, and sends an
    arrival of -180 to 180 only where one occurs; the angles keep every bit
    of the aim that always runs every pass."""

    CONFIGS = {
        "narrow-tx": scenario("D", "same", seed=6, paths_per_cluster=300, rice_factor_db=3.0),
        # a 359-degree beam makes the redraw rule fire in every cluster
        "wide-tx": replace(scenario("A", "omni", seed=6, paths_per_cluster=300),
                           tx_pattern=AntennaPattern.gaussian(359.0)),
        "omni-tx": replace(scenario("A", "omni", seed=6, paths_per_cluster=300),
                           tx_pattern=AntennaPattern.omni()),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_offsets_lie_within_the_bound(self, name):
        # Every offset lies within the redraw rule's bound of 180, so every
        # tangent is at most tan(90 degrees) as rounded.
        cfg = self.CONFIGS[name]
        draws = draw_realization(cfg)
        assert np.abs(draws.tangents).max() <= np.tan(np.pi / 2.0)
        offsets, _, redrawn = per_cluster_draws(at_boresight_0(cfg), np.random.default_rng(
            np.random.SeedSequence(cfg.seed)))
        assert np.abs(offsets).max() <= 180.0
        assert redrawn == (name == "wide-tx")

    def test_ratios_are_computed_from_the_eccentricities(self):
        cfg = self.CONFIGS["narrow-tx"]
        e = cluster_eccentricities(cfg)
        assert draw_realization(cfg).ratios.tobytes() == ((1.0 - e) / (1.0 + e)).tobytes()

    @pytest.mark.parametrize("boresight", EDGE_BORESIGHTS)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_bitwise_equal_to_always_wrapping_aim(self, name, boresight):
        cfg = self.CONFIGS[name]
        draws = draw_realization(cfg)
        turn = boresight if _steer(cfg.tx_pattern) is not None else 0.0
        expected = always_wrapping_aim(draws, turn, cluster_eccentricities(cfg))
        out = np.full(draws.angles.size, np.nan)
        assert aim_draws(draws, turn, out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("boresight", EDGE_BORESIGHTS)
    def test_departures_on_the_half_turn(self, boresight):
        # One offset puts its departure on 180 or -180 exactly, in the
        # cluster of the smallest ratio, where the map is steepest there.
        cfg = self.CONFIGS["narrow-tx"]
        draws = draw_realization(cfg)
        offset = 180.0 - boresight if boresight >= 0.0 else -180.0 - boresight
        assert abs(offset + boresight) == 180.0
        draws.tangents[0, 0] = np.tan(offset * (np.pi / 360.0))
        expected = always_wrapping_aim(draws, boresight, cluster_eccentricities(cfg))
        got = aim_draws(draws, boresight, np.full(draws.angles.size, np.nan))
        assert got.tobytes() == expected.tobytes()
        assert -180.0 < got[0] <= 180.0 and circle_error_deg(got[0], 180.0) < 1e-12

    def test_omni_draw_of_minus_180(self):
        cfg = self.CONFIGS["omni-tx"]
        draws = draw_realization(cfg)
        draws.tangents[0, 0] = np.tan(-180.0 * (np.pi / 360.0))  # a uniform draw of 0
        expected = always_wrapping_aim(draws, 0.0, cluster_eccentricities(cfg))
        got = aim_draws(draws, 0.0, np.full(draws.angles.size, np.nan))
        assert got.tobytes() == expected.tobytes()
        assert -180.0 < got[0] <= 180.0 and circle_error_deg(got[0], 180.0) < 1e-12

    @pytest.mark.parametrize("boresight", [0.0, -0.0])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_signed_zero_departures_keep_their_sign(self, name, boresight):
        # Offsets of -0 and +0 at a boresight of +-0 (for an omni transmitter
        # departures of -0 and +0) have tangents of their own sign, which the
        # skipped quotient leaves as they are: each arrives at a zero of its
        # departure's sign, aimed into another buffer or into the draws' own.
        cfg = self.CONFIGS[name]
        draws = draw_realization(cfg)
        draws.tangents[:, 0] = np.tan(-0.0)
        draws.tangents[:, 1] = np.tan(0.0)
        turn = boresight if _steer(cfg.tx_pattern) is not None else 0.0
        got = aim_draws(draws, turn, np.full(draws.angles.size, np.nan))
        assert aim_draws(draws, turn, draws.angles).tobytes() == got.tobytes()
        zeros = got[:draws.tangents.size].reshape(draws.tangents.shape)[:, :2]
        assert (zeros == 0.0).all()
        assert np.signbit(zeros[:, 0]).all() and not np.signbit(zeros[:, 1]).any()


class TestAimAccuracy:
    """The tangent-addition aim against the single-bounce map taken at 40
    significant digits: aoa = 2 atan(r tan((b + o) / 2)) for the departure
    b + o as an exact sum, at the float ratios r the draws hold."""

    # Offsets on both ends of the redraw bound, their neighbours, +-0 and
    # the smallest subnormals, in every cluster.
    EDGE_OFFSETS = [180.0, -180.0, np.nextafter(180.0, 0.0), np.nextafter(-180.0, 0.0), 0.0,
                    -0.0, 5e-324, -5e-324, 90.0, -90.0]
    BORESIGHTS = [*np.linspace(-180.0, 180.0, 9), -0.0, np.nextafter(180.0, 0.0),
                  np.nextafter(-180.0, 0.0), 5e-324, -5e-324]

    @pytest.mark.parametrize("tx", [AntennaPattern.gaussian(20.0), AntennaPattern.omni()],
                             ids=["gaussian-tx", "omni-tx"])
    def test_arrivals_within_1e_12_degrees_of_the_reference(self, tx):
        mp = pytest.importorskip("mpmath")
        n = 100
        cfg = replace(scenario("A", "omni", seed=4, paths_per_cluster=n), tx_pattern=tx)
        draws = draw_realization(cfg)
        rng = np.random.default_rng(12)
        offsets = np.concatenate([
            np.tile(self.EDGE_OFFSETS, (draws.ratios.size, 1)),
            rng.uniform(-180.0, 180.0, (draws.ratios.size, n // 2)),
            rng.normal(0.0, 10.0, (draws.ratios.size, n // 2 - len(self.EDGE_OFFSETS)))],
            axis=1)
        draws.tangents[:] = np.tan(offsets * (np.pi / 360.0))
        out = np.empty(draws.angles.size)
        worst = 0.0
        with mp.workdps(40):
            ratios = [mp.mpf(float(r)) for r in draws.ratios[:, 0]]
            for boresight in self.BORESIGHTS if _steer(tx) is not None else [0.0]:
                got = aim_draws(draws, boresight, out)[:offsets.size].reshape(offsets.shape)
                assert np.all((got > -180.0) & (got <= 180.0)), boresight
                for r, row, arrivals in zip(ratios, offsets, got):
                    for o, aoa in zip(row, arrivals):
                        departure = mp.mpf(float(boresight)) + mp.mpf(float(o))
                        exact = 2 * mp.atan(r * mp.tan(departure * mp.pi / 360)) * 180 / mp.pi
                        error = abs((mp.mpf(float(aoa)) - exact + 180) % 360 - 180)
                        worst = max(worst, float(error))
        # The aim that added the boresight, wrapped and took the tangent of
        # each departure measured 1.8e-12 here; this one 7.1e-13.
        assert worst < 1e-12


class TestOmniReweight:
    def test_power_is_the_raw_power(self):
        paths = run_realization(scenario("C", "same", alpha_t_deg=20.0, seed=3,
                                         paths_per_cluster=100, rice_factor_db=6.0))
        shared = reweight(paths, AntennaPattern.omni())
        assert shared.power_lin is paths.raw_power_lin

    @pytest.mark.parametrize("keyword, value", [
        ("out", np.empty(1)), ("scratch", np.empty(1)), ("angle_range", (0.0, 0.0))])
    def test_takes_no_buffers_and_no_trusted_range(self, keyword, value):
        # A range that does not bound the angles once gave zero powers here.
        raw = np.array([1.0])
        paths = PathSet(np.array([-170.0]), raw, raw, ((SourceKind.CLUSTER, 1, slice(0, 1)),))
        rx = AntennaPattern.gaussian(20.0, boresight_deg=170.0)
        assert reweight(paths, rx).power_lin.tolist() == [pytest.approx(0.0625, rel=1e-12)]
        with pytest.raises(TypeError):
            reweight(paths, rx, **{keyword: value})
        assert list(inspect.signature(reweight).parameters) == ["paths", "rx_pattern"]


def with_boresights(cfg, tx_deg, rx_deg):
    """The (tx, rx) point of ``cfg``'s patterns turned to these boresights."""
    return (replace(cfg.tx_pattern, boresight_deg=tx_deg),
            replace(cfg.rx_pattern, boresight_deg=rx_deg))


class TestGridPoints:
    # Points in sweep order with repeats: -180 and 180 are one boresight, +0
    # and -0 are one, and an omni end's boresight is no part of a point.
    KEYS = [(2, 0), (2, 1)]
    BEAM = AntennaPattern.gaussian(30.0)
    OMNI = AntennaPattern.omni()
    CASES = {
        "both-directional": (BEAM, BEAM, [(-180.0, 0.0), (180.0, -0.0), (0.0, 30.0),
                                          (-0.0, 30.0), (180.0, 30.0), (-180.0, 0.0)], 3),
        # the aim must run at the first point although its tx part is None
        "omni-tx": (OMNI, BEAM, [(0.0, 20.0), (90.0, -180.0), (-90.0, 180.0), (45.0, 20.0),
                                 (0.0, -60.0)], 3),
        "omni-rx": (BEAM, OMNI, [(10.0, 0.0), (10.0, 45.0), (-170.0, 90.0), (190.0, 0.0)], 2),
        "both-omni": (OMNI, OMNI, [(0.0, 0.0), (90.0, -90.0), (180.0, 45.0)], 1),
    }

    @pytest.mark.parametrize("spare", [False, True])
    @pytest.mark.parametrize("case", list(CASES))
    def test_each_distinct_point_once_per_key_and_one_entry_per_point(self, case, spare):
        tx, rx, boresights, distinct = self.CASES[case]
        cfg = replace(scenario("A", seed=8, paths_per_cluster=30, rice_factor_db=3.0),
                      tx_pattern=tx, rx_pattern=rx)
        points = [with_boresights(cfg, t, r) for t, r in boresights]
        reduced = []

        def spread(draws, aoa, power, free):
            reduced.append(1)
            return angular_spread(PathSet(aoa, draws.raw_power_lin, power, draws.sources))

        got = _grid(cfg, self.KEYS, points, spread, spare)
        assert len(reduced) == distinct * len(self.KEYS)
        assert [len(row) for row in got] == [len(points)] * len(self.KEYS)
        for key, row in zip(self.KEYS, got):
            for (point_tx, point_rx), value in zip(points, row):
                expected = angular_spread(run_realization(
                    replace(cfg, tx_pattern=point_tx, rx_pattern=point_rx), key))
                assert value.hex() == expected.hex(), (key, point_tx, point_rx)


class TestRealizationMemory:
    def test_one_realization_holds_two_float_arrays(self):
        cfg = replace(fig_presets()["fig2-C-omni"].config, rice_factor_db=6.0,
                      paths_per_cluster=20_000)
        paths = 23 * 20_000 + 1  # 22 geometric taps, local scattering, the direct path
        floats = 8 * paths  # one float64 array: 3.68 MB
        # Drawn angles aimed in place and raw powers shared by the omni rx:
        # 2 float arrays, 7.36 MB, with provenance per source, not per path
        # (8.24 MB traced, temporaries included). A separate arrival array
        # and weighted copy would be 4: 14.72 MB. The bound is 3 float
        # arrays, 11.04 MB.
        bound = 3 * floats
        run_realization(cfg)  # first call outside the trace: caches and imports
        tracemalloc.start()
        try:
            result = run_realization(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.aoa_deg.size == paths
        assert peak < bound

    @pytest.mark.parametrize("cfg, bound", [
        (replace(fig_presets()["fig4-A"].config, paths_per_cluster=20_000), 3.5),
        (scenario("A", alpha_t_deg=30.0, alpha_r_deg=30.0, paths_per_cluster=20_000), 3.5),
        (scenario("A", alpha_t_deg=90.0, alpha_r_deg=150.0, paths_per_cluster=20_000), 4.5),
    ], ids=["fig4-A-rx-at-0", "A-at-30", "A-rx-wraps"])
    def test_directional_realization_holds_the_weighted_powers(self, cfg, bound):
        # The drawn angles aimed in place, the raw powers and the weighted
        # powers: 3.0 float arrays traced at rx 0 (fig4-A) and with tx and rx
        # at 30, where the weighted powers' buffer is the aim's scratch. At
        # rx 150 some differences pass 180, so the gain takes the wrap
        # candidate in one more array while it runs: 4.0.
        run_realization(cfg)  # first call outside the trace: caches and imports
        tracemalloc.start()
        try:
            result = run_realization(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.power_lin is not result.raw_power_lin
        assert peak < bound * 8 * result.aoa_deg.size

    @pytest.mark.parametrize("paths_per_cluster", [20_000, 200_000])
    @pytest.mark.parametrize("name, changes", [("fig2-C-omni", {"rice_factor_db": 6.0}),
                                               ("fig4-A", {})])
    def test_pas_route_holds_row_sized_buffers(self, name, changes, paths_per_cluster):
        # The streamed PAS draws, aims and weights each source row in a row
        # of angles and a row of powers, bins them and sums the powers as the
        # row passes: at 0.1-degree bins, 3.05 rows traced at 200,000 paths
        # per cluster and 5.90 at 20,000, with the draws' and the gain's row
        # temporaries and the binner's q, k and bin index, each as long as the
        # row or a block, whichever is shorter. Keeping the path powers whole
        # for their total measured 27.1 rows at 200,000; two more gather
        # buffers a block long, 11.8 rows at 20,000. The bound grows with the
        # row, not with the cluster count: 4 rows and the binner's 3 buffers.
        cfg = replace(fig_presets()[name].config, paths_per_cluster=paths_per_cluster, **changes)
        bound = 4 * 8 * paths_per_cluster + 3 * 8 * min(paths_per_cluster, _PAS_BLOCK)
        realization_pas(cfg, 0.1)  # first call outside the trace: caches and imports
        tracemalloc.start()
        try:
            realization_pas(cfg, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    WIDE_TX = replace(fig_presets()["fig4-A"].config,
                      tx_pattern=AntennaPattern.gaussian(330.0, boresight_deg=120.0))

    @pytest.mark.parametrize("paths_per_cluster", [20_000, 70_000, 200_000])
    @pytest.mark.parametrize("cfg", [
        replace(fig_presets()["fig2-C-omni"].config, rice_factor_db=6.0),
        fig_presets()["fig4-A"].config, fig_presets()["fig8-A"].config, WIDE_TX,
    ], ids=["fig2-C-omni-rice-6", "fig4-A", "fig8-A", "wide-tx"])
    def test_pas_route_holds_two_rows_and_block_sized_temporaries(self, cfg, paths_per_cluster):
        # Beside its row of angles and row of powers, the streamed PAS holds
        # only temporaries a block of _PAS_BLOCK paths long, or the row where
        # that is shorter: the von Mises draws', the aim's and the gain's
        # (freed before the row is binned), and the binner's. At 0.1-degree
        # bins, 2.75-2.94 blocks traced above the two rows. A row-sized aim
        # denominator, von Mises draw, gain array and |offset| temporary,
        # with a third binner buffer for the floor, gave 3.75-7.95 (7.95: the
        # 330-degree beam's redraw rounds at 200,000 paths).
        cfg = replace(cfg, paths_per_cluster=paths_per_cluster)
        bound = 8 * (2 * paths_per_cluster + 3.5 * min(paths_per_cluster, _PAS_BLOCK))
        realization_pas(cfg, 0.1)  # first call outside the trace: caches and imports
        tracemalloc.start()
        try:
            realization_pas(cfg, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_pas_route_at_the_finest_bins_holds_three_bin_arrays(self):
        # At 1e-4-degree bins (3.6M, more than a row) the binner's q, k and
        # bin index are a row long, not a block of the bin count, and a row's
        # np.bincount covers only its own span of bins. Traced at 200,000
        # paths per cluster: 89.6 MB, three bin-count arrays (86.4 MB: the
        # edges, the per-bin sums and the bin centers) and 2.00 rows. The
        # bound leaves room for a row whose count spans every bin: three
        # bin-count arrays and 7 rows. Buffers the bin count long measured
        # 233.6 MB.
        cfg = replace(fig_presets()["fig2-C-omni"].config, rice_factor_db=6.0,
                      paths_per_cluster=200_000)
        bins = 3_600_000
        bound = 3 * 8 * (bins + 1) + 7 * 8 * cfg.paths_per_cluster
        realization_pas(replace(cfg, paths_per_cluster=1), 1e-4)  # caches and imports
        tracemalloc.start()
        try:
            spectrum = realization_pas(cfg, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.density_per_deg.size == bins
        assert peak < bound

    def test_rescaled_pas_route_at_the_finest_bins_holds_three_bin_arrays(self):
        # fig2-D under a 6-degree receive beam at 150 degrees totals 2.76e-307
        # at seed 1, below the range, so the paths are binned again divided
        # by the largest power. Traced at 1e-4-degree bins: 86.4 MB, three
        # bin-count arrays, as without the rescale. Holding the first pass's
        # per-bin sums across the second made four: 115.2 MB.
        cfg = fig_presets()["fig2-D"].config
        cfg = replace(cfg, rx_pattern=replace(cfg.rx_pattern, hpbw_deg=6.0,
                                              boresight_deg=150.0))
        assert 0.0 < run_realization(cfg).power_lin.sum() < 1e-300
        bins = 3_600_000
        bound = 3 * 8 * (bins + 1) + 7 * 8 * cfg.paths_per_cluster
        realization_pas(cfg, 1e-4)  # first call outside the trace: caches and imports
        tracemalloc.start()
        try:
            spectrum = realization_pas(cfg, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.density_per_deg.size == bins
        assert peak < bound

    @pytest.mark.parametrize("name, bound", [("fig4-A", 4.5), ("fig2-D", 5.5)])
    def test_sweep_holds_the_draws_and_at_most_three_buffers(self, name, bound):
        # An rx sweep (fig4-A) aims each trial once, in the draws' own
        # buffer: the draws' two float arrays plus the weighted powers and
        # the deviations, 4.11 arrays traced with the next trial's draw
        # temporaries. A tx sweep (fig2-D) turning the beam adds a buffer of
        # arrival angles: 5.11. Holding the last trial's draws while drawing
        # the next, and an arrival buffer in every sweep, made 7.11 in both.
        preset = fig_presets()[name]
        cfg = replace(preset.config, paths_per_cluster=20_000)
        floats = 8 * 23 * 20_000
        sweep_as(cfg, preset.axis, [30.0, 60.0], trials=2)  # caches and imports
        tracemalloc.start()
        try:
            sweep_as(cfg, preset.axis, [30.0, 60.0], trials=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * floats
