import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from multiell.errors import ConfigError, KappaOutOfRange
from multiell.geometry import _PAS_BLOCK, wrap_degrees
from multiell.scattering import VonMisesParams, sample_von_mises, von_mises_pdf

from conftest import BAD_OUTS


def draw(params, rng, size):
    out = np.empty(size)
    sample_von_mises(params, rng, out)
    return out


class TestVonMisesPdf:
    def test_uniform_limit(self):
        params = VonMisesParams(kappa=0.0)
        assert von_mises_pdf(37.0, params) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_peak_value_kappa2(self):
        # e^2 / (2 pi I0(2)), I0(2) checked against an independent evaluation
        params = VonMisesParams(mu_deg=10.0, kappa=2.0)
        assert von_mises_pdf(10.0, params) == pytest.approx(0.5158854120190137, rel=1e-10)

    def test_antipodal_value_kappa2(self):
        params = VonMisesParams(mu_deg=10.0, kappa=2.0)
        expected = math.exp(-2.0) / (2.0 * math.pi * float(special.i0(2.0)))
        assert von_mises_pdf(-170.0, params) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 10.0, 50.0])
    def test_normalization(self, kappa):
        params = VonMisesParams(kappa=kappa)
        phi = np.linspace(-180.0, 180.0, 720_001)
        density = von_mises_pdf(phi, params)
        integral = np.trapezoid(density, np.radians(phi))
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_about_mean(self):
        params = VonMisesParams(mu_deg=-42.0, kappa=4.0)
        for d in (1.0, 30.0, 120.0):
            assert von_mises_pdf(-42.0 + d, params) == pytest.approx(
                von_mises_pdf(-42.0 - d, params), rel=1e-12)

    def test_window_mass_increases_with_kappa(self):
        phi = np.linspace(-10.0, 10.0, 4001)
        masses = []
        for kappa in (0.0, 1.0, 2.0, 5.0, 10.0):
            density = von_mises_pdf(phi, VonMisesParams(kappa=kappa))
            masses.append(np.trapezoid(density, np.radians(phi)))
        assert all(b > a for a, b in zip(masses, masses[1:]))

    @pytest.mark.parametrize("kappa", [0.5, 75.0, 350.0, 500.0])
    def test_matches_scipy_density(self, kappa):
        from scipy.stats import vonmises
        params = VonMisesParams(mu_deg=20.0, kappa=kappa)
        phi = np.array([20.0, 21.0, 25.0, 60.0, -160.0])
        expected = vonmises.pdf(np.radians(phi), kappa, loc=math.radians(20.0))
        assert von_mises_pdf(phi, params) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kappa", [600.0, 1e200])
    def test_constructor_rejects_kappa_above_ceiling(self, kappa):
        # 600 once sampled but failed in the density; 1e200 hung the sampler
        with pytest.raises(KappaOutOfRange):
            VonMisesParams(kappa=kappa)

    def test_kappa_guard(self):
        with pytest.raises(KappaOutOfRange):
            von_mises_pdf(0.0, VonMisesParams(kappa=501.0))

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError):
            VonMisesParams(kappa=-1.0)

    @pytest.mark.parametrize("field", ["kappa", "mu_deg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            VonMisesParams(**{field: value})


class TestSampleVonMises:
    def test_uniform_windows_at_kappa_zero(self, rng):
        draws = draw(VonMisesParams(kappa=0.0), rng, 100_000)
        for lo in (-180.0, -36.0, 100.0):
            frac = np.mean((draws > lo) & (draws <= lo + 36.0))
            assert frac == pytest.approx(0.1, abs=0.01)

    @pytest.mark.parametrize("out", BAD_OUTS.values(), ids=BAD_OUTS)
    def test_a_bad_out_raises_before_any_draw(self, rng, out):
        # A 2-D out raised numpy's ValueError after the first block was
        # drawn, and a strided one raised in the wrap after every draw.
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="^out must be a writable, aligned, C-contiguous,"
                                              " 1-D float64 array"):
            sample_von_mises(VonMisesParams(), rng, out)
        assert rng.bit_generator.state == state

    def test_params_that_are_not_von_mises_params_raise(self, rng):
        # An AttributeError escaped.
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="^params must be of type VonMisesParams, got str"):
            sample_von_mises("x", rng, np.empty(4))
        assert rng.bit_generator.state == state

    def test_kappa_of_minus_zero_draws_as_zero(self):
        # -0.0 passes the check >= 0, and numpy's sampler rejected its sign bit.
        expected = draw(VonMisesParams(kappa=0.0), np.random.default_rng(5), 1000)
        got = draw(VonMisesParams(kappa=-0.0), np.random.default_rng(5), 1000)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kappa", [1e-8, 1.2e-8, 1.5e-8, 1e-6, 9.9e-6])
    def test_near_uniform_at_tiny_kappa(self, rng, kappa):
        # the closed form of the Best-Fisher constants cancels here
        draws = draw(VonMisesParams(kappa=kappa), rng, 100_000)
        for lo in (-180.0, -36.0, 100.0):
            frac = np.mean((draws > lo) & (draws <= lo + 36.0))
            assert frac == pytest.approx(0.1, abs=0.01)

    def test_circular_mean_at_mu(self, rng):
        draws = draw(VonMisesParams(mu_deg=0.0, kappa=10.0), rng, 100_000)
        mean_dir = math.degrees(math.atan2(np.sin(np.radians(draws)).mean(),
                                           np.cos(np.radians(draws)).mean()))
        assert abs(mean_dir) < 1.0

    def test_histogram_matches_pdf(self, rng):
        params = VonMisesParams(mu_deg=0.0, kappa=2.0)
        draws = draw(params, rng, 100_000)
        edges = np.linspace(-180.0, 180.0, 73)  # 5 degree bins
        counts, _ = np.histogram(draws, bins=edges)
        empirical = counts / counts.sum()
        centers = 0.5 * (edges[:-1] + edges[1:])
        expected = von_mises_pdf(centers, params) * np.radians(5.0)
        tv = 0.5 * np.abs(empirical - expected / expected.sum()).sum()
        assert tv < 0.02

    def test_histogram_matches_scipy_vonmises(self, rng):
        # independent distribution oracle
        from scipy.stats import vonmises
        params = VonMisesParams(mu_deg=30.0, kappa=4.0)
        draws = np.radians(draw(params, rng, 100_000))
        edges = np.linspace(-math.pi, math.pi, 73)
        counts, _ = np.histogram(draws, bins=edges)
        empirical = counts / counts.sum()
        cdf = vonmises.cdf(edges, kappa=4.0, loc=math.radians(30.0))
        expected = np.diff(cdf)
        tv = 0.5 * np.abs(empirical - expected / expected.sum()).sum()
        assert tv < 0.02

    def test_wrapped_interval(self, rng):
        draws = draw(VonMisesParams(mu_deg=179.0, kappa=5.0), rng, 20_000)
        assert np.all(draws > -180.0) and np.all(draws <= 180.0)

    @pytest.mark.parametrize("kappa", [0.0, 1e-6, 10.0, 500.0])
    def test_blocks_give_the_one_call_bits_and_state(self, kappa):
        # Two blocks of _PAS_BLOCK draws and one more: the doubles of one
        # vonmises call for them all, and the generator left in its state.
        params = VonMisesParams(mu_deg=170.0, kappa=kappa)
        n = 2 * _PAS_BLOCK + 1
        rng, reference = np.random.default_rng(21), np.random.default_rng(21)
        got = draw(params, rng, n)
        offsets = np.degrees(reference.vonmises(0.0, kappa, n))
        assert got.tobytes() == wrap_degrees(params.mu_deg + offsets).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_deterministic_under_seed(self):
        params = VonMisesParams(mu_deg=-20.0, kappa=7.0)
        a = draw(params, np.random.default_rng(3), 512)
        b = draw(params, np.random.default_rng(3), 512)
        assert np.array_equal(a, b)

    # 0, the smallest subnormal, numpy's two cut-offs with their nextafter
    # neighbours, and the ceiling
    EDGE_KAPPAS = [0.0, 5e-324, 500.0] + [math.nextafter(k, d) for k in (1e-8, 1e-5)
                                          for d in (0.0, k, 1.0)]

    # the rejection loop is numpy's; the deadline keeps its running time tested
    @given(kappa=st.sampled_from(EDGE_KAPPAS) | st.floats(0.0, 500.0),
           mu=st.floats(allow_nan=False, allow_infinity=False),
           size=st.integers(1, 200), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=500)
    def test_finite_wrapped_and_reproducible(self, kappa, mu, size, seed):
        # a numpy RuntimeWarning fails the test (filterwarnings in pyproject.toml)
        params = VonMisesParams(mu_deg=mu, kappa=kappa)
        draws = draw(params, np.random.default_rng(seed), size)
        again = draw(params, np.random.default_rng(seed), size)
        assert draws.shape == (size,)
        assert np.all(np.isfinite(draws))
        assert np.all(draws > -180.0) and np.all(draws <= 180.0)
        assert draws.tobytes() == again.tobytes()
        # the mean added after the offsets, in place, has the bits of adding them to it
        offsets = np.degrees(np.random.default_rng(seed).vonmises(0.0, params.kappa, size))
        assert draws.tobytes() == wrap_degrees(params.mu_deg + offsets).tobytes()
