import math

import numpy as np
import pytest

from multiell.antenna import (AntennaPattern, PatternKind, power_gain,
                              sample_aod, sigma_from_hpbw)
from multiell.errors import ConfigError, InvalidHpbw


class TestSigmaFromHpbw:
    def test_reference_20deg(self):
        # 20 / (2 sqrt(2 ln 2)), checked numerically
        assert sigma_from_hpbw(20.0) == pytest.approx(8.493218002880191, abs=1e-12)

    def test_unit_sigma_inverse(self):
        assert sigma_from_hpbw(2.0 * math.sqrt(2.0 * math.log(2.0))) == pytest.approx(1.0)

    def test_small_limit(self):
        assert sigma_from_hpbw(1e-9) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -5.0, 360.0, 400.0])
    def test_range_guard(self, bad):
        with pytest.raises(InvalidHpbw):
            sigma_from_hpbw(bad)


class TestPowerGain:
    def test_boresight_is_one(self):
        p = AntennaPattern.gaussian(20.0, boresight_deg=30.0)
        assert power_gain(p, 30.0) == 1.0

    def test_half_power_at_hpbw_half(self):
        p = AntennaPattern.gaussian(20.0)
        assert power_gain(p, 10.0) == pytest.approx(0.5, abs=1e-12)
        assert power_gain(p, -10.0) == pytest.approx(0.5, abs=1e-12)

    def test_omni_everywhere_one(self):
        p = AntennaPattern.omni()
        assert power_gain(p, 123.4) == 1.0
        assert np.all(power_gain(p, np.linspace(-180, 180, 19)) == 1.0)

    def test_symmetric_about_boresight(self):
        p = AntennaPattern.gaussian(14.0, boresight_deg=40.0)
        for d in (3.0, 17.0, 90.0, 170.0):
            assert power_gain(p, 40.0 + d) == pytest.approx(power_gain(p, 40.0 - d), rel=1e-12)

    def test_wraps_shortest_arc(self):
        p = AntennaPattern.gaussian(20.0, boresight_deg=175.0)
        assert power_gain(p, -175.0) == pytest.approx(power_gain(p, 165.0), rel=1e-12)

    def test_weakly_decreasing_off_boresight(self):
        p = AntennaPattern.gaussian(25.0)
        offsets = np.linspace(0.0, 180.0, 361)
        gains = power_gain(p, offsets)
        assert np.all(np.diff(gains) <= 0.0)

    def test_gaussian_requires_hpbw(self):
        with pytest.raises(ConfigError):
            AntennaPattern(PatternKind.GAUSSIAN)


class TestSampleAod:
    def test_omni_uniform_windows(self, rng):
        draws = sample_aod(AntennaPattern.omni(), rng, size=100_000)
        assert np.all(draws > -180.0) and np.all(draws <= 180.0)
        for lo in (-180.0, -90.0, 0.0, 144.0):
            frac = np.mean((draws > lo) & (draws <= lo + 36.0))
            assert frac == pytest.approx(0.1, abs=0.01)

    def test_gaussian_hpbw_window_fraction(self, rng):
        # P(|x| <= 10deg) for sigma = 20/(2 sqrt(2 ln 2)): erf-based reference
        draws = sample_aod(AntennaPattern.gaussian(20.0), rng, size=100_000)
        frac = np.mean(np.abs(draws) <= 10.0)
        assert frac == pytest.approx(0.760968108550488, abs=0.01)

    def test_gaussian_mean_on_boresight(self, rng):
        draws = sample_aod(AntennaPattern.gaussian(20.0), rng, size=100_000)
        assert abs(draws.mean()) < 0.1

    def test_wrapped_interval(self, rng):
        draws = sample_aod(AntennaPattern.gaussian(20.0, boresight_deg=178.0),
                           rng, size=50_000)
        assert np.all(draws > -180.0) and np.all(draws <= 180.0)

    def test_deterministic_under_seed(self):
        p = AntennaPattern.gaussian(12.0, boresight_deg=45.0)
        a = sample_aod(p, np.random.default_rng(7), size=1000)
        b = sample_aod(p, np.random.default_rng(7), size=1000)
        assert np.array_equal(a, b)

    def test_truncation_mass_negligible_for_bundled_beams(self):
        # widest bundled beam: HPBW 20 deg; tail beyond +-180 is ~1e-99
        sigma = sigma_from_hpbw(20.0)
        tail = math.erfc(180.0 / sigma / math.sqrt(2.0))
        assert tail < 1e-15
