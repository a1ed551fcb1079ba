import math

import numpy as np
import pytest

import multiell.antenna
from multiell.antenna import (AntennaPattern, PatternKind, draw_aod_offsets, power_gain,
                              sample_aod, sigma_from_hpbw)
from multiell.errors import ConfigError, InvalidHpbw, MultiellError
from multiell.geometry import wrap_degrees


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

    @pytest.mark.parametrize("narrow", [1e-200, 1e-155, 5e-324])
    def test_beam_too_narrow_for_the_gain_raises(self, narrow):
        # 2 sigma^2 underflows to 0, or 180^2 / (2 sigma^2) overflows
        with pytest.raises(InvalidHpbw, match="too narrow"):
            sigma_from_hpbw(narrow)
        with pytest.raises(InvalidHpbw, match="too narrow"):
            AntennaPattern.gaussian(narrow)

    def test_narrowest_accepted_beam_has_finite_gains(self):
        p = AntennaPattern.gaussian(1e-150)
        gains = power_gain(p, np.array([0.0, 1e-160, 90.0, 180.0]))
        assert gains.tolist() == [1.0, 1.0, 0.0, 0.0]


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
        out = np.full(19, np.nan)
        assert power_gain(p, np.linspace(-180, 180, 19), out=out) is out
        assert np.all(out == 1.0)

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

    @pytest.mark.parametrize("boresight", [37.0, 120.0, 180.0, -179.5])
    def test_bitwise_equal_to_wrapped_difference_form(self, rng, boresight):
        pattern = AntennaPattern.gaussian(20.0, boresight_deg=boresight)
        phi = np.concatenate([rng.uniform(-180.0, 180.0, 20_000), [-180.0, 0.0, 180.0]])
        sigma = sigma_from_hpbw(20.0)
        expected = np.exp(-np.square(wrap_degrees(phi - boresight)) / (2.0 * sigma**2))
        assert power_gain(pattern, phi).tobytes() == expected.tobytes()
        assert power_gain(pattern, float(phi[0])) == expected[0]
        out = np.full_like(phi, np.nan)
        assert power_gain(pattern, phi, out=out) is out
        assert out.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("pattern", [AntennaPattern.gaussian(9.0, boresight_deg=-170.0),
                                         AntennaPattern.gaussian(340.0, boresight_deg=60.0),
                                         AntennaPattern.omni()])
    def test_bitwise_equal_to_normal_and_redraw_loop(self, pattern):
        draws = sample_aod(pattern, np.random.default_rng(3), size=5000)
        rng = np.random.default_rng(3)
        if pattern.kind is PatternKind.OMNI:
            expected = rng.random(5000) * 360.0 - 180.0
        else:
            sigma = sigma_from_hpbw(pattern.hpbw_deg)
            expected = rng.normal(pattern.boresight_deg, sigma, 5000)
            while (bad := np.abs(expected - pattern.boresight_deg) > 180.0).any():
                expected[bad] = rng.normal(pattern.boresight_deg, sigma, int(bad.sum()))
        assert draws.tobytes() == wrap_degrees(expected).tobytes()

    def test_redraw_edge_reads_only_the_offset(self):
        # sigma is exactly 1, so the stub's values are the offsets themselves
        hpbw = 2.0 * math.sqrt(2.0 * math.log(2.0))
        assert sigma_from_hpbw(hpbw) == 1.0
        first = [180.0, -180.0, np.nextafter(180.0, np.inf), np.nextafter(-180.0, -np.inf),
                 0.5, -179.9]
        redraws = [1.0, -2.0]
        results = []
        for boresight in (0.0, 100.0, -179.5, 180.0, 37.3):
            rng = StubNormal(first + redraws)
            out = np.empty(len(first))
            draw_aod_offsets(AntennaPattern.gaussian(hpbw, boresight_deg=boresight), rng, out)
            assert rng.values == []
            results.append(out.tobytes())
        assert results[0] == np.array([180.0, -180.0, 1.0, -2.0, 0.5, -179.9]).tobytes()
        assert set(results) == {results[0]}

    def test_redraw_rounds_are_capped(self, monkeypatch):
        # a 359-degree beam rejects about a quarter of each round, so one
        # round leaves hundreds of 10,000 draws to redraw
        monkeypatch.setattr(multiell.antenna, "_MAX_REDRAW_ROUNDS", 1)
        with pytest.raises(MultiellError, match="after 1 redraw rounds"):
            sample_aod(AntennaPattern.gaussian(359.0), np.random.default_rng(1), size=10_000)
        sample_aod(AntennaPattern.gaussian(20.0), np.random.default_rng(1), size=10_000)


class StubNormal:
    """Stands in for a generator: hands out queued standard-normal values,
    first to fill ``out``, then in the sizes that are asked for."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, size=None, out=None):
        n = size if out is None else out.size
        taken, self.values = self.values[:n], self.values[n:]
        if out is None:
            return np.array(taken)
        out[...] = taken
        return out
