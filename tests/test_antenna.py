import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multiell.antenna
from multiell import presets
from multiell.antenna import (AntennaPattern, PatternKind, _gain_in_place, draw_aod_offsets,
                              power_gain, sigma_from_hpbw)
from multiell.engine import draw_realization
from multiell.errors import ConfigError, InvalidHpbw, MultiellError
from multiell.geometry import _PAS_BLOCK, aoa_from_aod, wrap_degrees

from conftest import aim_draws


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


    def test_smallest_accepted_beam_gives_gains_without_overflow(self):
        # The check takes the kernel's own product 180**2 * (1 / (2 sigma**2)),
        # so no accepted beam overflows the exponent (the suite makes an
        # overflow warning an error). Acceptance is monotonic in hpbw, so a
        # bisection over the float bits finds the smallest accepted one.
        def accepted(bits):
            try:
                sigma_from_hpbw(float(np.int64(bits).view(np.float64)))
            except InvalidHpbw:
                return False
            return True

        lo, hi = (int(np.float64(x).view(np.int64)) for x in (1e-160, 1e-150))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
        hpbw = float(np.int64(hi).view(np.float64))
        assert hpbw == pytest.approx(2.2354e-152, rel=1e-4)
        phi = np.array([-180.0, 180.0, 0.0, -0.0])
        for boresight in (0.0, -0.0, 180.0, -180.0):
            pattern = AntennaPattern.gaussian(hpbw, boresight_deg=boresight)
            expected = [1.0 if abs(x) == abs(boresight) else 0.0 for x in phi]
            assert power_gain(pattern, phi).tolist() == expected
            assert [power_gain(pattern, float(x)) for x in phi] == expected


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

    @pytest.mark.parametrize("boresight", [37.0, 120.0, 180.0, -179.5])
    def test_bitwise_equal_to_wrapped_difference_form(self, rng, boresight):
        pattern = AntennaPattern.gaussian(20.0, boresight_deg=boresight)
        phi = np.concatenate([rng.uniform(-180.0, 180.0, 20_000), [-180.0, 0.0, 180.0]])
        sigma = sigma_from_hpbw(20.0)
        expected = np.exp(np.square(wrap_degrees(phi - boresight)) * (-1.0 / (2.0 * sigma**2)))
        assert power_gain(pattern, phi).tobytes() == expected.tobytes()
        assert power_gain(pattern, float(phi[0])) == expected[0]
        out = np.full_like(phi, np.nan)
        assert _gain_in_place(pattern, phi, (-180.0, 180.0), out) is out
        assert out.tobytes() == expected.tobytes()

    @given(hpbw=st.floats(1e-150, 360.0, exclude_max=True),
           boresight=st.floats(allow_nan=False, allow_infinity=False), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_gains_equal_wrapped_difference_form(self, hpbw, boresight, data):
        pattern = AntennaPattern.gaussian(hpbw, boresight_deg=boresight)
        b = pattern.boresight_deg
        # the edges of both wrap sides, and the angles half a turn from boresight
        edges = [0.0, -0.0, 180.0, -180.0, np.nextafter(180.0, 0.0),
                 np.nextafter(-180.0, 0.0), 5e-324, -5e-324, 1e-310, b, -b]
        edges += [b + half + eps for half in (180.0, -180.0) for eps in (0.0, 1e-9, -1e-9)]
        edges += [np.nextafter(e, to) for e in edges for to in (-np.inf, np.inf)]
        edges = [e for e in edges if -180.0 <= e <= 180.0]
        phi = np.array(data.draw(st.lists(st.sampled_from(edges) | st.floats(-180.0, 180.0),
                                          min_size=1, max_size=40)))
        sigma = sigma_from_hpbw(hpbw)
        expected = np.exp(np.square(wrap_degrees(phi - b)) * (-1.0 / (2.0 * sigma**2)))
        assert power_gain(pattern, phi).tobytes() == expected.tobytes()
        # one angle at a time, so that every angle also sets the range alone
        scalars = np.array([power_gain(pattern, float(x)) for x in phi])
        assert scalars.tobytes() == expected.tobytes()
        span = (float(phi.min()), float(phi.max()))
        out = np.full_like(phi, np.nan)
        assert _gain_in_place(pattern, phi, span, out) is out
        assert out.tobytes() == expected.tobytes()
        out, scratch = np.full_like(phi, np.nan), np.full_like(phi, np.nan)
        assert _gain_in_place(pattern, phi, span, out, scratch) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hpbw", [20.0, 120.0, 359.0])
    @pytest.mark.parametrize("boresight", [0.0, 37.0, -179.5, 180.0, 123.456])
    @pytest.mark.parametrize("phi", [540.0, -540.0, 181.0, -180.5, 359.75, 1000.1,
                                     -1e6, 1e6 + 0.3, 1e300, -1e300])
    def test_angle_outside_half_turns_is_wrapped_first(self, hpbw, boresight, phi):
        pattern = AntennaPattern.gaussian(hpbw, boresight_deg=boresight)
        gain = power_gain(pattern, phi)
        assert gain == power_gain(pattern, wrap_degrees(phi))
        assert power_gain(pattern, np.array([phi])).tobytes() == np.array([gain]).tobytes()
        if abs(phi) < 1080.0:
            # Wrapping phi - b in one step rounds once more, in the last bits.
            # Far out it loses digits of b (1e300 - b is 1e300), so there
            # the wrapped angle alone is the reference.
            sigma = sigma_from_hpbw(hpbw)
            old = math.exp(-wrap_degrees(phi - pattern.boresight_deg) ** 2 / (2.0 * sigma**2))
            assert gain == pytest.approx(old, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("keyword, value", [
        ("out", np.empty(1)), ("scratch", np.empty(1)), ("angle_range", (0.0, 0.0))])
    def test_takes_no_buffers_and_no_trusted_range(self, keyword, value):
        # A range that does not bound the angles once gave 0 here, silently.
        pattern = AntennaPattern.gaussian(20.0, boresight_deg=170.0)
        assert power_gain(pattern, [-170.0]).tolist() == [pytest.approx(0.0625, rel=1e-12)]
        with pytest.raises(TypeError):
            power_gain(pattern, [-170.0], **{keyword: value})
        assert list(inspect.signature(power_gain).parameters) == ["pattern", "phi_deg"]

    def test_gaussian_requires_hpbw(self):
        with pytest.raises(ConfigError):
            AntennaPattern(PatternKind.GAUSSIAN)


def half_turn_edges():
    """+-180 and +-0 with their neighbours on both sides, inside [-180, 180]."""
    edges = [180.0, -180.0, 0.0, -0.0]
    edges += [np.nextafter(e, to) for e in edges for to in (-np.inf, np.inf)]
    return np.array([e for e in edges if -180.0 <= e <= 180.0])


# Both boresight signs, 0 and -0, the half turn (-180 is held as 180) and
# the smallest magnitudes on either side of 0.
KNOWN_RANGE_BORESIGHTS = [0.0, -0.0, 180.0, -180.0, 1e-300, -1e-300, 5e-324, 37.0, 90.0,
                          np.nextafter(180.0, 0.0), -37.0, -90.0, np.nextafter(-180.0, 0.0)]


class TestKnownAngleRange:
    # The gain kernel, given any range that bounds the angles, must write
    # the bits power_gain writes when it scans for the range itself.
    @pytest.mark.parametrize("boresight", KNOWN_RANGE_BORESIGHTS)
    @pytest.mark.parametrize("hpbw", [9.0, 120.0])
    def test_given_range_gives_the_same_bits(self, rng, boresight, hpbw):
        pattern = AntennaPattern.gaussian(hpbw, boresight_deg=boresight)
        edges = half_turn_edges()
        sets = [edges, np.concatenate([rng.uniform(-180.0, 180.0, 5_000), edges]),
                rng.uniform(-180.0, 180.0, 5_000), rng.uniform(-1.0, 1.0, 100),
                np.array([180.0]), np.array([-180.0])]
        for phi in sets:
            expected = power_gain(pattern, phi)
            span = (float(phi.min()), float(phi.max()))
            got = _gain_in_place(pattern, phi, span, np.full_like(phi, np.nan))
            assert got.tobytes() == expected.tobytes()
            out, scratch = np.full_like(phi, np.nan), np.full_like(phi, np.nan)
            assert _gain_in_place(pattern, phi, span, out, scratch) is out
            assert out.tobytes() == expected.tobytes()
            # any bounds within [-180, 180] give them too: a candidate that
            # is not needed is never the smaller square
            out = np.full_like(phi, np.nan)
            assert (_gain_in_place(pattern, phi, (-180.0, 180.0), out).tobytes()
                    == expected.tobytes())

    @given(hpbw=st.floats(1e-150, 360.0, exclude_max=True),
           boresight=st.floats(-180.0, 180.0) | st.sampled_from(KNOWN_RANGE_BORESIGHTS),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_given_range_gives_the_same_bits(self, hpbw, boresight, data):
        pattern = AntennaPattern.gaussian(hpbw, boresight_deg=boresight)
        phi = np.array(data.draw(st.lists(st.sampled_from(list(half_turn_edges()))
                                          | st.floats(-180.0, 180.0), min_size=1, max_size=40)))
        expected = power_gain(pattern, phi)
        span = (float(phi.min()), float(phi.max()))
        got = _gain_in_place(pattern, phi, span, np.full_like(phi, np.nan))
        assert got.tobytes() == expected.tobytes()
        out, scratch = np.full_like(phi, np.nan), np.full_like(phi, np.nan)
        got = _gain_in_place(pattern, phi, (-180.0, 180.0), out, scratch)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hpbw", [120.0, 359.0])
    def test_wrap_candidate_grid_gives_the_wrapped_difference(self, hpbw):
        # Every boresight of the known-range list and every whole degree,
        # against the angles half a turn from it (exactly where that is a
        # float), their neighbours, +-180 and +-0. Wide beams keep the gains
        # half a turn off boresight above the underflow, so every bit counts.
        scale = -1.0 / (2.0 * sigma_from_hpbw(hpbw) ** 2)
        for boresight in KNOWN_RANGE_BORESIGHTS + list(np.arange(-180.0, 181.0)):
            pattern = AntennaPattern.gaussian(hpbw, boresight_deg=float(boresight))
            b = pattern.boresight_deg
            phi = [b + 180.0, b - 180.0, 180.0, -180.0, 0.0, -0.0]
            phi += [np.nextafter(x, to) for x in phi for to in (-np.inf, np.inf)]
            phi = np.array([x for x in phi if -180.0 <= x <= 180.0])
            expected = np.exp(np.square(wrap_degrees(phi - b)) * scale)
            assert power_gain(pattern, phi).tobytes() == expected.tobytes(), b
            span = (float(phi.min()), float(phi.max()))
            for angle_range in (span, (-180.0, 180.0)):
                got = _gain_in_place(pattern, phi, angle_range, np.full_like(phi, np.nan))
                assert got.tobytes() == expected.tobytes(), (b, angle_range)
                out, scratch = np.full_like(phi, np.nan), np.full_like(phi, np.nan)
                assert _gain_in_place(pattern, phi, angle_range, out, scratch) is out
                assert out.tobytes() == expected.tobytes(), (b, angle_range)

    @pytest.mark.parametrize("boresight", [60.0, -60.0])
    def test_wrap_candidate_allocates_no_path_sized_array(self, boresight):
        pattern = AntennaPattern.gaussian(20.0, boresight_deg=boresight)
        phi = np.linspace(-180.0, 180.0, 100_000)
        out, scratch = np.empty_like(phi), np.empty_like(phi)
        scanned = (float(phi.min()), float(phi.max()))
        _gain_in_place(pattern, phi, scanned, out, scratch)  # first call outside the trace
        for angle_range in (scanned, (-180.0, 180.0)):  # both call for the candidate
            tracemalloc.start()
            try:
                _gain_in_place(pattern, phi, angle_range, out, scratch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < phi.nbytes // 8

    @pytest.mark.parametrize("eccentricity", [0.0, 1e-300, 1e-16, 0.5, 0.99,
                                              np.nextafter(1.0, 0.0)])
    def test_arrival_angles_stay_within_half_turns(self, eccentricity):
        # The shortest-arc argument assumes arrival angles in [-180, 180].
        # The map ends in 2 * degrees(arctan(.)). arctan never exceeds its
        # value at inf, the double nearest pi / 2, and that lands on 180
        # exactly; a departure of 180 at e = 0 saturates it.
        assert 2.0 * (np.arctan(np.inf) * (180.0 / np.pi)) == 180.0
        assert np.arctan(np.tan(180.0 / 2.0 * (np.pi / 180.0))) == np.arctan(np.inf)
        aod = np.concatenate([half_turn_edges(), np.linspace(-180.0, 180.0, 3_601),
                              np.nextafter(180.0, 0.0) - np.arange(50) * 2.0**-44])
        aod = np.concatenate([aod, -aod])
        aoa = aoa_from_aod(aod, eccentricity)
        assert np.all((aoa >= -180.0) & (aoa <= 180.0))
        assert aoa_from_aod(180.0, eccentricity) == 180.0

    @pytest.mark.parametrize("boresight", KNOWN_RANGE_BORESIGHTS)
    def test_aimed_angles_stay_within_half_turns(self, boresight):
        cfg = presets.scenario("A", "same", seed=3, paths_per_cluster=300)
        draws = draw_realization(cfg)
        b = AntennaPattern.gaussian(20.0, boresight_deg=boresight).boresight_deg
        aoa = aim_draws(draws, b, np.empty_like(draws.angles))
        assert np.all((aoa >= -180.0) & (aoa <= 180.0))


class TestGainAccuracy:
    """The gain against exp(-d**2 / (2 sigma**2)) taken at 40 significant
    digits, for d the exact wrapped difference of the float angle and
    boresight and sigma the float sigma_from_hpbw gives."""

    HPBWS = [1e-3, 0.01, 0.5, 9.0, 20.0, 65.0, 120.0, 250.0, 359.0]
    BORESIGHTS = KNOWN_RANGE_BORESIGHTS + [-123.456]

    def angles(self, b, hpbw, rng):
        # the half turn from b and its neighbours, +-180, +-0, b itself,
        # angles a few beamwidths off it, and uniform ones
        phi = [b + 180.0, b - 180.0, 180.0, -180.0, 0.0, -0.0, 5e-324, b]
        phi += [b + k * hpbw for k in (-3.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 3.0)]
        phi += [np.nextafter(x, to) for x in phi for to in (-np.inf, np.inf)]
        phi += list(rng.uniform(-180.0, 180.0, 10))
        return np.array([x for x in phi if -180.0 <= x <= 180.0])

    def test_within_the_rounding_bound_of_the_reference(self, rng):
        # The kernel's d' is the wrapped difference as computed: the
        # difference phi - b rounds once, by at most u |phi - b| (u = 2**-53),
        # and the wrap, a whole turn taken off exactly, adds no rounding, so
        # |d' - d| <= u |phi - b| (at b = +-0, d' = phi exactly). The
        # exponent is fl(fl(d'**2) * fl(-1 / (2 fl(sigma**2)))): three
        # roundings of u and sigma**2 by C pow, within one ulp (2u), so it is
        # -d'**2 / (2 sigma**2) times (1 + r), |r| <= rho. numpy's float64
        # exp is within 1 ulp of the rounded exp (its umath accuracy suite),
        # so within 1.5 ulp of the exact one. The worst error measured is
        # 0.38 of its bound, the same as the quotient -d'**2 / (2 sigma**2)
        # gives.
        mp = pytest.importorskip("mpmath")
        u = 2.0**-53
        rho = (1 + u) ** 3 / (1 - 2 * u) - 1
        with mp.workdps(40):
            for hpbw in self.HPBWS:
                sigma = sigma_from_hpbw(hpbw)
                two_var = 2 * mp.mpf(sigma) ** 2
                for boresight in self.BORESIGHTS:
                    pattern = AntennaPattern.gaussian(hpbw, boresight_deg=boresight)
                    b = pattern.boresight_deg
                    phi = self.angles(b, hpbw, rng)
                    gains = power_gain(pattern, phi)
                    for x, gain in zip(phi, gains):
                        diff = mp.mpf(float(x)) - mp.mpf(b)
                        d = diff - 360 if diff > 180 else diff + 360 if diff <= -180 else diff
                        exponent = -d**2 / two_var
                        slack = u * abs(diff)
                        # |d'**2 - d**2| <= (2 |d| + slack) slack
                        dx = (rho * abs(exponent)
                              + (2 * abs(d) + slack) * slack / two_var * (1 + rho))
                        exact = mp.exp(exponent)
                        tol = exact * mp.expm1(dx) + 1.5 * np.spacing(float(exact * mp.exp(dx)))
                        error = abs(mp.mpf(float(gain)) - exact)
                        assert error <= tol, (hpbw, b, float(x))


@pytest.mark.parametrize("function, parameter, field", [
    (AntennaPattern.omni, "gain_dbi", "gain_dbi"),
    (AntennaPattern.gaussian, "gain_dbi", "gain_dbi"),
    (AntennaPattern.gaussian, "boresight_deg", "boresight_deg"),
    (presets.antenna_pattern, "boresight_deg", "boresight_deg"),
    (presets.scenario, "alpha_t_deg", "boresight_deg"),
    (presets.scenario, "alpha_r_deg", "boresight_deg"),
])
def test_parameter_default_is_the_field_default(function, parameter, field):
    defaults = {f.name: f.default for f in dataclasses.fields(AntennaPattern)}
    assert inspect.signature(function).parameters[parameter].default == defaults[field]


def test_default_pattern_is_omni_at_0_dbi():
    # The record holds the kind's default; a config file's end without a
    # kind key takes it from here.
    pattern = AntennaPattern()
    assert pattern == AntennaPattern.omni() == AntennaPattern(PatternKind.OMNI)
    assert (pattern.kind, pattern.gain_dbi, pattern.hpbw_deg, pattern.boresight_deg) == \
        (PatternKind.OMNI, 0.0, None, 0.0)


def departures(pattern, rng, size):
    """Departure angles: the engine's offsets turned to the boresight and
    wrapped into (-180, 180]."""
    offsets = np.empty(size)
    draw_aod_offsets(pattern, rng, offsets)
    return wrap_degrees(offsets + pattern.boresight_deg)


class TestSampleAod:
    """Departure draws of ``draw_aod_offsets``, as absolute angles."""

    def test_omni_uniform_windows(self, rng):
        draws = departures(AntennaPattern.omni(), rng, size=100_000)
        assert np.all(draws > -180.0) and np.all(draws <= 180.0)
        for lo in (-180.0, -90.0, 0.0, 144.0):
            frac = np.mean((draws > lo) & (draws <= lo + 36.0))
            assert frac == pytest.approx(0.1, abs=0.01)

    def test_gaussian_hpbw_window_fraction(self, rng):
        # P(|x| <= 10deg) for sigma = 20/(2 sqrt(2 ln 2)): erf-based reference
        draws = departures(AntennaPattern.gaussian(20.0), rng, size=100_000)
        frac = np.mean(np.abs(draws) <= 10.0)
        assert frac == pytest.approx(0.760968108550488, abs=0.01)

    def test_gaussian_mean_on_boresight(self, rng):
        draws = departures(AntennaPattern.gaussian(20.0), rng, size=100_000)
        assert abs(draws.mean()) < 0.1

    def test_wrapped_interval(self, rng):
        draws = departures(AntennaPattern.gaussian(20.0, boresight_deg=178.0),
                           rng, size=50_000)
        assert np.all(draws > -180.0) and np.all(draws <= 180.0)

    def test_deterministic_under_seed(self):
        p = AntennaPattern.gaussian(12.0, boresight_deg=45.0)
        a = departures(p, np.random.default_rng(7), size=1000)
        b = departures(p, np.random.default_rng(7), size=1000)
        assert np.array_equal(a, b)

    def test_truncation_mass_negligible_for_bundled_beams(self):
        # widest bundled beam: HPBW 20 deg; tail beyond +-180 is ~1e-99
        sigma = sigma_from_hpbw(20.0)
        tail = math.erfc(180.0 / sigma / math.sqrt(2.0))
        assert tail < 1e-15

    # Two blocks of _PAS_BLOCK offsets and one more: the 330-degree beam
    # redraws over several rounds, each block by block with the normals of
    # one pass over the whole array, in the same order.
    @pytest.mark.parametrize("pattern", [AntennaPattern.gaussian(9.0, boresight_deg=-170.0),
                                         AntennaPattern.gaussian(340.0, boresight_deg=60.0),
                                         AntennaPattern.omni(),
                                         AntennaPattern.gaussian(330.0, boresight_deg=120.0)])
    def test_bitwise_equal_to_normal_and_redraw_loop(self, pattern):
        size = 2 * _PAS_BLOCK + 1
        used = np.random.default_rng(3)
        draws = departures(pattern, used, size=size)
        rng = np.random.default_rng(3)
        if pattern.kind is PatternKind.OMNI:
            expected = rng.random(size) * 360.0 - 180.0
        else:
            sigma = sigma_from_hpbw(pattern.hpbw_deg)
            expected = rng.normal(pattern.boresight_deg, sigma, size)
            while (bad := np.abs(expected - pattern.boresight_deg) > 180.0).any():
                expected[bad] = rng.normal(pattern.boresight_deg, sigma, int(bad.sum()))
        assert draws.tobytes() == wrap_degrees(expected).tobytes()
        assert used.bit_generator.state == rng.bit_generator.state

    def test_redraw_rounds_hold_block_sized_temporaries(self):
        # A 330-degree beam redraws about a fifth of a million offsets in its
        # first round. Block by block, the rounds traced 0.79 of a block's
        # floats; the same two comparisons and np.flatnonzero over the whole
        # array took 19.8 blocks, and a bool mask of np.abs(out) > 180 38.2.
        out = np.empty(1_000_000)
        pattern = AntennaPattern.gaussian(330.0)
        draw_aod_offsets(pattern, np.random.default_rng(2), out)  # caches and imports
        tracemalloc.start()
        try:
            draw_aod_offsets(pattern, np.random.default_rng(2), out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * _PAS_BLOCK

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
        out = np.empty(10_000)
        with pytest.raises(MultiellError, match="after 1 redraw rounds"):
            draw_aod_offsets(AntennaPattern.gaussian(359.0), np.random.default_rng(1), out)
        draw_aod_offsets(AntennaPattern.gaussian(20.0), np.random.default_rng(1), out)


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
