import dataclasses
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.antenna import AntennaPattern, PatternKind, power_gain, sigma_from_hpbw
from multiell.engine import ScenarioConfig, reweight, run_realization
from multiell.errors import (BadBinWidth, ConfigError, InvalidDs, InvalidGeometry, InvalidHpbw,
                             MultiellError)
from multiell.geometry import (DEGENERATE_DELAY_S, SPEED_OF_LIGHT_M_S, aoa_from_aod,
                               eccentricity_from_delay, wrap_degrees, wrap_in_place)
from multiell.pdp import builtin_nlos_profile, scale_pdp
from multiell.presets import DS_BY_BAND, TXRX_DISTANCE_M, scenario
from multiell.scattering import VonMisesParams, von_mises_pdf
from multiell.stats import SweepAxis, estimate_pas, realization_pas, sweep_as

from conftest import make_pathset

ECC = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
ANGLE = st.floats(min_value=-179.9999, max_value=180.0, allow_nan=False)


@dataclass(frozen=True)
class Ellipse:
    """The whole ellipse, for the geometric oracles below; the package needs
    only its eccentricity."""

    semi_major_m: float
    focal_half_distance_m: float
    eccentricity: float


def ellipse_with(e, a=200.0):
    return Ellipse(semi_major_m=a, focal_half_distance_m=a * e, eccentricity=e)


def aod_from_aoa(phi_r_deg, e):
    """Inverse of ``aoa_from_aod`` on the same ellipse: focus symmetry swaps
    the half-angle compression ratio for its reciprocal."""
    phi = wrap_degrees(phi_r_deg)
    mag = abs(phi)
    if mag == 180.0:
        return 180.0
    ratio = (1.0 + e) / (1.0 - e)
    out = 2.0 * math.degrees(math.atan(ratio * math.tan(math.radians(mag / 2.0))))
    return -out if phi < 0.0 else out


def reflection_point(phi_t_deg, ellipse):
    """Intersection of a ray from the Tx focus with the ellipse boundary.

    The ray angle is measured from the +x axis at the Tx focus (-D/2, 0),
    counterclockwise positive. Every ray from an interior focus meets the
    boundary exactly once; the focal polar form gives it in closed form.
    """
    a = ellipse.semi_major_m
    e = ellipse.eccentricity
    f = ellipse.focal_half_distance_m
    psi = np.radians(wrap_degrees(phi_t_deg))
    radius = a * (1.0 - e**2) / (1.0 - e * np.cos(psi))
    return (-f + radius * np.cos(psi), radius * np.sin(psi))


def arrival_bearing(point_xy, ellipse):
    """Angle at the Rx focus toward ``point_xy``, measured from the direction
    pointing at the Tx (the -x axis), positive on the +y side."""
    x, y = point_xy
    f = ellipse.focal_half_distance_m
    return float(np.degrees(np.arctan2(y, -(x - f))))


def oracle_aoa(phi_t_deg, e, a=200.0):
    """Geometric arrival angle: cast the ray (re-referenced toward the
    receiver), intersect the ellipse, take the bearing at the Rx focus."""
    ell = ellipse_with(e, a)
    point = reflection_point(180.0 - phi_t_deg, ell)
    return arrival_bearing(point, ell)


class TestEllipseFromDelay:
    """``eccentricity_from_delay``: D / (D + c * delay) per excess delay."""

    def test_total_path_twice_distance(self):
        # excess delay equal to the direct-path delay doubles the path length
        d = 200.0
        assert eccentricity_from_delay(d / SPEED_OF_LIGHT_M_S, d) == pytest.approx(0.5,
                                                                                  abs=1e-12)

    def test_long_delay_low_eccentricity(self):
        assert eccentricity_from_delay(1.0, 200.0) < 1e-6  # one full second of excess delay

    def test_reference_values_363ns(self):
        # independent arithmetic: a = (200 + c * 363e-9) / 2 = 154.412 m, e = 100 / a
        assert eccentricity_from_delay(363e-9, 200.0) == pytest.approx(0.647616672, abs=1e-6)

    def test_degenerate_delay_raises(self):
        for delays in (DEGENERATE_DELAY_S, 0.0, -1e-9, np.nan,
                       np.array([1e-6, DEGENERATE_DELAY_S, 2e-6])):
            with pytest.raises(InvalidGeometry, match=r"excess delay .* is not above 1e-10 s"):
                eccentricity_from_delay(delays, 200.0)

    def test_bad_distance_raises(self):
        message = r"txrx_distance_m must be finite and > 0"
        for d in (0.0, -3.0, np.inf, np.nan, 10**400, -10**400):  # ints beyond the float range
            with pytest.raises(InvalidGeometry, match=message) as caught:
                eccentricity_from_delay(1e-6, d)
            assert len(str(caught.value)) < 100  # names the field, not 401 digits
        # an int within the float range but too long for the delay, printed as a float
        with pytest.raises(InvalidGeometry, match=r"txrx_distance_m 1e\+300 is too long") as caught:
            eccentricity_from_delay(1e-6, 10**300)
        assert len(str(caught.value)) < 100
        with pytest.raises(InvalidGeometry, match=message):
            eccentricity_from_delay(np.array([]), 0.0)

    def test_distance_too_long_for_delay_raises(self):
        # D / (D + c * delay) rounds to 1; once reported as an array of 1s
        with pytest.raises(InvalidGeometry, match=r"txrx_distance_m 1e\+300 .* 1e-08 s"):
            eccentricity_from_delay(1e-8, 1e300)
        with pytest.raises(InvalidGeometry, match="rounds to 1"):
            eccentricity_from_delay(2 * DEGENERATE_DELAY_S, 1e18)
        # an array names its first delay that is too short for the distance
        with pytest.raises(InvalidGeometry, match=r"txrx_distance_m 1e\+18 .* 2e-10 s"):
            eccentricity_from_delay(np.array([1.0, 2e-10, 3e-10]), 1e18)
        assert eccentricity_from_delay(2 * DEGENERATE_DELAY_S, 1e6) < 1.0

    def test_overflowing_path_length_gives_the_limit_without_a_warning(self):
        # c * delay overflows above about 6e299 s; numpy once warned of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eccentricity_from_delay(1e300, 200.0) == 0.0
            assert eccentricity_from_delay(np.array([1e-6, 1e300]), 200.0)[1] == 0.0

    def test_invariants_random(self, rng):
        delays = 10 ** rng.uniform(-9.5, -5.0, 200)
        for d in 10 ** rng.uniform(0.5, 4.0, 20):
            e = eccentricity_from_delay(delays, d)
            assert np.all((0.0 < e) & (e < 1.0))
            assert np.all(np.diff(e[np.argsort(delays)]) <= 0.0)  # longer delay, rounder

    @given(delays=st.lists(st.floats(min_value=DEGENERATE_DELAY_S, max_value=1e-3,
                                     exclude_min=True), max_size=30),
           d=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_array_bitwise_equal_to_python_floats(self, delays, d):
        expected = np.array([d / (d + SPEED_OF_LIGHT_M_S * t) for t in delays], dtype=float)
        got = eccentricity_from_delay(np.array(delays, dtype=float), d)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        scalars = [eccentricity_from_delay(t, d) for t in delays]
        assert all(type(e) is float for e in scalars)
        assert np.array(scalars, dtype=float).tobytes() == expected.tobytes()
        grid = np.array(delays[:len(delays) // 2 * 2], dtype=float).reshape(2, -1)
        assert eccentricity_from_delay(grid, d).tobytes() == expected[:grid.size].tobytes()


class TestAoaFromAod:
    def test_boresight_fixed_point(self):
        assert aoa_from_aod(0.0, 0.5) == 0.0

    def test_back_direction_fixed_point(self):
        assert aoa_from_aod(180.0, 0.5) == 180.0

    def test_zero_eccentricity_identity(self):
        assert aoa_from_aod(90.0, 0.0) == pytest.approx(90.0, abs=1e-12)

    def test_reference_value(self):
        # arccos(0.8) in degrees
        assert aoa_from_aod(90.0, 0.5) == pytest.approx(36.86989764584401, abs=1e-10)

    def test_matches_arccos_closed_form(self, rng):
        # same map written as in the arccos form, evaluated independently
        for _ in range(500):
            e = rng.uniform(0.0, 0.985)
            phi = rng.uniform(-179.0, 179.0)
            c = math.cos(math.radians(phi))
            ratio = (2 * e + (1 + e * e) * c) / (1 + e * e + 2 * e * c)
            expected = math.copysign(math.degrees(math.acos(np.clip(ratio, -1, 1))), phi)
            if phi == 0.0:
                expected = abs(expected)
            assert aoa_from_aod(phi, e) == pytest.approx(expected, abs=1e-9)

    def test_vectorized(self):
        out = aoa_from_aod(np.array([0.0, 90.0, 180.0]), 0.5)
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == 180.0

    def test_per_row_eccentricities_match_row_by_row(self, rng):
        phi = np.concatenate([rng.uniform(-400.0, 400.0, (4, 500)),
                              np.tile([-180.0, -0.0, 0.0, 180.0], (4, 1))], axis=1)
        e = np.array([[0.0], [0.3], [0.9], [0.999]])
        expected = np.array([aoa_from_aod(row, float(ei)) for row, ei in zip(phi, e[:, 0])])
        before = phi.copy()
        assert aoa_from_aod(phi, e).tobytes() == expected.tobytes()
        assert phi.tobytes() == before.tobytes()

    def test_rejects_any_bad_eccentricity(self):
        # A numeric string was read as its number, and "x" and an int beyond
        # the float range raised a bare ValueError and OverflowError.
        for bad in (np.array([[0.5], [1.0]]), np.array([[-0.1], [0.5]]), np.nan, "0.5", "x", BIG):
            with pytest.raises(InvalidGeometry):
                aoa_from_aod(np.zeros((2, 3)), bad)

    @given(phi=st.floats(min_value=-179.9999, max_value=179.9999), e=ECC)
    @settings(max_examples=200, deadline=None)
    def test_odd(self, phi, e):
        assert aoa_from_aod(-phi, e) == pytest.approx(-aoa_from_aod(phi, e), abs=1e-12)

    @given(lo=st.floats(min_value=0.0, max_value=180.0),
           hi=st.floats(min_value=0.0, max_value=180.0),
           e=st.floats(min_value=0.001, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, lo, hi, e):
        # strictness asserted down to a 1e-9 degree separation
        if abs(hi - lo) < 1e-9:
            return
        lo, hi = min(lo, hi), max(lo, hi)
        assert aoa_from_aod(lo, e) < aoa_from_aod(hi, e)

    @given(phi=st.floats(min_value=0.001, max_value=179.999),
           e=st.floats(min_value=0.001, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_compression(self, phi, e):
        out = aoa_from_aod(phi, e)
        assert 0.0 < out < phi


def masked_aoa(phi_t_deg, e):
    """The angle map on |aod| through numpy's radians and one 360 / pi, negated
    where the wrapped departure is below 0 (sgn(0) = +1)."""
    out = wrap_degrees(np.array(phi_t_deg, dtype=float))
    ratio = (1.0 - e) / (1.0 + e)
    negative = out < 0.0
    np.abs(out, out=out)
    back = out == 180.0
    out /= 2.0
    np.radians(out, out=out)
    np.tan(out, out=out)
    out *= ratio
    np.arctan(out, out=out)
    out *= 360.0 / np.pi
    out[back] = 180.0
    np.negative(out, out=out, where=negative)
    return out


class TestSignedAngleMap:
    EDGES = np.array([0.0, -0.0, 180.0, -180.0, np.nextafter(180.0, 0.0),
                      np.nextafter(180.0, 360.0), np.nextafter(-180.0, 0.0),
                      np.nextafter(-180.0, -360.0), 1e-320, -1e-320, 5e-324, -5e-324])

    @pytest.mark.parametrize("e", [0.0, 0.5, 1.0 - 1e-12])
    def test_bitwise_equal_to_masked_form(self, rng, e):
        phi = np.concatenate([self.EDGES, rng.uniform(-540.0, 540.0, 200_000)])
        got = aoa_from_aod(phi, e)
        assert np.array_equal(got.view(np.int64), masked_aoa(phi, e).view(np.int64))
        for x in self.EDGES:
            assert np.array_equal(np.float64(aoa_from_aod(float(x), e)).view(np.int64),
                                  masked_aoa([x], e).view(np.int64)[0]), x

    def test_zero_keeps_a_positive_sign(self):
        assert math.copysign(1.0, aoa_from_aod(-0.0, 0.5)) == 1.0
        # a negative departure whose image underflows keeps its sign
        assert math.copysign(1.0, aoa_from_aod(-1e-320, 1.0 - 1e-12)) == -1.0

    @pytest.mark.parametrize("e", [0.0, 0.5])
    def test_negative_zero_maps_to_plus_zero_in_any_layout(self, e):
        assert np.float64(aoa_from_aod(-0.0, e)).tobytes() == np.float64(0.0).tobytes()
        assert np.float64(aoa_from_aod(np.array(-0.0), e)).tobytes() == np.float64(0.0).tobytes()
        phi = np.array([[-0.0, 0.0, -180.0], [-90.0, -0.0, -5e-324]])
        given = phi.copy()
        expected = masked_aoa(phi, e)
        assert not np.signbit(expected[phi == 0.0]).any()
        # the angles are copied, not overwritten, and a transposed (Fortran
        # ordered) array maps like a C-ordered one
        assert aoa_from_aod(phi, e).tobytes() == expected.tobytes()
        assert aoa_from_aod(phi.T, e).tobytes() == expected.T.copy().tobytes()
        assert phi.tobytes() == given.tobytes()


class TestAodFromAoa:
    def test_fixed_points(self):
        assert aod_from_aoa(0.0, 0.5) == 0.0
        assert aod_from_aoa(180.0, 0.5) == 180.0
        assert aod_from_aoa(180.0, 0.9) == 180.0

    def test_inverse_of_reference(self):
        assert aod_from_aoa(36.86989764584401, 0.5) == pytest.approx(90.0, abs=1e-9)

    @given(phi=ANGLE, e=ECC)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, phi, e):
        assert aod_from_aoa(aoa_from_aod(phi, e), e) == pytest.approx(phi, abs=1e-9)

    def test_against_bisection_oracle(self, rng):
        # root-find the forward map rather than trusting the closed form
        for _ in range(50):
            e = rng.uniform(0.05, 0.95)
            target = rng.uniform(1.0, 179.0)
            lo, hi = 0.0, 180.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if aoa_from_aod(mid, e) < target:
                    lo = mid
                else:
                    hi = mid
            assert aod_from_aoa(target, e) == pytest.approx(0.5 * (lo + hi), abs=1e-6)


class TestReflectionPoint:
    def test_vertex_on_major_axis(self):
        x, y = reflection_point(0.0, ellipse_with(0.5))
        assert (x, y) == pytest.approx((200.0, 0.0), abs=1e-9)

    def test_opposite_vertex(self):
        x, y = reflection_point(180.0, ellipse_with(0.5))
        assert (x, y) == pytest.approx((-200.0, 0.0), abs=1e-9)

    def test_semi_latus_rectum(self):
        # vertical ray from the Tx focus: x = -f, y = b^2 / a
        x, y = reflection_point(90.0, ellipse_with(0.5))
        assert x == pytest.approx(-100.0, abs=1e-9)
        assert y == pytest.approx((200.0**2 - 100.0**2) / 200.0, abs=1e-9)

    def test_point_on_ellipse(self, rng):
        for _ in range(300):
            e = rng.uniform(0.0, 0.99)
            a = rng.uniform(1.0, 1e4)
            ell = ellipse_with(e, a)
            x, y = reflection_point(rng.uniform(-180.0, 180.0), ell)
            b = math.sqrt(a**2 - ell.focal_half_distance_m**2)
            residual = (x / a) ** 2 + (y / b) ** 2 - 1.0
            assert abs(residual) < 1e-9

    def test_path_length_invariant(self, rng):
        for _ in range(300):
            e = rng.uniform(0.0, 0.99)
            a = rng.uniform(1.0, 1e4)
            ell = ellipse_with(e, a)
            f = ell.focal_half_distance_m
            x, y = reflection_point(rng.uniform(-180.0, 180.0), ell)
            total = math.hypot(x + f, y) + math.hypot(x - f, y)
            assert total == pytest.approx(2.0 * a, rel=1e-9)


class TestOracleEquivalence:
    def test_angle_map_matches_geometry(self, rng):
        # the closed-form map must agree with the ray-intersection bearing
        worst = 0.0
        for _ in range(1000):
            e = rng.uniform(0.0, 0.99)
            phi = rng.uniform(-179.999, 180.0)
            err = abs(oracle_aoa(phi, e) - aoa_from_aod(phi, e))
            worst = max(worst, err)
        assert worst < 1e-9


class TestWrapDegrees:
    def test_interval_is_half_open(self):
        assert wrap_degrees(-180.0) == 180.0
        assert wrap_degrees(180.0) == 180.0
        assert wrap_degrees(540.0) == 180.0
        assert wrap_degrees(-190.0) == 170.0
        assert wrap_degrees(370.0) == 10.0

    def test_array(self):
        out = wrap_degrees(np.array([0.0, 359.0, -181.0]))
        assert out.tolist() == [0.0, -1.0, 179.0]


def wrap_oracle(x):
    """The exact wrap of one float into (-180, 180], taken in rationals: NaN
    for NaN and +-inf; x itself, bit for bit, inside the interval (-0.0
    included); otherwise the one value of the interval that differs from x
    by a whole number of turns, which a float holds exactly, +0.0 for a
    zero."""
    if not math.isfinite(x):
        return math.nan
    if -180.0 < x <= 180.0:
        return x
    r = Fraction(x) % 360  # in [0, 360), a whole number of turns from x
    if r > 180:
        r -= 360
    assert float(r) == r
    return float(r)  # +0.0 for Fraction(0)


def assert_equals_oracle(values, results):
    # Bit for bit against wrap_oracle, where any NaN stands for a NaN.
    values = np.atleast_1d(np.asarray(values, dtype=float))
    results = np.atleast_1d(np.asarray(results, dtype=float))
    assert results.shape == values.shape
    for x, got in zip(values.tolist(), results.tolist()):
        expected = wrap_oracle(x)
        assert (math.isnan(got) if math.isnan(expected)
                else np.float64(got).tobytes() == np.float64(expected).tobytes()), x


_EDGES = np.array([0.0, 180.0, 360.0, 540.0])
WRAP_EDGES = np.concatenate([
    _EDGES, -_EDGES,
    np.nextafter(_EDGES, np.inf), np.nextafter(_EDGES, -np.inf),
    np.nextafter(-_EDGES, np.inf), np.nextafter(-_EDGES, -np.inf),
    [1e300, -1e300, np.inf, -np.inf, np.nan],
    # a + 180 rounds here, so (a + 180) % 360 - 180 gives 160.0, not 159.99999999999997
    [-200.00000000000003],
])

FLOATS = st.lists(st.one_of(st.floats(), st.floats(min_value=-900.0, max_value=900.0)),
                  min_size=1, max_size=40)


class TestWrapDegreesOracle:
    @given(FLOATS)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_oracle(self, values):
        assert_equals_oracle(values, wrap_degrees(np.array(values, dtype=float)))
        for x in values:
            assert_equals_oracle(x, wrap_degrees(x))

    def test_edges_bitwise_equal_to_oracle(self):
        assert_equals_oracle(WRAP_EDGES, wrap_degrees(WRAP_EDGES))
        for x in WRAP_EDGES:
            assert_equals_oracle(x, wrap_degrees(float(x)))
        assert wrap_degrees(-200.00000000000003) == 159.99999999999997
        assert math.copysign(1.0, wrap_degrees(-0.0)) == -1.0
        assert math.copysign(1.0, wrap_degrees(-720.0)) == 1.0

    @given(FLOATS)
    @settings(max_examples=200, deadline=None)
    def test_in_place_bitwise_equal_to_oracle(self, values):
        a = np.array(values, dtype=float)
        out = wrap_in_place(a)
        assert out is a
        assert_equals_oracle(values, a)

    def test_in_range_array_is_only_read(self, rng):
        # Two reductions settle it: no mask or index is built, nothing written.
        a = np.concatenate([rng.uniform(-180.0, 180.0, 100_000), [180.0, -0.0, 5e-324]])
        a.flags.writeable = False
        tracemalloc.start()
        try:
            assert wrap_in_place(a) is a
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000  # a mask alone takes 100 kB

    def test_in_place_on_two_d_and_rejects_strided(self):
        a = np.array([[190.0, 0.0, -540.0], [360.0, -180.0, 5.0]])
        values = a.copy()
        assert wrap_in_place(a) is a
        assert a.tolist() == [[-170.0, 0.0, 180.0], [0.0, 180.0, 5.0]]
        assert_equals_oracle(values.ravel(), a.ravel())
        strided = np.array([[190.0, 0.0], [360.0, 5.0]])[:, 0]
        with pytest.raises(ValueError):
            wrap_in_place(strided)

    def test_scalar_and_zero_d_return_float(self):
        for x in (10.0, 400.0, np.float64(-190.0), np.array(5.0), np.array(-540.0), 7):
            assert type(wrap_degrees(x)) is float

    @pytest.mark.parametrize("values", [[10.0, -20.0], [10.0, 400.0], [1e300, 0.0]])
    def test_result_never_aliases_input(self, values):
        a = np.array(values)
        before = a.copy()
        out = wrap_degrees(a)
        assert not np.shares_memory(out, a)
        out[...] = 1.0
        assert np.array_equal(a, before)


BEAM = AntennaPattern.gaussian(20.0, boresight_deg=30.0)


@pytest.mark.parametrize("documented, call", [
    (wrap_degrees, wrap_degrees),
    (power_gain, lambda a: power_gain(BEAM, a)),
    (reweight, lambda a: reweight(make_pathset(a, np.ones(a.size)), BEAM).power_lin),
    (aoa_from_aod, lambda a: aoa_from_aod(a, 0.5)),
    (von_mises_pdf, lambda a: von_mises_pdf(a, VonMisesParams(mu_deg=-20.0))),
], ids=["wrap_degrees", "power_gain", "reweight", "aoa_from_aod", "von_mises_pdf"])
def test_a_nan_or_infinite_angle_gives_nan_as_documented(documented, call):
    # Each passes such an angle through as NaN by design, and says so; the
    # wrap's fmod warned on +-inf, which the suite turns into an error.
    out = call(np.array([np.inf, 10.0, -np.inf, np.nan]))
    assert np.isnan(out[[0, 2, 3]]).all() and np.isfinite(out[1])
    assert "a NaN or +-inf angle gives" in " ".join(documented.__doc__.split())


BIG = 10**400


@pytest.mark.parametrize("make", [
    lambda: AntennaPattern.gaussian(20.0, boresight_deg=BIG),
    lambda: AntennaPattern(PatternKind.OMNI, boresight_deg=-BIG),
    lambda: AntennaPattern.gaussian(BIG),
    lambda: sigma_from_hpbw(BIG),
    lambda: VonMisesParams(mu_deg=BIG),
    lambda: VonMisesParams(kappa=BIG),
    lambda: VonMisesParams(power_share=-BIG),
    lambda: wrap_degrees(BIG),
    lambda: wrap_degrees([0.0, -BIG]),
    lambda: power_gain(BEAM, BIG),
    lambda: aoa_from_aod(-BIG, 0.5),
    lambda: von_mises_pdf(BIG, VonMisesParams()),
    lambda: scenario("A", "same", rice_factor_db=BIG),
], ids=["boresight", "omni-boresight", "hpbw", "sigma_from_hpbw", "mu_deg", "kappa",
        "power_share", "wrap_degrees", "wrap_degrees-list", "power_gain", "aoa_from_aod",
        "von_mises_pdf", "rice_factor_db"])
def test_an_int_beyond_the_float_range_raises_naming_the_field(make):
    # Each raised a bare OverflowError, or printed all 401 digits.
    with pytest.raises(MultiellError, match="got an int beyond the float range$") as caught:
        make()
    assert len(str(caught.value)) < 100


SMALL = scenario("A", "same", paths_per_cluster=20)


@pytest.mark.parametrize("make, error, name", [
    (lambda: wrap_degrees(None), MultiellError, "angle_deg"),
    (lambda: aoa_from_aod(None, 0.5), MultiellError, "phi_t_deg"),
    (lambda: power_gain(BEAM, None), MultiellError, "phi_deg"),
    (lambda: wrap_degrees("abc"), MultiellError, "angle_deg"),
    (lambda: scenario("A", "same", rice_factor_db="x"), ConfigError, "rice_factor_db"),
    (lambda: AntennaPattern.gaussian("x"), InvalidHpbw, "hpbw_deg"),
    *[(lambda a=a: sweep_as(SMALL, SweepAxis.RX_ORIENTATION, a, trials=1), ConfigError,
       "angles_deg") for a in ([None], 5, ["a"], [BIG])],
    *[(lambda w=w: estimate(w), BadBinWidth, "bin_width_deg")
      for w in (None, "1", BIG)
      for estimate in (lambda w: estimate_pas(make_pathset([0.0], [1.0]), w),
                       lambda w: realization_pas(SMALL, w))],
    (lambda: AntennaPattern.gaussian(20.0, gain_dbi=math.nan), ConfigError, "gain_dbi"),
], ids=["wrap_degrees-None", "aoa_from_aod-None", "power_gain-None", "wrap_degrees-str",
        "rice_factor_db-str", "hpbw-str", "sweep-[None]", "sweep-int", "sweep-[str]",
        "sweep-[big]", *(f"{f}-{w}" for w in ("None", "str", "big")
                         for f in ("estimate_pas", "realization_pas")), "gain_dbi-nan"])
def test_a_value_that_is_not_a_number_raises_naming_the_field(make, error, name):
    # None became NaN, a string or a non-sequence raised a bare ValueError or
    # TypeError, and a NaN gain in dBi was taken as it was.
    with pytest.raises(MultiellError, match=f"^{name} ") as caught:
        make()
    assert type(caught.value) is error


def realized(cfg):
    """Every array of one realization of ``cfg``, as bytes."""
    paths = run_realization(cfg)
    return b"".join(a.tobytes() for a in (paths.aoa_deg, paths.raw_power_lin, paths.power_lin))


def with_rx(pattern):
    return realized(replace(SMALL, rx_pattern=pattern))


def with_local(**fields):
    return realized(replace(SMALL, local_scattering=VonMisesParams(**fields)))


# Every scalar entry point: its id, the field, a call that gives the field a
# value and returns a result to compare, the field's error, a good value that
# is an integer (None for an integer field), and whether None stands for
# something in the field (NLOS, auto, or no width), and so is no bad number.
SCALAR_FIELDS = [
    ("gain_dbi", "gain_dbi", lambda v: with_rx(AntennaPattern.gaussian(20.0, gain_dbi=v)),
     ConfigError, 3, False),
    ("boresight_deg", "boresight_deg",
     lambda v: with_rx(AntennaPattern.gaussian(20.0, boresight_deg=v)), ConfigError, 30, False),
    ("hpbw_deg", "hpbw_deg", lambda v: with_rx(AntennaPattern.gaussian(v)), InvalidHpbw, 20,
     True),
    ("omni-hpbw_deg", "hpbw_deg", lambda v: AntennaPattern(PatternKind.OMNI, hpbw_deg=v),
     InvalidHpbw, 20, True),
    ("sigma_from_hpbw", "hpbw_deg", sigma_from_hpbw, InvalidHpbw, 20, False),
    ("kappa", "kappa", lambda v: with_local(kappa=v), ConfigError, 3, False),
    ("mu_deg", "mu_deg", lambda v: with_local(mu_deg=v), ConfigError, 10, False),
    ("power_share", "power_share", lambda v: with_local(power_share=v), ConfigError, 0, True),
    ("ds_s", "ds_s", lambda v: realized(replace(SMALL, ds_s=v)), ConfigError, 1, False),
    ("txrx_distance_m", "txrx_distance_m",
     lambda v: realized(replace(SMALL, txrx_distance_m=v)), ConfigError, 200, False),
    ("rice_factor_db", "rice_factor_db", lambda v: realized(replace(SMALL, rice_factor_db=v)),
     ConfigError, 6, True),
    ("paths_per_cluster", "paths_per_cluster", lambda v: replace(SMALL, paths_per_cluster=v),
     ConfigError, None, False),
    ("seed", "seed", lambda v: replace(SMALL, seed=v), ConfigError, None, False),
    ("estimate_pas", "bin_width_deg",
     lambda v: estimate_pas(make_pathset([0.0, 10.0], [1.0, 2.0]), v).density_per_deg.tobytes(),
     BadBinWidth, 5, False),
    ("realization_pas", "bin_width_deg",
     lambda v: realization_pas(SMALL, v).density_per_deg.tobytes(), BadBinWidth, 5, False),
    ("eccentricity_from_delay", "txrx_distance_m", lambda v: eccentricity_from_delay(1e-7, v),
     InvalidGeometry, 200, False),
    ("scale_pdp", "ds_s", lambda v: scale_pdp(builtin_nlos_profile(), v).excess_delays_s.tobytes(),
     InvalidDs, 1, False),
]
BAD_SCALARS = {"list": [1.0, 2.0], "array": np.array([1.0, 2.0]), "array-1": np.array([20.0]),
               "empty": (), "None": None, "str": "x", "big": BIG, "nan": math.nan}


@pytest.mark.parametrize("field, make, error, bad", [
    pytest.param(field, make, error, bad, id=f"{name}-{kind}")
    for name, field, make, error, _, none_ok in SCALAR_FIELDS
    for kind, bad in BAD_SCALARS.items() if not (bad is None and none_ok)])
def test_a_bad_scalar_raises_its_fields_error(field, make, error, bad):
    # A sequence raised a bare TypeError in most of these, or a bare
    # ValueError (sigma_from_hpbw), or was taken (an omni hpbw_deg, a
    # one-entry array of widths).
    with pytest.raises(MultiellError, match=f"^{field} ") as caught:
        make(bad)
    assert type(caught.value) is error


@pytest.mark.parametrize("make, value", [
    pytest.param(make, value, id=name)
    for name, _, make, _, value, _ in SCALAR_FIELDS if value is not None])
def test_an_int_a_numpy_float_and_a_0d_array_give_the_floats_result(make, value):
    expected = make(float(value))
    for good in (value, np.float32(value), np.float64(value), np.array(float(value))):
        assert make(good) == expected


# Every stored scalar field: its id, a call that builds its dataclass from a
# value, the field, a value that every form below holds exactly, and the
# stored type.
STORED_FIELDS = [
    ("gain_dbi", lambda v: AntennaPattern.gaussian(20.0, gain_dbi=v), "gain_dbi", 3, float),
    ("hpbw_deg", lambda v: AntennaPattern.gaussian(v), "hpbw_deg", 20, float),
    ("omni-hpbw_deg", lambda v: AntennaPattern(PatternKind.OMNI, hpbw_deg=v), "hpbw_deg", 20,
     float),
    ("boresight_deg", lambda v: AntennaPattern.gaussian(20.0, boresight_deg=v),
     "boresight_deg", 30, float),
    ("kappa", lambda v: VonMisesParams(kappa=v), "kappa", 3, float),
    ("mu_deg", lambda v: VonMisesParams(mu_deg=v), "mu_deg", 10, float),
    ("power_share", lambda v: VonMisesParams(power_share=v), "power_share", 1, float),
    ("txrx_distance_m", lambda v: replace(SMALL, txrx_distance_m=v), "txrx_distance_m", 200,
     float),
    ("ds_s", lambda v: replace(SMALL, ds_s=v), "ds_s", 1, float),
    ("rice_factor_db", lambda v: replace(SMALL, rice_factor_db=v), "rice_factor_db", 6, float),
    ("paths_per_cluster", lambda v: replace(SMALL, paths_per_cluster=v), "paths_per_cluster",
     20, int),
    ("seed", lambda v: replace(SMALL, seed=v), "seed", 5, int),
]


@pytest.mark.parametrize("make, field, value, kind", [
    pytest.param(*row[1:], id=row[0]) for row in STORED_FIELDS])
def test_each_field_stores_the_python_number_its_check_returns(make, field, value, kind):
    # A numpy number or 0-d array was stored as given: a 0-d array made the
    # object unhashable, and a float32 gave other bits downstream.
    forms = [value, np.int64(value), np.array(value)]
    if kind is float:
        forms += [np.float32(value), np.float64(value), np.array(float(value))]
    expected = make(kind(value))
    for form in forms:
        built = make(form)
        assert type(getattr(built, field)) is kind
        assert built == expected and hash(built) == hash(expected)


def test_a_kappa_of_minus_zero_is_stored_as_zero():
    kappa = VonMisesParams(kappa=-0.0).kappa
    assert kappa == 0.0 and math.copysign(1.0, kappa) == 1.0


@pytest.mark.parametrize("phi, e", [
    (10.0, np.array([[0.5], [0.2]])),
    (10.0, np.array([0.5, 0.2])),
    (np.array([10.0, 20.0]), np.array([[0.5], [0.2]])),
    (np.array([10.0, 20.0]), np.array([0.5, 0.2, 0.1])),
], ids=["scalar-rows", "scalar-pair", "row-rows", "mismatch"])
def test_an_eccentricity_that_enlarges_the_angles_raises_invalid_geometry(phi, e):
    # numpy's bare ValueError ("non-broadcastable output operand") escaped.
    with pytest.raises(InvalidGeometry, match=re.escape(
            f"eccentricity of shape {e.shape} does not broadcast against angles of shape"
            f" {np.shape(phi)}")):
        aoa_from_aod(phi, e)


def test_every_numeric_field_is_in_the_scalar_table():
    # So a numeric field cannot be added without a row above.
    numeric = {f.name for cls in (ScenarioConfig, AntennaPattern, VonMisesParams)
               for f in dataclasses.fields(cls)
               if {"float", "int"} & set(re.findall(r"\w+", f.type))}
    assert len(numeric) == 11
    assert numeric <= {row[1] for row in SCALAR_FIELDS}


@pytest.mark.parametrize("delays", ["1e-7", ["a"], None], ids=["numeric-str", "[str]", "None"])
def test_delays_that_are_not_numbers_raise_invalid_geometry(delays):
    # A numeric string was read as its number, and the others raised a bare
    # ValueError or the degenerate-delay message.
    with pytest.raises(InvalidGeometry, match="^excess_delays_s must be real numbers"):
        eccentricity_from_delay(delays, 200.0)


class TestBoresightFrame:
    """The package's frame, on the bundled profile's ellipses: a departure
    at 0 heads away from the receiver. So the boresight ray at 180 bounces
    at the far vertex (x = a, behind the receiver) and arrives from 180, and
    the ray at 0 bounces at the near vertex (x = -a, behind the transmitter)
    and arrives from 0. Only the boresight ray is tested, not the beam: on
    a short-delay ellipse (e = 0.99) a departure 10 deg off 180 already
    bounces between the two ends."""

    @pytest.mark.parametrize("ds_s", sorted(DS_BY_BAND.values()))
    @pytest.mark.parametrize("boresight, vertex", [(180.0, 1.0), (0.0, -1.0)],
                             ids=["far", "near"])
    def test_boresight_ray_bounces_at_the_vertex_it_points_to(self, ds_s, boresight, vertex):
        d = TXRX_DISTANCE_M
        delays = scale_pdp(builtin_nlos_profile(), ds_s).excess_delays_s
        delays = delays[delays > DEGENERATE_DELAY_S]
        assert delays.size == 22
        for delay, e in zip(delays, eccentricity_from_delay(delays, d)):
            ell = ellipse_with(e, (d + SPEED_OF_LIGHT_M_S * delay) / 2.0)
            a = ell.semi_major_m
            x, y = reflection_point(180.0 - boresight, ell)  # the ray of oracle_aoa
            assert x == pytest.approx(vertex * a, rel=1e-12)
            assert abs(y) <= 1e-12 * a
            assert arrival_bearing((x, y), ell) == pytest.approx(boresight, abs=1e-9)
            assert aoa_from_aod(boresight, e) == boresight


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        import multiell
        missing = [name for name in multiell.__all__ if not hasattr(multiell, name)]
        assert missing == []

    def test_removed_names_have_no_alias(self):
        import multiell
        import multiell.antenna
        import multiell.errors
        import multiell.geometry
        for module, name in ((multiell.geometry, "Ellipse"),
                             (multiell.geometry, "ellipse_from_delay"),
                             (multiell.errors, "DegenerateEllipse"),
                             (multiell.antenna, "sample_aod")):
            assert not hasattr(module, name)
            assert not hasattr(multiell, name)

    def test_test_oracles_are_not_exported(self):
        import multiell
        import multiell.geometry
        for name in ("reflection_point", "arrival_bearing", "aod_from_aoa"):
            assert name not in multiell.__all__
            assert not hasattr(multiell, name)
            assert not hasattr(multiell.geometry, name)
