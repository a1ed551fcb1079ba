import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.errors import InvalidGeometry
from multiell.geometry import (DEGENERATE_DELAY_S, SPEED_OF_LIGHT_M_S, aoa_from_aod,
                               eccentricity_from_delay, wrap_degrees, wrap_in_place)
from multiell.pdp import builtin_nlos_profile, scale_pdp
from multiell.presets import DS_BY_BAND, TXRX_DISTANCE_M

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
        for bad in (np.array([[0.5], [1.0]]), np.array([[-0.1], [0.5]]), np.nan):
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
    """The angle map on |aod| through numpy's radians and degrees, negated
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
    np.degrees(out, out=out)
    out *= 2.0
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


def wrap_oracle(angle_deg):
    """(a + 180) % 360 - 180 with -180 sent to 180; in-range values pass through."""
    a = np.asarray(angle_deg, dtype=float)
    out_of_range = (a <= -180.0) | (a > 180.0)
    with np.errstate(invalid="ignore"):
        wrapped = (a + 180.0) % 360.0 - 180.0
    wrapped = np.where(wrapped == -180.0, 180.0, wrapped)
    return np.where(out_of_range, wrapped, a)


def wrap_bits(angle_deg):
    with np.errstate(invalid="ignore"):
        return np.asarray(wrap_degrees(angle_deg), dtype=float).view(np.int64)


_EDGES = np.array([0.0, 180.0, 360.0, 540.0])
WRAP_EDGES = np.concatenate([
    _EDGES, -_EDGES,
    np.nextafter(_EDGES, np.inf), np.nextafter(_EDGES, -np.inf),
    np.nextafter(-_EDGES, np.inf), np.nextafter(-_EDGES, -np.inf),
    [1e300, -1e300, np.inf, -np.inf, np.nan],
])


class TestWrapDegreesOracle:
    @given(st.lists(st.one_of(st.floats(), st.floats(min_value=-900.0, max_value=900.0)),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_oracle(self, values):
        a = np.array(values, dtype=float)
        assert np.array_equal(wrap_bits(a), wrap_oracle(a).view(np.int64))
        for x in values:
            assert np.array_equal(wrap_bits(x), wrap_oracle(x).view(np.int64)), x

    def test_edges_bitwise_equal_to_oracle(self):
        assert np.array_equal(wrap_bits(WRAP_EDGES), wrap_oracle(WRAP_EDGES).view(np.int64))
        for x in WRAP_EDGES:
            assert np.array_equal(wrap_bits(float(x)), wrap_oracle(x).view(np.int64)), x
        assert math.copysign(1.0, wrap_degrees(-0.0)) == -1.0

    @given(st.lists(st.one_of(st.floats(), st.floats(min_value=-900.0, max_value=900.0)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_in_place_bitwise_equal_to_oracle(self, values):
        a = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):
            out = wrap_in_place(a)
        assert out is a
        assert np.array_equal(a.view(np.int64), wrap_oracle(values).view(np.int64))

    def test_in_place_on_two_d_and_rejects_strided(self):
        a = np.array([[190.0, 0.0, -540.0], [360.0, -180.0, 5.0]])
        expected = wrap_oracle(a.ravel()).reshape(a.shape)
        assert wrap_in_place(a) is a
        assert a.tobytes() == expected.tobytes()
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
