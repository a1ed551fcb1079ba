import itertools
import math
import re
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiell.antenna import AntennaPattern, PatternKind
from multiell.cli import _fmt
from multiell.engine import (PathSet, SourceKind, _steer, draw_realization, reweight,
                             run_realization)
from multiell.errors import BadAngle, BadBinWidth, BadPaths, ConfigError, MultiellError, NoPower
from multiell.geometry import wrap_degrees
from multiell.presets import fig_presets, scenario
from multiell.scattering import VonMisesParams, von_mises_pdf, sample_von_mises
from multiell.stats import (_PAS_BLOCK, SweepAxis, SweepResult, _bin_power, angular_spread,
                            estimate_pas, realization_pas, sweep_as)

from conftest import aim_draws, make_pathset, spy

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

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_an_infinite_power_is_named_before_a_later_bad_one(self, bad):
        # Two sources, [1, inf | bad, 2]: an inf was named only once the total
        # came out of range, so the bad power at path 2 was named instead.
        power = np.array([1.0, np.inf, bad, 2.0])
        paths = PathSet(np.array([0.0, 90.0, 45.0, 10.0]), power, power,
                        ((SourceKind.CLUSTER, 1, slice(0, 2)),
                         (SourceKind.CLUSTER, 2, slice(2, 4))))
        for statistic in (angular_spread, lambda p: estimate_pas(p, bin_width_deg=90.0)):
            with pytest.raises(NoPower, match=r"^path 1 has power inf, not a finite number >= 0$"):
                statistic(paths)

    @pytest.mark.parametrize("angle", [400.0, 181.0, np.nextafter(180.0, np.inf),
                                       np.nextafter(-180.0, -np.inf), -1e300, 1e300,
                                       np.inf, -np.inf, np.nan])
    def test_a_bad_angle_raises_naming_the_path(self, angle):
        # [400, 0] gave a spread of 200.0 and a PAS of mass 0.5, [nan, 0] a
        # spread of nan, [1e300, 0] one of inf, and [inf, 0] a RuntimeWarning.
        paths = make_pathset([10.0, -180.0, angle, 180.0], [1.0, 1.0, 1.0, 1.0])
        for statistic in (angular_spread, estimate_pas):
            with pytest.raises(BadAngle, match=rf"^path 2 has arrival angle {re.escape(str(angle))}, not in "):
                statistic(paths)

    @pytest.mark.parametrize("aoa", [[0.0, 10.0, 20.0], [0.0]])
    def test_an_angle_count_other_than_the_power_count_raises(self, aoa):
        power = np.ones(2)
        paths = PathSet(np.array(aoa), power, power,
                        ((SourceKind.CLUSTER, 1, slice(0, len(aoa))),))
        for statistic in (angular_spread, estimate_pas):
            with pytest.raises(BadAngle, match=rf"^{len(aoa)} arrival angles for 2 path powers$"):
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

    def test_float32_paths_are_taken_as_float64(self):
        # Two float32 powers of 1e38 overflowed the float32 weighted sums,
        # giving a spread of NaN.
        aoa, power = np.array([-90.0, 90.0], np.float32), np.full(2, 1e38, np.float32)
        narrow = PathSet(aoa, power, power, ((SourceKind.CLUSTER, 1, slice(0, 2)),))
        wide = make_pathset(aoa, power)  # as float64
        assert angular_spread(narrow) == angular_spread(wide) == 90.0
        assert same_spectrum(estimate_pas(narrow, 0.1), estimate_pas(wide, 0.1))

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
        draws = np.empty(100_000)
        sample_von_mises(params, rng, draws)
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

    @pytest.mark.parametrize("blocks", [
        (slice(0, 2), slice(3, 6)),  # a gap: path 2 in no source
        (slice(0, 4), slice(3, 6)),  # an overlap: path 3 in two
        (slice(0, 2), slice(2, 5)),  # short: path 5 in none
        (slice(0, 6), slice(6, 7)),  # past the last path
        (slice(3, 6), slice(0, 3)),  # out of order
    ])
    def test_sources_that_do_not_tile_the_paths_raise(self, blocks):
        aoa, power = np.zeros(6), np.ones(6)
        paths = PathSet(aoa, power, power, tuple((SourceKind.CLUSTER, 1, b) for b in blocks))
        with pytest.raises(ValueError, match="source"):
            estimate_pas(paths)


# Entries of user path arrays: in-range angles or powers, or now and then a
# special float that the contract names.
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
                           2.2e-308, 0.0, -0.0, 180.0, -180.0, np.nextafter(180.0, math.inf)])
ANGLES = st.integers(0, 7).flatmap(lambda k: SPECIAL if k == 0 else st.floats(-180.0, 180.0))
POWERS = st.integers(0, 7).flatmap(lambda k: SPECIAL if k == 0 else st.floats(0.0, 1e308)
                                   if k < 4 else st.floats(0.0, 1.0))


@st.composite
def user_array(draw, n, entries):
    # n entries as a user might pass them: a float64 array mostly, else
    # float32, ints, a list, or a 0-d or 2-D array.
    values = draw(st.lists(entries, min_size=n, max_size=n))
    form = draw(st.sampled_from(["float64"] * 12 + ["float32", "int", "list", "0-d", "2-D"]))
    if form == "int":
        return np.array(draw(st.lists(st.integers(-200, 200), min_size=n, max_size=n)), dtype=int)
    if form == "list":
        return values
    if form == "0-d":
        return np.array(values[0] if values else 1.0)
    if form == "2-D":
        return np.array(values, dtype=float).reshape(1, -1)
    with np.errstate(over="ignore"):  # 1e308 is inf in float32
        return np.array(values, dtype=form)


@st.composite
def user_paths(draw):
    # Paths of up to 6 entries per array, perhaps of other counts, whose
    # sources tile them or gap, overlap, overrun or reorder, or are not a
    # tuple of (kind, tap, slice) with whole-number bounds.
    n = draw(st.integers(0, 6))
    aoa = draw(user_array(n, ANGLES))
    power = draw(user_array(draw(st.sampled_from([n] * 8 + [n + 1, max(n - 1, 0)])), POWERS))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    blocks = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    fault = draw(st.sampled_from([None] * 4 + ["gap", "overlap", "overrun", "reorder", "list",
                                                "bare", "float"]))
    k = draw(st.integers(0, len(blocks) - 1))
    if fault == "gap":
        blocks[k] = slice(blocks[k].start + 1, blocks[k].stop)
    elif fault == "overlap":
        blocks[k] = slice(blocks[k].start - 1, blocks[k].stop)
    elif fault == "overrun":
        blocks[-1] = slice(blocks[-1].start, blocks[-1].stop + 1)
    elif fault == "reorder":
        blocks.insert(0, blocks.pop(k))
    elif fault == "float":
        blocks[k] = slice(blocks[k].start, float(blocks[k].stop))
    sources = [(SourceKind.CLUSTER, 1, b) for b in blocks]
    if fault == "bare":
        sources[k] = blocks[k]
    return PathSet(aoa, power, power, sources if fault == "list" else tuple(sources))


def first_fault(paths):
    """The error and message that PathSet's contract gives ``paths``, in its
    order, naming the first bad array or path; None if there is none."""
    for name in ("aoa_deg", "power_lin"):
        a = getattr(paths, name)
        if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype in (np.float32, np.float64)):
            return BadPaths, f"^{name} must be a 1-D array"
    aoa, power = paths.aoa_deg.tolist(), paths.power_lin.tolist()
    if len(aoa) != len(power):
        return BadAngle, f"^{len(aoa)} arrival angles for {len(power)} path powers$"
    for i, x in enumerate(aoa):
        if not -180.0 <= x <= 180.0:
            return BadAngle, f"^path {i} has arrival angle "
    for i, x in enumerate(power):
        if not 0.0 <= x < math.inf:
            return NoPower, f"^path {i} has power "
    if not isinstance(paths.sources, tuple):
        return BadPaths, "^sources must be a tuple, got list$"
    # Tiling in order: each slice starts where the one before stops.
    stops = [0]
    for source in paths.sources:
        b = source[2] if isinstance(source, tuple) else None
        if not (isinstance(b, slice) and type(b.start) is type(b.stop) is int
                and stops[-1] == b.start <= b.stop <= len(aoa)):
            return BadPaths, f"^source .* does not continue the sources at path {stops[-1]}$"
        stops.append(b.stop)
    if stops[-1] != len(aoa):
        return BadPaths, f"^the sources cover {stops[-1]} of {len(aoa)} paths$"
    if not any(power):
        return NoPower, "^total path power is 0.0$"
    return None


class TestUserPathContract:
    @given(paths=user_paths(), width=st.sampled_from([1.0, 7.2, 90.0, 360.0]))
    @settings(max_examples=200, deadline=1000)  # ms: the contract's bounded time
    def test_every_input_gives_a_statistic_or_names_its_first_fault(self, paths, width):
        # Under the suite's error::RuntimeWarning. An int array raised
        # UFuncTypeError, a list AttributeError, a 2-D array einsum's
        # ValueError, and sources that do not tile a plain ValueError.
        fault = first_fault(paths)
        for statistic in (angular_spread, lambda p: estimate_pas(p, width)):
            if fault is not None:
                with pytest.raises(fault[0], match=fault[1]):
                    statistic(paths)
        if fault is None:
            assert 0.0 <= angular_spread(paths) <= 180.0
            density = estimate_pas(paths, width).density_per_deg
            assert density.min() >= 0.0
            assert math.fsum(density) * width == pytest.approx(1.0, abs=1e-9)


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
                            [180.0, -180.0, 0.0, -0.0, 1e-300, -1e-300],
                            rng.uniform(-180.0, 180.0, 10_000)])
        x = x[(x >= -180.0) & (x <= 180.0)]  # the neighbours beyond the ends raise BadAngle
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


SPECIAL_ANGLES = [0.0, -0.0, 180.0, -180.0, 1e-300, -1e-300]


def _edge_angles(width):
    # Bin edges and their float neighbours on both sides, all within the band
    # that binning by floor checks; at 1e-4-degree bins every 200th edge.
    # None lies beyond +-180: the binner's angles are checked where they enter.
    edges = _bin_edges(width)
    if edges.size > 100_000:
        edges = np.concatenate([edges[:200], edges[200:-200:200], edges[-200:]])
    return np.concatenate([edges, np.nextafter(edges[:-1], np.inf),
                           np.nextafter(edges[1:], -np.inf)])


def _binned(x, w, edges, width):
    # _bin_power of one piece into fresh per-bin sums.
    sums = np.zeros(edges.size - 1)
    _bin_power(x, w, edges, width, sums)
    return sums


class TestPasBinsByFloor:
    """The floor binning equals the gather-based reduction it replaced, bit for
    bit, over several blocks of one piece."""

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
        assert _binned(x, w, edges, width).tobytes() == expected.tobytes()

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
        assert _binned(x, w, edges, width).tobytes() == expected.tobytes()

    def test_buffers_are_sized_by_the_path_count(self, rng):
        # At 1e-4-degree bins a block is the 3.6M-bin count; buffers that size
        # would take 86 MB more than the per-bin sums and np.bincount's output.
        edges = _bin_edges(1e-4)
        x = rng.uniform(-180.0, 180.0, 1000)
        tracemalloc.start()
        try:
            _binned(x, np.ones(x.size), edges, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (edges.size - 1) + 1_000_000

    def test_a_narrow_piece_counts_only_its_own_bins(self, rng):
        # A count over every bin, for a piece that fills 500 of 3.6M, took
        # one more bin-count array and a pass over it per piece.
        edges = _bin_edges(1e-4)
        x = np.concatenate([rng.uniform(10.0, 10.05, 1000), edges[1_900_000:1_900_500]])
        w = rng.random(x.size)
        tracemalloc.start()
        try:
            got = _binned(x, w, edges, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == _bin_power_by_gathers(x, w, edges, 1e-4).tobytes()
        assert peak < 8 * (edges.size - 1) + 1_000_000


class TestPasOrder:
    """estimate_pas reduces source by source: each bin adds the sources'
    np.bincount partials in order, and the total is 0.0 plus the sources'
    ndarray.sum in order."""

    def test_two_sources_give_the_per_source_reference(self):
        rng = np.random.default_rng(0)
        sizes = (3001, 5003)
        x = rng.uniform(-180.0, 180.0, sum(sizes))
        w = rng.random(x.size)
        cut = slice(0, sizes[0]), slice(sizes[0], x.size)
        paths = PathSet(x, w, w, tuple((SourceKind.CLUSTER, tap, b) for tap, b in
                                       enumerate(cut, 1)))
        per_source = 0.0 + w[cut[0]].sum() + w[cut[1]].sum()
        assert per_source.tobytes() != w.sum().tobytes()  # the order shows
        width = 1.0
        edges = _bin_edges(width)
        bins = _histogram_bins(x, edges)
        sums = np.zeros(edges.size - 1)
        for b in cut:
            sums += np.bincount(bins[b], weights=w[b], minlength=sums.size)
        expected = sums / (per_source * width)
        assert estimate_pas(paths, width).density_per_deg.tobytes() == expected.tobytes()


def same_spectrum(got, expected):
    return all(getattr(got, name).tobytes() == getattr(expected, name).tobytes()
               for name in ("bin_centers_deg", "density_per_deg")) and (
        got.bin_width_deg == expected.bin_width_deg)


class TestRealizationPas:
    """The streamed PAS of the pas command gives estimate_pas(run_realization)
    byte for byte."""

    @pytest.mark.parametrize("name", sorted(fig_presets()))
    def test_every_preset_and_rice_factor(self, name):
        # Rows of 1 to 200 paths straddle the 8-way unroll and the 128-path
        # block of numpy's pairwise sum within each row's own total, which
        # both routes take row by row before adding the totals in order.
        # 4000 dB: K = inf, the direct path alone.
        for n, rice in itertools.product((1, 7, 8, 127, 128, 129, 200), (None, 6.0, 4000.0)):
            cfg = replace(fig_presets()[name].config, paths_per_cluster=n, rice_factor_db=rice)
            paths = run_realization(cfg)
            for width in (1.0, 0.1, 7.2):
                assert same_spectrum(realization_pas(cfg, width), estimate_pas(paths, width))

    def test_rows_straddle_blocks(self):
        # 50,000-path rows over 32,768-path blocks, under a directional rx.
        cfg = replace(fig_presets()["fig4-A"].config, paths_per_cluster=50_000,
                      rice_factor_db=6.0)
        assert same_spectrum(realization_pas(cfg, 0.1), estimate_pas(run_realization(cfg), 0.1))

    @pytest.mark.parametrize("cfg, wraps", [
        (fig_presets()["fig4-A"].config, {False}),
        (replace(fig_presets()["fig8-A"].config, rx_pattern=replace(
            fig_presets()["fig8-A"].config.rx_pattern, boresight_deg=150.0)), {False, True}),
        (replace(fig_presets()["fig4-A"].config,
                 tx_pattern=AntennaPattern.gaussian(330.0, boresight_deg=120.0)), {False}),
    ], ids=["fig4-A", "fig8-A-rx-150", "wide-tx-120"])
    def test_rows_of_three_blocks(self, monkeypatch, cfg, wraps):
        # 70,000-path rows: two whole blocks of _PAS_BLOCK paths and a part,
        # each aimed and weighted over its own angle span. With the rx at
        # 150 degrees the gain takes the wrap candidate in some blocks only;
        # the 330-degree tx beam draws offsets again in redraw rounds.
        import multiell.engine
        cfg = replace(cfg, paths_per_cluster=70_000)
        expected = estimate_pas(run_realization(cfg), 0.1)
        spans = spy(monkeypatch, multiell.engine, "_gain_in_place",
                    note=lambda arguments, _: arguments["span"])
        assert same_spectrum(realization_pas(cfg, 0.1), expected)
        assert len(spans) == 23 * 3  # 22 geometric taps and local scattering
        b = cfg.rx_pattern.boresight_deg
        assert {lo - b < -180.0 or hi - b > 180.0 for lo, hi in spans} == wraps

    def fig2_d(self, hpbw, boresight):
        cfg = fig_presets()["fig2-D"].config
        return replace(cfg, rx_pattern=replace(cfg.rx_pattern, hpbw_deg=hpbw,
                                               boresight_deg=boresight))

    def test_total_below_the_range_bins_the_rescaled_powers(self):
        cfg = self.fig2_d(6.0, 150.0)
        paths = run_realization(cfg)
        assert 0.0 < paths.power_lin.sum() < 1e-300  # 2.76e-307 at seed 1
        assert same_spectrum(realization_pas(cfg), estimate_pas(paths))

    def test_only_user_paths_are_checked(self, monkeypatch):
        # The engine's weights are finite and >= 0 as made, so neither the
        # streamed PAS nor the sweep checks them; the streamed PAS checked
        # each of its 23 rows here.
        import multiell.stats
        calls = []
        check = multiell.stats._require_paths
        monkeypatch.setattr(multiell.stats, "_require_paths",
                            lambda *args: calls.append(args) or check(*args))
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        realization_pas(cfg)
        sweep_as(cfg, SweepAxis.RX_ORIENTATION, [0.0, 30.0], trials=2)
        assert len(calls) == 0
        paths = run_realization(cfg)
        angular_spread(paths)
        assert len(calls) == 1
        estimate_pas(paths)
        assert len(calls) == 2

    def test_zero_total_raises(self):
        cfg = self.fig2_d(7.0, 180.0)
        assert run_realization(cfg).power_lin.sum() == 0.0
        with pytest.raises(NoPower):
            realization_pas(cfg)

    def test_bad_bin_width_raises_before_any_draw(self, monkeypatch):
        import multiell.stats
        monkeypatch.setattr(multiell.stats, "_realization_rows", None)
        with pytest.raises(BadBinWidth):
            realization_pas(scenario("A", "same"), 7.0)


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

    @pytest.mark.parametrize("axis, trials", [
        ("rx", 1),  # the CLI's name for the axis, not a SweepAxis
        (SweepAxis.TX_ORIENTATION, 2.5),
        (SweepAxis.TX_ORIENTATION, 2.0),
        (SweepAxis.TX_ORIENTATION, "2"),
    ])
    def test_bad_axis_or_trial_count_rejected(self, axis, trials):
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        with pytest.raises(ConfigError):
            sweep_as(cfg, axis, [0.0], trials=trials)

    @pytest.mark.parametrize("trials", [10_001, 10**8, 10**12])
    def test_trial_count_above_ceiling_rejected(self, trials):
        # 1e12 once died in np.empty, and 1e8 would have run for hours
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        with pytest.raises(ConfigError, match=f"trials {trials} exceeds the limit of 10000"):
            sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=trials)

    def test_a_trial_count_of_thousands_of_digits_is_named_in_short(self):
        # Python's 4,300-digit limit on int-to-text raised a bare ValueError.
        cfg = scenario("A", "same", seed=1, paths_per_cluster=20)
        with pytest.raises(ConfigError, match="^trials an int of more than 40 digits exceeds"
                                              " the limit of 10000$"):
            sweep_as(cfg, SweepAxis.TX_ORIENTATION, [0.0], trials=10**5000)

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

    def test_total_below_the_range_spreads_the_rescaled_powers(self):
        # The sweep's twin of TestRealizationPas's rescale test: trial 0
        # totals 6.22e-307 at seed 1, below the range, so its spread is taken
        # again over the powers divided by the largest.
        cfg = fig_presets()["fig2-D"].config
        cfg = replace(cfg, rx_pattern=replace(cfg.rx_pattern, hpbw_deg=7.0,
                                              boresight_deg=153.0))
        spread = sweep_as(cfg, SweepAxis.RX_ORIENTATION, [153.0], trials=3).as_deg[0, 0]
        paths = run_realization(cfg, (2, 0))
        assert 0.0 < paths.power_lin.sum() < 1e-300
        rescaled = make_pathset(paths.aoa_deg, paths.power_lin / paths.power_lin.max())
        assert same_bits(spread, angular_spread(paths))
        assert same_bits(spread, angular_spread(rescaled))

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
    # 5 degrees: 3,942 sweep rows, of which 3,036 are distinct points, each
    # computed once.
    ANGLES = np.linspace(-180.0, 180.0, 73)
    TRIALS = 3
    # The one-pass reduction's worst error on these points (fig8-A, a spread
    # of 0.0756 degrees at rx -165) is 5.22e-11 relative.
    ONE_PASS_REL = 5.3e-11
    TIE_REL = 4e-15

    def test_printed_spreads_equal_a_long_double_reference(self, monkeypatch):
        import multiell.stats
        points = spy(monkeypatch, multiell.stats, "_spread_in_place",
                     note=lambda call, value: (
                         value, one_pass_spread(call["phi"], call["power"]),
                         float(long_double_spread(call["phi"], call["power"]))))
        n = self.ANGLES.size
        one_pass_misprints = 0
        for name, preset in sorted(fig_presets().items()):
            cfg = replace(preset.config, paths_per_cluster=500, seed=5)
            points.clear()
            result = sweep_as(cfg, preset.axis, self.ANGLES, trials=self.TRIALS)
            firsts = first_of_each_point(cfg, preset.axis, self.ANGLES)
            assert result.as_deg.size == n * self.TRIALS
            assert len(points) == len(firsts) * self.TRIALS
            for k, (value, one_pass, reference) in enumerate(points):
                t, i = divmod(k, len(firsts))  # the sweep runs trial-major
                j = firsts[i]
                point = (name, float(self.ANGLES[j]), t)
                assert result.as_deg[j, t] == value
                if _fmt(value) != _fmt(reference):
                    assert twelve_digit_tie_distance(reference) < self.TIE_REL, point
                one_pass_misprints += _fmt(one_pass) != _fmt(reference)
                assert abs(value - one_pass) <= self.ONE_PASS_REL * value, point
        # The check can fail: the one-pass reduction misprints 77 of these
        # points (64 of fig8-A's 216).
        assert one_pass_misprints > 0


def first_of_each_point(config, axis, angles_deg):
    """The index of each distinct point's first angle, in sweep order: a
    point is its wrapped boresights, an omni end's left out, and only the
    swept end's boresight varies."""
    swept = config.tx_pattern if axis is SweepAxis.TX_ORIENTATION else config.rx_pattern
    seen, firsts = set(), []
    for j, angle in enumerate(angles_deg):
        key = None if swept.kind is PatternKind.OMNI else wrap_degrees(float(angle))
        if key not in seen:  # -0.0 == 0.0, and they hash alike
            seen.add(key)
            firsts.append(j)
    return firsts


def reference_sweep(config, axis, angles_deg, trials):
    """One realization per (angle, trial), each drawn from that trial's
    stream key (1, trial) on the tx axis and (2, trial) on the rx axis, aimed
    into a fresh array and weighted by reweight, apart from the engine's
    loop; and each angle's mean and standard deviation taken over its own
    row, as a SweepResult."""
    angles = [float(a) for a in angles_deg]
    end, code = ("tx_pattern", 1) if axis is SweepAxis.TX_ORIENTATION else ("rx_pattern", 2)
    spreads = np.empty((len(angles), trials))
    tx, rx, mean, std = [], [], [], []
    for row, angle in zip(spreads, angles):
        cfg = replace(config, **{end: replace(getattr(config, end), boresight_deg=angle)})
        for trial in range(trials):
            draws = draw_realization(cfg, (code, trial))
            aoa = aim_draws(draws, _steer(cfg.tx_pattern) or 0.0, np.empty(draws.angles.size))
            raw = draws.raw_power_lin
            paths = reweight(PathSet(aoa, raw, raw, draws.sources), cfg.rx_pattern)
            row[trial] = angular_spread(paths)
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

    def test_ten_trials_keep_the_row_means_and_deviations(self):
        # From 8 trials up numpy sums a contiguous row in another order than
        # the rows of a transposed table, so the mean and std have the bits
        # of an angle-major, C-contiguous as_deg only.
        cfg = scenario("A", "omni", alpha_t_deg=150.0, seed=11, paths_per_cluster=20)
        angles = [-90.0, 0.0, 45.0, 180.0]
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, angles, trials=10)
        assert result.as_deg.flags.c_contiguous
        assert_same_sweep(result, reference_sweep(cfg, SweepAxis.TX_ORIENTATION, angles, 10))

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
        # trial cost peak memory. The aim's scratch is the weighted powers'
        # buffer, and where the beam never turns (the rx sweep) each trial is
        # aimed in its draws' own buffer.
        import multiell.engine
        weighted = spy(monkeypatch, multiell.engine, "_gain_in_place")
        aimed = spy(monkeypatch, multiell.engine, "_aim")
        cfg = scenario("A", "same", alpha_t_deg=30.0, paths_per_cluster=30, seed=4)
        sweep_as(cfg, axis, [-180.0, 180.0, 0.0], trials=2)
        assert [a["turn_deg"] for a in aimed] == boresights * 2
        assert len(weighted) == 4  # two points per trial: -180 is 180
        out, scratch = weighted[0]["out"], weighted[0]["scratch"]
        assert out is not None and scratch is not None and out is not scratch
        assert all(w["out"] is out and w["scratch"] is scratch for w in weighted)
        assert all(np.shares_memory(a["scratch"], out) for a in aimed)
        # the gain reads the angles the last aim wrote
        per_trial = len(weighted) // 2
        for trial, a in enumerate(aimed[::len(boresights)]):
            angles = weighted[trial * per_trial]["phi"]
            assert all(w["phi"] is angles for w in weighted[trial * per_trial:][:per_trial])
            assert np.shares_memory(a["out"], angles)
            assert np.shares_memory(a["tangents"], angles) == (axis is SweepAxis.RX_ORIENTATION)
            assert not np.shares_memory(angles, out) and not np.shares_memory(angles, scratch)
        if axis is SweepAxis.TX_ORIENTATION:  # one buffer of arrival angles serves the sweep
            assert weighted[0]["phi"] is weighted[-1]["phi"]
        # An omni receiver weights nothing: no gain is computed.
        weighted.clear()
        aimed.clear()
        sweep_as(replace(cfg, rx_pattern=AntennaPattern.omni()), axis, [-180.0, 180.0, 0.0],
                 trials=2)
        assert [a["turn_deg"] for a in aimed] == boresights * 2
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
        import multiell.engine
        ranges = spy(monkeypatch, multiell.engine, "_gain_in_place",
                     note=lambda call, _: (call["span"], (float(call["phi"].min()),
                                                          float(call["phi"].max()))))
        cfg = scenario("A", rx, alpha_t_deg=170.0, alpha_r_deg=alpha_r, paths_per_cluster=30,
                       seed=4)
        result = sweep_as(cfg, axis, angles, trials=2)
        points = len(first_of_each_point(cfg, axis, angles))
        assert len(ranges) == (0 if rx == "omni" else 2 * points)
        for span, scanned in ranges:
            assert span[0] <= scanned[0] and scanned[1] <= span[1]
            assert span == (scanned if scans else (-180.0, 180.0))
        monkeypatch.undo()
        assert_same_sweep(result, reference_sweep(cfg, axis, angles, 2))

    @pytest.mark.parametrize("axis, rx, points", [
        (SweepAxis.RX_ORIENTATION, "same", 4), (SweepAxis.RX_ORIENTATION, "omni", 1),
        (SweepAxis.TX_ORIENTATION, "same", 4), (SweepAxis.TX_ORIENTATION, "omni", 4)],
        ids=["rx-sweep", "rx-sweep-omni", "tx-sweep", "tx-sweep-omni"])
    def test_each_distinct_point_once_per_trial(self, axis, rx, points, monkeypatch):
        # [-540, 540] every 90 degrees wraps onto 180, -90, +0 and 90 three or
        # four times each, and -0 is +0. An omni end's boresight is no part of
        # a point, so an omni-receiver rx sweep has one.
        import multiell.stats
        spreads = spy(monkeypatch, multiell.stats, "_spread_in_place")
        cfg = scenario("B", rx, alpha_t_deg=150.0, alpha_r_deg=20.0, seed=7,
                       paths_per_cluster=40)
        angles = [*np.arange(-540.0, 541.0, 90.0), -0.0]
        result = sweep_as(cfg, axis, angles, trials=3)
        monkeypatch.undo()
        assert len(spreads) == 3 * points
        assert_same_sweep(result, reference_sweep(cfg, axis, angles, 3))

    def test_narrow_tx_sweep_wraps_no_departure(self, monkeypatch):
        # The half-angle tangent has period 360 degrees in the departure, so
        # no aim wraps one, even where the beam straddles the half turn.
        import multiell.engine
        import multiell.geometry
        begun = spy(monkeypatch, multiell.engine, "_aim")
        # each wrap notes how many aims had begun when it was made
        wrapped = spy(monkeypatch, multiell.geometry, "wrap_in_place", note=lambda *_: len(begun))
        cfg = replace(scenario("D", "same", seed=2, paths_per_cluster=200),
                      tx_pattern=AntennaPattern.gaussian(9.0))
        angles = np.arange(-180.0, 181.0, 5.0)
        result = sweep_as(cfg, SweepAxis.TX_ORIENTATION, angles, trials=2)
        monkeypatch.undo()
        # the wraps from the start of each aim to the start of the next
        aims = [wrapped.count(k) for k in range(1, len(begun) + 1)]
        assert aims == [0] * (2 * len(first_of_each_point(cfg, SweepAxis.TX_ORIENTATION, angles)))
        assert_same_sweep(result, reference_sweep(cfg, SweepAxis.TX_ORIENTATION, angles, 2))

    def test_omni_tx_aims_once_per_trial(self, monkeypatch):
        # An omni transmitter's draws are the departures themselves.
        import multiell.engine
        aimed = spy(monkeypatch, multiell.engine, "_aim")
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
