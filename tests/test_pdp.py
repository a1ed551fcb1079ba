import math

import numpy as np
import pytest

from multiell.errors import EmptyProfile, InvalidDs, MultiellError, ParseError, UnsortedDelays
from multiell.pdp import (builtin_nlos_profile, load_pdp, loads_pdp, resolve_pdp,
                          scale_pdp, BUILTIN_NLOS, NormalizedPdp)


def test_parse_round_trip(tmp_path):
    path = tmp_path / "two_tap.pdp"
    path.write_text("# name: two-tap\n0.0 0.0\n1.0 -3.0\n")
    pdp = load_pdp(path)
    assert pdp.name == "two-tap"
    assert pdp.taps == ((0.0, 0.0), (1.0, -3.0))


def test_name_defaults_to_stem(tmp_path):
    path = tmp_path / "plain.pdp"
    path.write_text("0.0 0\n")
    assert load_pdp(path).name == "plain"


def test_comments_and_blank_lines_ignored():
    pdp = loads_pdp("# a comment\n\n0.0 0\n# another\n2.5 -6\n")
    assert len(pdp.taps) == 2


def test_unsorted_delays_rejected():
    with pytest.raises(UnsortedDelays):
        loads_pdp("0.5 0\n0.2 -3\n")
    # loads_pdp refuses a negative delay per line; built in code, it reaches this check
    with pytest.raises(UnsortedDelays, match="first tap delay must be >= 0"):
        NormalizedPdp("x", ((-1.0, 0.0), (1.0, -3.0)))


@pytest.mark.parametrize("delay", [math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 6, -1], ids=["first", "middle", "last"])
def test_non_finite_delay_rejected_in_code(at, delay):
    # loads_pdp rejects these per line, but a NaN built in code once passed
    # both order checks, and the engine routed that tap to local scattering
    taps = list(builtin_nlos_profile().taps)
    taps[at] = (delay, taps[at][1])
    with pytest.raises(MultiellError, match="delay must be finite"):
        NormalizedPdp(name="built", taps=tuple(taps))


@pytest.mark.parametrize("taps", [
    (("a", 0.0),), ((None, 0.0),), ((0.0, None),), ((0.0, "-3"),), ((0.0,),),
    ((0.0, 0.0, 1.0),), ((0.0, 0.0), (1.0,)), 5.0, None,
], ids=["str-delay", "None-delay", "None-power", "numeric-str-power", "one-entry",
        "three-entries", "ragged", "scalar", "None"])
def test_taps_that_are_not_pairs_of_numbers_rejected_in_code(taps):
    # A string or None raised a bare TypeError, "-3" was read as -3 dB, and
    # taps of 1 or 3 entries were built.
    with pytest.raises(MultiellError, match=r"^taps must be \(normalized_delay, power_db\) pairs"):
        NormalizedPdp(name="built", taps=taps)


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_nan_or_infinite_power_rejected_in_code(power):
    # Built, then refused only at the first draw, as loads_pdp refuses it per line.
    taps = list(builtin_nlos_profile().taps)
    taps[3] = (taps[3][0], power)
    with pytest.raises(MultiellError, match=f"^tap 4 power must be finite or -inf dB, got {power}$"):
        NormalizedPdp(name="built", taps=tuple(taps))


def test_empty_profile_rejected():
    with pytest.raises(EmptyProfile):
        loads_pdp("# nothing here\n")
    with pytest.raises(EmptyProfile):
        NormalizedPdp("x", ())


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        loads_pdp("0.0 0\nnot numbers\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        loads_pdp("0.0 0\n1.0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="negative delay") as err:
        loads_pdp("0 0\n-1 -3\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text", ["0.0 0\nnan -3\n", "0.0 0\ninf -3\n", "0.0 0\n-inf -3\n",
                                  "0.0 0\n1.0 nan\n", "0.0 0\n1.0 inf\n"])
def test_non_finite_values_name_their_line(text):
    with pytest.raises(ParseError, match="^line 2: ") as err:
        loads_pdp(text)
    assert err.value.line == 2


def test_zero_power_taps():
    # one -inf dB tap is a tap with zero power; a profile of only those is empty
    scaled = scale_pdp(loads_pdp("0.0 0\n1.0 -inf\n"), 1e-7)
    assert scaled.powers_lin.tolist() == [1.0, 0.0]
    with pytest.raises(EmptyProfile):
        loads_pdp("0.0 -inf\n1.0 -inf\n")


def test_power_overflowing_linear_scale_names_its_line():
    loads_pdp("0 0\n1 3082\n")  # 1.6e308 still fits a float
    with pytest.raises(ParseError, match="^line 2: power 5000.0 dB overflows") as err:
        loads_pdp("0 0\n1 5000\n")
    assert err.value.line == 2


@pytest.mark.parametrize("taps", [
    ((0.0, 0.0), (1.0, 5000.0)),  # one tap overflows
    ((0.0, 3082.0), (1.0, 3082.0)),  # each tap fits, their sum does not
    ((0.0, -4000.0), (1.0, -math.inf)),  # every tap underflows to zero
], ids=["tap", "sum", "zero"])
def test_scale_rejects_a_total_that_is_not_finite_and_positive(taps):
    with pytest.raises(MultiellError, match="total linear profile power"):
        scale_pdp(NormalizedPdp(name="built", taps=taps), 1e-7)


def test_scale_keeps_the_bits_of_valid_profiles():
    pdp = builtin_nlos_profile()
    powers = 10.0 ** (np.array([t[1] for t in pdp.taps]) / 10.0)
    expected = powers / powers.sum()
    assert scale_pdp(pdp, 3.63e-7).powers_lin.tobytes() == expected.tobytes()


def test_scale_reference_delay():
    pdp = loads_pdp("1.0 0.0\n")
    scaled = scale_pdp(pdp, 363e-9)
    assert scaled.excess_delays_s[0] == pytest.approx(363e-9, rel=1e-15)


def test_scale_power_normalization():
    # [0 dB, -3 dB] -> 1/(1 + 10^-0.3) and its complement, computed independently
    scaled = scale_pdp(loads_pdp("0.0 0.0\n1.0 -3.0\n"), 1e-7)
    assert scaled.powers_lin[0] == pytest.approx(0.6661394245831221, abs=1e-12)
    assert scaled.powers_lin[1] == pytest.approx(0.3338605754168779, abs=1e-12)


def test_scale_single_tap_unit_sum():
    scaled = scale_pdp(loads_pdp("0.5 0.0\n"), 228e-9)
    assert scaled.excess_delays_s[0] == pytest.approx(114e-9, rel=1e-15)
    assert scaled.powers_lin[0] == 1.0


def test_scale_rejects_bad_ds():
    pdp = builtin_nlos_profile()  # 1e308 overflows its last delay, 4.7834 ds_s
    for bad in (0.0, -1e-9, math.nan, math.inf, -math.inf, 1e308, 10**400):
        with pytest.raises(InvalidDs) as caught:
            scale_pdp(pdp, bad)
        assert len(str(caught.value)) < 100  # the value, not 401 digits


def test_scale_preserves_count_order_and_mass(rng):
    delays = np.sort(rng.uniform(0.0, 5.0, 17))
    powers = rng.uniform(-20.0, 0.0, 17)
    text = "\n".join(f"{d} {p}" for d, p in zip(delays, powers))
    scaled = scale_pdp(loads_pdp(text), 100e-9)
    assert scaled.excess_delays_s.size == 17
    assert np.all(np.diff(scaled.excess_delays_s) >= 0.0)
    assert scaled.powers_lin.sum() == pytest.approx(1.0, abs=1e-12)


def test_scale_linearity_in_ds():
    pdp = loads_pdp("0.1 0\n0.7 -4\n2.0 -8\n")
    one = scale_pdp(pdp, 100e-9)
    two = scale_pdp(pdp, 200e-9)
    assert np.allclose(two.excess_delays_s, 2.0 * one.excess_delays_s, rtol=1e-15)
    assert np.array_equal(one.powers_lin, two.powers_lin)


def test_builtin_profile_shape():
    pdp = builtin_nlos_profile()
    assert len(pdp.taps) == 23
    assert pdp.taps[0] == (0.0, 0.0)          # zero-delay tap present
    assert all(p <= 0.0 for _, p in pdp.taps)  # relative powers
    # delays normalized to unit rms delay spread
    d = np.array([t[0] for t in pdp.taps])
    w = 10.0 ** (np.array([t[1] for t in pdp.taps]) / 10.0)
    w /= w.sum()
    mean = (w * d).sum()
    assert np.sqrt((w * d * d).sum() - mean**2) == pytest.approx(1.0, abs=0.01)


def test_resolve_builtin_tag():
    # The name comes from the bundled file's own "# name:" line.
    assert resolve_pdp(BUILTIN_NLOS).name == builtin_nlos_profile().name == "3gpp-nlos-tdl"


def test_presets_and_config_files_share_one_builtin_profile():
    # The bundled file is parsed once: a preset and a config's builtin tag
    # hold the same frozen profile object.
    from multiell.presets import scenario
    assert scenario("A").pdp is resolve_pdp(BUILTIN_NLOS) is builtin_nlos_profile()


@pytest.mark.parametrize("taps", [
    [[0, 0], [1.5, -3]],
    np.array([[0.0, 0.0], [1.5, -3.0]]),
    np.array([[0, 0], [1, -3]]),
    ((np.float32(0.0), np.int64(0)), (np.float64(1.5), np.array(-3.0))),
], ids=["lists", "float-array", "int-array", "numpy-numbers"])
def test_taps_are_kept_as_a_tuple_of_float_pairs(taps):
    # Taps given as lists or an array were kept as given, so the profile,
    # and every config holding it, could not be hashed.
    pdp = NormalizedPdp("x", taps)
    assert type(pdp.taps) is tuple
    assert all(type(tap) is tuple and len(tap) == 2 for tap in pdp.taps)
    assert all(type(x) is float for tap in pdp.taps for x in tap)
    assert pdp.taps == tuple((float(d), float(p)) for d, p in np.asarray(taps, dtype=float))
    assert hash(pdp) == hash(NormalizedPdp("x", pdp.taps))
