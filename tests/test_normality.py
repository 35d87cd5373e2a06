"""Certified digits, block statistics, Weyl sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalab import ifs_core, normality
from fractalab.ifs_core import (
    BUILTINS,
    Enclosure,
    ShortPrefixError,
    _draw_symbols,
    aperiodic_125,
    builtin,
    cantor,
    coding_point,
    smooth_example,
)
from fractalab.normality import (
    DigitExtractionError,
    DigitStream,
    digit_frequency_test,
    digits_of_sample,
    weyl_sums,
)

F = Fraction
HALF = (F(1, 2), F(1, 2))
W125 = (F(1, 2), F(1, 4), F(1, 4))


def test_rational_digit_streams():
    def digits(x, base, n):
        return normality._digits(normality._cell(x, base, n), base, n)

    assert digits(F(1, 3), 3, 10) == [1] + [0] * 9
    assert digits(F(1, 3), 2, 12) == [0, 1] * 6
    assert digits(F(22, 7), 10, 6) == [1, 4, 2, 8, 5, 7]


def _long_division(x, base, count):
    """First `count` digits of frac(x), one divmod of the remainder per digit."""
    x = Fraction(x)
    num, den = x.numerator % x.denominator, x.denominator
    digits = []
    for _ in range(count):
        d, num = divmod(num * base, den)
        digits.append(d)
    return digits


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(-(10**12), 10**12),
    den=st.one_of(st.integers(1, 60), st.integers(1, 10**15), st.sampled_from([1, 2**40, 3**20, 10**9]),
                  st.integers(1, 10**1500)),
    base=st.sampled_from([2, 3, 7, 10]),
    # above 128 digits _digits splits the cell; up to 5,000 digits it splits
    # up to six levels deep
    n=st.one_of(st.integers(0, 120), st.integers(121, 5000)),
)
def test_rational_digits_match_long_division(num, den, base, n):
    x = F(num, den)
    assert normality._digits(normality._cell(x, base, n), base, n) == _long_division(x, base, n)


def _rational_stream(x, base, n):
    """The exact stream of the first n digits of frac(x), by long division."""
    return DigitStream(base, _long_division(x, base, n), n)


def _certify(lo, hi, base, n):
    """digits_of_sample's verdict on the one enclosure [lo, hi]: the digits,
    or None when it would have to lengthen the prefix."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ifs_core, "coding_point", lambda ifs, prefix, need: Enclosure(lo, hi))
        try:
            return digits_of_sample(cantor(), HALF, base, n, max_extensions=0).digits
        except DigitExtractionError:
            return None


def _shared_digits(lo, hi, base, n):
    """Oracle: the first n digits of frac(x), if every x in [lo, hi] has them."""
    if math.floor(lo) != math.floor(hi):
        return None
    dlo = _long_division(lo, base, n)
    return dlo if dlo == _long_division(hi, base, n) else None


@pytest.mark.parametrize(
    "lo, hi, base, n, want",
    [
        (F(123, 1000), F(1239999, 10**7), 10, 3, [1, 2, 3]),  # lo on a cell boundary
        (F(1225, 10**4), F(124, 1000), 10, 3, None),  # hi on the next cell's boundary
        (F(124, 1000), F(124, 1000), 10, 3, [1, 2, 4]),  # lo = hi on a boundary
        (F(5, 17), F(5, 17), 3, 12, _long_division(F(5, 17), 3, 12)),  # lo = hi
        (F(9995, 10**4), F(10004, 10**4), 10, 3, None),  # straddles 1
        (F(3), F(3), 2, 5, [0] * 5),  # an integer
        (F(-2345, 10**4), F(-2341, 10**4), 10, 3, [7, 6, 5]),  # frac = 0.7655 .. 0.7659
        (F(-235, 1000), F(-2341, 10**4), 10, 3, [7, 6, 5]),  # negative lo on a boundary
        (F(-2345, 10**4), F(-234, 1000), 10, 3, None),  # negative hi on the next boundary
        (F(-10001, 10**4), F(-9999, 10**4), 10, 3, None),  # straddles -1
        (F(-1, 9), F(-1, 9), 3, 4, [2, 2, 0, 0]),  # frac = 8/9 = 0.22 in base 3
    ],
)
def test_certification_at_cell_edges(lo, hi, base, n, want):
    assert _shared_digits(lo, hi, base, n) == want
    assert _certify(lo, hi, base, n) == want


@settings(max_examples=200, deadline=None)
@given(
    cell=st.integers(-(3**12), 3**12),
    base=st.sampled_from([2, 3, 7, 10]),
    n=st.integers(1, 10),
    lo_off=st.integers(-2, 2),
    width=st.integers(0, 4),
    den=st.sampled_from([1, 2, 3, 1000]),
)
def test_certification_matches_shared_digits(cell, base, n, lo_off, width, den):
    # ends within a few 1/den-th of a cell width of a depth-n cell boundary
    lo = F(cell * den + lo_off, den * base**n)
    hi = lo + F(width, den * base**n)
    assert _certify(lo, hi, base, n) == _shared_digits(lo, hi, base, n)


def _guarded_coding_point(monkeypatch):
    """Patch coding_point to record each prefix it is given and each
    ShortPrefixError it raises; returns the (prefixes, raised) lists."""
    prefixes, raised = [], []

    def enclose(ifs, prefix, need):
        prefixes.append(list(prefix))
        try:
            return coding_point(ifs, prefix, need)
        except ShortPrefixError:
            raised.append(list(prefix))
            raise

    monkeypatch.setattr(ifs_core, "coding_point", enclose)
    return prefixes, raised


def _stream_prefix(ifs, w, seed, length):
    """The first `length` 1-based symbols of the seed's stream."""
    return (_draw_symbols(ifs, w, np.random.default_rng(seed), length) + 1).tolist()


def test_digits_of_sample_prefixes_are_long_enough_and_drawn(monkeypatch):
    # coding_point appends nothing: every prefix the sampler passes is the
    # stream's own, the last one certifies, and none of these is too short
    prefixes, raised = _guarded_coding_point(monkeypatch)
    for name in BUILTINS:
        ifs, w = builtin(name)
        for base in (2, 3, 10):
            for n in (1, 2, 5, 8, 40):
                for seed in (0, 1):
                    prefixes.clear()
                    stream = digits_of_sample(ifs, w, base, n, rng_seed=seed)
                    assert stream.prefix_len == len(prefixes[-1])
                    for prefix in prefixes:
                        assert prefix == _stream_prefix(ifs, w, seed, len(prefix))
    assert raised == []


@pytest.mark.parametrize("n, seed", [(0, 45), (1, 333), (2, 415)])
def test_digits_of_sample_draws_past_a_prefix_that_is_too_short(monkeypatch, n, seed):
    # moebius-example's weakest map, (x+2)/3, contracts by exactly 1/3, so a
    # drawn prefix of that map alone is exactly as wide as 3^-(n+8) and the
    # float log rule calls it too wide; the sampler then draws the stream's
    # next symbol instead of repeating one
    ifs, w = builtin("moebius-example")
    prefixes, raised = _guarded_coding_point(monkeypatch)
    stream = digits_of_sample(ifs, w, 3, n, rng_seed=seed)
    assert raised and set(raised[0]) == {2} and len(raised[0]) == n + 8
    word = _stream_prefix(ifs, w, seed, stream.prefix_len)
    assert prefixes[-1] == word
    x = F(0)  # a point of the certified cylinder, exact
    for s in reversed(word):
        x = ifs_core._exact_image(ifs.maps[s - 1], x)
    assert stream.digits == normality._digits(normality._cell(x, 3, n), 3, n)


def test_cantor_samples_avoid_middle_digit():
    for seed in range(10):
        s = digits_of_sample(cantor(), HALF, 3, 60, rng_seed=seed)
        assert set(s.digits) <= {0, 2}
        assert s.certified_upto == 60


def test_certified_digits_stable_under_doubling():
    for ifs, p in ((cantor(), HALF), (aperiodic_125(), W125), (smooth_example(), HALF)):
        for base in (2, 3, 10):
            a = digits_of_sample(ifs, p, base, 48, rng_seed=4)
            b = digits_of_sample(ifs, p, base, 96, rng_seed=4)
            assert b.digits[:48] == a.digits


def test_digit_frequency_chi2_uniform_reference():
    # exact digits of 1/7 in base 10 repeat with period 6 and hit six digits
    # uniformly: the single-digit chi-square should not reject violently
    s = _rational_stream(F(1, 7), 10, 6000)
    rep = digit_frequency_test(s, 6000, block_len=1)
    assert rep.base == 10
    assert len(rep.blocks) == 1
    assert rep.blocks[0].dof == 9
    # and base-2 digits of a Cantor sample look uniform
    c = digits_of_sample(cantor(), HALF, 2, 2048, rng_seed=0)
    rep = digit_frequency_test(c, 2048, block_len=3)
    assert rep.min_p_value > 1e-3


def test_digit_frequency_rejects_skewed_stream():
    s = _rational_stream(F(1, 3), 3, 4096)  # digits 1,0,0,... then zeros
    rep = digit_frequency_test(s, 4096, block_len=1)
    assert rep.min_p_value < 1e-10


def test_weyl_sums_periodic_rational():
    # 2^n * 1/3 mod 1 alternates 1/3, 2/3: W_1 = mean e^{2 pi i x} = -1/2;
    # 40 digits past N give every orbit value its full 40 digits
    stats = weyl_sums(_rational_stream(F(1, 3), 2, 1040), 2, (1,), 1000)
    w = stats.weyl[1]
    assert w.real == pytest.approx(-0.5, abs=1e-9)
    assert w.imag == pytest.approx(0.0, abs=1e-9)


def _orbit_angles(digits, base, n):
    """T^m x ~ 0.d_{m+1} ... d_{m+40} for m = 1..n, one value at a time."""
    angles = np.empty(n)
    for m in range(1, n + 1):
        v = 0.0
        scale = 1.0
        for j in range(m, min(m + 40, len(digits))):
            scale /= base
            v += digits[j] * scale
        angles[m - 1] = v
    return angles


@pytest.mark.parametrize(
    "make_stream",
    [
        lambda: digits_of_sample(cantor(), HALF, 2, 300, rng_seed=5),
        lambda: digits_of_sample(smooth_example(), HALF, 3, 200, rng_seed=1),
        lambda: _rational_stream(F(-22, 7), 10, 90),
    ],
    ids=["cantor-b2", "smooth-b3", "rational-b10"],
)
def test_weyl_sums_of_a_stream_match_the_per_value_orbit(make_stream):
    stream = make_stream()
    base = stream.base
    # n + 12 = certified_upto: the last 28 values run past the stream's end
    for n in (stream.certified_upto - 12, 30):
        stats = weyl_sums(stream, base, (1, 3), n)
        angles = _orbit_angles(stream.digits, base, n)
        phases = np.exp(2j * np.pi * angles)
        assert stats.weyl[1] == complex(np.mean(phases))
        assert stats.weyl[3] == complex(np.mean(phases**3))


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: digits_of_sample(cantor(), HALF, 1, 10), "base"),
        (lambda: digits_of_sample(cantor(), HALF, 0, 10), "base"),
        (lambda: digits_of_sample(cantor(), HALF, -2, 10), "base"),
        (lambda: weyl_sums(_stream_40(), 1, (1,), 10), "base"),
        (lambda: weyl_sums(_stream_40(), 2, (1,), 0), "N"),
        (lambda: weyl_sums(_rational_stream(F(1, 3), 2, 40), 2, (1,), 0), "N"),
        (lambda: weyl_sums(_stream_40(), 2, (1,), -3), "N"),
    ],
    ids=["sample-base-1", "sample-base-0", "sample-base-neg", "weyl-base-1", "weyl-n-0",
         "weyl-stream-n-0", "weyl-n-neg"],
)
def test_base_below_2_and_n_below_1_are_rejected(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


@pytest.mark.parametrize(
    "base, n_digits, needle",
    [(2.0, 10, "base"), (True, 10, "base"), (2, -5, "n_digits"), (2, 10.0, "n_digits"), (2, None, "n_digits")],
    ids=["base-float", "base-bool", "n-negative", "n-float", "n-none"],
)
def test_digits_of_sample_names_a_bad_base_or_digit_count(base, n_digits, needle):
    with pytest.raises(ValueError, match=needle):
        digits_of_sample(cantor(), HALF, base, n_digits)


@pytest.mark.parametrize("max_extensions", [-1, 2.5, True, None])
def test_digits_of_sample_names_a_bad_extension_budget(max_extensions):
    # -1 used to raise DigitExtractionError without one attempt, 2.5 a bare TypeError
    with pytest.raises(ValueError, match="max_extensions"):
        digits_of_sample(cantor(), HALF, 2, 10, max_extensions=max_extensions)


def _stream_40():
    return _rational_stream(F(1, 3), 2, 40)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: weyl_sums(_stream_40(), 2.0, (1,), 10), "^base must be an int"),
        (lambda: weyl_sums(_stream_40(), True, (1,), 10), "^base must be an int"),
        (lambda: weyl_sums(_stream_40(), 2, (1,), 10.0), "^N must be an int"),
        (lambda: weyl_sums(_stream_40(), 2, (1,), 10.5), "^N must be an int"),
        (lambda: weyl_sums(_stream_40(), 2, (1,), 10.5), "^N must be an int"),
        (lambda: weyl_sums(_stream_40(), 2, (1,), True), "^N must be an int"),
        (lambda: weyl_sums(_stream_40(), 2, (1, F(1, 2)), 10), "^q must be an integer frequency"),
        (lambda: digit_frequency_test(_stream_40(), 20.0, 2), "^need ints 1 <= block_len <= N"),
        (lambda: digit_frequency_test(_stream_40(), True, 1), "^need ints 1 <= block_len <= N"),
        (lambda: digit_frequency_test(_stream_40(), 20, 2.0), "^need ints 1 <= block_len <= N"),
        (lambda: digit_frequency_test(_stream_40(), 20, True), "^need ints 1 <= block_len <= N"),
    ],
    ids=["weyl-base-float", "weyl-base-bool", "weyl-n-float", "weyl-n-fraction", "weyl-stream-n-fraction",
         "weyl-n-bool", "weyl-q-fraction", "chi2-n-float", "chi2-n-bool", "chi2-block-float", "chi2-block-bool"],
)
def test_non_int_base_n_and_block_len_are_named(call, needle):
    # a float or bool here once gave float digit counts, or a TypeError from
    # slicing, instead of a ValueError naming the parameter
    with pytest.raises(ValueError, match=needle):
        call()


def test_weyl_sums_modulus_bounds():
    stats = weyl_sums(_rational_stream(F(5, 17), 3, 512), 3, (1, 2, 5), 500)
    for q, w in stats.weyl.items():
        assert abs(w) <= 1 + 1e-12


def test_weyl_sums_take_only_a_digit_stream():
    with pytest.raises(TypeError, match="DigitStream"):
        weyl_sums(F(1, 3), 2, (1,), 10)


def test_weyl_sums_from_certified_digits():
    s = digits_of_sample(cantor(), HALF, 2, 80, rng_seed=2)
    stats = weyl_sums(s, 2, (1, 3), 40)
    assert set(stats.weyl) == {1, 3}
    for w in stats.weyl.values():
        assert abs(w) <= 1 + 1e-12
