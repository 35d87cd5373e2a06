"""Certified digits, block statistics, Weyl sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalab import ifs_core, normality
from fractalab.ifs_core import (
    Enclosure,
    PreconditionError,
    aperiodic_125,
    cantor,
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
    den=st.one_of(st.integers(1, 60), st.integers(1, 10**15), st.sampled_from([1, 2**40, 3**20, 10**9])),
    base=st.sampled_from([2, 3, 7, 10]),
    n=st.integers(0, 120),
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


def test_digit_stream_head_respects_certification():
    s = _rational_stream(F(1, 7), 10, 20)
    assert s.head(6) == [1, 4, 2, 8, 5, 7]
    with pytest.raises(PreconditionError):
        s.head(21)


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
    # 2^n * 1/3 mod 1 alternates 1/3, 2/3: W_1 = mean e^{2 pi i x} = -1/2
    src = F(1, 3)
    stats = weyl_sums(src, 2, (1,), 1000)
    assert stats.orbit_period == 2
    w = stats.weyl[1]
    assert w.real == pytest.approx(-0.5, abs=1e-9)
    assert w.imag == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("x, base", [(F(2**62 - 1, 2**63), 2), (F(5, 17), 3)])
def test_weyl_sums_rational_digits_are_the_exact_digits(x, base):
    # 2^62 - 1 over 2^63 puts every orbit value within 2^-62 of a cell end
    n = 40
    exact = weyl_sums(x, base, (1,), n)
    ref = weyl_sums(_rational_stream(x, base, n + 13), base, (1,), n)
    assert exact.digit_counts == ref.digit_counts
    assert exact.block_counts == ref.block_counts


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
        stats = weyl_sums(stream, base, (1, 3, F(1, 2), 2.5), n)
        angles = _orbit_angles(stream.digits, base, n)
        phases = np.exp(2j * np.pi * angles)
        assert stats.weyl[1] == complex(np.mean(phases))
        assert stats.weyl[3] == complex(np.mean(phases**3))
        for q in (F(1, 2), 2.5):
            assert stats.weyl[q] == complex(np.mean(np.exp(2j * np.pi * float(q) * angles)))
        orbit_digits = stream.digits[1 : n + 1]
        assert stats.digit_counts == {d: orbit_digits.count(d) for d in set(orbit_digits)}


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: digits_of_sample(cantor(), HALF, 1, 10), "base"),
        (lambda: digits_of_sample(cantor(), HALF, 0, 10), "base"),
        (lambda: digits_of_sample(cantor(), HALF, -2, 10), "base"),
        (lambda: weyl_sums(F(1, 3), 1, (1,), 10), "base"),
        (lambda: weyl_sums(F(1, 3), 2, (1,), 0), "N"),
        (lambda: weyl_sums(_rational_stream(F(1, 3), 2, 40), 2, (1,), 0), "N"),
        (lambda: weyl_sums(F(1, 3), 2, (1,), -3), "N"),
    ],
    ids=["sample-base-1", "sample-base-0", "sample-base-neg", "weyl-base-1", "weyl-n-0",
         "weyl-stream-n-0", "weyl-n-neg"],
)
def test_base_below_2_and_n_below_1_are_rejected(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


def test_weyl_sums_modulus_bounds():
    stats = weyl_sums(F(5, 17), 3, (1, 2, 5), 500)
    for q, w in stats.weyl.items():
        assert abs(w) <= 1 + 1e-12
    # q = 0 would be the trivial sum; the orbit of a rational is periodic
    assert stats.orbit_period is not None
    assert stats.orbit_period <= 17


def test_weyl_sums_from_certified_digits():
    s = digits_of_sample(cantor(), HALF, 2, 80, rng_seed=2)
    stats = weyl_sums(s, 2, (1, 3), 40)
    assert set(stats.weyl) == {1, 3}
    for w in stats.weyl.values():
        assert abs(w) <= 1 + 1e-12
