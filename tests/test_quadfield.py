"""Exact quadratic-field arithmetic: a + b*sqrt(d) over the rationals."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalab.quadfield import QuadExact, golden_ratio_conjugate, is_exact


def q5(a, b):
    return QuadExact(Fraction(a), Fraction(b), 5)


def test_construction_and_float():
    x = q5(1, 1)
    assert abs(float(x) - (1 + 5**0.5)) < 1e-15
    assert float(q5(3, 0)) == 3.0


def test_ring_operations():
    x = q5(1, 2)
    y = q5(-3, Fraction(1, 2))
    assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-12)
    assert float(x - y) == pytest.approx(float(x) - float(y), abs=1e-12)
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-12)
    # (a + b sqrt5)(a - b sqrt5) = a^2 - 5 b^2 is rational
    conj_prod = x * q5(1, -2)
    assert conj_prod == QuadExact(Fraction(1 - 5 * 4), 0, 5)


def test_division_and_inverse():
    x = q5(2, 3)
    one = x / x
    assert one == QuadExact(1, 0, 5)
    y = q5(1, 1) / q5(0, 1)
    assert float(y) == pytest.approx((1 + 5**0.5) / 5**0.5, abs=1e-12)


def test_mixed_arithmetic_with_rationals():
    x = q5(1, 1)
    assert x + 1 == q5(2, 1)
    assert x * Fraction(1, 2) == q5(Fraction(1, 2), Fraction(1, 2))
    assert 2 - x == q5(1, -1)


def test_sign_is_exact_near_zero():
    # sqrt(5) - 161/72 is tiny (~6e-5) but its sign is determined exactly
    x = QuadExact(Fraction(-161, 72), 1, 5)
    assert x.sign() == (1 if 5**0.5 > 161 / 72 else -1)
    # a^2 = 5 b^2 never has rational solutions besides 0, so sign 0 <=> both 0
    assert QuadExact(0, 0, 5).sign() == 0
    assert QuadExact(Fraction(-9, 4), 1, 5).sign() == -1  # sqrt5 < 2.25
    assert QuadExact(Fraction(-29, 13), 1, 5).sign() == 1  # sqrt5 > 29/13


def test_comparisons():
    r = golden_ratio_conjugate()
    assert QuadExact(0, 0, 5) < r < QuadExact(1, 0, 5)
    assert r < Fraction(62, 100)
    assert r > Fraction(61, 100)


def test_pow_matches_repeated_multiplication():
    r = golden_ratio_conjugate()
    acc = QuadExact(1, 0, 5)
    for n in range(1, 8):
        acc = acc * r
        assert r**n == acc
    assert r**0 == QuadExact(1, 0, 5)


def test_negative_pow_is_inverse():
    r = golden_ratio_conjugate()
    assert r**-3 * r**3 == QuadExact(1, 0, 5)
    # golden ratio conjugate satisfies 1/r = r + 1
    assert r**-1 == r + 1


def test_golden_ratio_conjugate_identity():
    r = golden_ratio_conjugate()
    # r^2 + r - 1 = 0
    assert r * r + r - 1 == QuadExact(0, 0, 5)
    assert abs(float(r) - (5**0.5 - 1) / 2) < 1e-15


def test_float_is_within_one_ulp_of_a_300_digit_reference():
    # a + b*sqrt(5) cancels to r^k with |a|, |b| ~ phi^k: float(r**99) was 0.0
    r = golden_ratio_conjugate()
    for k in range(-40, 120):
        x = r**k
        ref = x.to_mpf(300)
        assert abs(mpmath.mpf(float(x)) - ref) <= math.ulp(float(ref)), k


def test_rational_bounds_enclose_value():
    r = golden_ratio_conjugate()
    for x in (r, r**7, r**-4, q5(Fraction(-3, 7), Fraction(2, 11))):
        lo, hi = x.rational_bounds()
        assert lo <= hi
        assert float(lo) <= float(x) <= float(hi)
        assert hi - lo < Fraction(1, 10**20)


def test_hash_consistent_with_equality():
    a = q5(Fraction(1, 2), Fraction(1, 3))
    b = QuadExact(Fraction(2, 4), Fraction(2, 6), 5)
    assert a == b
    assert hash(a) == hash(b)
    # rational QuadExact hashes like its Fraction value
    assert QuadExact(Fraction(3, 4), 0, 5) == Fraction(3, 4)


def test_exact_value_and_is_exact():
    assert is_exact(Fraction(1, 3))
    assert is_exact(q5(1, 1))
    assert not is_exact(0.5)


@settings(max_examples=200, deadline=None)
@given(
    a1=st.integers(-30, 30), b1=st.integers(-30, 30),
    a2=st.integers(-30, 30), b2=st.integers(-30, 30),
)
def test_arithmetic_matches_float_model(a1, b1, a2, b2):
    x, y = q5(a1, b1), q5(a2, b2)
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-9)
    assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)
    s = (x - y).sign()
    diff = float(x) - float(y)
    if abs(diff) > 1e-9:
        assert s == (1 if diff > 0 else -1)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-20, 20), b=st.integers(-20, 20))
def test_frac_part_matches_value(a, b):
    x = q5(a, b)
    f = float(x.frac_part_mpf(40))
    assert f == pytest.approx(float(x) - int(float(x) // 1), abs=1e-9)
