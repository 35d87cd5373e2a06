"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Contraction ratios like the golden-ratio Bernoulli convolution's
r = (sqrt(5)-1)/2 are irrational, but frequencies q = r^{-n} must be
represented exactly: the non-decay phenomenon at Pisot scales is invisible
once q drifts by a floating-point epsilon.  A QuadExact value a + b*sqrt(d)
with rational a, b supports the ring operations needed for ratio products,
frequency powers and affine images.  Floats and certified rational bounds
come from one fixed-point reduction in integers (_ratio, via isqrt), which
no cancellation between a and b*sqrt(d) can spoil; mpmath conversions at an
explicit working precision remain for callers that want them.  The integer
triple (a + b*sqrt(d))/den (_triple) is the integer form the word-tree and
word-composition engines share.  Their inner loops write its product out
(fourier._ScaleGraph.grow, ifs_core._compose_forms); _times serves the
products made once per call, such as an exact q times each translation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt, lcm

import mpmath

_FIX_BITS = 128  # fractional bits of fixed-point phases and bounds


@cache
def _square_free(d):
    """(s, d0) with d = s^2 * d0 and d0 > 1 square-free; ValueError unless d
    is an integer > 1 and no square.  Trial division runs only while p^3 <= the
    cofactor c left by the smaller primes: then c has at most two prime factors,
    each above its cube root, and is square-free unless one isqrt finds a square."""
    s, d0, c, p = 1, 1, d, 2
    while p * p * p <= c:
        while c % (p * p) == 0:
            c //= p * p
            s *= p
        if c % p == 0:
            c //= p
            d0 *= p
        p += 1
    root = isqrt(max(c, 0))
    s, d0 = (s * root, d0) if root * root == c else (s, d0 * c)
    if d0 <= 1:
        raise ValueError("d must be a non-square integer > 1")
    return s, d0


class QuadExact:
    """a + b*sqrt(d) with Fraction coefficients; d a non-square > 1, kept
    square-free, so that one number of one field has one writing."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=5):
        s, self.d = _square_free(d)
        self.a = Fraction(a)
        self.b = Fraction(b) * s if s != 1 else Fraction(b)

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadExact):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExact(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExact(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExact(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExact(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExact(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("zero norm")
        return QuadExact(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExact(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons (exact, via sign of a + b*sqrt(d)) ------------------

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        # a + b*sqrt(d): compare a^2 vs d*b^2 with the signs of a, b
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs = a * a
        rhs = self.d * b * b
        if a > 0:  # b < 0: sign of a^2 - d b^2
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- conversions -----------------------------------------------------

    def to_mpf(self, dps=50):
        with mpmath.workdps(dps):
            return mpmath.mpf(self.a.numerator) / self.a.denominator + (
                mpmath.mpf(self.b.numerator) / self.b.denominator
            ) * mpmath.sqrt(self.d)

    def __float__(self):
        return _to_float(_triple(self), self.d)

    def rational_bounds(self, rel=Fraction(1, 10**30)):
        """Certified Fraction pair lo <= self <= hi with hi - lo <= rel."""
        rel = Fraction(rel)
        return _bounds(self, (rel.denominator // rel.numerator).bit_length())

    def frac_part_mpf(self, dps=60):
        """self mod 1 as an mpf at the given precision (for phases)."""
        with mpmath.workdps(dps):
            v = self.to_mpf(dps)
            return v - mpmath.floor(v)

    def __repr__(self):
        if self.b == 0:
            return f"QuadExact({self.a})"
        return f"QuadExact({self.a} + {self.b}*sqrt({self.d}))"


def _triple(x):
    """Exact x (int, Fraction or QuadExact) as the normalised integer triple
    (a, b, den) with x = (a + b*sqrt(d))/den, den > 0, gcd(a, b, den) = 1."""
    a, b = (x.a, x.b) if isinstance(x, QuadExact) else (Fraction(x), Fraction(0))
    den = lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _field(values):
    """The d of the one quadratic field holding all values; 0 if all are
    rational."""
    fields = {x.d for x in values if isinstance(x, QuadExact)}
    if len(fields) > 1:
        raise ValueError("mixed quadratic fields")
    return fields.pop() if fields else 0


def _times(x, y, d):
    """Product of two triples in Q(sqrt d), not normalised."""
    a, b, e = x
    c, f, g = y
    return a * c + d * b * f, a * f + b * c, e * g


def _ratio(x, d, bits=_FIX_BITS):
    """A triple as integers num/den: exact when b = 0, else with
    num = a*2^bits + trunc(b*sqrt(d)*2^bits), so x*den lies strictly between
    num and num + sign(b)."""
    a, b, den = x
    if not b:
        return a, den
    root = isqrt(d * b * b << 2 * bits)
    return (a << bits) + (root if b > 0 else -root), den << bits


def _fixed(x, d):
    """`_ratio`'s num/den, with the precision raised until num has 64 bits."""
    num, den = _ratio(x, d)
    bits = _FIX_BITS
    while x[1] and num.bit_length() <= 64:
        bits *= 2
        num, den = _ratio(x, d, bits)
    return num, den


def _to_float(x, d):
    """A triple as a float, within one ulp (`_fixed`)."""
    num, den = _fixed(x, d)
    return num / den


def _bounds(x, bits):
    """Fractions lo <= x <= hi with hi - lo <= 2^-bits for an exact x; a
    rational x is its own bound."""
    if not isinstance(x, QuadExact):
        return Fraction(x), Fraction(x)
    t = _triple(x)
    num, den = _ratio(t, x.d, bits)
    return Fraction(num - (t[1] < 0), den), Fraction(num + (t[1] > 0), den)


def is_exact(x):
    return isinstance(x, (int, Fraction, QuadExact))


def golden_ratio_conjugate():
    """(sqrt(5) - 1)/2, the contraction ratio 1/phi."""
    return QuadExact(Fraction(-1, 2), Fraction(1, 2), 5)
