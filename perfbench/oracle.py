"""Reference values the benchmark checks fractalab's outputs against.

The Jessen-Wintner product: for the equal-ratio system {r x + t_i} with
weights p_i, the invariant measure has

    F_q = prod_{k >= 0} sum_i p_i e(q r^k t_i),        e(x) = exp(2 pi i x),

evaluated here in mpmath, independently of fractalab's word tree and
quadratic-field arithmetic.  Truncating after K factors leaves
F_q = P_K * F_{q r^K}, and |F_u - 1| <= 2 pi |u| M for a measure supported
in [-M, M], so K is chosen to make 2 pi |q| r^K M negligible.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DPS = 50


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def product_formula(ratio, translations, weights, q, tail=mpmath.mpf(10) ** -30):
    """F_q by the infinite product, to within `tail` plus rounding at DPS digits.

    ratio, translations and q are mpmath numbers or Fractions; the support
    bound M = max|t_i| / (1 - r) comes from the fixed points of the maps."""
    with mpmath.workdps(DPS):
        r = _mp(ratio)
        ts = [_mp(t) for t in translations]
        ps = [_mp(p) for p in weights]
        u = _mp(q)
        if u == 0:
            return mpmath.mpc(1)
        m = max(abs(t) for t in ts) / (1 - r)
        prod = mpmath.mpc(1)
        while 2 * mpmath.pi * abs(u) * m > tail:
            prod *= mpmath.fsum(p * mpmath.expjpi(2 * u * t) for p, t in zip(ps, ts))
            u *= r
        return prod


def golden_ratio():
    """r = (sqrt 5 - 1)/2 at DPS digits."""
    with mpmath.workdps(DPS):
        return (mpmath.sqrt(5) - 1) / 2


def golden_value(n):
    """F_{r^-n} of the golden Bernoulli convolution (maps r x -+ 1, weights 1/2)."""
    with mpmath.workdps(DPS):
        r = golden_ratio()
        return product_formula(r, (-1, 1), (0.5, 0.5), r ** (-n))


def phase(q, t):
    """e(q t) for exact rationals, reduced mod 1 exactly before rounding."""
    x = Fraction(q) * Fraction(t)
    frac = Fraction(x.numerator % x.denominator, x.denominator)
    with mpmath.workdps(DPS):
        return complex(mpmath.expjpi(2 * _mp(frac)))
