"""Iterated function systems on a compact interval.

Maps are either exact affine contractions (rational or quadratic-field
ratio/translation) or smooth maps drawn from a small parametric catalog
(quadratic perturbations of affine maps, Moebius maps), each declaring
bounds on |f'| over the ambient interval.  Every map is also f = P/Q with
exact coefficient lists num and den, constant term first.  An Ifs derives
once what the engines read: each map's walk step and, for an affine
system, its field, integer forms and integer triples (see Ifs).

Affine arithmetic is exact.  A word of affine maps is composed as integer
maps x -> ((ra + rb*sqrt(d))*x + ta + tb*sqrt(d))/c (d = 0 for rational
systems), adjacent pairs round by round, and reduced to Fractions or
QuadExact values once at the end (binary splitting, as in Haible and
Papanikolaou's evaluation of rational series).  Coding-point enclosures of
quadratic-field points are bounded in integers by isqrt, so they are
certified at any width.

Systems with a smooth map are enclosed in integer fixed point: P/Q is
evaluated by integer Horner at X/2^K and rounded outward, which is interval
arithmetic with directed rounding (Moore, Kearfott and Cloud, 2009).  A word
of L symbols is applied innermost first on grids that coarsen inward:
symbol j, counted from the outside, on K_j = K + g - (j-1) log2(1/rho) bits
rounded up to a multiple of 64, with rho = sup|f'| and g = bit_length(L) + 1.
The rounding of symbol j reaches the result scaled by at most rho^(j-1), so
each end of the enclosure moves by at most (L+1) 2^(-K-g) <= 2^(-K-1), the
rounding of I's ends included.  Every step rounds outward, so containment does not
depend on the grids.

Symbol matrices (walks, Monte Carlo samples) are drawn in the row chunks of
_row_chunks, in the random stream of one big draw, and pulled back in floats:
a smooth system's maps in one column kernel, _column_maps; affine systems
gather each row's ratio and translation by symbol (see _pull_back).

Conventions: a word eta = (eta_1, ..., eta_m) over the alphabet {1..n}
composes left-to-right as f_eta = f_{eta_1} o ... o f_{eta_m}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from math import lcm

import mpmath
import numpy as np

from .quadfield import _FIX_BITS, QuadExact, _bounds, _field, _times, _triple, is_exact


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these inputs."""


class ShortPrefixError(PreconditionError):
    """coding_point's prefix has a cylinder too wide for the target width."""


def _exact(x):
    return x if isinstance(x, QuadExact) else Fraction(x)


class Enclosure:
    """Certified interval [lo, hi] (exact rationals) containing a real."""

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("enclosure with lo > hi")
        self.lo = lo
        self.hi = hi
        self.prefix_extended = 0  # always 0: coding_point appends no symbols; perfbench's hook reads it

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    def serialize(self):
        w = self.width
        digits = 3 if w == 0 else max(3, 2 - math.floor(math.log10(float(w) or 1e-300)))
        mid = mpmath.mpf(self.mid.numerator) / self.mid.denominator
        return f"{mpmath.nstr(mid, digits)} width={mpmath.nstr(mpmath.mpf(float(w)), 3)}"

    def __repr__(self):
        return f"Enclosure({self.serialize()})"


class AffineMap:
    """x -> r*x + t with exact ratio and translation."""

    kind = "affine"

    def __init__(self, ratio, translation):
        if not is_exact(ratio) or not is_exact(translation):
            raise TypeError("affine maps take exact rational/quadratic data")
        self.ratio = _exact(ratio)
        self.translation = _exact(translation)
        self.num = (self.translation, self.ratio)  # f = P/Q, constant term first

    def __call__(self, x):
        if isinstance(x, (np.ndarray, float, np.floating)):
            return float(self.ratio) * x + float(self.translation)
        return self.ratio * x + self.translation

    def deriv(self, x=None):
        return self.ratio

    den = (1,)

    def deriv_range(self):
        """|r| as the nearest float, not rounded outward: it gives the walk step
        -log|r| that chi is summed from, and equal-ratio walk lengths are ceilings
        of exact integers, so moving D alone by one ulp could change the draws."""
        r = float(abs(self.ratio))
        return r, r

    def compose(self, other):
        """self o other, exact."""
        return AffineMap(
            self.ratio * other.ratio, self.ratio * other.translation + self.translation
        )

    def __eq__(self, other):
        return (
            isinstance(other, AffineMap)
            and self.ratio == other.ratio
            and self.translation == other.translation
        )

    def __repr__(self):
        return f"AffineMap(r={self.ratio}, t={self.translation})"


IDENTITY = AffineMap(1, 0)  # only legal as an empty composition, never inside an Ifs


class SmoothMap:
    """Catalog smooth contraction f = P/Q with declared derivative bounds.

    num and den are P's and Q's exact coefficients, constant term first, for
    certified enclosures; f and df are float evaluators of f and f'.
    (dmin, dmax) bound |f'| over the ambient interval; the walk steps and
    Ifs.deriv_bounds are derived from them.
    """

    kind = "smooth"

    def __init__(self, name, f, df, num, den, dmin, dmax):
        self.name = name
        self._f = f
        self._df = df
        self.num = tuple(_exact(c) for c in num)
        self.den = tuple(_exact(c) for c in den)
        self.dmin = float(dmin)
        self.dmax = float(dmax)
        if not 0 < self.dmin <= self.dmax < 1:
            raise ValueError("smooth map must satisfy 0 < inf|f'| <= sup|f'| < 1")

    def __call__(self, x):
        return self._f(x)

    def deriv(self, x):
        return self._df(x)

    def deriv_range(self):
        return self.dmin, self.dmax

    def __repr__(self):
        return f"SmoothMap({self.name})"


def _outward(lo, hi):
    """The float nearest lo at or below it, and the float nearest hi at or above it."""
    a, b = float(lo), float(hi)
    return math.nextafter(a, -math.inf) if a > lo else a, math.nextafter(b, math.inf) if b < hi else b


def quadratic_map(r, t, a, interval):
    """f(x) = r*x + t + a*x^2 on the given interval; f' is monotone, so |f'|
    is bounded by its exact values at the ends of I, rounded outward."""
    rf, tf, af = float(r), float(t), float(a)
    d_ends = [Fraction(r) + 2 * Fraction(a) * Fraction(x) for x in interval]
    if min(d_ends) <= 0:
        raise ValueError("catalog quadratic maps must keep f' positive")
    dmin, dmax = _outward(min(d_ends), max(d_ends))
    return SmoothMap(
        name=f"quadratic(r={r}, t={t}, a={a})",
        f=lambda x: rf * x + tf + af * x * x,
        df=lambda x: rf + 2 * af * x,
        num=(t, r, a),
        den=(1,),
        dmin=dmin,
        dmax=dmax,
    )


def moebius_map(a, b, c, d, interval):
    """f(x) = (a*x + b)/(c*x + d); the denominator must avoid 0 on I, so |f'| is
    monotone there and is bounded by its exact values at the ends, rounded outward."""
    num, den = (b, a), (d, c)
    dens = [Fraction(c) * Fraction(x) + Fraction(d) for x in interval]
    if min(dens) * max(dens) <= 0:
        raise ValueError("Moebius pole inside the interval")
    det_abs = abs(Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c))
    dmin, dmax = _outward(det_abs / max(x * x for x in dens), det_abs / min(x * x for x in dens))
    a, b, c, d = map(float, (a, b, c, d))
    det = a * d - b * c

    def f(x):
        return (a * x + b) / (c * x + d)

    def df(x):
        return det / (c * x + d) ** 2

    return SmoothMap(
        name=f"moebius({a},{b},{c},{d})",
        f=f,
        df=df,
        num=num,
        den=den,
        dmin=dmin,
        dmax=dmax,
    )


class WeightVector(tuple):
    """Strictly positive exact probability vector over the maps."""

    def __new__(cls, entries):
        vals = tuple(Fraction(e) for e in entries)
        if any(v <= 0 for v in vals):
            raise ValueError("weights must be strictly positive")
        if sum(vals) != 1:
            raise ValueError("weights must sum to exactly 1")
        return super().__new__(cls, vals)

    @classmethod
    def uniform(cls, n):
        return cls([Fraction(1, n)] * n)


class Ifs:
    """Ordered contractions of a compact ambient interval I = [a, b].

    Derived once at construction: steps, -log sup|f_i'| per map (read-only);
    big_d D and big_d_prime D', with deriv_bounds() = (e^{-D'}, e^{-D}) the
    (inf, sup) of |f'| over all maps and x in I; and width_float.  For an
    affine system also field, the d of the Q(sqrt d) of every ratio,
    translation and end of I (0 if all are rational), forms, the integer
    forms (ra, rb, ta, tb, c) with f_i(x) = ((ra + rb*sqrt d)*x + ta + tb*sqrt
    d)/c, and the integer triples (a, b, den) ratio_triples,
    translation_triples and centre_triple; these five are None with a smooth map.
    For a system with a smooth map and rational data, polys holds each map's
    integer coefficient lists and direction (see _int_poly); None otherwise.
    """

    def __init__(self, maps, interval, name=None):
        if len(maps) < 2:
            raise ValueError("an IFS needs at least two maps")
        self.maps = list(maps)
        lo, hi = interval
        self.interval = (_exact(lo), _exact(hi))
        if not self.interval[0] < self.interval[1]:
            raise ValueError("degenerate ambient interval")
        self.name = name or "ifs"
        self._validate()
        ranges = [m.deriv_range() for m in self.maps]
        self.steps = np.array([-math.log(hi) for _, hi in ranges])
        self.steps.flags.writeable = False
        self._deriv_bounds = (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))
        self.big_d = -math.log(self._deriv_bounds[1])
        self.big_d_prime = -math.log(self._deriv_bounds[0])
        self.width_float = float(self.interval_width())
        self.field = self.forms = self.ratio_triples = self.translation_triples = self.centre_triple = None
        self.polys = None
        if not self.is_affine:
            data = [*self.interval] + [c for m in self.maps for c in (*m.num, *m.den)]
            if not any(isinstance(c, QuadExact) for c in data):
                self.polys = tuple(_int_poly(m, self.interval) for m in self.maps)
            return
        self.field = _field((*self.ratios, *self.translations, *self.interval))
        self.ratio_triples = tuple(_triple(r) for r in self.ratios)
        self.translation_triples = tuple(_triple(t) for t in self.translations)
        self.centre_triple = _triple(self.interval_mid())
        forms = []
        for (ra, rb, rc), (ta, tb, tc) in zip(self.ratio_triples, self.translation_triples):
            c = lcm(rc, tc)
            forms.append((ra * (c // rc), rb * (c // rc), ta * (c // tc), tb * (c // tc), c))
        self.forms = tuple(forms)

    # -- basic structure --------------------------------------------------

    @property
    def n(self):
        return len(self.maps)

    @property
    def is_affine(self):
        return all(m.kind == "affine" for m in self.maps)

    @property
    def ratios(self):
        return [m.ratio for m in self.maps]

    @property
    def translations(self):
        return [m.translation for m in self.maps]

    def interval_width(self):
        return self.interval[1] - self.interval[0]

    def interval_mid(self):
        lo, hi = self.interval
        return (lo + hi) / 2

    def deriv_bounds(self):
        """(e^{-D'}, e^{-D}) = (inf, sup) of |f'| over all maps and x in I."""
        return self._deriv_bounds

    def _validate(self):
        lo, hi = self.interval
        for i, m in enumerate(self.maps, start=1):
            dmin, dmax = m.deriv_range()
            if not 0 < dmin <= dmax < 1:
                raise ValueError(f"map {i} is not a contraction with f' bounded away from 0")
            # m is monotone on I; an affine map's call is already exact
            img = sorted(m(x) if m.kind == "affine" else _exact_image(m, x) for x in (lo, hi))
            if img[0] < lo or img[1] > hi:
                raise ValueError(f"map {i} does not map I into I")
        polys = [_fixed_poly(m) for m in self.maps]
        # a map of least degree has an exact fixed point; every map is tested at it
        x = _fixed_point(self.maps[min(range(self.n), key=lambda i: len(polys[i]))], lo)
        if all(_is_root(f, x) for f in polys):
            raise ValueError("all maps share one fixed point; the attractor is a single point")

    def __repr__(self):
        return f"Ifs({self.name}, n={self.n})"


def _horner(cs, x):
    """sum(c * x**i) over the coefficients cs, constant term first."""
    v = cs[-1]
    for c in reversed(cs[:-1]):
        v = v * x + c
    return v


def _exact_image(m, x):
    """m(x) = P(x)/Q(x) in exact arithmetic."""
    return _horner(m.num, x) / _horner(m.den, x)


def _fixed_poly(m):
    """P - x*Q for m = P/Q, constant term first: its roots are m's fixed points."""
    f = [p - q for p, q in zip_longest(m.num, (0, *m.den), fillvalue=0)]
    while f and f[-1] == 0:
        f.pop()
    if not 2 <= len(f) <= 3:
        raise PreconditionError(f"{m}: P - x*Q has degree {len(f) - 1}; exact fixed points need 1 or 2")
    return f


def _fixed_point(m, lo):
    """m's fixed point in I = [lo, hi], exact, for P - x*Q linear or quadratic
    with rational coefficients.  Of the roots (-c1 +- sqrt(disc)) / 2c2, it is
    the one where the slope c1 + 2c2 x = +-sqrt(disc), which is Q(x) (f'(x) - 1)
    there, has the sign of -Q on I, as |f'| < 1."""
    f = _fixed_poly(m)
    if len(f) == 2:
        return -f[0] / f[1]
    c0, c1, c2 = f
    if any(isinstance(c, QuadExact) for c in f):
        raise PreconditionError(f"the fixed point of {m} need not lie in a quadratic field")
    disc = Fraction(c1 * c1 - 4 * c0 * c2)
    k, n = Fraction(1, disc.denominator), disc.numerator * disc.denominator  # sqrt(disc) = k sqrt(n)
    for p in range(2, 100):  # small squares out of n, so that sqrt(8) is 2 sqrt(2)
        while n and n % (p * p) == 0:
            k, n = k * p, n // (p * p)
    root = k * math.isqrt(n) if math.isqrt(n) ** 2 == n else QuadExact(0, k, n)
    return (-c1 - root if _horner(m.den, lo) > 0 else -c1 + root) / (2 * c2)


def _is_root(f, x):
    """Whether the exact x is a root of f, whose coefficients lie in Q or in
    one Q(sqrt e), x's field or another: f = A + sqrt(e) B with rational A and
    B, and f(x) = 0 exactly when A(x) = B(x) = 0 or -A(x)/B(x) = sqrt(e)."""
    quad = [c for c in f if isinstance(c, QuadExact)]
    a = _horner([c.a if isinstance(c, QuadExact) else c for c in f], x)
    b = _horner([c.b if isinstance(c, QuadExact) else 0 for c in f], x) if quad else 0
    if b == 0:
        return a == 0
    y = -a / b
    return y > 0 and y * y == quad[0].d


def validate_word(ifs, eta):
    eta, n = tuple(eta), ifs.n
    for s in eta:
        if not (isinstance(s, int) and 1 <= s <= n):
            raise ValueError(f"symbol {s!r} out of range 1..{n}")
    return eta


# -- operations ------------------------------------------------------------


def _compose_forms(f, g, d):
    """f o g for integer forms: ratio Rf Rg and translation Rf Tg + cg Tf,
    over cf cg.  One flat tuple per map keeps the word's forms small."""
    fa, fb, fs, ft, fc = f
    ga, gb, gs, gt, gc = g
    ra, rb, c = _times((fa, fb, fc), (ga, gb, gc), d)
    ta, tb, _ = _times((fa, fb, 1), (gs, gt, 1), d)
    return ra, rb, ta + gc * fs, tb + gc * ft, c


def _compose_affine(ifs, eta):
    """f_eta for a validated word of length >= 2 over affine maps.

    The word's maps are the system's integer forms (Ifs.forms); adjacent
    pairs are composed round by round (_compose_forms) with products in
    Q(sqrt d) and no gcd, so a word of length m costs O(log m) rounds of
    big-integer products.  The result is reduced once and has the
    coefficient types of the left fold of AffineMap.compose.
    """
    used = {s: ifs.maps[s - 1] for s in set(eta)}
    d = ifs.field
    maps = [ifs.forms[s - 1] for s in eta]
    while len(maps) > 1:
        # a loop, not a recursive closure: no reference cycle keeps the
        # word's integer maps alive until the next full collection
        odd = maps[-1:] if len(maps) % 2 else []
        maps = [_compose_forms(f, g, d) for f, g in zip(maps[::2], maps[1::2])] + odd
    ra, rb, ta, tb, c = maps[0]
    # the fold is in Q(sqrt d) once a factor is: the ratio if any ratio is,
    # the translation if any translation or any ratio but the last one is
    quad_r = {s for s, m in used.items() if isinstance(m.ratio, QuadExact)}
    quad_t = any(isinstance(m.translation, QuadExact) for m in used.values()) or (
        quad_r and not quad_r.isdisjoint(eta[:-1])
    )
    ratio = QuadExact(Fraction(ra, c), Fraction(rb, c), d) if quad_r else Fraction(ra, c)
    translation = QuadExact(Fraction(ta, c), Fraction(tb, c), d) if quad_t else Fraction(ta, c)
    return AffineMap(ratio, translation)


def compose_word(ifs, eta):
    """f_eta = f_{eta_1} o ... o f_{eta_m}, exact; affine systems only."""
    if not ifs.is_affine:
        raise PreconditionError("composing a word needs an affine IFS")
    eta = validate_word(ifs, eta)
    if not eta:
        return IDENTITY
    if len(eta) == 1:
        return ifs.maps[eta[0] - 1]
    return _compose_affine(ifs, eta)


def _int_poly(m, interval):
    """(ps, qs, up) for the map m = P/Q on the interval: the integer
    coefficients of s*P and s*Q, highest power first, for the least s that
    clears their denominators, and whether m increases there."""
    scale = lcm(*(c.denominator for c in (*m.num, *m.den)))
    ps, qs = ([int(c * scale) for c in reversed(cs)] for cs in (m.num, m.den))
    lo, hi = interval
    return ps, qs, _exact_image(m, lo) < _exact_image(m, hi)


def _polys(ifs):
    """Ifs.polys, which fixed-point enclosures need; None means quadratic-field data."""
    if ifs.polys is None:
        raise PreconditionError("smooth-system enclosures need rational coefficients and "
                                "interval ends, not quadratic-field ones")
    return ifs.polys


def _fixed_point_maps(ifs, bits):
    """Each map's (ps, qs, lshift, rshift, up) on the grid 2^-bits, and the
    ends of I rounded outward to that grid.

    Coefficient i of Ifs.polys, counted from the highest power, is shifted
    left by bits*i, so that Horner at X gives s*P(x) and s*Q(x) at x = X/2^bits
    times 2^(bits*deg); then 2^bits * P/Q is (hp << lshift >> rshift) / hq.
    """
    maps = []
    for ps, qs, up in _polys(ifs):
        shift = bits * (len(ps) - len(qs) - 1)
        maps.append(([c << bits * i for i, c in enumerate(ps)], [c << bits * i for i, c in enumerate(qs)],
                     max(-shift, 0), max(shift, 0), up))
    (a, b), (c, d) = (x.as_integer_ratio() for x in ifs.interval)
    return maps, ((a << bits) // b, -((-c << bits) // d))


def _hull_steps(maps, ends, word, lo, hi):
    """Fixed-point hull of f_word([lo, hi]) on the grid of maps, innermost
    symbol first.  Each map is monotone on I, so its image of [lo, hi] runs
    from the floor of its value at one end to the ceiling of its value at the
    other; Horner is exact, and the image lies in I."""
    e0, e1 = ends
    for s in reversed(word):
        ps, qs, ls, rs, up = maps[s - 1]
        x, y = (lo, hi) if up else (hi, lo)
        xp = xq = yp = yq = 0
        for c in ps:
            xp = xp * x + c
            yp = yp * y + c
        for c in qs:
            xq = xq * x + c
            yq = yq * y + c
        if xq < 0:
            xp, xq = -xp, -xq
        if yq < 0:
            yp, yq = -yp, -yq
        lo = max((xp << ls >> rs) // xq, e0)
        hi = min(-((-yp << ls >> rs) // yq), e1)
    return lo, hi


def _smooth_cylinder(ifs, word, bits):
    """(lo, hi, top) with f_word(I) inside [lo, hi] / 2^top: the symbols are
    applied on the grids K_j of the module docstring for K = bits (at least
    64 bits each), and moving outward to a finer grid is an exact left shift."""
    lam = -math.log2(ifs.deriv_bounds()[1])
    top = bits + len(word).bit_length() + 1
    i, grid = len(word), 0
    while i:
        # the grid of word[i - 1], symbol j = i; word[start:i] is every
        # symbol whose K_j rounds up to it
        new = 64 * max(1, math.ceil((top - (i - 1) * lam) / 64))
        maps, ends = _fixed_point_maps(ifs, new)
        lo, hi = (lo << new - grid, hi << new - grid) if grid else ends
        grid = new
        start = min(i - 1, max(0, math.ceil((top - grid) / lam)))
        lo, hi = _hull_steps(maps, ends, word[start:i], lo, hi)
        i = start
    return lo, hi, grid


def coding_point(ifs, omega_prefix, target_width):
    """Enclosure of the cylinder f_eta(I) of the prefix eta, which holds
    x_omega = lim f_{omega|m}(x0) for every omega beginning with eta.

    The cylinder must be narrower than target_width: for an affine system
    its exact width |r_eta| width(I), which may also equal the target when
    the ends are rational; for a smooth one the bound prod_j sup|f'_{eta_j}|
    width(I), by a factor of at least e^(-1e-9).  Otherwise it raises
    ShortPrefixError: a longer prefix is the caller's to draw.

    Smooth systems start from K = bit_length(floor(1/target)) + 3 bits.
    Symbol j of the prefix, counted from the outside, is applied on K_j =
    K + g - (j-1) log2(1/rho) bits rounded up to a multiple of 64, with
    rho = sup|f'| and g = bit_length(len(prefix)) + 1; the outer maps shrink
    its rounding by rho^(j-1), so the grids add at most 2^-K to the width
    (see the module docstring).  Should the width still miss the target, K
    is doubled.
    """
    omega_prefix = tuple(omega_prefix)
    target_width = Fraction(target_width)
    if target_width <= 0:
        raise ValueError("target_width must be positive")
    if not omega_prefix:
        raise PreconditionError("empty prefix cannot certify a width below width(I)")

    if ifs.is_affine:
        g = compose_word(ifs, omega_prefix)  # the one validation of the word
        # irrational cylinder ends need a width strictly below the target, to
        # leave room for their rational bounds; the width itself may be
        # rational even then (rational ratios, irrational translations)
        strict = any(isinstance(x, QuadExact) for x in (g.ratio, g.translation, *ifs.interval))
        width = abs(g.ratio) * ifs.interval_width()
        too_wide = width >= target_width if strict else width > target_width
        a, b = sorted((g(ifs.interval[0]), g(ifs.interval[1])))
    else:
        prefix = validate_word(ifs, omega_prefix)
        _polys(ifs)  # the system's data is checked before the prefix
        # log-space so that very small targets never underflow a float
        log_shrink = -sum(ifs.steps[s - 1] for s in prefix)
        log_target = math.log(target_width.numerator) - math.log(target_width.denominator)
        too_wide = log_shrink + math.log(ifs.width_float) > log_target - 1e-9
    if too_wide:
        raise ShortPrefixError(f"the cylinder of this {len(omega_prefix)}-symbol prefix is not "
                               "narrower than target_width; pass a longer prefix")

    # rational affine ends are their own bounds; irrational ones and smooth
    # images get bounds at about target/8 first, then finer ones until the
    # slack below the target holds them
    bits = (target_width.denominator // target_width.numerator).bit_length() + 3
    while True:
        if ifs.is_affine:
            alo, bhi = _bounds(a, bits)[0], _bounds(b, bits)[1]
            if (alo, bhi) == (a, b):
                break
        else:
            lo, hi, top = _smooth_cylinder(ifs, prefix, bits)
            alo, bhi = Fraction(lo, 1 << top), Fraction(hi, 1 << top)
        if bhi - alo <= target_width:
            break
        bits *= 2
    return Enclosure(alo, bhi)


def attractor_interval(ifs):
    """Interval hull of the attractor via the cover hull of depth at most 64.

    H_0 = I and H_d = hull(U_i f_i(H_{d-1})); the H_d are nested decreasing
    and every one contains K, so the result is a certified over-approximation.
    Systems with a smooth map take the hull steps in fixed point at
    2^-_FIX_BITS, rounded outward.
    """
    exact = ifs.is_affine
    if exact:
        lo, hi = ifs.interval
    else:
        maps, ends = _fixed_point_maps(ifs, _FIX_BITS)
        lo, hi = ends
    for _ in range(64):
        if exact:
            pts = [m(x) for m in ifs.maps for x in (lo, hi)]
            nlo, nhi = min(pts), max(pts)
        else:
            hulls = [_hull_steps(maps, ends, (i,), lo, hi) for i in range(1, ifs.n + 1)]
            nlo, nhi = min(h[0] for h in hulls), max(h[1] for h in hulls)
        if nlo == lo and nhi == hi:
            break
        lo, hi = nlo, nhi
    if exact:
        return Enclosure(_bounds(lo, _FIX_BITS)[0], _bounds(hi, _FIX_BITS)[1])
    return Enclosure(Fraction(lo, 1 << _FIX_BITS), Fraction(hi, 1 << _FIX_BITS))


# -- sampling nu -------------------------------------------------------------


_CELLS = 1 << 20  # symbols per drawn matrix chunk, bounding the chunk's memory


def _row_chunks(rows, width):
    """Row counts, at most max(1, _CELLS // width) each, summing to rows: rng.random
    fills row-major, so these chunks of a rows x width draw give its stream."""
    step = max(1, _CELLS // width)
    return (min(step, rows - start) for start in range(0, rows, step))


def _draw_symbols(ifs, p, rng, shape):
    """0-based symbols of the given shape with P(symbol = i) = p_{i+1}: the
    count of cumulative weights <= u, leaving out the last, which may fall
    short of 1 in floats; the last symbol takes that round-off.

    One rng.random(shape) call per draw.  The counts are kept in
    np.min_scalar_type(ifs.n), which holds n, so symbol + 1 never wraps; one
    byte up to 255 maps, against intp's eight, which makes the compares and
    the column reads of _pull_back faster.  A fancy index by such an array
    is slower than by intp, so a caller that gathers a whole matrix by
    symbol converts it once (as _walk_matrix does).
    """
    if len(p) != ifs.n:
        raise ValueError("weight vector length does not match the IFS")
    u = rng.random(shape)
    sym = np.zeros(u.shape, dtype=np.min_scalar_type(ifs.n))
    for c in np.cumsum([float(w) for w in p])[:-1]:
        sym += u >= c
    return sym


def _column_maps(ifs, sym):
    """(apply, masks) for a smooth system's maps on the symbol matrix sym.

    apply(j, x) is f_{sym[r, j]}(x[r]) row-wise in floats and masks[i, j] the
    rows of map i in column j.  Every map is evaluated on all rows, each row
    keeping its own map's value through np.where.  Affine maps take floats
    converted once.
    """
    fs = [m if m.kind != "affine" else (lambda x, r=float(m.ratio), t=float(m.translation): r * x + t)
          for m in ifs.maps]
    masks = np.equal(sym.T, np.arange(ifs.n, dtype=sym.dtype)[:, None, None], order="C")

    def apply(j, x):
        y = fs[-1](x)
        for i in range(ifs.n - 1):
            y = np.where(masks[i, j], fs[i](x), y)
        return y

    return apply, masks


def _pull_back(ifs, sym, x):
    """Row-wise f_{sym[:,0]} o ... o f_{sym[:,-1]}(x) in floats.

    sym holds 0-based symbols, one row per entry of x; the word is applied
    innermost (last column) first.  Affine systems gather by symbol: there the
    masks of _column_maps cost more than they save (1.5-3.5x slower).  They
    walk a contiguous copy of the columns, last first, and update a copy of
    x in place, r*x then + t, the roundings of r[s] * x + t[s].
    """
    if ifs.is_affine:
        r = np.array([float(m.ratio) for m in ifs.maps])
        t = np.array([float(m.translation) for m in ifs.maps])
        x = np.array(x, dtype=float)
        buf = np.empty_like(x)
        for s in np.ascontiguousarray(sym.T[::-1]):
            x *= np.take(r, s, out=buf)
            x += np.take(t, s, out=buf)
        return x
    apply, _ = _column_maps(ifs, sym)
    for j in range(sym.shape[1] - 1, -1, -1):
        x = apply(j, x)
    return x


# -- catalog ----------------------------------------------------------------


def cantor():
    """Middle-thirds Cantor IFS {x/3, (x+2)/3} on [0, 1]."""
    return Ifs(
        [AffineMap(Fraction(1, 3), 0), AffineMap(Fraction(1, 3), Fraction(2, 3))],
        (0, 1),
        name="cantor",
    )


def aperiodic_125():
    """{x/2, (x+1)/3, (x+1)/5} on [0, 1]; log-ratios pairwise irrational."""
    return Ifs(
        [
            AffineMap(Fraction(1, 2), 0),
            AffineMap(Fraction(1, 3), Fraction(1, 3)),
            AffineMap(Fraction(1, 5), Fraction(1, 5)),
        ],
        (0, 1),
        name="aperiodic-125",
    )


def dyadic_pair():
    """{x/2, (x+1)/2} on [0, 1]; the attractor is the full interval."""
    return Ifs(
        [AffineMap(Fraction(1, 2), 0), AffineMap(Fraction(1, 2), Fraction(1, 2))],
        (0, 1),
        name="dyadic-pair",
    )


def pow2_pair():
    """{x/4, (x+7)/8} on [0, 1]; periodic with generator log 2."""
    return Ifs(
        [AffineMap(Fraction(1, 4), 0), AffineMap(Fraction(1, 8), Fraction(7, 8))],
        (0, 1),
        name="pow2-pair",
    )


def bernoulli_convolution(r):
    """{r x - 1, r x + 1} on [-1/(1-r), 1/(1-r)]."""
    r = _exact(r)
    m = 1 / (1 - r)
    return Ifs([AffineMap(r, -1), AffineMap(r, 1)], (-m, m), name=f"bernoulli-{r}")


def golden_bernoulli():
    """Bernoulli convolution at r = (sqrt(5)-1)/2; 1/r is Pisot."""
    from .quadfield import golden_ratio_conjugate

    ifs = bernoulli_convolution(golden_ratio_conjugate())
    ifs.name = "bernoulli-golden"
    return ifs


def smooth_example():
    """{x/3 + x^2/20, (x+2)/3} on [0, 1]: one quadratic, one affine map."""
    return Ifs(
        [
            quadratic_map(Fraction(1, 3), 0, Fraction(1, 20), (0, 1)),
            AffineMap(Fraction(1, 3), Fraction(2, 3)),
        ],
        (0, 1),
        name="smooth-example",
    )


def moebius_example():
    """{1/(x+2), x/3 + 2/3} on [0, 1]."""
    return Ifs(
        [moebius_map(0, 1, 1, 2, (0, 1)), AffineMap(Fraction(1, 3), Fraction(2, 3))],
        (0, 1),
        name="moebius-example",
    )


# name -> (constructor, default weights): every builtin system, each built
# only when asked for
BUILTINS = {
    "cantor": (cantor, WeightVector.uniform(2)),
    "aperiodic-125": (aperiodic_125, WeightVector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])),
    "dyadic-pair": (dyadic_pair, WeightVector.uniform(2)),
    "pow2-pair": (pow2_pair, WeightVector([Fraction(1, 3), Fraction(2, 3)])),
    "bernoulli-1/3": (lambda: bernoulli_convolution(Fraction(1, 3)), WeightVector.uniform(2)),
    "smooth-example": (smooth_example, WeightVector.uniform(2)),
    "moebius-example": (moebius_example, WeightVector.uniform(2)),
    "bernoulli-golden": (golden_bernoulli, WeightVector.uniform(2)),
}


def builtin(name):
    """(ifs, weights) of the builtin system `name`."""
    if name not in BUILTINS:
        raise KeyError(f"unknown builtin system {name!r}; known: {', '.join(sorted(BUILTINS))}")
    make, weights = BUILTINS[name]
    return make(), weights


def _registered(keep):
    systems = {name: builtin(name) for name in BUILTINS}
    return {name: (ifs, w) for name, (ifs, w) in systems.items() if keep(ifs)}


def registered_affine():
    """The builtins with rational affine maps, with their default weights."""
    return _registered(lambda ifs: ifs.field == 0)


def registered_smooth():
    """The builtins with a smooth map, with their default weights."""
    return _registered(lambda ifs: not ifs.is_affine)
