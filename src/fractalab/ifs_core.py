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
arithmetic with directed rounding (Moore, Kearfott and Cloud, 2009).

Float pull-backs through a matrix of symbols (walks, Monte Carlo samples)
evaluate a smooth system's maps in one column kernel, _column_maps; affine
systems gather each row's ratio and translation by symbol (see _pull_back).

Conventions: a word eta = (eta_1, ..., eta_m) over the alphabet {1..n}
composes left-to-right as f_eta = f_{eta_1} o ... o f_{eta_m}.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from math import lcm

import mpmath
import numpy as np

from .quadfield import _FIX_BITS, QuadExact, _bounds, _field, _times, _triple, is_exact


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these inputs."""


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
        self.prefix_extended = 0  # set by coding_point when it lengthens ω

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

    def fixed_point(self):
        return self.translation / (1 - self.ratio)

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

    Derived once at construction: steps, -log sup|f_i'| per map (read-only),
    and width_float.  For an affine system also field, the d of the Q(sqrt d)
    of every ratio, translation and end of I (0 if all are rational), forms,
    the integer forms (ra, rb, ta, tb, c) with f_i(x) = ((ra + rb*sqrt d)*x +
    ta + tb*sqrt d)/c, and the integer triples (a, b, den) ratio_triples,
    translation_triples and centre_triple; these five are None with a smooth map.
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
        self.steps = np.array([-math.log(m.deriv_range()[1]) for m in self.maps])
        self.steps.flags.writeable = False
        self.width_float = float(self.interval_width())
        self.field = self.forms = self.ratio_triples = self.translation_triples = self.centre_triple = None
        if not self.is_affine:
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
        lo = min(m.deriv_range()[0] for m in self.maps)
        hi = max(m.deriv_range()[1] for m in self.maps)
        return lo, hi

    @property
    def big_d(self):
        """D with sup|f'| = e^{-D}."""
        return -math.log(self.deriv_bounds()[1])

    @property
    def big_d_prime(self):
        """D' with inf|f'| = e^{-D'}."""
        return -math.log(self.deriv_bounds()[0])

    def _validate(self):
        lo, hi = self.interval
        fixed = set()
        for i, m in enumerate(self.maps, start=1):
            dmin, dmax = m.deriv_range()
            if not 0 < dmin <= dmax < 1:
                raise ValueError(f"map {i} is not a contraction with f' bounded away from 0")
            # m is monotone on I; an affine map's call is already exact
            img = sorted(m(x) if m.kind == "affine" else _exact_image(m, x) for x in (lo, hi))
            if img[0] < lo or img[1] > hi:
                raise ValueError(f"map {i} does not map I into I")
            fixed.add(m.fixed_point() if m.kind == "affine" else round(_smooth_fixed_point(m, self), 12))
        if len(fixed) < 2:
            raise ValueError("all maps share one fixed point; the attractor is a single point")

    def __repr__(self):
        return f"Ifs({self.name}, n={self.n})"


def _exact_image(m, x):
    """m(x) = P(x)/Q(x) in exact arithmetic."""
    p, q = (sum(c * x**i for i, c in enumerate(cs)) for cs in (m.num, m.den))
    return p / q


def _smooth_fixed_point(m, ifs):
    x = float(ifs.interval_mid())
    for _ in range(200):  # Banach iteration converges at rate sup|f'|
        x = m(x)
    return x


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


def _appended_symbols(ifs, eta, shrink, target_width, strict):
    """Least k >= 0 with shrink * |r_last|^k * width(I) <= target_width, or
    < target_width if strict.

    shrink is the exact |r_eta|; k is estimated from the symbol counts in
    logs and then settled by exact comparisons.
    """
    width_i = ifs.interval_width()
    last = abs(ifs.maps[eta[-1] - 1].ratio)

    def fits(k):
        w = shrink * last**k * width_i
        return w < target_width if strict else w <= target_width

    log_shrink = -sum(c * ifs.steps[s - 1] for s, c in Counter(eta).items())
    log_target = math.log(target_width.numerator) - math.log(target_width.denominator)
    excess = log_shrink + math.log(float(width_i)) - log_target
    k = max(0, math.ceil(excess / ifs.steps[eta[-1] - 1]))
    while not fits(k):
        k += 1
    while k and fits(k - 1):
        k -= 1
    return k


def _fixed_point_image(m, bits):
    """X -> (floor, ceil) of 2^bits * P(x)/Q(x) at x = X/2^bits, for m = P/Q.

    Integer Horner is exact; the only rounding is in the two final divisions,
    and Q's power of two is shifted out first, so a polynomial map divides
    by a small integer only.
    """
    scale = lcm(*(c.denominator for c in (*m.num, *m.den)))
    # highest power first, c_i * scale * 2^(bits*(deg - i)), so that Horner
    # gives scale * 2^(bits*deg) * P(x)
    ps, qs = ([int(c * scale) << bits * j for j, c in enumerate(reversed(cs))] for cs in (m.num, m.den))
    shift = bits * (len(ps) - len(qs) - 1)  # 2^bits * P/Q = hp / (hq * 2^shift)

    def image(x):
        hp = hq = 0
        for c in ps:
            hp = hp * x + c
        for c in qs:
            hq = hq * x + c
        if hq < 0:
            hp, hq = -hp, -hq
        if shift < 0:
            return (hp << -shift) // hq, -((-hp << -shift) // hq)
        return (hp >> shift) // hq, -((-hp >> shift) // hq)

    return image


def _fixed_point_maps(ifs, bits):
    """The maps' fixed-point evaluators at 2^-bits and the ends of I
    rounded outward to that grid."""
    data = [*ifs.interval] + [c for m in ifs.maps for c in (*m.num, *m.den)]
    if any(isinstance(c, QuadExact) for c in data):
        raise PreconditionError("smooth-system enclosures need rational coefficients and "
                                "interval ends, not quadratic-field ones")
    lo, hi = ifs.interval
    ends = math.floor(lo * 2**bits), math.ceil(hi * 2**bits)
    return [_fixed_point_image(m, bits) for m in ifs.maps], ends


def _image_hull(image, lo, hi, ends):
    """Fixed-point hull of a map's image of [lo, hi]: the map is monotone on
    I, so the images of the two ends span it, and it lies in I."""
    (a, b), (c, d) = image(lo), image(hi)
    return max(min(a, c), ends[0]), min(max(b, d), ends[1])


def coding_point(ifs, omega_prefix, target_width):
    """Enclosure of x_omega = lim f_{omega|m}(x0) from a finite prefix.

    If the prefix is too short for the requested width the last symbol is
    cycled until the contraction product suffices; the number of appended
    symbols is reported on the result as .prefix_extended.
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
        extended = _appended_symbols(ifs, omega_prefix, abs(g.ratio), target_width, strict)
        if extended:
            g = g.compose(compose_word(ifs, omega_prefix[-1:] * extended))
        a, b = sorted((g(ifs.interval[0]), g(ifs.interval[1])))
    else:
        prefix = list(validate_word(ifs, omega_prefix))
        # log-space so that very small targets never underflow a float
        log_shrink = -sum(ifs.steps[s - 1] for s in prefix)
        log_width = math.log(ifs.width_float)
        log_target = math.log(target_width.numerator) - math.log(target_width.denominator)
        extended = 0
        log_last = -ifs.steps[prefix[-1] - 1]
        while log_shrink + log_width > log_target - 1e-9:
            prefix.append(prefix[-1])
            log_shrink += log_last
            extended += 1

    # rational affine ends are their own bounds; irrational ones and smooth
    # images get bounds at about target/8 first, then finer ones until the
    # slack below the target holds them
    bits = (target_width.denominator // target_width.numerator).bit_length() + 3
    while True:
        if ifs.is_affine:
            alo, bhi = _bounds(a, bits)[0], _bounds(b, bits)[1]
            if (alo, bhi) == (a, b):
                break
        else:  # f_prefix(I), applied from the innermost symbol outward
            images, ends = _fixed_point_maps(ifs, bits)
            lo, hi = ends
            for s in reversed(prefix):
                lo, hi = _image_hull(images[s - 1], lo, hi, ends)
            alo, bhi = Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)
        if bhi - alo <= target_width:
            break
        bits *= 2
    enc = Enclosure(alo, bhi)
    enc.prefix_extended = extended
    return enc


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
        images, ends = _fixed_point_maps(ifs, _FIX_BITS)
        lo, hi = ends
    for _ in range(64):
        if exact:
            pts = [m(x) for m in ifs.maps for x in (lo, hi)]
            nlo, nhi = min(pts), max(pts)
        else:
            hulls = [_image_hull(image, lo, hi, ends) for image in images]
            nlo, nhi = min(h[0] for h in hulls), max(h[1] for h in hulls)
        if nlo == lo and nhi == hi:
            break
        lo, hi = nlo, nhi
    if exact:
        return Enclosure(_bounds(lo, _FIX_BITS)[0], _bounds(hi, _FIX_BITS)[1])
    return Enclosure(Fraction(lo, 1 << _FIX_BITS), Fraction(hi, 1 << _FIX_BITS))


# -- sampling nu -------------------------------------------------------------


def _draw_symbols(ifs, p, rng, shape):
    """0-based symbols of the given shape with P(symbol = i) = p_{i+1}: the
    count of cumulative weights <= u, leaving out the last, which may fall
    short of 1 in floats; the last symbol takes that round-off."""
    if len(p) != ifs.n:
        raise ValueError("weight vector length does not match the IFS")
    u = rng.random(shape)
    sym = np.zeros(u.shape, dtype=np.intp)
    for c in np.cumsum([float(w) for w in p])[:-1]:
        sym += u >= c
    return sym


def _column_maps(ifs, sym):
    """(apply, present, masks) for a smooth system's maps on the symbol matrix sym.

    apply(j, x) is f_{sym[r, j]}(x[r]) row-wise in floats, present[j] the
    0-based maps in column j and masks[i, j] the rows of map i there.  Only
    present maps are evaluated, on all rows, each row keeping its own map's
    value through np.where: evaluating every map in every column made a
    one-row walk 1.4-1.9x slower.  Affine maps take floats converted once.
    """
    fs = [m if m.kind != "affine" else (lambda x, r=float(m.ratio), t=float(m.translation): r * x + t)
          for m in ifs.maps]
    masks = np.equal(sym.T, np.arange(ifs.n)[:, None, None], order="C")
    occurs = list(map(tuple, masks.any(axis=2).T.tolist()))  # a column of no rows applies map 0
    live = {row: [i for i, hit in enumerate(row) if hit] or [0] for row in set(occurs)}
    present = [live[row] for row in occurs]

    def apply(j, x):
        *rest, i = present[j]
        y = fs[i](x)
        for i in rest:
            y = np.where(masks[i, j], fs[i](x), y)
        return y

    return apply, present, masks


def _pull_back(ifs, sym, x):
    """Row-wise f_{sym[:,0]} o ... o f_{sym[:,-1]}(x) in floats.

    sym holds 0-based symbols, one row per entry of x; the word is applied
    innermost (last column) first.  Affine systems gather by symbol: there the
    masks of _column_maps cost more than they save (1.5-3.5x slower).
    """
    if ifs.is_affine:
        r = np.array([float(m.ratio) for m in ifs.maps])
        t = np.array([float(m.translation) for m in ifs.maps])
        for j in range(sym.shape[1] - 1, -1, -1):
            s = sym[:, j]
            x = r[s] * x + t[s]
        return x
    apply, _, _ = _column_maps(ifs, sym)
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
