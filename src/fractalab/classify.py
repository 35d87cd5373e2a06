"""Decidable structure of an IFS: periodicity, lattice containment of the
fixed-point derivative set, Pisot detection, Diophantine/continued-fraction
conditions, the induced system Psi, the derived systems Phi_m, the
integer-power form, and a concrete Moser-style Diophantine-but-Liouville
frequency tuple.

Log-ratio rationality is decided by exact prime-exponent arithmetic:
log r_i / log r_j is rational iff r_i^m = r_j^k has a nonzero integer
solution, i.e. iff the prime-exponent vectors of the ratios are parallel.
Floating-point inputs only ever get verdicts labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
from sympy import factorint

from .ifs_core import (
    AffineMap,
    Ifs,
    PreconditionError,
    WeightVector,
    compose_word,
    _smooth_fixed_point,
)
from .quadfield import QuadExact


# -- exact multiplicative structure -----------------------------------------


def _exponent_vector(x):
    """Prime exponent map of a positive rational (denominator negative)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("need a positive rational")
    vec = {}
    for prime, e in factorint(x.numerator).items():
        vec[prime] = vec.get(prime, 0) + e
    for prime, e in factorint(x.denominator).items():
        vec[prime] = vec.get(prime, 0) - e
    return {k: v for k, v in vec.items() if v}


def _vectors_parallel(v, w):
    """True iff v = (a/b) w for a rational a/b; both assumed nonzero."""
    keys = set(v) | set(w)
    if set(v) != set(w):
        return False
    anchor = next(iter(keys))
    for k in keys:
        if v[anchor] * w[k] != w[anchor] * v[k]:
            return False
    return True


def _content(vec):
    g = 0
    for e in vec.values():
        g = math.gcd(g, abs(e))
    return g


@dataclass
class PeriodicityVerdict:
    periodic: bool
    exact: bool
    generator: float | None = None
    generator_expr: str | None = None
    witness: tuple | None = None  # 1-based (i, j) with log r_i / log r_j irrational
    certificate: str = ""
    heuristic: bool = False


def is_periodic(ratios):
    """Decide whether {log|r_i|} lies in a single lattice r*Z.

    Exact rationals go through prime-exponent vectors; quadratic-field
    ratios are handled in the cases the catalog produces (all equal, or a
    field unit against a rational); bare floats fall back to a flagged
    continued-fraction heuristic.
    """
    if any(isinstance(r, float) for r in ratios):
        return _is_periodic_heuristic([float(abs(r)) for r in ratios])

    abs_ratios = []
    for r in ratios:
        if isinstance(r, QuadExact):
            abs_ratios.append(abs(r) if r.b != 0 else abs(r.a))
        else:
            abs_ratios.append(abs(Fraction(r)))

    if all(x == abs_ratios[0] for x in abs_ratios):
        g = -math.log(float(abs_ratios[0]))
        return PeriodicityVerdict(
            periodic=True,
            exact=True,
            generator=g,
            generator_expr=f"-log({abs_ratios[0]})",
            certificate="all contraction ratios share one modulus",
        )

    quads = [x for x in abs_ratios if isinstance(x, QuadExact)]
    if quads:
        rats = [x for x in abs_ratios if not isinstance(x, QuadExact)]
        for x in quads:
            norm = abs(x.a * x.a - x.d * x.b * x.b)
            if norm == 1 and rats:
                i = abs_ratios.index(x) + 1
                j = abs_ratios.index(rats[0]) + 1
                return PeriodicityVerdict(
                    periodic=False,
                    exact=True,
                    witness=(i, j),
                    certificate=(
                        "a quadratic unit has |field norm| = 1, so every power "
                        "stays irrational while powers of a rational stay rational"
                    ),
                )
        if not rats:
            # all quadratic: exact when every ratio is an integer power of
            # the largest one (the catalog's r, r^2, ... pattern)
            g = max(quads, key=float)
            exps = []
            for x in abs_ratios:
                k, acc = 1, g
                while float(acc) > float(x) - 1e-15 and k < 64:
                    if acc == x:
                        exps.append(k)
                        break
                    acc = acc * g
                    k += 1
                else:
                    exps = None
                if exps is None:
                    break
            if exps is not None and len(exps) == len(abs_ratios):
                c = math.gcd(*exps)
                gen = -c * math.log(float(g))
                return PeriodicityVerdict(
                    periodic=True,
                    exact=True,
                    generator=gen,
                    generator_expr=f"-{c}*log({g})",
                    certificate="all ratios are integer powers of one quadratic element",
                )
        return _is_periodic_heuristic([float(x) for x in abs_ratios])

    vecs = [_exponent_vector(x) for x in abs_ratios]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if not _vectors_parallel(vecs[i], vecs[j]):
                return PeriodicityVerdict(
                    periodic=False,
                    exact=True,
                    witness=(i + 1, j + 1),
                    certificate=(
                        f"prime exponent vectors {dict(vecs[i])} and {dict(vecs[j])} "
                        "are not proportional, so r_i^m = r_j^k has no solution"
                    ),
                )
    # all parallel: primitive direction u with vecs[i] = c_i * u
    u = {k: v // _content(vecs[0]) for k, v in vecs[0].items()}
    anchor = next(iter(u))
    cs = [Fraction(v[anchor], u[anchor]) for v in vecs]
    g = Fraction(math.gcd(*[c.numerator for c in cs]), math.lcm(*[c.denominator for c in cs]))
    base_val = Fraction(1)
    for prime, e in u.items():
        base_val *= Fraction(prime) ** e
    gen = abs(float(g) * math.log(float(base_val)))
    return PeriodicityVerdict(
        periodic=True,
        exact=True,
        generator=gen,
        generator_expr=f"|{g}*log({base_val})|",
        certificate=f"all exponent vectors proportional to {u}",
    )


def _is_periodic_heuristic(ratios, max_den=10**6, tol=1e-12):
    logs = [math.log(r) for r in ratios]
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            x = logs[i] / logs[j]
            approx = Fraction(x).limit_denominator(max_den)
            if abs(x - float(approx)) > tol:
                return PeriodicityVerdict(
                    periodic=False,
                    exact=False,
                    witness=(i + 1, j + 1),
                    heuristic=True,
                    certificate="no rational approximation within tolerance (heuristic)",
                )
    return PeriodicityVerdict(
        periodic=True,
        exact=False,
        heuristic=True,
        generator=abs(logs[0]),
        certificate="all pairwise log-ratios numerically rational (heuristic)",
    )


@dataclass
class LatticeVerdict:
    contained: bool
    trivially: bool
    exact: bool
    certificate: str = ""
    witness: tuple | None = None
    heuristic: bool = False


def lattice_check_fixed_point_set(ifs):
    """Is {log|f_i'(y_i)|: f_i(y_i) = y_i} inside a translated lattice t + r*Z?

    Affine maps give e_i = log|r_i| exactly; containment of n >= 3 distinct
    values reduces to rationality of the difference ratios
    (e_i - e_1)/(e_2 - e_1), decided on exact prime-exponent vectors of the
    quotients r_i/r_1.
    """
    if ifs.is_affine and not any(isinstance(m.ratio, QuadExact) for m in ifs.maps):
        vals = sorted({abs(Fraction(m.ratio)) for m in ifs.maps})
        if len(vals) < 3:
            return LatticeVerdict(
                contained=True,
                trivially=True,
                exact=True,
                certificate=f"{len(vals)} distinct derivative values always fit a translated lattice",
            )
        base = vals[0]
        diff_vecs = [_exponent_vector(v / base) for v in vals[1:]]
        for i in range(len(diff_vecs)):
            for j in range(i + 1, len(diff_vecs)):
                if not _vectors_parallel(diff_vecs[i], diff_vecs[j]):
                    return LatticeVerdict(
                        contained=False,
                        trivially=False,
                        exact=True,
                        witness=(1, i + 2, j + 2),
                        certificate=(
                            f"difference exponent vectors {dict(diff_vecs[i])} and "
                            f"{dict(diff_vecs[j])} are not proportional"
                        ),
                    )
        return LatticeVerdict(
            contained=True,
            trivially=False,
            exact=True,
            certificate="all difference ratios rational",
        )
    # smooth or quadratic-field: numeric fixed points, flagged heuristic
    es = []
    for m in ifs.maps:
        if m.kind == "affine":
            y = float(m.fixed_point())
            es.append(math.log(float(abs(m.ratio))))
        else:
            y = _smooth_fixed_point(m, ifs)
            es.append(math.log(abs(m.deriv(y))))
    distinct = sorted(set(round(e, 12) for e in es))
    if len(distinct) < 3:
        return LatticeVerdict(
            contained=True,
            trivially=True,
            exact=False,
            heuristic=True,
            certificate=f"{len(distinct)} distinct values (numeric)",
        )
    base = distinct[0]
    ref = distinct[1] - base
    for e in distinct[2:]:
        x = (e - base) / ref
        if abs(x - float(Fraction(x).limit_denominator(10**6))) > 1e-10:
            return LatticeVerdict(
                contained=False,
                trivially=False,
                exact=False,
                heuristic=True,
                certificate="difference ratio numerically irrational (heuristic)",
            )
    return LatticeVerdict(
        contained=True, trivially=False, exact=False, heuristic=True,
        certificate="difference ratios numerically rational (heuristic)",
    )


# -- Pisot detection ---------------------------------------------------------


class MinimalPolynomial:
    """Monic integer polynomial, irreducible over Q, degree <= 8."""

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        if not coeffs or coeffs[0] != 1:
            raise ValueError("polynomial must be monic (leading coefficient first)")
        if len(coeffs) - 1 > 8:
            raise ValueError("degree above the supported bound 8")
        from sympy import Poly, Symbol

        x = Symbol("x")
        poly = Poly(sum(c * x ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)), x)
        if poly.degree() >= 2 and not poly.is_irreducible:
            raise ValueError("polynomial is reducible, not a minimal polynomial")
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        out = 0
        for c in self.coeffs:
            out = out * z + c
        return out


@dataclass
class PisotVerdict:
    pisot: bool
    undecided: bool
    roots: list  # (complex root, certified radius)
    dominant: complex | None = None


def is_pisot(poly, margin=1e-10, max_dps=240):
    """Pisot test: one real root > 1, all conjugates strictly inside the
    unit circle with certified separation.

    Root radii come from the bound min_j |z - lambda_j| <= deg * |p(z)/p'(z)|;
    precision doubles until every root clears the unit circle by `margin`
    or the cap is reached (then: undecided).
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(poly)
    deg = poly.degree
    if deg == 0:
        raise ValueError("constant polynomial")
    dps = 30
    while True:
        with mpmath.workdps(dps):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in poly.coeffs], maxsteps=200)
            certified = []
            for z in roots:
                pz = mpmath.polyval([mpmath.mpf(c) for c in poly.coeffs], z)
                dcoeffs = [
                    c * (deg - i) for i, c in enumerate(poly.coeffs[:-1])
                ]
                dpz = mpmath.polyval([mpmath.mpf(c) for c in dcoeffs], z)
                rad = float(deg * abs(pz) / abs(dpz)) if dpz != 0 else float("inf")
                certified.append((complex(z), rad))
        straddles = [
            (z, r) for z, r in certified if abs(abs(z) - 1.0) <= r + margin and abs(z) != 0
        ]
        if not straddles or dps >= max_dps:
            break
        dps *= 2
    if straddles:
        return PisotVerdict(pisot=False, undecided=True, roots=certified)
    real_big = [
        (z, r)
        for z, r in certified
        if abs(z.imag) <= r + 1e-15 and z.real > 1
    ]
    inside = [(z, r) for z, r in certified if abs(z) + r < 1]
    ok = len(real_big) == 1 and len(inside) == deg - 1
    dom = real_big[0][0] if real_big else None
    return PisotVerdict(pisot=ok, undecided=False, roots=certified, dominant=dom)


# -- Diophantine scans -------------------------------------------------------


def _inf_y_max_dist(vs, x):
    """inf over y of max_i d(v_i x + y, Z), exactly on the circle.

    The objective is a max of unit-slope tent functions of y; its minima sit
    at circular midpoints between consecutive tent peaks, so evaluating the
    finitely many midpoints is exact (up to float rounding).
    """
    us = np.array([(v * x) % 1.0 for v in vs])
    peaks = np.sort((0.5 - us) % 1.0)
    mids = (peaks + np.diff(np.concatenate([peaks, [peaks[0] + 1.0]])) / 2.0) % 1.0
    best = 1.0
    for y in mids:
        vals = (us + y) % 1.0
        dist = np.minimum(vals, 1.0 - vals)
        best = min(best, float(dist.max()))
    return best


@dataclass
class ScanReport:
    xs: np.ndarray
    ms: np.ndarray
    fitted_c: float
    fitted_l: float
    min_m: float
    positive: bool
    condition_met: bool
    dips: list = field(default_factory=list)
    note: str = ""


def diophantine_scan(log_ratios, x_max=1000.0, grid_density=40):
    """Scan m(x) = inf_y max_i d(v_i x + y, Z) on a log-dense grid and fit
    the polynomial lower envelope m(x) ~ C / x^l."""
    vs = [float(v) for v in log_ratios]
    if len(vs) < 2:
        return ScanReport(
            xs=np.array([]),
            ms=np.array([]),
            fitted_c=0.0,
            fitted_l=float("inf"),
            min_m=0.0,
            positive=False,
            condition_met=False,
            note="single ratio: y always cancels the only term, m(x) = 0",
        )
    n_pts = max(8, int(grid_density * math.log10(max(x_max, 10.0))))
    xs = np.exp(np.linspace(math.log(1.0), math.log(x_max), n_pts))
    ms = np.array([_inf_y_max_dist(vs, x) for x in xs])
    positive = bool(ms.min() > 0)
    # lower envelope: binwise minima in log x
    n_bins = max(6, n_pts // 12)
    bins = np.linspace(0, math.log(x_max) + 1e-9, n_bins + 1)
    env_x, env_m = [], []
    lx = np.log(xs)
    for b in range(n_bins):
        sel = (lx >= bins[b]) & (lx < bins[b + 1])
        if sel.any() and ms[sel].min() > 0:
            i = np.argmin(np.where(sel, ms, np.inf))
            env_x.append(lx[i])
            env_m.append(math.log(ms[i]))
    if len(env_x) < 3 or not positive:
        return ScanReport(
            xs=xs, ms=ms, fitted_c=0.0, fitted_l=float("inf"), min_m=float(ms.min()),
            positive=positive, condition_met=False,
            note="zero or near-zero values in the scan: no polynomial envelope",
        )
    slope, intercept = np.polyfit(env_x, env_m, 1)
    fitted_l = max(-float(slope), 0.0)
    fitted_c = math.exp(float(intercept))
    pred = slope * lx + intercept
    dips = [
        (float(xs[i]), float(ms[i]))
        for i in range(len(xs))
        if ms[i] > 0 and math.log(ms[i]) < pred[i] - math.log(50.0)
    ]
    return ScanReport(
        xs=xs,
        ms=ms,
        fitted_c=fitted_c,
        fitted_l=fitted_l,
        min_m=float(ms.min()),
        positive=positive,
        condition_met=positive and not dips,
        dips=dips,
    )


# -- continued fractions -----------------------------------------------------


@dataclass
class CfReport:
    convergents: list  # (a_k, p_k, q_k)
    mus: list  # empirical irrationality exponents
    max_mu: float
    verdict: str  # rational | consistent | liouville-like
    l_bound: float


def _cf_of_fraction(x, q_max):
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{-2}/q_{-2}, p_{-1}/q_{-1} seeds
    num, den = x.numerator, x.denominator
    while den != 0:
        a = num // den
        num, den = den, num - a * den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((a, p1, q1))
        if q1 > q_max:
            break
    return out


def _cf_of_real(x_mpf, q_max, dps):
    out = []
    with mpmath.workdps(dps):
        x = mpmath.mpf(x_mpf)
        p0, q0, p1, q1 = 0, 1, 1, 0
        rem = x
        for _ in range(10_000):
            a = int(mpmath.floor(rem))
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            out.append((a, p1, q1))
            if q1 > q_max:
                break
            frac = rem - a
            if frac < mpmath.mpf(10) ** (-dps + 10):
                break  # precision exhausted; stop rather than invent terms
            rem = 1 / frac
    return out


def li_sahlsten_check(r_i, r_j=None, q_max=10**6, rational_is_exact=True):
    """Continued-fraction profile of x = log r_i / log r_j (or of a directly
    supplied real x when r_j is None).

    mu_k = -log|x - p_k/q_k| / log q_k estimates the irrationality exponent
    along convergents; bounded mu is consistent with the polynomial
    condition at l = max mu_k, exploding mu is reported Liouville-like.
    Exact rational log-ratios fail the condition outright.
    """
    if r_j is not None:
        # rationality decided exactly first
        verdict = is_periodic([Fraction(abs(Fraction(r_i))), Fraction(abs(Fraction(r_j)))])
        if verdict.periodic:
            return CfReport(convergents=[], mus=[], max_mu=float("inf"),
                            verdict="rational", l_bound=float("inf"))
        dps = 40 + 2 * int(math.log10(q_max))
        with mpmath.workdps(dps):
            ri, rj = abs(Fraction(r_i)), abs(Fraction(r_j))
            x = (mpmath.log(ri.numerator) - mpmath.log(ri.denominator)) / (
                mpmath.log(rj.numerator) - mpmath.log(rj.denominator)
            )
        convs = _cf_of_real(x, q_max, dps)
        x_for_mu = x
    elif isinstance(r_i, Fraction) and rational_is_exact:
        return CfReport(convergents=[], mus=[], max_mu=float("inf"),
                        verdict="rational", l_bound=float("inf"))
    elif isinstance(r_i, Fraction):
        convs = _cf_of_fraction(r_i, q_max)
        x_for_mu = mpmath.mpf(r_i.numerator) / r_i.denominator
    else:
        dps = 40 + 2 * int(math.log10(q_max))
        x_for_mu = mpmath.mpf(r_i)
        convs = _cf_of_real(r_i, q_max, dps)

    mus = []
    with mpmath.workdps(60):
        for _, pk, qk in convs:
            if qk < 2:
                continue
            if isinstance(r_i, Fraction) and r_j is None:
                diff = abs(r_i - Fraction(pk, qk))
                if diff == 0:
                    continue  # the terminating convergent of a finite stand-in
                d = float(mpmath.log(mpmath.mpf(diff.numerator)) - mpmath.log(diff.denominator))
            else:
                diff = abs(x_for_mu - mpmath.mpf(pk) / qk)
                if diff == 0:
                    continue
                d = float(mpmath.log(diff))
            mus.append(-d / math.log(qk))
    max_mu = max(mus) if mus else 2.0
    verdict = "liouville-like" if max_mu >= 4.0 else "consistent"
    return CfReport(convergents=convs, mus=mus, max_mu=max_mu, verdict=verdict, l_bound=max_mu)


# -- derived systems ---------------------------------------------------------


@dataclass
class InducedSystem:
    psi: Ifs
    q: WeightVector
    permutation: list  # original 1-based map indices in the order used


def induce_aperiodic(phi, p):
    """The 2n-1 map system Psi = {f_1 f_i}_i + {f_i}_{i>=2} with weights
    (p_1 p_1, ..., p_1 p_n, p_2, ..., p_n), reindexed so an aperiodicity
    witness pair sits at positions (1, 2).  Psi has the same self-similar
    measure and its log-ratio set avoids every translated lattice."""
    verdict = is_periodic([m.ratio for m in phi.maps])
    if verdict.periodic:
        raise PreconditionError("the IFS is periodic; no aperiodic witness to induce on")
    i, j = verdict.witness
    order = [i, j] + [k for k in range(1, phi.n + 1) if k not in (i, j)]
    maps = [phi.maps[k - 1] for k in order]
    weights = [Fraction(p[k - 1]) for k in order]
    f1 = maps[0]
    psi_maps = [f1.compose(m) for m in maps] + maps[1:]
    q = WeightVector([weights[0] * w for w in weights] + weights[1:])
    psi = Ifs(psi_maps, phi.interval, x0=phi.x0, name=f"{phi.name}-induced")
    return InducedSystem(psi=psi, q=q, permutation=order)


def phi_m(phi, m):
    """The stopped-word system Phi_m: compositions g with g'(0) < 1/m whose
    parent prefix still has derivative >= 1/m.  Phi_1 = Phi."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not phi.is_affine or any(mm.ratio <= 0 for mm in phi.maps):
        raise PreconditionError("Phi_m needs an affine orientation-preserving IFS")
    if m == 1:
        return phi
    thr = Fraction(1, m)
    words = []
    stack = [(Fraction(1), ())]
    while stack:
        prod, word = stack.pop()
        for i in range(phi.n, 0, -1):
            r = prod * Fraction(phi.maps[i - 1].ratio)
            w = word + (i,)
            if r < thr:  # parent prod >= thr by construction
                words.append(w)
            else:
                stack.append((r, w))
    words.sort()
    maps = [compose_word(phi, w) for w in words]
    out = Ifs(maps, phi.interval, x0=phi.x0, name=f"{phi.name}-phi{m}")
    out.words = words
    return out


@dataclass
class IntegerFormReport:
    in_form: bool
    base: int | None = None
    exponents: list | None = None
    gcd: int | None = None
    reduced_base: int | None = None
    t_rational: list | None = None
    note: str = ""

    def roundtrip_ok(self, ratios):
        if not self.in_form:
            return False
        return all(
            Fraction(1, self.base**k) == abs(Fraction(r))
            for k, r in zip(self.exponents, ratios)
        )


def integer_pisot_form_check(phi):
    """Find n >= 2 and exponents k_i with |r_i| = n^{-k_i}, when they exist."""
    if not phi.is_affine or any(isinstance(m.ratio, QuadExact) for m in phi.maps):
        return IntegerFormReport(in_form=False, note="needs exact rational ratios")
    ratios = [abs(Fraction(m.ratio)) for m in phi.maps]
    if any(r.numerator != 1 for r in ratios):
        return IntegerFormReport(
            in_form=False, note="some ratio is not the reciprocal of an integer"
        )
    vecs = [_exponent_vector(Fraction(1) / r) for r in ratios]  # denominators
    w0 = {k: v // _content(vecs[0]) for k, v in vecs[0].items()}
    anchor = next(iter(w0))
    ks = []
    for v in vecs:
        if set(v) != set(w0):
            return IntegerFormReport(in_form=False, note="no common integer base")
        k, rem = divmod(v[anchor], w0[anchor])
        if rem or any(v[p] != k * w0[p] for p in w0):
            return IntegerFormReport(in_form=False, note="no common integer base")
        ks.append(k)
    base = 1
    for prime, e in w0.items():
        base *= prime**e
    g = math.gcd(*ks)
    t_rat = [not isinstance(m.translation, QuadExact) for m in phi.maps]
    return IntegerFormReport(
        in_form=True,
        base=base,
        exponents=ks,
        gcd=g,
        reduced_base=base**g if g > 1 else base,
        t_rational=t_rat,
        note="" if g == 1 else f"exponents share the factor {g}; reduced base {base ** g}",
    )


# -- Moser-style generator ---------------------------------------------------


@dataclass
class MoserInstance:
    v: tuple  # (1, 2, alpha1 + 1, alpha2 + 1) as floats
    alpha1: Fraction
    alpha2: Fraction
    cf_terms: tuple  # (terms of alpha1, terms of alpha2)
    li_reports: tuple
    scan: ScanReport
    tau: float


def _cf_build(terms):
    """Fraction value of [0; a_1, a_2, ...]."""
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in terms:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return Fraction(p1, q1)


def _liouville_terms(start, depth, digit_cap=400):
    """CF terms with q_{k+1} >= q_k^k: denominators explode super-polynomially."""
    terms = list(start)
    p0, q0, p1, q1 = 1, 0, 0, 1
    for a in terms:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    k = len(terms)
    while True:
        nxt = max(q1 ** max(k, 2), 2)
        if len(str(nxt)) > digit_cap or len(terms) >= len(start) + depth:
            break
        terms.append(nxt)
        p0, q0, p1, q1 = p1, q1, nxt * p1 + p0, nxt * q1 + q0
        k += 1
    return terms


def moser_family(tau=3.0, liouville_depth=3, rng_seed=0, x_max=1000.0):
    """A concrete frequency tuple v = (1, 2, alpha1+1, alpha2+1) whose alphas
    are Liouville-like (exploding continued-fraction denominators) while the
    finite Diophantine scan still shows a positive polynomial envelope.

    The returned instance is verified only on the scanned range; the general
    existence statement is taken as given, not re-proved here.
    """
    rng = np.random.default_rng(rng_seed)
    for _ in range(8):
        s1 = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
        s2 = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
        if s1 == s2:
            continue
        t1 = _liouville_terms(s1, liouville_depth)
        t2 = _liouville_terms(s2, liouville_depth)
        a1, a2 = _cf_build(t1), _cf_build(t2)
        rep1 = li_sahlsten_check(a1, q_max=10**9, rational_is_exact=False)
        rep2 = li_sahlsten_check(a2, q_max=10**9, rational_is_exact=False)
        if rep1.verdict != "liouville-like" or rep2.verdict != "liouville-like":
            continue
        v = (1.0, 2.0, 1.0 + float(a1), 1.0 + float(a2))
        scan = diophantine_scan(v, x_max=x_max)
        if scan.positive and scan.fitted_l <= tau + 1:
            return MoserInstance(
                v=v, alpha1=a1, alpha2=a2, cf_terms=(t1, t2),
                li_reports=(rep1, rep2), scan=scan, tau=tau,
            )
    raise RuntimeError("could not verify a Moser instance within the retry budget")


# -- full report -------------------------------------------------------------


@dataclass
class ClassificationReport:
    name: str
    periodicity: PeriodicityVerdict
    lattice: LatticeVerdict
    diophantine: ScanReport | None
    integer_form: IntegerFormReport

    def to_text(self):
        lines = [f"ifs: {self.name}"]
        p = self.periodicity
        lines.append(f"periodic: {str(p.periodic).lower()}")
        lines.append(f"exact: {str(p.exact).lower()}")
        if p.periodic:
            lines.append(f"lattice_generator: {p.generator:.12g} ({p.generator_expr})")
        else:
            lines.append(f"aperiodic_witness: maps {p.witness}")
        if p.certificate:
            lines.append(f"certificate: {p.certificate}")
        lines.append(
            "fixed_point_lattice: "
            + ("contained" if self.lattice.contained else "not-contained")
            + (" (trivially)" if self.lattice.trivially else "")
        )
        if self.diophantine is not None and len(self.diophantine.xs):
            d = self.diophantine
            lines.append(
                f"diophantine_scan: positive={str(d.positive).lower()} "
                f"C={d.fitted_c:.4g} l={d.fitted_l:.4g} x_max={d.xs[-1]:.4g}"
            )
        f = self.integer_form
        if f.in_form:
            lines.append(f"integer_form: base={f.base} exponents={f.exponents} gcd={f.gcd}")
        else:
            lines.append(f"integer_form: none ({f.note})")
        return "\n".join(lines) + "\n"


def classify_ifs(ifs):
    if not ifs.is_affine:
        raise PreconditionError(f"classification requires an affine IFS; {ifs.name} has a smooth map")
    ratios = [m.ratio for m in ifs.maps]
    periodicity = is_periodic(ratios)
    lattice = lattice_check_fixed_point_set(ifs)
    dio = None
    if not any(isinstance(r, QuadExact) for r in ratios):
        logs = sorted({abs(math.log(float(abs(Fraction(r))))) for r in ratios})
        dio = diophantine_scan(logs)
    return ClassificationReport(
        name=ifs.name,
        periodicity=periodicity,
        lattice=lattice,
        diophantine=dio,
        integer_form=integer_pisot_form_check(ifs),
    )
