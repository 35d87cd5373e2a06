"""Decidable structure of an IFS: periodicity, lattice containment of the
fixed-point derivative set, Diophantine/continued-fraction conditions, the
induced system Psi, the derived systems Phi_m, the integer-power form, and a
concrete Moser-style Diophantine-but-Liouville frequency tuple.

Log-ratio rationality is decided by exact exponent arithmetic: log r_i /
log r_j is rational iff r_i^m = r_j^k has a nonzero integer solution, i.e.
iff the exponent vectors of the ratios are parallel.  The vectors are taken
over a coprime base built from the ratios by gcds alone (factor refinement,
Bach, Driscoll & Shallit 1993), so no integer is ever factored into primes.
Ratios in one real quadratic field are decided through their field norms,
denominator norms or an exact unit Euclid, and one exact power per ratio
(`is_periodic`).  Every verdict is exact: floats and smooth systems raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice

import mpmath
import numpy as np

from .ifs_core import Ifs, PreconditionError, WeightVector, _row_chunks, compose_word
from .quadfield import QuadExact, _field, _fixed, _triple, is_exact


# -- exact multiplicative structure -----------------------------------------


def _is_prime(n):
    """Miller-Rabin on the first 12 prime bases, exact for n below
    318665857834031151167461, a strong pseudoprime to all 12 (Sorenson and
    Webster, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s)) for a in bases)


def _power_residue(n, k):
    """False only if n is no k-th power: for two primes p = 1 (mod k) not
    dividing n, n mod p must be a k-th power residue (Euler's criterion)."""
    primes = (p for p in count(k + 1, k) if _is_prime(p) and n % p)
    return all(pow(n % p, (p - 1) // k, p) == 1 for p in islice(primes, 2))


def _least_root(n):
    """The least integer m with m**k == n for some k >= 1, for n >= 2.

    Only prime k are tried (a k-th power is a p-th power for every prime p
    dividing k), each until n has no k-th root; Newton runs only for a k
    that passes _power_residue."""
    k = 2
    while 1 << k <= n:
        e = math.log2(n) / k  # for e < 1000, 2^e is the k-th root within a factor 1 + 2^-40
        m = 0
        if e < 30:  # an integer root is round(2^e), which 2^e meets within 2^(e-30)
            m = round(2**e) if abs(2**e - round(2**e)) <= 2 ** (e - 30) and _is_prime(k) else 0
        elif _is_prime(k) and _power_residue(n, k):  # Newton from above to floor(n ** (1/k))
            m = int(2**e * (1 + 2**-30)) + 1 if e < 1000 else 1 << -(-n.bit_length() // k)
            while (y := ((k - 1) * m + n // m ** (k - 1)) // k) < m:
                m = y
        n, k = (m, k) if m**k == n else (n, k + 1)
    return n


def _exponent_vectors(xs):
    """Exponent vectors of the positive rationals xs (1 excluded) over one
    coprime base, built from gcds alone (factor refinement).

    The base elements are pairwise coprime and none is a perfect power, so
    the vectors have the same linear relations and the same primitive
    directions as prime-exponent vectors.  Keys run over the numerator's
    base elements ascending, then the denominator's (negative exponents).
    """
    xs = [Fraction(x) for x in xs]
    if any(x <= 0 or x == 1 for x in xs):
        raise ValueError("need positive rationals other than 1")
    base = {n for x in xs for n in (x.numerator, x.denominator) if n > 1}
    # replace two elements sharing g > 1 by g, a/g, b/g; every input stays a
    # product of powers of the base, and the product of the base falls
    while pair := next(((a, b) for a, b in combinations(base, 2) if math.gcd(a, b) > 1), None):
        a, b = pair
        g = math.gcd(a, b)
        base = ((base - {a, b}) | {g, a // g, b // g}) - {1}
    base = sorted({_least_root(b) for b in base})
    vecs = []
    for x in xs:
        vec = {}
        for sign, n in ((1, x.numerator), (-1, x.denominator)):
            for b in base:
                e = 0
                while n % b == 0:
                    n //= b
                    e += 1
                if e:
                    vec[b] = sign * e
        vecs.append(vec)
    return vecs


def _exponent_lattice(xs):
    """Exponent vectors of the positive rationals xs over their coprime base
    (`_exponent_vectors`) and whether they lie on one line through the origin.

    Returns (vecs, pair, u, cs).  When some vector is not proportional to
    vecs[0], pair = (0, j) for the first such j, which is also the first
    non-proportional pair (i, j), i < j, and u = cs = None.  Otherwise pair
    is None, u is the primitive direction of vecs[0] and vecs[i] = cs[i] * u;
    every cs[i] is an integer because u is primitive.
    """
    vecs = _exponent_vectors(xs)
    g = math.gcd(*vecs[0].values())
    u = {p: e // g for p, e in vecs[0].items()}
    anchor = next(iter(u))
    cs = []
    for j, v in enumerate(vecs):
        c = v.get(anchor, 0) // u[anchor]
        if v != {p: c * e for p, e in u.items()}:
            return vecs, (0, j), None, None
        cs.append(c)
    return vecs, None, u, cs


@dataclass
class PeriodicityVerdict:
    periodic: bool
    exact: bool
    generator: float | None = None
    generator_expr: str | None = None
    witness: tuple | None = None  # 1-based (i, j) with log r_i / log r_j irrational
    certificate: str = ""


def _log(x):
    """log x for an exact x > 0 from the integers num/den of `quadfield._fixed`:
    log(num/den) = log(float(x)) in the float range, log num - log den outside it."""
    num, den = _fixed(_triple(x), _field([x]))
    return math.log(num / den) if abs(num.bit_length() - den.bit_length()) < 1000 else math.log(num) - math.log(den)


def _text(x):
    """str(x) for an int, Fraction, QuadExact or dict of ints, but with each integer past
    Python's int-to-str limit written as its bit length: no verdict fails on its text."""
    if isinstance(x, dict):
        return "{" + ", ".join(f"{_text(k)}: {_text(v)}" for k, v in x.items()) + "}"
    if isinstance(x, QuadExact):
        return f"QuadExact({_text(x.a)}{f' + {_text(x.b)}*sqrt({x.d})' if x.b else ''})"
    if isinstance(x, Fraction) and x.denominator > 1:
        return f"{_text(x.numerator)}/{_text(x.denominator)}"
    try:
        return str(x)
    except ValueError:
        return f"{'-' if x < 0 else ''}<{abs(int(x)).bit_length()}-bit integer>"


def _denominator_norm(x):
    """D(x), the leading coefficient of x's primitive integer minimal polynomial, for an
    irrational x = (a + b sqrt d)/den: the norm of its denominator ideal, so D(x^m) =
    D(x)^|m| when |N(x)| = 1 (Bombieri & Gubler, Heights in Diophantine Geometry, ch. 1)."""
    a, b, den = _triple(x)
    return den * den // math.gcd(den * den, 2 * a * den, a * a - x.d * b * b)


def _unit_exponent(x, y):
    """|log x / log y| as a Fraction for units x, y != 1 of one real quadratic field, which are
    +-e^Z (Dirichlet): Euclid divides A = max(x, 1/x) by the largest power B^m <= A of
    B = max(y, 1/y), found by squaring, and recurses on B and the remainder until it is 1."""
    a, b = (x if x > 1 else 1 / x), (y if y > 1 else 1 / y)
    pows, m = [b], 0
    while (sq := pows[-1] * pows[-1]) <= a:
        pows.append(sq)
    for i in reversed(range(len(pows))):
        if pows[i] <= a:
            a, m = a / pows[i], m + (1 << i)
    return Fraction(m) if a == 1 else m + 1 / _unit_exponent(b, a)


def is_periodic(ratios):
    """Decide exactly whether {log|r_i|} lies in a single lattice r*Z.

    The ratios are exact: rationals, or elements of one real quadratic
    field Q(sqrt d).  The set is periodic iff every |r_j|^m = |r_1|^k has a
    nonzero integer solution.  Rationals decide that on exponent vectors
    (`_exponent_lattice`).  Otherwise |r_i|^m = |r_j|^k forces
    |N(r_i)|^m = |N(r_j)|^k on the field norms, so norm exponent vectors
    that are not proportional, or a norm of 1 against one that is not,
    certify aperiodicity; when every norm is +-1, so do the denominator norms
    (`_denominator_norm`).  Proportional vectors leave one exponent pair per
    ratio, and an exact power decides it.  Units (every D is 1) get their pairs
    from an exact Euclid (`_unit_exponent`).  Floats raise PreconditionError,
    and modulus 1 is rejected, as 0 is in every lattice, and so is an empty set.
    """
    if not ratios:
        raise ValueError("need at least one ratio")
    if any(abs(r) == 1 for r in ratios):
        raise ValueError("need positive rationals other than 1")
    if not all(is_exact(r) for r in ratios):
        raise PreconditionError("periodicity is decided on exact ratios (rationals or one quadratic field), not floats")
    xs = []
    for r in ratios:
        if isinstance(r, QuadExact):
            xs.append(abs(r) if r.b != 0 else abs(r.a))
        else:
            xs.append(abs(Fraction(r)))

    if all(x == xs[0] for x in xs):
        return PeriodicityVerdict(
            periodic=True,
            exact=True,
            generator=abs(_log(xs[0])),
            generator_expr=f"{'-' if xs[0] < 1 else ''}log({_text(xs[0])})",
            certificate="all contraction ratios share one modulus",
        )

    rational = not _field(xs)
    # |N(x)| = |x * conj(x)|, which is x^2 for a rational x
    keys = xs if rational else [abs(x.a * x.a - x.d * x.b * x.b) if isinstance(x, QuadExact) else x * x for x in xs]
    kind, key = ("", None) if rational else ("norm ", "|N(%s)|")
    if not rational and all(k == 1 for k in keys):  # every x is irrational
        keys, kind, key = [_denominator_norm(x) for x in xs], "denominator norm ", "D(%s)"
    ones = [k == 1 for k in keys]
    if any(ones) and not all(ones):
        i, j = ones.index(True), ones.index(False)
        return PeriodicityVerdict(
            periodic=False,
            exact=True,
            witness=(i + 1, j + 1),
            certificate=(f"{key % 'r_i'} = 1 and {key % 'r_j'} = {_text(keys[j])}, "
                         "so r_i^m = r_j^k forces k = 0, then m = 0"),
        )
    if all(ones):
        exps = [_unit_exponent(x, xs[0]) for x in xs]
    else:
        vecs, pair, u, cs = _exponent_lattice(keys)
        if pair:
            i, j = pair
            return PeriodicityVerdict(
                periodic=False,
                exact=True,
                witness=(i + 1, j + 1),
                certificate=(
                    f"{kind}exponent vectors {_text(vecs[i])} and "
                    f"{_text(vecs[j])} are not proportional, so r_i^m = r_j^k has no solution"
                ),
            )
        if rational:
            g = math.gcd(*cs)
            base_val = math.prod(Fraction(b) ** e for b, e in u.items())
            return PeriodicityVerdict(
                periodic=True,
                exact=True,
                generator=abs(float(g) * _log(base_val)),
                generator_expr=f"|{g}*log({_text(base_val)})|",
                certificate=f"all exponent vectors proportional to {_text(u)}",
            )
        exps = [Fraction(c, cs[0]) for c in cs]
    if key == "D(%s)":  # D fixes |e| only; e has the sign of log r_j / log r_1
        exps = [e if (x > 1) == (xs[0] > 1) else -e for e, x in zip(exps, xs)]
    # log r_j = e log r_1 exactly iff r_1^num(e) = r_j^den(e)
    for j, e in enumerate(exps):
        if xs[0] ** e.numerator != xs[j] ** e.denominator:
            return PeriodicityVerdict(
                periodic=False,
                exact=True,
                witness=(1, j + 1),
                certificate=(
                    f"the {kind.strip()}s leave only r_1^{e.numerator} = r_{j + 1}^{e.denominator}, "
                    "which fails in exact arithmetic"
                ),
            )
    den = math.lcm(*(e.denominator for e in exps))
    g = Fraction(math.gcd(*(e.numerator * (den // e.denominator) for e in exps)), den)
    return PeriodicityVerdict(
        periodic=True,
        exact=True,
        generator=float(g) * abs(_log(xs[0])),
        generator_expr=f"{g}*|log r_1|",
        certificate=f"exact powers give log r_j / log r_1 = {', '.join(map(str, exps))}",
    )


@dataclass
class LatticeVerdict:
    contained: bool
    trivially: bool
    exact: bool
    certificate: str = ""
    witness: tuple | None = None  # 1-based maps (i, j, k) whose log|r| fit no translated lattice


def lattice_check_fixed_point_set(ifs):
    """Is {log|f_i'(y_i)|: f_i(y_i) = y_i} inside a translated lattice t + r*Z?

    Affine maps give e_i = log|r_i| exactly.  At most two distinct values
    always fit.  Sorted distinct values e_1 < e_2 < ... fit iff the
    differences e_i - e_1 lie in one lattice r*Z, which `is_periodic`
    decides on the quotients |r_i|/|r_1|.  Smooth systems raise
    PreconditionError.
    """
    if not ifs.is_affine:
        raise PreconditionError(f"the fixed-point lattice check requires an affine IFS; {ifs.name} has a smooth map")
    moduli = [abs(m.ratio) for m in ifs.maps]
    vals = sorted(set(moduli))
    if len(vals) < 3:
        return LatticeVerdict(
            contained=True,
            trivially=True,
            exact=True,
            certificate=f"{len(vals)} distinct derivative values always fit a translated lattice",
        )
    v = is_periodic([x / vals[0] for x in vals[1:]])
    if v.periodic:
        return LatticeVerdict(contained=True, trivially=False, exact=True, certificate="all difference ratios rational")
    i, j = v.witness
    return LatticeVerdict(
        contained=False,
        trivially=False,
        exact=True,
        witness=tuple(moduli.index(vals[k]) + 1 for k in (0, i, j)),
        certificate=v.certificate,
    )


# -- Diophantine scans -------------------------------------------------------


def _inf_y_max_dists(vs, xs):
    """inf over y of max_i d(v_i x + y, Z) at each x of xs, exactly on the circle.

    The objective is a max of unit-slope tent functions of y; its minima sit
    at circular midpoints between consecutive tent peaks, so evaluating the
    finitely many midpoints is exact (up to float rounding).  Every x is
    taken in one array pass, in row chunks (_row_chunks) that bound each
    x-by-midpoint-by-value block.
    """
    vs = np.asarray(vs, dtype=float)
    out, start = [], 0
    for rows in _row_chunks(len(xs), len(vs) ** 2):
        us = (vs * xs[start : start + rows, None]) % 1.0
        start += rows
        peaks = np.sort((0.5 - us) % 1.0, axis=1)
        mids = (peaks + np.diff(np.concatenate([peaks, peaks[:, :1] + 1.0], axis=1), axis=1) / 2.0) % 1.0
        vals = (us[:, None, :] + mids[:, :, None]) % 1.0
        out.append(np.minimum(vals, 1.0 - vals).max(axis=2).min(axis=1))
    return np.concatenate(out)


@dataclass
class ScanReport:
    xs: np.ndarray
    ms: np.ndarray
    fitted_c: float
    fitted_l: float
    min_m: float
    positive: bool


def diophantine_scan(log_ratios, x_max=1000.0):
    """Scan m(x) = inf_y max_i d(v_i x + y, Z) on a grid of 40 points per decade and fit
    the polynomial lower envelope m(x) ~ C / x^l.  For two distinct values,
    positive and min_m are exact over [1, x_max], from m's closed form."""
    vs = [float(v) for v in log_ratios]
    if len(vs) < 2:
        # single ratio: y always cancels the only term, m(x) = 0
        return ScanReport(
            xs=np.array([]),
            ms=np.array([]),
            fitted_c=0.0,
            fitted_l=float("inf"),
            min_m=0.0,
            positive=False,
        )
    n_pts = max(8, int(40 * math.log10(max(x_max, 10.0))))
    xs = np.exp(np.linspace(math.log(1.0), math.log(x_max), n_pts))
    ms = _inf_y_max_dists(vs, xs)
    positive, min_m = bool(ms.min() > 0), float(ms.min())
    if len(set(vs)) == 2:
        # m(x) = d(delta x, Z)/2 is 0 at each x = k/delta, which the grid can
        # miss; with no such x in [1, x_max], m is least at an end
        delta = max(vs) - min(vs)
        positive = math.ceil(delta) > delta * x_max
        min_m = min(abs(t - round(t)) for t in (delta, delta * x_max)) / 2 if positive else 0.0
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
    # zero or near-zero values in the scan leave no polynomial envelope
    fitted_c, fitted_l = 0.0, float("inf")
    if len(env_x) >= 3 and positive:
        slope, intercept = np.polyfit(env_x, env_m, 1)
        fitted_c, fitted_l = math.exp(float(intercept)), max(-float(slope), 0.0)
    return ScanReport(xs=xs, ms=ms, fitted_c=fitted_c, fitted_l=fitted_l, min_m=min_m, positive=positive)


# -- continued fractions -----------------------------------------------------


@dataclass
class CfReport:
    convergents: list  # (a_k, p_k, q_k)
    max_mu: float  # the largest empirical irrationality exponent mu_k
    verdict: str  # consistent | liouville-like


def _convergents(terms, q_max):
    """Yield (a_k, p_k, q_k) for the continued fraction [a_0; a_1, ...] of
    `terms`, stopping after the first q_k > q_max."""
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{-2}/q_{-2}, p_{-1}/q_{-1} seeds
    for a in terms:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield a, p1, q1
        if q1 > q_max:
            return


def _fraction_terms(x):
    """Continued-fraction terms of a Fraction, by Euclid's algorithm."""
    num, den = x.numerator, x.denominator
    while den != 0:
        a = num // den
        yield a
        num, den = den, num - a * den


def li_sahlsten_check(x, *, q_max=10**6):
    """Continued-fraction profile of the exact rational x, a finite stand-in
    for a real number such as a truncated Liouville series.

    mu_k = -log|x - p_k/q_k| / log q_k estimates the irrationality exponent
    along the convergents with q_k <= q_max (and the first one past it);
    bounded mu is consistent with the polynomial condition at l = max mu_k,
    exploding mu is reported Liouville-like.
    """
    x = Fraction(x)
    convs = list(_convergents(_fraction_terms(x), q_max))
    mus = []
    with mpmath.workdps(60):
        for _, pk, qk in convs:
            diff = abs(x - Fraction(pk, qk))
            if qk < 2 or diff == 0:
                continue  # diff == 0: the terminating convergent of a finite stand-in
            d = float(mpmath.log(mpmath.mpf(diff.numerator)) - mpmath.log(diff.denominator))
            mus.append(-d / math.log(qk))
    max_mu = max(mus) if mus else 2.0
    verdict = "liouville-like" if max_mu >= 4.0 else "consistent"
    return CfReport(convergents=convs, max_mu=max_mu, verdict=verdict)


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
    if not phi.is_affine:
        raise PreconditionError("inducing on an aperiodic pair needs an affine IFS")
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
    psi = Ifs(psi_maps, phi.interval, name=f"{phi.name}-induced")
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
    out = Ifs(maps, phi.interval, name=f"{phi.name}-phi{m}")
    out.words = words
    return out


@dataclass
class IntegerFormReport:
    in_form: bool
    base: int | None = None
    exponents: list | None = None
    gcd: int | None = None
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
    _, pair, u, ks = _exponent_lattice(ratios)
    if pair:
        return IntegerFormReport(in_form=False, note="no common integer base")
    base = math.prod(b ** -e for b, e in u.items())
    g = math.gcd(*ks)
    return IntegerFormReport(
        in_form=True,
        base=base,
        exponents=ks,
        gcd=g,
        note="" if g == 1 else f"exponents share the factor {g}; reduced base {base ** g}",
    )


# -- Moser-style generator ---------------------------------------------------


@dataclass
class MoserInstance:
    v: tuple  # (1, 2, alpha1 + 1, alpha2 + 1) as floats
    li_reports: tuple
    scan: ScanReport
    tau: float


def _cf_build(terms):
    """Fraction value of [0; a_1, a_2, ...]."""
    *_, (_, p, q) = _convergents([0, *terms], math.inf)
    return Fraction(p, q)


_LIOUVILLE_DIGITS = 400  # decimal digits of the largest term kept


def _liouville_terms(start, depth):
    """CF terms with q_{k+1} >= q_k^k: denominators explode super-polynomially."""
    terms = list(start)
    while len(terms) < len(start) + depth:
        *_, (_, _, q) = _convergents([0, *terms], math.inf)
        nxt = max(q ** max(len(terms), 2), 2)
        if len(str(nxt)) > _LIOUVILLE_DIGITS:
            break
        terms.append(nxt)
    return terms


def moser_family(tau=3.0, liouville_depth=3, rng_seed=0):
    """A concrete frequency tuple v = (1, 2, alpha1+1, alpha2+1) whose alphas
    are Liouville-like (exploding continued-fraction denominators) while the
    finite Diophantine scan still shows a positive polynomial envelope.

    The returned instance is verified only on the scanned range; the general
    existence statement is taken as given, not re-proved here.
    """
    if liouville_depth < 1:
        raise ValueError("liouville_depth must be >= 1")
    if tau < -1:  # the fitted envelope exponent is >= 0, so l <= tau + 1 never holds
        raise ValueError(f"tau must be >= -1, got {tau}")
    rng = np.random.default_rng(rng_seed)
    for _ in range(8):
        s1 = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
        s2 = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
        if s1 == s2:
            continue
        t1 = _liouville_terms(s1, liouville_depth)
        t2 = _liouville_terms(s2, liouville_depth)
        a1, a2 = _cf_build(t1), _cf_build(t2)
        rep1 = li_sahlsten_check(a1, q_max=10**9)
        rep2 = li_sahlsten_check(a2, q_max=10**9)
        if rep1.verdict != "liouville-like" or rep2.verdict != "liouville-like":
            continue
        v = (1.0, 2.0, 1.0 + float(a1), 1.0 + float(a2))
        scan = diophantine_scan(v)
        if scan.positive and scan.fitted_l <= tau + 1:
            return MoserInstance(v=v, li_reports=(rep1, rep2), scan=scan, tau=tau)
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
        logs = sorted(set(ifs.steps.tolist()))
        dio = diophantine_scan(logs)
    return ClassificationReport(
        name=ifs.name,
        periodicity=periodicity,
        lattice=lattice,
        diophantine=dio,
        integer_form=integer_pisot_form_check(ifs),
    )
