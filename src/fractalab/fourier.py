"""Fourier transforms of self-similar and self-conformal measures.

F_q(nu) = integral of exp(2*pi*i*q*x) dnu(x).  The word-tree evaluator uses
the self-similarity identity F_u = sum_i p_i e^{2 pi i u t_i} F_{r_i u},
once per distinct exact ratio product, so the cost is polynomial in log q
(the number of distinct products |r_eta| above the leaf cutoff).  Ratios,
translations and exact frequencies, rational or in a quadratic field Q(sqrt d),
are held as integer triples (a + b*sqrt(d))/den.

The work splits in two.  The q-independent half is the system's: its
checks, triples and floats, and a scale graph, the products s with their
floats and children s*r_i, grown lazily in order of decreasing |s|.  It is
made by the first word-tree call on the system (Ifs.scale_graph,
_ScaleGraph) and grown by every later one, whatever its weights, tol or q;
the weights' floats are their WeightVector's.  The per-q half,
fourier_word_tree, finds the scales internal at q, a prefix of that order
since the leaf rule is monotone in |s|, and sums them bottom up, at a cost
set by that prefix, not by the graph.  An exact q is multiplied into the
translations and the centre once per call, and a node's phase is
e(s*(q*t)) at its scale s: integer triples multiply in Z[sqrt d], which is
commutative and associative, so s*(q*t) is the same triple of integers as
(q*s)*t.  A phase is reduced mod 1 in integers: exactly for rationals, and
in 128-bit fixed point via isqrt (quadfield._ratio) for b != 0, since
Pisot-scale non-decay is destroyed by even a float-epsilon drift of q.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

import numpy as np

from .ifs_core import (PreconditionError, WeightVector, _draw_symbols, _pull_back, _require_int, _row_chunks,
                       _weight_vector, compose_word)
from .quadfield import QuadExact, _ratio, _times, _to_float, _triple, is_exact

TWO_PI = 2 * math.pi
_I_TWO_PI = 1j * TWO_PI
# The word tree orders scales by their floats.  Each float is within one ulp
# of its scale, so when every |r| <= 1 - 2^-48 a child's float is strictly
# below its parent's, as long as the parent's is a normal float.
_MAX_RATIO = 1 - 2.0**-48
_NORMAL = sys.float_info.min


class BudgetError(RuntimeError):
    pass


@dataclass
class FourierSample:
    q: float
    value: complex
    error_bound: float
    method: str
    mc_stderr: float = 0.0
    nodes: int = 0


def _turns(s, t, d):
    """s*t mod 1 for integer triples s, t of Q(sqrt d), reduced in integers:
    exactly when the product is rational, to 2^-128 otherwise."""
    a, b, den = s
    c, f, g = t
    if b:
        x, y, g = a * c + d * b * f, a * f + b * c, den * g
    else:
        x, y, g = a * c, a * f, den * g
    if y:
        x, g = _ratio((x, y, g), d)
    return (x % g) / g


def _exact_unit(x):
    """e(x) = exp(2*pi*i*x) for an exact x, with x mod 1 taken in integers as
    the word tree takes it: exactly when x is rational, to 2^-128 otherwise."""
    return cmath.exp(_I_TWO_PI * _turns((1, 0, 1), _triple(x), x.d if isinstance(x, QuadExact) else 0))


class _ScaleGraph:
    """The word tree's set-up and q-independent half for one affine system,
    kept on it as Ifs.scale_graph: made by the first word-tree call on it and
    grown by every later one, whatever its weights, tol, q or budget.  It
    holds no reference to the Ifs.

    Making it checks the system (affine, every |r| <= _MAX_RATIO) and keeps
    what each call reads: the field d, the width of I, the integer triples of
    the ratios (last map first), translations and centre, and the floats of
    the last two.

    Node i is an exact scale (A[i] + B[i]*sqrt d)/D[i] with its float sf[i].
    Nodes are expanded from a heap in order of decreasing |sf|: `order` lists
    the expanded ones in that order, the children s*r_j of order[m] sit at
    kids[m*n_maps:(m+1)*n_maps], last map first, and sizes[m] is the number of
    nodes once order[m] is expanded.  A child's |sf| is strictly below its
    parent's (see _MAX_RATIO), so a child is never a node already expanded,
    and only the frontier (the heap) needs a map from triples to ids.

    Why a shared graph moves no output bit: heap pops come in increasing
    (-|sf|, id) order, each child's key being above its parent's, so growth
    that stops at one threshold and later resumes gives the same ids, order
    and kids as a single growth to the last threshold.  The leaf rule is
    monotone in |sf| and a node reads only its children, so each call's tree,
    and with it its value, nodes and error_bound, is that of a fresh Ifs.
    """

    def __init__(self, ifs):
        if not ifs.is_affine:
            raise PreconditionError("word-tree Fourier evaluation requires an affine IFS")
        field = ifs.field
        ratios = [_triple(r) for r in ifs.ratios]
        if (r_max := max(abs(_to_float(r, field)) for r in ratios)) > _MAX_RATIO:
            raise PreconditionError(f"word tree needs every |ratio| <= 1 - 2^-48, got {r_max!r}")
        self.ratios, self.field, self.width, self.n_maps = ratios[::-1], field, ifs.width_float, ifs.n
        self.factors = (*map(_triple, ifs.translations), _triple(ifs.interval_mid()))
        self.float_factors = [_to_float(t, field) for t in self.factors]
        root = (1, 0, 1)
        self.A, self.B, self.D, self.sf = [1], [0], [1], array("d", [1.0])
        self.order, self.kids, self.sizes = array("i"), array("i"), array("i")
        self.heap, self.index = [(-1.0, 0, root)], {root: 0}

    def grow(self, q_abs, width, tol, max_nodes):
        """Expand the heap's top while it is internal at q_abs.  Then every
        node of the graph belongs to this call's tree, and the graph's size is
        this call's node count so far.  A node is expanded whole, so the graph
        stays consistent when the budget is exceeded.  The loop runs once per
        node, so it reads local names."""
        frontier, find, d, ratios, sf = self.heap, self.index, self.field, self.ratios, self.sf
        add_a, add_b, add_d, add_sf, add_kid = self.A.append, self.B.append, self.D.append, sf.append, self.kids.append
        add_order, add_size = self.order.append, self.sizes.append
        while frontier:
            top = -frontier[0][0]
            if TWO_PI * (q_abs * top) * width <= tol:
                break
            if top < _NORMAL:
                raise PreconditionError(f"word tree reached a subnormal scale at |q|={q_abs!r}, tol={tol!r}")
            _, i, s = heappop(frontier)
            del find[s]
            a, b, den = s
            for c, f, g in ratios:
                if b:
                    x, y, g = a * c + d * b * f, a * f + b * c, den * g
                else:
                    x, y, g = a * c, a * f, den * g
                e = gcd(x, y, g)
                if e > 1:
                    x, y, g = x // e, y // e, g // e
                t = x, y, g
                j = find.get(t)
                if j is None:
                    j = find[t] = len(sf)
                    v = _to_float(t, d) if y else x / g
                    add_a(x)
                    add_b(y)
                    add_d(g)
                    add_sf(v)
                    heappush(frontier, (-abs(v), j, t))
                add_kid(j)
            add_order(i)
            add_size(len(sf))
            if len(sf) > max_nodes:
                raise BudgetError(f"word tree exceeded {max_nodes} nodes at tol={tol}")


def fourier_word_tree(ifs, p, q, tol, max_nodes=2_000_000):
    """F_q(nu) of an affine IFS to within tol, by the word tree.

    F_{qs} = sum_i p_i e(s (q t_i)) F_{q s r_i} over exact scales s, each
    evaluated once, down to leaves where 2*pi*|q s|*width <= tol and F_{qs}
    is replaced by the phase e(s (q mid)) at the interval centre.  An exact
    q enters once per call, in the triples q*t_i and q*mid, and each phase
    is reduced mod 1 in integers (see _exact_unit); a float q uses
    (float(q)*float(s))*float(t).  The system's first call checks it and
    makes its scale graph (_ScaleGraph); the weights' floats are their
    WeightVector's, made from p unless p is one.  The leaf rule is monotone in |sf|,
    so the scales internal at q are a prefix of the graph's order: a call
    grows the graph while the heap's top is internal at q, finds the prefix
    by bisection, and sums it bottom up in a list sized by the prefix, each
    node as val += w * phase * child in map order from 0j.  A node reads
    only its children, so this order gives the bits of any other, and a
    call costs its own tree however large the graph.  A call counts its own
    nodes, the internal scales plus the distinct leaves, and raises
    BudgetError past max_nodes.  A system that is not affine, a ratio within
    2^-48 of 1, or a scale below the normal floats (|q|*width/tol above
    about 1e307) raises PreconditionError.
    """
    if (graph := ifs.scale_graph) is None:
        graph = ifs.scale_graph = _ScaleGraph(ifs)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    tol = float(tol)
    field, width, n_maps = graph.field, graph.width, graph.n_maps
    # _weight_vector(ifs, p) without the call when p is a WeightVector of
    # n_maps weights: thousands of calls are trees of a dozen nodes
    weights = (p if isinstance(p, WeightVector) and len(p) == n_maps else _weight_vector(ifs, p)).floats
    d = (q.d if isinstance(q, QuadExact) else 0) or field
    if field not in (0, d):
        raise ValueError("mixed quadratic fields")
    exact = is_exact(q)
    if exact:
        q3 = _triple(q)
        q = _to_float(q3, d)
        *shifts, mid = [_times(q3, t, d) for t in graph.factors]
    else:
        q = float(q)
        if not math.isfinite(q):
            raise ValueError(f"q must be finite, got {q}")
        *shifts, mid = graph.float_factors
    if q == 0:
        return FourierSample(q=0.0, value=1 + 0j, error_bound=0.0, method="word_tree")
    q_abs = abs(q)
    graph.grow(q_abs, width, tol, max_nodes)
    A, B, D, sf, order, kids, sizes = graph.A, graph.B, graph.D, graph.sf, graph.order, graph.kids, graph.sizes
    n, hi = 0, len(order)
    while n < hi:
        m = (n + hi) // 2
        if TWO_PI * (q_abs * abs(sf[order[m]])) * width <= tol:
            hi = m
        else:
            n = m + 1

    def leaf(k):
        return cmath.exp(_I_TWO_PI * (_turns((A[k], B[k], D[k]), mid, d) if exact else (q * sf[k]) * mid))

    # the prefix's nodes and their children are the first sizes[n - 1] ids
    vals = [None] * (sizes[n - 1] if n else 1)
    nodes = n
    # one reversed iterator yields each node's children in map order
    rkids = reversed(kids[: n * n_maps])
    for i in reversed(order[:n]):
        a, b, den, x = A[i], B[i], D[i], q * sf[i]
        val = 0j
        for w, t, k in zip(weights, shifts, rkids):
            u = vals[k]
            if u is None:
                u = vals[k] = leaf(k)
                nodes += 1
            if exact:  # _turns((a, b, den), t, d), written out
                c, f, g = t
                if b:
                    z, y, g = a * c + d * b * f, a * f + b * c, den * g
                else:
                    z, y, g = a * c, a * f, den * g
                if y:
                    z, g = _ratio((z, y, g), d)
                turns = (z % g) / g
            else:
                turns = x * t
            val += w * cmath.exp(_I_TWO_PI * turns) * u
        vals[i] = val
    if not n:
        vals[0], nodes = leaf(0), 1
    if nodes > max_nodes:
        raise BudgetError(f"word tree exceeded {max_nodes} nodes at tol={tol}")
    return FourierSample(q=q, value=vals[0], error_bound=tol, method="word_tree", nodes=nodes)


def sample_points(ifs, p, n_points, rng, eps):
    """n_points approximate nu-samples, each within eps of a true x_omega,
    pulled back from symbols drawn in the row chunks of _row_chunks."""
    length = max(1, int(math.ceil(math.log(max(ifs.width_float / eps, 2.0)) / ifs.big_d)))
    x = [_pull_back(ifs, _draw_symbols(ifs, p, rng, (m, length))) for m in _row_chunks(n_points, length)]
    return np.concatenate([np.empty(0), *x])


def fourier_mc(ifs, p, q, samples, rng_seed=0):
    """Monte Carlo F_q(nu) as the empirical mean of e(q x_omega)."""
    _require_int("samples", samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    qf = float(q)
    if qf == 0:
        return FourierSample(q=0.0, value=1 + 0j, error_bound=0.0, method="monte_carlo")
    rng = np.random.default_rng(rng_seed)
    eps = 1.0 / (100.0 * abs(qf) * samples)
    # pointwise phase error 2*pi*q*eps, negligible against the MC stderr
    x = sample_points(ifs, p, samples, rng, eps)
    vals = np.exp(2j * np.pi * qf * x)
    stderr = 1.0 / math.sqrt(samples)
    return FourierSample(
        q=qf,
        value=complex(vals.mean()),
        error_bound=TWO_PI * abs(qf) * eps,
        method="monte_carlo",
        mc_stderr=stderr,
    )


@dataclass
class DecayProfile:
    samples: list  # FourierSample, q strictly increasing
    alpha: float
    intercept: float
    residual: float
    degenerate: bool


def per_decade_max(samples):
    """{decade j: max |F_q| over q in [10^j, 10^{j+1})}; q <= 0 is skipped."""
    out = {}
    for s in samples:
        if s.q <= 0:
            continue
        j = int(math.floor(math.log10(s.q) + 1e-12))
        out[j] = max(out.get(j, 0.0), abs(s.value))
    return out


def decay_profile(ifs, p, q_grid, tol, method="word_tree", samples=100_000, rng_seed=0):
    """Samples of |F_q| on the grid plus the fitted model |F| ~ A/(log q)^alpha.

    The fit runs over the top decade of the grid only (the model is
    asymptotic); alpha is reported with its residual, never asserted tight.
    """
    if method not in ("word_tree", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}; known: word_tree, monte_carlo")
    qs = list(q_grid)
    if not qs:
        raise ValueError("q grid must not be empty")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q grid must be strictly increasing")
    if method == "word_tree":
        out = [fourier_word_tree(ifs, p, q, tol) for q in qs]
    else:
        out = [fourier_mc(ifs, p, q, samples, rng_seed) for q in qs]
    qmax = float(qs[-1])
    fit_pts = [
        (math.log(math.log(s.q)), math.log(abs(s.value)))
        for s in out
        if float(s.q) >= qmax / 10 and abs(s.value) > max(tol, 1e-300) and s.q > 1
    ]
    if len(fit_pts) < 3:
        return DecayProfile(out, float("nan"), float("nan"), float("nan"), True)
    xs = np.array([a for a, _ in fit_pts])
    ys = np.array([b for _, b in fit_pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return DecayProfile(out, -float(slope), float(intercept), resid, False)


@dataclass
class ScaledEnergyResult:
    lhs: float
    lhs_err: float
    rhs: float
    rhs_stderr: float

    def holds(self):
        return self.lhs <= self.rhs + self.lhs_err + 3 * self.rhs_stderr


def scaled_energy_check(ifs, p, qs, k, rs, chi, samples=20_000, rng_seed=0):
    """Both sides of the scaled-energy inequality at one k: per q in qs, one result per r in rs.

    lhs = int_{k chi}^{k chi + D'} |F_{q e^{-t}}(nu)|^2 dt by adaptive
    quadrature over word-tree values, once per q as it does not read r;
    rhs = D' * (e^2/(r|q|) + ball-mass term), the mass estimated by Monte
    Carlo over independent pairs drawn from rng_seed, once per r.
    """
    from scipy import integrate

    _require_int("samples", samples, 1)
    p = _weight_vector(ifs, p)
    if any(r <= 0 for r in rs):
        raise ValueError("r must be positive")
    if any(q == 0 for q in qs):
        raise ValueError("q must be nonzero")
    if chi * k > math.log(sys.float_info.max):
        raise ValueError(f"e^(k chi) overflows a float at k = {k}, chi = {chi}")
    dp = ifs.big_d_prime
    tol = 1e-3

    masses = []
    for r in rs:
        rng = np.random.default_rng(rng_seed)
        radius = math.exp(chi * k) * r
        eps = min(radius / 100, 1e-6) + 1e-12
        x = sample_points(ifs, p, samples, rng, eps)
        y = sample_points(ifs, p, samples, rng, eps)
        mass = float(np.mean(np.abs(x - y) <= radius))
        masses.append((mass, math.sqrt(max(mass * (1 - mass), 1e-12) / samples) + 1.0 / samples))

    def integrand(t, qf):
        return abs(fourier_word_tree(ifs, p, qf * math.exp(-t), tol).value) ** 2

    out = []
    for q in qs:
        qf = float(q)
        # the integrand oscillates on the scale 1/(q e^{-t}); the reported
        # quadrature error is carried into the budget, so convergence
        # warnings carry no extra information
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            lhs, quad_err = integrate.quad(
                integrand, k * chi, k * chi + dp, args=(qf,), epsabs=1e-4, epsrel=1e-4, limit=200
            )
        if not math.isfinite(lhs):
            raise RuntimeError("quadrature failed to converge")
        # a word-tree value errs by at most tol/2: a leaf replaces F_u by
        # e(u mid), off by at most pi|u| width <= tol/2, and the weighted sums
        # of unit phases above it do not grow that.  With |F| <= 1, the error
        # in |F|^2 is at most 2|F|(tol/2) + (tol/2)^2 = tol + tol^2/4, which
        # is within 2 tol for tol <= 4
        lhs_err = quad_err + dp * 2 * tol
        out.append([
            ScaledEnergyResult(lhs, lhs_err, dp * (math.e**2 / (r * abs(qf)) + mass), dp * mass_stderr)
            for r, (mass, mass_stderr) in zip(rs, masses)
        ])
    return out


@dataclass
class DelCriterionReport:
    base: int
    q: float
    n_values: np.ndarray
    e_n: np.ndarray
    partial_sums: np.ndarray  # cumulative sum of e_N / N
    tail_slope: float  # d(partial)/d(log N) over the last two octaves

    def bounded_verdict(self):
        """True when partial sums look bounded (tail slope near zero)."""
        return self.tail_slope < 0.05


def del_criterion_diagnostic(ifs, p, base, q, n_max, samples=200, rng_seed=0):
    """L^2 averages e_N = E_nu |1/N sum_{n<=N} e(q base^n x)|^2 and the
    partial sums sum e_N / N, with exact big-integer orbit arithmetic.

    Points are depth-L cylinder representatives f_eta(mid I) with L chosen so
    every orbit value base^n x mod 1 (n <= N_max) is exact for the
    representative; bounded partial sums support nu-a.e. base-normality.
    """
    if not ifs.is_affine or ifs.field:
        raise PreconditionError("exact orbit arithmetic requires rational affine maps")
    for name, value in (("base", base), ("n_max", n_max), ("samples", samples)):
        _require_int(name, value)
    if base < 2:
        raise ValueError("integer base >= 2 required")
    if n_max < 4:
        raise ValueError("n_max must be >= 4: the tail slope spans the last two octaves")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    try:
        qf = float(q)
    except OverflowError:
        raise ValueError("q overflows a float: |q| must be below 2^1024") from None
    # digits of accuracy needed at shift n_max plus slack
    length = int(math.ceil(n_max * math.log(base) / ifs.big_d)) + 64
    rng = np.random.default_rng(rng_seed)
    qi = Fraction(q)

    w_acc = np.zeros((samples, n_max), dtype=complex)
    for s_idx in range(samples):
        word = _draw_symbols(ifs, p, rng, length)
        val = qi * compose_word(ifs, (word + 1).tolist())(Fraction(ifs.interval_mid()))
        num, den = val.numerator, val.denominator
        angles = np.empty(n_max)
        for n in range(n_max):
            num = (num * base) % den
            angles[n] = num / den
        w_acc[s_idx] = np.exp(2j * np.pi * angles)

    means = np.cumsum(w_acc, axis=1) / np.arange(1, n_max + 1)
    e_n = np.mean(np.abs(means) ** 2, axis=0)
    ns = np.arange(1, n_max + 1)
    partial = np.cumsum(e_n / ns)
    # slope of the partial sums against log N over the final two octaves
    i1, i2 = n_max // 4 - 1, n_max - 1
    tail_slope = (partial[i2] - partial[i1]) / (math.log(ns[i2]) - math.log(ns[i1]))
    return DelCriterionReport(
        base=base,
        q=qf,
        n_values=ns,
        e_n=e_n,
        partial_sums=partial,
        tail_slope=float(tail_slope),
    )
