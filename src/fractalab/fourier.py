"""Fourier transforms of self-similar and self-conformal measures.

F_q(nu) = integral of exp(2*pi*i*q*x) dnu(x).  The word-tree evaluator uses
the self-similarity identity F_u = sum_i p_i e^{2 pi i u t_i} F_{r_i u} with
memoization on the exact ratio product, so the cost is polynomial in log q
(the number of distinct products |r_eta| above the leaf cutoff).  Ratios,
translations and exact frequencies, rational or in a quadratic field Q(sqrt d),
are held as integer triples (a + b*sqrt(d))/den.  A phase is reduced mod 1 in
integers: exactly for rationals, and in 128-bit fixed point via isqrt
(quadfield._ratio) for b != 0, since Pisot-scale non-decay is destroyed by
even a float-epsilon drift of q.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .ifs_core import PreconditionError, _draw_symbols, _pull_back, compose_word
from .quadfield import QuadExact, _ratio, _times, _to_float, _triple, is_exact

TWO_PI = 2 * math.pi


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


def _normed(a, b, den):
    g = gcd(a, b, den)
    return a // g, b // g, den // g


def _unit(x, d):
    """e(x) = exp(2*pi*i*x) for a triple x, with x mod 1 taken in integers:
    exactly when x is rational, to 2^-128 otherwise."""
    num, den = _ratio(x, d)
    return cmath.exp(1j * TWO_PI * ((num % den) / den))


def _exact_unit(x):
    """e(x) for an exact x, reduced mod 1 as the word tree reduces its phases."""
    return _unit(_triple(x), x.d if isinstance(x, QuadExact) else 0)


def fourier_word_tree(ifs, p, q, tol, max_nodes=2_000_000):
    """F_q(nu) of an affine IFS to within tol, by the word tree.

    F_{qs} = sum_i p_i e(q s t_i) F_{q s r_i} over exact scales s, memoised on
    s, down to leaves where 2*pi*|q s|*width <= tol and F_{qs} is replaced by
    the phase at the interval centre.  An exact q keeps every phase exact
    (see _unit); a float q uses float(q)*float(s).  The triples, field and
    width are those the Ifs derived; only q's field is reconciled here.  The
    tree is walked with an explicit stack, so its depth is unbounded; more
    than max_nodes distinct scales raise BudgetError.
    """
    if not ifs.is_affine:
        raise PreconditionError("word-tree Fourier evaluation requires an affine IFS")
    if tol <= 0:
        raise ValueError("tol must be positive")
    weights = [float(Fraction(w)) for w in p]
    if len(weights) != ifs.n:
        raise ValueError("weight vector length does not match the IFS")
    tol = float(tol)
    d = (q.d if isinstance(q, QuadExact) else 0) or ifs.field
    if ifs.field not in (0, d):
        raise ValueError("mixed quadratic fields")
    ratios, width = ifs.ratio_triples, ifs.width_float
    factors = (*ifs.translation_triples, ifs.centre_triple)
    if is_exact(q):
        q3 = _triple(q)
        q = _to_float(q3, d)

        def freq(s, sf):
            return _times(q3, s, d)

        def unit(u, t):
            return _unit(_times(u, t, d), d)

    else:
        q = float(q)
        factors = [_to_float(t, d) for t in factors]

        def freq(s, sf):
            return q * sf

        def unit(u, t):
            return cmath.exp(1j * TWO_PI * (u * t))

    if q == 0:
        return FourierSample(q=0.0, value=1 + 0j, error_bound=0.0, method="word_tree")
    q_abs = abs(q)
    *shifts, mid = factors

    # A node is expanded on its first visit and summed, in map order, once
    # all its children are memoised; its child list is dropped then.
    root = (1, 0, 1)
    memo, expanded, stack = {}, {}, [root]
    nodes = 0
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
        elif s in expanded:
            u, kids = expanded.pop(s)
            val = 0j
            for w, t, k in zip(weights, shifts, kids):
                val += w * unit(u, t) * memo[k]
            memo[s] = val
            stack.pop()
        else:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetError(f"word tree exceeded {max_nodes} nodes at tol={tol}")
            sf = _to_float(s, d)
            u = freq(s, sf)
            u_abs = q_abs * abs(sf)
            if TWO_PI * u_abs * width <= tol:
                memo[s] = unit(u, mid)
                stack.pop()
            else:
                kids = [_normed(*_times(s, r, d)) for r in ratios]
                expanded[s] = u, kids
                stack += kids
    return FourierSample(
        q=q, value=memo[root], error_bound=tol, method="word_tree", nodes=nodes
    )


def sample_points(ifs, p, n_points, rng, eps):
    """n_points approximate nu-samples, each within eps of a true x_omega."""
    length = max(1, int(math.ceil(math.log(max(ifs.width_float / eps, 2.0)) / ifs.big_d)))
    sym = _draw_symbols(ifs, p, rng, (n_points, length))
    return _pull_back(ifs, sym, np.full(n_points, float(ifs.interval_mid())))


def fourier_mc(ifs, p, q, samples, rng_seed=0):
    """Monte Carlo F_q(nu) as the empirical mean of e(q x_omega)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    qf = float(q)
    if qf == 0:
        return FourierSample(q=0.0, value=1 + 0j, error_bound=0.0, method="monte_carlo")
    rng = np.random.default_rng(rng_seed)
    eps = 1.0 / (100.0 * abs(qf) * samples) if qf else 1.0
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
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q grid must be strictly increasing")
    out = []
    for q in qs:
        if method == "word_tree":
            out.append(fourier_word_tree(ifs, p, q, tol))
        else:
            out.append(fourier_mc(ifs, p, q, samples, rng_seed))
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

    if any(r <= 0 for r in rs):
        raise ValueError("r must be positive")
    if any(q == 0 for q in qs):
        raise ValueError("q must be nonzero")
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
        lhs_err = quad_err + dp * 2 * tol  # |F|^2 tol propagation: 2|F|tol + tol^2
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
    if base < 2:
        raise ValueError("integer base >= 2 required")
    if n_max < 4:
        raise ValueError("n_max must be >= 4: the tail slope spans the last two octaves")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
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
        q=float(q),
        n_values=ns,
        e_n=e_n,
        partial_sums=partial,
        tail_slope=float(tail_slope),
    )
