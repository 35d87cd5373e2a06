"""Fourier transforms of self-similar and self-conformal measures.

F_q(nu) = integral of exp(2*pi*i*q*x) dnu(x).  The word-tree evaluator uses
the self-similarity identity F_u = sum_i p_i e^{2 pi i u t_i} F_{r_i u} with
memoization on the exact ratio product, so the cost is polynomial in log q
(the number of distinct products |r_eta| above the leaf cutoff).  Frequencies
and ratios in a quadratic field are kept exact until the final phase
reduction mod 1, done in mpmath at high precision: Pisot-scale non-decay is
destroyed by even a float-epsilon drift of q.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .ifs_core import PreconditionError, _draw_symbols, _pull_back
from .quadfield import QuadExact, is_exact

TWO_PI = 2 * math.pi


class BudgetError(RuntimeError):
    def __init__(self, msg, achievable_tol=None):
        super().__init__(msg)
        self.achievable_tol = achievable_tol


@dataclass
class FourierSample:
    q: float
    value: complex
    error_bound: float
    method: str
    mc_stderr: float = 0.0
    nodes: int = 0

    @property
    def magnitude(self):
        return abs(self.value)


def _phase_unit(u, factor):
    """exp(2*pi*i*u*factor) with exact mod-1 reduction where possible."""
    if is_exact(u) and is_exact(factor):
        prod = u * factor
        if isinstance(prod, QuadExact):
            if prod.b == 0:
                prod = prod.a
            else:
                mag = abs(float(prod)) + 1
                dps = 40 + int(math.log10(mag))
                frac = float(prod.frac_part_mpf(dps))
                return cmath.exp(1j * TWO_PI * frac)
        if isinstance(prod, Fraction):
            num, den = prod.numerator, prod.denominator
            frac = (num % den) / den
            return cmath.exp(1j * TWO_PI * frac)
        return cmath.exp(1j * TWO_PI * (prod % 1))
    return cmath.exp(1j * TWO_PI * (float(u) * float(factor)))


class WordTreeEvaluator:
    """Memoized word-tree evaluation of F_{q*s}(nu) over exact scales s."""

    def __init__(self, ifs, p, q, tol, max_nodes=2_000_000):
        if not ifs.is_affine:
            raise PreconditionError("word-tree Fourier evaluation requires an affine IFS")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.ifs = ifs
        self.p = [Fraction(w) for w in p]
        if len(self.p) != ifs.n:
            raise ValueError("weight vector length does not match the IFS")
        self.q = q if is_exact(q) else float(q)
        self.q_abs = abs(float(q))
        self.tol = float(tol)
        self.max_nodes = max_nodes
        self.width = float(ifs.interval_width())
        self.center = ifs.interval_mid()
        self.nodes = 0
        self._memo = {}
        self._one = (
            Fraction(1)
            if not isinstance(ifs.ratios[0], QuadExact)
            else QuadExact(1, 0, ifs.ratios[0].d)
        )

    def at_scale(self, s):
        """F_{q*s}(nu) to certified tolerance tol (s exact, |s| <= 1)."""
        cached = self._memo.get(s)
        if cached is not None:
            return cached
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetError(
                f"word tree exceeded {self.max_nodes} nodes at tol={self.tol}",
                achievable_tol=self.tol * 10,
            )
        u_abs = self.q_abs * abs(float(s))
        if TWO_PI * u_abs * self.width <= self.tol:
            u = self.q * s if is_exact(self.q) else float(self.q) * float(s)
            val = _phase_unit(u, self.center) if is_exact(u) else _phase_unit(
                u, float(self.center)
            )
        else:
            u = self.q * s if is_exact(self.q) else float(self.q) * float(s)
            val = 0j
            for w, m in zip(self.p, self.ifs.maps):
                t = m.translation if is_exact(u) else float(m.translation)
                val += float(w) * _phase_unit(u, t) * self.at_scale(s * m.ratio)
        self._memo[s] = val
        return val

    def evaluate(self):
        if self.q_abs == 0:
            return FourierSample(q=0.0, value=1 + 0j, error_bound=0.0, method="word_tree")
        val = self.at_scale(self._one)
        return FourierSample(
            q=float(self.q),
            value=val,
            error_bound=self.tol,
            method="word_tree",
            nodes=self.nodes,
        )


def fourier_word_tree(ifs, p, q, tol, max_nodes=2_000_000):
    return WordTreeEvaluator(ifs, p, q, tol, max_nodes).evaluate()


def sample_points(ifs, p, n_points, rng, eps):
    """n_points approximate nu-samples, each within eps of a true x_omega."""
    dmin, dmax = ifs.deriv_bounds()
    width = float(ifs.interval_width())
    length = max(1, int(math.ceil(math.log(max(width / eps, 2.0)) / -math.log(dmax))))
    sym = _draw_symbols(ifs, p, rng, (n_points, length))
    return _pull_back(ifs, sym, np.full(n_points, float(ifs.x0)))


def fourier_mc(ifs, p, q, samples, rng_seed=0):
    """Monte Carlo F_q(nu) as the empirical mean of e(q x_omega)."""
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

    def per_decade_max(self):
        """{decade j: max |F_q| over q in [10^j, 10^{j+1})}."""
        out = {}
        for s in self.samples:
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

    def holds(self, slack=0.0):
        return self.lhs <= self.rhs + self.lhs_err + 3 * self.rhs_stderr + slack


def scaled_energy_check(ifs, p, q, k, r, chi, samples=20_000, rng_seed=0, tol=1e-3):
    """Both sides of the scaled-energy inequality.

    lhs = int_{k chi}^{k chi + D'} |F_{q e^{-t}}(nu)|^2 dt by adaptive
    quadrature over word-tree values; rhs = D' * (e^2/(r|q|) + ball-mass
    term), the mass estimated by Monte Carlo over independent pairs.
    """
    from scipy import integrate

    if r <= 0:
        raise ValueError("r must be positive")
    qf = float(q)
    dp = ifs.big_d_prime

    def integrand(t):
        return abs(fourier_word_tree(ifs, p, qf * math.exp(-t), tol).value) ** 2

    # the integrand oscillates on the scale 1/(q e^{-t}); the reported
    # quadrature error is carried into the budget, so convergence warnings
    # carry no extra information
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        lhs, quad_err = integrate.quad(
            integrand, k * chi, k * chi + dp, epsabs=1e-4, epsrel=1e-4, limit=200
        )
    if not math.isfinite(lhs):
        raise RuntimeError("quadrature failed to converge")
    lhs_err = quad_err + dp * 2 * tol  # |F|^2 tol propagation: 2|F|tol + tol^2

    rng = np.random.default_rng(rng_seed)
    radius = math.exp(chi * k) * r
    eps = min(radius / 100, 1e-6) + 1e-12
    x = sample_points(ifs, p, samples, rng, eps)
    y = sample_points(ifs, p, samples, rng, eps)
    mass = float(np.mean(np.abs(x - y) <= radius))
    mass_stderr = math.sqrt(max(mass * (1 - mass), 1e-12) / samples) + 1.0 / samples
    rhs = dp * (math.e**2 / (r * abs(qf)) + mass)
    return ScaledEnergyResult(lhs=lhs, lhs_err=lhs_err, rhs=rhs, rhs_stderr=dp * mass_stderr)


@dataclass
class DelCriterionReport:
    base: int
    q: float
    n_values: np.ndarray
    e_n: np.ndarray
    partial_sums: np.ndarray  # cumulative sum of e_N / N
    tail_slope: float  # d(partial)/d(log N) over the last two octaves

    def bounded_verdict(self, slope_floor=0.05):
        """True when partial sums look bounded (tail slope near zero)."""
        return self.tail_slope < slope_floor


def del_criterion_diagnostic(ifs, p, base, q, n_max, samples=200, rng_seed=0):
    """L^2 averages e_N = E_nu |1/N sum_{n<=N} e(q base^n x)|^2 and the
    partial sums sum e_N / N, with exact big-integer orbit arithmetic.

    Points are depth-L cylinder representatives f_eta(x0) with L chosen so
    every orbit value base^n x mod 1 (n <= N_max) is exact for the
    representative; bounded partial sums support nu-a.e. base-normality.
    """
    if not ifs.is_affine or any(isinstance(m.ratio, QuadExact) for m in ifs.maps):
        raise PreconditionError("exact orbit arithmetic requires rational affine maps")
    if base < 2:
        raise ValueError("integer base >= 2 required")
    dmax = max(float(abs(m.ratio)) for m in ifs.maps)
    # digits of accuracy needed at shift n_max plus slack
    length = int(math.ceil(n_max * math.log(base) / -math.log(dmax))) + 64
    rng = np.random.default_rng(rng_seed)
    qi = Fraction(q)

    w_acc = np.zeros((samples, n_max), dtype=complex)
    for s_idx in range(samples):
        word = _draw_symbols(ifs, p, rng, length)
        # exact f_eta(x0): iterate backwards over the word
        x = Fraction(ifs.x0)
        for j in range(length - 1, -1, -1):
            m = ifs.maps[word[j]]
            x = m.ratio * x + m.translation
        val = qi * x
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
