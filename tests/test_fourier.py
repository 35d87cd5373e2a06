"""Fourier transform of self-similar measures: word tree, MC, decay, energy."""

import cmath
import math
import random
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalab.fourier import (
    BudgetError,
    decay_profile,
    del_criterion_diagnostic,
    fourier_mc,
    fourier_word_tree,
    per_decade_max,
    sample_points,
    scaled_energy_check,
)
from fractalab.cocycle_walk import lyapunov
from fractalab.ifs_core import (
    BUILTINS,
    AffineMap,
    Ifs,
    PreconditionError,
    aperiodic_125,
    bernoulli_convolution,
    builtin,
    cantor,
    dyadic_pair,
    golden_bernoulli,
    smooth_example,
)
from fractalab.quadfield import QuadExact, golden_ratio_conjugate

F = Fraction
HALF = (F(1, 2), F(1, 2))
W125 = (F(1, 2), F(1, 4), F(1, 4))
TOL = 1e-10


def bernoulli_cos_product(r, q, terms=200):
    # attractor points are sum_{n>=0} ±r^n (translations ±1), so
    # F_q = prod_{n>=0} cos(2 pi q r^n)
    out = 1.0
    for n in range(terms):
        out *= math.cos(2 * math.pi * q * r**n)
    return out


def test_q_zero_is_total_mass():
    s = fourier_word_tree(cantor(), HALF, 0, TOL)
    assert s.value == 1.0
    assert s.error_bound <= TOL


def test_conjugate_symmetry():
    for q in (1, 3.7, 50):
        a = fourier_word_tree(cantor(), HALF, q, TOL)
        b = fourier_word_tree(cantor(), HALF, -q, TOL)
        assert abs(a.value - b.value.conjugate()) <= 2 * TOL


def test_modulus_bounded_by_one():
    for q in (0.5, 2, 17, 333.3, 9999):
        s = fourier_word_tree(aperiodic_125(), W125, q, 1e-8)
        assert abs(s.value) <= 1 + 1e-8


def test_bernoulli_convolution_cosine_product():
    # symmetric Bernoulli convolution: F_q = prod cos(2 pi q r^n) exactly
    ifs = bernoulli_convolution(F(1, 3))
    for q in (1, 2, 5.5):
        s = fourier_word_tree(ifs, HALF, q, TOL)
        assert s.value.real == pytest.approx(bernoulli_cos_product(1 / 3, q), abs=1e-8)
        assert s.value.imag == pytest.approx(0.0, abs=1e-8)


def test_cantor_self_similarity_under_base_scaling():
    # F(3q) = cos-factor recursion: |F_{3^n}| equals |F_1| for the Cantor measure
    base = abs(fourier_word_tree(cantor(), HALF, 1, TOL).value)
    for n in (1, 2, 3, 4):
        s = fourier_word_tree(cantor(), HALF, 3**n, TOL)
        assert abs(s.value) == pytest.approx(base, abs=1e-7)


def test_recursion_identity():
    # F_u = sum p_i e^{2 pi i u t_i} F_{r_i u}
    ifs, p = aperiodic_125(), W125
    for q in (1.0, 7.0, 41.5):
        lhs = fourier_word_tree(ifs, p, q, TOL).value
        rhs = 0j
        for w, g in zip(p, ifs.maps):
            sub = fourier_word_tree(ifs, p, float(g.ratio) * q, TOL).value
            rhs += float(w) * cmath.exp(2j * math.pi * q * float(g.translation)) * sub
        assert abs(lhs - rhs) <= 5 * TOL


def test_word_tree_agrees_with_monte_carlo():
    ifs, p = cantor(), HALF
    for q in (2, 11, 101):
        wt = fourier_word_tree(ifs, p, q, 1e-9)
        mc = fourier_mc(ifs, p, q, samples=200_000, rng_seed=0)
        assert abs(wt.value - mc.value) <= 4 * mc.mc_stderr + 1e-6


def test_smooth_system_monte_carlo_recursion():
    # for smooth maps the word tree is unavailable; MC still satisfies the
    # self-similarity recursion within sampling error
    ifs = smooth_example()
    q = 3.0
    lhs = fourier_mc(ifs, HALF, q, samples=200_000, rng_seed=1)
    rhs = 0j
    rng_seed = 2
    for w, g in zip(HALF, ifs.maps):
        pts = sample_points(ifs, HALF, 200_000, np.random.default_rng(rng_seed), 1e-12)
        rhs += float(w) * np.mean(np.exp(2j * math.pi * q * g(pts)))
        rng_seed += 1
    assert abs(lhs.value - rhs) <= 5 * lhs.mc_stderr + 5e-3


def test_exact_pisot_frequencies():
    # golden Bernoulli convolution at q = r^{-n}: handled in exact arithmetic,
    # and |F_q| does not tend to zero
    ifs, p = golden_bernoulli(), HALF
    r = golden_ratio_conjugate()
    vals = [abs(fourier_word_tree(ifs, p, r ** -n, 1e-6).value) for n in range(1, 16)]
    assert min(vals) > 1e-4
    # oracle: the n=1 value (frozen from the exact evaluator at tol 1e-10)
    v1 = abs(fourier_word_tree(ifs, p, r**-1, 1e-10).value)
    assert v1 == pytest.approx(vals[0], abs=1e-5)


def test_budget_error_reports_achievable_tol():
    # distinct contraction ratios stop the scale memo from collapsing the
    # tree, so a small node budget is exhausted at high frequency
    with pytest.raises(BudgetError):
        fourier_word_tree(aperiodic_125(), W125, 1e7, 1e-12, max_nodes=200)


@pytest.mark.parametrize(
    "q, tol",
    [(math.nan, 1e-6), (math.inf, 1e-6), (-math.inf, 1e-6), (10.0, math.nan)],
    ids=["q-nan", "q-inf", "q-minus-inf", "tol-nan"],
)
def test_non_finite_inputs_are_refused_before_any_node(q, tol):
    # neither a NaN tol nor a non-finite q ever meets the leaf rule, so the
    # walk would only end at the node budget
    with pytest.raises(ValueError, match="tol must be positive" if math.isnan(tol) else "q must be finite"):
        fourier_word_tree(cantor(), HALF, q, tol, max_nodes=1000)


def test_infinite_tol_makes_the_root_a_leaf():
    s = fourier_word_tree(cantor(), HALF, 7.0, math.inf)
    assert s.nodes == 1
    assert s.value == cmath.exp(2j * math.pi * (7.0 * 0.5))


def _oracle_scales(ifs, q, tol):
    """(distinct scales, words) the word tree must visit at q: a breadth-first
    search over exact Fraction products from 1 that expands a scale while the
    float leaf rule 2*pi*|q s|*width <= tol fails.  Words counts the scales
    with multiplicity, as a tree without the memo would visit them."""
    ratios = [m.ratio for m in ifs.maps]
    q_abs, width = abs(float(q)), ifs.width_float
    seen, level, words = {F(1)}, [F(1)], 1
    while level:
        expand = [s for s in level if not 2 * math.pi * (q_abs * abs(float(s))) * width <= tol]
        kids = [s * r for s in expand for r in ratios]
        words += len(kids)
        level = [k for k in dict.fromkeys(kids) if k not in seen]
        seen.update(level)
    return len(seen), words


@pytest.mark.parametrize("name", ["cantor", "aperiodic-125", "dyadic-pair", "pow2-pair", "bernoulli-1/3"])
@pytest.mark.parametrize("q", [F(12345, 7), 4321.5], ids=["exact", "float"])
def test_node_count_matches_a_breadth_first_oracle(name, q):
    ifs, w = builtin(name)
    tol = 1e-6
    s = fourier_word_tree(ifs, w, q, tol)
    scales, words = _oracle_scales(ifs, q, tol)
    assert s.nodes == scales
    if name == "pow2-pair":
        # ratios 1/4 and 1/8: words such as 12 and 21 share a product
        assert scales < words
    assert fourier_word_tree(ifs, w, q, tol, max_nodes=s.nodes).nodes == s.nodes
    with pytest.raises(BudgetError):
        fourier_word_tree(ifs, w, q, tol, max_nodes=s.nodes - 1)


def _negative_golden():
    """{-r x + r, r^2 x + 1 - r^2} on [0, 1], r = 1/phi: a negative ratio in Q(sqrt 5)."""
    r = golden_ratio_conjugate()
    return Ifs([AffineMap(-r, r), AffineMap(r * r, 1 - r * r)], (0, 1), name="negative-golden")


def _bits(s):
    return s.value.real.hex(), s.value.imag.hex(), s.nodes, s.q, s.error_bound


# each maker builds a fresh system, with no scale graph yet
AFFINE_MAKERS = [lambda name=name: builtin(name) for name in BUILTINS if builtin(name)[0].is_affine]
AFFINE_MAKERS.append(lambda: (_negative_golden(), (F(1, 3), F(2, 3))))


@pytest.mark.parametrize("make", AFFINE_MAKERS, ids=[make()[0].name for make in AFFINE_MAKERS])
def test_one_evaluator_gives_the_bits_of_fresh_calls_in_any_q_order(make):
    # one scale graph serves every q: it grows at the largest q seen and
    # keeps no per-q value, so the q order cannot move a bit
    r = golden_ratio_conjugate()
    qs = [F(1234, 7), F(-98765, 13), 3**9, r**-9, -(r**-14), r**-3 + F(1, 2), 777.25, -4321.5, 12.0, 0, 0.5]
    tol = 1e-6
    w = make()[1]
    fresh = [_bits(fourier_word_tree(make()[0], w, q, tol)) for q in qs]
    assert len(set(fresh)) == len(qs)
    increasing = sorted(range(len(qs)), key=lambda i: abs(float(qs[i])))
    shuffled = list(range(len(qs)))
    random.Random(7).shuffle(shuffled)
    for idx in (increasing, increasing[::-1], shuffled):
        ifs = make()[0]
        assert [_bits(fourier_word_tree(ifs, w, qs[i], tol)) for i in idx] == [fresh[i] for i in idx]


SHARED_GRAPH_SYSTEMS = {
    "aperiodic-125": (aperiodic_125, [W125, (F(1, 5), F(3, 5), F(1, 5))]),
    "pow2-pair": (lambda: builtin("pow2-pair")[0], [(F(1, 3), F(2, 3)), HALF]),
    "cantor": (cantor, [HALF, (F(1, 4), F(3, 4))]),
    "bernoulli-golden": (golden_bernoulli, [HALF, (F(2, 3), F(1, 3))]),
}
_q = st.one_of(
    st.fractions(min_value=-3000, max_value=3000, max_denominator=50),
    st.floats(min_value=-3000, max_value=3000, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SHARED_GRAPH_SYSTEMS)),
    calls=st.lists(st.tuples(_q, st.sampled_from([1e-3, 1e-6, 1e-8]), st.sampled_from([0, 1])),
                   min_size=2, max_size=6),
)
def test_calls_on_one_system_share_its_graph_and_give_the_bits_of_a_fresh_system(name, calls):
    make, weights = SHARED_GRAPH_SYSTEMS[name]
    ifs = make()
    assert ifs.scale_graph is None
    graphs = set()
    for q, tol, k in calls:
        shared = fourier_word_tree(ifs, weights[k], q, tol)
        graphs.add(id(ifs.scale_graph))
        fresh = fourier_word_tree(make(), weights[k], q, tol)
        assert (shared.value, shared.nodes, shared.error_bound) == (fresh.value, fresh.nodes, fresh.error_bound)
    assert len(graphs) == 1


def test_a_repeat_call_at_the_same_or_a_smaller_q_expands_no_node():
    ifs, w = builtin("aperiodic-125")
    fourier_word_tree(ifs, w, F(-5000, 3), 1e-8)
    expanded = len(ifs.scale_graph.order)
    for q, tol in ((F(5000, 3), 1e-8), (-1666.0, 1e-8), (F(7, 2), 1e-8), (F(5000, 3), 1e-6)):
        fourier_word_tree(ifs, (F(1, 5), F(3, 5), F(1, 5)) if q > 0 else w, q, tol)
        assert len(ifs.scale_graph.order) == expanded
    fourier_word_tree(ifs, w, 1700, 1e-8)
    assert len(ifs.scale_graph.order) > expanded


def test_the_scale_graph_is_freed_with_its_system():
    ifs, w = builtin("aperiodic-125")
    fourier_word_tree(ifs, w, F(123, 4), 1e-6)
    ref = weakref.ref(ifs.scale_graph)
    del ifs
    assert ref() is None


def test_budget_holds_per_call_on_a_grown_graph():
    ifs, w = builtin("aperiodic-125")
    q, tol = F(98765, 7), 1e-8
    s = fourier_word_tree(aperiodic_125(), w, q, tol)
    # a larger q stops growing the system's graph once past the budget, and
    # the graph it leaves still gives this q's count, and the bits of fresh
    # systems below
    with pytest.raises(BudgetError, match=f"exceeded {s.nodes - 1} nodes"):
        fourier_word_tree(ifs, w, q * 1000, tol, max_nodes=s.nodes - 1)
    with pytest.raises(BudgetError):
        fourier_word_tree(ifs, w, q, tol, max_nodes=s.nodes - 1)
    fresh = fourier_word_tree(aperiodic_125(), w, q / 3, tol)
    assert _bits(fourier_word_tree(ifs, w, q / 3, tol, max_nodes=s.nodes - 1)) == _bits(fresh)
    assert _bits(fourier_word_tree(ifs, w, q, tol, max_nodes=s.nodes)) == _bits(s)
    # once the graph holds more than q's tree, smaller budgets are checked on
    # the count of each call, not on the graph
    fourier_word_tree(ifs, w, q * 100, tol)
    assert len(ifs.scale_graph.sf) > s.nodes
    assert _bits(fourier_word_tree(ifs, w, q, tol, max_nodes=s.nodes)) == _bits(s)
    fresh = fourier_word_tree(aperiodic_125(), w, q / 7, tol)
    assert _bits(fourier_word_tree(ifs, w, q / 7, tol, max_nodes=s.nodes)) == _bits(fresh)
    with pytest.raises(BudgetError, match=f"exceeded {s.nodes - 1} nodes"):
        fourier_word_tree(ifs, w, q, tol, max_nodes=s.nodes - 1)


def test_a_huge_q_stops_growing_the_graph_at_the_budget():
    # q = 1e300 needs scales down to 3^-645, where they turn subnormal; a
    # graph grown past the budget would end in that PreconditionError
    ifs = cantor()
    with pytest.raises(BudgetError, match="exceeded 50 nodes"):
        fourier_word_tree(ifs, HALF, 1e300, 1e-3, max_nodes=50)
    fresh = fourier_word_tree(cantor(), HALF, 1e10, 1e-3)
    assert _bits(fourier_word_tree(ifs, HALF, 1e10, 1e-3, max_nodes=50)) == _bits(fresh)


def test_scales_the_floats_cannot_order_are_refused():
    # a ratio within 2^-48 of 1, and a tree reaching subnormal scales: a
    # child's float need not fall below its parent's there
    near_one = Ifs([AffineMap(1 - F(1, 2**50), 0), AffineMap(F(1, 2), F(1, 2))], (0, 1))
    with pytest.raises(PreconditionError, match="ratio"):
        fourier_word_tree(near_one, HALF, 1, 1e-3)
    with pytest.raises(PreconditionError, match="subnormal"):
        fourier_word_tree(cantor(), HALF, 1e300, 1e-300)


def test_deep_word_tree_returns_the_product_value():
    # r = 99/100 needs scales down to r^k with 2 pi r^k width <= tol, about
    # 1400 levels: far deeper than the interpreter's recursion limit
    r, tol = F(99, 100), 1e-3
    s = fourier_word_tree(bernoulli_convolution(r), HALF, 1, tol)
    assert abs(s.value - bernoulli_cos_product(0.99, 1, terms=5000)) <= tol
    # equal ratios: one node per level k = 0..K, K the first leaf level
    width = 2 / (1 - 0.99)
    assert s.nodes == 1 + next(k for k in range(10**4) if 2 * math.pi * 0.99**k * width <= tol)


def _mp_cos_product(q, r):
    """prod_{n>=0} cos(2 pi q r^n) in mpmath; the dropped tail is within 1e-28 of 1."""
    out, x = mpmath.mpf(1), q
    while abs(x) > mpmath.mpf(10) ** -16:
        out *= mpmath.cos(2 * mpmath.pi * x)
        x *= r
    return complex(out)


@settings(max_examples=30, deadline=None)
@given(
    r=st.fractions(min_value=F(1, 100), max_value=F(95, 100), max_denominator=100),
    q=st.fractions(min_value=-500, max_value=500, max_denominator=100),
)
def test_word_tree_matches_the_product_formula_at_random_rational_ratios(r, q):
    s = fourier_word_tree(bernoulli_convolution(r), HALF, q, 1e-8)
    with mpmath.workdps(30):
        ref = _mp_cos_product(mpmath.mpf(q.numerator) / q.denominator,
                              mpmath.mpf(r.numerator) / r.denominator)
    assert abs(s.value - ref) <= s.error_bound


def test_word_tree_matches_the_product_formula_at_golden_pisot_frequencies():
    ifs, r = golden_bernoulli(), golden_ratio_conjugate()
    with mpmath.workdps(50):
        rho = (mpmath.sqrt(5) - 1) / 2
        for n in range(1, 26):
            s = fourier_word_tree(ifs, HALF, r**-n, 1e-10)
            assert abs(s.value - _mp_cos_product(rho**-n, rho)) <= s.error_bound


SQRT2_SHIFT = QuadExact(0, F(1, 10), 2)  # sqrt(2)/10


def _sqrt2_shift():
    """{x/3, x/3 + sqrt(2)/10} on [0, 1]: rational ratios, a translation in Q(sqrt 2)."""
    return Ifs([AffineMap(F(1, 3), 0), AffineMap(F(1, 3), SQRT2_SHIFT)], (0, 1), name="sqrt2-shift")


@pytest.mark.parametrize("q", [F(1), F(7, 2), F(1234, 7), 3**8, QuadExact(F(5), F(3, 7), 2), 1e3 + 0.25])
def test_word_tree_matches_the_product_formula_with_a_quadratic_translation(q):
    # equal ratios r: F_q = prod_{k>=0} sum_i p_i e(q r^k t_i) (Jessen-Wintner)
    s = fourier_word_tree(_sqrt2_shift(), HALF, q, 1e-10)
    with mpmath.workdps(30):
        # x = q r^k t, exact until the conversion
        x = mpmath.mpf(q) * SQRT2_SHIFT.to_mpf(30) if isinstance(q, float) else (q * SQRT2_SHIFT).to_mpf(30)
        ref = mpmath.mpc(1)
        while abs(x) > mpmath.mpf(10) ** -25:
            ref *= (1 + mpmath.expjpi(2 * x)) / 2
            x /= 3
    assert abs(s.value - complex(ref)) <= s.error_bound


def test_decay_profile_aperiodic_vs_periodic():
    q_grid = np.logspace(0, 4, 60)
    ap = decay_profile(aperiodic_125(), W125, q_grid, 1e-6)
    assert not ap.degenerate and ap.alpha > 0
    decades = per_decade_max(ap.samples)
    maxima = [decades[j] for j in sorted(decades)]
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    # Cantor: |F| along powers of 3 never decays, so no strong decade decay
    ca = decay_profile(cantor(), HALF, q_grid, 1e-6)
    decades = per_decade_max(ca.samples)
    ca_maxima = [decades[j] for j in sorted(decades)]
    assert not all(b < 0.5 * a for a, b in zip(ca_maxima, ca_maxima[1:]))


@pytest.mark.parametrize("method", ["word_tree", "monte_carlo"])
def test_decay_profile_rejects_an_empty_grid(method):
    # it ended in a bare IndexError at the fit's top-decade cut
    with pytest.raises(ValueError, match="q grid must not be empty"):
        decay_profile(cantor(), HALF, [], 1e-3, method=method)


def test_sample_points_land_in_attractor_hull():
    ifs, p = cantor(), HALF
    pts = sample_points(ifs, p, 10_000, np.random.default_rng(0), 1e-10)
    assert pts.min() >= -1e-9 and pts.max() <= 1 + 1e-9
    # Cantor's middle third has measure zero
    inside_gap = np.mean((pts > 1 / 3 + 1e-6) & (pts < 2 / 3 - 1e-6))
    assert inside_gap == 0


def test_scaled_energy_inequality_holds():
    ifs, p = cantor(), HALF
    chi = lyapunov(ifs, p).value
    [[res]] = scaled_energy_check(ifs, p, qs=(1000.0,), k=3, rs=(1e-2,), chi=chi, samples=5_000, rng_seed=0)
    assert res.lhs <= res.rhs + res.lhs_err + 3 * res.rhs_stderr
    assert res.lhs >= 0 and res.rhs >= 0


def test_del_criterion_dyadic_bounded():
    # {x/2, (x+1)/2} is Lebesgue on [0,1]: base-2 averages stay bounded
    rep = del_criterion_diagnostic(dyadic_pair(), HALF, base=2, q=1.0, n_max=2000, samples=100, rng_seed=0)
    assert rep.base == 2
    assert len(rep.e_n) == len(rep.n_values)
    assert rep.tail_slope < 0.05
    assert all(e >= 0 for e in rep.e_n)


@pytest.mark.parametrize(
    "base, n_max, samples, message",
    [(2.5, 8, 4, "base must be an int, got 2.5"), (3.0, 8, 4, "base must be an int, got 3.0"),
     (True, 8, 4, "base must be an int, got True"), (2, 8.0, 4, "n_max must be an int, got 8.0"),
     (2, 8, 4.0, "samples must be an int, got 4.0"), (2, 8, True, "samples must be an int, got True"),
     (1, 8, 4, "integer base >= 2 required"), (2, 3, 4, "n_max must be >= 4"), (2, 8, 0, "samples must be >= 1")],
    ids=["base-float", "base-whole-float", "base-bool", "n_max-float", "samples-float", "samples-bool",
         "base-1", "n_max-3", "samples-0"],
)
def test_del_criterion_takes_only_int_base_n_max_and_samples(base, n_max, samples, message):
    # a float base made the "exact big-integer" orbit float arithmetic
    with pytest.raises(ValueError, match=message):
        del_criterion_diagnostic(cantor(), HALF, base, 1, n_max, samples)


@pytest.mark.parametrize(
    "run",
    [
        lambda: fourier_mc(cantor(), HALF, 3.0, True),
        lambda: fourier_mc(cantor(), HALF, 3.0, 100.0),
        lambda: decay_profile(cantor(), HALF, [1, 2, 3], 1e-3, method="monte_carlo", samples=100.0),
        lambda: scaled_energy_check(cantor(), HALF, [10.0], 1, [0.1], math.log(3), samples=100.0),
        lambda: scaled_energy_check(cantor(), HALF, [10.0], 1, [0.1], math.log(3), samples=0),
    ],
    ids=["fourier_mc-bool", "fourier_mc-float", "decay_profile-float", "scaled_energy-float", "scaled_energy-0"],
)
def test_samples_must_be_an_int(run):
    # True ran one sample; a float ended in a bare TypeError, and
    # scaled_energy_check's 0 in a ZeroDivisionError
    with pytest.raises(ValueError, match="samples must be an int"):
        run()


def test_fourier_mc_keeps_its_range_message():
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        fourier_mc(cantor(), HALF, 3.0, 0)


def test_del_criterion_requires_rational_affine():
    for ifs in (smooth_example(), _sqrt2_shift()):
        with pytest.raises(PreconditionError):
            del_criterion_diagnostic(ifs, HALF, base=2, q=1.0, n_max=100)
