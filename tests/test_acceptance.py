"""Acceptance gate: every packaged claim, one pass/fail line each.

Each test reads the corresponding packaged suite, run once per session by
the `suite_result` fixture, and fails with the suite's own summary when any
assertion inside it fails.
Two checks are knowingly red and carry a NOTE in their docstring: the
nominal 0.01 Pisot floor (the true floor of the golden-ratio Bernoulli
convolution over n <= 25 is ~4.9e-4) and the strictly-decreasing per-cell
KS trend (the Gamma-law agreement is swamped by per-cell sampling noise
that grows with the number of cells at fixed path count).
"""

import math
from fractions import Fraction

F = Fraction


def assert_passed(res):
    assert res.passed, "\n" + "\n".join(res.summary_lines())


def subset_passed(res, needle):
    hits = [a for a in res.assertions if needle in a.desc]
    assert hits, f"no assertion matching {needle!r} in suite {res.name}"
    lines = [f"{'PASS' if a.passed else 'FAIL'}  {a.desc}  [{a.detail}]" for a in hits]
    assert all(a.passed for a in hits), "\n" + "\n".join(lines)


def test_criterion_01_fourier_oracle_agreement(suite_result):
    """5 affine systems x 20 log-spaced q in [1, 1e4]: |word tree - MC(1e5)|
    <= 4/sqrt(1e5) + tol in at least 95% of cells."""
    assert_passed(suite_result("fourier-oracle-agreement"))


def test_criterion_02_self_similarity_recursion(suite_result):
    """Recursion residual <= 2e-8 at 100 random q per registered affine system."""
    assert_passed(suite_result("fourier-recursion"))


def test_criterion_03_pisot_nondecay_pinned_floor(suite_result):
    """Golden-ratio Bernoulli convolution at q = r^{-n}, n = 1..25, exact
    quadratic-field frequencies: the floor min |F_q| is strictly positive and
    matches the closed-form Jessen-Wintner product over the same n to 1e-6."""
    assert_passed(suite_result("pisot-nondecay"))


def test_criterion_03_nominal_floor_of_0_01():
    """NOTE: knowingly red. The nominal floor 0.01 overstates the true
    non-decay floor: min_{n<=25} |F_{r^{-n}}| = 4.87e-4 (exact evaluation;
    the infinite-n limit prod cos(pi r^n)^2-type value is of the same size).
    The positive-floor statement itself is criterion 3's previous test."""
    from fractalab.fourier import fourier_word_tree
    from fractalab.ifs_core import golden_bernoulli
    from fractalab.quadfield import golden_ratio_conjugate

    ifs, p = golden_bernoulli(), (F(1, 2), F(1, 2))
    r = golden_ratio_conjugate()
    floor = min(abs(fourier_word_tree(ifs, p, r**-n, 1e-6).value) for n in range(1, 26))
    assert floor >= 0.01, f"observed floor {floor:.6g} < nominal 0.01"


def test_criterion_04_aperiodic_decay_trend(suite_result):
    """{x/2,(x+1)/3,(x+1)/5}: per-decade max |F_q| strictly decreasing over
    decades 1..1e5."""
    assert_passed(suite_result("aperiodic-decay"))


def test_criterion_05_llt_lattice_floor(suite_result):
    """Periodic Cantor system: per-cell KS distance to the continuous law
    stays >= 0.2 at k = 20, 40, 80 (the stopped sum is lattice-valued)."""
    subset_passed(suite_result("llt-trend"), "cantor: weighted median KS >= 0.2")


def test_criterion_05_llt_aperiodic_trend(suite_result):
    """NOTE: knowingly red. Weighted-median per-cell KS at k = 20, 40, 80
    (1e5 paths) measures 0.05 -> 0.09 -> 0.14: the number of cells grows
    with k, so per-cell counts shrink and KS sampling noise (~0.87/sqrt(n))
    dominates the Gamma-law convergence at this path budget."""
    subset_passed(suite_result("llt-trend"), "aperiodic-125: weighted median KS strictly decreasing")


def test_criterion_06_stopping_time_bracket(suite_result):
    """S_{tau_k} in [k chi, k chi + D'] with zero violations over 1e6
    sampled (path, k) pairs."""
    assert_passed(suite_result("stopping-bracket"))


def test_criterion_07_gamma_law(suite_result):
    """Gamma law on 100 random cells: mass = 1 within 1e-12 and density
    <= 1/D + 1e-12."""
    assert_passed(suite_result("gamma-law"))


def test_criterion_08_normality_statistics(suite_result):
    """Cantor samples, base 2, N = 4096: chi-square block test (blocks <= 3)
    p > 1e-3 in >= 95 of 100 seeds; base 3: digit 1 never occurs."""
    assert_passed(suite_result("cantor-digit-normality"))


def test_criterion_09_digit_certification(suite_result):
    """Doubling the requested precision never changes certified digits:
    100 seeds x 3 systems x bases {2, 3, 10}."""
    assert_passed(suite_result("digit-certification"))


def test_criterion_10_classification_suite(suite_result):
    """Periodicity certificates, induced-system weights and Fourier match,
    stopped-word inequalities, integer-form round-trip."""
    assert_passed(suite_result("classification"))


def test_criterion_11_scaled_energy_inequality(suite_result):
    """lhs <= rhs + error budget on the 3x3x3 (q, k, r) grid for the Cantor
    and Bernoulli(1/3) measures."""
    assert_passed(suite_result("scaled-energy"))


def test_criterion_12_moser_instance(suite_result):
    """Generated frequency vector: Liouville-like continued-fraction verdict
    plus positive Diophantine envelope up to x = 1e3."""
    assert_passed(suite_result("moser-instance"))
