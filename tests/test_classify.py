"""Periodicity, lattices, Diophantine scans, induced systems."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fractalab
from fractalab.classify import (
    _denominator_norm,
    _inf_y_max_dists,
    _least_root,
    _text,
    classify_ifs,
    diophantine_scan,
    induce_aperiodic,
    integer_pisot_form_check,
    is_periodic,
    lattice_check_fixed_point_set,
    li_sahlsten_check,
    moser_family,
    phi_m,
)
from fractalab.fourier import fourier_word_tree
from fractalab.ifs_core import (
    AffineMap,
    Ifs,
    PreconditionError,
    aperiodic_125,
    bernoulli_convolution,
    cantor,
    golden_bernoulli,
    moebius_example,
    smooth_example,
)
from fractalab.quadfield import QuadExact, golden_ratio_conjugate

F = Fraction


# -- periodicity ---------------------------------------------------------------


def test_equal_ratios_periodic():
    v = is_periodic([F(1, 3), F(1, 3)])
    assert v.periodic and v.exact
    assert v.generator == pytest.approx(math.log(3), abs=1e-9)


def test_powers_of_common_base_periodic():
    v = is_periodic([F(1, 4), F(1, 8)])
    assert v.periodic and v.exact
    # lattice generated by 2 log 2 and 3 log 2 is (log 2) Z
    assert v.generator == pytest.approx(math.log(2), abs=1e-9)


def test_coprime_ratios_aperiodic_with_certificate():
    v = is_periodic([F(1, 2), F(1, 3), F(1, 5)])
    assert not v.periodic and v.exact
    assert v.witness is not None
    assert "not proportional" in v.certificate


def test_non_power_multiples_aperiodic():
    v = is_periodic([F(1, 2), F(1, 6)])
    assert not v.periodic and v.exact


def test_quadratic_unit_ratio_periodic():
    r = golden_ratio_conjugate()
    v = is_periodic([r, r * r])
    assert v.periodic and v.exact


def test_high_quadratic_power_is_exact():
    r = golden_ratio_conjugate()
    v = is_periodic([r, r**100])
    assert v.periodic and v.exact
    assert v.generator == pytest.approx(-math.log(float(r)), rel=1e-12)


def test_quadratic_powers_of_one_element_are_exact():
    r = golden_ratio_conjugate()
    v = is_periodic([r**2, r**3])
    assert v.periodic and v.exact
    assert v.generator == pytest.approx(-math.log(float(r)), rel=1e-12)
    # r is a unit and r/2 is not: no power of one is a power of the other
    v = is_periodic([r, r**2, r / 2])
    assert not v.periodic and v.exact and v.witness == (1, 3)


def _norm_one_pair():
    """(1 + sqrt 2)^-1, a unit, and 7/(9 + 4 sqrt 2), a non-unit: both have norm +-1."""
    return QuadExact(1, 1, 2).inverse(), 7 / QuadExact(9, 4, 2)


def test_norm_one_non_unit_pair_is_aperiodic_by_denominator_norms():
    start = time.perf_counter()
    v = is_periodic(list(_norm_one_pair()))
    assert time.perf_counter() - start < 1.0
    assert not v.periodic and v.exact and v.witness == (1, 2)
    assert v.certificate.startswith("D(r_i) = 1 and D(r_j) = 7,")


def test_unit_relations_above_1000_are_exact():
    r = golden_ratio_conjugate()
    v = is_periodic([r, r**1001])
    assert v.periodic and v.exact
    assert v.generator == pytest.approx(-math.log(float(r)), rel=1e-12)
    for ratios in ([r**6, r**100000], [r**100000, r**6]):
        start = time.perf_counter()
        v = is_periodic(ratios)
        assert time.perf_counter() - start < 1.0
        assert v.periodic and v.exact
        assert v.generator == pytest.approx(-2 * math.log(float(r)), rel=1e-12)


def test_generators_of_ratios_outside_the_float_range():
    # float(x) underflows to 0.0 for each of these; the logs come from integers
    v = is_periodic([F(1, 3**1000)] * 2)
    assert v.periodic and v.generator == pytest.approx(1000 * math.log(3), rel=1e-14)
    x = F(1, 2**1000 * 3**1001)
    v = is_periodic([x, x**2])
    assert v.periodic and v.generator == pytest.approx(1000 * math.log(2) + 1001 * math.log(3), rel=1e-14)


def test_verdicts_on_ratios_past_the_int_to_str_limit():
    # each value has an integer of more than 4,300 digits, which str() refuses;
    # the certificate and generator texts write such an integer by its bit length
    r = golden_ratio_conjugate()
    v = is_periodic([r**100000] * 2)
    assert v.periodic and v.generator == pytest.approx(100000 * abs(math.log(float(r))), rel=1e-12)
    assert "-bit integer>" in v.generator_expr
    v = is_periodic([F(1, 3**10000)] * 2)
    assert v.periodic and v.generator == pytest.approx(10000 * math.log(3), rel=1e-14)
    assert v.generator_expr == "-log(1/<15850-bit integer>)"
    v = is_periodic([F(1, 3 * 2**15000 + 1), F(1, 2)])
    assert not v.periodic and v.exact and v.witness == (1, 2)
    assert v.certificate.startswith("exponent vectors {<15002-bit integer>: -1} and {2: -1} are not proportional")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ks=st.lists(st.integers(-40, 40), min_size=1, max_size=3))
def test_text_is_str_where_str_converts(data, ks):
    x = _quad(data) if data.draw(st.booleans(), label="quadratic") else data.draw(st.fractions(), label="x")
    vec = {b: k for b, k in zip((2, 3, 10**40 + 1), ks)}
    assert _text(x) == str(x) and _text(vec) == str(vec)


def _quad(data, fields=(2, 3, 5, 6, 7, 13)):
    """A random element a + b sqrt(d) of a real quadratic field, b != 0."""
    d = data.draw(st.sampled_from(fields), label="d")
    a = data.draw(st.fractions(-9, 9, max_denominator=6), label="a")
    b = data.draw(st.fractions(-4, 4, max_denominator=6).filter(bool), label="b")
    return QuadExact(a, b, d)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ks=st.lists(st.integers(-7, 7).filter(bool), min_size=2, max_size=4))
def test_powers_of_a_quadratic_element_are_periodic(data, ks):
    g = _quad(data)
    v = is_periodic([g**k for k in ks])
    assert v.periodic and v.exact
    # {k_i log|g|} generates gcd(k) log|g| Z
    assert v.generator == pytest.approx(math.gcd(*ks) * abs(math.log(abs(float(g)))), rel=1e-9)


def test_one_number_in_two_writings_is_periodic():
    # sqrt(2) - 1 written in Q(sqrt 8) and its square written in Q(sqrt 2)
    x, y = QuadExact(-1, F(1, 2), 8), QuadExact(-1, 1, 2)
    v = is_periodic([x, y**2])
    assert v.periodic and v.exact
    assert v.generator == pytest.approx(abs(math.log(float(y))), rel=1e-12)


def _relation(x, y, bound=30):
    """Brute force: (m, k) with 0 < m <= bound, 0 < |k| <= bound and x^m = y^k,
    or None.  A relation with m < 0 flips sign, and m = 0 forces y^k = 1."""
    powers = {y**k: k for k in range(-bound, bound + 1) if k}
    return next(((m, powers[x**m]) for m in range(1, bound + 1) if x**m in powers), None)


_UNITS = {2: (1, 1), 3: (2, 1), 5: (F(1, 2), F(1, 2)), 6: (5, 2), 7: (8, 3), 13: (F(3, 2), F(1, 2))}


def _leading_coefficient(z):
    """The leading coefficient of the primitive integer multiple of z's minimal
    polynomial X^2 - 2a X + (a^2 - d b^2): the lcm of its denominators."""
    return math.lcm((2 * z.a).denominator, (z.a * z.a - z.d * z.b * z.b).denominator)


def _norm_one(g):
    """z = g^2 / N(g), of norm 1."""
    return g * g / (g.a * g.a - g.d * g.b * g.b)


_KINDS = ["powers", "prime", "unit", "norm-one powers", "norm-one unit", "big unit"]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), a=st.integers(-5, 5).filter(bool), b=st.integers(-5, 5).filter(bool),
       p=st.sampled_from([11, 17, 19, 23]), kind=st.sampled_from(_KINDS))
def test_quadratic_pairs_agree_with_brute_force(data, a, b, p, kind):
    g = _quad(data)
    if kind.startswith("norm-one"):
        g = _norm_one(g)
        assume(g.b)
    unit = QuadExact(*_UNITS[g.d], g.d)
    if kind == "big unit":
        # x^(1009 b / c) = y^(a / c) with c = gcd(a, b): exponents above 1000,
        # out of the brute force's reach, so the relation is checked directly
        x, y = abs(unit**a), abs(unit ** (1009 * b))
        c = math.gcd(a, b)
        assert x ** (1009 * b // c) == y ** (a // c)
        v = is_periodic([x, y])
        assert v.periodic and v.exact
        assert v.generator == pytest.approx(c * math.log(float(unit)), rel=1e-9)
        return
    x, y = abs(g**a), abs(g**b)
    n = g.a * g.a - g.d * g.b * g.b
    if kind == "norm-one unit":
        # x^m = y^k gives g^(am - bk) = +-unit^k; as |N(g)| = 1, D(g^n) = D(g)^|n| > 1
        # for n != 0 while D(unit^k) = 1, so am = bk, and then unit^k = +-1 forces k = 0
        assume(_leading_coefficient(g) > 1)
        y = y * unit
    elif kind == "prime":
        # p divides neither the numerator nor the denominator of N(g), so p
        # appears in N(y) squared and not in N(x): x^m = y^k forces k = 0
        assume(n.numerator % p and n.denominator % p)
        y = y * p
    elif kind == "unit":
        # g^(am - bk) = e^k for a unit e of infinite order: the norms force
        # am = bk when |N(g)| != 1, then e^k = 1 forces k = 0
        assume(abs(n) != 1)
        y = y * unit
    assume(x != y and x != 1 and y != 1)
    found = _relation(x, y)
    assert (found is None) == (not kind.endswith("powers"))
    v = is_periodic([x, y])
    assert v.exact and v.periodic == (found is not None)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_denominator_norm_of_norm_one_powers(data):
    z = _norm_one(_quad(data, fields=(2, 3, 5, 6, 7, 1510)))
    assume(z.b and _leading_coefficient(z) > 1)
    assert _denominator_norm(z) == _leading_coefficient(z)
    for m in (1, 2, 3, 4, 5):
        assert _denominator_norm(z**m) == _denominator_norm(z**-m) == _denominator_norm(z) ** m


def _spread_ifs(ratios):
    """Maps with the given ratios whose fixed points are 0, 1/(n-1), ..., 1."""
    n = len(ratios)
    maps = [AffineMap(r, F(i, n - 1) * (1 - r)) for i, r in enumerate(ratios)]
    return Ifs(maps, (F(0), F(1)), name="spread")


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from([2, 3, 5, 6, 7, 10, 12]),
    exps=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    prime=st.sampled_from([11, 13]),
    data=st.data(),
)
def test_powers_of_one_base_are_decided_exactly(base, exps, prime, data):
    # none of the bases is a perfect power, so base^-e_i is the whole story
    ratios = [F(1, base**e) for e in exps]
    v = is_periodic(ratios)
    assert v.periodic and v.exact
    assert v.generator == pytest.approx(math.gcd(*exps) * math.log(base), rel=1e-12)
    rep = integer_pisot_form_check(_spread_ifs(ratios))
    assert rep.in_form and rep.base == base and rep.exponents == exps

    # a prime the base lacks breaks every common base
    k = data.draw(st.integers(0, len(exps) - 1))
    ratios[k] /= prime
    v = is_periodic(ratios)
    assert not v.periodic and v.exact
    rep = integer_pisot_form_check(_spread_ifs(ratios))
    assert not rep.in_form and rep.note == "no common integer base"


@pytest.mark.parametrize("ratios", [[0.5, 0.25], [0.5, 1 / 3], [F(1, 2), 0.25]])
def test_float_input_is_refused(ratios):
    # no finite float test tells a rational log-ratio from an irrational one
    with pytest.raises(PreconditionError, match="not floats"):
        is_periodic(ratios)


@pytest.mark.parametrize(
    "ratios", [[F(1), F(1, 2)], [F(1, 2), F(1)], [F(1), F(1)], [1.0, 0.5], [0.5, 1.0]]
)
def test_modulus_one_ratio_is_rejected(ratios):
    # log 1 = 0 lies in every lattice, so there is no aperiodicity witness;
    # the shared-modulus shortcut and the float heuristic reject it as well
    with pytest.raises(ValueError, match="other than 1"):
        is_periodic(ratios)


def test_an_empty_ratio_set_is_rejected_by_name():
    with pytest.raises(ValueError, match="need at least one ratio"):
        is_periodic([])


def _trial_division(n):
    """Prime exponents of the integer n >= 1."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def _prime_vector(r):
    vec = _trial_division(r.numerator)
    vec.update({p: -e for p, e in _trial_division(r.denominator).items()})
    return vec


def _proportional(u, v):
    keys = u.keys() | v.keys()
    return all(u.get(p, 0) * v.get(q, 0) == u.get(q, 0) * v.get(p, 0) for p in keys for q in keys)


_ratio = st.builds(F, st.integers(1, 10**4), st.integers(2, 10**4)).filter(lambda r: r < 1)
_power = st.builds(lambda b, k: F(1, b**k), st.integers(2, 21), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_ratio, _power), min_size=2, max_size=5))
def test_verdicts_match_trial_division(ratios):
    vecs = [_prime_vector(r) for r in ratios]
    periodic = all(_proportional(vecs[0], v) for v in vecs)
    v = is_periodic(ratios)
    assert v.exact and v.periodic == periodic
    if periodic:
        # every log r_i is an integer multiple of the generator, coprimely
        ms = [math.log(r) / v.generator for r in ratios]
        ks = [round(m) for m in ms]
        assert ms == pytest.approx(ks, abs=1e-9) and math.gcd(*ks) == 1
    else:
        i, j = v.witness
        assert not _proportional(vecs[i - 1], vecs[j - 1])

    rep = integer_pisot_form_check(_spread_ifs(ratios))
    if any(r.numerator != 1 for r in ratios):
        assert not rep.in_form
        return
    # the base is the least integer root of the first denominator
    exps = _trial_division(ratios[0].denominator)
    g = math.gcd(*exps.values())
    base = math.prod(p ** (e // g) for p, e in exps.items())
    ks = []
    for r in ratios:
        d, k = r.denominator, 0
        while d % base == 0:
            d, k = d // base, k + 1
        ks.append(k if d == 1 else None)
    if None in ks:
        assert not rep.in_form and rep.note == "no common integer base"
    else:
        assert rep.in_form and rep.base == base and rep.exponents == ks


def test_perfect_powers_reduce_to_their_least_root():
    rep = integer_pisot_form_check(_spread_ifs([F(1, 4), F(1, 16)]))
    assert (rep.base, rep.exponents, rep.gcd) == (2, [2, 4], 2)
    rep = integer_pisot_form_check(_spread_ifs([F(1, 36), F(1, 216)]))
    assert (rep.base, rep.exponents, rep.gcd) == (6, [2, 3], 1)


def test_least_root_of_a_large_power_is_fast():
    # a 180,061-bit 3001st power, and the same plus 2, which is no power
    n = (2**60 + 3) ** 3001
    for value, root in ((n, 2**60 + 3), (n + 2, n + 2)):
        start = time.perf_counter()
        assert _least_root(value) == root
        assert time.perf_counter() - start < 10.0


def _run_fresh(code):
    """Run `code` in a new interpreter on this fractalab; a hang fails the
    test through the timeout instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(fractalab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_ratios_with_large_prime_factors_are_exact():
    # N = M89 * M107 has 196 bits; factoring it into primes does not finish
    out = _run_fresh(
        "import json, math\n"
        "from fractions import Fraction as F\n"
        "from fractalab.classify import is_periodic\n"
        "N = (2**89 - 1) * (2**107 - 1)\n"
        "a = is_periodic([F(1, N), F(1, 2)])\n"
        "b = is_periodic([F(1, N**2), F(1, N**3)])\n"
        "print(json.dumps([a.exact, a.periodic, a.witness, b.exact, b.periodic,\n"
        "                  b.generator / math.log(N)]))\n"
    )
    assert out[:5] == [True, False, [1, 2], True, True]
    assert out[5] == pytest.approx(1.0, rel=1e-12)


def test_cli_import_loads_no_sympy():
    assert _run_fresh("import json, sys, fractalab.cli; print(json.dumps('sympy' in sys.modules))") is False


# -- fixed-point lattice -------------------------------------------------------


def test_two_map_lattice_is_trivial():
    # at most two distinct |r_i| are counted exactly, quadratic fields included
    r = golden_ratio_conjugate()
    for ifs in (cantor(), golden_bernoulli(), bernoulli_convolution(r**2)):
        v = lattice_check_fixed_point_set(ifs)
        assert v.contained and v.trivially and v.exact, ifs.name


def test_aperiodic_three_map_lattice_not_contained():
    v = lattice_check_fixed_point_set(aperiodic_125())
    assert not v.contained and v.exact


def test_lattice_witness_names_maps():
    # sorted moduli are 1/7, 1/5, 1/3, 1/2: the witness triple is maps 2, 4, 3
    v = lattice_check_fixed_point_set(_spread_ifs([F(1, 2), F(1, 7), F(1, 3), F(1, 5)]))
    assert not v.contained and v.exact
    assert v.witness == (2, 4, 3)


@pytest.mark.parametrize("make", [smooth_example, moebius_example])
def test_smooth_lattice_is_refused(make):
    with pytest.raises(PreconditionError, match="affine"):
        lattice_check_fixed_point_set(make())


def test_quadratic_lattice_is_decided_exactly():
    r = golden_ratio_conjugate()
    for top in (3, 1003):
        v = lattice_check_fixed_point_set(_spread_ifs([r, r**2, r**top]))
        assert v.contained and not v.trivially and v.exact
    # sorted moduli r/2 < r^2 < r: log(r^2 / (r/2)) / log(r / (r/2)) =
    # log(2r) / log 2 is irrational
    v = lattice_check_fixed_point_set(_spread_ifs([r, r**2, r / 2]))
    assert not v.contained and v.exact
    assert v.witness == (3, 2, 1)


# -- Diophantine scan ----------------------------------------------------------


def test_scan_of_a_pair_is_not_positive_with_a_zero_in_range():
    # m(x) = d(x log(3/2), Z)/2 is 0 at the 202 points k/log(3/2) of [1, 500],
    # all of which the grid misses
    rep = diophantine_scan([math.log(2), math.log(3)], x_max=500.0)
    assert not rep.positive
    assert rep.min_m == 0
    assert rep.ms.min() > 0


def test_scan_of_a_pair_with_no_zero_in_range_is_positive():
    # delta * x_max = 0.5 < 1: m(x) = d(delta x, Z)/2 >= delta/2 on [1, 500]
    delta = 0.001
    rep = diophantine_scan([math.log(2), math.log(2) + delta], x_max=500.0)
    assert rep.positive
    assert rep.min_m == pytest.approx(delta / 2)
    assert rep.ms.min() >= rep.min_m * (1 - 1e-9)


def test_scan_fails_for_single_ratio():
    rep = diophantine_scan([math.log(2)], x_max=200.0)
    assert not rep.positive
    # at x = k/log2 the distance can be pushed to 0 by y
    assert rep.min_m < 1e-3


def _inf_y_max_dist_at(vs, x):
    """m(x) at one x, midpoint by midpoint: the scan's own float operations."""
    us = np.array([(v * x) % 1.0 for v in vs])
    peaks = np.sort((0.5 - us) % 1.0)
    mids = (peaks + np.diff(np.concatenate([peaks, [peaks[0] + 1.0]])) / 2.0) % 1.0
    best = 1.0
    for y in mids:
        vals = (us + y) % 1.0
        best = min(best, float(np.minimum(vals, 1.0 - vals).max()))
    return best


@settings(max_examples=60, deadline=None)
@given(
    vs=st.lists(st.floats(min_value=0.01, max_value=6.0), min_size=2, max_size=7),
    x_max=st.floats(min_value=10.0, max_value=1e4),
)
def test_scan_values_equal_a_per_x_reference(vs, x_max):
    rep = diophantine_scan(vs, x_max=x_max)
    assert len(rep.xs) >= 40
    assert np.array_equal(rep.ms, [_inf_y_max_dist_at(vs, x) for x in rep.xs])


def test_scan_values_in_row_chunks_equal_a_per_x_reference():
    # 1,100 values make a 1,100 x 1,100 block per x, past one chunk's cap
    many = np.linspace(0.01, 6.0, 1100).tolist()
    xs = np.array([1.0, 17.3, 412.9])
    assert np.array_equal(_inf_y_max_dists(many, xs), [_inf_y_max_dist_at(many, x) for x in xs])


def test_scan_respects_x_range():
    rep = diophantine_scan([math.log(2), math.log(5)], x_max=300.0)
    assert max(rep.xs) <= 300.0


# -- continued fractions / irrationality ---------------------------------------


def test_li_sahlsten_liouville_number():
    # sum 10^{-k!}: continued-fraction denominators explode
    x = sum(F(1, 10 ** math.factorial(k)) for k in range(1, 6))
    rep = li_sahlsten_check(x, q_max=10**30)
    assert rep.verdict == "liouville-like"
    assert rep.max_mu >= 4


def test_li_sahlsten_q_max_is_keyword_only():
    # a second positional argument must not silently become q_max
    with pytest.raises(TypeError):
        li_sahlsten_check(F(1, 4), F(1, 2))


# -- induced system ------------------------------------------------------------


def test_induce_aperiodic_weights_and_fourier():
    ifs, p = aperiodic_125(), (F(1, 2), F(1, 4), F(1, 4))
    ind = induce_aperiodic(ifs, p)
    assert sum(ind.q) == 1
    assert all(w > 0 for w in ind.q)
    assert ind.psi.n == 2 * ifs.n - 1
    for q in (1, 7, 50):
        a = fourier_word_tree(ifs, p, q, 1e-8).value
        b = fourier_word_tree(ind.psi, ind.q, q, 1e-8).value
        assert abs(a - b) <= 2e-6


def test_induce_reindexes_witness_pair():
    # aperiodic witness maps must become indices (1, 2) of Psi's base system
    maps = [AffineMap(F(1, 4), 0), AffineMap(F(1, 4), F(1, 4)), AffineMap(F(1, 3), F(2, 3))]
    ifs = Ifs(maps, (F(0), F(1)), name="reindex")
    p = (F(1, 3), F(1, 3), F(1, 3))
    ind = induce_aperiodic(ifs, p)
    r1, r2 = ind.psi.maps[0].ratio, abs(ind.psi.maps[0].ratio)
    assert sum(ind.q) == 1
    perm = ind.permutation
    assert is_periodic([abs(maps[perm[0] - 1].ratio), abs(maps[perm[1] - 1].ratio)]).periodic is False


def test_norm_one_system_is_classified_and_induced():
    a, b = _norm_one_pair()
    ifs = Ifs([AffineMap(a, 0), AffineMap(b, 1 - b)], (F(0), F(1)), name="norm-one")
    v = classify_ifs(ifs).periodicity
    assert not v.periodic and v.exact and v.witness == (1, 2)
    ind = induce_aperiodic(ifs, (F(1, 2), F(1, 2)))
    assert ind.permutation == [1, 2] and ind.psi.n == 3


@pytest.mark.parametrize("make", [smooth_example, moebius_example])
def test_induce_aperiodic_smooth_system_is_refused(make):
    with pytest.raises(PreconditionError, match="affine"):
        induce_aperiodic(make(), (F(1, 2), F(1, 2)))


# -- stopped-word systems ------------------------------------------------------


def test_phi_m_cantor():
    out = phi_m(cantor(), 4)
    assert sorted(out.words) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(abs(g.ratio) == F(1, 9) for g in out.maps)
    out1 = phi_m(cantor(), 2)
    assert sorted(out1.words) == [(1,), (2,)]


def test_phi_m_mixed_ratios():
    maps = [AffineMap(F(1, 2), 0), AffineMap(F(1, 5), F(4, 5))]
    ifs = Ifs(maps, (F(0), F(1)), name="half-fifth")
    out = phi_m(ifs, 3)
    assert sorted(out.words) == [(1, 1), (1, 2), (2,)]
    for g in out.maps:
        assert abs(g.ratio) < F(1, 3)


def test_phi_m_defining_inequalities():
    maps = [AffineMap(F(1, 2), 0), AffineMap(F(1, 3), F(1, 3)), AffineMap(F(1, 5), F(4, 5))]
    ifs = Ifs(maps, (F(0), F(1)), name="tri")
    for m in (2, 4, 9):
        out = phi_m(ifs, m)
        for word, g in zip(out.words, out.maps):
            assert abs(g.ratio) < F(1, m)
            if len(word) > 1:
                parent = abs(g.ratio) / abs(ifs.maps[word[-1] - 1].ratio)
                assert parent >= F(1, m)


@pytest.mark.parametrize("m", [0, 2.5, True])
def test_phi_m_rejects_a_non_integer_or_small_m(m):
    with pytest.raises(ValueError, match=rf"^m must be an int >= 1, got {m!r}$"):
        phi_m(cantor(), m)


# -- integer Pisot form --------------------------------------------------------


def test_integer_form_examples():
    maps = [AffineMap(F(1, 9), 0), AffineMap(F(1, 3), F(2, 3))]
    rep = integer_pisot_form_check(Ifs(maps, (F(0), F(1)), name="nine-three"))
    assert rep.in_form
    assert rep.base == 3
    assert tuple(rep.exponents) == (2, 1)

    maps = [AffineMap(F(1, 4), 0), AffineMap(F(1, 8), F(1, 2))]
    rep = integer_pisot_form_check(Ifs(maps, (F(0), F(1)), name="four-eight"))
    assert rep.in_form and rep.base == 2
    assert tuple(rep.exponents) == (2, 3)

    maps = [AffineMap(F(1, 2), 0), AffineMap(F(1, 3), F(2, 3))]
    rep = integer_pisot_form_check(Ifs(maps, (F(0), F(1)), name="two-three"))
    assert not rep.in_form


def test_integer_form_roundtrip():
    maps = [AffineMap(F(1, 4), 0), AffineMap(F(1, 8), F(1, 2))]
    rep = integer_pisot_form_check(Ifs(maps, (F(0), F(1)), name="four-eight"))
    for g, e in zip(maps, rep.exponents):
        assert abs(g.ratio) == F(1, rep.base**e)


# -- Moser family / full classification ----------------------------------------


def test_moser_family_instance():
    inst = moser_family(tau=3.0, liouville_depth=2)
    assert len(inst.v) == 4
    assert inst.v[0] == 1.0 and inst.v[1] == 2.0
    for rep in inst.li_reports:
        assert rep.verdict == "liouville-like"
    assert inst.scan.positive
    assert inst.scan.fitted_l <= inst.tau + 1


def test_classify_ifs_report_roundtrip():
    rep = classify_ifs(cantor())
    text = rep.to_text()
    assert "periodic: true" in text
    rep = classify_ifs(aperiodic_125())
    text = rep.to_text()
    assert "periodic: false" in text
    assert "certificate" in text


@pytest.mark.parametrize("make", [smooth_example, moebius_example])
def test_classify_ifs_rejects_smooth_systems(make):
    with pytest.raises(PreconditionError, match="affine"):
        classify_ifs(make())


def test_golden_bernoulli_classified_periodic():
    rep = classify_ifs(golden_bernoulli())
    assert rep.periodicity.periodic and rep.periodicity.exact
