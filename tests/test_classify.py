"""Periodicity, lattices, Pisot roots, Diophantine scans, induced systems."""

import math
from fractions import Fraction

import pytest

from fractalab.classify import (
    classify_ifs,
    diophantine_scan,
    induce_aperiodic,
    integer_pisot_form_check,
    is_periodic,
    is_pisot,
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
    cantor,
    golden_bernoulli,
    moebius_example,
    smooth_example,
)
from fractalab.quadfield import golden_ratio_conjugate

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


def test_float_input_flagged_heuristic():
    v = is_periodic([0.5, 0.25])
    assert v.heuristic


# -- fixed-point lattice -------------------------------------------------------


def test_two_map_lattice_is_trivial():
    v = lattice_check_fixed_point_set(cantor())
    assert v.contained and v.trivially


def test_aperiodic_three_map_lattice_not_contained():
    v = lattice_check_fixed_point_set(aperiodic_125())
    assert not v.contained and v.exact


def test_smooth_lattice_is_heuristic():
    v = lattice_check_fixed_point_set(smooth_example())
    assert v.heuristic


# -- Pisot ---------------------------------------------------------------------


def test_golden_ratio_is_pisot():
    v = is_pisot([1, -1, -1])  # x^2 - x - 1
    assert v.pisot and not v.undecided
    assert v.dominant == pytest.approx((1 + 5**0.5) / 2, abs=1e-9)


def test_plastic_number_is_pisot():
    v = is_pisot([1, 0, -1, -1])  # x^3 - x - 1, the smallest Pisot number
    assert v.pisot
    assert v.dominant == pytest.approx(1.3247179572, abs=1e-8)


def test_salem_like_polynomial_not_pisot():
    # x^2 - 3x + 1: roots (3±sqrt5)/2, the small root is 0.38 < 1 -> Pisot
    assert is_pisot([1, -3, 1]).pisot
    # x^2 - x - 3: second root ≈ -1.30 outside the unit disc -> not Pisot
    v = is_pisot([1, -1, -3])
    assert not v.pisot and not v.undecided


def test_pisot_reversed_polynomial_consistency():
    # the reciprocal polynomial's roots are the inverses: x^2 + x - 1 has
    # roots 1/phi and -phi, so it is not Pisot
    assert is_pisot([1, -1, -1]).pisot
    assert not is_pisot([1, 1, -1]).pisot


# -- Diophantine scan ----------------------------------------------------------


def test_scan_positive_for_aperiodic_pair():
    rep = diophantine_scan([math.log(2), math.log(3)], x_max=500.0)
    assert rep.positive
    assert rep.fitted_c > 0
    assert rep.min_m > 0


def test_scan_fails_for_single_ratio():
    rep = diophantine_scan([math.log(2)], x_max=200.0)
    assert not rep.positive
    # at x = k/log2 the distance can be pushed to 0 by y
    assert rep.min_m < 1e-3


def test_scan_respects_x_range():
    rep = diophantine_scan([math.log(2), math.log(5)], x_max=300.0)
    assert max(rep.xs) <= 300.0


# -- continued fractions / irrationality ---------------------------------------


def test_li_sahlsten_rational_ratio():
    rep = li_sahlsten_check(F(1, 4), F(1, 2))
    assert rep.verdict == "rational"


def test_li_sahlsten_log23_consistent():
    rep = li_sahlsten_check(F(1, 2), F(1, 3), q_max=10**6)
    assert rep.verdict == "consistent"
    assert rep.max_mu < 4
    # convergent chain of log2/log3 starts 0/1, 1/1, 1/2, 2/3, 5/8, 12/19
    got = [(p, q) for _a, p, q in rep.convergents[:6]]
    assert got == [(0, 1), (1, 1), (1, 2), (2, 3), (5, 8), (12, 19)]
    # mu along convergents hovers near 2 for a typical irrational
    assert 1.5 <= rep.max_mu


def test_li_sahlsten_liouville_number():
    # sum 10^{-k!}: continued-fraction denominators explode
    x = sum(F(1, 10 ** math.factorial(k)) for k in range(1, 6))
    rep = li_sahlsten_check(x, q_max=10**30, rational_is_exact=False)
    assert rep.verdict == "liouville-like"
    assert rep.max_mu >= 4


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
