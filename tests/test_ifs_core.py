"""Maps, declared derivative bounds, word composition, coding enclosures and
attractor hulls, checked against exact and high-precision references."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalab import ifs_core
from fractalab.cocycle_walk import lyapunov
from fractalab.fourier import del_criterion_diagnostic, fourier_mc, sample_points
from fractalab.ifs_core import (
    BUILTINS,
    AffineMap,
    Ifs,
    PreconditionError,
    ShortPrefixError,
    WeightVector,
    aperiodic_125,
    attractor_interval,
    bernoulli_convolution,
    builtin,
    cantor,
    coding_point,
    compose_word,
    dyadic_pair,
    golden_bernoulli,
    moebius_example,
    moebius_map,
    pow2_pair,
    quadratic_map,
    registered_affine,
    registered_smooth,
    smooth_example,
)
from fractalab.normality import digits_of_sample
from fractalab.quadfield import QuadExact, golden_ratio_conjugate

F = Fraction


def test_affine_map_call_and_fixed_point():
    f = AffineMap(F(1, 3), F(2, 3))
    assert f(F(0)) == F(2, 3)
    assert f(F(1)) == F(1)
    assert ifs_core._fixed_point(f, 0) == F(1)
    g = AffineMap(F(1, 2), 0)
    assert ifs_core._fixed_point(g, 0) == 0


def _padded(ifs, word, target):
    """word + word[-1:] * k for k = ceil((log width(I) - log target) / D): k
    symbols alone shrink I by e^(-kD) <= target, so the padded word's
    cylinder, with at least one symbol more, is narrower than the target."""
    target = F(target)
    log_target = math.log(target.numerator) - math.log(target.denominator)
    return word + word[-1:] * math.ceil((math.log(ifs.width_float) - log_target) / ifs.big_d)


def test_compose_word_is_left_to_right():
    ifs = cantor()  # f1 = x/3, f2 = (x+2)/3
    g12 = compose_word(ifs, [1, 2])  # f1 o f2
    assert g12(F(0)) == F(2, 9)
    assert g12.ratio == F(1, 9)
    g21 = compose_word(ifs, [2, 1])  # f2 o f1
    assert g21(F(0)) == F(2, 3)
    # composition is not commutative here
    assert g12(F(0)) != g21(F(0))


def test_compose_word_ratio_is_product():
    ifs = aperiodic_125()
    g = compose_word(ifs, [1, 2, 3, 1])
    assert g.ratio == F(1, 2) * F(1, 3) * F(1, 5) * F(1, 2)


def test_weight_vector_must_sum_to_one():
    WeightVector([F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        WeightVector([F(1, 2), F(1, 3)])


def test_ifs_requires_contraction_and_invariance():
    with pytest.raises(ValueError):
        Ifs([AffineMap(F(3, 2), 0), AffineMap(F(1, 3), F(2, 3))], (F(0), F(1)))
    with pytest.raises(ValueError):
        # translate out of the interval
        Ifs([AffineMap(F(1, 3), F(5)), AffineMap(F(1, 3), 0)], (F(0), F(1)))


def test_coding_point_periodic_word_hits_exact_limit():
    # omega = (1,2,1,2,...) under {x/2, x/2+1/2}: limit solves x = (x/2+1/2)/2
    ifs = dyadic_pair()
    enc = coding_point(ifs, [1, 2] * 40, F(1, 2**60))
    assert enc.lo <= F(1, 3) <= enc.hi
    assert enc.width <= F(1, 2**60)


def test_coding_point_raises_on_a_short_prefix():
    ifs = cantor()
    # the cylinder of [1] is [0, 1/3]: coding_point appends no symbols
    with pytest.raises(ShortPrefixError, match="1-symbol prefix"):
        coding_point(ifs, [1], F(1, 3**30))
    enc = coding_point(ifs, [1] * 30, F(1, 3**30))
    assert (enc.lo, enc.hi) == (0, F(1, 3**30))
    # smooth: f_[1, 2](I) is about 1/10 wide
    with pytest.raises(ShortPrefixError, match="2-symbol prefix"):
        coding_point(smooth_example(), [1, 2], F(1, 10**12))
    assert coding_point(smooth_example(), [1, 2] * 20, F(1, 10**12)).width <= F(1, 10**12)


def test_coding_point_smooth_reaches_tiny_widths():
    ifs = smooth_example()
    enc = coding_point(ifs, _padded(ifs, [1, 2, 1, 2], F(1, 10**80)), F(1, 10**80))
    assert enc.width <= F(1, 10**80)
    assert enc.lo <= enc.hi


def test_coding_point_exact_quadratic_ratios():
    ifs = golden_bernoulli()
    enc = coding_point(ifs, _padded(ifs, [1, 2, 2, 1], F(1, 10**12)), F(1, 10**12))
    assert enc.width <= F(1, 10**12)
    lo, hi = ifs.interval
    lo_f, hi_f = lo.rational_bounds()[0], hi.rational_bounds()[1]
    assert lo_f <= enc.lo and enc.hi <= hi_f


def test_attractor_interval_examples():
    # {x/2, (x+1)/3, (x+1)/5}: attractor hull [0, 1/2] inside [0,1]
    maps = [AffineMap(F(1, 2), 0), AffineMap(F(1, 3), F(1, 3)), AffineMap(F(1, 5), F(1, 5))]
    ifs = Ifs(maps, (F(0), F(1)), name="hull-test")
    enc = attractor_interval(ifs)
    assert enc.lo == 0
    # certified over-approximation of sup K = 1/2, tight to the hull depth
    assert F(1, 2) <= enc.hi <= F(1, 2) + F(1, 3**60)
    enc = attractor_interval(dyadic_pair())
    assert (enc.lo, enc.hi) == (0, 1)
    enc = attractor_interval(cantor())
    assert (enc.lo, enc.hi) == (0, 1)


def test_attractor_interval_contains_coded_points():
    ifs = pow2_pair()
    hull = attractor_interval(ifs)
    for word in ([1, 1, 2], [2, 2, 2], [2, 1, 1, 1]):
        enc = coding_point(ifs, _padded(ifs, word, F(1, 10**9)), F(1, 10**9))
        assert hull.lo <= enc.lo and enc.hi <= hull.hi


def test_registered_catalogs():
    aff = registered_affine()
    assert len(aff) >= 5
    for ifs, w in aff.values():
        assert ifs.is_affine
        assert sum(w) == 1
    for ifs, _w in registered_smooth().values():
        assert not ifs.is_affine


def test_builtin_table_names_order_and_weights():
    assert list(BUILTINS) == ["cantor", "aperiodic-125", "dyadic-pair", "pow2-pair", "bernoulli-1/3",
                              "smooth-example", "moebius-example", "bernoulli-golden"]
    affine, smooth = registered_affine(), registered_smooth()
    assert list(affine) == ["cantor", "aperiodic-125", "dyadic-pair", "pow2-pair", "bernoulli-1/3"]
    assert list(smooth) == ["smooth-example", "moebius-example"]
    views = {**affine, **smooth}
    skewed = {"aperiodic-125": (F(1, 2), F(1, 4), F(1, 4)), "pow2-pair": (F(1, 3), F(2, 3))}
    for name in BUILTINS:
        ifs, w = builtin(name)
        assert ifs.name == name
        assert tuple(w) == skewed.get(name, (F(1, 2), F(1, 2)))
        if name in views:
            view, view_w = views[name]
            assert view.interval == ifs.interval and view_w == w
            assert [(m.num, m.den) for m in view.maps] == [(m.num, m.den) for m in ifs.maps]


def test_bernoulli_convolution_interval():
    ifs = bernoulli_convolution(F(1, 3))
    lo, hi = ifs.interval
    assert lo == -F(3, 2) and hi == F(3, 2)
    enc = attractor_interval(ifs)
    assert (enc.lo, enc.hi) == (lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2), min_size=1, max_size=20))
def test_cantor_enclosure_contains_word_image(word):
    ifs = cantor()
    g = compose_word(ifs, word)
    enc = coding_point(ifs, word, F(1, 3 ** len(word)))
    # the cylinder f_eta([0, 1]) has rational ends and is exactly as wide as
    # the target, so it is its own enclosure
    assert (enc.lo, enc.hi) == tuple(sorted((g(F(0)), g(F(1)))))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=14),
    st.lists(st.integers(1, 3), min_size=1, max_size=14),
)
def test_word_composition_is_associative(w1, w2):
    ifs = aperiodic_125()
    g = compose_word(ifs, w1 + w2)
    h = compose_word(ifs, w1).compose(compose_word(ifs, w2))
    assert g.ratio == h.ratio
    assert g.translation == h.translation


_COMPOSE_SYSTEMS = {
    **{name: ifs for name, (ifs, _) in registered_affine().items()},
    "golden": golden_bernoulli(),
    "mixed": Ifs(  # rational and quadratic-field ratios, rational translations
        [AffineMap(F(1, 3), 0), AffineMap(golden_ratio_conjugate() ** 2, F(1, 2))],
        (F(0), F(2)),
        name="mixed",
    ),
    "sqrt2-shift": Ifs(  # rational ratios, a translation in Q(sqrt 2)
        [AffineMap(F(1, 3), 0), AffineMap(F(1, 2), QuadExact(0, F(1, 10), 2))],
        (F(0), F(1)),
        name="sqrt2-shift",
    ),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_COMPOSE_SYSTEMS)), st.data())
def test_compose_word_equals_the_left_fold_of_compose(name, data):
    ifs = _COMPOSE_SYSTEMS[name]
    word = data.draw(st.lists(st.integers(1, ifs.n), min_size=1, max_size=200))
    fold = ifs.maps[word[0] - 1]
    for s in word[1:]:
        fold = fold.compose(ifs.maps[s - 1])
    g = compose_word(ifs, word)
    assert g == fold
    assert type(g.ratio) is type(fold.ratio)
    assert type(g.translation) is type(fold.translation)


def test_compose_word_keeps_a_one_symbol_word_as_the_map():
    ifs = golden_bernoulli()
    assert compose_word(ifs, [2]) is ifs.maps[1]
    assert type(compose_word(ifs, [2]).translation) is F


@pytest.mark.parametrize("word", [[2, 2], [1, 2], [1]], ids=["affine-map-twice", "mixed", "smooth-map"])
def test_compose_word_refuses_a_smooth_system(word):
    # map 1 of smooth_example is smooth and map 2 affine: every word is
    # refused, including words over the affine map alone
    with pytest.raises(PreconditionError, match="affine IFS"):
        compose_word(smooth_example(), word)


def test_coding_point_long_appended_word_is_fast_and_exact():
    ifs = bernoulli_convolution(F(99, 100))
    start = time.perf_counter()
    enc = coding_point(ifs, [1, 2] + [2] * 9690, F(1, 10**40))
    elapsed = time.perf_counter() - start
    # x_omega = f1(f2(fix f2)) = f1(100) = 98 for f1 = rx - 1, f2 = rx + 1
    assert 98 in enc
    assert enc.width <= F(1, 10**40)
    assert elapsed < 10
    # 9,690 is the least k with (99/100)^(2 + k) * 200 <= 1e-40
    with pytest.raises(ShortPrefixError):
        coding_point(ifs, [1, 2] + [2] * 9689, F(1, 10**40))


def _golden_reference(word, dps=400):
    """f_word(fix f_last) for the golden Bernoulli maps r x -/+ 1, in mpmath."""
    with mpmath.workdps(dps):
        r = (mpmath.sqrt(5) - 1) / 2
        x = (1 if word[-1] == 2 else -1) / (1 - r)
        for s in reversed(word):
            x = r * x + (1 if s == 2 else -1)
        return x


@pytest.mark.parametrize("exp10", [30, 50, 300])
def test_golden_coding_point_encloses_the_high_precision_point(exp10):
    ifs, target = golden_bernoulli(), F(1, 10**exp10)
    word = _padded(ifs, [1, 2] * 75, target)
    enc = coding_point(ifs, word, target)
    assert enc.width <= target
    x = _golden_reference(word)
    with mpmath.workdps(400):
        lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
        assert lo <= x <= hi


def test_coding_point_rational_width_with_irrational_ends_fits_the_target():
    # rational ratios, an irrational translation: the cylinder of [2, 2] has
    # rational width exactly 1/4 but irrational ends, so it cannot be the
    # enclosure; one more symbol leaves room for the rational bounds
    s = QuadExact(-2, 1, 5)  # sqrt(5) - 2
    ifs = Ifs([AffineMap(F(1, 2), 0), AffineMap(F(1, 2), s)], (F(0), F(1)))
    with pytest.raises(ShortPrefixError):
        coding_point(ifs, [2, 2], F(1, 4))
    enc = coding_point(ifs, [2, 2, 2], F(1, 4))
    assert enc.width <= F(1, 4)
    assert 2 * s in enc  # x_omega = fix f2 = 2s


def test_golden_digits_of_sample_certifies_200_base_2_digits():
    ifs = golden_bernoulli()
    stream = digits_of_sample(ifs, WeightVector.uniform(2), 2, 200, rng_seed=3)
    assert stream.certified_upto == 200 and len(stream.digits) == 200
    assert set(stream.digits) <= {0, 1}
    short = digits_of_sample(ifs, WeightVector.uniform(2), 2, 100, rng_seed=3)
    assert stream.digits[:100] == short.digits


# Exact rational maps of the two smooth builtins, for references evaluated
# in mpmath only: smooth-example {x/3 + x^2/20, (x+2)/3} and moebius-example
# {1/(x+2), (x+2)/3}, both on [0, 1]; and |f_1'| of their smooth first maps.
_SMOOTH_REFERENCE_MAPS = {
    "smooth-example": (lambda x: x / 3 + x * x / 20, lambda x: (x + 2) / 3),
    "moebius-example": (lambda x: 1 / (x + 2), lambda x: (x + 2) / 3),
}
_SMOOTH_REFERENCE_DERIVS = {
    "smooth-example": lambda x: mpmath.mpf(1) / 3 + x / 10,
    "moebius-example": lambda x: 1 / (x + 2) ** 2,
}
_SMOOTH_SYSTEMS = {"smooth-example": smooth_example, "moebius-example": moebius_example}


def _mpf(x):
    """An exact Fraction, or a + b*sqrt(d), in mpmath at the working precision."""
    if isinstance(x, QuadExact):
        return _mpf(x.a) + _mpf(x.b) * mpmath.sqrt(x.d)
    return mpmath.mpf(x.numerator) / x.denominator


def test_moebius_maps_contract():
    ifs = moebius_example()
    dmin, dmax = ifs.deriv_bounds()
    assert 0 < dmin <= dmax < 1
    # each smooth builtin's declared (dmin, dmax) bound |f_1'| on a grid over I
    for name, make in _SMOOTH_SYSTEMS.items():
        ifs = make()
        m, (lo, hi) = ifs.maps[0], ifs.interval
        grid = [lo + (hi - lo) * F(i, 64) for i in range(65)]
        with mpmath.workdps(50):
            derivs = [abs(_SMOOTH_REFERENCE_DERIVS[name](_mpf(x))) for x in grid]
            assert m.dmin <= min(derivs) and max(derivs) <= m.dmax


def test_declared_derivative_bounds_are_rounded_outward():
    # |f'| = 1/3 + x/5 runs from 1/3 to 8/15 on [0, 1]; the float nearest 8/15 lies below it
    m = quadratic_map(F(1, 3), 0, F(1, 10), (0, 1))
    assert F(m.dmin) <= F(1, 3) and F(m.dmax) >= F(8, 15)
    # |f'| = 2/(2x + 3)^2 runs from 2/25 to 2/9; both nearest floats fall inside
    m = moebius_map(0, 1, 2, 3, (0, 1))
    assert F(m.dmin) <= F(2, 25) and F(m.dmax) >= F(2, 9)


def _reference_maps(name, ifs):
    """mpmath maps of the system: the smooth builtins' exact maps above, or
    r x + t from each affine map's own coefficients."""
    if name in _SMOOTH_REFERENCE_MAPS:
        return _SMOOTH_REFERENCE_MAPS[name]
    return [lambda x, r=_mpf(m.ratio), t=_mpf(m.translation): r * x + t for m in ifs.maps]


def _reference_cylinder(name, ifs, word):
    """The ends of f_word(I); every map here is monotone on I."""
    maps = _reference_maps(name, ifs)
    lo, hi = map(_mpf, ifs.interval)
    for s in reversed(word):
        f = maps[s - 1]
        lo, hi = sorted((f(lo), f(hi)))
    return lo, hi


# the registered affine systems, golden, two mixed-field systems and the
# two smooth builtins
_CYLINDER_SYSTEMS = {**_COMPOSE_SYSTEMS, **{name: make() for name, make in _SMOOTH_SYSTEMS.items()}}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_CYLINDER_SYSTEMS)), st.data(), st.integers(5, 80))
def test_smooth_coding_point_contains_the_high_precision_cylinder(name, data, exp10):
    ifs = _CYLINDER_SYSTEMS[name]
    target = F(1, 10**exp10)
    word = _padded(ifs, data.draw(st.lists(st.integers(1, ifs.n), min_size=1, max_size=200)), target)
    enc = coding_point(ifs, word, target)
    assert enc.width <= target
    with mpmath.workdps(400):
        lo, hi = _reference_cylinder(name, ifs, word)
        # rational ends are enclosed exactly; 1e-390 covers the reference's
        # own 400-digit rounding and is far below every target
        slack = mpmath.mpf(10) ** -390
        assert _mpf(enc.lo) <= lo + slack and hi - slack <= _mpf(enc.hi)


def _assert_digits_match_the_high_precision_point(name, n, seed):
    stream = digits_of_sample(_SMOOTH_SYSTEMS[name](), WeightVector.uniform(2), 2, n, rng_seed=seed)
    # the same draws as the sampler: one uniform per symbol, symbol 1 below 1/2
    u = np.random.default_rng(seed).random(stream.prefix_len)
    word = [1 if x < 0.5 else 2 for x in u]
    # n bits are about 0.3 n decimal digits; 250 more cover the reference's
    # own rounding (at n = 4096 the prefixes have 2,590 to 3,402 symbols)
    with mpmath.workdps(n * 3 // 10 + 250):
        x = mpmath.mpf(0)  # every point of I maps into the certified cell
        for s in reversed(word):
            x = _SMOOTH_REFERENCE_MAPS[name][s - 1](x)
        scaled = int(mpmath.floor(x * 2**n))
    assert stream.digits == [int(b) for b in format(scaled, f"0{n}b")]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smooth_digits_of_sample_match_the_high_precision_point(seed):
    _assert_digits_match_the_high_precision_point("smooth-example", 512, seed)


@pytest.mark.parametrize("name, seed", [(name, seed) for name in _SMOOTH_SYSTEMS for seed in (0, 1)])
def test_4096_smooth_digits_match_the_high_precision_point(name, seed):
    _assert_digits_match_the_high_precision_point(name, 4096, seed)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_SMOOTH_SYSTEMS)), st.integers(0, 2**32), st.integers(1000, 4000),
       st.integers(1000, 4100))
def test_long_smooth_coding_point_contains_the_high_precision_cylinder(name, seed, length, exp2):
    ifs = _SMOOTH_SYSTEMS[name]()
    target = F(1, 2**exp2)
    word = _padded(ifs, [int(s) for s in np.random.default_rng(seed).integers(1, ifs.n + 1, length)], target)
    enc = coding_point(ifs, word, target)
    assert enc.width <= target
    with mpmath.workdps(1450):  # 2^-4100 is about 1e-1234
        lo, hi = _reference_cylinder(name, ifs, word)
        slack = mpmath.mpf(10) ** -1440
        assert _mpf(enc.lo) <= lo + slack and hi - slack <= _mpf(enc.hi)


@pytest.mark.parametrize("name", sorted(_SMOOTH_SYSTEMS))
def test_long_smooth_enclosures_take_one_precision_pass(name, monkeypatch):
    # the per-depth grids keep the rounding below the width slack, so no
    # request falls back to doubling the precision
    counts = {"calls": 0, "passes": 0}
    point, cylinder = ifs_core.coding_point, ifs_core._smooth_cylinder

    def counted(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(ifs_core, "coding_point", counted("calls", point))
    monkeypatch.setattr(ifs_core, "_smooth_cylinder", counted("passes", cylinder))
    for n in (2048, 4096):
        for seed in (0, 1):
            digits_of_sample(_SMOOTH_SYSTEMS[name](), WeightVector.uniform(2), 2, n, rng_seed=seed)
    assert counts["calls"] >= 4 and counts["passes"] == counts["calls"]


def test_smooth_attractor_hulls_contain_their_fixed_points():
    enc = attractor_interval(smooth_example())
    assert 1 in enc  # fixed point of (x+2)/3
    enc = attractor_interval(moebius_example())
    assert 1 in enc and F(1, 3) in enc  # 1/3 = f1(1)
    with mpmath.workdps(60):  # sqrt(2) - 1, the fixed point of 1/(x+2)
        assert _mpf(enc.lo) <= mpmath.sqrt(2) - 1 <= _mpf(enc.hi)


def test_smooth_map_into_interval_check_is_exact():
    third = AffineMap(F(1, 3), 0)
    # x/3 + x^2/20 + 37/60 maps [0, 1] onto [37/60, 1] exactly
    Ifs([quadratic_map(F(1, 3), F(37, 60), F(1, 20), (0, 1)), third], (0, 1))
    # x/4 + x^2/8 + 5/8 + 1e-20 sends 1 past 1 by 1e-20
    over = quadratic_map(F(1, 4), F(5, 8) + F(1, 10**20), F(1, 8), (0, 1))
    with pytest.raises(ValueError, match="does not map I into I"):
        Ifs([over, third], (0, 1))


def test_a_shared_fixed_point_is_decided_exactly():
    # x/3 + 13/60 + x^2/20 and x/3 + 2/9 both fix 1/3
    fix_third = quadratic_map(F(1, 3), F(13, 60), F(1, 20), (0, 1))
    with pytest.raises(ValueError, match="share one fixed point"):
        Ifs([fix_third, AffineMap(F(1, 3), F(2, 9))], (0, 1))
    # the same quadratic shape fixing 1/3 + 1e-14: two attractor points
    x = F(1, 3) + F(1, 10**14)
    Ifs([fix_third, quadratic_map(F(1, 3), x - x / 3 - x * x / 20, F(1, 20), (0, 1))], (0, 1))
    # 1/(x+2) and (x+1)/(x+3) both fix sqrt(2) - 1
    root2 = QuadExact(-1, 1, 2)
    assert ifs_core._fixed_point(moebius_map(0, 1, 1, 2, (0, 1)), 0) == root2
    with pytest.raises(ValueError, match="share one fixed point"):
        Ifs([moebius_map(0, 1, 1, 2, (0, 1)), moebius_map(1, 1, 1, 3, (0, 1))], (0, 1))
    # maps over other fields: Q(sqrt 5) fixes no point of Q(sqrt 2); sqrt(2) - 1
    # written in Q(sqrt 8) is still the shared point
    Ifs([moebius_map(0, 1, 1, 2, (0, 1)), AffineMap(golden_ratio_conjugate() / 2, 0)], (0, 1))
    with pytest.raises(ValueError, match="share one fixed point"):
        Ifs([moebius_map(0, 1, 1, 2, (0, 1)), AffineMap(F(1, 2), QuadExact(-1, F(1, 2), 8) / 2)], (0, 1))
    for name in BUILTINS:
        builtin(name)
    cubic = ifs_core.SmoothMap("cubic", lambda x: x / 3 + x**3 / 20, lambda x: 1 / 3 + 3 * x**2 / 20,
                               (0, F(1, 3), 0, F(1, 20)), (1,), 1 / 3, 0.49)
    with pytest.raises(PreconditionError, match="degree 3"):
        Ifs([cubic, AffineMap(F(1, 3), F(2, 3))], (0, 1))


def test_smooth_system_with_a_quadratic_field_map_raises_a_named_error():
    ifs = Ifs(
        [quadratic_map(F(1, 3), 0, F(1, 20), (0, 1)), AffineMap(F(1, 3), golden_ratio_conjugate())],
        (0, 1),
    )
    with pytest.raises(PreconditionError, match="quadratic-field"):
        coding_point(ifs, [1, 2], F(1, 10**12))
    with pytest.raises(PreconditionError, match="quadratic-field"):
        attractor_interval(ifs)


@pytest.mark.parametrize(
    "run",
    [
        lambda ifs, p: sample_points(ifs, p, 100, np.random.default_rng(0), 1e-6),
        lambda ifs, p: fourier_mc(ifs, p, 10.0, 1000),
        lambda ifs, p: del_criterion_diagnostic(ifs, p, 2, 1, 64, samples=4),
        lambda ifs, p: digits_of_sample(ifs, p, 2, 40),
        lambda ifs, p: lyapunov(ifs, p, "exact"),
    ],
    ids=["sample_points", "fourier_mc", "del_criterion_diagnostic", "digits_of_sample",
         "lyapunov_exact"],
)
def test_nu_sampling_rejects_a_weight_vector_of_the_wrong_length(run):
    # two weights for three maps would silently sample another measure
    with pytest.raises(ValueError, match="weight vector length"):
        run(aperiodic_125(), (F(1, 2), F(1, 2)))


def test_draw_symbols_gives_the_last_symbol_the_cumulative_round_off():
    # the float cumulative sum of seven 1/7 weights ends at 0.9999999999999998,
    # so a draw just below 1 lies beyond it
    from fractalab.ifs_core import _draw_symbols

    class Stub:
        def random(self, shape):
            return np.full(shape, np.nextafter(1.0, 0.0))

    maps = [AffineMap(F(1, 8), F(i, 7)) for i in range(7)]
    ifs = Ifs(maps, (0, 1))
    sym = _draw_symbols(ifs, WeightVector.uniform(7), Stub(), (3, 4))
    assert sym.shape == (3, 4)
    assert (sym == 6).all()


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_deriv_bounds_d_and_d_prime_are_the_per_map_extremes(name):
    # derived once at construction; the floats of the per-map formula
    ifs, _ = builtin(name)
    ranges = [m.deriv_range() for m in ifs.maps]
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
    assert ifs.deriv_bounds() == (lo, hi)
    assert ifs.big_d == -math.log(hi)
    assert ifs.big_d_prime == -math.log(lo)
    assert ifs.steps.tolist() == [-math.log(r[1]) for r in ranges]


def _uniform_ifs(n):
    """{x/n + i/n : i < n} on [0, 1], a rational affine system with n maps."""
    return Ifs([AffineMap(F(1, n), F(i, n)) for i in range(n)], (0, 1))


def _searchsorted_symbols(p, u):
    """0-based symbols of the uniforms u: the count of cumulative weights <= u,
    the last weight left out, as int64 (it cannot wrap)."""
    return np.searchsorted(np.cumsum([float(w) for w in p])[:-1], u, side="right")


@pytest.mark.parametrize(
    "ifs, p",
    [
        (cantor(), WeightVector.uniform(2)),
        (pow2_pair(), WeightVector([F(1, 3), F(2, 3)])),
        (aperiodic_125(), WeightVector([F(1, 2), F(1, 4), F(1, 4)])),
        (_uniform_ifs(7), WeightVector([F(i, 28) for i in range(1, 8)])),
        (_uniform_ifs(256), WeightVector.uniform(256)),
        (_uniform_ifs(300), WeightVector.uniform(300)),
    ],
    ids=["n2", "n2-unequal", "n3", "n7", "n256", "n300"],
)
def test_draw_symbols_are_the_searchsorted_counts(ifs, p):
    from fractalab.ifs_core import _draw_symbols

    shape = (500, 60)
    sym = _draw_symbols(ifs, p, np.random.default_rng(4), shape)
    ref = _searchsorted_symbols(p, np.random.default_rng(4).random(shape))
    assert sym.shape == shape
    assert np.array_equal(sym, ref)
    # 1-based words, as the LLT keys and del_criterion_diagnostic form them
    assert np.array_equal(sym + 1, ref + 1)
    assert int((sym + 1).max()) == ifs.n
    one_dim = _draw_symbols(ifs, p, np.random.default_rng(5), 70)
    assert one_dim.tolist() == _searchsorted_symbols(p, np.random.default_rng(5).random(70)).tolist()


def test_one_based_words_of_256_maps_do_not_wrap(monkeypatch):
    # 256 maps need 9 bits for the word 256; the symbols the sampler's
    # consumers pass on must be the searchsorted counts plus one
    from fractalab import fourier

    ifs, p = _uniform_ifs(256), WeightVector.uniform(256)
    words = []

    def compose(ifs_, word):
        words.append(list(word))
        return compose_word(ifs_, word)

    monkeypatch.setattr(fourier, "compose_word", compose)
    length = int(math.ceil(4 * math.log(3) / ifs.big_d)) + 64
    del_criterion_diagnostic(ifs, p, 3, 1, 4, samples=20, rng_seed=2)
    rng = np.random.default_rng(2)
    assert words == [(_searchsorted_symbols(p, rng.random(length)) + 1).tolist() for _ in range(20)]
    assert max(map(max, words)) == 256

    prefixes = []

    def enclose(ifs_, prefix, need):
        prefixes.append(list(prefix))
        return coding_point(ifs_, prefix, need)

    monkeypatch.setattr(ifs_core, "coding_point", enclose)
    digits_of_sample(ifs, p, 2, 2000, rng_seed=1)
    first = prefixes[0]
    assert first == (_searchsorted_symbols(p, np.random.default_rng(1).random(len(first))) + 1).tolist()
    assert max(first) == 256


def test_affine_pull_back_is_the_per_row_float_composition():
    # x -> r*x + t per symbol, innermost first, in Python floats; the input
    # array is left as it was
    from fractalab.ifs_core import _pull_back

    rng = np.random.default_rng(6)
    for ifs in (cantor(), aperiodic_125(), _uniform_ifs(7)):
        sym = rng.integers(0, ifs.n, size=(200, 30)).astype(np.uint8)
        x = rng.random(200)
        before = x.copy()
        out = _pull_back(ifs, sym, x)
        ref = []
        for row, v in zip(sym.tolist(), x.tolist()):
            for s in reversed(row):
                v = float(ifs.maps[s].ratio) * v + float(ifs.maps[s].translation)
            ref.append(v)
        assert out.tolist() == ref
        assert np.array_equal(x, before)
