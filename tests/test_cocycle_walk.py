"""Log-derivative walk: Lyapunov exponent, stopping times, Gamma law, CLT."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fractalab import cocycle_walk, fourier, ifs_core
from fractalab.cocycle_walk import (
    bracket_check,
    clt_experiment,
    conditional_llt_experiment,
    gamma_law,
    lyapunov,
)
from fractalab.ifs_core import (
    PreconditionError,
    aperiodic_125,
    cantor,
    _draw_symbols,
    coding_point,
    moebius_example,
    registered_affine,
    smooth_example,
)

F = Fraction
HALF = (F(1, 2), F(1, 2))
W125 = (F(1, 2), F(1, 4), F(1, 4))


def test_lyapunov_closed_forms():
    est = lyapunov(cantor(), HALF)
    assert est.value == pytest.approx(math.log(3), abs=1e-14)
    assert est.stderr == 0
    est = lyapunov(aperiodic_125(), W125)
    expect = math.log(2) / 2 + math.log(3) / 4 + math.log(5) / 4
    assert est.value == pytest.approx(expect, abs=1e-14)


def test_lyapunov_monte_carlo_agrees_with_exact():
    exact = lyapunov(aperiodic_125(), W125).value
    mc = lyapunov(aperiodic_125(), W125, mode="monte_carlo", n=200_000, rng_seed=3)
    assert mc.stderr > 0
    assert abs(mc.value - exact) <= 3 * mc.stderr


def test_lyapunov_monte_carlo_smooth_positive():
    est = lyapunov(smooth_example(), HALF, mode="monte_carlo", n=50_000, rng_seed=0)
    ifs = smooth_example()
    dmin, dmax = ifs.deriv_bounds()
    assert -math.log(dmax) - 3 * est.stderr <= est.value <= -math.log(dmin) + 3 * est.stderr


@pytest.mark.parametrize("n", [0, -5])
def test_lyapunov_monte_carlo_rejects_n_below_1(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        lyapunov(smooth_example(), HALF, mode="monte_carlo", n=n)


@pytest.mark.parametrize("n", [10.5, 4000.0, True, "4000"])
def test_lyapunov_monte_carlo_rejects_a_non_int_n(n):
    with pytest.raises(ValueError, match=f"n must be an int >= 1, got {n!r}"):
        lyapunov(smooth_example(), HALF, mode="monte_carlo", n=n)


@pytest.mark.parametrize("make", [smooth_example, moebius_example])
def test_lyapunov_monte_carlo_stderr_matches_the_spread_of_its_values(make):
    # the increments of a smooth walk are serially correlated, so the stderr
    # must come from the spread of independent row means, not from the
    # per-step variance: over 100 seeds the sd of the values and the mean
    # stderr agree (their ratio has a sampling sd of about 0.07 here)
    ifs = make()
    runs = [lyapunov(ifs, HALF, mode="monte_carlo", n=4_000, rng_seed=seed) for seed in range(100)]
    ratio = np.std([r.value for r in runs], ddof=1) / np.mean([r.stderr for r in runs])
    assert 0.8 <= ratio <= 1.25, ratio


def test_walk_steps_are_log_ratios():
    sym, inc = cocycle_walk._walk_matrix(cantor(), HALF, 1, 50, np.random.default_rng(0))
    assert inc.shape == (1, 50)
    assert np.allclose(inc, math.log(3))
    assert set(np.unique(sym)) <= {0, 1}


def test_walk_smooth_matches_composite_derivative():
    # S_n = -log |(f_{w1} o ... o f_{wn})'(x_{sigma^n omega})| by the chain rule
    ifs = smooth_example()
    sym, inc = cocycle_walk._walk_matrix(ifs, HALF, 1, 30, np.random.default_rng(5))
    n = 12
    symbols = (sym[0] + 1).tolist()
    # the composite derivative at the coded tail point, innermost map first;
    # the 18 tail symbols padded by k = ceil(25 log 10 / D) more, which alone
    # shrink I = [0, 1] below 1e-25
    tail = symbols[n:] + symbols[-1:] * math.ceil(25 * math.log(10) / ifs.big_d)
    enc = coding_point(ifs, tail, F(1, 10**25))
    x = float((enc.lo + enc.hi) / 2)
    deriv = 1.0
    for s in reversed(symbols[:n]):
        m = ifs.maps[s - 1]
        deriv *= float(m.deriv(x))
        x = float(m(x))
    assert np.cumsum(inc[0])[n - 1] == pytest.approx(-math.log(abs(deriv)), abs=1e-7)


def _per_step_increments(ifs, word, length):
    """The walk's increments over word[:length], pulled back through word one
    symbol at a time with the maps' own float calls on 1-element arrays."""
    out = np.empty(length)
    x = np.array([float(ifs.interval_mid())])
    for j in range(len(word) - 1, -1, -1):
        m = ifs.maps[word[j]]
        if j < length:
            out[j] = ifs.steps[word[j]] if m.kind == "affine" else -np.log(np.abs(m.deriv(x)))[0]
        x = m(x)
    return out


@pytest.mark.parametrize("make", [smooth_example, moebius_example])
def test_smooth_walk_matrix_matches_a_per_row_reference(make):
    # each row pulled back alone, one step at a time: elementwise numpy gives
    # the same bits on 1-element and long arrays, so equality is exact, for
    # many rows and for one
    ifs = make()
    for rows, length in ((64, 40), (1, 1), (1, 400)):
        sym, incs = cocycle_walk._walk_matrix(ifs, HALF, rows, length, np.random.default_rng(3))
        width = length + cocycle_walk._smooth_tail_length(ifs)
        full = _draw_symbols(ifs, HALF, np.random.default_rng(3), (rows, width))
        assert np.array_equal(sym, full[:, :length])
        ref = np.array([_per_step_increments(ifs, word, length) for word in full])
        if rows > 1:
            assert len(np.unique(sym[:, 0])) == 2  # both maps occur in one column
        assert np.array_equal(incs, ref), (rows, length)


def test_bracket_check_no_violations():
    for ifs, p in (
        (cantor(), HALF),
        (aperiodic_125(), W125),
    ):
        violations, checked = bracket_check(ifs, p, pairs=20_000, rng_seed=0)
        assert violations == 0
        assert checked == 20_000


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: clt_experiment(aperiodic_125(), W125, 10.5, 100), "n must be an int, got 10.5"),
        (lambda: clt_experiment(aperiodic_125(), W125, 10, 100.0), "paths must be an int, got 100.0"),
        (lambda: clt_experiment(aperiodic_125(), W125, True, 100), "n must be an int, got True"),
        (lambda: conditional_llt_experiment(aperiodic_125(), W125, 4, 0, None, 100.0), "paths must be an int"),
        (lambda: bracket_check(aperiodic_125(), W125, 1000.0), "pairs must be an int, got 1000.0"),
    ],
    ids=["clt-n-float", "clt-paths-float", "clt-n-bool", "llt-paths-float", "bracket-pairs-float"],
)
def test_walk_counts_must_be_ints(run, message):
    # clt_experiment walked 10 steps for n = 10.5 and reported n = 10.5; the
    # others ended in a bare TypeError
    with pytest.raises(ValueError, match=message):
        run()


@pytest.mark.parametrize("pairs", [-1, 0, 9])
def test_bracket_check_rejects_fewer_than_ten_pairs(pairs):
    # pairs // 10 paths: below 10 pairs no path is walked, and (0, 0) read as a pass
    with pytest.raises(ValueError, match=f"pairs must be >= 10, got {pairs}"):
        bracket_check(aperiodic_125(), W125, pairs)


@pytest.mark.parametrize(
    "system, pairs, budget",
    [("aperiodic-125", 3_000, None), ("cantor", 3_000, None), ("aperiodic-125", 10_070, 1_200)],
)
def test_bracket_check_counts_planted_violations_like_a_per_path_reference(
    monkeypatch, system, pairs, budget
):
    # every 7th path gets a step of D' + 1 at column 25, so a k*chi in the gap
    # it leaves has S_tau above k*chi + D'.  The reference walks each recorded
    # row with 10 separate uniform draws of the chunk size from the state the
    # walk left, so a batched draw that paired a path with another path's k
    # would differ; _CELLS = 1,200 gives chunks of 1,200 // 81 = 14 paths and
    # a short last chunk of 13.
    ifs, p = registered_affine()[system]
    walk = cocycle_walk._walk_matrix
    recorded = []

    def planted(ifs_, p_, m, length, rng):
        sym, inc = walk(ifs_, p_, m, length, rng)
        inc[::7, 25] = ifs_.big_d_prime + 1.0
        recorded.append((inc.copy(), rng.bit_generator.state))
        return sym, inc

    monkeypatch.setattr(cocycle_walk, "_walk_matrix", planted)
    if budget is not None:
        monkeypatch.setattr(ifs_core, "_CELLS", budget)
    violations, checked = bracket_check(ifs, p, pairs, rng_seed=4)
    assert checked == pairs // 10 * 10
    rows = [len(inc) for inc, _ in recorded]
    if budget is None:
        assert rows == [pairs // 10]
    else:
        step = budget // recorded[0][0].shape[1]
        assert rows == [step] * (len(rows) - 1) + [pairs // 10 - step * (len(rows) - 1)] and 0 < rows[-1] < step

    chi, dp = lyapunov(ifs, p).value, ifs.big_d_prime
    expect = 0
    for inc, state in recorded:
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        kvecs = [rng.uniform(0.5, 50.0, size=len(inc)) for _ in range(10)]
        for r, row in enumerate(inc.tolist()):
            S = list(itertools.accumulate(row))
            for kvec in kvecs:
                target = float(kvec[r]) * chi
                s_tau = next((v for v in S if v >= target), S[0])  # argmax of no hit is 0
                expect += s_tau < target - 1e-9 or s_tau > target + dp + 1e-9
    assert violations == expect > 0


def test_bracket_check_smooth_system():
    violations, checked = bracket_check(smooth_example(), HALF, pairs=2_000, rng_seed=0)
    assert violations == 0
    assert checked == 2_000


def test_gamma_law_mass_and_density_cap():
    ifs, p = aperiodic_125(), W125
    chi = lyapunov(ifs, p).value
    d = float(ifs.big_d)
    for suffix in ((1, 2), (3,), (2, 1, 3)):
        law = gamma_law(ifs, p, suffix, k=6, chi=chi)
        assert law.mass() == pytest.approx(1.0, abs=1e-12)
        assert law.max_density() <= 1 / d + 1e-12


@pytest.mark.parametrize("ifs, p", [(cantor(), HALF), (aperiodic_125(), W125)], ids=["cantor", "aperiodic-125"])
def test_affine_gamma_law_mass_is_exactly_one(ifs, p):
    # one atom X <= D' has mass X / X: no k chi is added and taken off again
    chi = lyapunov(ifs, p).value
    for first in range(1, ifs.n + 1):
        for k in np.linspace(5, 50, 200):
            assert gamma_law(ifs, p, (first,), k=k, chi=chi).mass() == 1.0


def test_gamma_law_uniform_for_fixed_first_suffix_symbol():
    # affine: given the first suffix symbol has ratio 1/5, the overshoot is
    # uniform on [0, log 5] so the density is flat at 1/log 5
    ifs, p = aperiodic_125(), W125
    chi = lyapunov(ifs, p).value
    k = 4
    law = gamma_law(ifs, p, (3, 1), k=k, chi=chi)
    x = k * chi
    step = math.log(5)
    for frac in (0.05, 0.3, 0.6, 0.95):
        assert law.density(x + frac * step) == pytest.approx(1 / step, abs=1e-10)
    assert law.density(x + 1.05 * step) == 0
    assert law.cdf(x + step) == pytest.approx(1.0, abs=1e-12)


def test_gamma_law_cdf_monotone():
    ifs, p = cantor(), HALF
    law = gamma_law(ifs, p, (2, 1), k=3, chi=math.log(3))
    ts = np.linspace(law.kchi - 0.5, law.kchi + float(law.d_prime) + 0.5, 200)
    cs = [law.cdf(t) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))
    assert cs[0] == 0 and cs[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("suffix", [(3,), (1, 3), (2, 0), (2, 1.7), (1.5,)])
def test_gamma_law_rejects_out_of_range_suffix_symbols(suffix):
    with pytest.raises(ValueError, match="out of range"):
        gamma_law(smooth_example(), HALF, suffix, k=5, chi=1.0)


def test_clt_aperiodic_ks_small():
    rep = clt_experiment(aperiodic_125(), W125, n=400, paths=20_000, rng_seed=5)
    assert not rep.zero_variance
    assert rep.ks <= 0.02
    assert rep.fitted_var > 0


@pytest.mark.parametrize("paths, seed", [(2_000, 0), (7_000, 1), (12_000, 2), (30_000, 3)])
def test_clt_ks_is_the_kstest_statistic(paths, seed):
    from scipy import stats as sps

    ifs, p, n = aperiodic_125(), W125, 300
    rep = clt_experiment(ifs, p, n=n, paths=paths, rng_seed=seed)
    # the same sample, rebuilt from the seed as clt_experiment draws it
    rng = np.random.default_rng(seed)
    logr = np.array([-math.log(float(abs(m.ratio))) for m in ifs.maps])
    counts = rng.multinomial(n, [float(w) for w in p], size=paths)
    z = (counts @ logr - n * lyapunov(ifs, p).value) / math.sqrt(n)
    assert rep.fitted_var == float(z.var())
    assert rep.ks == sps.kstest(z, "norm", args=(0.0, math.sqrt(z.var()))).statistic


def test_clt_smooth_is_the_kstest_statistic():
    from scipy import stats as sps

    ifs, p, n, paths, seed = smooth_example(), HALF, 20, 200, 4
    rep = clt_experiment(ifs, p, n=n, paths=paths, rng_seed=seed)
    # the same sample, rebuilt from the seed as clt_experiment draws it: one
    # chunk of paths rows, each with its coding-point tail
    width = n + cocycle_walk._smooth_tail_length(ifs)
    words = _draw_symbols(ifs, p, np.random.default_rng(seed), (paths, width))
    s_n = np.array([_per_step_increments(ifs, word, n) for word in words]).sum(axis=1)
    chi = lyapunov(ifs, p, "monte_carlo", n=1_000_000, rng_seed=seed + 1).value
    z = (s_n - n * chi) / math.sqrt(n)
    assert not rep.zero_variance
    assert rep.fitted_var == float(z.var())
    assert rep.ks == sps.kstest(z, "norm", args=(0.0, math.sqrt(z.var()))).statistic


def test_clt_smooth_long_walk_takes_at_least_one_path_per_chunk(monkeypatch):
    # _CELLS // n is 0 here, as it is at the real _CELLS for n > 2^20; each of
    # the 3 paths is then a chunk of its own, a one-row walk of about 10 us a
    # step (about 0.9 s in all).  chi is stubbed, so that only the CLT's own
    # walks are counted
    monkeypatch.setattr(ifs_core, "_CELLS", 10_000)
    chi = cocycle_walk.LyapunovEstimate(1.0, 0.0, "monte_carlo")
    monkeypatch.setattr(cocycle_walk, "lyapunov", lambda *args, **kwargs: chi)
    walk = cocycle_walk._walk_matrix
    rows = []

    def counted(ifs, p, m, *rest):
        rows.append(m)
        return walk(ifs, p, m, *rest)

    monkeypatch.setattr(cocycle_walk, "_walk_matrix", counted)
    rep = clt_experiment(smooth_example(), HALF, n=30_000, paths=3, rng_seed=2)
    assert rep.paths == 3 and not rep.zero_variance
    assert rows == [1, 1, 1]


def test_clt_homogeneous_zero_variance():
    rep = clt_experiment(cantor(), HALF, n=200, paths=5_000, rng_seed=0)
    assert rep.zero_variance


def test_llt_report_structure():
    ifs, p = aperiodic_125(), W125
    rep = conditional_llt_experiment(ifs, p, k=10, h=0, h_prime=3.0, paths=4_000, rng_seed=7)
    assert rep.k == 10
    assert rep.paths == 4_000
    assert 0 <= rep.weighted_median_ks <= 1
    assert rep.cells
    total = sum(c.count for c in rep.cells)
    assert total <= rep.paths
    small = sum(c.count for c in rep.cells if c.count < rep.min_cell)
    assert rep.excluded_mass == pytest.approx(small / rep.paths, abs=1e-12)
    for c in rep.cells:
        assert 0 <= c.ks <= 1


def test_llt_rejects_smooth_systems():
    with pytest.raises(PreconditionError):
        conditional_llt_experiment(smooth_example(), HALF, k=5, h=0, h_prime=2.0, paths=100)


def test_llt_lattice_case_far_from_gamma_law():
    # Cantor: S_{tau_k} takes a single value per cell, so KS vs the
    # continuous law stays large
    rep = conditional_llt_experiment(cantor(), HALF, k=12, h=0, h_prime=3.0, paths=4_000, rng_seed=1)
    assert rep.weighted_median_ks >= 0.2


def test_llt_rejects_nonpositive_h_prime():
    with pytest.raises(ValueError, match="h_prime"):
        conditional_llt_experiment(aperiodic_125(), W125, k=5, h=0, h_prime=0.0, paths=100)


@pytest.mark.parametrize("ifs, p", [(cantor(), HALF), (aperiodic_125(), W125)], ids=["cantor", "aperiodic-125"])
def test_llt_tiny_h_prime_keeps_the_symbol_at_tau_k(ifs, p):
    # h' chi below half an ulp of S_{tau_k - 1} rounds the suffix target to
    # S_{tau_k - 1}; the suffix still starts and ends no earlier than tau_k
    rep = conditional_llt_experiment(ifs, p, k=20, h=0, h_prime=1e-20, paths=2_000, rng_seed=1)
    assert sum(c.count for c in rep.cells) == rep.paths
    assert all(len(c.suffix) >= 1 for c in rep.cells)


@pytest.mark.parametrize("h", [-3, -19, -1e-9, float("nan")])
def test_llt_rejects_negative_h(monkeypatch, h):
    # h = -19 at k = 20 indexed past the walk; h = -3 drew a shorter walk than h = 0
    monkeypatch.setattr(cocycle_walk, "_walk_matrix", None)  # raised before any walk
    with pytest.raises(ValueError, match=f"h must be >= 0, got {h}"):
        conditional_llt_experiment(aperiodic_125(), W125, k=20, h=h, h_prime=None, paths=100)


@pytest.mark.parametrize("cells", [5, 100])
def test_row_chunks_draw_the_stream_of_one_draw(monkeypatch, cells):
    # each call at a tiny _CELLS, in many chunks, gives the bits it gives at
    # the real _CELLS, in one.  _CELLS = 100 leaves a short last chunk;
    # _CELLS = 5 is below every width, so every chunk is one row.  The smooth
    # CLT also chunks the rows of its Monte Carlo chi, whose n is cut to 2,000
    # here: at n = 1e6 its 15,625 rows, one a chunk, would take about 20 s
    calls = {
        "sample_points": lambda: fourier.sample_points(smooth_example(), HALF, 211, np.random.default_rng(1), 1e-6),
        "fourier_mc": lambda: fourier.fourier_mc(aperiodic_125(), W125, 7.5, 307, rng_seed=2),
        "llt": lambda: conditional_llt_experiment(aperiodic_125(), W125, 12, 1, 3.0, 401, rng_seed=3),
        "clt": lambda: clt_experiment(smooth_example(), HALF, n=20, paths=53, rng_seed=4),
    }
    walks = {"clt": 2}  # _row_chunks calls per call; one for the others
    monkeypatch.setattr(cocycle_walk, "lyapunov", lambda *args, **kwargs: lyapunov(*args, **{**kwargs, "n": 2_000}))
    chunks = []

    def recorded(rows, width):
        chunks.append(list(ifs_core._row_chunks(rows, width)))
        return chunks[-1]

    monkeypatch.setattr(fourier, "_row_chunks", recorded)
    monkeypatch.setattr(cocycle_walk, "_row_chunks", recorded)

    def bits(out):
        return out.tobytes() if isinstance(out, np.ndarray) else repr(out)

    for name, call in calls.items():
        chunks.clear()
        one = bits(call())
        assert len(chunks) == walks.get(name, 1) and all(len(c) == 1 for c in chunks), name
        with monkeypatch.context() as m:
            m.setattr(ifs_core, "_CELLS", cells)
            chunks.clear()
            assert bits(call()) == one, name
        assert len(chunks) == walks.get(name, 1) and all(len(c) > 1 and min(c) >= 1 for c in chunks), name


def _reference_llt_cells(symbol_blocks, logr, k, h, h_prime, chi, paths, min_cell):
    """The LLT cells binned path by path from the definition: tau_k is the
    first n with S_n >= k*chi, the suffix runs from symbol tau_k to the first
    n with S_n >= S_{tau_k - 1} + h'*chi, and for h > 0 the prefix runs to
    the first n with S_n >= h*chi.  Returns (cells, median, excluded_mass,
    longest suffix of each block) with cells as (prefix, suffix, count, ks)
    in tuple order."""
    cells = {}
    widths = []
    for block in symbol_blocks:
        widths.append(0)
        for row in block.tolist():
            S = list(itertools.accumulate(float(logr[s]) for s in row))

            def first(target):
                return next(i for i, v in enumerate(S) if v >= target)

            j = first(k * chi)
            q = first((S[j - 1] if j > 0 else 0.0) + h_prime * chi)
            prefix = tuple(s + 1 for s in row[: first(h * chi) + 1]) if h > 0 else ()
            suffix = tuple(s + 1 for s in row[j : q + 1])
            widths[-1] = max(widths[-1], len(suffix))
            cells.setdefault((prefix, suffix), []).append(S[j])
    out = []
    for (prefix, suffix), vals in sorted(cells.items()):
        x1 = float(logr[suffix[0] - 1])
        u = [min(max((v - k * chi) / x1, 0.0), 1.0) for v in sorted(vals)]
        n = len(u)
        ks = max(max((i + 1) / n - ui, ui - i / n) for i, ui in enumerate(u))
        out.append((prefix, suffix, n, ks))
    kept = sorted((ks, n) for _, _, n, ks in out if n >= min_cell)
    median = float("nan")
    if kept:
        half = 0.5 * sum(n for _, n in kept)
        cum = itertools.accumulate(n for _, n in kept)
        median = next(ks for (ks, _), c in zip(kept, cum) if c >= half)
    excluded = sum(n for _, _, n, _ in out if n < min_cell)
    return out, median, excluded / paths, widths


@pytest.mark.parametrize(
    "system, k, h, paths, budget, min_cell",
    [
        ("aperiodic-125", 12, 0, 3_000, None, 30),
        ("aperiodic-125", 12, 2, 3_000, None, 30),
        ("cantor", 10, 0, 2_000, None, 30),
        ("cantor", 10, 1.5, 2_000, None, 30),
        ("aperiodic-125", 20, 1, 2_001, 1_000, 30),
        ("aperiodic-125", 6, 0, 300, None, 10**6),
    ],
)
def test_llt_cells_match_a_per_path_reference(monkeypatch, system, k, h, paths, budget, min_cell):
    # the symbols are drawn by searchsorted on the cumulative weights, not by
    # _draw_symbols, and recorded for the reference; the chunked case, with
    # _CELLS = 1,000, joins chunks of 1,000 // 49 = 20 paths whose keys have
    # different widths, the last of one path
    ifs, p = registered_affine()[system]
    blocks = []

    def draw(ifs_, p_, rng, shape):
        cumw = np.cumsum([float(w) for w in p_])
        blocks.append(np.searchsorted(cumw, rng.random(shape), side="right"))
        return blocks[-1]

    monkeypatch.setattr(cocycle_walk, "_draw_symbols", draw)
    if budget is not None:
        monkeypatch.setattr(ifs_core, "_CELLS", budget)
    h_prime = math.sqrt(k)
    rep = conditional_llt_experiment(
        ifs, p, k=k, h=h, h_prime=h_prime, paths=paths, rng_seed=11, min_cell=min_cell
    )
    step = paths if budget is None else budget // blocks[0].shape[1]
    assert [len(b) for b in blocks] == [step] * (paths // step) + [paths % step] * (paths % step > 0)
    chi = lyapunov(ifs, p).value
    logr = np.array([-math.log(float(abs(m.ratio))) for m in ifs.maps])
    cells, median, excluded, widths = _reference_llt_cells(
        blocks, logr, k, h, h_prime, chi, paths, min_cell
    )
    if budget is not None:
        # the short last chunk has narrower suffix keys than the others
        assert len(set(widths)) > 1
    assert [(c.prefix, c.suffix, c.count, c.ks) for c in rep.cells] == cells
    if math.isnan(median):
        assert math.isnan(rep.weighted_median_ks)
    else:
        assert rep.weighted_median_ks == median
    assert rep.excluded_mass == excluded


def test_registered_affine_consistent_with_walks():
    for name, (ifs, w) in registered_affine().items():
        est = lyapunov(ifs, w)
        assert est.value > 0


def test_llt_words_of_256_maps_do_not_wrap(monkeypatch):
    # the keys are the sampler's symbols plus one in its own narrow type; 256
    # maps need the word 256, which the reference forms from Python ints
    from fractalab.ifs_core import AffineMap, Ifs, WeightVector

    n = 256
    ifs = Ifs([AffineMap(F(1, n), F(i, n)) for i in range(n)], (0, 1))
    p = WeightVector.uniform(n)
    blocks = []
    draw = cocycle_walk._draw_symbols

    def record(ifs_, p_, rng, shape):
        blocks.append(draw(ifs_, p_, rng, shape))
        return blocks[-1]

    monkeypatch.setattr(cocycle_walk, "_draw_symbols", record)
    k, h, h_prime, paths = 3, 1, 2.0, 3_000
    rep = conditional_llt_experiment(ifs, p, k=k, h=h, h_prime=h_prime, paths=paths, rng_seed=5)
    chi = lyapunov(ifs, p).value
    cells, median, excluded, _ = _reference_llt_cells(
        blocks, ifs.steps, k, h, h_prime, chi, paths, rep.min_cell
    )
    assert [(c.prefix, c.suffix, c.count, c.ks) for c in rep.cells] == cells
    assert any(n in c.prefix for c in rep.cells) and any(n in c.suffix for c in rep.cells)
    assert rep.excluded_mass == excluded
