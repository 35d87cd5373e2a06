"""Experiments: the packaged verification suites and the config runners.

A suite runs a headline experiment with fixed parameters; a runner runs one
`fractalab run` experiment kind from a config (`run_config`).  Both return a
SuiteResult of named pass/fail assertions plus CSV-ready tables.  A suite and
a runner that measure the same thing share one helper and one pass rule, and
keep their own tables and assertion texts.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import classify as cls
from . import cocycle_walk as cw
from . import fourier as fr
from . import normality as nm
from .ifs_core import PreconditionError, WeightVector, aperiodic_125, builtin, cantor, compose_word, registered_affine
from .specfile import resolve_system


@dataclass
class Assertion:
    desc: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    name: str
    topic: str
    assertions: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # name -> (header tuple, rows)

    @property
    def passed(self):
        return all(a.passed for a in self.assertions)

    def check(self, desc, ok, detail=""):
        self.assertions.append(Assertion(desc, bool(ok), detail))
        return ok

    def summary_lines(self):
        lines = [f"suite: {self.name}", f"topic: {self.topic}"]
        for a in self.assertions:
            mark = "PASS" if a.passed else "FAIL"
            lines.append(f"{mark}  {a.desc}" + (f"  [{a.detail}]" if a.detail else ""))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines


# -- measurements and pass rules shared by suites and runners -----------------


def _decreasing(seq):
    return all(b < a for a, b in zip(seq, seq[1:]))


def _sci(n):
    """n with three or more trailing zeros as mantissa and exponent (1000000 -> "1e6")."""
    m, k = n, 0
    while m and m % 10 == 0:
        m, k = m // 10, k + 1
    return f"{m}e{k}" if k >= 3 else str(n)


def _llt_reports(ifs, w, ks, paths, seed, h=0, h_prime=None):
    """The LltReport at each k, with h' = sqrt(k) unless h_prime is given."""
    return [cw.conditional_llt_experiment(ifs, w, k, h, h_prime, paths, rng_seed=seed) for k in ks]


def _energy_grid(ifs, w, qs, ks, rs, seed):
    """Rows (q, k, r, lhs, rhs, ok) of the scaled-energy inequality on the grid."""
    chi = cw.lyapunov(ifs, w, "exact").value
    by_k = {k: fr.scaled_energy_check(ifs, w, qs, k, rs, chi, rng_seed=seed) for k in ks}
    return [
        (q, k, r, f"{out.lhs:.6g}", f"{out.rhs:.6g}", int(out.holds()))
        for i, q in enumerate(qs) for k in ks for r, out in zip(rs, by_k[k][i])
    ]


def _chi2_pass(ifs, w, base, n_digits, block_len, seed, p_floor):
    """(min p-value, passed) of the block chi-square test on one sampled point."""
    stream = nm.digits_of_sample(ifs, w, base, n_digits, rng_seed=seed)
    p = nm.digit_frequency_test(stream, n_digits, block_len).min_p_value
    return p, p > p_floor


def _scan_table(inst):
    return ("x", "m"), [(f"{x:.5g}", f"{m:.6g}") for x, m in zip(inst.scan.xs, inst.scan.ms)]


def _golden_nondecay(n_max):
    """|F_{r^-n}|, n = 1..n_max, of the golden Bernoulli convolution in closed form.

    The maps r x -+ 1 with weights 1/2 give F_q = prod_{k>=0} cos(2 pi q r^k).
    With phi = 1/r and the Lucas numbers L_m, phi^m = L_m - (-r)^m, and cosine
    is even, so F_{r^-n} = prod_{m=1..n} cos(2 pi r^m) * prod_{k>=0} cos(2 pi r^k):
    the Jessen-Wintner product with every large phase reduced exactly.
    """
    r = (math.sqrt(5) - 1) / 2
    tail = math.prod(math.cos(2 * math.pi * r**k) for k in range(80))
    heads = itertools.accumulate((math.cos(2 * math.pi * r**m) for m in range(1, n_max + 1)), operator.mul)
    return [abs(h * tail) for h in heads]


# -- 1: word tree vs Monte Carlo --------------------------------------------


def suite_fourier_oracle():
    res = SuiteResult(
        "fourier-oracle-agreement",
        "word-tree vs Monte Carlo values of F_q over affine measures",
    )
    samples, tol = 100_000, 1e-3
    qs = np.geomspace(1.0, 1e4, 20)
    rows = []
    ok_cells = 0
    total = 0
    bound = 4.0 / math.sqrt(samples) + tol
    for name, (ifs, w) in registered_affine().items():
        for i, q in enumerate(qs):
            wt = fr.fourier_word_tree(ifs, w, Fraction(q).limit_denominator(10**6), tol)
            mc = fr.fourier_mc(ifs, w, float(q), samples, rng_seed=2026 + i)
            diff = abs(wt.value - mc.value)
            ok = diff <= bound + mc.error_bound
            ok_cells += ok
            total += 1
            rows.append((name, f"{q:.6g}", f"{abs(wt.value):.8f}", f"{abs(mc.value):.8f}", f"{diff:.3e}", int(ok)))
    frac = ok_cells / total
    res.tables["cells"] = (("ifs", "q", "abs_wt", "abs_mc", "diff", "ok"), rows)
    res.check(
        f"|word_tree - mc| <= 4/sqrt(n) + tol in >= 95% of {total} cells",
        frac >= 0.95,
        f"agreement fraction {frac:.3f}",
    )
    return res


# -- 2: self-similarity recursion --------------------------------------------


def suite_fourier_recursion():
    res = SuiteResult(
        "fourier-recursion",
        "self-similarity identity F_q = sum_i p_i e(q t_i) F_{r_i q}",
    )
    rng = np.random.default_rng(11)
    tol = 1e-8
    rows = []
    worst = 0.0
    for name, (ifs, w) in registered_affine().items():
        qs = sorted(set(int(x) for x in rng.integers(1, 2000, size=100)))
        bad = 0
        for q in qs:
            qf = Fraction(q)
            lhs = fr.fourier_word_tree(ifs, w, qf, tol).value
            rhs = 0j
            for wi, m in zip(w.floats, ifs.maps):
                child = fr.fourier_word_tree(ifs, w, qf * m.ratio, tol).value
                rhs += wi * fr._exact_unit(qf * m.translation) * child
            resid = abs(lhs - rhs)
            worst = max(worst, resid)
            if resid > 2 * tol:
                bad += 1
        rows.append((name, len(qs), bad))
        res.check(
            f"{name}: recursion residual <= 2*tol at {len(qs)} random q",
            bad == 0,
            f"violations {bad}",
        )
    res.tables["recursion"] = (("ifs", "n_q", "violations"), rows)
    res.check("worst residual recorded", True, f"{worst:.3e}")
    return res


# -- 3: Pisot non-decay -------------------------------------------------------


def suite_pisot_nondecay():
    res = SuiteResult(
        "pisot-nondecay",
        "golden Bernoulli convolution: |F_q| stays above a positive floor at q = r^{-n}",
    )
    n_max = 25
    ifs, w = builtin("bernoulli-golden")
    r = ifs.maps[0].ratio
    rows = []
    mags = []
    for n in range(1, n_max + 1):
        q = r ** (-n)  # exact quadratic-field frequency
        s = fr.fourier_word_tree(ifs, w, q, 1e-6)
        mags.append(abs(s.value))
        rows.append((n, f"{float(q):.8g}", f"{abs(s.value):.10f}"))
    floor = min(mags)
    res.tables["pisot"] = (("n", "q", "abs_F"), rows)
    res.check(f"min |F_{{r^{{-n}}}}| > 0 for n <= {n_max}", floor > 0, f"floor {floor:.6g}")
    closed = min(_golden_nondecay(n_max))
    res.check(
        "floor matches the closed-form Jessen-Wintner product (tol 1e-6)",
        abs(floor - closed) <= 1e-6,
        f"floor {floor:.8g}, product {closed:.8g}; the non-decay floor ~ 4.87e-4 "
        f"sits below the nominal 1e-2 scale",
    )
    return res


# -- 4: aperiodic decay -------------------------------------------------------


def suite_aperiodic_decay():
    res = SuiteResult(
        "aperiodic-decay",
        "per-decade max |F_q| strictly decreasing for the aperiodic system",
    )
    ifs = aperiodic_125()
    w = WeightVector.uniform(3)
    grid = np.geomspace(1.0, 1e5, 5 * 30 + 1)
    prof = fr.decay_profile(ifs, w, [Fraction(q).limit_denominator(10**7) for q in grid], 1e-4)
    decades = fr.per_decade_max(prof.samples)
    seq = [decades[j] for j in sorted(decades) if 0 <= j <= 4]
    rows = [(j, f"{decades[j]:.8f}") for j in sorted(decades)]
    res.tables["decades"] = (("decade", "max_abs_F"), rows)
    res.check(
        "per-decade max |F_q| strictly decreasing over decades up to 1e5",
        _decreasing(seq),
        " > ".join(f"{v:.4g}" for v in seq),
    )
    res.check(
        "log-decay fit is non-degenerate",
        not prof.degenerate and prof.alpha > 0,
        f"alpha {prof.alpha:.3f} residual {prof.residual:.3f}",
    )
    return res


# -- 5: conditional LLT trend -------------------------------------------------


def suite_llt_trend():
    res = SuiteResult(
        "llt-trend",
        "per-cell law of S_{tau_k}: Gamma-law agreement trend (aperiodic) and lattice floor (periodic)",
    )
    paths, ks = 100_000, (20, 40, 80)
    rows = []
    medians = {}
    for name in ("aperiodic-125", "cantor"):
        reps = _llt_reports(*builtin(name), ks, paths, 7)
        medians[name] = [rep.weighted_median_ks for rep in reps]
        rows += [
            (name, k, f"{rep.weighted_median_ks:.5f}", f"{rep.excluded_mass:.4f}", len(rep.cells))
            for k, rep in zip(ks, reps)
        ]
    res.tables["llt"] = (("ifs", "k", "weighted_median_ks", "excluded_mass", "cells"), rows)
    res.check(
        f"aperiodic weighted-median KS strictly decreasing over k={list(ks)} at {paths} paths",
        _decreasing(medians["aperiodic-125"]),
        " -> ".join(f"{v:.4f}" for v in medians["aperiodic-125"]),
    )
    cantor_meds = medians["cantor"]
    res.check(
        "periodic Cantor median KS >= 0.2 at every k (lattice law)",
        all(v >= 0.2 for v in cantor_meds),
        " , ".join(f"{v:.4f}" for v in cantor_meds),
    )
    return res


# -- 6: stopping bracket ------------------------------------------------------


def suite_stopping_bracket():
    res = SuiteResult(
        "stopping-bracket",
        "S_{tau_k} in [k chi, k chi + D'] with zero violations",
    )
    rows = []
    total_v = total_n = 0
    for name in ("cantor", "aperiodic-125"):
        v, n = cw.bracket_check(*builtin(name), 500_000, rng_seed=3)
        rows.append((name, n, v))
        total_v += v
        total_n += n
    res.tables["bracket"] = (("ifs", "pairs", "violations"), rows)
    res.check(f"zero bracket violations over {_sci(total_n)} (path, k) pairs", total_v == 0,
              f"{total_v} violations")
    return res


# -- 7: Gamma law -------------------------------------------------------------


def suite_gamma_law():
    res = SuiteResult(
        "gamma-law",
        "Gamma cell laws: unit mass, density capped by 1/D",
    )
    rng_seed, cells = 5, 100
    rng = np.random.default_rng(rng_seed)
    systems = [builtin(name) for name in ("cantor", "aperiodic-125", "smooth-example")]
    chis = []
    for ifs, w in systems:
        if ifs.is_affine:
            chis.append(cw.lyapunov(ifs, w, "exact").value)
        else:
            chis.append(cw.lyapunov(ifs, w, "monte_carlo", n=200_000, rng_seed=rng_seed).value)
    bad_mass = 0
    bad_density = 0
    rows = []
    for c in range(cells):
        idx = int(rng.integers(0, len(systems)))
        ifs, w = systems[idx]
        chi = chis[idx]
        k = float(rng.uniform(5, 50))
        suffix = tuple(int(s) for s in rng.integers(1, ifs.n + 1, size=int(rng.integers(1, 4))))
        law = cw.gamma_law(ifs, w, suffix, k, chi, rng_seed=rng_seed + c)
        mass = law.mass()
        dmax = law.max_density()
        cap = 1.0 / ifs.big_d + 1e-12
        if abs(mass - 1.0) > 1e-12:
            bad_mass += 1
        if dmax > cap:
            bad_density += 1
        rows.append((ifs.name, f"{k:.3f}", suffix, f"{mass:.15f}", f"{dmax:.8f}", f"{cap:.8f}"))
    res.tables["gamma"] = (("ifs", "k", "suffix", "mass", "max_density", "cap"), rows)
    res.check(f"Gamma mass = 1 within 1e-12 on {cells} random cells", bad_mass == 0, f"{bad_mass} failures")
    res.check(f"Gamma density <= 1/D + 1e-12 on {cells} random cells", bad_density == 0,
              f"{bad_density} failures")
    return res


# -- 8: digit normality -------------------------------------------------------


def suite_digit_normality():
    res = SuiteResult(
        "cantor-digit-normality",
        "base-2 digit blocks of Cantor samples look uniform; base-3 never shows digit 1",
    )
    rng_seed, seeds, n_digits = 100, 100, 4096
    ifs, w = builtin("cantor")
    pass2 = 0
    ones3 = 0
    rows = []
    for s in range(seeds):
        p, ok = _chi2_pass(ifs, w, 2, n_digits, 3, rng_seed + s, 1e-3)
        pass2 += ok
        st3 = nm.digits_of_sample(ifs, w, 3, n_digits, rng_seed=rng_seed + s)
        n_ones = st3.digits.count(1)
        ones3 += n_ones
        rows.append((rng_seed + s, f"{p:.5f}", int(ok), n_ones))
    res.tables["normality"] = (("seed", "min_p_base2", "pass", "ones_base3"), rows)
    res.check(
        f"base-2 chi-square p > 1e-3 in >= 95 of {seeds} seeds (blocks <= 3, N={n_digits})",
        pass2 >= 0.95 * seeds,
        f"{pass2}/{seeds}",
    )
    res.check("base-3 digit 1 never occurs", ones3 == 0, f"{ones3} occurrences")
    return res


# -- 9: digit certification ---------------------------------------------------


def suite_digit_certification():
    res = SuiteResult(
        "digit-certification",
        "doubling the requested precision never changes certified digits",
    )
    n_digits = 40
    systems = [builtin(name) for name in ("cantor", "aperiodic-125", "dyadic-pair")]
    bad = 0
    total = 0
    for ifs, w in systems:
        for base in (2, 3, 10):
            for seed in range(500, 600):
                a = nm.digits_of_sample(ifs, w, base, n_digits, rng_seed=seed)
                b = nm.digits_of_sample(ifs, w, base, 2 * n_digits, rng_seed=seed)
                total += 1
                if b.digits[:n_digits] != a.digits:
                    bad += 1
    res.check(
        f"stable digits across {total} (seed, ifs, base) runs",
        bad == 0,
        f"{bad} mismatches",
    )
    return res


# -- 10: classification -------------------------------------------------------


def suite_classification():
    res = SuiteResult(
        "classification",
        "periodicity certificates, induced system, stopped-word systems, integer form",
    )
    tol = 1e-6
    v1 = cls.is_periodic([m.ratio for m in cantor().maps])
    res.check("Cantor IFS is periodic with exact certificate", v1.periodic and v1.exact,
              f"generator {v1.generator:.6f}")
    ap, w = builtin("aperiodic-125")
    v2 = cls.is_periodic([m.ratio for m in ap.maps])
    res.check("{1/2,1/3,1/5} is aperiodic with exact certificate",
              (not v2.periodic) and v2.exact and v2.witness is not None,
              v2.certificate)

    ind = cls.induce_aperiodic(ap, w)
    res.check("induced weight vector sums to exactly 1", sum(ind.q) == 1,
              f"{[str(x) for x in ind.q]}")
    agree = True
    details = []
    for q in (1, 7, 50):
        a = fr.fourier_word_tree(ap, w, Fraction(q), tol).value
        b = fr.fourier_word_tree(ind.psi, ind.q, Fraction(q), tol).value
        details.append(f"q={q}: {abs(a - b):.2e}")
        agree &= abs(a - b) <= 2 * tol
    res.check("F of (Phi, p) and (Psi, q) agree within 2*tol at q in {1,7,50}", agree,
              "; ".join(details))
    lat = cls.lattice_check_fixed_point_set(ind.psi)
    res.check("induced log-ratio set is not lattice-contained", not lat.contained,
              lat.certificate)

    ca = cantor()
    p4 = cls.phi_m(ca, 4)
    ok4 = len(p4.maps) == 4 and all(Fraction(m.ratio) == Fraction(1, 9) for m in p4.maps)
    res.check("Phi_4 of Cantor: four words of ratio 1/9", ok4)
    res.check("Phi_2 of Cantor equals the original system",
              [m.ratio for m in cls.phi_m(ca, 2).maps] == [m.ratio for m in ca.maps])
    from .ifs_core import AffineMap, Ifs

    two_five = Ifs([AffineMap(Fraction(1, 2), 0), AffineMap(Fraction(1, 5), Fraction(4, 5))], (0, 1))
    p3 = cls.phi_m(two_five, 3)
    res.check("Phi_3 of {1/2,1/5} is {f1f1, f1f2, f2}",
              sorted(p3.words) == [(1, 1), (1, 2), (2,)],
              f"words {p3.words}")
    thr = Fraction(1, 3)
    defining = all(
        Fraction(m.ratio) < thr
        and compose_word(two_five, wd[:-1]).ratio >= thr
        for m, wd in zip(p3.maps, p3.words)
    )
    res.check("Phi_m defining inequalities hold exactly", defining)

    f1 = cls.integer_pisot_form_check(
        Ifs([AffineMap(Fraction(1, 9), 0), AffineMap(Fraction(1, 3), Fraction(2, 3))], (0, 1))
    )
    res.check("{1/9,1/3}: base 3, exponents (2,1)",
              f1.in_form and f1.base == 3 and f1.exponents == [2, 1] and f1.gcd == 1)
    f2 = cls.integer_pisot_form_check(
        Ifs([AffineMap(Fraction(1, 4), 0), AffineMap(Fraction(1, 8), Fraction(7, 8))], (0, 1))
    )
    res.check("{1/4,1/8}: base 2, exponents (2,3), round-trip",
              f2.in_form and f2.base == 2 and f2.exponents == [2, 3]
              and f2.roundtrip_ok([Fraction(1, 4), Fraction(1, 8)]))
    f3 = cls.integer_pisot_form_check(
        Ifs([AffineMap(Fraction(1, 2), 0), AffineMap(Fraction(1, 3), Fraction(2, 3))], (0, 1))
    )
    res.check("{1/2,1/3}: no common integer base", not f3.in_form, f3.note)
    return res


# -- 11: scaled energy --------------------------------------------------------


def suite_scaled_energy():
    res = SuiteResult(
        "scaled-energy",
        "scaled-energy inequality: frequency-band energy vs ball-mass bound",
    )
    rows = []
    for name in ("cantor", "bernoulli-1/3"):
        grid = _energy_grid(*builtin(name), (1e2, 1e3, 1e5), (2, 4, 6), (1e-1, 1e-3, 3e-5), 21)
        rows += [(name, *row) for row in grid]
    bad = sum(not row[-1] for row in rows)
    res.tables["energy"] = (("ifs", "q", "k", "r", "lhs", "rhs", "ok"), rows)
    res.check("lhs <= rhs + error budget on the full (q, k, r) grid x 2 measures",
              bad == 0, f"{bad} violations of {len(rows)}")
    return res


# -- 12: Moser instance -------------------------------------------------------


def suite_moser():
    res = SuiteResult(
        "moser-instance",
        "Liouville-like frequency tuple passing the finite Diophantine scan",
    )
    inst = cls.moser_family(tau=3.0, liouville_depth=3, rng_seed=42)
    res.check("v starts with (1, 2)", inst.v[0] == 1.0 and inst.v[1] == 2.0, str(inst.v))
    res.check(
        "both alphas get the Liouville-like verdict",
        all(r.verdict == "liouville-like" for r in inst.li_reports),
        f"max mu {[f'{r.max_mu:.2f}' for r in inst.li_reports]}",
    )
    res.check(
        "scan envelope positive up to x_max = 1e3 with l <= tau + 1",
        inst.scan.positive and inst.scan.fitted_l <= inst.tau + 1,
        f"min m {inst.scan.min_m:.3e}, fitted l {inst.scan.fitted_l:.3f}",
    )
    res.tables["scan"] = _scan_table(inst)
    return res


BUILTIN_SUITES = {
    "fourier-oracle-agreement": suite_fourier_oracle,
    "fourier-recursion": suite_fourier_recursion,
    "pisot-nondecay": suite_pisot_nondecay,
    "aperiodic-decay": suite_aperiodic_decay,
    "llt-trend": suite_llt_trend,
    "stopping-bracket": suite_stopping_bracket,
    "gamma-law": suite_gamma_law,
    "cantor-digit-normality": suite_digit_normality,
    "digit-certification": suite_digit_certification,
    "classification": suite_classification,
    "scaled-energy": suite_scaled_energy,
    "moser-instance": suite_moser,
}


def run_suite(name):
    if name not in BUILTIN_SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(BUILTIN_SUITES)}")
    return BUILTIN_SUITES[name]()


# -- config runners: one per `fractalab run` experiment kind ------------------
# A runner takes the resolved config p (see run_config) and reads nothing else.


class ConfigError(ValueError):
    pass


def parse_flag(text):
    """A boolean config value or `--expect` value: true or false, in any case."""
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def parse_value(key, parse, text):
    """parse(text), with a rejected value raised as a ConfigError naming the key."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {key} {text!r}: {exc}") from exc


def _float(text):
    """A finite float: float() also reads nan and inf, which no key takes."""
    if not math.isfinite(x := float(text)):
        raise ValueError("not a finite number")
    return x


def _floats(text):
    return tuple(_float(x) for x in text.split())


def _weights(text):
    return WeightVector([Fraction(w) for w in text.split()])


def _parse_q_grid(text):
    """a:b:N-log -> N log-spaced frequencies in [a, b]."""
    a, b, tail = text.split(":")
    n, mode = tail.split("-")
    a, b, n = _float(a), _float(b), int(n)
    if mode != "log" or not 0 < a < b or n < 2:
        raise ValueError("expected a:b:N-log with 0 < a < b and N >= 2")
    return [Fraction(q).limit_denominator(10**7) for q in np.geomspace(a, b, n)]


def _run_suite(p):
    return run_suite(p["suite"])


def _run_fourier_decay(p):
    ifs, w, tol = p["ifs"], p["weights"], p["tol"]
    res = SuiteResult("fourier-decay", f"decay profile of {ifs.name}")
    if p["samples"] is not None and p["method"] != "monte_carlo":
        raise ConfigError(f"samples applies to method monte_carlo only, not {p['method']!r}")
    if (n_max := p["q-ratio-powers"]) is not None:
        # q = r^-n alternates in sign for a negative ratio, so this is no
        # increasing grid for decay_profile
        if n_max < 1:
            raise ValueError(f"q-ratio-powers must be >= 1, got {n_max}")
        if p["q-grid"] is not None:
            raise ConfigError("q-grid and q-ratio-powers exclude each other")
        if p["method"] != "word_tree":
            raise ConfigError(f"q-ratio-powers runs the word tree; method {p['method']!r} does not apply")
        if not ifs.is_affine:
            raise PreconditionError("q-ratio-powers requires an affine IFS")
        r = ifs.maps[0].ratio
        samples = [fr.fourier_word_tree(ifs, w, r ** (-n), tol) for n in range(1, n_max + 1)]
    elif p["q-grid"] is None:
        raise ConfigError("missing config field: q-grid")
    else:
        n_mc = 100_000 if p["samples"] is None else p["samples"]
        samples = fr.decay_profile(ifs, w, p["q-grid"], tol, p["method"], n_mc, p["seed"]).samples
    rows = [
        (f"{s.q:.10g}", f"{s.value.real:.10f}", f"{s.value.imag:.10f}",
         f"{abs(s.value):.10f}", f"{s.error_bound:.3g}", s.method)
        for s in samples
    ]
    res.tables["profile"] = (("q", "re", "im", "abs", "error_bound", "method"), rows)
    if (floor := p["assert-min-abs"]) is not None:
        mn = min(abs(s.value) for s in samples)
        res.check(f"min |F_q| >= {floor}", mn >= floor, f"min {mn:.6g}")
    if p["assert-decades-decreasing"]:
        decades = fr.per_decade_max(samples)
        seq = [decades[j] for j in sorted(decades)]
        res.check("per-decade max strictly decreasing", _decreasing(seq), " > ".join(f"{v:.4g}" for v in seq))
    return res


def _run_llt(p):
    ifs, ks = p["ifs"], p["k-list"]
    reps = _llt_reports(ifs, p["weights"], ks, p["paths"], p["seed"], p["h"], p["h-prime"])
    res = SuiteResult("llt", f"conditional law of S_tau for {ifs.name}")
    rows = []
    for k, rep in zip(ks, reps):
        for c in rep.cells:
            rows.append((k, "".join(map(str, c.prefix)), "".join(map(str, c.suffix)), c.count, f"{c.ks:.6f}"))
        rows.append((k, "summary", "weighted_median", rep.paths, f"{rep.weighted_median_ks:.6f}"))
    res.tables["cells"] = (("k", "prefix", "suffix", "count", "ks"), rows)
    medians = [rep.weighted_median_ks for rep in reps]
    if p["assert-trend"]:
        res.check("weighted median KS strictly decreasing in k", _decreasing(medians),
                  " -> ".join(f"{v:.4f}" for v in medians))
    if (floor := p["assert-median-floor"]) is not None:
        res.check(f"weighted median KS >= {floor} at every k",
                  all(v >= floor for v in medians),
                  " , ".join(f"{v:.4f}" for v in medians))
    return res


def _run_clt(p):
    ifs = p["ifs"]
    rep = cw.clt_experiment(ifs, p["weights"], p["n"], p["paths"], rng_seed=p["seed"])
    res = SuiteResult("clt", f"normalized walk law for {ifs.name}")
    res.tables["clt"] = (
        ("n", "paths", "ks", "fitted_var", "zero_variance"),
        [(rep.n, rep.paths, f"{rep.ks:.6f}", f"{rep.fitted_var:.8f}", int(rep.zero_variance))],
    )
    if (cap := p["assert-ks-below"]) is not None:
        res.check(f"KS distance <= {cap}", rep.ks <= cap, f"ks {rep.ks:.5f}")
    if p["assert-zero-variance"]:
        res.check("zero-variance degenerate walk flagged", rep.zero_variance)
    return res


def _run_normality(p):
    ifs, base, seed, seeds = p["ifs"], p["base"], p["seed"], p["seeds"]
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    res = SuiteResult("normality", f"digit statistics of {ifs.name} in base {base}")
    rows = []
    passes = 0
    for s in range(seeds):
        pv, ok = _chi2_pass(ifs, p["weights"], base, p["n-digits"], p["block-len"], seed + s, p["p-floor"])
        passes += ok
        rows.append((seed + s, f"{pv:.6f}", int(ok)))
    res.tables["digit-frequency"] = (("seed", "min_p_value", "pass"), rows)
    if (frac := p["assert-pass-fraction"]) is not None:
        res.check(f"chi-square pass fraction >= {frac}", passes >= frac * seeds,
                  f"{passes}/{seeds}")
    return res


def _run_classify(p):
    ifs = p["ifs"]
    report = cls.classify_ifs(ifs)
    res = SuiteResult("classify", f"structural classification of {ifs.name}")
    res.tables["report"] = (("field",), [(line,) for line in report.to_text().splitlines()])
    if (want := p["expect-periodic"]) is not None:
        res.check(f"periodic == {want}", report.periodicity.periodic == want,
                  report.periodicity.certificate)
    if (want := p["expect-in-integer-form"]) is not None:
        res.check(f"integer form == {want}", report.integer_form.in_form == want)
    return res


def _run_moser(p):
    tau = p["tau"]
    inst = cls.moser_family(tau=tau, liouville_depth=p["depth"], rng_seed=p["seed"])
    res = SuiteResult("moser", "generated Liouville-like frequency tuple")
    res.tables["scan"] = _scan_table(inst)
    res.check("tuple starts (1, 2)", inst.v[:2] == (1.0, 2.0))
    res.check("Liouville-like continued fractions",
              all(r.verdict == "liouville-like" for r in inst.li_reports))
    res.check("positive scan envelope", inst.scan.positive and inst.scan.fitted_l <= tau + 1,
              f"fitted l {inst.scan.fitted_l:.3f}")
    return res


def _run_scaled_energy(p):
    ifs = p["ifs"]
    res = SuiteResult("scaled-energy", f"scaled-energy inequality for {ifs.name}")
    rows = _energy_grid(ifs, p["weights"], p["q-list"], p["k-list"], p["r-list"], p["seed"])
    res.tables["energy"] = (("q", "k", "r", "lhs", "rhs", "ok"), rows)
    bad = sum(not row[-1] for row in rows)
    res.check("inequality holds across the grid", bad == 0, f"{bad} violations")
    return res


def _run_del_criterion(p):
    ifs, base, n_max = p["ifs"], p["base"], p["n-max"]
    rep = fr.del_criterion_diagnostic(ifs, p["weights"], base, p["q"], n_max, p["samples"], rng_seed=p["seed"])
    res = SuiteResult("del-criterion", f"L2 orbit averages of {ifs.name} in base {base}")
    stride = max(1, n_max // 256)
    rows = [
        (int(rep.n_values[i]), f"{rep.e_n[i]:.8f}", f"{rep.partial_sums[i]:.6f}")
        for i in range(0, n_max, stride)
    ]
    res.tables["partial-sums"] = (("N", "e_N", "partial_sum"), rows)
    res.check("tail slope recorded", True, f"slope {rep.tail_slope:.4f} per log N")
    if p["assert-bounded"]:
        res.check("partial sums look bounded", rep.bounded_verdict(), f"slope {rep.tail_slope:.4f}")
    return res


# Each kind's runner and its keys as {key: (parse, default)}: a parser takes
# the value's text, and an optional key without a default has None.  An
# absent `weights` falls back to the ifs file's; a kind that reads them
# declares FROM_IFS, and then the file must give them.
REQUIRED = object()  # the default of a key that must be given
FROM_IFS = object()  # the default of `weights` for a kind that reads them
_COMMON = {"experiment": (str, REQUIRED), "out": (str, "fractalab-out")}
_SYSTEM = {"ifs": (str, REQUIRED), "weights": (_weights, FROM_IFS)}
_FLAG = (parse_flag, False)
RUNNERS = {
    "suite": (_run_suite, {"suite": (str, REQUIRED)}),
    "fourier-decay": (_run_fourier_decay, {
        **_SYSTEM, "seed": (int, 0), "tol": (_float, 1e-4), "q-grid": (_parse_q_grid, None),
        "q-ratio-powers": (int, None), "method": (str, "word_tree"), "samples": (int, None),
        "assert-min-abs": (_float, None), "assert-decades-decreasing": _FLAG}),
    "normality": (_run_normality, {
        **_SYSTEM, "seed": (int, 0), "base": (int, 2), "n-digits": (int, 4096), "seeds": (int, 20),
        "block-len": (int, 3), "p-floor": (_float, 1e-3), "assert-pass-fraction": (_float, None)}),
    "llt": (_run_llt, {
        **_SYSTEM, "seed": (int, 0), "k-list": (_floats, REQUIRED), "h": (_float, 0.0),
        "h-prime": (lambda t: None if t == "sqrt" else _float(t), None),  # None: h' = sqrt(k)
        "paths": (int, 100_000), "assert-trend": _FLAG, "assert-median-floor": (_float, None)}),
    "clt": (_run_clt, {
        **_SYSTEM, "seed": (int, 0), "n": (int, 400), "paths": (int, 100_000),
        "assert-ks-below": (_float, None), "assert-zero-variance": _FLAG}),
    "classify": (_run_classify, {
        **_SYSTEM, "weights": (_weights, None),  # accepted, never read
        "expect-periodic": (parse_flag, None), "expect-in-integer-form": (parse_flag, None)}),
    "moser": (_run_moser, {"seed": (int, 0), "tau": (_float, 3.0), "depth": (int, 3)}),
    "scaled-energy": (_run_scaled_energy, {
        **_SYSTEM, "seed": (int, 0), "q-list": (_floats, (100.0, 1000.0, 100000.0)),
        "k-list": (_floats, (2.0, 4.0, 6.0)), "r-list": (_floats, (0.1, 0.001, 0.00003))}),
    "del-criterion": (_run_del_criterion, {
        **_SYSTEM, "seed": (int, 0), "base": (int, 2), "q": (Fraction, Fraction(1)), "n-max": (int, 4096),
        "samples": (int, 200), "assert-bounded": _FLAG}),
}


def run_config(cfg):
    """Run a parsed experiment config: (SuiteResult, resolved config).

    The resolved config holds every key of the kind's table, parsed or set to
    its default, with `ifs` and `weights` resolved to the system and its
    weight vector; `weights` is None only for a kind that reads none, when
    neither the config nor the ifs file gives them.  Before any experiment
    work, a key the kind does not take, a missing required key, an empty
    value or a value its parser rejects raises ConfigError.
    """
    kind = cfg.get("experiment")
    if not kind:
        raise ConfigError("missing config field: experiment")
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {', '.join(RUNNERS)}")
    run, table = RUNNERS[kind]
    table = {**_COMMON, **table}
    if unknown := [key for key in cfg if key not in table]:
        raise ConfigError(f"unknown config field {unknown[0]!r}; {kind} takes: {', '.join(table)}")
    p = {}
    for key, (parse, default) in table.items():
        if key not in cfg and default is REQUIRED:
            raise ConfigError(f"missing config field: {key}")
        if key in cfg and not cfg[key]:
            raise ConfigError(f"empty value for config field: {key}")
        p[key] = parse_value(key, parse, cfg[key]) if key in cfg else default
    if "ifs" in p:
        ifs, own = resolve_system(p["ifs"])
        weights = own if p["weights"] in (None, FROM_IFS) else p["weights"]
        if weights is None and p["weights"] is FROM_IFS:
            raise ConfigError("missing config field: weights (not provided by the ifs file either)")
        if weights is not None and len(weights) != ifs.n:
            raise ConfigError("weights length does not match the ifs")
        p["ifs"], p["weights"] = ifs, weights
    return run(p), p
