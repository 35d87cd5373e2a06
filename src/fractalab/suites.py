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
from .ifs_core import WeightVector, aperiodic_125, cantor, compose_word, registered_affine
from .specfile import builtin_system, resolve_system


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


def _builtin(name):
    """A builtin system with its catalog weights."""
    spec = builtin_system(name)
    return spec.ifs, spec.weights


def _decreasing(seq):
    return all(b < a for a, b in zip(seq, seq[1:]))


def _llt_reports(ifs, w, ks, paths, seed, h=0, h_prime=None):
    """The LltReport at each k, with h' = sqrt(k) unless h_prime is given."""
    return [cw.conditional_llt_experiment(ifs, w, k, h, math.sqrt(k) if h_prime is None else h_prime, paths,
                                          rng_seed=seed) for k in ks]


def _energy_grid(ifs, w, qs, ks, rs, seed):
    """Rows (q, k, r, lhs, rhs, ok) of the scaled-energy inequality on the grid."""
    chi = cw.lyapunov(ifs, w, "exact").value
    rows = []
    for q, k, r in itertools.product(qs, ks, rs):
        out = fr.scaled_energy_check(ifs, w, q, k, r, chi, rng_seed=seed)
        rows.append((q, k, r, f"{out.lhs:.6g}", f"{out.rhs:.6g}", int(out.holds())))
    return rows


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


def suite_fourier_oracle(rng_seed=2026, samples=100_000, tol=1e-3):
    res = SuiteResult(
        "fourier-oracle-agreement",
        "word-tree vs Monte Carlo values of F_q over affine measures",
    )
    qs = np.geomspace(1.0, 1e4, 20)
    rows = []
    ok_cells = 0
    total = 0
    bound = 4.0 / math.sqrt(samples) + tol
    for name, (ifs, w) in registered_affine().items():
        for i, q in enumerate(qs):
            wt = fr.fourier_word_tree(ifs, w, Fraction(q).limit_denominator(10**6), tol)
            mc = fr.fourier_mc(ifs, w, float(q), samples, rng_seed=rng_seed + i)
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


def suite_fourier_recursion(rng_seed=11, tol=1e-8, n_q=100):
    res = SuiteResult(
        "fourier-recursion",
        "self-similarity identity F_q = sum_i p_i e(q t_i) F_{r_i q}",
    )
    rng = np.random.default_rng(rng_seed)
    rows = []
    worst = 0.0
    for name, (ifs, w) in registered_affine().items():
        qs = sorted(set(int(x) for x in rng.integers(1, 2000, size=n_q)))
        bad = 0
        for q in qs:
            qf = Fraction(q)
            lhs = fr.fourier_word_tree(ifs, w, qf, tol).value
            rhs = 0j
            for wi, m in zip(w, ifs.maps):
                child = fr.fourier_word_tree(ifs, w, qf * m.ratio, tol).value
                rhs += float(wi) * fr._exact_unit(qf * m.translation) * child
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


def suite_pisot_nondecay(tol=1e-6, n_max=25):
    res = SuiteResult(
        "pisot-nondecay",
        "golden Bernoulli convolution: |F_q| stays above a positive floor at q = r^{-n}",
    )
    ifs, w = _builtin("bernoulli-golden")
    r = ifs.maps[0].ratio
    rows = []
    mags = []
    for n in range(1, n_max + 1):
        q = r ** (-n)  # exact quadratic-field frequency
        s = fr.fourier_word_tree(ifs, w, q, tol)
        mags.append(abs(s.value))
        rows.append((n, f"{float(q):.8g}", f"{abs(s.value):.10f}"))
    floor = min(mags)
    res.tables["pisot"] = (("n", "q", "abs_F"), rows)
    res.check("min |F_{r^{-n}}| > 0 for n <= 25", floor > 0, f"floor {floor:.6g}")
    closed = min(_golden_nondecay(n_max))
    res.check(
        "floor matches the closed-form Jessen-Wintner product (tol 1e-6)",
        abs(floor - closed) <= 1e-6,
        f"floor {floor:.8g}, product {closed:.8g}; the non-decay floor ~ 4.87e-4 "
        f"sits below the nominal 1e-2 scale",
    )
    return res


# -- 4: aperiodic decay -------------------------------------------------------


def suite_aperiodic_decay(tol=1e-4, per_decade=30):
    res = SuiteResult(
        "aperiodic-decay",
        "per-decade max |F_q| strictly decreasing for the aperiodic system",
    )
    ifs = aperiodic_125()
    w = WeightVector.uniform(3)
    grid = np.geomspace(1.0, 1e5, 5 * per_decade + 1)
    prof = fr.decay_profile(ifs, w, [Fraction(q).limit_denominator(10**7) for q in grid], tol)
    decades = prof.per_decade_max()
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


def suite_llt_trend(rng_seed=7, paths=100_000, ks=(20, 40, 80)):
    res = SuiteResult(
        "llt-trend",
        "per-cell law of S_{tau_k}: Gamma-law agreement trend (aperiodic) and lattice floor (periodic)",
    )
    rows = []
    medians = {}
    for name in ("aperiodic-125", "cantor"):
        reps = _llt_reports(*_builtin(name), ks, paths, rng_seed)
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


def suite_stopping_bracket(rng_seed=3, pairs=1_000_000):
    res = SuiteResult(
        "stopping-bracket",
        "S_{tau_k} in [k chi, k chi + D'] with zero violations",
    )
    rows = []
    total_v = 0
    for name in ("cantor", "aperiodic-125"):
        v, n = cw.bracket_check(*_builtin(name), pairs // 2, rng_seed=rng_seed)
        rows.append((name, n, v))
        total_v += v
    res.tables["bracket"] = (("ifs", "pairs", "violations"), rows)
    res.check("zero bracket violations over 1e6 (path, k) pairs", total_v == 0, f"{total_v} violations")
    return res


# -- 7: Gamma law -------------------------------------------------------------


def suite_gamma_law(rng_seed=5, cells=100):
    res = SuiteResult(
        "gamma-law",
        "Gamma cell laws: unit mass, density capped by 1/D",
    )
    rng = np.random.default_rng(rng_seed)
    systems = [_builtin(name) for name in ("cantor", "aperiodic-125", "smooth-example")]
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
    res.check("Gamma mass = 1 within 1e-12 on 100 random cells", bad_mass == 0, f"{bad_mass} failures")
    res.check("Gamma density <= 1/D + 1e-12 on 100 random cells", bad_density == 0, f"{bad_density} failures")
    return res


# -- 8: digit normality -------------------------------------------------------


def suite_digit_normality(rng_seed=100, seeds=100, n_digits=4096):
    res = SuiteResult(
        "cantor-digit-normality",
        "base-2 digit blocks of Cantor samples look uniform; base-3 never shows digit 1",
    )
    ifs, w = _builtin("cantor")
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


def suite_digit_certification(rng_seed=500, seeds=100, n_digits=40):
    res = SuiteResult(
        "digit-certification",
        "doubling the requested precision never changes certified digits",
    )
    systems = [_builtin(name) for name in ("cantor", "aperiodic-125", "dyadic-pair")]
    bad = 0
    total = 0
    for ifs, w in systems:
        for base in (2, 3, 10):
            for s in range(seeds):
                seed = rng_seed + s
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


def suite_classification(tol=1e-6):
    res = SuiteResult(
        "classification",
        "periodicity certificates, induced system, stopped-word systems, integer form",
    )
    v1 = cls.is_periodic([m.ratio for m in cantor().maps])
    res.check("Cantor IFS is periodic with exact certificate", v1.periodic and v1.exact,
              f"generator {v1.generator:.6f}")
    ap, w = _builtin("aperiodic-125")
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


def suite_scaled_energy(rng_seed=21):
    res = SuiteResult(
        "scaled-energy",
        "scaled-energy inequality: frequency-band energy vs ball-mass bound",
    )
    rows = []
    for name in ("cantor", "bernoulli-1/3"):
        grid = _energy_grid(*_builtin(name), (1e2, 1e3, 1e5), (2, 4, 6), (1e-1, 1e-3, 3e-5), rng_seed)
        rows += [(name, *row) for row in grid]
    bad = sum(not row[-1] for row in rows)
    res.tables["energy"] = (("ifs", "q", "k", "r", "lhs", "rhs", "ok"), rows)
    res.check("lhs <= rhs + error budget on the full (q, k, r) grid x 2 measures",
              bad == 0, f"{bad} violations of {len(rows)}")
    return res


# -- 12: Moser instance -------------------------------------------------------


def suite_moser(rng_seed=42):
    res = SuiteResult(
        "moser-instance",
        "Liouville-like frequency tuple passing the finite Diophantine scan",
    )
    inst = cls.moser_family(tau=3.0, liouville_depth=3, rng_seed=rng_seed)
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


def run_suite(name, **kwargs):
    if name not in BUILTIN_SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(BUILTIN_SUITES)}")
    return BUILTIN_SUITES[name](**kwargs)


# -- config runners: one per `fractalab run` experiment kind ------------------


class ConfigError(ValueError):
    pass


def _need(cfg, key):
    if key not in cfg or not cfg[key]:
        raise ConfigError(f"missing config field: {key}")
    return cfg[key]


def parse_flag(key, text):
    """A boolean config value or `--expect` value: true or false, in any case."""
    if text.lower() not in ("true", "false"):
        raise ConfigError(f"{key} must be true or false, not {text!r}")
    return text.lower() == "true"


def _flag(cfg, key):
    return key in cfg and parse_flag(key, cfg[key])


def _load_system(cfg):
    spec = resolve_system(_need(cfg, "ifs"))
    weights = spec.weights
    if "weights" in cfg:
        weights = WeightVector([Fraction(w) for w in cfg["weights"].split()])
    if weights is None:
        raise ConfigError("missing config field: weights (not provided by the ifs file either)")
    if len(weights) != spec.ifs.n:
        raise ConfigError("weights length does not match the ifs")
    return spec.ifs, weights


def _parse_q_grid(text):
    """a:b:N-log -> N log-spaced frequencies in [a, b]."""
    try:
        a, b, tail = text.split(":")
        n, mode = tail.split("-")
        a, b, n = float(a), float(b), int(n)
        if mode != "log" or a <= 0 or b <= a or n < 2:
            raise ValueError
    except ValueError as exc:
        raise ConfigError(f"bad q-grid {text!r}; expected a:b:N-log") from exc
    return [Fraction(q).limit_denominator(10**7) for q in np.geomspace(a, b, n)]


def _run_suite(cfg, seed):
    return run_suite(_need(cfg, "suite"))


def _run_fourier_decay(cfg, seed):
    ifs, w = _load_system(cfg)
    tol = float(cfg.get("tol", "1e-4"))
    res = SuiteResult("fourier-decay", f"decay profile of {ifs.name}")
    if "q-ratio-powers" in cfg:
        # q = r^-n alternates in sign for a negative ratio, so this is no
        # increasing grid for decay_profile
        n_max = int(cfg["q-ratio-powers"])
        r = ifs.maps[0].ratio
        samples = [fr.fourier_word_tree(ifs, w, r ** (-n), tol) for n in range(1, n_max + 1)]
    else:
        grid = _parse_q_grid(_need(cfg, "q-grid"))
        method = cfg.get("method", "word_tree")
        samples = fr.decay_profile(ifs, w, grid, tol, method, int(cfg.get("samples", "100000")), seed).samples
    rows = [
        (f"{s.q:.10g}", f"{s.value.real:.10f}", f"{s.value.imag:.10f}",
         f"{abs(s.value):.10f}", f"{s.error_bound:.3g}", s.method)
        for s in samples
    ]
    res.tables["profile"] = (("q", "re", "im", "abs", "error_bound", "method"), rows)
    if cfg.get("assert-min-abs"):
        floor = float(cfg["assert-min-abs"])
        mn = min(abs(s.value) for s in samples)
        res.check(f"min |F_q| >= {floor}", mn >= floor, f"min {mn:.6g}")
    if _flag(cfg, "assert-decades-decreasing"):
        decades = fr.per_decade_max(samples)
        seq = [decades[j] for j in sorted(decades)]
        res.check("per-decade max strictly decreasing", _decreasing(seq), " > ".join(f"{v:.4g}" for v in seq))
    return res


def _run_llt(cfg, seed):
    ifs, w = _load_system(cfg)
    ks = [float(k) for k in _need(cfg, "k-list").split()]
    h = float(cfg.get("h", "0"))
    paths = int(cfg.get("paths", "100000"))
    h_prime = cfg.get("h-prime", "sqrt")
    reps = _llt_reports(ifs, w, ks, paths, seed, h, None if h_prime == "sqrt" else float(h_prime))
    res = SuiteResult("llt", f"conditional law of S_tau for {ifs.name}")
    rows = []
    for k, rep in zip(ks, reps):
        for c in rep.cells:
            rows.append((k, "".join(map(str, c.prefix)), "".join(map(str, c.suffix)), c.count, f"{c.ks:.6f}"))
        rows.append((k, "summary", "weighted_median", rep.paths, f"{rep.weighted_median_ks:.6f}"))
    res.tables["cells"] = (("k", "prefix", "suffix", "count", "ks"), rows)
    medians = [rep.weighted_median_ks for rep in reps]
    if _flag(cfg, "assert-trend"):
        res.check("weighted median KS strictly decreasing in k", _decreasing(medians),
                  " -> ".join(f"{v:.4f}" for v in medians))
    if cfg.get("assert-median-floor"):
        floor = float(cfg["assert-median-floor"])
        res.check(f"weighted median KS >= {floor} at every k",
                  all(v >= floor for v in medians),
                  " , ".join(f"{v:.4f}" for v in medians))
    return res


def _run_clt(cfg, seed):
    ifs, w = _load_system(cfg)
    n = int(cfg.get("n", "400"))
    paths = int(cfg.get("paths", "100000"))
    rep = cw.clt_experiment(ifs, w, n, paths, rng_seed=seed)
    res = SuiteResult("clt", f"normalized walk law for {ifs.name}")
    res.tables["clt"] = (
        ("n", "paths", "ks", "fitted_var", "zero_variance"),
        [(rep.n, rep.paths, f"{rep.ks:.6f}", f"{rep.fitted_var:.8f}", int(rep.zero_variance))],
    )
    if cfg.get("assert-ks-below"):
        cap = float(cfg["assert-ks-below"])
        res.check(f"KS distance <= {cap}", rep.ks <= cap, f"ks {rep.ks:.5f}")
    if _flag(cfg, "assert-zero-variance"):
        res.check("zero-variance degenerate walk flagged", rep.zero_variance)
    return res


def _run_normality(cfg, seed):
    ifs, w = _load_system(cfg)
    base = int(cfg.get("base", "2"))
    n_digits = int(cfg.get("n-digits", "4096"))
    seeds = int(cfg.get("seeds", "20"))
    block_len = int(cfg.get("block-len", "3"))
    p_floor = float(cfg.get("p-floor", "1e-3"))
    res = SuiteResult("normality", f"digit statistics of {ifs.name} in base {base}")
    rows = []
    passes = 0
    for s in range(seeds):
        p, ok = _chi2_pass(ifs, w, base, n_digits, block_len, seed + s, p_floor)
        passes += ok
        rows.append((seed + s, f"{p:.6f}", int(ok)))
    res.tables["digit-frequency"] = (("seed", "min_p_value", "pass"), rows)
    if cfg.get("assert-pass-fraction"):
        frac = float(cfg["assert-pass-fraction"])
        res.check(f"chi-square pass fraction >= {frac}", passes >= frac * seeds,
                  f"{passes}/{seeds}")
    return res


def _run_classify(cfg, seed):
    ifs, _ = _load_system(cfg)
    report = cls.classify_ifs(ifs)
    res = SuiteResult("classify", f"structural classification of {ifs.name}")
    res.tables["report"] = (("field",), [(line,) for line in report.to_text().splitlines()])
    if "expect-periodic" in cfg:
        want = parse_flag("expect-periodic", cfg["expect-periodic"])
        res.check(f"periodic == {want}", report.periodicity.periodic == want,
                  report.periodicity.certificate)
    if "expect-in-integer-form" in cfg:
        want = parse_flag("expect-in-integer-form", cfg["expect-in-integer-form"])
        res.check(f"integer form == {want}", report.integer_form.in_form == want)
    return res


def _run_moser(cfg, seed):
    tau = float(cfg.get("tau", "3"))
    depth = int(cfg.get("depth", "3"))
    inst = cls.moser_family(tau=tau, liouville_depth=depth, rng_seed=seed)
    res = SuiteResult("moser", "generated Liouville-like frequency tuple")
    res.tables["scan"] = _scan_table(inst)
    res.check("tuple starts (1, 2)", inst.v[:2] == (1.0, 2.0))
    res.check("Liouville-like continued fractions",
              all(r.verdict == "liouville-like" for r in inst.li_reports))
    res.check("positive scan envelope", inst.scan.positive and inst.scan.fitted_l <= tau + 1,
              f"fitted l {inst.scan.fitted_l:.3f}")
    return res


def _run_scaled_energy(cfg, seed):
    ifs, w = _load_system(cfg)
    qs = [float(x) for x in cfg.get("q-list", "100 1000 100000").split()]
    ks = [float(x) for x in cfg.get("k-list", "2 4 6").split()]
    rs = [float(x) for x in cfg.get("r-list", "0.1 0.001 0.00003").split()]
    res = SuiteResult("scaled-energy", f"scaled-energy inequality for {ifs.name}")
    rows = _energy_grid(ifs, w, qs, ks, rs, seed)
    res.tables["energy"] = (("q", "k", "r", "lhs", "rhs", "ok"), rows)
    bad = sum(not row[-1] for row in rows)
    res.check("inequality holds across the grid", bad == 0, f"{bad} violations")
    return res


def _run_del_criterion(cfg, seed):
    ifs, w = _load_system(cfg)
    base = int(cfg.get("base", "2"))
    q = Fraction(cfg.get("q", "1"))
    n_max = int(cfg.get("n-max", "4096"))
    samples = int(cfg.get("samples", "200"))
    rep = fr.del_criterion_diagnostic(ifs, w, base, q, n_max, samples, rng_seed=seed)
    res = SuiteResult("del-criterion", f"L2 orbit averages of {ifs.name} in base {base}")
    stride = max(1, n_max // 256)
    rows = [
        (int(rep.n_values[i]), f"{rep.e_n[i]:.8f}", f"{rep.partial_sums[i]:.6f}")
        for i in range(0, n_max, stride)
    ]
    res.tables["partial-sums"] = (("N", "e_N", "partial_sum"), rows)
    res.check("tail slope recorded", True, f"slope {rep.tail_slope:.4f} per log N")
    if _flag(cfg, "assert-bounded"):
        res.check("partial sums look bounded", rep.bounded_verdict(), f"slope {rep.tail_slope:.4f}")
    return res


RUNNERS = {
    "suite": _run_suite,
    "fourier-decay": _run_fourier_decay,
    "normality": _run_normality,
    "llt": _run_llt,
    "clt": _run_clt,
    "classify": _run_classify,
    "moser": _run_moser,
    "scaled-energy": _run_scaled_energy,
    "del-criterion": _run_del_criterion,
}


def run_config(cfg):
    """Run a parsed experiment config; raises ConfigError on a bad config."""
    kind = _need(cfg, "experiment")
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; known: {', '.join(RUNNERS)}")
    return RUNNERS[kind](cfg, int(cfg.get("seed", "0")))
