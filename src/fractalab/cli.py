"""Batch command-line driver.

    fractalab run <config>       run an experiment config, write CSV + summary
    fractalab classify <file>    print the classification report of an IFS
    fractalab suites             list the packaged verification suites

Exit status 0 means every assertion in the run passed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import classify as cls
from . import cocycle_walk as cw
from . import fourier as fr
from . import normality as nm
from .ifs_core import WeightVector
from .specfile import SpecFileError, parse_config, resolve_system
from .suites import BUILTIN_SUITES, SuiteResult, run_suite


class ConfigError(ValueError):
    pass


def _need(cfg, key):
    if key not in cfg or not cfg[key]:
        raise ConfigError(f"missing config field: {key}")
    return cfg[key]


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
    import numpy as np

    return [Fraction(q).limit_denominator(10**7) for q in np.geomspace(a, b, n)]


def _write_tables(result, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    for tname, (header, rows) in result.tables.items():
        path = out_dir / f"{result.name}-{tname}.csv"
        with path.open("w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(header)
            for row in rows:
                wtr.writerow(row)
    summary = out_dir / f"{result.name}-summary.txt"
    summary.write_text("\n".join(result.summary_lines()) + "\n")


def _run_suite(cfg, seed):
    return run_suite(_need(cfg, "suite"))


def _run_fourier_decay(cfg, seed):
    ifs, w = _load_system(cfg)
    tol = float(cfg.get("tol", "1e-4"))
    res = SuiteResult("fourier-decay", f"decay profile of {ifs.name}")
    samples = []
    if "q-ratio-powers" in cfg:
        n_max = int(cfg["q-ratio-powers"])
        r = ifs.maps[0].ratio
        for n in range(1, n_max + 1):
            samples.append(fr.fourier_word_tree(ifs, w, r ** (-n), tol))
    else:
        grid = _parse_q_grid(_need(cfg, "q-grid"))
        method = cfg.get("method", "word_tree")
        for q in grid:
            if method == "word_tree":
                samples.append(fr.fourier_word_tree(ifs, w, q, tol))
            else:
                samples.append(fr.fourier_mc(ifs, w, float(q), int(cfg.get("samples", "100000")), seed))
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
    if cfg.get("assert-decades-decreasing", "").lower() == "true":
        decades = {}
        for s in samples:
            if s.q > 0:
                decades.setdefault(int(math.floor(math.log10(s.q))), []).append(abs(s.value))
        seq = [max(v) for _, v in sorted(decades.items())]
        res.check("per-decade max strictly decreasing",
                  all(b < a for a, b in zip(seq, seq[1:])),
                  " > ".join(f"{v:.4g}" for v in seq))
    return res


def _run_llt(cfg, seed):
    ifs, w = _load_system(cfg)
    ks = [float(k) for k in _need(cfg, "k-list").split()]
    h = float(cfg.get("h", "0"))
    paths = int(cfg.get("paths", "100000"))
    res = SuiteResult("llt", f"conditional law of S_tau for {ifs.name}")
    rows = []
    medians = []
    for k in ks:
        hp = math.sqrt(k) if cfg.get("h-prime", "sqrt") == "sqrt" else float(cfg["h-prime"])
        rep = cw.conditional_llt_experiment(ifs, w, k, h, hp, paths, rng_seed=seed)
        medians.append(rep.weighted_median_ks)
        for c in rep.cells:
            rows.append((k, "".join(map(str, c.prefix)), "".join(map(str, c.suffix)), c.count, f"{c.ks:.6f}"))
        rows.append((k, "summary", "weighted_median", rep.paths, f"{rep.weighted_median_ks:.6f}"))
    res.tables["cells"] = (("k", "prefix", "suffix", "count", "ks"), rows)
    if cfg.get("assert-trend", "").lower() == "true":
        res.check("weighted median KS strictly decreasing in k",
                  all(b < a for a, b in zip(medians, medians[1:])),
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
    if cfg.get("assert-zero-variance", "").lower() == "true":
        res.check("zero-variance degenerate walk flagged", rep.zero_variance)
    return res


def _run_normality(cfg, seed):
    ifs, w = _load_system(cfg)
    base = int(cfg.get("base", "2"))
    n_digits = int(cfg.get("n-digits", "4096"))
    seeds = int(cfg.get("seeds", "20"))
    block_len = int(cfg.get("block-len", "3"))
    res = SuiteResult("normality", f"digit statistics of {ifs.name} in base {base}")
    rows = []
    passes = 0
    for s in range(seeds):
        stream = nm.digits_of_sample(ifs, w, base, n_digits, rng_seed=seed + s)
        rep = nm.digit_frequency_test(stream, n_digits, block_len)
        ok = rep.min_p_value > float(cfg.get("p-floor", "1e-3"))
        passes += ok
        rows.append((seed + s, f"{rep.min_p_value:.6f}", int(ok)))
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
        want = cfg["expect-periodic"].lower() == "true"
        res.check(f"periodic == {want}", report.periodicity.periodic == want,
                  report.periodicity.certificate)
    if "expect-in-integer-form" in cfg:
        want = cfg["expect-in-integer-form"].lower() == "true"
        got = bool(report.integer_form and report.integer_form.in_form)
        res.check(f"integer form == {want}", got == want)
    return res


def _run_moser(cfg, seed):
    tau = float(cfg.get("tau", "3"))
    depth = int(cfg.get("depth", "3"))
    inst = cls.moser_family(tau=tau, liouville_depth=depth, rng_seed=seed)
    res = SuiteResult("moser", "generated Liouville-like frequency tuple")
    res.tables["scan"] = (("x", "m"), [(f"{x:.5g}", f"{m:.6g}") for x, m in zip(inst.scan.xs, inst.scan.ms)])
    res.check("tuple starts (1, 2)", inst.v[:2] == (1.0, 2.0))
    res.check("Liouville-like continued fractions",
              all(r.verdict == "liouville-like" for r in inst.li_reports))
    res.check("positive scan envelope", inst.scan.positive and inst.scan.fitted_l <= tau + 1,
              f"fitted l {inst.scan.fitted_l:.3f}")
    return res


def _run_scaled_energy(cfg, seed):
    ifs, w = _load_system(cfg)
    chi = cw.lyapunov(ifs, w, "exact").value
    qs = [float(x) for x in cfg.get("q-list", "100 1000 100000").split()]
    ks = [float(x) for x in cfg.get("k-list", "2 4 6").split()]
    rs = [float(x) for x in cfg.get("r-list", "0.1 0.001 0.00003").split()]
    res = SuiteResult("scaled-energy", f"scaled-energy inequality for {ifs.name}")
    rows = []
    bad = 0
    for q in qs:
        for k in ks:
            for r in rs:
                out = fr.scaled_energy_check(ifs, w, q, k, r, chi, rng_seed=seed)
                ok = out.holds()
                bad += not ok
                rows.append((q, k, r, f"{out.lhs:.6g}", f"{out.rhs:.6g}", int(ok)))
    res.tables["energy"] = (("q", "k", "r", "lhs", "rhs", "ok"), rows)
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
    if cfg.get("assert-bounded", "").lower() == "true":
        res.check("partial sums look bounded", rep.bounded_verdict(), f"slope {rep.tail_slope:.4f}")
    return res


_RUNNERS = {
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


def cmd_run(args):
    try:
        cfg = parse_config(args.config)
        kind = _need(cfg, "experiment")
        if kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {kind!r}; known: {', '.join(_RUNNERS)}")
        seed = int(cfg.get("seed", "0"))
        out_dir = Path(cfg.get("out", "fractalab-out"))
        result = _RUNNERS[kind](cfg, seed)
    except (ValueError, KeyError, OSError) as exc:
        # config errors, unreadable files and values the experiment rejects
        # (PreconditionError)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_tables(result, out_dir)
    print("\n".join(result.summary_lines()))
    return 0 if result.passed else 1


def cmd_classify(args):
    try:
        spec = resolve_system(args.ifs_file)
    except (SpecFileError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = cls.classify_ifs(spec.ifs)
    print(report.to_text(), end="")
    status = 0
    for expect in args.expect or []:
        key, _, value = expect.partition("=")
        want = value.lower() == "true"
        got = {
            "periodic": report.periodicity.periodic,
            "lattice-contained": report.lattice.contained,
            "integer-form": bool(report.integer_form and report.integer_form.in_form),
        }.get(key)
        if got is None:
            print(f"error: unknown expectation {key!r}", file=sys.stderr)
            return 2
        if got != want:
            print(f"expectation failed: {key} is {str(got).lower()}, wanted {value}", file=sys.stderr)
            status = 1
    return status


def cmd_suites(_args):
    for name in BUILTIN_SUITES:
        print(name)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fractalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)
    p_cls = sub.add_parser("classify", help="classify an IFS spec file (or builtin:<name>)")
    p_cls.add_argument("ifs_file")
    p_cls.add_argument("--expect", action="append", metavar="KEY=BOOL",
                       help="fail (exit 1) unless the report matches, e.g. periodic=true")
    p_cls.set_defaults(func=cmd_classify)
    p_suites = sub.add_parser("suites", help="list packaged verification suites")
    p_suites.set_defaults(func=cmd_suites)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
