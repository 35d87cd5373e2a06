"""The benchmark's four workloads.

Each workload is a fixed task list built from the seed.  One task is one
call into fractalab's public API; the harness runs the list closed loop
(the next task starts when the previous one returns) and repeats it for the
run's duration.  Every task carries a check that is evaluated outside the
timed region against a reference fractalab did not produce.

Seeds only move inputs inside fixed strata (a log-decade bin of q, the
sampling seed of a request of fixed size), so the cost of a task list is
nearly the same for every seed and run-to-run spread stays small.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracle

TOL_GRID = 1e-8
TOL_GOLDEN = 1e-6


@dataclass
class Task:
    label: str
    run: object  # () -> output; the only timed part
    work: float  # units of certified work the task completes
    check: object  # (output, outputs by label) -> error string or None
    finish: object = None  # untimed: raw output -> stored output
    csv_bytes: object = None  # stored output -> bytes of CSV the task wrote


@dataclass
class Workload:
    work_unit: str
    tasks: list


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


# _PRELOAD: fractalab imports scipy.stats and scipy.integrate inside the
# functions that use them.  The workload functions below import what they
# will need, so that the import counts in set-up, as every other import
# does, and not in the first timed pass.


# -- fourier-grid ---------------------------------------------------------------


def fourier_grid(seed, scratch):
    """Exact-frequency word trees: 5 registered affine systems x 8 log-decade
    bins of q in [1, 1e5] at tol 1e-8, plus golden Bernoulli q = r^-n, n <= 25."""
    from fractalab import fourier as fr
    from fractalab import ifs_core
    from fractalab.quadfield import golden_ratio_conjugate

    rng = _rng(seed, 1)
    tasks = []
    bins = 8
    for name, (ifs, w) in ifs_core.registered_affine().items():
        equal_ratio = len({m.ratio for m in ifs.maps}) == 1
        for j in range(bins):
            u = (j + rng.random()) * 5 / bins
            q = Fraction(round(10**u * 1000), 1000)
            check = _check_product(ifs, w, q) if equal_ratio else _check_recursion(ifs, w, q)
            tasks.append(Task(
                f"{name} q={q}",
                lambda ifs=ifs, w=w, q=q: fr.fourier_word_tree(ifs, w, q, TOL_GRID),
                1, check,
            ))
    golden = ifs_core.golden_bernoulli()
    wg = ifs_core.WeightVector.uniform(2)
    r = golden_ratio_conjugate()
    for n in range(1, 26):
        tasks.append(Task(
            f"golden n={n}",
            lambda q=r ** (-n): fr.fourier_word_tree(golden, wg, q, TOL_GOLDEN),
            1, _check_golden(n),
        ))
    return Workload("F_q values", tasks)


def _check_product(ifs, w, q):
    def check(sample, _outputs):
        ref = complex(oracle.product_formula(ifs.maps[0].ratio, ifs.translations, w, q))
        err = abs(sample.value - ref)
        if err > sample.error_bound:
            return f"|F - product| = {err:.3e} > {sample.error_bound:.1e}"
        return None

    return check


def _check_recursion(ifs, w, q):
    """Self-similarity residual |F_q - sum p_i e(q t_i) F_{r_i q}| <= 2 tol."""

    def check(sample, _outputs):
        from fractalab import fourier as fr

        rhs = sum(
            float(p) * oracle.phase(q, m.translation)
            * fr.fourier_word_tree(ifs, w, q * m.ratio, TOL_GRID).value
            for p, m in zip(w, ifs.maps)
        )
        resid = abs(sample.value - rhs)
        if resid > 2 * TOL_GRID:
            return f"recursion residual {resid:.3e} > {2 * TOL_GRID:.0e}"
        return None

    return check


def _check_golden(n):
    def check(sample, _outputs):
        err = abs(sample.value - complex(oracle.golden_value(n)))
        if err > sample.error_bound:
            return f"|F - product| = {err:.3e} > {sample.error_bound:.1e}"
        return None

    return check


# -- certified-digits -----------------------------------------------------------


def certified_digits(seed, scratch):
    """Certified digit requests in doubling pairs (n, 2n) with one seed each:
    short pairs (40, 80) over 4 systems x bases 2, 3, 10, long pairs
    (2048, 4096) in base 2 for every system and base 3 for Cantor.  Long
    base-2 streams also get the chi-square block test and Weyl sums."""
    import scipy.stats  # noqa: F401  (see _PRELOAD)
    from fractalab import ifs_core
    from fractalab import normality as nm

    affine = ifs_core.registered_affine()
    systems = {
        "cantor": affine["cantor"],
        "aperiodic-125": affine["aperiodic-125"],
        "dyadic-pair": affine["dyadic-pair"],
        "smooth-example": ifs_core.registered_smooth()["smooth-example"],
    }
    rng = _rng(seed, 2)
    tasks = []

    def request(name, base, n, s, stats=False):
        ifs, w = systems[name]
        label = f"{name} b{base} n{n} s{s}"
        partner = f"{name} b{base} n{n // 2} s{s}" if n in (80, 4096) else None

        def run():
            stream = nm.digits_of_sample(ifs, w, base, n, rng_seed=s)
            if not stats:
                return stream
            freq = nm.digit_frequency_test(stream, n, 3)
            weyl = nm.weyl_sums(stream, base, (1, 2, 3), n - 12)
            return stream, freq, weyl

        tasks.append(Task(label, run, n, _check_digits(name, base, n, partner)))

    for name in systems:
        for base in (2, 3, 10):
            for _ in range(4):
                s = int(rng.integers(2**31))
                request(name, base, 40, s)
                request(name, base, 80, s)
        s = int(rng.integers(2**31))
        request(name, 2, 2048, s)
        request(name, 2, 4096, s, stats=True)
    s = int(rng.integers(2**31))
    request("cantor", 3, 2048, s)
    request("cantor", 3, 4096, s)
    return Workload("certified digits", tasks)


def _stream(output):
    return output[0] if isinstance(output, tuple) else output


def _check_digits(name, base, n, partner):
    def check(output, outputs):
        st = _stream(output)
        if st.certified_upto != n or len(st.digits) != n:
            return f"certified_upto {st.certified_upto}, {len(st.digits)} digits, asked {n}"
        if any(not 0 <= d < base for d in st.digits):
            return "digit out of range"
        if name == "cantor" and base == 3 and 1 in st.digits:
            return "base-3 Cantor stream contains digit 1"
        if partner is not None:
            half = _stream(outputs[partner])
            if st.digits[: n // 2] != half.digits:
                return f"first {n // 2} digits differ from the {n // 2}-digit request"
        if isinstance(output, tuple):
            _, freq, weyl = output
            if not all(0.0 <= b.p_value <= 1.0 for b in freq.blocks):
                return "chi-square p-value outside [0, 1]"
            if any(abs(v) > 1 + 1e-12 for v in weyl.weyl.values()):
                return "|Weyl sum| > 1"
        return None

    return check


# -- walk-stats -----------------------------------------------------------------


def walk_stats(seed, scratch):
    """Cocycle walks: conditional LLT at k = 20, 40, 80 (1e4 paths) on
    aperiodic-125 and Cantor, bracket and CLT runs, Gamma laws on affine and
    smooth suffixes, and Monte Carlo Lyapunov exponents of smooth-example.

    The six Lyapunov runs are the tasks around the tail latency (10 tasks
    beyond it), so that the tail sits inside a group of equal-cost tasks."""
    import scipy.stats  # noqa: F401  (see _PRELOAD)
    from fractalab import cocycle_walk as cw
    from fractalab import ifs_core

    affine = ifs_core.registered_affine()
    ap, wap = affine["aperiodic-125"]
    ca, wca = affine["cantor"]
    sm, wsm = ifs_core.registered_smooth()["smooth-example"]
    rng = _rng(seed, 3)
    tasks = []

    def seed_():
        return int(rng.integers(2**31))

    paths = 10_000
    for name, ifs, w in (("aperiodic-125", ap, wap), ("cantor", ca, wca)):
        for k in (20, 40, 80):
            s = seed_()
            tasks.append(Task(
                f"llt {name} k={k}",
                lambda ifs=ifs, w=w, k=k, s=s: cw.conditional_llt_experiment(
                    ifs, w, k, 0, math.sqrt(k), paths, rng_seed=s),
                paths, _check_llt(paths, name == "cantor"),
            ))
        pairs = 100_000
        s = seed_()
        tasks.append(Task(
            f"bracket {name}",
            lambda ifs=ifs, w=w, s=s: cw.bracket_check(ifs, w, pairs, rng_seed=s),
            pairs // 10, _check_bracket,
        ))
        s = seed_()
        tasks.append(Task(
            f"clt {name}",
            lambda ifs=ifs, w=w, s=s: cw.clt_experiment(ifs, w, 400, 10_000, rng_seed=s),
            10_000, _check_clt(ifs, w),
        ))
    # The Gamma law is a valid law for any shift k*chi; the smooth system's
    # chi is taken as the midpoint of [D, D'] so that set-up runs no Monte
    # Carlo.
    chis = {
        "aperiodic-125": cw.lyapunov(ap, wap, "exact").value,
        "cantor": cw.lyapunov(ca, wca, "exact").value,
        "smooth-example": (sm.big_d + sm.big_d_prime) / 2,
    }
    gamma_systems = (("aperiodic-125", ap, wap), ("cantor", ca, wca),
                     ("smooth-example", sm, wsm), ("smooth-example", sm, wsm))
    for c in range(16):
        name, ifs, w = gamma_systems[c % 4]
        k = float(rng.uniform(5, 50))
        suffix = tuple(int(x) for x in rng.integers(1, ifs.n + 1, size=1 + c // 4 % 3))
        s = seed_()
        tasks.append(Task(
            f"gamma {name} {suffix} k={k:.3f}",
            lambda ifs=ifs, w=w, suffix=suffix, k=k, chi=chis[name], s=s: cw.gamma_law(
                ifs, w, suffix, k, chi, rng_seed=s),
            1 if ifs.is_affine else 256, _check_gamma(ifs),
        ))
    for _ in range(6):
        s = seed_()
        tasks.append(Task(
            f"lyapunov smooth-example s{s}",
            lambda s=s: cw.lyapunov(sm, wsm, "monte_carlo", n=4_000, rng_seed=s),
            1, _check_lyapunov(sm),
        ))
    return Workload("walk paths", tasks)


def _check_llt(paths, lattice):
    def check(rep, _outputs):
        total = sum(c.count for c in rep.cells)
        if total != paths:
            return f"cell counts sum to {total}, not {paths}"
        if lattice and not rep.weighted_median_ks >= 0.2:
            return f"Cantor weighted-median KS {rep.weighted_median_ks} < 0.2"
        return None

    return check


def _check_bracket(out, _outputs):
    violations, _pairs = out
    return f"{violations} bracket violations" if violations else None


def _check_clt(ifs, w):
    """Variance of the normalised walk against the closed form
    Var X = sum p_i log(r_i)^2 - chi^2 (zero for equal ratios), within 10%:
    seven standard errors of a sample variance over 1e4 paths."""
    logs = [math.log(float(m.ratio)) for m in ifs.maps]
    ps = [float(p) for p in w]
    chi = -sum(p * x for p, x in zip(ps, logs))
    var = sum(p * x * x for p, x in zip(ps, logs)) - chi * chi

    def check(rep, _outputs):
        if var < 1e-12:
            return None if rep.zero_variance else f"variance {rep.fitted_var} not flagged as zero"
        if abs(rep.fitted_var - var) > 0.1 * var:
            return f"fitted variance {rep.fitted_var:.5f} vs closed form {var:.5f}"
        return None

    return check


def _check_gamma(ifs):
    cap = 1.0 / ifs.big_d + 1e-12

    def check(law, _outputs):
        if abs(law.mass() - 1.0) > 1e-12:
            return f"Gamma mass {law.mass():.15f}"
        if law.max_density() > cap:
            return f"Gamma density {law.max_density():.6f} > 1/D"
        return None

    return check


def _check_lyapunov(ifs):
    """Every increment lies in [D, D'], so the mean does too."""

    def check(est, _outputs):
        if not ifs.big_d <= est.value <= ifs.big_d_prime:
            return f"Lyapunov estimate {est.value} outside [D, D']"
        return None

    return check


# -- cli-batch ------------------------------------------------------------------

# The builtins that `classify` completes on.  classify on the two smooth
# builtins, smooth-example and moebius-example, raises AttributeError at the
# commit that added the benchmark; a workload must not fail, so they are
# left out until classify handles them.
#
# Verdicts that follow from the ratios alone: a system is periodic exactly
# when its log-ratios are commensurable, and rational ratios r_i = b^-e_i
# give the integer base form.
KNOWN_CLASSIFY = {
    "cantor": ("true", "base=3 exponents=[1, 1]"),
    "aperiodic-125": ("false", None),
    "dyadic-pair": ("true", "base=2 exponents=[1, 1]"),
    "pow2-pair": ("true", "base=2 exponents=[2, 3]"),
    "bernoulli-1/3": ("true", "base=3 exponents=[1, 1]"),
    "bernoulli-golden": ("true", None),
}

# Equal-ratio builtins as (ratio, translations), for the product formula.
EQUAL_RATIO = {
    "cantor": (Fraction(1, 3), (0, Fraction(2, 3))),
    "bernoulli-1/3": (Fraction(1, 3), (-1, 1)),
    "dyadic-pair": (Fraction(1, 2), (0, Fraction(1, 2))),
}


def cli_batch(seed, scratch):
    """In-process `fractalab` CLI runs on configs generated in a scratch
    directory: scaled-energy, del-criterion, fourier-decay, every other
    experiment kind once, classify on the 6 affine builtins and on generated IFS
    files, `suites`, and the classification, moser-instance and
    pisot-nondecay suites."""
    import scipy.integrate  # noqa: F401  (see _PRELOAD)
    import scipy.stats  # noqa: F401
    from fractalab import cli

    rng = _rng(seed, 4)
    tasks = []

    def seed_line():
        return f"seed {int(rng.integers(2**31))}"

    def config(tag, lines):
        out = scratch / "out" / tag
        path = scratch / f"{tag}.cfg"
        path.write_text("\n".join(lines + [f"out {out}"]) + "\n")
        return path, out

    def add(label, argv, work_out, check):
        def run():
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, buf.getvalue() + err.getvalue()

        def finish(raw):
            rc, text = raw
            files = {}
            if work_out is not None and work_out.exists():
                files = {p.name: p.read_bytes() for p in sorted(work_out.iterdir())}
                shutil.rmtree(work_out)
            return rc, text, files

        def csv_bytes(out):
            return sum(len(b) for n, b in out[2].items() if n.endswith(".csv"))

        tasks.append(Task(label, run, 1, check, finish, csv_bytes))

    def add_run(label, tag, lines, check=None):
        path, out = config(tag, lines)
        add(label, ["run", str(path)], out, check or _check_rc)

    for name in ("cantor", "bernoulli-1/3"):
        r = float(10 ** rng.uniform(-3, -1))
        add_run(f"scaled-energy {name}", f"energy-{name.replace('/', '_')}", [
            "experiment scaled-energy", f"ifs builtin:{name}", "q-list 100 1000",
            "k-list 2 4", f"r-list {r:.6g}", seed_line(),
        ])
    add_run("del-criterion cantor", "del", [
        "experiment del-criterion", "ifs builtin:cantor", "base 2",
        f"q {int(rng.integers(1, 10))}", "n-max 512", "samples 50", seed_line(),
    ])
    # fourier-decay: a log q-grid through an `include`d defaults file, and
    # exact ratio powers q = 3^n
    (scratch / "decay-defaults.cfg").write_text("experiment fourier-decay\ntol 1e-6\n")
    for name in ("cantor", "dyadic-pair"):
        a = float(rng.uniform(1, 2))
        add_run(f"fourier-decay {name}", f"decay-{name}", [
            "include decay-defaults.cfg", f"ifs builtin:{name}", f"q-grid {a:.6f}:100000:40-log",
        ], _check_decay(name))
    add_run("fourier-decay bernoulli-1/3 powers", "decay-powers", [
        "include decay-defaults.cfg", "ifs builtin:bernoulli-1/3", "q-ratio-powers 10",
    ], _check_decay("bernoulli-1/3"))
    add_run("llt cantor", "llt", [
        "experiment llt", "ifs builtin:cantor", "k-list 20 40", "paths 5000",
        "assert-median-floor 0.2", seed_line(),
    ])
    add_run("clt aperiodic-125", "clt", [
        "experiment clt", "ifs builtin:aperiodic-125", "n 400", "paths 10000", seed_line(),
    ])
    add_run("normality cantor", "normality", [
        "experiment normality", "ifs builtin:cantor", "base 3", "n-digits 256", "seeds 3",
        seed_line(),
    ])
    add_run("moser", "moser", ["experiment moser", "tau 3", "depth 3", seed_line()])
    for name in KNOWN_CLASSIFY:
        add(f"classify {name}", ["classify", f"builtin:{name}"], None, _check_classify(name))
    # generated two-map systems {x/a, (x + a' - 1)/a'} on [0, 1]: periodic
    # exactly when a and a' are powers of one integer
    for j, (a, b) in enumerate(_pairs(rng)):
        ifs_file = scratch / f"pair{j}.ifs"
        ifs_file.write_text(
            f"name pair{j}\nkind affine\ninterval 0 1\nmap 1/{a} 0\nmap 1/{b} {b - 1}/{b}\n")
        periodic = "true" if _common_base(a, b) else "false"
        add(f"classify pair{j} 1/{a} 1/{b}", ["classify", str(ifs_file),
            "--expect", f"periodic={periodic}"], None, _check_rc)
        add_run(f"classify-run pair{j} 1/{a} 1/{b}", f"classify{j}", [
            "experiment classify", f"ifs {ifs_file}", "weights 1/2 1/2",
            f"expect-periodic {periodic}",
        ])
    add(".suites", ["suites"], None, _check_suites)
    for suite in ("classification", "moser-instance", "pisot-nondecay"):
        check = _check_pisot if suite == "pisot-nondecay" else _check_rc
        add_run(f"suite {suite}", f"suite-{suite}", ["experiment suite", f"suite {suite}"], check)
    return Workload("CLI runs", tasks)


def _pairs(rng):
    """Two commensurable and two incommensurable pairs of distinct ratios."""
    b = int(rng.choice([2, 3, 5]))
    p, q = (int(x) for x in rng.choice([2, 3, 5, 7], size=2, replace=False))
    return [(b, b**2), (b**3, b**2), (p, q), (p * q, q)]


def _common_base(a, b):
    """True when a = c^i and b = c^j for one integer c, i.e. log a / log b is
    rational: the prime exponent vectors of a and b are proportional."""

    def factor(n):
        out, d = {}, 2
        while n > 1:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        return out

    fa, fb = factor(a), factor(b)
    return set(fa) == set(fb) and len({Fraction(fa[p], fb[p]) for p in fa}) == 1


def _check_rc(out, _outputs):
    rc, text, _files = out
    if rc != 0:
        return f"exit code {rc}: {text.strip().splitlines()[-1:]}"
    return None


def _csv_rows(blob):
    lines = blob.decode().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def _check_decay(name):
    """|F_q| of an equal-ratio builtin against the product formula.  The CSV
    prints q to 10 significant digits, so the tolerance adds the change of
    F over that rounding: |dF/dq| <= 2 pi M for a measure in [-M, M]."""
    ratio, translations = EQUAL_RATIO[name]
    support = max(abs(Fraction(t)) for t in translations) / (1 - ratio)

    def check(out, outputs):
        bad = _check_rc(out, outputs)
        if bad:
            return bad
        rows = _csv_rows(out[2]["fourier-decay-profile.csv"])
        for q, _re, _im, mag, bound, _method in rows:
            qf = float(q)
            ref = abs(complex(oracle.product_formula(ratio, translations, (0.5, 0.5), Fraction(qf))))
            slack = float(bound) + 2 * math.pi * float(support) * abs(qf) * 1e-9 + 1e-9
            if abs(float(mag) - ref) > slack:
                return f"|F_{q}| = {mag} vs product {ref:.10f}"
        return None

    return check


def _check_pisot(out, outputs):
    """Every |F_{r^-n}| in the suite's table against the golden product."""
    bad = _check_rc(out, outputs)
    if bad:
        return bad
    rows = _csv_rows(out[2]["pisot-nondecay-pisot.csv"])
    if len(rows) != 25:
        return f"{len(rows)} rows, expected 25"
    for n, _q, mag in rows:
        ref = abs(complex(oracle.golden_value(int(n))))
        if abs(float(mag) - ref) > TOL_GOLDEN + 1e-10:
            return f"n={n}: |F| = {mag} vs product {ref:.10f}"
    return None


def _check_classify(name):
    def check(out, outputs):
        bad = _check_rc(out, outputs)
        if bad:
            return bad
        periodic, form = KNOWN_CLASSIFY[name]
        lines = out[1].splitlines()
        if f"periodic: {periodic}" not in lines:
            return f"expected periodic: {periodic}"
        if form is not None and not any(line.startswith(f"integer_form: {form}") for line in lines):
            return f"expected integer_form: {form}"
        return None

    return check


def _check_suites(out, outputs):
    bad = _check_rc(out, outputs)
    if bad:
        return bad
    if len(out[1].split()) != 12:
        return f"expected 12 suites, got {out[1].split()}"
    return None


WORKLOADS = {
    "fourier-grid": fourier_grid,
    "certified-digits": certified_digits,
    "walk-stats": walk_stats,
    "cli-batch": cli_batch,
}
