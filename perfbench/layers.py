"""Per-layer metrics of the traced run, computed from its spans and counts.

Totals are per pass of the task list, so runs that fit a different number
of passes into their time report comparable values.  A rate or ratio whose
base is zero (the workload never calls that function) is reported as 0.
"""

from __future__ import annotations

import inspect

from spans import LAYERS, busy_time, descendants_named, layer_of, self_times


def _arg(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def hooks():
    """{span name: (args, kwargs, result) -> {count: value}} for the counts
    that only the arguments or the result of a call carry."""
    from fractalab import cocycle_walk

    lyapunov = cocycle_walk.lyapunov

    def lyapunov_steps(a, k, _out):
        mc = _arg(lyapunov, "mode", a, k) == "monte_carlo"
        return {"lyapunov.steps": _arg(lyapunov, "n", a, k) if mc else 0}

    return {
        "fourier.fourier_word_tree": lambda a, k, out: {"word_tree.nodes": out.nodes},
        "fourier.sample_points": lambda a, k, out: {"sample_points.points": len(out)},
        "ifs_core.coding_point": lambda a, k, out: {"coding_point.prefix_extended": out.prefix_extended},
        "normality.digits_of_sample": lambda a, k, out: {
            "digits.certified": out.certified_upto,
            "digits.prefix_len": out.prefix_len,
        },
        "cocycle_walk.conditional_llt_experiment": lambda a, k, out: {
            "llt.paths": out.paths,
            "llt.cells": len(out.cells),
            "llt.excluded_paths": out.excluded_mass * out.paths,
        },
        "cocycle_walk.lyapunov": lyapunov_steps,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, passes, task_s, overhead_frac, failed_frac, csv_bytes):
    """{metric: value} for every per-layer metric of BENCHMARK.json.

    spans: the traced passes' spans; counts: totals from hooks(); passes:
    number of traced passes; task_s: total traced task time."""
    st = self_times(spans)
    n_calls, errors, self_by_name = {}, {}, {}
    for s, self_s in zip(spans, st):
        n_calls[s[0]] = n_calls.get(s[0], 0) + 1
        self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + self_s
        if s[5] is not None:
            errors.setdefault(s[0], {}).setdefault(s[5], 0)
            errors[s[0]][s[5]] += 1

    def calls(name):
        return n_calls.get(name, 0) / passes

    def busy(*names):
        return busy_time(spans, names) / passes

    def self_of(pred):
        return sum(v for name, v in self_by_name.items() if pred(name)) / passes

    def count(key):
        return counts.get(key, 0) / passes

    def in_layer(layer):
        return lambda name: layer_of(name) == layer

    wt = "fourier.fourier_word_tree"
    cp = "ifs_core.coding_point"
    dg = "normality.digits_of_sample"
    llt = "cocycle_walk.conditional_llt_experiment"
    m = {
        "fourier.word_tree.calls": calls(wt),
        "fourier.word_tree.busy_s": busy(wt),
        "fourier.word_tree.nodes": count("word_tree.nodes"),
        "fourier.word_tree.nodes_per_s": _ratio(count("word_tree.nodes"), busy(wt)),
        "fourier.word_tree.budget_errors": errors.get(wt, {}).get("BudgetError", 0) / passes,
        "quadfield.frac_part.calls": calls("quadfield.QuadExact.frac_part_mpf"),
        "quadfield.frac_part.busy_s": busy("quadfield.QuadExact.frac_part_mpf"),
        "fourier.scaled_energy.calls": calls("fourier.scaled_energy_check"),
        "fourier.scaled_energy.self_s": self_of(lambda n: n == "fourier.scaled_energy_check"),
        "fourier.sample_points.busy_s": busy("fourier.sample_points"),
        "fourier.sample_points.points": count("sample_points.points"),
        "fourier.del_criterion.busy_s": busy("fourier.del_criterion_diagnostic"),
        "ifs_core.coding_point.calls": calls(cp),
        "ifs_core.coding_point.busy_s": busy(cp),
        "ifs_core.coding_point.self_s": self_of(lambda n: n == cp),
        "ifs_core.coding_point.prefix_extended": count("coding_point.prefix_extended"),
        "ifs_core.compose_word.calls": calls("ifs_core.compose_word"),
        "ifs_core.compose_word.busy_s": busy("ifs_core.compose_word"),
        "normality.digits.calls": calls(dg),
        "normality.digits.self_s": self_of(lambda n: n == dg),
        "normality.digits.digits_certified": count("digits.certified"),
        "normality.digits.digits_per_s": _ratio(count("digits.certified"), busy(dg)),
        "normality.digits.prefix_len": _ratio(count("digits.prefix_len"), calls(dg)),
        "normality.digits.attempts_per_call": _ratio(
            descendants_named(spans, {dg}, cp) / passes, calls(dg)),
        "normality.chi2.busy_s": busy("normality.digit_frequency_test"),
        "normality.weyl.busy_s": busy("normality.weyl_sums"),
        "cocycle_walk.llt.calls": calls(llt),
        "cocycle_walk.llt.busy_s": busy(llt),
        "cocycle_walk.llt.paths": count("llt.paths"),
        "cocycle_walk.llt.cells": count("llt.cells"),
        "cocycle_walk.llt.paths_per_s": _ratio(count("llt.paths"), busy(llt)),
        "cocycle_walk.llt.included_mass": (
            1 - _ratio(count("llt.excluded_paths"), count("llt.paths")) if count("llt.paths") else 0.0),
        "cocycle_walk.bracket.busy_s": busy("cocycle_walk.bracket_check"),
        "cocycle_walk.clt.busy_s": busy("cocycle_walk.clt_experiment"),
        "cocycle_walk.gamma.busy_s": busy("cocycle_walk.gamma_law"),
        "cocycle_walk.lyapunov.busy_s": busy("cocycle_walk.lyapunov"),
        "cocycle_walk.lyapunov.steps_per_s": _ratio(count("lyapunov.steps"), busy("cocycle_walk.lyapunov")),
        "classify.classify_ifs.calls": calls("classify.classify_ifs"),
        "classify.classify_ifs.busy_s": busy("classify.classify_ifs"),
        "classify.classify_ifs.errors": sum(errors.get("classify.classify_ifs", {}).values()) / passes,
        "classify.moser.busy_s": busy("classify.moser_family"),
        "specfile.busy_s": busy(*[n for n in n_calls if layer_of(n) == "specfile"]),
        "cli.run.self_s": self_of(in_layer("cli")),
        "cli.csv_bytes": csv_bytes,
        "suites.run_suite.self_s": self_of(in_layer("suites")),
        "trace.overhead_frac": overhead_frac,
        "failed_frac": failed_frac,
    }
    for layer in LAYERS:
        self_s = self_of(in_layer(layer))
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.self_frac"] = _ratio(self_s * passes, task_s)
    return m
