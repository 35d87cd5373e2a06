"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They use the benchmark's own files and the checkout's src/; the smoke runs
use a few cheap tasks of each workload so the whole file runs in about a
minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

# -- span arithmetic ---------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


NESTED = [
    _span("bench.task", 0.0, 10.0, -1),  # 0
    _span("fourier.a", 1.0, 4.0, 0),  # 1
    _span("quadfield.b", 2.0, 3.0, 1),  # 2
    _span("fourier.a", 3.5, 6.0, 0),  # 3: overlaps span 1
    _span("cli.c", 8.0, 12.0, 0),  # 4: runs past its parent's end
    _span("fourier.a", 8.5, 9.0, 4),  # 5
]


def test_self_time_subtracts_the_union_of_children():
    st = spans.self_times(NESTED)
    # root: 10 minus the union [1, 6] + [8, 10] of its children's intervals
    assert st[0] == pytest.approx(3.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.5)
    assert st[4] == pytest.approx(3.5)
    assert st[5] == pytest.approx(0.5)


def test_busy_time_counts_nested_calls_once():
    assert spans.busy_time(NESTED, ["fourier.a"]) == pytest.approx(3.0 + 2.5 + 0.5)
    assert spans.busy_time(NESTED, ["fourier.a", "quadfield.b"]) == pytest.approx(6.0)
    assert spans.busy_time(NESTED, ["fourier.a", "cli.c"]) == pytest.approx(3.0 + 2.5 + 4.0)
    assert spans.descendants_named(NESTED, {"cli.c"}, "fourier.a") == 1


def test_layer_self_times_and_fractions():
    m = layers.layer_metrics(NESTED, {}, 1, 10.0, 0.0, 0.0, 0)
    assert m["fourier.self_s"] == pytest.approx(2.0 + 2.5 + 0.5)
    assert m["quadfield.self_frac"] == pytest.approx(0.1)
    assert m["cli.run.self_s"] == pytest.approx(3.5)
    # properly nested spans: the layers' self times plus the harness's own
    # time add up to the task time
    nested = [NESTED[0], NESTED[1], NESTED[2], _span("cli.c", 5.0, 9.0, 0)]
    m = layers.layer_metrics(nested, {}, 2, 10.0, 0.0, 0.0, 0)
    harness = spans.self_times(nested)[0]
    assert sum(m[f"{layer}.self_frac"] for layer in spans.LAYERS) * 10.0 + harness == (
        pytest.approx(10.0))
    assert m["fourier.self_s"] == pytest.approx(1.0)  # per pass, 2 passes


# -- product-formula oracle ----------------------------------------------------------


def test_oracle_is_one_at_zero_frequency():
    assert oracle.product_formula(Fraction(1, 3), (0, Fraction(2, 3)), (0.5, 0.5), 0) == 1


def test_oracle_matches_lebesgue_closed_form():
    # {x/2, (x+1)/2} with equal weights is Lebesgue measure on [0, 1]
    for q in (Fraction(1, 7), Fraction(5, 2), Fraction(12345, 11)):
        qf = float(q)
        ref = (complex(math.cos(2 * math.pi * qf), math.sin(2 * math.pi * qf)) - 1) / (
            2j * math.pi * qf)
        got = complex(oracle.product_formula(Fraction(1, 2), (0, Fraction(1, 2)), (0.5, 0.5), q))
        assert abs(got - ref) < 1e-13


def test_golden_floor_over_n_up_to_25():
    mags = [abs(oracle.golden_value(n)) for n in range(1, 26)]
    assert min(mags) == pytest.approx(4.8687414289e-4, rel=1e-10)


# -- wrappers --------------------------------------------------------------------------


def test_tracer_wraps_every_binding_site_and_restores_it():
    from fractalab import cli, ifs_core, normality, suites

    originals = (ifs_core.coding_point, normality.compose_word, suites.BUILTIN_SUITES["gamma-law"],
                 cli.run_suite)
    tracer = spans.Tracer(layers.hooks())
    assert tracer.install() > 0
    try:
        assert normality.compose_word is not originals[1]
        assert suites.BUILTIN_SUITES["gamma-law"] is not originals[2]
        assert cli.run_suite is not originals[3]
        w = ifs_core.WeightVector.uniform(2)
        normality.digits_of_sample(ifs_core.cantor(), w, 2, 40, rng_seed=1)
    finally:
        tracer.uninstall()
    assert (ifs_core.coding_point, normality.compose_word, suites.BUILTIN_SUITES["gamma-law"],
            cli.run_suite) == originals
    names = [s[0] for s in tracer.rec.spans]
    # the function-local `from .ifs_core import coding_point` sees the wrapper
    assert spans.descendants_named(tracer.rec.spans, {"normality.digits_of_sample"},
                                   "ifs_core.coding_point") == 1
    assert "ifs_core.compose_word" in names
    assert tracer.rec.counts["digits.certified"] == 40


# -- benchmark definition --------------------------------------------------------------


def test_tree_digest_sees_any_change(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    before = run.tree_digest(tmp_path)
    (tmp_path / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert run.tree_digest(tmp_path) == before
    (tmp_path / "pins.json").write_text("{}\n")
    assert run.tree_digest(tmp_path) != before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk-stats", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- smoke runs --------------------------------------------------------------------------

SMOKE = {
    "fourier-grid": lambda t: t.label.startswith(("cantor", "pow2-pair")) or t.label == "golden n=1",
    "certified-digits": lambda t: t.label.startswith("cantor b2 n40 ") or t.label.startswith(
        "cantor b2 n80 "),
    "walk-stats": lambda t: t.label.startswith(("gamma", "bracket", "llt cantor k=20")),
    "cli-batch": lambda t: t.label.startswith(("classify ", ".suites", "fourier-decay bernoulli")),
}


BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    wl.tasks = [t for t in wl.tasks if SMOKE[name](t)]
    assert wl.tasks
    args = Namespace(seconds=0, workload=name, seed=7)

    record = worker.measure(wl, args)
    assert summary.tally(record) == (True, len(wl.tasks), 0, {})
    metrics, details = summary.end_to_end(record)
    e2e = {m["name"] for m in BENCH["end_to_end"]} - {"setup_s"}  # setup_s is measured by run.py
    assert set(metrics) == e2e
    assert all(v > 0 for v in metrics.values())
    assert details["passes"] == 1

    traced = worker.measure_traced(wl, args, tmp_path)
    assert set(traced["layer_metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert summary.tally(traced)[0]
    assert (tmp_path / f"trace-{name}-seed7.json").is_file()


def test_tally_fails_a_run_on_any_raise_wrong_output_or_mismatch():
    task = {"label": "t", "work": 1, "runs": 2, "raised": 0, "mismatch": 0,
            "error": None, "check": None}
    assert summary.tally({"tasks": [task]})[:3] == (True, 2, 0)
    raised = {**task, "raised": 1, "error": "AttributeError: x"}
    assert summary.tally({"tasks": [task, raised]})[:3] == (False, 4, 1)
    assert summary.tally({"tasks": [{**task, "check": "wrong value"}]})[:3] == (False, 2, 2)
    assert summary.tally({"tasks": [{**task, "mismatch": 1}]})[:3] == (False, 2, 1)
