"""One process of a benchmark run.  Started by run.py; prints one JSON line.

The process imports fractalab from the checkout, builds the workload's task
list and notes when it was ready (the end of set-up).  With --setup-only it
stops there.  Otherwise it runs the list closed loop, pass after pass, until
--seconds have elapsed; with --trace 1 the passes alternate between
untraced and traced.  Every pass must reproduce the first pass's outputs
exactly, and the first outputs are checked against their references outside
the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import clock
import summary

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Results:
    """First successful output of each task, its fingerprint, and per-task
    run counts."""

    def __init__(self, tasks):
        self.tasks = tasks
        n = len(tasks)
        self.first = {}
        self.fingerprint = {}
        self.runs = [0] * n
        self.raised = [0] * n
        self.mismatch = [0] * n
        self.error = {}

    def add(self, i, raw, err):
        task = self.tasks[i]
        self.runs[i] += 1
        if err is not None:
            self.raised[i] += 1
            self.error.setdefault(i, err)
            return
        out = task.finish(raw) if task.finish else raw
        fp = hashlib.sha256(repr(out).encode()).hexdigest()
        if i not in self.fingerprint:
            self.fingerprint[i] = fp
            self.first[i] = out
        elif fp != self.fingerprint[i]:
            self.mismatch[i] += 1

    def _check(self, i, outputs):
        try:
            return self.tasks[i].check(self.first[i], outputs)
        except Exception as exc:  # a crashing check is a failed check
            return f"check raised {type(exc).__name__}: {exc}"

    def summary(self):
        """Per-task record, each first output checked."""
        outputs = {self.tasks[i].label: out for i, out in self.first.items()}
        return [
            {
                "label": t.label,
                "work": t.work,
                "runs": self.runs[i],
                "raised": self.raised[i],
                "mismatch": self.mismatch[i],
                "error": self.error.get(i),
                "check": self._check(i, outputs) if i in self.first else None,
            }
            for i, t in enumerate(self.tasks)
        ]


@dataclass
class Pass:
    lat: list  # measured latency_s per task, up to its return or raise
    scale: list  # reference seconds per measured second, per task (clock.py)

    @property
    def wall(self):
        return sum(k * dt for k, dt in zip(self.scale, self.lat))

    def record(self):
        return {"scale": self.scale, "lat": self.lat}


def run_passes(tasks, results, seconds, speed, rec=None):
    """Closed loop over the task list until `seconds` have elapsed (at least
    one pass).  Calibration runs between tasks, outside their timings."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        lat, before = [], []
        for i, task in enumerate(tasks):
            before.append(speed.tick())
            if rec is not None:
                rec.task = i
                root = rec.open("bench.task")
            t0 = time.perf_counter()
            try:
                raw, err = task.run(), None
            except Exception as exc:  # a failing task is counted, not fatal
                raw, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if rec is not None:
                rec.close(root, None if err is None else err.split(":", 1)[0])
            lat.append(dt)
            results.add(i, raw, err)
        passes.append((lat, before))
        if time.perf_counter() >= deadline:
            speed.tick(force=True)  # the sample after the last task
            return [Pass(lat, [speed.scale(b) for b in before]) for lat, before in passes]


def measure(wl, args):
    results = Results(wl.tasks)
    table_mb = clock.table_mb()
    passes = run_passes(wl.tasks, results, args.seconds, clock.Speed())
    return {
        # the calibration table is the benchmark's, not the workload's
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - table_mb,
        "passes": [p.record() for p in passes],
        "tasks": results.summary(),
    }


def measure_traced(wl, args, out_dir):
    """Untraced and traced passes, alternating, so that warm-up and drift
    fall on both sides of the overhead ratio."""
    import layers
    import spans

    results = Results(wl.tasks)
    speed = clock.Speed()
    tracer = spans.Tracer(layers.hooks())
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain += run_passes(wl.tasks, results, 0, speed)
        wrapped = tracer.install()
        try:
            traced += run_passes(wl.tasks, results, 0, speed, tracer.rec)
        finally:
            tracer.uninstall()
    tracer.rec.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    record = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "spans": len(tracer.rec.spans),
        "wrapped_bindings": wrapped,
        "tasks": results.summary(),
    }
    _, attempted, failed, _ = summary.tally(record)
    overhead = (statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in plain) - 1)
    csv_bytes = sum(
        t.csv_bytes(results.first[i])
        for i, t in enumerate(wl.tasks) if t.csv_bytes and i in results.first
    )
    record["layer_metrics"] = layers.layer_metrics(
        tracer.rec.spans, tracer.rec.counts, len(traced),
        sum(sum(p.lat) for p in traced), overhead,
        failed / attempted, csv_bytes,
    )
    return record


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if not args.setup_only:
        clock.table_mb()  # before fractalab, so that only the table is frozen

    import fractalab
    import workloads

    if not Path(fractalab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fractalab imported from {fractalab.__file__}, not from the checkout")
    out_dir = Path(args.out)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        ready_at = time.monotonic()
        record = {}
        if not args.setup_only:
            record = measure_traced(wl, args, out_dir) if args.trace else measure(wl, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(ready_at=ready_at, work_unit=wl.work_unit)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
