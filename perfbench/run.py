"""fractalab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh worker processes
(perfbench/worker.py) against the checkout's own src/, one after another,
with the BLAS/OpenMP thread pools pinned: one process that measures, and
for setup_s, SETUP_SAMPLES processes that only set up, half of them before
the measuring one and half after.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run; the
names and units are those of BENCHMARK.json.  Pass and task times are in
reference seconds: measured seconds scaled by a machine-speed calibration
(clock.py).  The last line of standard output is the result object; the
line before it, starting with "record ", holds the environment and the
details behind the figures (task count, tail percentile, pass times,
set-up samples, failures).

The run fails (exit code other than 0, no result printed) when the checkout
has no src/fractalab, when src/fractalab/pins.json is missing (the
pisot-nondecay suite would write it into the package), or when any file
under src/fractalab changed during the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PKG = ROOT / "src" / "fractalab"
OUT = ROOT / ".perfbench_out"

# Set-up-only processes per untraced run; setup_s is their median.  Set-up
# is a second or two of CPU work, and on a shared host the machine's speed
# swings for stretches of about ten seconds, so the samples are taken on
# both sides of the measuring process.
SETUP_SAMPLES = 6
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT = 150


class RunError(RuntimeError):
    pass


def tree_digest(path):
    """sha256 over the relative paths and bytes of every file below `path`,
    bytecode caches excepted."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout read from .git without starting git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed):
    import importlib.metadata as md

    def version(dist):
        try:
            return md.version(dist)
        except md.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{lib: version(lib) for lib in ("numpy", "scipy", "sympy", "mpmath")},
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(key):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    return {m["name"]: m["unit"] for m in benchmark()[key]}


def spawn(args, deadline, setup_only=False):
    """Start a worker, wait for it, return (start time, its JSON record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT), *(["--setup-only"] if setup_only else [])]
    start = time.monotonic()
    timeout = max(deadline - start, 1.0)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def run(args):
    if not (PKG / "__init__.py").is_file():
        raise RunError(f"no fractalab package under {PKG.relative_to(ROOT)}")
    if not (PKG / "pins.json").is_file():
        raise RunError("src/fractalab/pins.json is missing; the pisot-nondecay suite "
                       "would write it into the package")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    OUT.mkdir(exist_ok=True)
    before = tree_digest(PKG)
    deadline = time.monotonic() + WORKER_TIMEOUT

    setup = []

    def sample_setup(n):
        for _ in range(0 if args.trace else n):
            start, rec = spawn(args, deadline, setup_only=True)
            setup.append(rec["ready_at"] - start)

    sample_setup(SETUP_SAMPLES // 2)
    _, record = spawn(args, deadline)
    sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    if tree_digest(PKG) != before:
        raise RunError("src/fractalab changed during the run")

    correct, attempted, failed, messages = summary.tally(record)
    if args.trace:
        metrics = record["layer_metrics"]
        units = metric_units("per_layer")
        details = {key: record[key] for key in ("passes", "spans", "wrapped_bindings")}
    else:
        metrics, details = summary.end_to_end(record)
        metrics["setup_s"] = statistics.median(setup)
        units = metric_units("end_to_end")
    rec = {
        "workload": args.workload,
        "work_unit": record["work_unit"],
        **details,
        "setup_samples_s": setup,
        "failures": messages,
        "env": environment(args.seed),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**rec, **result}, indent=1) + "\n")
    return rec, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="fractalab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rec, result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("record " + json.dumps(rec))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
