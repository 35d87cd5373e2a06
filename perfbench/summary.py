"""Turning a worker record into a run's result.

A worker record holds, per task, how often it ran and raised, how often a
later pass failed to reproduce the first output, and the result of checking
that output against its reference; and, per pass, each task's latency and
speed scale (see clock.py).
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # tasks that must lie beyond the reported tail latency


def tally(record):
    """(correct, attempted, failed, messages) over every task run.  failed
    counts task runs that raised, returned an output that failed its check,
    or did not reproduce the first output; correct is false when any did,
    so a task that fails early can never make a run look faster."""
    attempted, failed, messages = 0, 0, {}
    for t in record["tasks"]:
        label = t["label"]
        ok_runs = t["runs"] - t["raised"]
        attempted += t["runs"]
        failed += t["raised"]
        if t["raised"]:
            messages[label] = t["error"]
        if ok_runs and t["check"] is not None:
            failed += ok_runs
            messages[label] = t["check"]
        elif t["mismatch"]:
            failed += t["mismatch"]
            messages[label] = "output differs between passes"
    return failed == 0, attempted, failed, messages


def end_to_end(record):
    """Pass and task timings in reference seconds.

    wall_s and work_per_s are medians over passes; each task's latency is
    its median over passes, task_p50_s the median of those and task_tail_s
    the highest one with TAIL_BEYOND tasks beyond it."""
    tasks, passes = record["tasks"], record["passes"]
    walls, rates = [], []
    for p in passes:
        wall = sum(k * dt for k, dt in zip(p["scale"], p["lat"]))
        walls.append(wall)
        rates.append(sum(t["work"] for t in tasks) / wall)
    by_task = {t["label"]: statistics.median(p["scale"][i] * p["lat"][i] for p in passes)
               for i, t in enumerate(tasks)}
    per_task = sorted(by_task.values())
    n = len(per_task)
    j = max(n - 1 - TAIL_BEYOND, 0)
    metrics = {
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(rates),
        "task_p50_s": statistics.median(per_task),
        "task_tail_s": per_task[j],
        "peak_rss_mb": record["rss_mb"],
    }
    details = {
        "tasks": n,
        "tail_percentile": round(100 * (j + 1) / n, 2),
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_scale": [statistics.median(p["scale"]) for p in passes],
        "task_median_s": by_task,
    }
    return metrics, details
