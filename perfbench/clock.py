"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to a quarter faster or slower for
stretches of about ten seconds, as neighbours load the machine.  A short
fixed calibration workload is timed between tasks, and every task time is
reported in reference seconds:

    reported = measured * CAL_REF_S / (calibration time around the task)

the geometric mean of the calibrations just before and just after it, so a
program change moves the reported figure as it moves the measured one,
while a slow or fast stretch of the machine moves both the measurement and
the calibration and cancels.

The calibration looks up Fractions in random order in a dict of 200,000
of them: Python-level hashing and pointer chasing over a working set far
larger than the caches.  Measured against word trees, certified digits and
Monte Carlo walks over slow swings of the machine, it tracked them with a
slope near 1, where a cache-resident loop under-corrected by about a third.
Raw timings are kept in the run record.
"""

from __future__ import annotations

import gc
import math
import random
import time
from fractions import Fraction

# Median duration of calibrate() on the machine the bounds were set on
# (2-vCPU Xeon virtual machine, Python 3.11); it only fixes the unit.
CAL_REF_S = 0.0091
CAL_EVERY_S = 0.15  # calibrate before a task when this long has passed since the last

_TABLE_SIZE = 200_000
_LOOKUPS = 2_500
_table = None
_keys = None
_table_mb = 0.0


def table_mb():
    """Build the calibration table if needed; return the resident memory it
    added, in MB (read from /proc/self/statm).

    The table is then frozen out of the garbage collector, so that the
    collections the workload's own allocations trigger never scan it.  Build
    it before the workload, or the workload's objects are frozen too."""
    global _table, _keys, _table_mb
    if _table is not None:
        return _table_mb
    before = _rss_pages()
    _table = {Fraction(i, 7919): i for i in range(_TABLE_SIZE)}
    keys = list(_table)
    random.Random(0).shuffle(keys)
    _keys = keys[:_LOOKUPS]
    gc.collect()
    gc.freeze()
    import resource

    _table_mb = (_rss_pages() - before) * resource.getpagesize() / 2**20
    return _table_mb


def _rss_pages():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1])


def calibrate():
    """Duration of one fixed calibration workload, in seconds."""
    table_mb()
    t0 = time.perf_counter()
    total = 0
    for k in _keys:
        total += _table[k]
    return time.perf_counter() - t0


class Speed:
    """Calibration samples taken between tasks."""

    def __init__(self):
        self.samples = []
        self._last = -float("inf")

    def tick(self, force=False):
        """Calibrate if CAL_EVERY_S has passed since the last sample; return
        the index of the latest sample."""
        if force or time.perf_counter() - self._last >= CAL_EVERY_S:
            self.samples.append(calibrate())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, before):
        """CAL_REF_S over the geometric mean of the samples taken just
        before and just after a task that ran after sample `before`."""
        pair = self.samples[before:before + 2]
        return CAL_REF_S / math.exp(sum(math.log(v) for v in pair) / len(pair))
