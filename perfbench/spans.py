"""Span recorder for the traced benchmark run.

Wrappers are installed around the public functions of every fractalab
module, at every place that holds a reference to them: the defining module,
each module that imported the name, and registries such as
``suites.BUILTIN_SUITES``.  Function-local imports (``from .ifs_core import
coding_point`` inside ``normality.digits_of_sample``) read the defining
module's attribute at call time, so they see the wrapper too.  Nothing under
``src/`` is changed; ``uninstall`` puts every original back.

A span is (name, start, end, parent, task, error).  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "fourier",
    "quadfield",
    "ifs_core",
    "normality",
    "cocycle_walk",
    "classify",
    "specfile",
    "cli",
    "suites",
)

# `is_exact` is a type predicate called several times per word-tree node; a
# span around it would cost more than the call it measures.
_SKIP = {"quadfield.is_exact"}

# Public methods that do a layer's work but are not module-level functions.
_METHODS = {"quadfield": {"QuadExact": ("frac_part_mpf", "to_mpf", "rational_bounds")}}


class SpanRecorder:
    """In-memory spans plus the id of the task that is running."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, task, error]
        self.counts = {}  # totals reported by hooks
        self._stack = []
        self.task = -1

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx, error=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = error
        self._stack.pop()

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "task", "error"],
                 "names": names, "spans": rows},
                fh,
            )


def _wrap(name, fn, rec, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, type(exc).__name__)
            raise
        rec.close(idx)
        if hook is not None:
            for key, val in hook(args, kwargs, out).items():
                rec.counts[key] = rec.counts.get(key, 0) + val
        return out

    traced.__perfbench_span__ = name
    return traced


def _targets():
    """{original function: span name} for every traced public function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"fractalab.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in _SKIP
            ):
                out[obj] = name
        for cls_name, methods in _METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out[vars(cls)[meth]] = f"{layer}.{cls_name}.{meth}"
    return out


def _namespaces():
    """Every dict that may hold a reference to a traced function."""
    for modname, mod in list(sys.modules.items()):
        if modname == "fractalab" or modname.startswith("fractalab."):
            ns = vars(mod)
            yield ns
            for val in list(ns.values()):
                if isinstance(val, dict):
                    yield val
                elif inspect.isclass(val) and val.__module__ == modname:
                    yield val


class Tracer:
    """Installs and removes the wrappers; owns the recorder.

    hooks: {span name: (args, kwargs, result) -> {count: value}}, for
    counts that only a call's arguments or result carry."""

    def __init__(self, hooks=None):
        self.rec = SpanRecorder()
        self.hooks = hooks or {}
        self._patched = []  # (namespace, key, original)

    def install(self):
        targets = _targets()
        wrappers = {fn: _wrap(name, fn, self.rec, self.hooks.get(name))
                    for fn, name in targets.items()}
        for ns in _namespaces():
            items = vars(ns).items() if inspect.isclass(ns) else ns.items()
            for key, val in list(items):
                if inspect.isfunction(val) and val in wrappers:
                    self._patched.append((ns, key, val))
                    if inspect.isclass(ns):
                        setattr(ns, key, wrappers[val])
                    else:
                        ns[key] = wrappers[val]
        return len(self._patched)

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            if inspect.isclass(ns):
                setattr(ns, key, original)
            else:
                ns[key] = original
        self._patched.clear()
        for ns in _namespaces():
            items = vars(ns).items() if inspect.isclass(ns) else ns.items()
            for key, val in items:
                if inspect.isfunction(val) and hasattr(val, "__perfbench_span__"):
                    raise RuntimeError(f"traced wrapper left installed at {key}")


# -- analysis -----------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        ivs = sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def busy_time(spans, names):
    """Wall time inside spans named in `names`, counting nested calls of
    the same set once (only spans with no ancestor in the set)."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def layer_of(name):
    """'fourier.fourier_word_tree' -> 'fourier'; harness spans -> None."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def descendants_named(spans, ancestor_names, name):
    """Number of spans called `name` below a span in `ancestor_names`."""
    count = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in ancestor_names:
            p = spans[p][3]
        count += p >= 0
    return count
