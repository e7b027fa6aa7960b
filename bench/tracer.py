"""Per-layer spans recorded from outside the kkls package.

``Tracer.install()`` replaces the public functions of every kkls module,
in every module namespace that holds them, with wrappers that record a
span (name, start, end, parent) while the tracer is active, plus the
public ``TruncSeries`` methods.  ``TruncSeries.__init__`` is wrapped with
a plain counter.  The package itself is not modified on disk.

Spans are kept in memory; ``write()`` dumps them as JSON lines when the run
ends, and ``layer_metrics()`` derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

MODULES = ("polyser", "groupact", "invariants", "entropy", "landau",
           "reduction", "critpoints", "singtools", "cli")

# Leaf kernels called thousands of times from inside their own module: a span
# each would cost more than the work, and their time stays in the caller's
# layer either way.
UNWRAPPED = {"entropy.slot_vector", "entropy.alphaD_matrix"}

# One span name for the three group closures.
RENAMED = {"groupact.d3_elements": "groupact.elements",
           "groupact.d3tilde_elements": "groupact.elements",
           "groupact.d3xd3_elements": "groupact.elements"}

# TruncSeries methods that do arithmetic; the cheap accessors are left alone.
SERIES_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__pow__", "scale", "substitute",
                  "gradient", "evaluate", "homogeneous_part", "truncate",
                  "with_cap")


def _series_kind(series):
    return getattr(series, "kind", "none")


def _split_by_kind(base, pick):
    """Span name suffixed with the coefficient kind of one argument."""
    return lambda args, kwargs: f"{base}.{_series_kind(pick(args, kwargs))}"


NAMERS = {
    "polyser.TruncSeries.substitute":
        _split_by_kind("polyser.substitute", lambda a, k: a[0]),
    "polyser.invert_map":
        _split_by_kind("polyser.invert_map", lambda a, k: (a[0] or [None])[0]),
}


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_4d(counts, args, kwargs, result):
    grid_n = _arg(args, kwargs, 2, "grid_n", 5)
    counts["landau.critical_points_4d.seeds"] += grid_n ** 4 + 1
    counts["landau.critical_points_4d.points"] += len(result)


def _count_fixed_point(counts, args, kwargs, result):
    seeds = _arg(args, kwargs, 5, "seeds", None)
    counts["landau.solve_fixed_point.seeds"] += 1 if seeds is None else len(seeds)
    counts["landau.solve_fixed_point.solutions"] += len(result)


def _count_census(counts, args, kwargs, result):
    counts["critpoints.region_census.cells"] += sum(len(row) for row in result)


def _count_sweep(counts, args, kwargs, result):
    counts["critpoints.branch_sweep.steps"] += len(result.ts)
    counts["critpoints.branch_sweep.events"] += len(result.events)


def _count_output(counts, args, kwargs, result):
    counts["cli.output_bytes"] += result.stat().st_size


COUNTERS = {
    "landau.critical_points_4d": _count_4d,
    "landau.solve_fixed_point": _count_fixed_point,
    "critpoints.region_census": _count_census,
    "critpoints.branch_sweep": _count_sweep,
    "cli.write_csv": _count_output,
    "cli.write_json": _count_output,
}


class Tracer:
    """Records spans while ``active``; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ patching

    def _wrap(self, qualname, fn):
        name = RENAMED.get(qualname, qualname)
        namer = NAMERS.get(qualname)
        counter = COUNTERS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = namer(args, kwargs) if namer else name
                spans[index] = (label, start, end, parent)
            if counter:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of every kkls module, once each."""
        modules = {name: getattr(package, name) for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                qualname = f"{short}.{attr}"
                if qualname not in UNWRAPPED:
                    wrappers[obj] = self._wrap(qualname, obj)
        # every namespace that imported a wrapped function gets the wrapper
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        series = modules["polyser"].TruncSeries
        for attr in SERIES_METHODS:
            fn = series.__dict__[attr]
            self._restore.append((series, attr, fn))
            setattr(series, attr, self._wrap(f"polyser.TruncSeries.{attr}", fn))
        init = series.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if self.active:
                counts["polyser.TruncSeries.constructed"] += 1
            init(obj, *args, **kwargs)

        self._restore.append((series, "__init__", init))
        series.__init__ = counted_init

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ------------------------------------------------------------- results

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_metrics(self):
        """Totals over all recorded spans: per-name time and calls, and each
        module's self time (span time not covered by its child spans)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = Counter()
        calls = Counter()
        self_time = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += end - start - child_time[i]
            # a span nested in one of the same name is already counted
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return inclusive, calls, self_time, Counter(self.counts), len(spans)
