"""Per-layer spans and counts for a traced pass.

The tracer wraps public functions of the xspectra modules from the
outside.  A caller that imported a function by name holds its own
reference, so every ``xspectra.*`` module attribute that *is* the
original function is replaced, and restored on exit.

Each call records a span (name, start, end, parent).  A span opened on
a worker thread with nothing open on that thread takes as parent the
innermost span open on the thread that installed the tracer: the CLI's
grid-evaluation pool is only started from inside ``cli.main``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Optional

import numpy as np

# (module, attribute, span name)
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("models", "potential", "models.potential"),
    ("models", "wavefunction", "models.wavefunction"),
    ("models", "quasi_hermiticity_residual", "models.similarity"),
    ("models", "pseudo_hermiticity_residual", "models.similarity"),
    ("models", "pt_symmetry_residual", "models.similarity"),
    ("numerics", "lowest_eigenvalues", "numerics.lowest_eigenvalues"),
    ("numerics", "eigen_near_shift", "numerics.eigen_near_shift"),
    ("numerics", "integrate", "numerics.integrate"),
    ("numerics", "gram_matrix", "numerics.gram_matrix"),
    ("numerics", "discretize", "numerics.discretize"),
    ("numerics", "schrodinger_residual", "numerics.schrodinger_residual"),
    ("xop", "x1_polynomial", "xop.x1_polynomial"),
    ("polycore", "count_real_roots_in", "polycore.count_real_roots_in"),
    ("pct", "extract_potential_report", "pct.extract_potential_report"),
)

# span names whose self time (duration minus what child spans cover) is reported
_SELF_TIMED = ("cli.main", "numerics.gram_matrix")

# every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "numerics.lowest_eigenvalues.s": "s",
    "numerics.lowest_eigenvalues.calls": "count",
    "numerics.lowest_eigenvalues.rows": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "models.potential.s": "s",
    "models.potential.points": "count",
    "models.wavefunction.s": "s",
    "models.wavefunction.points": "count",
    "models.similarity.s": "s",
    "numerics.eigen_near_shift.s": "s",
    "numerics.eigen_near_shift.calls": "count",
    "numerics.eigen_near_shift.iterations": "count",
    "numerics.eigen_near_shift.unconverged": "count",
    "numerics.integrate.s": "s",
    "numerics.integrate.calls": "count",
    "numerics.integrate.points": "count",
    "numerics.gram_matrix.s": "s",
    "numerics.gram_matrix.self_s": "s",
    "xop.x1_polynomial.s": "s",
    "xop.x1_polynomial.calls": "count",
    "xop.x1_polynomial.failed": "count",
    "polycore.count_real_roots_in.s": "s",
    "polycore.count_real_roots_in.calls": "count",
    "pct.extract_potential_report.s": "s",
    "pct.extract_potential_report.calls": "count",
    "numerics.discretize.s": "s",
    "numerics.schrodinger_residual.s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_rows(tracer, args, kwargs, result):
    tracer.add("numerics.lowest_eigenvalues.rows",
               _arg(args, kwargs, 0, "t").size * _arg(args, kwargs, 1, "m"))


def _count_points(metric, index):
    def hook(tracer, args, kwargs, result):
        tracer.add(metric, int(np.size(_arg(args, kwargs, index, "x"))))
    return hook


def _count_iterations(tracer, args, kwargs, result):
    tracer.add("numerics.eigen_near_shift.iterations", result.iterations)
    tracer.add("numerics.eigen_near_shift.unconverged", int(not result.converged))


def _count_integrand_points(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        tracer.add("numerics.integrate.points", int(np.size(x)))
        return f(x)

    if "f" in kwargs:
        return args, {**kwargs, "f": counted}
    return (counted,) + tuple(args[1:]), kwargs


# hooks run before a call (may replace its arguments) and after it returns
_BEFORE = {"numerics.integrate": _count_integrand_points}
_AFTER = {
    "numerics.lowest_eigenvalues": _count_rows,
    "models.potential": _count_points("models.potential.points", 1),
    "models.wavefunction": _count_points("models.wavefunction.points", 2),
    "numerics.eigen_near_shift": _count_iterations,
}


class Tracer:
    """Collects spans and counts while installed (``with Tracer() as t``)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []
        self._main_stack: list = []
        self.spans: list = []  # [name, start, end, parent index or None]
        self.counts: dict = {}

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".failed", 1)
                raise
            finally:
                self._close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        import xspectra  # noqa: F401  (loads every submodule)

        self._main_stack = self._stack()
        wrappers = {}
        for module, attr, name in _TARGETS:
            original = getattr(sys.modules[f"xspectra.{module}"], attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "xspectra" and not mod_name.startswith("xspectra."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def layer_metrics(self) -> dict:
        """Per-layer seconds and counts over every span recorded so far.

        ``<name>.s`` is the length of the union of that name's span
        intervals, so overlapping spans on two threads count once.
        """
        by_name: dict = {}
        children: dict = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            by_name.setdefault(name, []).append((start, end))
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for key, unit in PER_LAYER.items():
            if unit == "s" and key.endswith(".s"):
                out[key] = _union_length(by_name.get(key[:-2], []))
            elif unit != "s":
                out[key] = self.counts.get(key, 0)
        for name in _SELF_TIMED:
            total = 0.0
            for index, (span_name, start, end, _) in enumerate(self.spans):
                if span_name == name:
                    covered = _union_length(
                        [(max(s, start), min(e, end)) for s, e in children.get(index, [])]
                    )
                    total += (end - start) - covered
            out[name + ".self_s"] = total
        return out


def _union_length(intervals) -> float:
    total = 0.0
    reach: Optional[float] = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
