"""Span tracing installed from the benchmark, around each layer's public functions.

Importing this module changes nothing.  ``Tracer.install``, called only by
the traced worker, replaces every public function of the layer modules (the
functions named in each module's ``__all__``), plus the ``scipy.fft.dct``
that ``fastslow.spectral_core`` calls, by a wrapper that records a span:
name, start, end, parent span, run id and, for a few functions, counts
(points transformed, steps, samples, sweeps, bytes).
Spans stay in memory; per-layer self times and counts are derived from them
after each run, and the last run's spans are written out when the worker
ends (one converge run alone makes about 50,000).
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from time import perf_counter

LAYERS = ("config", "spectral_core", "integrator", "reduction", "rates",
          "galerkin_manifold", "output", "cli")


def _steps(T, dt):
    return 0 if T == 0 else max(1, math.ceil(T / dt - 1e-9))


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _simulate_counts(args, kwargs, result):
    # simulate(state0, params, T, dt=None, sample_every=1, c_t=0.5): dt
    # defaults to min(c_t * eps, T / 1000) (T / 1000 for the linear kind),
    # then shrinks so an integer number of steps lands on T.
    params, T = _arg(args, kwargs, 1, "params"), float(_arg(args, kwargs, 2, "T"))
    dt = _arg(args, kwargs, 3, "dt")
    if dt is None:
        c_t = _arg(args, kwargs, 5, "c_t", 0.5)
        dt = T / 1000.0 if params.is_linear else min(c_t * params.eps, T / 1000.0)
    return {"steps": _steps(T, dt), "samples": len(result.times)}


def _limit_counts(args, kwargs, result):
    # solve_limit_system(v_in, params, T, dt, sample_every=1)
    T, dt = float(_arg(args, kwargs, 2, "T")), _arg(args, kwargs, 3, "dt")
    return {"steps": _steps(T, dt), "samples": len(result.times)}


def _csv_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Counts a span records, computed from the call and its result after it returns.
MEASURED = {
    "spectral_core.dct": lambda args, kwargs, result: {"points": args[0].size},
    "integrator.simulate": _simulate_counts,
    "reduction.solve_limit_system": _limit_counts,
    "galerkin_manifold.lyapunov_perron_fixed_point":
        lambda args, kwargs, result: {"sweeps": result.iterations},
    "output.emit_csv": _csv_counts,
}


def rebind(replacements: dict) -> None:
    """Rebind functions in every loaded ``fastslow`` module namespace.

    ``replacements`` maps ``id(old)`` to ``(old, new)``; modules that did
    ``from .x import f`` hold their own binding of ``f``, so each is patched.
    """
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fastslow":
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                setattr(module, attr, replacements[id(value)][1])


class Tracer:
    """In-memory spans: (name, start, end, parent index, run id, counts or None)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        measure = MEASURED.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, None)
            if measure is not None:
                spans[index] = spans[index][:5] + (measure(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap the layer functions in every ``fastslow`` namespace that binds them.

        A layer or function the program no longer has is skipped; its
        metrics then read 0.
        """
        import fastslow.cli  # noqa: F401  imports every layer module

        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"fastslow.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    replacements[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        rebind(replacements)
        spectral_core = sys.modules.get("fastslow.spectral_core")
        if hasattr(spectral_core, "dct"):
            spectral_core.dct = self.wrap("spectral_core.dct", spectral_core.dct)

    def summary(self):
        """Per-name totals of the spans held: calls, inclusive and self seconds, counts."""
        covered = {}
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        totals = {}
        for index, (name, start, end, parent, _, counts) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered.get(index, 0.0)
            for key, count in (counts or {}).items():
                entry[key] = entry.get(key, 0) + count
        return totals

    def take(self):
        """Return the spans held and start an empty list for the next run."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def dump(spans):
    """Spans as JSON-ready rows with names interned."""
    names = sorted({s[0] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    return {"names": names, "columns": ["name", "start", "end", "parent", "run_id", "counts"],
            "spans": [[code[s[0]], *s[1:]] for s in spans]}
