"""Span tracing around the public functions of each ``leveltime`` module.

The tracer records spans from outside the package: it swaps every public
function of a layer module for a wrapper, in every module namespace that
bound it, so calls made through ``from .x import f`` are traced too.  Spans
live in memory per thread; a span's self time is its duration minus the time
its child spans in the same thread cover.
"""

import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "_kernels", "paths", "dcfuncs", "follmer", "crossing", "skorokhod",
    "lab", "cli",
)

# Metric prefix per module; metric names must start with a letter.
PREFIX = {name: name.lstrip("_") for name in LAYERS}


def _levels_cells(args):
    return len(args[0]) * int(args[4])


# Operation count per kernel call: samples x levels, samples alone for the
# play operator.  The argument positions follow the signatures in _kernels.
KERNEL_CELLS = {
    "play_operator": lambda args: len(args[0]),
    "crossing_counts": lambda args: len(args[0]) * int(args[3]),
    "interval_field_point": _levels_cells,
    "interval_field_cell": _levels_cells,
    "signed_increment_sum": _levels_cells,
    "occupation_weights": _levels_cells,
}


def _file_mb(file):
    if isinstance(file, (str, bytes, os.PathLike)) and os.path.exists(file):
        return os.path.getsize(file) / 1e6
    return 0.0


def _extras(name, args, kwargs, result):
    """Counters recorded at a span boundary, keyed by metric suffix."""
    if name.startswith("kernels."):
        return {"cells": KERNEL_CELLS[name.split(".")[1]](args)}
    if name == "skorokhod.banach_indicatrix_integral":
        sol = args[0] if args else kwargs["solution"]
        return {"segments": len(sol.monotone_segments)}
    if name == "skorokhod.crossing_count_field":
        return {"levels": int(result.size), "live": int((result > 0).sum())}
    if name == "paths.write_path_csv":
        return {"mb": _file_mb(args[1] if len(args) > 1 else kwargs["file"])}
    if name == "paths.read_path_csv":
        return {"mb": _file_mb(args[0] if args else kwargs["file"])}
    return None


class Tracer:
    """Collects spans; :meth:`install` wraps the package, :meth:`remove`
    restores it."""

    def __init__(self):
        self.spans = []  # (name, parent name, thread, duration s, self s, extras)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name, fn):
        """``fn`` recording a span named ``name`` on each call."""
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [name, 0.0]  # span name, time covered by its children
            stack.append(frame)
            tick = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - tick
                stack.pop()
                if stack:
                    stack[-1][1] += duration
            extras = _extras(name, args, kwargs, result)
            parent = stack[-1][0] if stack else None
            span = (name, parent, threading.get_ident(), duration,
                    duration - frame[1], extras)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every public function of each layer, plus the two methods
        the per-layer metrics name."""
        import leveltime  # noqa: F401  (loads every layer module)

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"leveltime.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = (
                        obj, self.wrap(f"{PREFIX[layer]}.{attr}", obj)
                    )
        for modname, mod in list(sys.modules.items()):
            if modname != "leveltime" and not modname.startswith("leveltime."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

        from leveltime.dcfuncs import SecondDerivativeMeasure
        from leveltime.paths import PartitionScheme

        explicit = PartitionScheme.__dict__["explicit"]
        self._patched.append((PartitionScheme, "explicit", explicit))
        PartitionScheme.explicit = classmethod(
            self.wrap("paths.PartitionScheme.explicit", explicit.__func__)
        )
        bracket = SecondDerivativeMeasure.__dict__["bracket_weight_integrals"]
        self._patched.append(
            (SecondDerivativeMeasure, "bracket_weight_integrals", bracket)
        )
        SecondDerivativeMeasure.bracket_weight_integrals = self.wrap(
            "dcfuncs.bracket_weight_integrals", bracket
        )

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def totals(self):
        """Per span name: calls, self seconds, and summed extras."""
        out = defaultdict(lambda: defaultdict(float))
        for name, _parent, _tid, _dur, self_s, extras in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += self_s
            for key, value in (extras or {}).items():
                agg[key] += value
        return out

    def worker_busy_fraction(self, main_ident, workers):
        """Per-path span time over (experiment wall x workers): spans that
        open a pool thread's stack, or that run directly under
        ``run_convergence_experiment`` when it runs its paths inline."""
        rce = "lab.run_convergence_experiment"
        wall = sum(dur for name, _p, _t, dur, _s, _e in self.spans if name == rce)
        busy = sum(
            dur for _n, parent, tid, dur, _s, _e in self.spans
            if parent == rce or (parent is None and tid != main_ident)
        )
        if wall <= 0 or workers < 1:
            return 0.0
        return busy / (wall * workers)
