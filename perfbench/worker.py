"""One workload process: set up, run timed rounds, check, report.

Started by ``run.py`` in a fresh interpreter per workload run.  Prints one
JSON object on stdout holding the monotonic time at which set-up ended, the
metrics measured here, and the environment; ``run.py`` adds ``setup_s``.

With ``--trace 0`` the rounds run untraced for the whole budget.  With
``--trace 1`` they run untraced for half of it, then the workload's first
``trace_rounds`` rounds run again with every public function of the package
wrapped in a span, and the outputs of both passes must match byte for byte.
The traced pass does the same work whatever the budget, so its per-layer
counts and times are the cost of a fixed piece of work.
"""

import argparse
import json
import os
import platform
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PINNED  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL, SMOKE, WORKLOADS, CheckFailed, artifact_mb,
)

UNIT_SPAN = "bench.unit"

# Per-span statistics, by the last part of a ``<span>.<stat>`` metric name.
SPAN_STATS = {
    "calls": lambda t: t.get("calls", 0),
    "busy_ms": lambda t: t.get("self_s", 0.0) * 1e3,
    "cells": lambda t: t.get("cells", 0),
    "ns_per_cell": lambda t: (
        t["self_s"] * 1e9 / t["cells"] if t.get("cells") else 0.0
    ),
    "mb": lambda t: t.get("mb", 0.0),
    "segments": lambda t: t.get("segments", 0),
}


class Phase:
    """Latencies and failures of consecutive whole rounds."""

    def __init__(self):
        self.samples = []  # (label, seconds) of units that passed
        self.attempted = 0
        self.problems = []
        self.round_s = []  # summed latency of the passed units, per round
        self.round_n = []  # passed units, per round

    @property
    def rounds(self):
        return len(self.round_s)

    @property
    def busy_s(self):
        return sum(self.round_s)


def run_phase(rounds, digests, budget_s=0.0, min_rounds=1, tracer=None):
    """Run whole rounds until ``budget_s`` has passed and at least
    ``min_rounds`` are done; with no budget, exactly ``min_rounds``.
    ``digests`` maps unit keys to the digest first seen for them.  With a
    ``tracer``, each unit runs in a ``bench.unit`` span whose self time is
    the part of the unit no layer span covers."""
    phase = Phase()
    start = time.perf_counter()
    for units in rounds():
        round_s, round_n = 0.0, 0
        for unit in units:
            phase.attempted += 1
            call = unit.call
            if tracer is not None:
                call = tracer.wrap(UNIT_SPAN, call)
            tick = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed unit is counted, not fatal
                phase.problems.append(f"{unit.label}: raised {exc!r}")
                continue
            elapsed = time.perf_counter() - tick
            try:
                digest = unit.check(out)
            except CheckFailed as exc:
                phase.problems.append(f"{unit.label}: {exc}")
                continue
            if digests.setdefault(unit.key, digest) != digest:
                phase.problems.append(
                    f"{unit.label}: output differs from an earlier run of {unit.key}"
                )
                continue
            phase.samples.append((unit.label, elapsed))
            round_s += elapsed
            round_n += 1
        phase.round_s.append(round_s)
        phase.round_n.append(round_n)
        if (phase.rounds >= min_rounds
                and time.perf_counter() - start >= budget_s):
            break
    return phase


def tail(values):
    """(percentile, value): the highest integer percentile, by nearest rank,
    with at least ten samples beyond it; the maximum below 11 samples."""
    v = np.sort(values)
    n = v.size
    if n < 11:
        return 100, float(v[-1])
    p = max(q for q in range(1, 100) if int(np.ceil(q * n / 100)) <= n - 10)
    return p, float(v[int(np.ceil(p * n / 100)) - 1])


def end_to_end(phase):
    """Throughput is the median over rounds of units per second, so that a
    stall of the host in one round moves it no more than it moves the
    median latency."""
    secs = np.array([s for _, s in phase.samples])
    if secs.size == 0:
        return {}, {}
    p, tail_s = tail(secs)
    rates = [n / s for n, s in zip(phase.round_n, phase.round_s) if n]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_per_s": (float(np.median(rates)), "1/s"),
        "unit_p50_ms": (float(np.median(secs)) * 1e3, "ms"),
        "unit_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"tail_percentile": p, "samples": int(secs.size),
             "rounds": phase.rounds}
    return metrics, notes


def layer_metrics(per_layer, tracer, untraced, traced, workers, workdir,
                  main_ident):
    """Every metric named in ``per_layer`` (the ``BENCHMARK.json`` entries),
    from the traced pass; ``cli.<subcommand>.p50_ms`` from the untraced
    one.  A metric of a span the workload never enters reads 0."""
    totals = tracer.totals()
    by_label = defaultdict(list)
    for label, s in untraced.samples:
        by_label[label].append(s)
    ccf = totals.get("skorokhod.crossing_count_field", {})
    # the untraced wall of the rounds the traced pass replayed
    replayed_s = sum(untraced.round_s[:traced.rounds])
    special = {
        "skorokhod.crossing_count_field.live_level_fraction":
            ccf["live"] / ccf["levels"] if ccf.get("levels") else 0.0,
        "lab.worker_busy_fraction":
            tracer.worker_busy_fraction(main_ident, workers),
        "cli.artifact_mb": artifact_mb(workdir),
        "trace.overhead_ratio":
            traced.busy_s / replayed_s if replayed_s else 0.0,
        "trace.wall_ms": traced.busy_s * 1e3,
        "trace.unattributed_ms":
            totals.get(UNIT_SPAN, {}).get("self_s", 0.0) * 1e3,
    }
    metrics = {}
    for m in per_layer:
        name = m["name"]
        span, stat = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif stat == "p50_ms":
            secs = by_label.get(span.removeprefix("cli."))
            value = float(np.median(secs)) * 1e3 if secs else 0.0
        else:
            value = SPAN_STATS[stat](totals.get(span, {}))
        metrics[name] = (float(value), m["unit"])
    return metrics


def top_layers(tracer, wall_s, n=5):
    """The spans with the most self time, as shares of the traced wall."""
    layers = [kv for kv in tracer.totals().items() if kv[0] != UNIT_SPAN]
    ranked = sorted(layers, key=lambda kv: -kv[1]["self_s"])
    return {name: round(t["self_s"] / wall_s, 4) for name, t in ranked[:n]
            if wall_s > 0}


def environment():
    import leveltime._kernels as k

    env = {
        "ACTIVE_BACKEND": k.ACTIVE_BACKEND,
        "HAS_NUMBA": k.HAS_NUMBA,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    env.update({v: os.environ.get(v) for v in PINNED})
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import leveltime

    src = ROOT / "src"
    if Path(leveltime.__file__).resolve().parent.parent != src:
        print(f"leveltime imported from {leveltime.__file__}, not {src}",
              file=sys.stderr)
        return 2
    leveltime.warmup()
    size = SMOKE if args.smoke else FULL
    rounds = WORKLOADS[args.workload](leveltime, args.seed, size, args.workdir)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    digests = {}
    if args.trace == 0:
        phase = run_phase(rounds, digests, budget_s=args.seconds)
        metrics, notes = end_to_end(phase)
        phases = [phase]
    else:
        n = size.trace_rounds[args.workload]
        untraced = run_phase(rounds, digests, budget_s=args.seconds / 2,
                             min_rounds=n)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(rounds, digests, min_rounds=n, tracer=tracer)
        finally:
            tracer.remove()
        with open(ROOT / "BENCHMARK.json") as fh:
            per_layer = json.load(fh)["per_layer"]
        workers = int(os.environ.get("LOCALTIME_THREADS") or 1)
        metrics = layer_metrics(per_layer, tracer, untraced, traced, workers,
                                args.workdir, threading.get_ident())
        notes = {"top_layers": top_layers(tracer, traced.busy_s),
                 "traced_rounds": traced.rounds,
                 "traced_units": len(traced.samples)}
        phases = [untraced, traced]
    problems = [msg for p in phases for msg in p.problems]
    print(json.dumps({
        "setup_end": setup_end,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(problems),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
