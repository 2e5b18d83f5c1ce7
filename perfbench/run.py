"""End-to-end and per-layer benchmark of ``leveltime``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_artifacts --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each run starts the workload in a fresh interpreter (``worker.py``) that
imports the package from ``src/`` of this checkout.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints the per-layer
metrics of a traced replay.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; earlier lines name
the backend and environment and give every metric with its unit.  The exit
code is 0 only when every timed output passed its check.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and
fails unless every check passes, exactly the metrics listed in
``BENCHMARK.json`` are printed, and every span with a ``.calls`` metric is
entered by some workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is measured in this many fresh processes and reported as the median.
SETUP_RUNS = 7
# Thread pools pinned to one thread: the lab's own pool and BLAS/OpenMP.  On
# a shared 2-vCPU machine two busy lab threads drew nine times the steal
# time of one and spread mc_partition's tail latency by a third between runs.
PINNED = (
    "LOCALTIME_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.update({v: "1" for v in PINNED})
    return env


def spawn(args, deadline):
    """Run ``worker.py``, killing it at the monotonic ``deadline``; returns
    its JSON report and the monotonic time just before it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    timeout = max(1.0, deadline - start)
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1]), start


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one workload in fresh processes; returns the full report."""
    if not (ROOT / "src" / "leveltime" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    if smoke:
        args.append("--smoke")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if trace == 0:
            for _ in range(SETUP_RUNS - 1):
                probe, start = spawn(args + ["--setup-only"], deadline)
                setups.append(probe["setup_end"] - start)
        report, start = spawn(args, deadline)
        setups.append(report["setup_end"] - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace == 0:
        report["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        report["notes"]["setup_runs"] = len(setups)
    return report


def describe(workload, seed, trace, report):
    """Human-readable lines: environment, every metric, failures."""
    env = report["env"]
    print(f"workload {workload} seed {seed} trace {trace} "
          f"backend {env['ACTIVE_BACKEND']} HAS_NUMBA {env['HAS_NUMBA']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in sorted(report["metrics"].items()):
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  error_rate {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print("notes " + json.dumps(report["notes"], sort_keys=True))
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def result_line(report):
    return json.dumps({
        "correct": not report["problems"] and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def smoke(bench):
    """Every workload, traced and untraced, at tiny sizes."""
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    bad = []
    called = set()
    for w in bench["workloads"]:
        for trace in (0, 1):
            report = run_workload(w["name"], 0, 0.5, trace, smoke=True)
            describe(w["name"], 0, trace, report)
            got = set(report["metrics"])
            called.update(k for k, m in report["metrics"].items()
                          if k.endswith(".calls") and m["value"] > 0)
            if got != expected[trace]:
                bad.append(f"{w['name']} trace {trace}: missing "
                           f"{sorted(expected[trace] - got)}, extra "
                           f"{sorted(got - expected[trace])}")
            if report["problems"] or report["attempted"] == 0:
                bad.append(f"{w['name']} trace {trace}: output checks failed")
    never = sorted(n for n in expected[1]
                   if n.endswith(".calls") and n not in called)
    if never:
        bad.append(f"spans no workload entered: {never}")
    for line in bad:
        print(f"SMOKE FAILED {line}")
    print("smoke " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    try:
        if args.smoke:
            return smoke(bench)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            ap.error(f"--workload must be one of {names}")
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    describe(args.workload, args.seed, args.trace, report)
    print(result_line(report))
    return 0 if not report["problems"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
