"""Compare the two kernel backends on identical inputs.

Every kernel is reachable through a numba and a numpy backend.  The four
field kernels have a vectorised numpy reformulation of the loop; the play
operator and the crossing counts run the same loop on both, compiled or
not.  This script first checks that both backends agree on a small seeded
path (2,049 samples by 101 levels, small enough for the uncompiled loops
that stand in for numba when it is absent), then reports best-of-``--repeat``
wall times per kernel, plus the compiled backend's speedup when numba is
installed.

Usage::

    python benchmarks/bench_kernels.py [--steps 16384] [--levels 401]
                                       [--repeat 5] [--seed 0]
"""

import argparse
import time

import numpy as np

from leveltime._kernels import BACKENDS, HAS_NUMBA


def make_inputs(steps, levels, seed):
    rng = np.random.default_rng(seed)
    inc = rng.normal(0.0, 0.01, steps)
    jumps = rng.random(steps) < 0.002
    inc[jumps] += rng.uniform(-1.0, 1.0, int(jumps.sum()))
    values = np.concatenate([[0.0], np.cumsum(inc)])
    u0 = values.min() - 0.25
    du = (values.max() + 0.25 - u0) / (levels - 1)
    return values, u0, du


def build_cases(values, u0, du, m):
    a = values[:-1]
    b = values[1:]
    inc = np.diff(values)
    eps = 8.0 * du
    return {
        "play_operator": lambda k: k(values, eps),
        "crossing_counts": lambda k: k(values, u0, du, m, eps, False),
        "interval_field_point": lambda k: k(
            a, b, u0, du, m, np.zeros(m)
        ),
        "interval_field_cell": lambda k: k(
            a, b, u0, du, m, np.zeros(m)
        ),
        "signed_increment_sum": lambda k: k(
            a, inc, u0, du, m, np.zeros(m)
        ),
        "occupation_weights": lambda k: k(
            a, inc**2, u0, du, m, eps, np.zeros(m)
        ),
    }


def check_agreement(case, name):
    got_np = case(BACKENDS["numpy"][name])
    got_nb = case(BACKENDS["numba"][name])
    for x, y in zip(np.atleast_1d(got_np), np.atleast_1d(got_nb)):
        if not np.allclose(x, y, rtol=1e-9, atol=1e-9):
            raise AssertionError(f"backends disagree on {name}")


def best_time(fn, repeat):
    # pilot run sizes an inner loop so each sample is long enough to time
    tick = time.perf_counter()
    fn()
    pilot = time.perf_counter() - tick
    inner = max(1, int(0.02 / max(pilot, 1e-9)))
    best = np.inf
    for _ in range(repeat):
        tick = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - tick) / inner)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=16384)
    ap.add_argument("--levels", type=int, default=401)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    checks = build_cases(*make_inputs(2048, 101, args.seed), 101)
    for name, case in checks.items():
        check_agreement(case, name)  # compiles the numba loops, if present
    print(f"backends agree on {len(checks)} kernels (2049 samples x 101 levels)")

    values, u0, du = make_inputs(args.steps, args.levels, args.seed)
    cases = build_cases(values, u0, du, args.levels)
    print(
        f"steps={args.steps} levels={args.levels} seed={args.seed} "
        f"repeat={args.repeat}"
    )
    if not HAS_NUMBA:
        print("numba is not installed; timing the numpy backend only")
        for name, case in cases.items():
            t = best_time(lambda: case(BACKENDS["numpy"][name]), args.repeat)
            print(f"{name:24s} numpy {t * 1e3:9.3f} ms")
        return 0

    print(f"{'kernel':24s} {'numpy':>12s} {'numba':>12s} {'speedup':>9s}")
    for name, case in cases.items():
        t_np = best_time(lambda: case(BACKENDS["numpy"][name]), args.repeat)
        t_nb = best_time(lambda: case(BACKENDS["numba"][name]), args.repeat)
        print(
            f"{name:24s} {t_np * 1e3:9.3f} ms {t_nb * 1e3:9.3f} ms "
            f"{t_np / t_nb:8.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
