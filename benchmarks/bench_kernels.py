"""Check and time the six kernels as they are bound on this machine.

Each kernel is bound at import to one implementation: with numba, the
compiled loop (the signed increment sum has one form, a sorted prefix sum);
without numba, the array form where it beats the uncompiled loop.  This
script first checks every kernel's bound implementation against its
uncompiled loop (the signed increment sum against a dense numpy oracle) on
two small inputs of 2,049 samples by 101 levels, small enough for the
uncompiled loops: a seeded path, and values snapped to levels and cell
edges with a band of one grid step, so that a variant split on ties fails
the script.  It then prints which implementation each kernel is bound to
and reports best-of-``--repeat`` wall times of the bound kernels.  With
numba it also times the implementation each kernel binds without numba,
and the compiled loop's speedup over it.

Usage::

    python benchmarks/bench_kernels.py [--steps 16384] [--levels 401]
                                       [--repeat 5] [--seed 0]
"""

import argparse
import time

import numpy as np

from leveltime import _kernels


def dense_signed_sum(left, inc, u0, du, m):
    """Oracle for the signed increment sum, which has no loop variant."""
    levels = u0 + du * np.arange(m)
    return np.where(left[None, :] > levels[:, None], inc, -inc).sum(axis=1)


# per kernel: the implementation it is bound to, its uncompiled loop (an
# oracle for the signed increment sum), and the implementation it binds
# without numba
VARIANTS = {
    "play_operator": (
        _kernels._play_operator,
        _kernels._play_operator_loop,
        _kernels._play_operator_loop,
    ),
    "crossing_counts": (
        _kernels._crossing_clamp,
        _kernels._crossing_clamp_loop,
        _kernels._crossing_clamp_np,
    ),
    "interval_field_point": (
        _kernels._point_sums,
        _kernels._point_sums_loop,
        _kernels._point_sums_np,
    ),
    "interval_field_cell": (
        _kernels._cell_sums,
        _kernels._cell_sums_loop,
        _kernels._cell_sums_np,
    ),
    "signed_increment_sum": (
        _kernels.signed_increment_sum,
        dense_signed_sum,
        _kernels.signed_increment_sum,
    ),
    "occupation_weights": (
        _kernels._band_sums,
        _kernels._band_sums_loop,
        _kernels._band_sums_np,
    ),
}


def make_inputs(steps, levels, seed):
    rng = np.random.default_rng(seed)
    inc = rng.normal(0.0, 0.01, steps)
    jumps = rng.random(steps) < 0.002
    inc[jumps] += rng.uniform(-1.0, 1.0, int(jumps.sum()))
    values = np.concatenate([[0.0], np.cumsum(inc)])
    u0 = values.min() - 0.25
    du = (values.max() + 0.25 - u0) / (levels - 1)
    return values, u0, du


def snapped_inputs(steps, levels, seed):
    """Values on levels and on cell edges ``u_k +- du/2``, some beyond the
    grid's ends."""
    rng = np.random.default_rng(seed)
    u0, du = -1.0, 0.02
    k = rng.integers(-2, levels + 2, steps + 1)
    values = (u0 + k * du) + rng.choice([-0.5, 0.0, 0.5], k.size) * du
    return values, u0, du


def build_cases(values, u0, du, m, eps):
    """Per kernel, a call taking one of its implementations: the play
    operator, a crossing clamp, a field accumulator or a signed sum."""
    a = values[:-1]
    b = values[1:]
    inc = np.diff(values)
    return {
        "play_operator": lambda impl: impl(values, eps),
        "crossing_counts": lambda impl: _kernels._crossing_counts(
            impl, values, u0, du, m, eps, False
        ),
        "interval_field_point": lambda impl: _kernels._interval_field(
            _kernels._level_ranges, impl, a, b, u0, du, m, np.zeros(m)
        ),
        "interval_field_cell": lambda impl: _kernels._interval_field(
            _kernels._cell_ranges, impl, a, b, u0, du, m, np.zeros(m)
        ),
        "signed_increment_sum": lambda impl: impl(a, inc, u0, du, m),
        "occupation_weights": lambda impl: _kernels._occupation_weights(
            impl, a, inc**2, u0, du, m, eps, np.zeros(m)
        ),
    }


def check_agreement(case, name):
    bound, loop, _ = VARIANTS[name]
    for x, y in zip(np.atleast_1d(case(bound)), np.atleast_1d(case(loop))):
        if not np.allclose(x, y, rtol=1e-9, atol=1e-9):
            raise AssertionError(f"{name}: the bound kernel disagrees with its loop")


def describe(impl):
    if impl is _kernels.signed_increment_sum:
        return "sorted prefix sum (its one form)"
    py_func = getattr(impl, "py_func", None)
    return f"{py_func.__name__} (compiled)" if py_func else impl.__name__


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

    for label, make, band in (("path", make_inputs, 8), ("snapped", snapped_inputs, 1)):
        values, u0, du = make(2048, 101, args.seed)
        checks = build_cases(values, u0, du, 101, band * du)
        for name, case in checks.items():
            check_agreement(case, name)  # compiles the numba loops, if present
        print(
            f"bound kernels agree with their loops on {len(checks)} kernels "
            f"({label}, 2049 samples x 101 levels, eps = {band} du)"
        )

    print(f"backend {_kernels.ACTIVE_BACKEND}, HAS_NUMBA {_kernels.HAS_NUMBA}")
    for name, (bound, _, _) in VARIANTS.items():
        print(f"{name:24s} bound to {describe(bound)}")

    values, u0, du = make_inputs(args.steps, args.levels, args.seed)
    cases = build_cases(values, u0, du, args.levels, 8.0 * du)
    print(
        f"steps={args.steps} levels={args.levels} seed={args.seed} "
        f"repeat={args.repeat}"
    )
    if not _kernels.HAS_NUMBA:
        for name, case in cases.items():
            t = best_time(lambda: case(VARIANTS[name][0]), args.repeat)
            print(f"{name:24s} {t * 1e3:9.3f} ms")
        return 0

    print(f"{'kernel':24s} {'bound':>12s} {'no numba':>12s} {'speedup':>9s}")
    for name, case in cases.items():
        bound, _, fallback = VARIANTS[name]
        t_bound = best_time(lambda: case(bound), args.repeat)
        t_fallback = best_time(lambda: case(fallback), args.repeat)
        print(
            f"{name:24s} {t_bound * 1e3:9.3f} ms {t_fallback * 1e3:9.3f} ms "
            f"{t_fallback / t_bound:8.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
