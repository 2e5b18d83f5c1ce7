"""Check and time the six kernels as they are bound on this machine.

Each kernel is bound at import to one implementation: with numba, the
compiled loop (the signed increment sum has one form, a sorted prefix sum);
without numba, the array form where it beats the uncompiled loop.  This
script first checks every kernel's bound implementation against its
uncompiled loop (the play operator bit for bit, the crossing counts exactly
under both arm rules, strict and non-strict, the others within 1e-9; the
signed increment sum against a dense numpy oracle, and bit for bit against
its prefix sum in stable-sort order) on two small inputs of 2,049 samples by
101 levels, small enough for the uncompiled loops: a seeded path, and values
snapped to levels and cell edges with a band of one grid step, so that a
variant split on ties fails the script.  On a third input, a walk of a
few ulps around zero (signed zeros and subnormals, with a band a few ulps
wide), it checks the play operator's bound implementation and its form
without numba bit for bit against the loop, and the moved values' integer
ulp steps against an ``np.nextafter`` loop, so that both are checked on
every machine.  It also checks the
clamp scan that the play operator and the crossing counts run without numba
against the sequential clamp recursion, on float64 and int64 maps.  It then
prints which implementation each kernel is bound to and reports
best-of-``--repeat`` wall times of the bound kernels and of the clamp scan
on the play operator's maps.  With numba it also times the implementation
each kernel binds without numba, and the compiled loop's speedup over it.

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


def stable_signed_sum(left, inc, u0, du, m):
    """The signed increment sum as a prefix sum in stable-sort order, the
    bits the kernel must give whatever sort it runs."""
    order = np.argsort(left, kind="stable")
    cs = np.cumsum(inc[order])
    cnt = np.searchsorted(left[order], u0 + du * np.arange(m), side="right")
    out = np.zeros(m)
    out += cs[-1] - 2.0 * np.where(cnt > 0, cs[np.maximum(cnt - 1, 0)], 0.0)
    return out


# per kernel: the implementation it is bound to, its uncompiled loop (an
# oracle for the signed increment sum), and the implementation it binds
# without numba
VARIANTS = {
    "play_operator": (
        _kernels._play_operator,
        _kernels._play_operator_loop,
        _kernels._play_operator_np,
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


def sequential_clamps(p0, lo, hi):
    """Oracle for the clamp scan: ``p = min(max(p, lo_i), hi_i)``, one map
    at a time."""
    out = [p0]
    for low, high in zip(lo.tolist(), hi.tolist()):
        out.append(min(max(out[-1], low), high))
    return np.array(out, lo.dtype)


def clamp_maps(values, eps):
    """The play operator's clamp maps ``[x_i - eps/2, x_i + eps/2]``."""
    x = values[1:]
    return values[0], x - 0.5 * eps, x + 0.5 * eps


def check_clamp_scan(values, du, levels):
    """The clamp scan against the recursion: on the play operator's float64
    maps, and on int64 level-index maps of the crossing counts' form."""
    rng = np.random.default_rng(values.size)
    arm = rng.integers(0, levels, values.size)
    first = np.minimum(arm, rng.integers(0, levels, values.size))
    for p0, lo, hi in (clamp_maps(values, 8 * du), (levels, first, arm)):
        if not np.array_equal(
            _kernels._clamp_scan(p0, lo, hi), sequential_clamps(p0, lo, hi)
        ):
            raise AssertionError(f"clamp_scan: not the recursion ({lo.dtype})")


def ulp_inputs(steps, seed):
    """A walk of a few ulps around zero: subnormals and both signed zeros."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.integers(-2, 3, steps + 1)) * 5e-324
    values[(values == 0) & (rng.random(values.size) < 0.5)] = -0.0
    return values


def nextafter_steps(x, v, half, toward):
    """Oracle for the moved values' ulp steps: ``np.nextafter`` until
    ``v`` is within ``half`` of ``x``, one value at a time."""
    out = v.copy()
    for i in range(x.size):
        while (x[i] - out[i] if toward > 0 else out[i] - x[i]) > half:
            out[i] = np.nextafter(out[i], toward)
    return out


def check_ulp_steps(values, eps, seed):
    """The play operator bit for bit against its loop, and its ulp steps
    against ``np.nextafter``, from moved values up to three ulps outside
    the band, which puts some on a zero that must step across the other."""
    bound, loop, array_form = VARIANTS["play_operator"]
    want = loop(values, eps)
    for impl in (bound, array_form):
        for x, y in zip(impl(values, eps), want):
            if not np.array_equal(x.view(np.int64), y.view(np.int64)):
                raise AssertionError("play_operator: not the loop on ulp walks")
    rng = np.random.default_rng(seed)
    half = 0.5 * eps
    for toward, start in ((np.inf, values - half), (-np.inf, values + half)):
        for i in np.flatnonzero(rng.random(values.size) < 0.5):
            for _ in range(rng.integers(1, 4)):
                start[i] = np.nextafter(start[i], -toward)
        want = nextafter_steps(values, start, half, toward)
        got = _kernels._step_inside(values, start.copy(), half, toward)
        if not np.array_equal(got.view(np.int64), want.view(np.int64)):
            raise AssertionError("_step_inside: not the np.nextafter steps")


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


def build_cases(values, u0, du, m, eps, strict=False):
    """Per kernel, a call taking one of its implementations: the play
    operator, a crossing clamp (under the ``strict`` arm rule or not), a
    field accumulator or a signed sum."""
    a = values[:-1]
    b = values[1:]
    inc = np.diff(values)
    return {
        "play_operator": lambda impl: impl(values, eps),
        "crossing_counts": lambda impl: _kernels._crossing_counts(
            impl, values, u0, du, m, eps, strict
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
    """The bound kernel against its loop: the play operator bit for bit,
    the crossing counts exactly, the others within 1e-9."""
    bound, loop, _ = VARIANTS[name]
    for x, y in zip(np.atleast_1d(case(bound)), np.atleast_1d(case(loop))):
        if name == "play_operator":
            agree = np.array_equal(x.view(np.int64), y.view(np.int64))
        elif name == "crossing_counts":
            agree = x.dtype == y.dtype and np.array_equal(x, y)
        else:
            agree = np.allclose(x, y, rtol=1e-9, atol=1e-9)
        if not agree:
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
        strict = build_cases(values, u0, du, 101, band * du, strict=True)
        check_agreement(strict["crossing_counts"], "crossing_counts")
        check_clamp_scan(values, du, 101)
        signed = checks["signed_increment_sum"]
        if not np.array_equal(
            signed(_kernels.signed_increment_sum).view(np.int64),
            signed(stable_signed_sum).view(np.int64),
        ):
            raise AssertionError(
                "signed_increment_sum: not the stable-sort prefix sum bit for bit"
            )
        print(
            f"bound kernels agree with their loops on {len(checks)} kernels "
            f"({label}, 2049 samples x 101 levels, eps = {band} du; "
            "crossing counts strict and non-strict), and the clamp scan "
            "with the clamp recursion (float64 and int64)"
        )

    check_ulp_steps(ulp_inputs(2048, args.seed), 4 * 5e-324, args.seed)
    print(
        "the play operator agrees with its loop bit for bit, and its ulp "
        "steps with np.nextafter (ulp walk, 2049 samples, eps = 4 ulps of 0)"
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
    maps = clamp_maps(values, 8.0 * du)
    t_scan = best_time(lambda: _kernels._clamp_scan(*maps), args.repeat)
    if not _kernels.HAS_NUMBA:
        for name, case in cases.items():
            t = best_time(lambda: case(VARIANTS[name][0]), args.repeat)
            print(f"{name:24s} {t * 1e3:9.3f} ms")
        print(f"{'clamp_scan':24s} {t_scan * 1e3:9.3f} ms")
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
    print(f"{'clamp_scan':24s} {'':>12s} {t_scan * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
