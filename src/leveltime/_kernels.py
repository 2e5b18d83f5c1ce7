"""Hot numeric kernels behind a numba and a numpy backend.

The loop variants are compiled with ``numba.njit(cache=True, nogil=True)``
when numba is importable.  The three field kernels (point and cell
interval fields, occupation weights) are each one shared range computation
plus a per-backend accumulator: the shared part finds every bracket's first
and last covered level or cell with :func:`_rank`, then the numba backend
loops over those ranges and the numpy backend sums them through difference
arrays.  The signed increment sum has a loop and a vectorised numpy
reformulation of the same contract.  The play operator and the crossing
counts are each one sequential loop shared by both backends: compiled for
numba, run uncompiled for numpy, so the two agree bit for bit.  Without
numba the ``numba`` entries hold the uncompiled loops.  The active backend
is chosen once at import time: numba when available, unless the
environment variable ``LOCALTIME_NO_NUMBA`` is set to ``1``/``true``/``yes``.
Both backends stay importable through ``BACKENDS`` so the test suite and
``benchmarks/bench_kernels.py`` can compare them on identical inputs.

Level-grid convention used by every kernel: levels sit at ``u0 + k*du`` for
``k = 0..m-1`` and cell ``k`` is the half-open interval
``[u0 + (k-1/2)*du, u0 + (k+1/2)*du)``.  :func:`_rank` is the one rule that
maps values onto that grid, here and in ``paths.LevelGrid``.
"""

import os
from functools import partial

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only when numba is absent
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


def _env_flag(name):
    return os.environ.get(name, "0").strip().lower() in ("1", "true", "yes")


USE_NUMBA = HAS_NUMBA and not _env_flag("LOCALTIME_NO_NUMBA")


# ---------------------------------------------------------------------------
# play operator (double Skorokhod reflection on a band of width eps)
# ---------------------------------------------------------------------------

def _play_operator_loop(values, eps):
    """Run the minimal-motion band recursion.

    Returns ``(reg, dev)`` where ``reg`` moves only when the stored
    deviation ``dev = values - reg`` is clipped at ``+/- eps/2``.  Stalls
    copy the previous regularised value exactly, and moved values are nudged
    by ulps so that the recomputed deviation never exceeds the band.
    """
    half = 0.5 * eps
    n = values.size
    reg = np.empty(n, np.float64)
    dev = np.empty(n, np.float64)
    reg[0] = values[0]
    dev[0] = 0.0
    prev = values[0]
    for i in range(1, n):
        xi = values[i]
        d = xi - prev
        if d > half:
            v = xi - half
            if v <= prev:
                v = np.nextafter(prev, np.inf)
            while xi - v > half:
                v = np.nextafter(v, np.inf)
            reg[i] = v
            dev[i] = half
        elif d < -half:
            v = xi + half
            if v >= prev:
                v = np.nextafter(prev, -np.inf)
            while v - xi > half:
                v = np.nextafter(v, -np.inf)
            reg[i] = v
            dev[i] = -half
        else:
            reg[i] = prev
            dev[i] = d
        prev = reg[i]
    return reg, dev


# The recursion is inherently sequential, so the numpy backend runs the same
# loop uncompiled; both backends are therefore bit-identical.
_play_operator_np = _play_operator_loop
_play_operator_nb = njit(cache=True, nogil=True)(_play_operator_loop)


# ---------------------------------------------------------------------------
# crossing counts over a grid of levels
# ---------------------------------------------------------------------------

def _crossing_clamp_loop(arm, last, a, diff):
    """Run the index-space play operator of one crossing direction.

    The levels armed for a crossing always form a ray ``k >= a``.  Sample
    ``i`` arms every level ``k >= arm[i]`` and completes a crossing at the
    armed levels ``k <= last[i]`` (``last[i] < arm[i]``: a level the sample
    arms does not also fire), so ``a <- min(max(a, last[i] + 1), arm[i])``.
    Each fired range ``[a, last[i]]`` is added to the difference array
    ``diff``.
    """
    for i in range(len(arm)):
        hi = last[i]
        if hi >= a:
            diff[a] += 1
            diff[hi + 1] -= 1
            a = hi + 1
        elif arm[i] < a:
            a = arm[i]
    return diff


def _crossing_clamp_np(arm, last, a, diff):
    # uncompiled, the loop runs two to three times faster over lists than
    # over int64 arrays
    return _crossing_clamp_loop(arm.tolist(), last.tolist(), a, diff)


_crossing_clamp_nb = njit(cache=True, nogil=True)(_crossing_clamp_loop)


def _crossing_counts(clamp, values, u0, du, m, eps, strict):
    """Up/down crossing counts through the index-space play operator.

    Both directions share one difference array: upcrossings at level ``k``
    sit at index ``k``, downcrossings at the mirrored index ``2m - 1 - k``,
    so a downcrossing's armed set is a ray ``k' >= a`` too.
    """
    half = 0.5 * eps
    # du * k rounds exactly like k * du, so these are the band edges
    # (u0 + k*du) -/+ half of every level, bit for bit
    levels = u0 + du * np.arange(m)
    low = levels - half
    high = levels + half
    # up: a sample arms levels with low_k > v (>= v non-strict), fires
    # levels with high_k <= v
    arm = np.searchsorted(low, values, "right" if strict else "left")
    last = np.minimum(np.searchsorted(high, values, "right") - 1, arm - 1)
    diff = np.zeros(2 * m + 1, np.int64)
    clamp(arm, last, m, diff)
    # down, mirrored: a sample arms levels with high_k < v (<= v
    # non-strict), fires levels with low_k >= v
    arm = 2 * m - np.searchsorted(high, values, "left" if strict else "right")
    last = np.minimum(2 * m - 1 - np.searchsorted(low, values, "left"), arm - 1)
    clamp(arm, last, 2 * m, diff)
    counts = np.cumsum(diff[:-1])
    return counts[:m], counts[m:][::-1]


# ---------------------------------------------------------------------------
# level ranks: the one rule that maps values to level and cell indices
# ---------------------------------------------------------------------------

def _rank(x, u0, du, right=False, off=0.0):
    """``np.searchsorted(grid, x, side)`` on the unbounded grid
    ``u0 + (k + off)*du``, ``k = 0, 1, ...``, without building the grid.

    ``off=0`` ranks against the levels, ``off=-0.5`` against the cell edges.
    The search starts one point below an arithmetic guess and steps up past
    each of the next two points that lies below ``x`` (``<`` for the left
    side, ``<=`` for the right), comparing with the grid points as written
    above.  The rank is exact whenever the guess is within one point of it,
    that is whenever ``|x - u0| / du`` is far below ``2**52``.
    """
    below = np.less_equal if right else np.less
    r = np.subtract(x, u0, out=np.empty(np.shape(x)))
    r *= 1.0 / du
    if right:
        r -= off
        np.floor(r, out=r)
    else:
        r -= off + 1.0
        np.ceil(r, out=r)
    g = np.empty_like(r)
    for _ in range(2):
        np.add(r, off, out=g)
        g *= du
        g += u0
        r += below(g, x)
    np.maximum(r, 0.0, out=r)
    return r.astype(np.int64)


# ---------------------------------------------------------------------------
# interval fields of one-sided distances over straddled value brackets
# ---------------------------------------------------------------------------

def _level_ranges(lo, hi, u0, du, m):
    """Levels ``kf..kl`` with ``lo <= u_k < hi``."""
    return _rank(lo, u0, du), np.minimum(_rank(hi, u0, du), m) - 1


def _cell_ranges(lo, hi, u0, du, m):
    """Cells ``kf..kl`` that meet ``[lo, hi)``: the cells holding ``lo``
    and the last point below ``hi``."""
    kf = np.maximum(_rank(lo, u0, du, True, -0.5) - 1, 0)
    return kf, np.minimum(_rank(hi, u0, du, False, -0.5), m) - 1


def _interval_field(ranges, accumulate, a, b, u0, du, m, out):
    """Shared preamble of the point and cell fields.

    Orders each bracket as ``lo <= hi``, takes the covered index range from
    ``ranges`` and hands the brackets of nonzero length with a nonempty
    range to the backend's ``accumulate``.
    """
    if a.size == 0:  # the jump brackets of every path without jumps
        return out
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    kf, kl = ranges(lo, hi, u0, du, m)
    j = np.flatnonzero((kf <= kl) & (a != b))
    b, lo, hi, kf, kl = b[j], lo[j], hi[j], kf[j], kl[j]
    return accumulate(b, lo, hi, kf, kl, u0, du, m, out)


def _point_sums_loop(b, lo, hi, kf, kl, u0, du, m, out):
    """Accumulate ``|b_j - u_k|`` over every level of each range."""
    for j in range(b.size):
        bj = b[j]
        for k in range(kf[j], kl[j] + 1):
            d = bj - (u0 + k * du)
            out[k] += d if d >= 0.0 else -d
    return out


def _point_sums_np(b, lo, hi, kf, kl, u0, du, m, out):
    """The same sums through two difference arrays: over a range the
    distance is ``s_j * (b_j - u_k)`` with one sign ``s_j`` per bracket."""
    s = np.where(b > lo, 1.0, -1.0)
    sb = s * b
    d_const = np.zeros(m + 1)
    d_slope = np.zeros(m + 1)
    np.add.at(d_const, kf, sb)
    np.subtract.at(d_const[1:], kl, sb)
    np.add.at(d_slope, kf, s)
    np.subtract.at(d_slope[1:], kl, s)
    levels = u0 + du * np.arange(m)
    out += np.cumsum(d_const)[:m] - np.cumsum(d_slope)[:m] * levels
    return out


_point_sums_nb = njit(cache=True, nogil=True)(_point_sums_loop)


def _cell_sums_loop(b, lo, hi, kf, kl, u0, du, m, out):
    """Exact cell averages: the clipped end cells take the field's integral
    over ``[alpha, beta]`` divided by ``du``, interior cells the level value."""
    inv = 1.0 / du
    for j in range(b.size):
        bj = b[j]
        f = kf[j]
        last = kl[j]
        alpha = max(lo[j], u0 + (f - 0.5) * du)
        if f == last:
            beta = min(hi[j], u0 + (f + 0.5) * du)
            d = bj - 0.5 * (alpha + beta)
            out[f] += (beta - alpha) * (d if d >= 0.0 else -d) * inv
            continue
        beta = u0 + (f + 0.5) * du
        d = bj - 0.5 * (alpha + beta)
        out[f] += (beta - alpha) * (d if d >= 0.0 else -d) * inv
        for k in range(f + 1, last):
            d = bj - (u0 + k * du)
            out[k] += d if d >= 0.0 else -d
        alpha = u0 + (last - 0.5) * du
        beta = min(hi[j], u0 + (last + 0.5) * du)
        d = bj - 0.5 * (alpha + beta)
        out[last] += (beta - alpha) * (d if d >= 0.0 else -d) * inv
    return out


def _cell_sums_np(b, lo, hi, kf, kl, u0, du, m, out):
    # end cells: the one cell of each short bracket, then the first and the
    # last cell of each longer one
    multi = np.flatnonzero(kf < kl)
    j = np.concatenate([np.flatnonzero(kf == kl), multi, multi])
    k = np.concatenate([kf[j[: j.size - multi.size]], kl[multi]])
    # (beta - alpha) * |b - (alpha + beta) / 2| / du with [alpha, beta) the
    # bracket clipped to the cell, in place: fewer full-size temporaries
    # mean fewer page faults when the allocator returns freed memory
    alpha = k - 0.5
    alpha *= du
    alpha += u0
    np.maximum(alpha, lo[j], out=alpha)
    beta = k + 0.5
    beta *= du
    beta += u0
    np.minimum(beta, hi[j], out=beta)
    mid = alpha + beta
    mid *= 0.5
    np.subtract(b[j], mid, out=mid)
    np.abs(mid, out=mid)
    beta -= alpha
    beta *= mid
    beta *= 1.0 / du
    out += np.bincount(k, beta, m)
    # interior cells take the point field at their level
    i = np.flatnonzero(kl - kf >= 2)
    return _point_sums_np(
        b[i], lo[i], hi[i], kf[i] + 1, kl[i] - 1, u0, du, m, out
    )


_cell_sums_nb = njit(cache=True, nogil=True)(_cell_sums_loop)


# ---------------------------------------------------------------------------
# signed increment sums (left-continuous sign, sign(0) = -1)
# ---------------------------------------------------------------------------

def _signed_increment_sum_loop(left, inc, u0, du, m, out):
    for k in range(m):
        u = u0 + k * du
        s = 0.0
        for j in range(left.size):
            if left[j] > u:
                s += inc[j]
            else:
                s -= inc[j]
        out[k] = s
    return out


def _signed_increment_sum_np(left, inc, u0, du, m, out):
    if left.size == 0:
        return out
    order = np.argsort(left, kind="stable")
    xs = left[order]
    cs = np.cumsum(inc[order])
    total = cs[-1]
    levels = u0 + du * np.arange(m)
    cnt = np.searchsorted(xs, levels, side="right")
    prefix = np.where(cnt > 0, cs[np.maximum(cnt - 1, 0)], 0.0)
    out += total - 2.0 * prefix
    return out


_signed_increment_sum_nb = njit(cache=True, nogil=True)(_signed_increment_sum_loop)


# ---------------------------------------------------------------------------
# occupation weights: band-indicator accumulation of squared increments
# ---------------------------------------------------------------------------

def _occupation_weights(accumulate, left, w, u0, du, m, eps, out):
    """Shared preamble: levels ``kf..kl`` with ``|left_j - u_k| <= eps``,
    handed to the backend's ``accumulate`` when nonempty."""
    if left.size == 0:
        return out
    kf = _rank(left - eps, u0, du)
    kl = np.minimum(_rank(left + eps, u0, du, True), m) - 1
    j = np.flatnonzero(kf <= kl)
    w, kf, kl = w[j], kf[j], kl[j]
    return accumulate(w, kf, kl, m, out)


def _band_sums_loop(w, kf, kl, m, out):
    for j in range(w.size):
        for k in range(kf[j], kl[j] + 1):
            out[k] += w[j]
    return out


def _band_sums_np(w, kf, kl, m, out):
    diff = np.zeros(m + 1)
    np.add.at(diff, kf, w)
    np.subtract.at(diff[1:], kl, w)
    out += np.cumsum(diff)[:m]
    return out


_band_sums_nb = njit(cache=True, nogil=True)(_band_sums_loop)


# ---------------------------------------------------------------------------
# backend dispatch
# ---------------------------------------------------------------------------

BACKENDS = {
    "numpy": {
        "play_operator": _play_operator_np,
        "crossing_counts": partial(_crossing_counts, _crossing_clamp_np),
        "interval_field_point": partial(_interval_field, _level_ranges, _point_sums_np),
        "interval_field_cell": partial(_interval_field, _cell_ranges, _cell_sums_np),
        "signed_increment_sum": _signed_increment_sum_np,
        "occupation_weights": partial(_occupation_weights, _band_sums_np),
    },
    "numba": {
        "play_operator": _play_operator_nb,
        "crossing_counts": partial(_crossing_counts, _crossing_clamp_nb),
        "interval_field_point": partial(_interval_field, _level_ranges, _point_sums_nb),
        "interval_field_cell": partial(_interval_field, _cell_ranges, _cell_sums_nb),
        "signed_increment_sum": _signed_increment_sum_nb,
        "occupation_weights": partial(_occupation_weights, _band_sums_nb),
    },
}

ACTIVE_BACKEND = "numba" if USE_NUMBA else "numpy"
_active = BACKENDS[ACTIVE_BACKEND]


def play_operator(values, eps):
    """Band regularisation of a sample sequence; returns ``(reg, dev)``."""
    values = np.ascontiguousarray(values, np.float64)
    return _active["play_operator"](values, float(eps))


def crossing_counts(values, u0, du, m, eps, strict=False):
    """Completed up/down crossings of the band ``[z - eps/2, z + eps/2]``
    for every level ``z = u0 + k*du``; returns ``(up, down)``."""
    values = np.ascontiguousarray(values, np.float64)
    return _active["crossing_counts"](
        values, float(u0), float(du), int(m), float(eps), bool(strict)
    )


def interval_field_point(a, b, u0, du, m):
    """Pointwise field ``sum_j |b_j - u_k| * 1[min_j <= u_k < max_j]``."""
    a = np.ascontiguousarray(a, np.float64)
    b = np.ascontiguousarray(b, np.float64)
    out = np.zeros(int(m), np.float64)
    return _active["interval_field_point"](a, b, float(u0), float(du), int(m), out)


def interval_field_cell(a, b, u0, du, m):
    """Cell-averaged variant of :func:`interval_field_point`.

    Each cell receives the exact integral of the piecewise-linear field over
    the cell divided by ``du``, so ``du * out.sum()`` equals
    ``sum_j (b_j - a_j)**2 / 2`` up to float rounding.
    """
    a = np.ascontiguousarray(a, np.float64)
    b = np.ascontiguousarray(b, np.float64)
    out = np.zeros(int(m), np.float64)
    return _active["interval_field_cell"](a, b, float(u0), float(du), int(m), out)


def signed_increment_sum(left, inc, u0, du, m):
    """``sum_j sign(left_j - u_k) * inc_j`` with ``sign(0) = -1``."""
    left = np.ascontiguousarray(left, np.float64)
    inc = np.ascontiguousarray(inc, np.float64)
    out = np.zeros(int(m), np.float64)
    return _active["signed_increment_sum"](left, inc, float(u0), float(du), int(m), out)


def occupation_weights(left, w, u0, du, m, eps):
    """``sum_j w_j * 1[|left_j - u_k| <= eps]`` over the level grid."""
    left = np.ascontiguousarray(left, np.float64)
    w = np.ascontiguousarray(w, np.float64)
    out = np.zeros(int(m), np.float64)
    return _active["occupation_weights"](
        left, w, float(u0), float(du), int(m), float(eps), out
    )


def warmup():
    """Trigger jit compilation of every kernel on tiny inputs."""
    x = np.array([0.0, 1.0, -0.5, 0.25])
    play_operator(x, 0.5)
    crossing_counts(x, -1.0, 0.5, 5, 0.5, False)
    crossing_counts(x, -1.0, 0.5, 5, 0.5, True)
    interval_field_point(x[:-1], x[1:], -1.0, 0.5, 5)
    interval_field_cell(x[:-1], x[1:], -1.0, 0.5, 5)
    signed_increment_sum(x[:-1], np.diff(x), -1.0, 0.5, 5)
    occupation_weights(x[:-1], np.diff(x) ** 2, -1.0, 0.5, 5, 0.5)
