"""Hot numeric kernels behind a numba and a numpy backend.

The loop variants are compiled with ``numba.njit(cache=True, nogil=True)``
when numba is importable.  The four field kernels also have a vectorised
numpy reformulation of the same contract.  The play operator and the
crossing counts are each one sequential loop shared by both backends:
compiled for numba, run uncompiled for numpy, so the two agree bit for bit.
Without numba the ``numba`` entries hold the uncompiled loops.  The active
backend is chosen once at import time: numba when available, unless the
environment variable ``LOCALTIME_NO_NUMBA`` is set to ``1``/``true``/``yes``.
Both backends stay importable through ``BACKENDS`` so the test suite and
``benchmarks/bench_kernels.py`` can compare them on identical inputs.

Level-grid convention used by every kernel: levels sit at ``u0 + k*du`` for
``k = 0..m-1`` and cell ``k`` is the half-open interval
``[u0 + (k-1/2)*du, u0 + (k+1/2)*du)``.
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
# pointwise field of one-sided distances over straddled value brackets
# ---------------------------------------------------------------------------

def _interval_field_point_loop(a, b, u0, du, m, out):
    """Accumulate ``|b_j - u_k|`` for every level inside ``[min, max)``."""
    for j in range(a.size):
        aj = a[j]
        bj = b[j]
        if aj == bj:
            continue
        if aj < bj:
            lo = aj
            hi = bj
        else:
            lo = bj
            hi = aj
        kf = int(np.ceil((lo - u0) / du))
        while u0 + kf * du < lo:
            kf += 1
        while kf > 0 and u0 + (kf - 1) * du >= lo:
            kf -= 1
        kl = int(np.ceil((hi - u0) / du)) - 1
        while u0 + kl * du >= hi:
            kl -= 1
        while u0 + (kl + 1) * du < hi:
            kl += 1
        if kf < 0:
            kf = 0
        if kl > m - 1:
            kl = m - 1
        for k in range(kf, kl + 1):
            d = bj - (u0 + k * du)
            out[k] += d if d >= 0.0 else -d
    return out


def _bracket_bounds_np(lo, hi, u0, du, m):
    """Vectorised index ranges of levels with ``lo <= u_k < hi``."""
    kf = np.ceil((lo - u0) / du).astype(np.int64)
    bump = u0 + kf * du < lo
    kf[bump] += 1
    drop = (kf > 0) & (u0 + (kf - 1) * du >= lo)
    kf[drop] -= 1
    kl = np.ceil((hi - u0) / du).astype(np.int64) - 1
    drop = u0 + kl * du >= hi
    kl[drop] -= 1
    bump = u0 + (kl + 1) * du < hi
    kl[bump] += 1
    np.clip(kf, 0, None, out=kf)
    np.clip(kl, None, m - 1, out=kl)
    return kf, kl


def _interval_field_point_np(a, b, u0, du, m, out):
    keep = a != b
    a = a[keep]
    b = b[keep]
    if a.size == 0:
        return out
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    kf, kl = _bracket_bounds_np(lo, hi, u0, du, m)
    inside = kf <= kl
    kf = kf[inside]
    kl = kl[inside]
    s = np.where(b > a, 1.0, -1.0)[inside]
    sb = s * b[inside]
    d_const = np.zeros(m + 1)
    d_slope = np.zeros(m + 1)
    np.add.at(d_const, kf, sb)
    np.add.at(d_const, kl + 1, -sb)
    np.add.at(d_slope, kf, s)
    np.add.at(d_slope, kl + 1, -s)
    levels = u0 + du * np.arange(m)
    out += np.cumsum(d_const)[:m] - np.cumsum(d_slope)[:m] * levels
    return out


_interval_field_point_nb = njit(cache=True, nogil=True)(_interval_field_point_loop)


# ---------------------------------------------------------------------------
# cell-averaged field (exact per-cell integrals, preserves total mass)
# ---------------------------------------------------------------------------

def _interval_field_cell_loop(a, b, u0, du, m, out):
    inv = 1.0 / du
    for j in range(a.size):
        aj = a[j]
        bj = b[j]
        if aj == bj:
            continue
        if aj < bj:
            lo = aj
            hi = bj
        else:
            lo = bj
            hi = aj
        kf = int(np.floor((lo - u0) * inv + 0.5))
        while u0 + (kf + 0.5) * du <= lo:
            kf += 1
        while u0 + (kf - 0.5) * du > lo:
            kf -= 1
        kl = int(np.floor((hi - u0) * inv + 0.5))
        while u0 + (kl - 0.5) * du >= hi:
            kl -= 1
        while u0 + (kl + 0.5) * du < hi:
            kl += 1
        if kf < 0:
            kf = 0
        if kl > m - 1:
            kl = m - 1
        if kf > kl:
            continue
        if kf == kl:
            alpha = max(lo, u0 + (kf - 0.5) * du)
            beta = min(hi, u0 + (kf + 0.5) * du)
            d = bj - 0.5 * (alpha + beta)
            out[kf] += (beta - alpha) * (d if d >= 0.0 else -d) * inv
        else:
            alpha = max(lo, u0 + (kf - 0.5) * du)
            beta = u0 + (kf + 0.5) * du
            d = bj - 0.5 * (alpha + beta)
            out[kf] += (beta - alpha) * (d if d >= 0.0 else -d) * inv
            for k in range(kf + 1, kl):
                d = bj - (u0 + k * du)
                out[k] += d if d >= 0.0 else -d
            alpha = u0 + (kl - 0.5) * du
            beta = min(hi, u0 + (kl + 0.5) * du)
            d = bj - 0.5 * (alpha + beta)
            out[kl] += (beta - alpha) * (d if d >= 0.0 else -d) * inv
    return out


def _cell_bounds_np(lo, hi, u0, du, m):
    inv = 1.0 / du
    kf = np.floor((lo - u0) * inv + 0.5).astype(np.int64)
    bump = u0 + (kf + 0.5) * du <= lo
    kf[bump] += 1
    drop = u0 + (kf - 0.5) * du > lo
    kf[drop] -= 1
    kl = np.floor((hi - u0) * inv + 0.5).astype(np.int64)
    drop = u0 + (kl - 0.5) * du >= hi
    kl[drop] -= 1
    bump = u0 + (kl + 0.5) * du < hi
    kl[bump] += 1
    return kf, kl


def _interval_field_cell_np(a, b, u0, du, m, out):
    keep = a != b
    a = a[keep]
    b = b[keep]
    if a.size == 0:
        return out
    inv = 1.0 / du
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    kf, kl = _cell_bounds_np(lo, hi, u0, du, m)
    np.clip(kf, 0, None, out=kf)
    np.clip(kl, None, m - 1, out=kl)
    inside = kf <= kl
    a = a[inside]
    b = b[inside]
    lo = lo[inside]
    hi = hi[inside]
    kf = kf[inside]
    kl = kl[inside]

    single = kf == kl
    if np.any(single):
        alpha = np.maximum(lo[single], u0 + (kf[single] - 0.5) * du)
        beta = np.minimum(hi[single], u0 + (kf[single] + 0.5) * du)
        piece = (beta - alpha) * np.abs(b[single] - 0.5 * (alpha + beta)) * inv
        np.add.at(out, kf[single], piece)
    multi = ~single
    if np.any(multi):
        bm = b[multi]
        lom = lo[multi]
        him = hi[multi]
        kfm = kf[multi]
        klm = kl[multi]
        alpha = np.maximum(lom, u0 + (kfm - 0.5) * du)
        beta = u0 + (kfm + 0.5) * du
        np.add.at(out, kfm, (beta - alpha) * np.abs(bm - 0.5 * (alpha + beta)) * inv)
        alpha = u0 + (klm - 0.5) * du
        beta = np.minimum(him, u0 + (klm + 0.5) * du)
        np.add.at(out, klm, (beta - alpha) * np.abs(bm - 0.5 * (alpha + beta)) * inv)
        has_interior = klm - kfm >= 2
        if np.any(has_interior):
            s = np.where(bm > lom, 1.0, -1.0)[has_interior]
            sb = s * bm[has_interior]
            first = kfm[has_interior] + 1
            last = klm[has_interior] - 1
            d_const = np.zeros(m + 1)
            d_slope = np.zeros(m + 1)
            np.add.at(d_const, first, sb)
            np.add.at(d_const, last + 1, -sb)
            np.add.at(d_slope, first, s)
            np.add.at(d_slope, last + 1, -s)
            levels = u0 + du * np.arange(m)
            out += np.cumsum(d_const)[:m] - np.cumsum(d_slope)[:m] * levels
    return out


_interval_field_cell_nb = njit(cache=True, nogil=True)(_interval_field_cell_loop)


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

def _occupation_weights_loop(left, w, u0, du, m, eps, out):
    for j in range(left.size):
        x = left[j]
        kf = int(np.ceil((x - eps - u0) / du))
        while u0 + kf * du < x - eps:
            kf += 1
        while kf > 0 and u0 + (kf - 1) * du >= x - eps:
            kf -= 1
        kl = int(np.floor((x + eps - u0) / du))
        while u0 + kl * du > x + eps:
            kl -= 1
        while u0 + (kl + 1) * du <= x + eps:
            kl += 1
        if kf < 0:
            kf = 0
        if kl > m - 1:
            kl = m - 1
        for k in range(kf, kl + 1):
            out[k] += w[j]
    return out


def _occupation_weights_np(left, w, u0, du, m, eps, out):
    if left.size == 0:
        return out
    kf = np.ceil((left - eps - u0) / du).astype(np.int64)
    bump = u0 + kf * du < left - eps
    kf[bump] += 1
    drop = (kf > 0) & (u0 + (kf - 1) * du >= left - eps)
    kf[drop] -= 1
    kl = np.floor((left + eps - u0) / du).astype(np.int64)
    drop = u0 + kl * du > left + eps
    kl[drop] -= 1
    bump = u0 + (kl + 1) * du <= left + eps
    kl[bump] += 1
    np.clip(kf, 0, None, out=kf)
    np.clip(kl, None, m - 1, out=kl)
    inside = kf <= kl
    diff = np.zeros(m + 1)
    np.add.at(diff, kf[inside], w[inside])
    np.add.at(diff, kl[inside] + 1, -w[inside])
    out += np.cumsum(diff)[:m]
    return out


_occupation_weights_nb = njit(cache=True, nogil=True)(_occupation_weights_loop)


# ---------------------------------------------------------------------------
# backend dispatch
# ---------------------------------------------------------------------------

BACKENDS = {
    "numpy": {
        "play_operator": _play_operator_np,
        "crossing_counts": partial(_crossing_counts, _crossing_clamp_np),
        "interval_field_point": _interval_field_point_np,
        "interval_field_cell": _interval_field_cell_np,
        "signed_increment_sum": _signed_increment_sum_np,
        "occupation_weights": _occupation_weights_np,
    },
    "numba": {
        "play_operator": _play_operator_nb,
        "crossing_counts": partial(_crossing_counts, _crossing_clamp_nb),
        "interval_field_point": _interval_field_point_nb,
        "interval_field_cell": _interval_field_cell_nb,
        "signed_increment_sum": _signed_increment_sum_nb,
        "occupation_weights": _occupation_weights_nb,
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
