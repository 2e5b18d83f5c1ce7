"""Hot numeric kernels, each bound to one implementation at import.

Where numba is importable (``HAS_NUMBA``) the sequential loops are compiled
with ``numba.njit(cache=True, nogil=True)`` and every kernel but the signed
increment sum runs its loop.
Without numba a kernel runs its loop uncompiled only where no array form
beats it:

- the play operator runs its loop compiled or, without numba, a scan of
  clamp maps that is checked step by step against the loop's own test and
  falls back to the loop where a step differs (:func:`_play_operator_np`);
- the crossing counts run one clamp loop, compiled over int64 arrays or,
  uncompiled, over lists;
- the three field kernels (point and cell interval fields, occupation
  weights) are each one shared range computation, which finds every
  bracket's first and last covered level or cell with :func:`_rank`, plus
  an accumulator over those ranges: the compiled loop, or difference arrays
  without numba;
- the signed increment sum has one form on every machine, a sorted prefix
  sum.

The module-level ``if HAS_NUMBA:`` block below makes that choice once;
``ACTIVE_BACKEND`` names it.  The loop variants stay importable under their
private ``*_loop`` names so the test suite and
``benchmarks/bench_kernels.py`` can check them against the array variants
on every machine.

Level-grid convention used by every kernel: levels sit at ``u0 + k*du`` for
``k = 0..m-1`` and cell ``k`` is the half-open interval
``[u0 + (k-1/2)*du, u0 + (k+1/2)*du)``.  :func:`_rank` is the one rule that
maps values onto that grid, here and in ``paths.LevelGrid``.
"""

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only when numba is absent
    HAS_NUMBA = False

ACTIVE_BACKEND = "numba" if HAS_NUMBA else "numpy"


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


def _step_inside(x, v, half, toward):
    """Step each ``v`` by ulps ``toward`` (``+inf`` or ``-inf``) while it
    is more than ``half`` beyond ``x``, as the loop's ``while`` does, in
    place; ``-(x - v)`` rounds exactly as ``v - x``."""
    sign = 1.0 if toward > 0 else -1.0
    out = np.flatnonzero(sign * (x - v) > half)
    while out.size:
        v[out] = np.nextafter(v[out], toward)
        out = out[sign * (x[out] - v[out]) > half]
    return v


def _play_operator_np(values, eps):
    """The loop's ``(reg, dev)`` from a scan of clamp maps, checked step by
    step against the loop's own test, else from the loop itself.

    Sample ``i`` acts on the previous value as the clamp
    ``p -> min(max(p, up_i), down_i)``, where ``up_i`` (``down_i``) is the
    loop's moved value: the first float at or above ``x_i - half`` (at or
    below ``x_i + half``) within ``half`` of ``x_i``.  The loop's
    ``v <= prev`` nudge never changes it, since every float at or below a
    failing ``prev`` fails too.  Clamps compose into clamps through min and
    max alone, so a Hillis-Steele scan of ``log2 n`` passes gives every
    prefix exactly.  The clamp and the loop differ only where the loop
    stalls although ``prev`` is below ``up_i`` (``x_i - prev`` rounds onto
    ``half``) or on a signed zero; the check then finds a step whose value
    is not the loop's, and the loop runs instead.
    """
    half = 0.5 * eps
    x = values[1:]
    up = _step_inside(x, x - half, half, np.inf)
    down = _step_inside(x, x + half, half, -np.inf)
    # map 0 is the constant p -> values[0]; after the scan map i is the
    # composition of maps 0..i, a constant too, so lo == hi == reg
    lo = np.concatenate([values[:1], up])
    hi = np.concatenate([values[:1], down])
    k = 1
    while k < lo.size:
        # map i after map i - k: clamp i - k's ends into [lo_i, hi_i]
        new_lo = np.maximum(lo[:-k], lo[k:])
        np.minimum(new_lo, hi[k:], out=new_lo)
        new_hi = np.maximum(hi[:-k], lo[k:])
        np.minimum(new_hi, hi[k:], out=new_hi)
        lo[k:] = new_lo
        hi[k:] = new_hi
        k *= 2
    reg = lo
    # the loop's step from each scanned value, compared bit for bit
    dev = np.empty(values.size, np.float64)
    dev[0] = 0.0
    d = np.subtract(x, reg[:-1], out=dev[1:])
    moved_up = d > half
    moved_down = d < -half
    step = np.where(moved_down, down, reg[:-1])
    np.copyto(step, up, where=moved_up)
    if not np.array_equal(step.view(np.int64), reg[1:].view(np.int64)):
        return _play_operator_loop(values, eps)
    d[moved_up] = half
    d[moved_down] = -half
    return reg, dev


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


def _range_sums(kf, kl, w, m):
    """Per level, the sum of ``w_j`` over the ranges ``kf_j..kl_j`` that
    hold it, through one difference array."""
    d = np.zeros(m + 1)
    np.add.at(d, kf, w)
    np.subtract.at(d[1:], kl, w)
    return np.cumsum(d)[:m]


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
    range to ``accumulate``, a loop or its difference-array form.
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
    levels = u0 + du * np.arange(m)
    out += _range_sums(kf, kl, s * b, m) - _range_sums(kf, kl, s, m) * levels
    return out


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


# ---------------------------------------------------------------------------
# occupation weights: band-indicator accumulation of squared increments
# ---------------------------------------------------------------------------

def _occupation_weights(accumulate, left, w, u0, du, m, eps, out):
    """Shared preamble: levels ``kf..kl`` with ``|left_j - u_k| <= eps``,
    handed to ``accumulate`` when nonempty."""
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
    out += _range_sums(kf, kl, w, m)
    return out


# ---------------------------------------------------------------------------
# one binding per kernel
# ---------------------------------------------------------------------------

if HAS_NUMBA:
    _compile = njit(cache=True, nogil=True)
    _play_operator = _compile(_play_operator_loop)
    _crossing_clamp = _compile(_crossing_clamp_loop)
    _point_sums = _compile(_point_sums_loop)
    _cell_sums = _compile(_cell_sums_loop)
    _band_sums = _compile(_band_sums_loop)
else:
    _play_operator = _play_operator_np
    _crossing_clamp = _crossing_clamp_np
    _point_sums = _point_sums_np
    _cell_sums = _cell_sums_np
    _band_sums = _band_sums_np


def play_operator(values, eps):
    """Band regularisation of a sample sequence; returns ``(reg, dev)``."""
    values = np.ascontiguousarray(values, np.float64)
    return _play_operator(values, float(eps))


def crossing_counts(values, u0, du, m, eps, strict=False):
    """Completed up/down crossings of the band ``[z - eps/2, z + eps/2]``
    for every level ``z = u0 + k*du``; returns ``(up, down)``."""
    values = np.ascontiguousarray(values, np.float64)
    return _crossing_counts(
        _crossing_clamp, values, float(u0), float(du), int(m), float(eps),
        bool(strict),
    )


def interval_field_point(a, b, u0, du, m):
    """Pointwise field ``sum_j |b_j - u_k| * 1[min_j <= u_k < max_j]``."""
    a = np.ascontiguousarray(a, np.float64)
    b = np.ascontiguousarray(b, np.float64)
    out = np.zeros(int(m), np.float64)
    return _interval_field(
        _level_ranges, _point_sums, a, b, float(u0), float(du), int(m), out
    )


def interval_field_cell(a, b, u0, du, m):
    """Cell-averaged variant of :func:`interval_field_point`.

    Each cell receives the exact integral of the piecewise-linear field over
    the cell divided by ``du``, so ``du * out.sum()`` equals
    ``sum_j (b_j - a_j)**2 / 2`` up to float rounding.
    """
    a = np.ascontiguousarray(a, np.float64)
    b = np.ascontiguousarray(b, np.float64)
    out = np.zeros(int(m), np.float64)
    return _interval_field(
        _cell_ranges, _cell_sums, a, b, float(u0), float(du), int(m), out
    )


def signed_increment_sum(left, inc, u0, du, m):
    """``sum_j sign(left_j - u_k) * inc_j`` with ``sign(0) = -1``."""
    left = np.ascontiguousarray(left, np.float64)
    inc = np.ascontiguousarray(inc, np.float64)
    out = np.zeros(int(m), np.float64)
    if left.size == 0:
        return out
    # sum_j inc_j - 2 * (sum of inc_j with left_j <= u_k), the second sum a
    # prefix sum over the samples sorted by left
    order = np.argsort(left, kind="stable")
    cs = np.cumsum(inc[order])
    levels = float(u0) + float(du) * np.arange(int(m))
    cnt = np.searchsorted(left[order], levels, side="right")
    prefix = np.where(cnt > 0, cs[np.maximum(cnt - 1, 0)], 0.0)
    out += cs[-1] - 2.0 * prefix
    return out


def occupation_weights(left, w, u0, du, m, eps):
    """``sum_j w_j * 1[|left_j - u_k| <= eps]`` over the level grid."""
    left = np.ascontiguousarray(left, np.float64)
    w = np.ascontiguousarray(w, np.float64)
    out = np.zeros(int(m), np.float64)
    return _occupation_weights(
        _band_sums, left, w, float(u0), float(du), int(m), float(eps), out
    )


def warmup():
    """Trigger jit compilation of every compiled loop on tiny inputs."""
    x = np.array([0.0, 1.0, -0.5, 0.25])
    play_operator(x, 0.5)
    crossing_counts(x, -1.0, 0.5, 5, 0.5, False)
    crossing_counts(x, -1.0, 0.5, 5, 0.5, True)
    interval_field_point(x[:-1], x[1:], -1.0, 0.5, 5)
    interval_field_cell(x[:-1], x[1:], -1.0, 0.5, 5)
    occupation_weights(x[:-1], np.diff(x) ** 2, -1.0, 0.5, 5, 0.5)
