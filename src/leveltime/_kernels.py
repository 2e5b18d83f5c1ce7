"""Hot numeric kernels, each bound to one implementation at import.

Where numba is importable (``HAS_NUMBA``) the sequential loops are compiled
with ``numba.njit(cache=True, nogil=True)`` and every kernel but the signed
increment sum runs its loop.
Without numba a kernel runs its loop uncompiled only where no array form
beats it:

- the play operator runs its loop compiled or, without numba, a scan of
  clamp maps that is checked step by step against the loop's own test and
  falls back to the loop where a step differs (:func:`_play_operator_np`).
  Its moved values and its check are dense passes over the whole array,
  since at small band widths nearly every moved value takes an ulp step,
  and an ulp step is an integer add on the float's bits
  (:func:`_step_inside`);
- the crossing counts rank through :func:`_rank`, then run their clamp loop
  compiled or, without numba, the play operator's scan over level indices,
  without the samples that repeat the previous sample's clamp where at
  least a quarter repeat;
- the one scan, :func:`_clamp_scan`, composes the clamps in blocks of
  ``_BLOCK`` consecutive maps laid out as the columns of an array, so that
  each Hillis-Steele pass is a few contiguous array calls, and scans the
  block ends by calling itself;
- the three field kernels (point and cell interval fields, occupation
  weights) are each one shared range computation, which finds every
  bracket's first and last covered level or cell with :func:`_rank`, plus
  an accumulator over those ranges: the compiled loop, or difference arrays
  without numba.  They allocate few full-length buffers, since freed heap
  goes back to the OS and is faulted in again on the next call;
- the signed increment sum has one form on every machine, a prefix sum in
  stable-sort order, which the default sort gives unless two keys tie.

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
    place and over the whole array, since most samples step at small
    ``half``; ``-(x - v)`` rounds exactly as ``v - x``.

    One ulp is one unit of the float's ``int64`` view: +1 away from zero
    and -1 toward it on a clear sign bit, the reverse on a set one.  A step
    never flips the sign bit, since a step toward zero ends on the zero of
    the same sign, so the signs are read once.  Only a step from a zero
    must skip the other zero; a pass that meets one takes ``np.nextafter``
    and reads the signs again.
    """
    a, b = (x, v) if toward > 0 else (v, x)
    gap = np.subtract(a, b)
    out = np.greater(gap, half)
    bits = v.view(np.int64)
    step = gap.view(np.int64)  # each pass's adds, before the gap is renewed
    zero = np.empty(out.shape, bool)
    neg = None
    while out.any():
        if np.logical_and(np.equal(v, 0.0, out=zero), out, out=zero).any():
            np.nextafter(v, toward, out=v, where=out)
            neg = None
        else:
            if neg is None:  # -1 where the step is -1, else 0
                neg = np.right_shift(bits, 63)
                if toward < 0:
                    np.invert(neg, out=neg)
            # out as 0 or 1, negated where neg is -1: dense passes, since
            # a masked add is several times slower
            np.copyto(step, out)
            step ^= neg
            step -= neg
            bits += step
        np.greater(np.subtract(a, b, out=gap), half, out=out)
    return v


_BLOCK = 8  # maps per block of the clamp scan; 16 timed alike, 4 and 32 slower


def _clamp_scan(p0, lo, hi):
    """The states ``p_i = min(max(p_{i-1}, lo_i), hi_i)``, ``p_0 = p0``, of
    the maps ``lo <= hi``, in float64 or int64.

    Clamps compose into clamps through min and max alone, so any grouping
    gives the same states.  The maps are laid out as the columns of an
    ``(L, B)`` array, each a block of ``L = _BLOCK`` consecutive maps, so
    that every slice below is contiguous.  Hillis-Steele passes down the
    columns compose every prefix of each block, alternating between two
    buffers; this scan of the block-end maps gives each block's incoming
    state, and the block's prefixes clamp that state.
    """
    n, L = lo.size, _BLOCK
    full, rem = divmod(n, L)
    cols = full + (rem > 0)
    a_lo, a_hi = np.empty((L, cols), lo.dtype), np.empty((L, cols), lo.dtype)
    for end, src in ((a_lo, lo), (a_hi, hi)):
        end[:, :full] = src[: full * L].reshape(full, L).T
        if rem:  # no state is read from the rows past the last map
            end[:rem, full] = src[full * L :]
            end[rem:, full] = 0
    b_lo, b_hi = np.empty_like(a_lo), np.empty_like(a_hi)
    k = 1
    while k < L:
        # map r after map r - k: clamp r - k's ends into [lo_r, hi_r]; rows
        # above k are final and rows above k/2 already sit in b
        for a, b in ((a_lo, b_lo), (a_hi, b_hi)):
            b[k // 2 : k] = a[k // 2 : k]
            np.maximum(a[:-k], a_lo[k:], out=b[k:])
            np.minimum(b[k:], a_hi[k:], out=b[k:])
        a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
        k *= 2
    p = _clamp_scan(p0, a_lo[-1, :-1], a_hi[-1, :-1]) if cols > 1 else p0
    p = np.maximum(a_lo, p, out=b_lo)
    np.minimum(p, a_hi, out=p)
    a_lo = a_hi = b_hi = None  # free before the states are copied out
    out = np.empty(n + 1, lo.dtype)
    out[0] = p0
    out[1 : 1 + full * L].reshape(full, L)[...] = p[:, :full].T
    if rem:
        out[1 + full * L :] = p[:rem, full]
    return out


def _play_operator_np(values, eps):
    """The loop's ``(reg, dev)`` from a scan of clamp maps, checked step by
    step against the loop's own test, else from the loop itself.

    Sample ``i`` acts on the previous value as the clamp
    ``p -> min(max(p, up_i), down_i)``, where ``up_i`` (``down_i``) is the
    loop's moved value: the first float at or above ``x_i - half`` (at or
    below ``x_i + half``) within ``half`` of ``x_i``.  The loop's
    ``v <= prev`` nudge never changes it, since every float at or below a
    failing ``prev`` fails too.  The clamps differ from the loop only where
    it stalls although ``prev`` is below ``up_i`` (``x_i - prev`` rounds
    onto ``half``) or on a signed zero; the check then finds a step whose
    value is not the loop's, and the loop runs instead.
    """
    half = 0.5 * eps
    x = values[1:]
    up = _step_inside(x, x - half, half, np.inf)
    down = _step_inside(x, x + half, half, -np.inf)
    reg = _clamp_scan(values[0], up, down)
    dev = np.empty(values.size, np.float64)
    dev[0] = 0.0
    d = np.subtract(x, reg[:-1], out=dev[1:])
    moved_up = d > half
    moved_down = d < -half
    # the loop's step from each scanned value, compared bit for bit: up_i
    # where it moves up, down_i where it moves down, else the value itself
    r = reg.view(np.int64)
    ok = (r[1:] == r[:-1]) | moved_up | moved_down
    ok &= (r[1:] == up.view(np.int64)) | ~moved_up
    ok &= (r[1:] == down.view(np.int64)) | ~moved_down
    if not ok.all():
        return _play_operator_loop(values, eps)
    np.clip(d, -half, half, out=d)  # +-half exactly where the value moved
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
    """The loop's fired ranges through the play operator's scan over level
    indices: sample ``i`` fires ``[a_{i-1}, last[i]]`` where nonempty.

    A sample whose ``(arm, last)`` repeats the previous sample's is dropped
    first when at least a quarter of the samples repeat: the clamp is
    idempotent and leaves ``a > last``, so the repeat neither moves ``a``
    nor fires.  On grids finer than the path's steps few samples repeat,
    and the gathers would cost more than the shorter scan saves.  The kept
    and the fired samples are gathered by index: a boolean gather on so
    irregular a mask is several times slower.
    """
    if arm.size > 1:
        new = (arm[1:] != arm[:-1]) | (last[1:] != last[:-1])
        if 4 * np.count_nonzero(new) <= 3 * new.size:
            keep = np.flatnonzero(np.concatenate([[True], new]))
            arm, last = arm.take(keep), last.take(keep)
    a = _clamp_scan(a, last + 1, arm)[:-1]
    fire = np.flatnonzero(last >= a)
    diff += np.bincount(a.take(fire), minlength=diff.size)
    diff -= np.bincount(last.take(fire) + 1, minlength=diff.size)
    return diff


def _crossing_counts(clamp, values, u0, du, m, eps, strict):
    """Up/down crossing counts through the index-space play operator.

    Both directions share one difference array: upcrossings at level ``k``
    sit at index ``k``, downcrossings at the mirrored index ``2m - 1 - k``,
    so a downcrossing's armed set is a ray ``k' >= a`` too.
    """
    half = 0.5 * eps

    def edges(shift, right):  # searchsorted on (u0 + k*du) + shift, k < m
        return np.minimum(_rank(values, u0, du, right, shift=shift), m)

    # the fire ranks; the non-strict arm ranks are the same two
    low_left, high_right = edges(-half, False), edges(half, True)
    # up: a sample arms levels with low_k > v (>= v non-strict), fires
    # levels with high_k <= v
    arm = edges(-half, True) if strict else low_left
    last = np.minimum(high_right - 1, arm - 1)
    diff = np.zeros(2 * m + 1, np.int64)
    clamp(arm, last, m, diff)
    # down, mirrored: a sample arms levels with high_k < v (<= v
    # non-strict), fires levels with low_k >= v
    arm = 2 * m - (edges(half, False) if strict else high_right)
    last = np.minimum(2 * m - 1 - low_left, arm - 1)
    clamp(arm, last, 2 * m, diff)
    counts = np.cumsum(diff[:-1])
    return counts[:m], counts[m:][::-1]


# ---------------------------------------------------------------------------
# level ranks: the one rule that maps values to level and cell indices
# ---------------------------------------------------------------------------

def _rank(x, u0, du, right=False, off=0.0, shift=0.0):
    """``np.searchsorted(grid, x, side)`` on the unbounded grid
    ``u0 + (k + off)*du``, ``k = 0, 1, ...``, without building the grid.

    ``off=0`` ranks against the levels, ``off=-0.5`` against the cell edges;
    ``shift=-/+eps/2`` against the band edges ``(u0 + k*du) -/+ eps/2``.
    The search starts one point below an arithmetic guess and steps up past
    each of the next two points that lies below ``x`` (``<`` for the left
    side, ``<=`` for the right), comparing with the grid points as written
    above.  The rank is exact whenever the guess is within one point of it,
    that is whenever ``|x - u0 - shift| / du`` is far below ``2**52``.
    """
    below = np.less_equal if right else np.less
    r = np.subtract(x, u0 + shift, out=np.empty(np.shape(x)))
    r *= 1.0 / du
    if right:
        r -= off
        np.floor(r, out=r)
    else:
        r -= off + 1.0
        np.ceil(r, out=r)
    rank = np.empty(r.shape, np.int64)
    g = rank.view(np.float64)  # the grid points, until the ranks go there
    for _ in range(2):
        np.add(r, off, out=g)
        g *= du
        g += u0
        if shift:  # the levels and cells skip the pass
            g += shift
        r += below(g, x)
    return np.maximum(r, 0.0, out=rank, casting="unsafe")


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
    kf = _rank(lo, u0, du, True, -0.5)
    kf -= kf > 0  # max(kf - 1, 0), in place
    kl = _rank(hi, u0, du, False, -0.5)
    return kf, np.subtract(np.minimum(kl, m, out=kl), 1, out=kl)


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
    keep = (kf <= kl) & (a != b)
    if not keep.all():
        j = np.flatnonzero(keep)
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


def _end_cell_terms(b, lo, hi, k, u0, du):
    """``(beta - alpha) * |b - (alpha + beta) / 2| / du``, in place, with
    ``[alpha, beta)`` the bracket clipped to cell ``k``."""
    alpha = k - 0.5
    alpha *= du
    alpha += u0
    np.maximum(alpha, lo, out=alpha)
    beta = k + 0.5
    beta *= du
    beta += u0
    np.minimum(beta, hi, out=beta)
    mid = alpha + beta
    mid *= 0.5
    np.subtract(b, mid, out=mid)
    np.abs(mid, out=mid)
    beta -= alpha
    beta *= mid
    beta *= 1.0 / du
    return beta


def _cell_sums_np(b, lo, hi, kf, kl, u0, du, m, out):
    # end cells, added per cell in a fixed order: the one cell of each short
    # bracket, then the first and the last cell of each longer one; the
    # bincount adds 0.0, which changes no sum, for the longer ones
    multi = np.flatnonzero(kf < kl)
    w = _end_cell_terms(b, lo, hi, kf, u0, du)
    first = w[multi]
    w[multi] = 0.0
    out += np.bincount(kf, w, m)
    kf, kl, b, lo, hi = kf[multi], kl[multi], b[multi], lo[multi], hi[multi]
    np.add.at(out, kf, first)
    np.add.at(out, kl, _end_cell_terms(b, lo, hi, kl, u0, du))
    # interior cells take the point field at their level
    i = np.flatnonzero(kl - kf >= 2)
    if i.size == 0:
        return out
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
    band_end = np.subtract(left, eps)
    kf = _rank(band_end, u0, du)
    kl = _rank(np.add(left, eps, out=band_end), u0, du, True)
    np.subtract(np.minimum(kl, m, out=kl), 1, out=kl)
    keep = kf <= kl
    if not keep.all():
        j = np.flatnonzero(keep)
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
    # prefix sum in the stable sort's order, which every sort gives when no
    # two keys tie (-0.0 == 0.0 ties)
    order = np.argsort(left)
    ranked = left[order]
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(left, kind="stable")
    levels = float(u0) + float(du) * np.arange(int(m))
    cnt = np.searchsorted(ranked, levels, side="right")
    cs = np.take(inc, order, out=ranked, mode="clip")  # reuses the keys' memory
    np.cumsum(cs, out=cs)
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
