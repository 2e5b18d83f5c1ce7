"""Double Skorokhod reflection on a band, crossing counts, and the
interval-crossing local time.

The band regularisation x^eps keeps |x - x^eps| <= eps/2 and moves only
when that deviation sits on a barrier, which makes x^eps piecewise monotone
with finite variation.  Crossing counters, the Banach indicatrix, and the
c * n^{z,c} local-time estimator all live here.  The indicatrix's level
counts and its exact z-integral read one cut table: the sorted distinct
turning values of x^eps and the segments that cover each cut index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .crossing import LocalTimeField, _eval_time
from .dcfuncs import DCFunction
from .errors import _positive
from .paths import LevelGrid, SampledCadlagPath


@dataclass(frozen=True)
class SkorokhodSolution:
    """Decomposition x = x^eps + phi from the double Skorokhod problem.

    ``deviation`` stores the recursion's own phi values (exactly +-eps/2 at
    samples where x^eps moves); ``monotone_segments`` holds the maximal runs
    of one-signed movement as ``(start_idx, end_idx, direction)`` rows.
    """

    path: SampledCadlagPath
    regularized: SampledCadlagPath
    deviation: np.ndarray
    eps: float
    monotone_segments: np.ndarray

    @property
    def half_width(self) -> float:
        return 0.5 * self.eps


def monotone_segments(values) -> np.ndarray:
    """Maximal runs of one-signed increments (flat steps stay in the run),
    as ``(S, 3)`` int64 rows ``(start, end, direction)``; direction 0 only
    for the one row of a path that never moves."""
    values = np.asarray(values, np.float64)
    d = np.diff(np.atleast_1d(values))
    moves = np.flatnonzero(d != 0)
    if moves.size == 0:
        return np.array([[0, max(values.size - 1, 0), 0]], np.int64)
    up = d[moves] > 0
    # a run turns at the first move against it; the turning sample ends the
    # old run and starts the new one
    turns = np.flatnonzero(up[1:] != up[:-1]) + 1
    segs = np.empty((turns.size + 1, 3), np.int64)
    segs[0, 0], segs[-1, 1] = 0, values.size - 1
    segs[1:, 0] = segs[:-1, 1] = moves[turns]
    segs[:, 2] = np.where(up[np.r_[0, turns]], 1, -1)
    return segs


def skorokhod_map(path: SampledCadlagPath, eps: float) -> SkorokhodSolution:
    """Run the band (play-operator) recursion with barrier width ``eps``.

    The recursion is the minimal-motion solution on the sample skeleton:
    x^eps stalls while x stays within eps/2 of it and otherwise moves just
    enough to restore |x - x^eps| = eps/2.
    """
    eps = _positive("eps", eps)
    reg_values, dev = _kernels.play_operator(path.values, eps)
    regularized = path._revalued(reg_values)
    return SkorokhodSolution(
        path=path,
        regularized=regularized,
        deviation=dev,
        eps=eps,
        monotone_segments=monotone_segments(reg_values),
    )


def crossing_count_field(
    path: SampledCadlagPath,
    grid: LevelGrid,
    eps: float,
    t=None,
    strict: bool = False,
):
    """Vector of total band-crossing counts n^{z,eps} over all grid levels.

    An upcrossing of level ``z`` is armed by a sample at or below
    ``z - eps/2`` and completed by a later sample at or above
    ``z + eps/2``; downcrossings mirror it, and a sample that arms never
    also completes.  ``strict`` arms only strictly outside the band (below
    ``z - eps/2``, above ``z + eps/2``).  At eps = 0 a sample on the level
    would arm both directions and complete neither, so only the strict
    counts are defined there; the zero-width non-strict count goes through
    the Banach indicatrix instead.
    """
    eps = _positive("eps", eps, zero=True)
    if eps == 0 and not strict:
        raise ValueError("non-strict counts need eps > 0")
    up, down = _kernels.crossing_counts(
        path.values[: path.index_at(t) + 1],
        grid.u0,
        grid.du,
        grid.n_levels,
        eps,
        bool(strict),
    )
    return up + down


def _segments_until(solution: SkorokhodSolution, t):
    """Regularized values and their monotone segments up to time ``t``."""
    reg = solution.regularized
    if t is None:
        return reg.values, solution.monotone_segments
    values = reg.values[: reg.index_at(t) + 1]
    return values, monotone_segments(values)


def _cover(lo, hi, n):
    """For each cut index ``j = 0..n``, the number of segments with
    ``lo < j <= hi``."""
    counts = np.bincount(lo, minlength=n) - np.bincount(hi, minlength=n)
    return np.concatenate(([0], np.cumsum(counts)))


def _cut_table(solution: SkorokhodSolution, t):
    """The cut table of the regularized path stopped at ``t``: its sorted
    distinct turning values (the cuts), each segment's low and high cut
    index, and the row of its first increasing segment.  Consecutive
    segments share their turning values, so one ``np.unique`` of the S + 1
    turning values gives all of them."""
    values, segs = _segments_until(solution, t)
    turns = values[np.append(segs[:, 0], segs[-1, 1])]
    cuts, idx = np.unique(turns, return_inverse=True)
    lo = np.minimum(idx[:-1], idx[1:])
    hi = np.maximum(idx[:-1], idx[1:])
    return cuts, lo, hi, 0 if segs[0, 2] > 0 else 1


def banach_indicatrix(solution: SkorokhodSolution, z, t=None):
    """Number of level-z crossings of the regularized path, per segment,
    at a level (an ``int``) or an array of levels (an array of counts).

    An increasing segment a -> b crosses z when a < z <= b, so it counts if
    it covers the number of cuts below z; a decreasing one when b <= z < a,
    so it counts if it covers the number of cuts at or below z.  The
    half-open conventions make the z-integral of the count equal to the
    total variation exactly.
    """
    cuts, lo, hi, up = _cut_table(solution, t)
    # directions alternate, so each direction's segments are every other row
    down = 1 - up
    ups = _cover(lo[up::2], hi[up::2], cuts.size)
    downs = _cover(lo[down::2], hi[down::2], cuts.size)
    count = (
        ups[np.searchsorted(cuts, z, "left")]
        + downs[np.searchsorted(cuts, z, "right")]
    )
    return int(count) if np.ndim(count) == 0 else count


def banach_indicatrix_integral(solution: SkorokhodSolution, t=None) -> float:
    """Exact z-integral of the indicatrix over the cut table: the slice
    between cuts ``j - 1`` and ``j`` is crossed by the segments that cover
    ``j``.  One sort and O(S) array work in the number S of segments, with
    exact integer counts; the slices are summed in order, so the
    total-variation identity is verified by an independent route rather
    than assumed."""
    cuts, lo, hi, _ = _cut_table(solution, t)
    if cuts.size == 1:
        return 0.0
    cover = _cover(lo, hi, cuts.size)[1:-1]
    # np.cumsum adds term by term, as a running total would; np.sum would
    # add pairwise
    return float(np.cumsum(cover * np.diff(cuts))[-1])


def interval_crossing_local_time(
    path: SampledCadlagPath,
    t=None,
    *,
    width: float,
    grid: LevelGrid,
) -> LocalTimeField:
    """Field c * n^{z,c} of band-crossing counts at band width ``c``."""
    c = _positive("width", width)
    counts = crossing_count_field(path, grid, c, t=t)
    return LocalTimeField(
        grid, _eval_time(path, t), c * counts.astype(np.float64),
        "L_interval", width=c,
    )


def exceptional_levels(solution: SkorokhodSolution) -> np.ndarray:
    """Levels where the strict-count comparison lemma may legitimately fail:
    sample values shifted by +-eps/2 plus the regularized sample values."""
    h = solution.half_width
    vals = solution.path.values
    return np.unique(
        np.concatenate([vals - h, vals + h, solution.regularized.values])
    )


def _stopped(path, solution, f, t):
    """``x`` and ``x^eps`` stopped at ``t``, with ``f'(x^eps)``: the
    prologue of the three Stieltjes routes."""
    if path is not solution.path and not (
        np.array_equal(path.times, solution.path.times)
        and np.array_equal(path.values, solution.path.values)
    ):
        raise ValueError("the solution is not this path's band map")
    i_t = path.index_at(t)
    x = path.values[: i_t + 1]
    reg = solution.regularized.values[: i_t + 1]
    return x, reg, np.asarray(f.eval_fprime(reg))


def stieltjes_integral_fprime(
    path: SampledCadlagPath,
    solution: SkorokhodSolution,
    f: DCFunction,
    t=None,
) -> float:
    """The integral ``int f'(x^eps_{s-}) dx_s`` on the sample skeleton.

    Evaluated as the exact left-point sum; ``stieltjes_integral_ibp`` spells
    out the equivalent integration-by-parts route used by the two-route
    consistency checks.
    """
    x, _, fp = _stopped(path, solution, f, t)
    return float(np.dot(fp[:-1], np.diff(x)))


def stieltjes_integral_ibp(
    path: SampledCadlagPath,
    solution: SkorokhodSolution,
    f: DCFunction,
    t=None,
) -> float:
    """Integration-by-parts route: boundary term minus ``int x d f'(x^eps)``
    minus the increment cross terms, summed over every step (step-function
    semantics: each sample change is a common jump of both factors)."""
    x, _, fp = _stopped(path, solution, f, t)
    boundary = fp[-1] * x[-1] - fp[0] * x[0]
    dfp = np.diff(fp)
    dx = np.diff(x)
    return float(boundary - np.dot(x[:-1], dfp) - np.dot(dx, dfp))


def stieltjes_integral_band(
    path: SampledCadlagPath,
    solution: SkorokhodSolution,
    f: DCFunction,
    t=None,
) -> float:
    """Barrier-form route, exact when f' is nondecreasing on the path range:
    boundary term minus ``int x^eps d f'(x^eps)`` minus (eps/2) TV(f'(x^eps)).
    """
    x, reg, fp = _stopped(path, solution, f, t)
    boundary = fp[-1] * x[-1] - fp[0] * x[0]
    dfp = np.diff(fp)
    return float(
        boundary
        - np.dot(reg[1:], dfp)
        - solution.half_width * np.abs(dfp).sum()
    )
