"""Double Skorokhod reflection on a band, crossing counts, and the
interval-crossing local time.

The band regularisation x^eps keeps |x - x^eps| <= eps/2 and moves only
when that deviation sits on a barrier, which makes x^eps piecewise monotone
with finite variation.  Crossing counters, the Banach indicatrix, and the
c * n^{z,c} local-time estimator all live here.
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


def _crossings(values, segs, z):
    """Indicatrix of the segments ``segs`` of ``values`` at the level(s)
    ``z``: ``#(a < z) - #(b < z)`` over increasing segments a -> b, as
    b < z implies a < z, plus ``#(b <= z) - #(a <= z)`` over decreasing
    ones, as a <= z implies b <= z."""
    a, b = values[segs[:, 0]], values[segs[:, 1]]
    up, down = segs[:, 2] > 0, segs[:, 2] < 0
    return (
        np.searchsorted(np.sort(a[up]), z, "left")
        - np.searchsorted(np.sort(b[up]), z, "left")
        + np.searchsorted(np.sort(b[down]), z, "right")
        - np.searchsorted(np.sort(a[down]), z, "right")
    )


def banach_indicatrix(solution: SkorokhodSolution, z, t=None):
    """Number of level-z crossings of the regularized path, per segment,
    at a level (an ``int``) or an array of levels (an array of counts).

    An increasing segment a -> b crosses z when a < z <= b; a decreasing one
    when b <= z < a.  The half-open conventions make the z-integral of the
    count equal to the total variation exactly.
    """
    count = _crossings(*_segments_until(solution, t), z)
    return int(count) if np.ndim(count) == 0 else count


def banach_indicatrix_integral(solution: SkorokhodSolution, t=None) -> float:
    """Exact z-integral of the indicatrix, via breakpoint-and-midpoint count.

    Computed by slicing the level axis at all segment endpoint values and
    counting the segments strictly across each slice's midpoint, so the
    total-variation identity is verified by an independent route rather
    than assumed.  The count is the indicatrix at the midpoints, O(S log S)
    in the number S of segments; the slices are summed in order.
    """
    values, segs = _segments_until(solution, t)
    if segs[0, 2] == 0:
        return 0.0
    cuts = np.unique(values[segs[:, :2]])
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    cover = _crossings(values, segs, mid)
    # between adjacent floats the midpoint rounds onto a cut, where the
    # indicatrix also counts the segments that end there
    on = np.flatnonzero((mid == cuts[:-1]) | (mid == cuts[1:]))
    if on.size:
        ends = np.sort(values[segs[:, 1]])
        upto = np.searchsorted(ends, mid[on], "right")
        cover[on] -= upto - np.searchsorted(ends, mid[on], "left")
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
    i_t = path.index_at(t)
    if i_t == 0:
        return 0.0
    fp = np.asarray(f.eval_fprime(solution.regularized.values[: i_t + 1]))
    dx = np.diff(path.values[: i_t + 1])
    return float(np.dot(fp[:-1], dx))


def stieltjes_integral_ibp(
    path: SampledCadlagPath,
    solution: SkorokhodSolution,
    f: DCFunction,
    t=None,
) -> float:
    """Integration-by-parts route: boundary term minus ``int x d f'(x^eps)``
    minus the increment cross terms, summed over every step (step-function
    semantics: each sample change is a common jump of both factors)."""
    i_t = path.index_at(t)
    if i_t == 0:
        return 0.0
    x = path.values[: i_t + 1]
    fp = np.asarray(f.eval_fprime(solution.regularized.values[: i_t + 1]))
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
    i_t = path.index_at(t)
    if i_t == 0:
        return 0.0
    x = path.values[: i_t + 1]
    reg = solution.regularized.values[: i_t + 1]
    fp = np.asarray(f.eval_fprime(reg))
    boundary = fp[-1] * x[-1] - fp[0] * x[0]
    dfp = np.diff(fp)
    return float(
        boundary
        - np.dot(reg[1:], dfp)
        - solution.half_width * np.abs(dfp).sum()
    )

