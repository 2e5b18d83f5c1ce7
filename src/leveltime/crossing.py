"""Discrete level-crossing fields K and J, the exact Tanaka sum, and the
occupation-density local time estimator.

Fields are sampled on a :class:`~leveltime.paths.LevelGrid` in one of two
modes: ``point`` evaluates the defining sum at the grid levels themselves,
``cell`` stores exact per-cell averages so that ``du * sum(field)``
reproduces the underlying mass identities to rounding error.

Every local-time estimator (``k_pi``, ``j_pi``, ``occupation_local_time``
here, ``skorokhod.interval_crossing_local_time`` and
``lab.classical_local_time``) takes the path, ``t=None``, its one
resolution and a keyword-only ``grid``, and returns one
:class:`LocalTimeField`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .dcfuncs import DCFunction
from .errors import _positive
from .paths import LevelGrid, PartitionScheme, SampledCadlagPath

FIELD_KINDS = ("K", "Kc", "J", "L_occupation", "L_interval", "L_classical")

_NEG_TOL = 1e-9


@dataclass(frozen=True)
class LocalTimeField:
    """Nonnegative level field at one evaluation time ``time``: ``data``
    holds one value per grid level."""

    grid: LevelGrid
    time: float
    data: np.ndarray
    kind: str
    width: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        data = np.asarray(self.data, np.float64)
        if data.shape != (self.grid.n_levels,):
            raise ValueError(
                f"data must hold one value per level, got shape {data.shape}"
            )
        low = data.min() if data.size else 0.0
        if low < -_NEG_TOL:
            raise ValueError(f"field data dips to {low}, below zero")
        data = np.maximum(data, 0.0)
        data.setflags(write=False)
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "data", data)
        if self.width is not None:
            object.__setattr__(self, "width", float(self.width))

    @property
    def mass(self) -> float:
        """du-weighted total mass."""
        return float(self.grid.du * self.data.sum())


def _check_mode(mode):
    if mode not in ("cell", "point"):
        raise ValueError(f"mode must be 'cell' or 'point', got {mode!r}")


def _field_kernel(mode):
    return (
        _kernels.interval_field_cell if mode == "cell"
        else _kernels.interval_field_point
    )


def _eval_time(path, t):
    """The evaluation time: ``t``, or the horizon when None."""
    return path.duration if t is None else float(t)


def k_pi(
    path: SampledCadlagPath,
    scheme: PartitionScheme,
    n: int,
    t=None,
    *,
    grid: LevelGrid,
    mode: str = "cell",
) -> LocalTimeField:
    """Level-crossing field K: per-interval ``|endpoint - u|`` over straddles,
    on the path stopped at ``t`` (the whole horizon when None)."""
    _check_mode(mode)
    x = path.values[scheme.clipped(path, n, t)]
    data = _field_kernel(mode)(x[:-1], x[1:], grid.u0, grid.du, grid.n_levels)
    return LocalTimeField(grid, _eval_time(path, t), data, "K")


def j_pi(
    path: SampledCadlagPath,
    t=None,
    *,
    grid: LevelGrid,
    mode: str = "cell",
) -> LocalTimeField:
    """Jump field J: the K-sum restricted to marked jumps (pre -> post)."""
    _check_mode(mode)
    pre, post = path.jump_brackets(t)
    data = _field_kernel(mode)(pre, post, grid.u0, grid.du, grid.n_levels)
    return LocalTimeField(grid, _eval_time(path, t), data, "J")


def discrete_tanaka_residual(
    path: SampledCadlagPath,
    f: DCFunction,
    scheme: PartitionScheme,
    n: int,
    t=None,
) -> float:
    """Defect of the discrete Tanaka-Meyer identity at partition level ``n``.

    LHS: f(x_t) - f(x_0) - sum of f'(x_{t_i}) times clipped increments.
    RHS: the K-field integrated against f''(du), evaluated in closed form
    per partition interval (atoms by exact bracket membership, densities via
    antiderivatives), never through the binned grid.
    """
    x = path.values[scheme.clipped(path, n, t)]
    a, b = x[:-1], x[1:]
    head = np.asarray(f.eval_f(np.array([x[-1], x[0]])), np.float64)
    fprime = np.asarray(f.eval_fprime(a), np.float64)
    lhs = float(head[0] - head[1]) - float(np.dot(fprime, b - a))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    rhs = float(f.second_derivative.bracket_weight_integrals(b, lo, hi).sum())
    return lhs - rhs


def split_Kc_Kd(K: LocalTimeField, J: LocalTimeField):
    """Continuous crossing part Kc = (K - J) clipped at 0 and its local-time
    estimate 2*Kc (the occupation local time at this resolution)."""
    if K.grid != J.grid:
        raise ValueError("K and J live on different level grids")
    if K.time != J.time:
        raise ValueError("K and J must share the evaluation time")
    kc = np.maximum(K.data - J.data, 0.0)
    kc_field = LocalTimeField(K.grid, K.time, kc, "Kc")
    l_field = LocalTimeField(K.grid, K.time, 2.0 * kc, "L_occupation")
    return kc_field, l_field


def occupation_local_time(
    path: SampledCadlagPath,
    t=None,
    *,
    bandwidth: float,
    grid: LevelGrid,
) -> LocalTimeField:
    """Occupation-density estimate of the local time.

    At each level u: (1/(2 eps)) times the sum of squared unmarked
    increments whose left value x has ``fl(x - eps) <= u <= fl(x + eps)``:
    a difference of two reads of their CDF over the sorted left values
    (:meth:`SampledCadlagPath.step_table`), exactly 0.0 off every band.
    """
    eps = _positive("bandwidth", bandwidth)
    if eps < grid.du:
        raise ValueError(
            f"bandwidth {eps} under the grid spacing {grid.du}; "
            "the band would miss every level"
        )
    ranked, prefix = path.step_table(t)
    data = _kernels.occupation_weights(
        ranked, prefix[1], grid.u0, grid.du, grid.n_levels, eps
    ) / (2.0 * eps)
    return LocalTimeField(
        grid, _eval_time(path, t), data, "L_occupation", width=eps
    )
