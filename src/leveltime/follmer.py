"""Quadratic variation along partitions and the pathwise Ito identity.

All sums use the clipped convention: an interval ``[t_j, t_{j+1}]`` of the
partition contributes through ``x_{t_{j+1} ^ t} - x_{t_j ^ t}``, which makes
every telescoping step exact on the sample skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcfuncs import DCFunction
from .paths import PartitionScheme, SampledCadlagPath


@dataclass(frozen=True)
class QuadraticVariation:
    """Discrete quadratic variation along one partition level.

    ``total[k]`` is the clipped sum of squared partition increments up to
    partition time ``times[k]``; ``continuous_part`` is the running maximum
    of (total - marked jump squares), which keeps all three curves
    nondecreasing and ``total = continuous_part + jump_part`` exact.
    """

    times: np.ndarray
    total: np.ndarray
    continuous_part: np.ndarray
    jump_part: np.ndarray
    level: int

    def value_at(self, t: float):
        """(total, continuous, jump) at the last partition time <= t."""
        k = int(np.searchsorted(self.times, float(t), side="right") - 1)
        if k < 0:
            raise ValueError(f"time {t} precedes the partition")
        return (
            float(self.total[k]),
            float(self.continuous_part[k]),
            float(self.jump_part[k]),
        )


def quadratic_variation(
    path: SampledCadlagPath,
    scheme: PartitionScheme,
    n: int,
    t=None,
) -> QuadraticVariation:
    """Clipped squared-increment sums of partition level ``n`` up to ``t``."""
    clipped = scheme.clipped(path, n, t)
    inc = np.diff(path.values[clipped])
    total = np.concatenate([[0.0], np.cumsum(inc * inc)])

    jump_sq = np.zeros(path.n_samples)
    pre, post = path.jump_brackets()
    jump_sq[path.jump_indices] = (post - pre) ** 2
    jump_raw = np.cumsum(jump_sq)[clipped]

    continuous = np.maximum.accumulate(total - jump_raw)
    return QuadraticVariation(
        times=path.times[clipped].copy(),
        total=total,
        continuous_part=continuous,
        jump_part=total - continuous,
        level=int(n),
    )


def riemann_integral(
    path: SampledCadlagPath,
    integrand,
    scheme: PartitionScheme,
    n: int,
    t=None,
) -> float:
    """Left-point Riemann sum ``sum g(x_{t_j}) (x_{t_{j+1} ^ t} - x_{t_j ^ t})``.

    ``integrand`` is either a callable applied to sample values or an array
    of per-sample values ``g(x_i)`` aligned with the path grid.
    """
    x = path.values[scheme.clipped(path, n, t)]
    if callable(integrand):
        g = np.asarray(integrand(path.values), np.float64)
    else:
        g = np.asarray(integrand, np.float64)
        if g.shape != path.values.shape:
            raise ValueError("integrand values must align with path samples")
    return float(np.dot(g[scheme[n][:-1]], np.diff(x)))


def jump_compensator(path: SampledCadlagPath, f: DCFunction, t=None) -> float:
    """Sum over marked jumps of ``f(x_s) - f(x_{s-}) - f'(x_{s-}) dx_s``."""
    pre, post = path.jump_brackets(t)
    if pre.size == 0:
        return 0.0
    terms = (
        np.asarray(f.eval_f(post), np.float64)
        - np.asarray(f.eval_f(pre), np.float64)
        - np.asarray(f.eval_fprime(pre), np.float64) * (post - pre)
    )
    return float(terms.sum())


def follmer_residual(
    path: SampledCadlagPath,
    f: DCFunction,
    scheme: PartitionScheme,
    n: int,
    t=None,
) -> float:
    """Defect of the pathwise Ito formula at partition level ``n``.

    Residual = f(x_t) - f(x_0) - left Riemann sum of f' along the partition
    - (1/2) sum over unmarked grid increments of f''(x_left) (increment)^2
    - jump compensator.  Requires an atom-free ``f''`` (the second-derivative
    term needs a pointwise density).
    """
    if not f.is_smooth:
        raise ValueError("follmer_residual needs f'' without atoms")
    head = f.eval_f(np.array([path.values[path.index_at(t)], path.values[0]]))
    term_f = float(head[0] - head[1])
    term_riemann = riemann_integral(path, f.eval_fprime, scheme, n, t)
    f2 = f.second_derivative
    term_qv = 0.0
    left, inc = path.continuous_steps(t)
    if f2.density is not None and left.size:
        dens = np.asarray(f2.density(left), np.float64)
        term_qv = 0.5 * float(np.dot(dens, inc**2))
    term_jumps = jump_compensator(path, f, t)
    return term_f - term_riemann - term_qv - term_jumps
