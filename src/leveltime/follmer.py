"""Quadratic variation along partition schemes.

All sums use the clipped convention: an interval ``[t_j, t_{j+1}]`` of the
partition contributes through ``x_{t_{j+1} ^ t} - x_{t_j ^ t}``, which makes
every telescoping step exact on the sample skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

