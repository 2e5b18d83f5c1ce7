"""Sampled cadlag paths on a finite time grid.

A path is stored as samples ``(times, values)`` plus a boolean ``jump_mask``
that marks which increments are genuine jumps.  The path is interpreted as a
right-continuous step function: on ``[times[i], times[i+1])`` it holds the
value ``values[i]``.  A marked index ``i`` means the increment
``values[i] - values[i-1]`` is a jump whose pre-jump value is exactly
``values[i-1]``; unmarked increments are continuous motion seen at grid
resolution.  Index 0 is never marked.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _rank
from .errors import ConfigError


def _readonly(arr):
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampledCadlagPath:
    """Immutable sampled path with jump marks.

    Parameters
    ----------
    times : array_like
        Strictly increasing sample times with ``times[0] == 0``.
    values : array_like
        Finite sample values, one per time.
    jump_mask : array_like of bool, optional
        Marks indices whose incoming increment is a jump.  Defaults to all
        False (a continuous sampled path).  ``jump_mask[0]`` must be False.
    """

    times: np.ndarray
    values: np.ndarray
    jump_mask: np.ndarray = None

    def __post_init__(self):
        times = np.asarray(self.times, np.float64)
        values = np.asarray(self.values, np.float64)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one dimensional")
        if times.size != values.size:
            raise ValueError("times and values must have equal length")
        if times.size == 0:
            raise ValueError("a path needs at least one sample")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ValueError("times and values must be finite")
        if times[0] != 0.0:
            raise ValueError("the first sample time must be 0")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.jump_mask is None:
            mask = np.zeros(times.size, bool)
        else:
            mask = np.asarray(self.jump_mask)
            if mask.dtype != np.bool_:
                raise ValueError("jump_mask must be boolean")
            if mask.shape != times.shape:
                raise ValueError("jump_mask must match times in length")
            mask = mask.copy()
        if mask.size and mask[0]:
            raise ValueError("index 0 cannot carry a jump mark")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "jump_mask", _readonly(mask))

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def initial_value(self) -> float:
        return float(self.values[0])

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    @property
    def jump_indices(self) -> np.ndarray:
        return np.flatnonzero(self.jump_mask)

    def pre_jump_values(self) -> np.ndarray:
        """Values immediately before each marked jump."""
        idx = self.jump_indices
        return self.values[idx - 1]

    def index_at(self, t: float) -> int:
        """Largest sample index ``i`` with ``times[i] <= t``."""
        t = float(t)
        if not 0.0 <= t <= self.duration:
            raise ValueError(
                f"time {t} outside the sampled horizon [0, {self.duration}]"
            )
        return int(np.searchsorted(self.times, t, side="right") - 1)


def value_at(path: SampledCadlagPath, t: float) -> float:
    """Right-continuous step evaluation of the path at time ``t``."""
    return float(path.values[path.index_at(t)])


def restrict(path: SampledCadlagPath, t: float) -> SampledCadlagPath:
    """The path stopped at ``t``: samples with times at most ``t``."""
    i = path.index_at(t)
    return SampledCadlagPath(
        path.times[: i + 1], path.values[: i + 1], path.jump_mask[: i + 1]
    )


def jump_sizes(path: SampledCadlagPath) -> np.ndarray:
    """Signed sizes of the marked jumps, in time order."""
    idx = path.jump_indices
    return path.values[idx] - path.values[idx - 1]


def total_variation(path: SampledCadlagPath) -> float:
    """Sum of absolute sampled increments."""
    if path.n_samples < 2:
        return 0.0
    return float(np.abs(np.diff(path.values)).sum())


# ---------------------------------------------------------------------------
# partition schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionScheme:
    """A finite sequence of partitions of the sample index range.

    Each partition is a strictly increasing array of sample indices that
    starts at 0 and ends at the final index.  ``refining`` records whether
    every partition's points are contained in the next one's.
    """

    partitions: tuple
    refining: bool = field(init=False)

    def __post_init__(self):
        if len(self.partitions) == 0:
            raise ValueError("a scheme needs at least one partition")
        cleaned = []
        n_last = None
        for arr in self.partitions:
            idx = np.asarray(arr, np.int64)
            if idx.ndim != 1 or idx.size < 2:
                raise ValueError("each partition needs at least two indices")
            if idx[0] != 0:
                raise ValueError("each partition must start at index 0")
            if not np.all(np.diff(idx) > 0):
                raise ValueError("partition indices must be strictly increasing")
            if n_last is None:
                n_last = int(idx[-1])
            elif int(idx[-1]) != n_last:
                raise ValueError("all partitions must end at the same index")
            cleaned.append(_readonly(idx))
        refining = all(
            np.isin(cleaned[i], cleaned[i + 1]).all()
            for i in range(len(cleaned) - 1)
        )
        object.__setattr__(self, "partitions", tuple(cleaned))
        object.__setattr__(self, "refining", bool(refining))

    @property
    def n_levels(self) -> int:
        return len(self.partitions)

    @property
    def last_index(self) -> int:
        return int(self.partitions[0][-1])

    def __getitem__(self, n) -> np.ndarray:
        return self.partitions[n]

    def mesh(self, path: SampledCadlagPath, n: int) -> float:
        """Largest time gap of partition ``n`` on the given path."""
        self._check_path(path)
        return float(np.max(np.diff(path.times[self.partitions[n]])))

    def exhausts_jumps(self, path: SampledCadlagPath, n: int = -1) -> bool:
        """Whether partition ``n`` contains every marked jump index."""
        self._check_path(path)
        return bool(np.isin(path.jump_indices, self.partitions[n]).all())

    def _check_path(self, path: SampledCadlagPath):
        if self.last_index != path.n_samples - 1:
            raise ValueError(
                "partition scheme built for a path with "
                f"{self.last_index + 1} samples, got {path.n_samples}"
            )

    @classmethod
    def dyadic(cls, n_samples: int, exponents, include_jumps=None):
        """One level per exponent ``j``, targeting ``2**j + 1`` points.

        Built by :meth:`uniform`; the power-of-two spreads make increasing
        exponents refine each other exactly.  Each count is capped at
        ``n_samples``: once ``2**j >= n_samples - 1`` the level already
        holds every index.  ``include_jumps`` is as in :meth:`uniform`.
        """
        exponents = [int(j) for j in exponents]
        if not exponents:
            raise ValueError("need at least one level")
        if min(exponents) < 0:
            raise ValueError("dyadic exponents must be >= 0")
        if n_samples < 2:
            raise ValueError("need at least two samples to partition")
        counts = [min(2**j + 1, n_samples) for j in exponents]
        return cls.uniform(n_samples, counts, include_jumps)

    @classmethod
    def uniform(cls, n_samples: int, counts, include_jumps=None):
        """One level per entry of ``counts``, each an even spread of points.

        Points are placed by rounding an even spread of the index range.
        ``include_jumps`` may be a jump-index array (or a path) whose marked
        indices are unioned into every level.
        """
        top = n_samples - 1
        extra = _jump_index_array(include_jumps)
        parts = []
        for c in counts:
            c = int(c)
            if c < 2:
                raise ValueError("each level needs at least two points")
            pts = np.unique(np.rint(np.linspace(0, top, c)).astype(np.int64))
            if extra.size:
                pts = np.union1d(pts, extra[(extra > 0) & (extra <= top)])
            parts.append(pts)
        return cls(tuple(parts))

    @classmethod
    def full(cls, n_samples: int):
        """The single partition using every sample index."""
        return cls((np.arange(n_samples, dtype=np.int64),))

    @classmethod
    def explicit(cls, arrays):
        return cls(tuple(arrays))

    @classmethod
    def from_descriptor(cls, obj, n_samples: int, path=None):
        """Build a scheme from a JSON-style mapping.

        Recognised kinds: ``dyadic`` (fields ``levels``, meaning exponents
        ``1..levels``, optional ``include_jumps``), ``uniform`` (``counts``,
        optional ``include_jumps``), ``explicit`` (``indices``), ``full``.
        """
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError("partition descriptor must be a mapping with a 'kind'")
        kind = obj["kind"]
        jumps = None
        if obj.get("include_jumps"):
            if path is None:
                raise ConfigError(
                    "include_jumps requires the path the scheme is built for"
                )
            jumps = path
        try:
            if kind == "dyadic":
                levels = int(obj["levels"])
                return cls.dyadic(n_samples, range(1, levels + 1), jumps)
            if kind == "uniform":
                return cls.uniform(n_samples, list(obj["counts"]), jumps)
            if kind == "explicit":
                return cls.explicit([np.asarray(a, np.int64) for a in obj["indices"]])
            if kind == "full":
                return cls.full(n_samples)
        except KeyError as exc:
            raise ConfigError(f"partition descriptor missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad partition descriptor: {exc}") from exc
        raise ConfigError(f"unknown partition kind {kind!r}")


def _jump_index_array(include_jumps):
    if include_jumps is None or include_jumps is False:
        return np.empty(0, np.int64)
    if isinstance(include_jumps, SampledCadlagPath):
        return include_jumps.jump_indices.astype(np.int64)
    return np.asarray(include_jumps, np.int64)


# ---------------------------------------------------------------------------
# level grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelGrid:
    """Evenly spaced levels ``u0 + k*du`` for ``k = 0..n_levels-1``.

    Cell ``k`` is the half-open band ``[u_k - du/2, u_k + du/2)``, so a
    value on a cell edge belongs to the cell above it; fields sampled on the
    grid use that convention for mass accounting.  A point mass (an atom of
    a curvature measure) at ``u`` is placed at the nearest level to the
    left, the level ``u_k <= u < u_{k+1}``.  Both lookups rank values
    exactly as ``np.searchsorted`` would on :attr:`edges` and
    :attr:`levels`.
    """

    u0: float
    du: float
    n_levels: int

    def __post_init__(self):
        if not np.isfinite(self.u0):
            raise ValueError("u0 must be finite")
        if not (np.isfinite(self.du) and self.du > 0):
            raise ValueError("du must be positive")
        if self.n_levels < 1:
            raise ValueError("need at least one level")
        object.__setattr__(self, "u0", float(self.u0))
        object.__setattr__(self, "du", float(self.du))
        object.__setattr__(self, "n_levels", int(self.n_levels))

    @property
    def levels(self) -> np.ndarray:
        return self.u0 + self.du * np.arange(self.n_levels)

    @property
    def u_max(self) -> float:
        return self.u0 + self.du * (self.n_levels - 1)

    @property
    def edges(self) -> np.ndarray:
        """The ``n_levels + 1`` cell edges ``u_k - du/2``, then ``u_max + du/2``."""
        return self.u0 + self.du * (np.arange(self.n_levels + 1) - 0.5)

    def cell_index(self, u) -> np.ndarray:
        """Index of the half-open cell containing ``u`` (nearest level)."""
        k = _rank(np.asarray(u, np.float64), self.u0, self.du, True, -0.5) - 1
        if np.any(k < 0) or np.any(k >= self.n_levels):
            raise ValueError("value outside the level grid")
        return k if k.ndim else int(k)

    def left_index(self, u):
        """Index of the nearest level at or left of ``u``, unclipped: ``-1``
        below the first level, ``n_levels`` or more at and above
        ``u_max + du``."""
        k = _rank(np.asarray(u, np.float64), self.u0, self.du, True) - 1
        return k if k.ndim else int(k)

    def atom_index(self, u) -> int:
        """Level of an atom at ``u``: the nearest level at or left of ``u``.

        Raises ``ValueError`` unless ``u0 <= u < u_max + du``, the values
        whose nearest level to the left is on the grid.
        """
        k = self.left_index(float(u))
        if not 0 <= k < self.n_levels:
            raise ValueError(f"atom at {u} outside the level grid")
        return k

    def integrate(self, field_values) -> float:
        """Riemann sum ``du * sum(field)`` of a field sampled on the grid."""
        field_values = np.asarray(field_values, np.float64)
        if field_values.shape[-1] != self.n_levels:
            raise ValueError("field length must match the grid")
        return float(self.du * field_values.sum(axis=-1))

    @classmethod
    def for_path(cls, path: SampledCadlagPath, du: float, margin: float = 0.0):
        """Grid of du-multiples covering the path's range plus a margin."""
        if du <= 0:
            raise ValueError("du must be positive")
        vmin = float(path.values.min()) - margin
        vmax = float(path.values.max()) + margin
        k0 = int(np.floor(vmin / du))
        k1 = int(np.ceil(vmax / du))
        return cls(k0 * du, du, k1 - k0 + 1)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_CSV_HEADER = ["t", "x", "jump", "pre_x"]


def write_path_csv(path: SampledCadlagPath, file) -> None:
    """Write a path as CSV with columns ``t,x,jump,pre_x``.

    ``pre_x`` is empty on unmarked rows and repeats the previous sample value
    on marked rows, which makes jump bookkeeping auditable in the file.
    Floats are rendered with ``%.17g`` so the round trip is exact.
    """
    own = isinstance(file, (str, bytes))
    fh = open(file, "w", newline="") if own else file
    try:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i in range(path.n_samples):
            marked = bool(path.jump_mask[i])
            writer.writerow(
                [
                    "%.17g" % path.times[i],
                    "%.17g" % path.values[i],
                    "1" if marked else "0",
                    ("%.17g" % path.values[i - 1]) if marked else "",
                ]
            )
    finally:
        if own:
            fh.close()


def read_path_csv(file) -> SampledCadlagPath:
    """Read a path written by :func:`write_path_csv`, validating jump rows."""
    own = isinstance(file, (str, bytes))
    fh = open(file, "r", newline="") if own else file
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CSV_HEADER:
            raise ValueError("path csv must start with header 't,x,jump,pre_x'")
        times, values, marks = [], [], []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise ValueError(f"path csv row needs 4 columns, got {len(row)}")
            t, x, jump, pre = (c.strip() for c in row)
            times.append(float(t))
            values.append(float(x))
            if jump not in ("0", "1"):
                raise ValueError(f"jump column must be 0 or 1, got {jump!r}")
            marked = jump == "1"
            marks.append(marked)
            if marked:
                if not pre:
                    raise ValueError("marked rows must carry pre_x")
                if len(values) < 2 or float(pre) != values[-2]:
                    raise ValueError(
                        "pre_x must equal the previous sample value exactly"
                    )
            elif pre:
                raise ValueError("unmarked rows must leave pre_x empty")
        return SampledCadlagPath(
            np.asarray(times), np.asarray(values), np.asarray(marks, bool)
        )
    finally:
        if own:
            fh.close()


def path_to_csv_text(path: SampledCadlagPath) -> str:
    buf = io.StringIO()
    write_path_csv(path, buf)
    return buf.getvalue()


def path_from_csv_text(text: str) -> SampledCadlagPath:
    return read_path_csv(io.StringIO(text))
