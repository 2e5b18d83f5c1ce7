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

import io
import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import _rank, _step_table
from .errors import _finite, _positive, _store, _whole


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
        if mask.size and mask[0]:
            raise ValueError("index 0 cannot carry a jump mark")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "jump_mask", _readonly(mask))

    def _revalued(self, values: np.ndarray) -> SampledCadlagPath:
        """This path's times and jump marks with new float64 ``values`` of
        the same length, which are checked for finiteness and made
        read-only in place; the times and marks, already checked and
        read-only, are shared.  Nothing is copied."""
        if values.shape != self.times.shape:
            raise ValueError("times and values must have equal length")
        if not np.isfinite(values).all():
            raise ValueError("times and values must be finite")
        values.setflags(write=False)
        path = object.__new__(SampledCadlagPath)
        for name, arr in (
            ("times", self.times), ("values", values), ("jump_mask", self.jump_mask)
        ):
            object.__setattr__(path, name, arr)
        return path

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def jump_indices(self) -> np.ndarray:
        return np.flatnonzero(self.jump_mask)

    def index_at(self, t=None) -> int:
        """Largest sample index ``i`` with ``times[i] <= t``; the last index
        when ``t`` is None.  This is where the path is stopped at ``t``."""
        if t is None:
            return self.n_samples - 1
        t = float(t)
        if not 0.0 <= t <= self.duration:
            raise ValueError(
                f"time {t} outside the sampled horizon [0, {self.duration}]"
            )
        return int(np.searchsorted(self.times, t, side="right") - 1)

    def continuous_steps(self, t=None):
        """Left values and increments of the unmarked steps up to ``t``, both
        read-only (the left values are a view when no step is marked)."""
        i_t = self.index_at(t)
        left, inc = self.values[:i_t], np.diff(self.values[: i_t + 1])
        marked = self.jump_mask[1 : i_t + 1]
        if marked.any():
            left, inc = left[~marked], inc[~marked]
        left.setflags(write=False)
        inc.setflags(write=False)
        return left, inc

    def step_table(self, t=None):
        """The left values of the steps up to ``t``, sorted, with prefix
        sums of their increments and squared unmarked increments in that
        order (:func:`_kernels._step_table`), built once per stop index and
        kept on this path only."""
        i_t = self.index_at(t)
        tables = vars(self).setdefault("_step_tables", {})
        if i_t not in tables:
            v = self.values[: i_t + 1]
            tables[i_t] = _step_table(v[:-1], np.diff(v), self.jump_mask[1 : i_t + 1])
        return tables[i_t]

    def jump_brackets(self, t=None):
        """Pre- and post-jump values of the marked jumps up to ``t``."""
        idx = self.jump_indices
        idx = idx[idx <= self.index_at(t)]
        return self.values[idx - 1], self.values[idx]


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
    starts at 0 and ends at the final index.
    """

    partitions: tuple

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
        object.__setattr__(self, "partitions", tuple(cleaned))

    @property
    def n_levels(self) -> int:
        return len(self.partitions)

    @property
    def last_index(self) -> int:
        return int(self.partitions[0][-1])

    def __getitem__(self, n) -> np.ndarray:
        return self.partitions[n]

    def clipped(self, path: SampledCadlagPath, n: int, t=None) -> np.ndarray:
        """Partition ``n`` on the path stopped at ``t``: each point ``t_j``
        becomes the sample index of ``t_j ^ t``."""
        self._check_path(path)
        return np.minimum(self.partitions[n], path.index_at(t))

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

        Points are placed by rounding an even spread of the index range, so
        that increasing exponents refine each other exactly.  Each count is
        capped at ``n_samples``, where the level holds every index; below
        the cap the spread's step is at least 1, so the rounded points are
        distinct.  ``include_jumps`` may be a jump-index array (or a path)
        whose marked indices are unioned into every level.
        """
        exponents = [_whole("dyadic exponents", j) for j in exponents]
        if not exponents:
            raise ValueError("need at least one level")
        if min(exponents) < 0:
            raise ValueError("dyadic exponents must be >= 0")
        n_samples = _whole("n_samples", n_samples)
        if n_samples < 2:
            raise ValueError("need at least two samples to partition")
        top = n_samples - 1
        extra = _jump_index_array(include_jumps)
        extra = extra[(extra > 0) & (extra <= top)]
        parts = []
        for j in exponents:
            # min(j, 62) keeps 2**j small: 2**62 + 1 points cap at any count
            count = min(2 ** min(j, 62) + 1, n_samples)
            pts = np.rint(np.linspace(0, top, count)).astype(np.int64)
            if extra.size:
                keep = np.zeros(n_samples, bool)
                keep[pts] = True
                keep[extra] = True
                pts = np.flatnonzero(keep)
            parts.append(pts)
        return cls(tuple(parts))

    @classmethod
    def full(cls, n_samples: int):
        """The single partition using every sample index."""
        n_samples = _whole("n_samples", n_samples)
        return cls((np.arange(n_samples, dtype=np.int64),))

    @classmethod
    def explicit(cls, arrays):
        return cls(tuple(arrays))


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
    left, the level ``u_k <= u < u_{k+1}``, ranked exactly as
    ``np.searchsorted`` would rank it on :attr:`levels`.
    """

    u0: float
    du: float
    n_levels: int

    def __post_init__(self):
        _store(self, _finite, "u0")
        _store(self, _whole, "n_levels")
        if self.n_levels < 1:
            raise ValueError("need at least one level")
        _store(self, _positive, "du")

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

    @classmethod
    def for_path(cls, path: SampledCadlagPath, du: float, margin: float = 0.0):
        """Grid of du-multiples covering the path's range plus a margin."""
        du = _positive("du", du)
        margin = _positive("margin", margin, zero=True)
        vmin = float(path.values.min()) - margin
        vmax = float(path.values.max()) + margin
        k0 = int(np.floor(vmin / du))
        k1 = int(np.ceil(vmax / du))
        return cls(k0 * du, du, k1 - k0 + 1)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_CSV_HEADER = ["t", "x", "jump", "pre_x"]


def _fmt(value) -> str:
    """A float as text with 17 significant digits, enough to read back the
    same double."""
    return "%.17g" % float(value)


# Rows that _write_table formats with one % call: whole formatted columns
# would cost megabytes of peak memory at 2^14 rows.
_BLOCK_ROWS = 1024


def _write_table(file, header, columns):
    """Write ``header``, then row ``i`` of each of the equal-length
    ``columns`` to a filename or an open text file, lines ending in
    ``\\r\\n``.

    A column that is an ndarray is written as its floats in row-major
    order, each as :func:`_fmt` text; any other column is a sequence of
    ``str``.  Rows are formatted a block at a time.  A cell that would need
    quoting (one that holds ``,``, ``"``, ``\\r`` or ``\\n``, or the empty
    only cell of a row) raises ``ValueError``: the writer never quotes.
    """
    if isinstance(file, (str, bytes)):
        with open(file, "w", newline="") as fh:
            return _write_table(fh, header, columns)
    k = len(header)
    columns = [np.ravel(np.asarray(c, np.float64)) if isinstance(c, np.ndarray)
               else c for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != k or any(len(c) != n for c in columns):
        raise ValueError(f"need {k} columns of equal length")
    row = ",".join(
        "%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns
    ) + "\r\n"
    file.write(_checked(",".join(header) + "\r\n", k, 1))
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        cells = [None] * (k * (e - s))
        for i, c in enumerate(columns):
            cells[i::k] = c[s:e].tolist() if isinstance(c, np.ndarray) else c[s:e]
        file.write(_checked(row * (e - s) % tuple(cells), k, e - s))


def _checked(text, k, rows):
    """``text``, ``rows`` rows of ``k`` cells each, unless a cell holds a
    character that ``csv.writer`` would quote, or a one-cell row is empty."""
    if (text.count(",") != (k - 1) * rows or text.count("\n") != rows
            or text.count("\r") != rows or '"' in text
            or k == 1 and "\n\r" in "\n" + text):
        raise ValueError("a table cell needs quoting: it holds ',', '\"', "
                         "'\\r' or '\\n', or is the empty only cell of a row")
    return text


def write_path_csv(path: SampledCadlagPath, file) -> None:
    """Write a path as CSV with columns ``t,x,jump,pre_x``.

    ``pre_x`` is empty on unmarked rows and repeats the previous sample value
    on marked rows, which makes jump bookkeeping auditable in the file.
    Floats are written as :func:`_fmt` text, so the round trip is exact.
    """
    jump, pre = ["0"] * path.n_samples, [""] * path.n_samples
    for i in path.jump_indices.tolist():
        jump[i], pre[i] = "1", _fmt(path.values[i - 1])
    _write_table(file, _CSV_HEADER, [path.times, path.values, jump, pre])


# Characters per block of rows that read_path_csv converts at once: about
# 1,100 rows of write_path_csv, so the block's cell strings stay small next
# to the path's own arrays.
_BLOCK_CHARS = 1 << 16


def _floats(cells):
    """The cells parsed by ``float``, so any text ``float`` takes is read."""
    return np.fromiter(map(float, cells), np.float64, len(cells))


def _block_columns(text, prev):
    """Times, values and jump marks of the rows of ``text`` (joined by
    ``"\\n"``), or None when a row breaks a rule, is blank or pads its jump
    or ``pre_x`` cell.  ``prev`` is the value of the row before the block
    (None at the first row); ``float`` strips the ``t`` and ``x`` cells."""
    n = text.count("\n") + 1
    # one "\n" cell after each row: every row has 4 cells iff the "\n" cells
    # are exactly every fifth
    cells = text.replace("\n", ",\n,").split(",")
    if len(cells) != 5 * n - 1 or cells[4::5].count("\n") != n - 1:
        return None
    jump, pre = cells[2::5], cells[3::5]
    if jump.count("0") + jump.count("1") != n:
        return None
    marks = np.frombuffer("".join(jump).encode(), np.uint8) == ord("1")
    marked = np.flatnonzero(marks)
    given = [pre[i] for i in marked.tolist()]
    if pre.count("") != n - len(given) or not all(given):
        return None
    try:
        t, x, pre_x = _floats(cells[0::5]), _floats(cells[1::5]), _floats(given)
    except ValueError:
        return None
    before = np.concatenate(([np.nan if prev is None else prev], x[:-1]))
    if not np.array_equal(pre_x, before[marked]):
        return None
    return t, x, marks


def _text_blocks(fh):
    """The text of ``fh`` in blocks of whole lines, every line end ``\\n``.

    Blocks are reads of ``_BLOCK_CHARS`` characters, the partial last line
    carried over to the next block.  A file that :func:`read_path_csv`
    opens itself reads with universal newlines; text from a file object the
    caller passes may still end lines in ``\\r\\n`` or ``\\r``.
    """
    part = []  # the start of a line that no read has ended yet
    cr = ""  # a "\r" that ended the last read, perhaps half of a "\r\n"
    while chunk := fh.read(_BLOCK_CHARS):
        if cr or "\r" in chunk:
            chunk, cr = cr + chunk, ""
            if chunk.endswith("\r"):
                chunk, cr = chunk[:-1], "\r"
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join([*part, chunk[:cut]])
            part = []
        part.append(chunk[cut:])
    if rest := "".join(part) + ("\n" if cr else ""):
        yield rest


def _row_columns(rows, prev):
    """Times, values and jump marks of ``rows`` checked one by one, blank
    rows skipped.  Raises the ``ValueError`` of the first row that breaks a
    rule of :func:`read_path_csv`, in the order: column count, ``t`` and
    ``x`` parse, jump flag, ``pre_x`` on marked rows and equal to the
    previous value, ``pre_x`` empty on unmarked rows."""
    t, x, marks = [], [], []
    for row in rows:
        cells = [c.strip() for c in row.split(",")]
        if not any(cells):
            continue
        if len(cells) != 4:
            raise ValueError(f"path csv row needs 4 columns, got {len(cells)}")
        t.append(float(cells[0]))  # a bad t raises before a bad x
        value, jump, pre = float(cells[1]), cells[2], cells[3]
        if jump not in ("0", "1"):
            raise ValueError(f"jump column must be 0 or 1, got {jump!r}")
        if jump == "1":
            if not pre:
                raise ValueError("marked rows must carry pre_x")
            if prev is None or float(pre) != prev:
                raise ValueError(
                    "pre_x must equal the previous sample value exactly"
                )
        elif pre:
            raise ValueError("unmarked rows must leave pre_x empty")
        x.append(value)
        marks.append(jump == "1")
        prev = value
    return np.array(t, np.float64), np.array(x, np.float64), np.array(marks, bool)


def read_path_csv(file) -> SampledCadlagPath:
    """Read a path written by :func:`write_path_csv`, validating jump rows.

    ``file`` is a filename or an open text file.  The first row must be the
    header ``t,x,jump,pre_x``.  Rows may end in ``\\n``, ``\\r\\n`` or ``\\r``;
    cells may be padded with whitespace, and blank rows are skipped.  Cells
    are split on every comma: quoted cells, which the writer never emits,
    are not unquoted and fail as bad input.  Rows are converted a block at a
    time, a column at once; a block that does not pass at once (a faulty,
    blank or padded row) is read row by row, so the ``ValueError`` names
    the first faulty row of the file.
    """
    own = isinstance(file, (str, bytes))
    fh = open(file) if own else file
    try:
        texts = _text_blocks(fh)
        header, _, text = next(texts, "").partition("\n")
        if [h.strip() for h in header.split(",")] != _CSV_HEADER:
            raise ValueError("path csv must start with header 't,x,jump,pre_x'")
        blocks, prev = [], None
        for text in itertools.chain([text], texts):
            text = text.removesuffix("\n")
            columns = _block_columns(text, prev)
            if columns is None:
                columns = _row_columns(text.split("\n"), prev)
                if not columns[0].size:
                    continue
            blocks.append(columns)
            prev = columns[1][-1]
        if not blocks:
            return SampledCadlagPath(np.empty(0), np.empty(0))
        return SampledCadlagPath(*map(np.concatenate, zip(*blocks)))
    finally:
        if own:
            fh.close()


def path_to_csv_text(path: SampledCadlagPath) -> str:
    buf = io.StringIO()
    write_path_csv(path, buf)
    return buf.getvalue()
