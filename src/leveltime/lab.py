"""Seeded path generators, the classical local-time reference, the
Q-statistic, and the Monte Carlo convergence harness.

Reproducibility contract: a (spec, seed) pair generates the identical path
bit for bit.  Every batch of paths generates path ``i`` from child seed
``i`` of one root SeedSequence (:func:`_path_seeds`), so
``generate_many(cfg.generator, cfg.n_paths, seed=cfg.seed)`` returns
exactly the paths that ``run_convergence_experiment(cfg)`` draws; results
reduce in path order, so reports do not depend on scheduling.

:class:`ExperimentConfig` holds every default and stores the values it
checked (a string or a boolean is never a number), and :func:`_estimator`
decides all that an estimator needs: grid margin, partition schemes, J
field, reference field and one field per ladder level.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .crossing import (
    LocalTimeField,
    _eval_time,
    j_pi,
    k_pi,
    occupation_local_time,
    split_Kc_Kd,
)
from .dcfuncs import SecondDerivativeMeasure, dc_function_from_descriptor
from .errors import (
    ConfigError, InvariantViolation, _boolean, _exponent, _finite, _integer,
    _number, _positive, _refuse_unknown, _store, _whole,
)
from .paths import LevelGrid, PartitionScheme, SampledCadlagPath
from .skorokhod import crossing_count_field, interval_crossing_local_time

# The parameters each generator kind reads besides T, steps_per_unit, seed
# and x0; the random kinds are presets of one Euler-plus-jumps generator.
_KIND_FIELDS = {
    "brownian": ("sigma",),
    "brownian_drift": ("sigma", "mu"),
    "compound_poisson": ("mu", "jump_rate", "jump_low", "jump_high"),
    "jump_diffusion": ("sigma", "mu", "jump_rate", "jump_low", "jump_high"),
    "deterministic_test": ("pattern", "amplitude", "n_jumps"),
}
GENERATOR_KINDS = tuple(_KIND_FIELDS)

_PATTERNS = ("ramp", "zigzag", "constant", "jump_ladder")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a seeded path generator."""

    kind: str
    T: float = 1.0
    steps_per_unit: int = 1024
    seed: int = 0
    sigma: float = 1.0
    mu: float = 0.0
    jump_rate: float = 0.0
    jump_low: float = -1.0
    jump_high: float = 1.0
    x0: float = 0.0
    pattern: str = "ramp"
    amplitude: float = 1.0
    n_jumps: int = 4

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        _store(self, _positive, "T")
        _store(self, _whole, "steps_per_unit")
        if self.n_steps < 2:
            raise ValueError("need at least 2 steps over the horizon")
        _store(self, _positive, "sigma", "jump_rate", zero=True)
        _store(self, _finite, "mu", "jump_low", "jump_high", "x0", "amplitude")
        if self.jump_low > self.jump_high:
            raise ValueError("jump size bounds out of order")
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown deterministic pattern {self.pattern!r}")
        _store(self, _integer, "seed", "n_jumps")
        if self.n_jumps < 0:
            raise ValueError("n_jumps must be nonnegative")

    @property
    def n_steps(self) -> int:
        """Steps of every path of this spec: ``n_steps + 1`` samples."""
        return int(round(self.T * self.steps_per_unit))

    def effective(self):
        """(sigma, mu, jump_rate) actually used for this kind: 0.0 for each
        one the kind does not read."""
        reads = _KIND_FIELDS[self.kind]
        return tuple(getattr(self, name) if name in reads else 0.0
                     for name in ("sigma", "mu", "jump_rate"))


def _deterministic_path(spec: GeneratorSpec) -> SampledCadlagPath:
    n = spec.n_steps
    times = np.linspace(0.0, spec.T, n + 1)
    if spec.pattern == "ramp":
        values = spec.x0 + spec.amplitude * times / spec.T
        return SampledCadlagPath(times, values)
    if spec.pattern == "constant":
        return SampledCadlagPath(times, np.full(n + 1, spec.x0))
    if spec.pattern == "zigzag":
        frac = 4.0 * times / spec.T
        tri = 1.0 - np.abs(np.mod(frac, 2.0) - 1.0)
        return SampledCadlagPath(times, spec.x0 + spec.amplitude * tri)
    # jump_ladder: marked jumps of alternating sign, flat in between
    values = np.full(n + 1, spec.x0)
    mask = np.zeros(n + 1, bool)
    k = min(spec.n_jumps, n)
    level = spec.x0
    for j in range(k):
        # in [1, n], since k <= n and n >= 2
        idx = int(round((j + 1) * n / (k + 1.0)))
        level = level + spec.amplitude * (1.0 if j % 2 == 0 else -1.0)
        values[idx:] = level
        mask[idx] = True
    return SampledCadlagPath(times, values, mask)


def generate(spec: GeneratorSpec, rng=None) -> SampledCadlagPath:
    """Realize one path: Euler skeleton plus grid-snapped marked jumps.

    Jump times snap to the right endpoint of their grid step, and a marked
    step carries only the jump sum (its continuous increment is dropped), so
    the pre-jump value is exactly the previous sample.  ``rng`` is a numpy
    Generator or a seed to make one from, such as a ``SeedSequence``; None
    takes ``spec.seed``.
    """
    if spec.kind == "deterministic_test":
        return _deterministic_path(spec)
    rng = np.random.default_rng(spec.seed if rng is None else rng)
    sigma, mu, lam = spec.effective()
    n = spec.n_steps
    dt = spec.T / n
    times = np.linspace(0.0, spec.T, n + 1)
    if sigma > 0:
        inc = sigma * np.sqrt(dt) * rng.standard_normal(n) + mu * dt
    else:
        inc = np.full(n, mu * dt)
    mask = np.zeros(n + 1, bool)
    if lam > 0:
        n_jumps = int(rng.poisson(lam * spec.T))
        if n_jumps > 0:
            u = rng.uniform(0.0, spec.T, n_jumps)
            sizes = rng.uniform(spec.jump_low, spec.jump_high, n_jumps)
            idx = np.floor(u / dt).astype(np.int64) + 1
            np.clip(idx, 1, n, out=idx)
            jump_sum = np.bincount(idx, sizes, n + 1)
            mask[idx] = True
            inc[mask[1:]] = jump_sum[1:][mask[1:]]
    values = np.concatenate([[spec.x0], spec.x0 + np.cumsum(inc)])
    return SampledCadlagPath(times, values, mask)


def _path_seeds(seed, n_paths):
    """The seeds of every batch of paths, one per path: the child seeds of
    one root ``SeedSequence(seed)``."""
    root = np.random.SeedSequence(_integer("seed", seed))
    return root.spawn(_whole("n_paths", n_paths))


def generate_many(spec: GeneratorSpec, n_paths: int, seed=None):
    """List of independent paths from per-path child seeds of one root."""
    seed = spec.seed if seed is None else seed
    return [generate(spec, child) for child in _path_seeds(seed, n_paths)]


# ---------------------------------------------------------------------------
# classical local time (Tanaka route on the full grid)
# ---------------------------------------------------------------------------

def classical_local_time(
    path: SampledCadlagPath, t=None, *, grid: LevelGrid
) -> LocalTimeField:
    """Tanaka local time on the full sample grid, per level:
    |x_t - u| - |x_0 - u| - sum sign(x_j - u) (clipped increment) - 2 J(u),
    with the left-continuous sign(0) = -1, floored at zero.

    In exact arithmetic the raw sum is ``2 (K_full - J) >= 0`` at every
    level; the floor removes float rounding only, which on large-amplitude
    paths can exceed the field's own tolerance for negative values.
    """
    levels = grid.levels
    ranked, prefix = path.step_table(t)
    signed = _kernels.signed_increment_sum(
        ranked, prefix[0], grid.u0, grid.du, grid.n_levels
    )
    jf = j_pi(path, t=t, grid=grid, mode="point")
    raw = (
        np.abs(path.values[path.index_at(t)] - levels)
        - np.abs(path.values[0] - levels)
        - signed
        - 2.0 * jf.data
    )
    return LocalTimeField(grid, jf.time, np.maximum(raw, 0.0), "L_classical")


# ---------------------------------------------------------------------------
# Q-statistic
# ---------------------------------------------------------------------------

def q_statistic(
    path: SampledCadlagPath,
    t=None,
    *,
    grid: LevelGrid,
    d: float,
    classical: Optional[LocalTimeField] = None,
) -> float:
    """Integrated crossing-versus-occupation defect ``int |Q^{z,d}| dz``.

    Q^{z,d} = d n^{z,d} - (1/d) int_{z-d/2}^{z+d/2} local time du, with the
    inner integral trapezoidal over grid levels inside the window and the
    outer integral restricted to levels whose window fits inside the grid.
    ``classical`` is the path's classical local time on ``grid``, built
    when None.
    """
    d = _positive("d", d)
    if d < 2.0 * grid.du:
        raise ValueError(
            f"window width {d} is below twice the grid spacing {grid.du}"
        )
    if classical is None:
        classical = classical_local_time(path, t=t, grid=grid)
    if classical.grid != grid:
        raise ValueError("classical lives on a different level grid")
    if classical.time != _eval_time(path, t):
        raise ValueError("classical must be evaluated at time t")
    ell = classical.data
    du = grid.du
    prefix = np.concatenate(
        [[0.0], np.cumsum(0.5 * (ell[:-1] + ell[1:]) * du)]
    )
    levels = grid.levels
    hw = 0.5 * d
    tiny = 1e-9 * du
    counts = crossing_count_field(path, grid, d, t=t)
    lo_idx = np.searchsorted(levels, levels - hw - tiny, side="left")
    hi_idx = np.searchsorted(levels, levels + hw + tiny, side="right") - 1
    valid = (levels - hw >= grid.u0 - tiny) & (levels + hw <= grid.u_max + tiny)
    if not np.any(valid):
        raise ValueError("no level has a full window inside the grid")
    inner = prefix[hi_idx[valid]] - prefix[lo_idx[valid]]
    q = d * counts[valid] - inner / d
    return float(du * np.abs(q).sum())


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def lp_distance(a, b, p: float = 1.0, weight=None, *, zero_off_grid=False):
    """L^p distance of two fields on one grid, optionally in L^p(|f''|(du)).

    With no weight the measure is du times Lebesgue counting on levels.
    A :class:`SecondDerivativeMeasure` weight contributes exact per-cell
    density masses plus absolute atom weights at their nearest-left cells.
    An atom off the grid and a weight without mass on it are refused, unless
    ``zero_off_grid`` says that both fields vanish beyond the grid: such
    mass then counts as nothing.  A weight without atom and density is
    always refused.
    """
    grid = a.grid
    if b.grid != grid:
        raise ValueError("fields live on different level grids")
    if _exponent(p) is None:
        raise ValueError(f"p must be finite and at least 1, got {p!r}")
    diff = np.abs(a.data - b.data)
    if weight is None:
        return float((diff**p).sum() * grid.du) ** (1.0 / p)
    if not isinstance(weight, SecondDerivativeMeasure):
        raise ValueError("weight must be a SecondDerivativeMeasure")
    masses = np.abs(weight.cell_masses(grid))
    for loc, w in weight.atoms:
        if zero_off_grid and not 0 <= grid.left_index(loc) < grid.n_levels:
            continue
        masses[grid.atom_index(loc)] += abs(w)
    if not masses.any():
        if zero_off_grid and (weight.atoms or weight.density is not None):
            return 0.0
        raise ValueError("weight has no mass on the level grid")
    return float((diff**p * masses).sum()) ** (1.0 / p)


# ---------------------------------------------------------------------------
# convergence experiments
# ---------------------------------------------------------------------------

ESTIMATORS = ("K_pi", "occupation", "interval_crossing")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a convergence experiment needs, JSON-serializable."""

    generator: GeneratorSpec
    estimator: str
    ladder: tuple
    n_paths: int
    seed: int
    grid_du: float = 0.02
    grid_margin: float = 1.0
    t: Optional[float] = None
    distance_p: float = 1.0
    distance_weight: Optional[SecondDerivativeMeasure] = None
    field_mode: str = "point"
    include_jumps: bool = False

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if isinstance(self.ladder, str):
            raise ValueError(f"ladder must be a list, got {self.ladder!r}")
        if len(self.ladder) == 0:
            raise ValueError("ladder must be nonempty")
        if self.estimator == "K_pi":
            ladder = tuple(_whole("dyadic exponents", v) for v in self.ladder)
            if any(v < 1 for v in ladder):
                raise ValueError("dyadic exponents must be >= 1")
            if any(b <= a for a, b in zip(ladder[:-1], ladder[1:])):
                raise ValueError("dyadic ladder must increase")
        else:
            ladder = tuple(_positive("widths", v) for v in self.ladder)
            if any(b >= a for a, b in zip(ladder[:-1], ladder[1:])):
                raise ValueError("width ladder must decrease")
        object.__setattr__(self, "ladder", ladder)
        _store(self, _whole, "n_paths")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        _store(self, _integer, "seed")
        _store(self, _positive, "grid_du")
        _store(self, _positive, "grid_margin", zero=True)
        p = _exponent(self.distance_p)
        if p is None:
            raise ValueError("distance p must be finite and at least 1")
        object.__setattr__(self, "distance_p", p)
        if self.t is not None:
            _store(self, _number, "t")
        if self.field_mode not in ("point", "cell"):
            raise ValueError("field_mode must be 'point' or 'cell'")
        _boolean("include_jumps", self.include_jumps)
        weight = self.distance_weight
        if not (weight is None or isinstance(weight, SecondDerivativeMeasure)):
            raise ValueError("distance_weight must be None or a "
                             f"SecondDerivativeMeasure, got {weight!r}")


@dataclass(frozen=True)
class ExperimentRow:
    level: str
    n_paths: int
    mean: float
    se: float
    wall_clock: float


@dataclass(frozen=True)
class ExperimentReport:
    """Per-ladder-level summary plus the per-path distance matrix."""

    config: ExperimentConfig
    levels: tuple
    distances: np.ndarray
    wall_clocks: tuple

    @property
    def means(self) -> np.ndarray:
        return self.distances.mean(axis=0)

    @property
    def standard_errors(self) -> np.ndarray:
        n = self.distances.shape[0]
        if n < 2:
            return np.zeros(self.distances.shape[1])
        return self.distances.std(axis=0, ddof=1) / np.sqrt(n)

    @property
    def rows(self):
        means = self.means
        ses = self.standard_errors
        return tuple(
            ExperimentRow(
                level=str(self.levels[k]),
                n_paths=self.distances.shape[0],
                mean=float(means[k]),
                se=float(ses[k]),
                wall_clock=float(self.wall_clocks[k]),
            )
            for k in range(len(self.levels))
        )


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("LOCALTIME_THREADS", "")
    if cap.strip():
        try:
            limit = max(1, int(cap))
        except ValueError as exc:
            raise ConfigError(
                f"LOCALTIME_THREADS must be an integer, got {cap!r}"
            ) from exc
    else:
        limit = os.cpu_count() or 1
    return max(1, min(n_jobs, limit))


def _estimator(config: ExperimentConfig):
    """The level-grid margin that ``config``'s fields need beyond a path's
    range, and ``fields(path, grid)``, which yields the path's reference
    field, then one estimator field per ladder level, each built only when
    asked for, so that each build can be charged to its ladder level.

    The reference is the pointwise Tanaka route, but a cell-mode K_pi
    ladder compares against its exact per-cell average, in closed form
    through the full-grid identity raw local time = 2 (K - J) with the
    ladder's own J field.  Every path of the spec has the same samples, so
    the partition schemes are built once, unless the ladder takes in each
    path's own jumps.
    """
    t, mode, ladder = config.t, config.field_mode, config.ladder
    if config.estimator != "K_pi":
        def fields(path, grid):
            yield classical_local_time(path, t=t, grid=grid)
            for w in ladder:
                if config.estimator == "occupation":
                    yield occupation_local_time(path, t=t, bandwidth=w, grid=grid)
                else:
                    yield interval_crossing_local_time(path, t=t, width=w, grid=grid)

        return max(config.grid_margin, max(ladder) + config.grid_du), fields

    n_samples = config.generator.n_steps + 1
    full = PartitionScheme.full(n_samples) if mode == "cell" else None
    shared = None if config.include_jumps else PartitionScheme.dyadic(n_samples, ladder)

    def fields(path, grid):
        jf = j_pi(path, t=t, grid=grid, mode=mode)
        scheme = shared or PartitionScheme.dyadic(n_samples, ladder, include_jumps=path)
        if full is None:
            yield classical_local_time(path, t=t, grid=grid)
        else:
            kf = k_pi(path, full, 0, t=t, grid=grid, mode="cell")
            yield split_Kc_Kd(kf, jf)[1]
        for k in range(len(ladder)):
            kf = k_pi(path, scheme, k, t=t, grid=grid, mode=mode)
            yield split_Kc_Kd(kf, jf)[1]

    return config.grid_margin, fields


def run_convergence_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Mean +- SE of the estimator-to-reference distance per ladder level.

    Paths are generated from per-path child seeds, as in
    :func:`generate_many`; the reduction is an ordered fill of a
    preallocated matrix, so the report is deterministic for a given config
    regardless of thread scheduling.
    """
    margin, fields = _estimator(config)
    n_levels = len(config.ladder)

    def job(seed):
        path = generate(config.generator, seed)
        built = fields(path, LevelGrid.for_path(path, config.grid_du, margin))
        ref = next(built)
        row, clock = np.empty(n_levels), np.zeros(n_levels)
        tick = time.perf_counter()
        for k, fld in enumerate(built):
            # the grid covers where each field is nonzero (within rounding)
            row[k] = lp_distance(
                fld, ref, p=config.distance_p, weight=config.distance_weight,
                zero_off_grid=True,
            )
            now = time.perf_counter()
            clock[k] = now - tick
            tick = now
        return row, clock

    distances = np.empty((config.n_paths, n_levels))
    clocks = np.zeros(n_levels)
    seeds = _path_seeds(config.seed, config.n_paths)
    workers = _worker_count(config.n_paths)
    # the pool starts no thread until a job is submitted, so one worker
    # runs every path inline
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = map if workers == 1 else pool.map
        for i, (row, clock) in enumerate(run(job, seeds)):
            distances[i] = row
            clocks += clock
    if not np.all(np.isfinite(distances)):
        raise InvariantViolation("non-finite distance in experiment run")
    if np.any(distances < 0):
        raise InvariantViolation("negative distance in experiment run")
    return ExperimentReport(
        config=config,
        levels=tuple(str(v) for v in config.ladder),
        distances=distances,
        wall_clocks=tuple(float(c) for c in clocks),
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def generator_spec_from_json(obj) -> GeneratorSpec:
    """The :class:`GeneratorSpec` of a JSON descriptor, whose keys are
    ``kind``, ``T``, ``steps_per_unit``, ``seed``, ``x0`` and the parameters
    its kind reads; any other key is refused."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("generator descriptor must be a mapping with a 'kind'")
    kind = obj["kind"]
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"bad generator descriptor: unknown generator kind {kind!r}")
    own = ("kind", "T", "steps_per_unit", "seed", "x0", *_KIND_FIELDS[kind])
    _refuse_unknown(obj, own, f"generator fields for kind {kind!r}")
    try:
        return GeneratorSpec(**obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad generator descriptor: {exc}") from exc


def experiment_config_from_json(obj) -> ExperimentConfig:
    """The :class:`ExperimentConfig` of a JSON descriptor, whose keys are
    the config's fields, with ``paths`` for ``n_paths``, a ``distance``
    mapping of ``p`` and ``weight``, and ``field_mode`` and ``include_jumps``
    for ``K_pi`` only; a key left out keeps the config's default."""
    if not isinstance(obj, dict):
        raise ConfigError("experiment config must be a mapping")
    required = {"generator", "estimator", "ladder", "paths", "seed"}
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"experiment config missing fields: {sorted(missing)}")
    estimator = obj["estimator"]
    if estimator not in ESTIMATORS:
        raise ConfigError(f"bad experiment config: unknown estimator {estimator!r}")
    renamed = {"n_paths": "paths", "distance_p": "distance",
               "distance_weight": "distance"}
    keys = {renamed.get(f.name, f.name) for f in dataclasses.fields(ExperimentConfig)}
    if estimator != "K_pi":
        keys -= {"field_mode", "include_jumps"}
    _refuse_unknown(obj, keys)
    fields = dict(obj, generator=generator_spec_from_json(obj["generator"]))
    dist = fields.pop("distance", None)
    if dist is not None:
        if not isinstance(dist, dict):
            raise ConfigError(f"config 'distance' must be a mapping, got {dist!r}")
        _refuse_unknown(dist, ("p", "weight"), "distance keys")
        if "p" in dist:
            fields["distance_p"] = dist["p"]
        if dist.get("weight") is not None:
            wdesc = dc_function_from_descriptor(dist["weight"])
            fields["distance_weight"] = wdesc.second_derivative
    if "include_jumps" in obj:
        _boolean("config 'include_jumps'", obj["include_jumps"], ConfigError)
    for key in ("paths", "seed"):
        _integer(f"config {key!r}", obj[key], ConfigError)
    fields["n_paths"] = fields.pop("paths")
    try:
        return ExperimentConfig(**fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
