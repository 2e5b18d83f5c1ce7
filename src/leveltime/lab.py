"""Seeded path generators, the classical local-time reference, the
Q-statistic, and the Monte Carlo convergence harness.

Reproducibility contract: a (spec, seed) pair generates the identical path
bit for bit; experiments spawn one child seed per path from a root
SeedSequence and reduce results in path order, so reports do not depend on
scheduling.
"""

from __future__ import annotations

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
from .errors import ConfigError, InvariantViolation, _refuse_unknown
from .paths import (
    LevelGrid,
    PartitionScheme,
    SampledCadlagPath,
    _positive,
    _whole,
)
from .skorokhod import crossing_count_field, interval_crossing_local_time

GENERATOR_KINDS = (
    "brownian",
    "brownian_drift",
    "compound_poisson",
    "jump_diffusion",
    "deterministic_test",
)

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
        object.__setattr__(self, "T", _positive("T", self.T))
        if round(self.T * self.steps_per_unit) < 2:
            raise ValueError("need at least 2 steps over the horizon")
        for name in ("sigma", "jump_rate"):
            value = _positive(name, getattr(self, name), zero=True)
            object.__setattr__(self, name, value)
        for name in ("mu", "jump_low", "jump_high", "x0", "amplitude"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.jump_low > self.jump_high:
            raise ValueError("jump size bounds out of order")
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown deterministic pattern {self.pattern!r}")
        for name in ("seed", "n_jumps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_jumps < 0:
            raise ValueError("n_jumps must be nonnegative")

    def effective(self):
        """(sigma, mu, jump_rate) actually used for this kind."""
        if self.kind == "brownian":
            return self.sigma, 0.0, 0.0
        if self.kind == "brownian_drift":
            return self.sigma, self.mu, 0.0
        if self.kind == "compound_poisson":
            return 0.0, self.mu, self.jump_rate
        if self.kind == "jump_diffusion":
            return self.sigma, self.mu, self.jump_rate
        return 0.0, 0.0, 0.0


def _deterministic_path(spec: GeneratorSpec) -> SampledCadlagPath:
    n = int(round(spec.T * spec.steps_per_unit))
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
        idx = int(round((j + 1) * n / (k + 1.0)))
        idx = max(1, min(idx, n))
        level = level + spec.amplitude * (1.0 if j % 2 == 0 else -1.0)
        values[idx:] = level
        mask[idx] = True
    return SampledCadlagPath(times, values, mask)


def generate(spec: GeneratorSpec, rng=None) -> SampledCadlagPath:
    """Realize one path: Euler skeleton plus grid-snapped marked jumps.

    Jump times snap to the right endpoint of their grid step, and a marked
    step carries only the jump sum (its continuous increment is dropped), so
    the pre-jump value is exactly the previous sample.
    """
    if spec.kind == "deterministic_test":
        return _deterministic_path(spec)
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    sigma, mu, lam = spec.effective()
    n = int(round(spec.T * spec.steps_per_unit))
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
            jump_sum = np.zeros(n + 1)
            np.add.at(jump_sum, idx, sizes)
            hit = np.zeros(n + 1, bool)
            hit[idx] = True
            inc = inc.copy()
            inc[hit[1:]] = jump_sum[1:][hit[1:]]
            mask = hit
    values = np.concatenate([[spec.x0], spec.x0 + np.cumsum(inc)])
    return SampledCadlagPath(times, values, mask)


def generate_many(spec: GeneratorSpec, n_paths: int, seed=None):
    """List of independent paths from per-path child seeds of one root."""
    root = np.random.SeedSequence(spec.seed if seed is None else seed)
    return [
        generate(spec, np.random.default_rng(child))
        for child in root.spawn(_whole(n_paths, "n_paths"))
    ]


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
    vals = path.values[: path.index_at(t) + 1]
    if vals.size > 1:
        signed = _kernels.signed_increment_sum(
            vals[:-1], np.diff(vals), grid.u0, grid.du, grid.n_levels
        )
    else:
        signed = np.zeros(grid.n_levels)
    jf = j_pi(path, t=t, grid=grid, mode="point")
    raw = (
        np.abs(vals[-1] - levels)
        - np.abs(vals[0] - levels)
        - signed
        - 2.0 * jf.data
    )
    return LocalTimeField(grid, jf.time, np.maximum(raw, 0.0), "L_classical")


def mass_consistency(path: SampledCadlagPath, grid: LevelGrid, t=None):
    """(local-time mass, unmarked squared-increment sum, relative gap)."""
    mass = classical_local_time(path, t=t, grid=grid).mass
    qv_c = float((path.continuous_steps(t)[1] ** 2).sum())
    gap = abs(mass - qv_c) / qv_c if qv_c > 0 else abs(mass)
    return mass, qv_c, gap


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

def lp_distance(a, b, p: float = 1.0, weight=None):
    """L^p distance of two fields on one grid, optionally in L^p(|f''|(du)).

    With no weight the measure is du times Lebesgue counting on levels.
    A :class:`SecondDerivativeMeasure` weight contributes exact per-cell
    density masses plus absolute atom weights at their nearest-left cells.
    """
    grid = a.grid
    if b.grid != grid:
        raise ValueError("fields live on different level grids")
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and at least 1, got {p}")
    diff = np.abs(a.data - b.data)
    if weight is None:
        return float((diff**p).sum() * grid.du) ** (1.0 / p)
    if not isinstance(weight, SecondDerivativeMeasure):
        raise ValueError("weight must be a SecondDerivativeMeasure")
    masses = np.abs(weight.cell_masses(grid))
    for loc, w in weight.atoms:
        masses[grid.atom_index(loc)] += abs(w)
    if not masses.any():
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
        if len(self.ladder) == 0:
            raise ValueError("ladder must be nonempty")
        if self.estimator == "K_pi":
            ladder = tuple(_whole(v, "dyadic exponents") for v in self.ladder)
            if any(v < 1 for v in ladder):
                raise ValueError("dyadic exponents must be >= 1")
            if any(b <= a for a, b in zip(ladder[:-1], ladder[1:])):
                raise ValueError("dyadic ladder must increase")
        else:
            ladder = tuple(_positive("widths", v) for v in self.ladder)
            if any(b >= a for a, b in zip(ladder[:-1], ladder[1:])):
                raise ValueError("width ladder must decrease")
        object.__setattr__(self, "ladder", ladder)
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        _positive("grid_du", self.grid_du)
        _positive("grid_margin", self.grid_margin, zero=True)
        if not (np.isfinite(self.distance_p) and self.distance_p >= 1):
            raise ValueError("distance p must be finite and at least 1")
        if self.field_mode not in ("point", "cell"):
            raise ValueError("field_mode must be 'point' or 'cell'")


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
            limit = int(cap)
        except ValueError as exc:
            raise ConfigError(
                f"LOCALTIME_THREADS must be an integer, got {cap!r}"
            ) from exc
        limit = max(1, limit)
    else:
        limit = os.cpu_count() or 1
    return max(1, min(n_jobs, limit))


def _ladder_fields(config: ExperimentConfig, path, grid, jf):
    """One estimator field per ladder level for a single path, built lazily
    so that each level's build time can be charged to that level.  ``jf``
    is the path's J field for a K_pi ladder."""
    t = config.t
    if config.estimator == "K_pi":
        scheme = PartitionScheme.dyadic(
            path.n_samples,
            config.ladder,
            include_jumps=path if config.include_jumps else None,
        )
        for k in range(len(config.ladder)):
            kf = k_pi(path, scheme, k, t=t, grid=grid, mode=config.field_mode)
            yield split_Kc_Kd(kf, jf)[1]
    elif config.estimator == "occupation":
        for eps in config.ladder:
            yield occupation_local_time(path, t=t, bandwidth=eps, grid=grid)
    else:
        for c in config.ladder:
            yield interval_crossing_local_time(path, t=t, width=c, grid=grid)


def _classical_reference(config: ExperimentConfig, path, grid, jf):
    """Reference field matched to the estimator's representation.

    Point-mode estimators compare against the pointwise Tanaka route. A
    cell-mode K_pi ladder compares against the exact per-cell average of the
    same Tanaka field, computed in closed form through the full-grid identity
    raw local time = 2 (K - J), with the ladder's own J field ``jf``.
    """
    if config.estimator == "K_pi" and config.field_mode == "cell":
        scheme = PartitionScheme.full(path.n_samples)
        kf = k_pi(path, scheme, 0, t=config.t, grid=grid, mode="cell")
        lt = split_Kc_Kd(kf, jf)[1]
        return lt.replace_data(lt.data, kind="L_classical")
    return classical_local_time(path, t=config.t, grid=grid)


def run_convergence_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Mean +- SE of the estimator-to-reference distance per ladder level.

    Paths are generated from per-path child seeds; the reduction is an
    ordered fill of a preallocated matrix, so the report is deterministic
    for a given config regardless of thread scheduling.
    """
    n_levels = len(config.ladder)
    distances = np.full((config.n_paths, n_levels), np.nan)
    clocks = np.zeros(n_levels)
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.n_paths)
    margin = config.grid_margin
    if config.estimator != "K_pi":
        margin = max(margin, max(config.ladder) + config.grid_du)

    def job(i):
        rng = np.random.default_rng(children[i])
        path = generate(config.generator, rng)
        grid = LevelGrid.for_path(path, config.grid_du, margin)
        jf = None
        if config.estimator == "K_pi":
            jf = j_pi(path, t=config.t, grid=grid, mode=config.field_mode)
        ref = _classical_reference(config, path, grid, jf)
        local_clock = np.zeros(n_levels)
        row = np.empty(n_levels)
        tick = time.perf_counter()
        for k, fld in enumerate(_ladder_fields(config, path, grid, jf)):
            row[k] = lp_distance(
                fld, ref, p=config.distance_p, weight=config.distance_weight
            )
            now = time.perf_counter()
            local_clock[k] += now - tick
            tick = now
        return i, row, local_clock

    workers = _worker_count(config.n_paths)
    # the pool starts no thread until a job is submitted, so one worker
    # runs every path inline
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = map if workers == 1 else pool.map
        for i, row, local_clock in run(job, range(config.n_paths)):
            distances[i] = row
            clocks += local_clock
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

def _json_int(obj, key):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config {key!r} must be an integer, got {value!r}")
    return int(value)


def generator_spec_from_json(obj) -> GeneratorSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("generator descriptor must be a mapping with a 'kind'")
    _refuse_unknown(obj, (
        "kind", "T", "steps_per_unit", "seed", "sigma", "mu", "jump_rate",
        "jump_low", "jump_high", "x0", "pattern", "amplitude", "n_jumps",
    ), "generator fields")
    try:
        return GeneratorSpec(**obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad generator descriptor: {exc}") from exc


def experiment_config_from_json(obj) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("experiment config must be a mapping")
    required = {"generator", "estimator", "ladder", "paths", "seed"}
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"experiment config missing fields: {sorted(missing)}")
    _refuse_unknown(obj, (
        *required, "grid_du", "grid_margin", "t", "distance", "field_mode",
        "include_jumps",
    ))
    gen = generator_spec_from_json(obj["generator"])
    weight = None
    dist = obj.get("distance", {})
    if dist:
        if not isinstance(dist, dict):
            raise ConfigError("distance must be a mapping")
        _refuse_unknown(dist, ("p", "weight"), "distance keys")
        wdesc = dist.get("weight")
        if wdesc is not None:
            weight = dc_function_from_descriptor(wdesc).second_derivative
    include_jumps = obj.get("include_jumps", False)
    if not isinstance(include_jumps, bool):
        raise ConfigError(
            f"config 'include_jumps' must be true or false, got {include_jumps!r}"
        )
    n_paths, seed = _json_int(obj, "paths"), _json_int(obj, "seed")
    try:
        return ExperimentConfig(
            generator=gen,
            estimator=obj["estimator"],
            ladder=tuple(obj["ladder"]),
            n_paths=n_paths,
            seed=seed,
            grid_du=float(obj.get("grid_du", 0.02)),
            grid_margin=float(obj.get("grid_margin", 1.0)),
            t=None if obj.get("t") is None else float(obj["t"]),
            distance_p=float(dist.get("p", 1.0)) if dist else 1.0,
            distance_weight=weight,
            field_mode=obj.get("field_mode", "point"),
            include_jumps=include_jumps,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
