"""Command-line surface: generators, identity checks, local-time estimators,
and convergence experiments, all emitting deterministic CSV artifacts.

Exit codes: 0 success, 1 bad input, I/O trouble or too little memory
(say, for a level grid far too fine), 2 invariant violation.
Given the same config and seed every subcommand writes byte-identical
outputs; wall-clock numbers go to a separate timings sidecar.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
from dataclasses import replace

import numpy as np

from ._kernels import ACTIVE_BACKEND, HAS_NUMBA
from .crossing import j_pi, k_pi, occupation_local_time, split_Kc_Kd
from .dcfuncs import builtin_suite
from .errors import (
    ConfigError, InvariantViolation, _number, _positive, _refuse_unknown, _whole,
)
from .follmer import quadratic_variation
from .lab import (
    classical_local_time,
    experiment_config_from_json,
    generate,
    generator_spec_from_json,
    lp_distance,
    q_statistic,
    run_convergence_experiment,
)
from .paths import (
    LevelGrid,
    PartitionScheme,
    _fmt,
    _write_table,
    read_path_csv,
    total_variation,
    write_path_csv,
)
from .skorokhod import interval_crossing_local_time

_FIELD_HEADER = ["t", "u", "value", "kind", "width"]


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _cfg_float(cfg, key, default):
    return _number(f"config {key!r}", cfg.get(key, default), ConfigError)


def _cfg_list(cfg, key, convert, scalar_ok=False):
    """Config list ``key`` of ``convert`` values (``float`` or ``int``, which
    must be whole), or None when the key is absent or null.  ``scalar_ok``
    also takes one bare value; an empty list is refused."""
    value = cfg.get(key)
    if value is None:
        return None
    if value == []:
        raise ConfigError(f"config {key!r} must not be empty")
    items = value if isinstance(value, list) else [value] if scalar_ok else None
    rule = _whole if convert is int else _number
    if items is not None:
        try:
            return [rule(key, v) for v in items]
        except ValueError:
            pass
    raise ConfigError(
        f"config {key!r} must be a list of {convert.__name__}s, got {value!r}"
    )


def _csv_list(convert):
    """Argument type for a nonempty comma-separated list of ``convert``
    values."""
    def parse(text):
        try:
            values = [convert(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad {convert.__name__} list {text!r}"
            ) from exc
        if not values:
            raise argparse.ArgumentTypeError(
                f"empty {convert.__name__} list {text!r}"
            )
        return values
    return parse


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit(args, name, header, columns):
    """Write one artifact table into the output directory and say so."""
    out = os.path.join(_outdir(args), name)
    _write_table(out, header, columns)
    print(f"wrote {out}")


def _resolve_spec(cfg, seed):
    gen = cfg.get("generator")
    if gen is None:
        raise ConfigError("config needs a 'generator' descriptor")
    spec = generator_spec_from_json(gen)
    if seed is not None:
        spec = replace(spec, seed=int(seed))
    return spec


def _path_input(args):
    """Config and input path of a subcommand that reads a path: exactly one
    of an input CSV and a generator descriptor.  A config key other than
    those two and the subcommand's declared ``args.keys`` is refused."""
    cfg = _load_config(args)
    _refuse_unknown(cfg, ("path_file", "generator", *args.keys))
    file = args.path or cfg.get("path_file")
    gen = cfg.get("generator")
    if file and gen:
        raise ConfigError("give either --path or a generator, not both")
    if file:
        if not isinstance(file, str):
            raise ConfigError(f"config 'path_file' must be a string, got {file!r}")
        return cfg, read_path_csv(file)
    if gen:
        return cfg, generate(_resolve_spec(cfg, args.seed))
    raise ConfigError("no input: pass --path or put a generator in --config")


def _resolve_grid(args, cfg, path, extra_margin=0.0):
    du = _cfg_float(cfg, "grid_du", 0.05) if args.grid_du is None else args.grid_du
    margin = _cfg_float(cfg, "grid_margin", 0.5) + extra_margin
    return LevelGrid.for_path(path, du, margin)


def _widths(args, cfg, default):
    """The width ladder: --widths, else the config's, else ``default``."""
    widths = args.widths or _cfg_list(cfg, "widths", float) or default
    return [_positive("widths", c) for c in widths]


def _exponents(args, cfg, default):
    """Sorted dyadic exponents: --levels, else the config's, else ``default``."""
    return sorted(args.levels or _cfg_list(cfg, "levels", int) or default)


def _times(cfg, path, default):
    ts = _cfg_list(cfg, "times", float, scalar_ok=True)
    if ts is None:
        return default
    if not all(0 <= v <= path.duration for v in ts):
        raise ConfigError("evaluation times must lie inside the horizon")
    return ts


def _field_columns(fields):
    """Field-table columns: one row per level of each field in turn."""
    kind, width = [], []
    for f in fields:
        kind += [f.kind] * f.data.size
        width += ["" if f.width is None else _fmt(f.width)] * f.data.size
    return [
        np.concatenate([np.full(f.data.size, f.time) for f in fields]),
        np.concatenate([f.grid.levels for f in fields]),
        np.concatenate([f.data for f in fields]),
        kind,
        width,
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load_config(args)
    _refuse_unknown(cfg, ("generator",))
    spec = _resolve_spec(cfg, args.seed)
    path = generate(spec)
    out = os.path.join(_outdir(args), "path.csv")
    write_path_csv(path, out)
    print(f"wrote {out}")
    print(
        f"samples={path.n_samples} "
        f"range=[{_fmt(path.values.min())}, {_fmt(path.values.max())}] "
        f"jumps={int(path.jump_mask.sum())} tv={_fmt(total_variation(path))}"
    )
    return 0


def cmd_qv(args) -> int:
    cfg, path = _path_input(args)
    exponents = _exponents(args, cfg, [2, 4, 6, 8])
    scheme = PartitionScheme.dyadic(path.n_samples, exponents, include_jumps=path)
    times = _times(cfg, path, [path.duration])
    levels, table = [], []
    for k, j in enumerate(exponents):
        qv = quadratic_variation(path, scheme, k)
        levels += [str(j)] * len(times)
        table += [(t, *qv.value_at(t)) for t in times]
    _emit(args, "qv.csv", ["n", "t", "total", "continuous", "jump"],
          [levels, *np.reshape(table, (-1, 4)).T])
    return 0


def cmd_localtime_occ(args) -> int:
    cfg, path = _path_input(args)
    grid = _resolve_grid(args, cfg, path)
    fields = [
        occupation_local_time(path, bandwidth=eps, grid=grid)
        for eps in _widths(args, cfg, [2.0 * grid.du])
    ]
    _emit(args, "localtime_occ.csv", _FIELD_HEADER, _field_columns(fields))
    return 0


def cmd_localtime_crossing(args) -> int:
    cfg, path = _path_input(args)
    grid = _resolve_grid(args, cfg, path)
    scheme = PartitionScheme.full(path.n_samples)
    kf = k_pi(path, scheme, 0, grid=grid, mode="cell")
    jf = j_pi(path, grid=grid, mode="cell")
    kc, lt = split_Kc_Kd(kf, jf)
    _emit(args, "localtime_crossing.csv", _FIELD_HEADER,
          _field_columns([kf, jf, kc, lt]))
    return 0


def cmd_localtime_skorokhod(args) -> int:
    cfg, path = _path_input(args)
    widths = _widths(args, cfg, [0.4, 0.2, 0.1, 0.05])
    if any(b >= a for a, b in zip(widths[:-1], widths[1:])):
        raise ConfigError("widths must be strictly decreasing")
    grid = _resolve_grid(args, cfg, path, extra_margin=max(widths))
    fields = [interval_crossing_local_time(path, width=c, grid=grid)
              for c in widths]
    for c, fld in zip(widths, fields):
        name = "localtime_skorokhod_" + repr(c).replace(".", "p") + ".csv"
        _emit(args, name, _FIELD_HEADER, _field_columns([fld]))
    dist = [lp_distance(a, b, p=1.0) for a, b in zip(fields[:-1], fields[1:])]
    _emit(args, "skorokhod_cauchy.csv",
          ["width_coarse", "width_fine", "l1_distance"],
          [np.array(widths[:-1]), np.array(widths[1:]), np.array(dist)])
    return 0


def cmd_tanaka_check(args) -> int:
    from .crossing import discrete_tanaka_residual

    cfg, path = _path_input(args)
    exponents = _exponents(args, cfg, [2, 3, 4, 5, 6])
    scheme = PartitionScheme.dyadic(path.n_samples, exponents, include_jumps=path)
    T = path.duration
    times = _times(cfg, path, [T / 3.0, 2.0 * T / 3.0, T])
    tv = total_variation(path)
    tol = _positive(
        "tolerance", _cfg_float(cfg, "tolerance", 1e-9 * (1.0 + tv)), zero=True
    )
    cells = [(f, k, t) for f in builtin_suite()
             for k in range(len(exponents)) for t in times]
    residuals = [abs(float(discrete_tanaka_residual(path, f, scheme, k, t=t)))
                 for f, k, t in cells]
    _emit(args, "tanaka_check.csv",
          ["function", "level", "t", "residual", "bound", "status"],
          [[f.name for f, _, _ in cells],
           [str(exponents[k]) for _, k, _ in cells],
           np.array([t for _, _, t in cells]), np.array(residuals),
           np.full(len(cells), tol),
           ["pass" if r <= tol else "FAIL" for r in residuals]])
    worst = max([0.0, *residuals])
    print(f"worst residual {_fmt(worst)} against bound {_fmt(tol)}")
    if worst > tol:
        print("identity check FAILED")
        return 2
    return 0


def cmd_experiment(args) -> int:
    cfg = _load_config(args)
    if not cfg:
        raise ConfigError("experiment needs --config with a full descriptor")
    if args.seed is not None:
        cfg = dict(cfg, seed=int(args.seed))
    config = experiment_config_from_json(cfg)
    report = run_convergence_experiment(config)
    n_paths, n_levels = report.distances.shape
    levels = [str(v) for v in report.levels]
    _emit(args, "report.csv", ["level", "paths", "mean", "se"],
          [levels, [str(n_paths)] * n_levels, report.means,
           report.standard_errors])
    _emit(args, "long.csv", ["path", "level", "distance"],
          [[str(i) for i in range(n_paths) for _ in levels],
           levels * n_paths, report.distances])
    _emit(args, "timings.csv", ["level", "seconds"],
          [levels, np.array(report.wall_clocks)])
    for r in report.rows:
        print(f"level {r.level}: mean={_fmt(r.mean)} se={_fmt(r.se)}")
    return 0


def cmd_qstat(args) -> int:
    cfg, path = _path_input(args)
    widths = _widths(args, cfg, [0.4, 0.2, 0.1])
    grid = _resolve_grid(args, cfg, path, extra_margin=max(widths))
    ref = classical_local_time(path, grid=grid)
    q = [q_statistic(path, grid=grid, d=d, classical=ref) for d in widths]
    _emit(args, "qstat.csv", ["d", "q_l1"], [np.array(widths), np.array(q)])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="JSON", help="JSON config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", default=".", help="output directory")

    pathin = argparse.ArgumentParser(add_help=False)
    pathin.add_argument("--path", metavar="CSV", help="input path CSV")
    # the flag of each config key that has one
    flags = {
        "grid_du": ("--grid-du", float, "level grid spacing"),
        "widths": ("--widths", _csv_list(float), "comma-separated width ladder"),
        "levels": ("--levels", _csv_list(int), "comma-separated dyadic exponents"),
    }

    parser = argparse.ArgumentParser(
        prog="leveltime",
        description="Pathwise local times for sampled cadlag paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name, func, summary, keys=None):
        """Add subcommand ``name``, run by the module function named
        ``func``.  One that reads a path declares the config ``keys`` it
        reads and takes the flag of each that has one."""
        subparser = subs.add_parser(
            name, parents=[common] if keys is None else [common, pathin],
            help=summary,
        )
        for key in keys or ():
            if key in flags:
                flag, convert, text = flags[key]
                subparser.add_argument(flag, type=convert, dest=key, help=text)
        subparser.set_defaults(func=func, keys=keys)

    grid_keys = ("grid_du", "grid_margin")
    command(sub, "generate", "cmd_generate", "write a seeded path CSV")
    command(sub, "qv", "cmd_qv", "quadratic variation per level",
            ("levels", "times"))
    lt = sub.add_parser("localtime", help="local-time estimators")
    ltsub = lt.add_subparsers(dest="variant", required=True)
    command(ltsub, "occ", "cmd_localtime_occ", "occupation-density estimator",
            ("widths", *grid_keys))
    command(ltsub, "crossing", "cmd_localtime_crossing", "level-crossing fields",
            grid_keys)
    command(ltsub, "skorokhod", "cmd_localtime_skorokhod",
            "interval-crossing estimator ladder", ("widths", *grid_keys))
    command(sub, "tanaka-check", "cmd_tanaka_check",
            "discrete Tanaka identity residuals",
            ("levels", "times", "tolerance"))
    command(sub, "experiment", "cmd_experiment", "Monte Carlo convergence run")
    command(sub, "q-stat", "cmd_qstat", "crossing-occupation defect",
            ("widths", *grid_keys))
    return parser


# one parser per process: parsing does not change it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    print(
        f"backend {ACTIVE_BACKEND} "
        f"({'compiled loops' if HAS_NUMBA else 'numba not installed'})"
    )
    try:
        # looked up on each call, so a handler replaced on the module runs
        return globals()[args.func](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}")
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
