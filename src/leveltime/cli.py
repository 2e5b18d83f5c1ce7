"""Command-line surface: generators, identity checks, local-time estimators,
and convergence experiments, all emitting deterministic CSV artifacts.

Exit codes: 0 success, 1 bad input or I/O trouble, 2 invariant violation.
Given the same config and seed every subcommand writes byte-identical
outputs; wall-clock numbers go to a separate timings sidecar.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
from dataclasses import replace

import numpy as np

from ._kernels import ACTIVE_BACKEND, HAS_NUMBA
from .crossing import j_pi, k_pi, occupation_local_time, split_Kc_Kd
from .dcfuncs import builtin_suite
from .errors import ConfigError, InvariantViolation
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
    read_path_csv,
    total_variation,
    write_path_csv,
)
from .skorokhod import interval_crossing_local_time


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _write_csv(filename, header, rows):
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _floats_csv(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _ints_csv(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_spec(cfg, seed):
    gen = cfg.get("generator")
    if gen is None:
        raise ConfigError("config needs a 'generator' descriptor")
    spec = generator_spec_from_json(gen)
    if seed is not None:
        spec = replace(spec, seed=int(seed))
    return spec


def _resolve_path(args, cfg):
    """Input path: exactly one of an input CSV and a generator descriptor."""
    file = getattr(args, "path", None) or cfg.get("path_file")
    gen = cfg.get("generator")
    if file and gen:
        raise ConfigError("give either --path or a generator, not both")
    if file:
        return read_path_csv(file)
    if gen:
        return generate(_resolve_spec(cfg, getattr(args, "seed", None)))
    raise ConfigError("no input: pass --path or put a generator in --config")


def _resolve_grid(args, cfg, path, extra_margin=0.0):
    du = getattr(args, "grid_du", None)
    if du is None:
        du = cfg.get("grid_du", 0.05)
    margin = float(cfg.get("grid_margin", 0.5)) + extra_margin
    return LevelGrid.for_path(path, float(du), margin)


def _times(cfg, path):
    ts = cfg.get("times")
    if ts is None:
        return [path.duration]
    ts = [float(v) for v in np.atleast_1d(ts)]
    if any(v < 0 or v > path.duration for v in ts):
        raise ConfigError("evaluation times must lie inside the horizon")
    return ts


def _field_rows(field):
    rows = []
    width = "" if field.width is None else _fmt(field.width)
    for i in range(field.n_times):
        t = _fmt(field.times[i])
        for u, v in zip(field.grid.levels, field.data[i]):
            rows.append([t, _fmt(u), _fmt(v), field.kind, width])
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load_config(args)
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
    cfg = _load_config(args)
    path = _resolve_path(args, cfg)
    exponents = args.levels or cfg.get("levels") or [2, 4, 6, 8]
    exponents = sorted(int(j) for j in exponents)
    scheme = PartitionScheme.dyadic(path.n_samples, exponents, include_jumps=path)
    times = _times(cfg, path)
    rows = []
    for k, j in enumerate(exponents):
        qv = quadratic_variation(path, scheme, k)
        for t in times:
            total, cont, jump = qv.value_at(t)
            rows.append([str(j), _fmt(t), _fmt(total), _fmt(cont), _fmt(jump)])
    out = os.path.join(_outdir(args), "qv.csv")
    _write_csv(out, ["n", "t", "total", "continuous", "jump"], rows)
    print(f"wrote {out}")
    return 0


def cmd_localtime_occ(args) -> int:
    cfg = _load_config(args)
    path = _resolve_path(args, cfg)
    widths = args.widths or cfg.get("widths")
    grid = _resolve_grid(args, cfg, path)
    if widths is None:
        widths = [2.0 * grid.du]
    rows = []
    for eps in widths:
        fld = occupation_local_time(path, bandwidth=float(eps), grid=grid)
        rows.extend(_field_rows(fld))
    out = os.path.join(_outdir(args), "localtime_occ.csv")
    _write_csv(out, ["t", "u", "value", "kind", "width"], rows)
    print(f"wrote {out}")
    return 0


def cmd_localtime_crossing(args) -> int:
    cfg = _load_config(args)
    path = _resolve_path(args, cfg)
    grid = _resolve_grid(args, cfg, path)
    scheme = PartitionScheme.full(path.n_samples)
    kf = k_pi(path, scheme, 0, grid=grid, mode="cell")
    jf = j_pi(path, grid=grid, mode="cell")
    kc, lt = split_Kc_Kd(kf, jf)
    rows = []
    for fld in (kf, jf, kc, lt):
        rows.extend(_field_rows(fld))
    out = os.path.join(_outdir(args), "localtime_crossing.csv")
    _write_csv(out, ["t", "u", "value", "kind", "width"], rows)
    print(f"wrote {out}")
    return 0


def cmd_localtime_skorokhod(args) -> int:
    cfg = _load_config(args)
    path = _resolve_path(args, cfg)
    widths = args.widths or cfg.get("widths") or [0.4, 0.2, 0.1, 0.05]
    widths = [float(c) for c in widths]
    grid = _resolve_grid(args, cfg, path, extra_margin=max(widths))
    fields = interval_crossing_local_time(path, widths=widths, grid=grid)
    outdir = _outdir(args)
    written = []
    for c, fld in zip(widths, fields):
        name = "localtime_skorokhod_" + repr(float(c)).replace(".", "p") + ".csv"
        out = os.path.join(outdir, name)
        _write_csv(out, ["t", "u", "value", "kind", "width"], _field_rows(fld))
        written.append(out)
    cauchy = []
    for (ca, fa), (cb, fb) in zip(
        zip(widths[:-1], fields[:-1]), zip(widths[1:], fields[1:])
    ):
        dist = lp_distance(fa, fb, p=1.0)
        cauchy.append([_fmt(ca), _fmt(cb), _fmt(dist)])
    table = os.path.join(outdir, "skorokhod_cauchy.csv")
    _write_csv(table, ["width_coarse", "width_fine", "l1_distance"], cauchy)
    for name in written + [table]:
        print(f"wrote {name}")
    return 0


def cmd_tanaka_check(args) -> int:
    from .crossing import discrete_tanaka_residual

    cfg = _load_config(args)
    path = _resolve_path(args, cfg)
    exponents = args.levels or cfg.get("levels") or [2, 3, 4, 5, 6]
    exponents = sorted(int(j) for j in exponents)
    scheme = PartitionScheme.dyadic(path.n_samples, exponents, include_jumps=path)
    times = cfg.get("times")
    if times is None:
        T = path.duration
        times = [T / 3.0, 2.0 * T / 3.0, T]
    tv = total_variation(path)
    tol = float(cfg.get("tolerance", 1e-9 * (1.0 + tv)))
    rows = []
    worst = 0.0
    for f in builtin_suite():
        for k, j in enumerate(exponents):
            for t in times:
                r = discrete_tanaka_residual(path, f, scheme, k, t=float(t))
                r = abs(float(r))
                worst = max(worst, r)
                rows.append(
                    [f.name, str(j), _fmt(t), _fmt(r), _fmt(tol),
                     "pass" if r <= tol else "FAIL"]
                )
    out = os.path.join(_outdir(args), "tanaka_check.csv")
    _write_csv(out, ["function", "level", "t", "residual", "bound", "status"], rows)
    print(f"wrote {out}")
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
    outdir = _outdir(args)

    report_csv = os.path.join(outdir, "report.csv")
    _write_csv(
        report_csv,
        ["level", "paths", "mean", "se"],
        [[r.level, str(r.n_paths), _fmt(r.mean), _fmt(r.se)] for r in report.rows],
    )
    long_csv = os.path.join(outdir, "long.csv")
    long_rows = [
        [str(i), report.levels[k], _fmt(report.distances[i, k])]
        for i in range(report.distances.shape[0])
        for k in range(len(report.levels))
    ]
    _write_csv(long_csv, ["path", "level", "distance"], long_rows)
    timings_csv = os.path.join(outdir, "timings.csv")
    _write_csv(
        timings_csv,
        ["level", "seconds"],
        [[r.level, _fmt(r.wall_clock)] for r in report.rows],
    )
    for name in (report_csv, long_csv, timings_csv):
        print(f"wrote {name}")
    for r in report.rows:
        print(f"level {r.level}: mean={_fmt(r.mean)} se={_fmt(r.se)}")
    return 0


def cmd_qstat(args) -> int:
    cfg = _load_config(args)
    path = _resolve_path(args, cfg)
    widths = args.widths or cfg.get("widths") or [0.4, 0.2, 0.1]
    widths = [float(d) for d in widths]
    grid = _resolve_grid(args, cfg, path, extra_margin=max(widths))
    ref = classical_local_time(path, grid=grid)
    rows = []
    for d in widths:
        q = q_statistic(path, grid=grid, d=d, classical=ref)
        rows.append([_fmt(d), _fmt(q)])
    out = os.path.join(_outdir(args), "qstat.csv")
    _write_csv(out, ["d", "q_l1"], rows)
    print(f"wrote {out}")
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
    pathin.add_argument(
        "--grid-du", type=float, dest="grid_du", help="level grid spacing"
    )
    pathin.add_argument(
        "--widths", type=_floats_csv, help="comma-separated width ladder"
    )
    pathin.add_argument(
        "--levels", type=_ints_csv, help="comma-separated dyadic exponents"
    )

    parser = argparse.ArgumentParser(
        prog="leveltime",
        description="Pathwise local times for sampled cadlag paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write a seeded path CSV")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "qv", parents=[common, pathin], help="quadratic variation per level"
    )
    p.set_defaults(func=cmd_qv)

    lt = sub.add_parser("localtime", help="local-time estimators")
    ltsub = lt.add_subparsers(dest="variant", required=True)
    p = ltsub.add_parser(
        "occ", parents=[common, pathin], help="occupation-density estimator"
    )
    p.set_defaults(func=cmd_localtime_occ)
    p = ltsub.add_parser(
        "crossing", parents=[common, pathin], help="level-crossing fields"
    )
    p.set_defaults(func=cmd_localtime_crossing)
    p = ltsub.add_parser(
        "skorokhod",
        parents=[common, pathin],
        help="interval-crossing estimator ladder",
    )
    p.set_defaults(func=cmd_localtime_skorokhod)

    p = sub.add_parser(
        "tanaka-check",
        parents=[common, pathin],
        help="discrete Tanaka identity residuals",
    )
    p.set_defaults(func=cmd_tanaka_check)

    p = sub.add_parser(
        "experiment", parents=[common], help="Monte Carlo convergence run"
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "q-stat", parents=[common, pathin], help="crossing-occupation defect"
    )
    p.set_defaults(func=cmd_qstat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    print(
        f"backend {ACTIVE_BACKEND} "
        f"({'compiled loops' if HAS_NUMBA else 'numba not installed'})"
    )
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}")
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
