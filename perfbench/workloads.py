"""The three workloads: inputs made from a seed, timed units, output checks.

A workload is a generator of *rounds*; a round is a list of units that the
runner always completes together (an estimator pair, a CLI chain, one path's
eps ladder), so every run holds whole rounds and the same mix of units.
Each unit has a timed ``call`` and a ``check`` that raises
:class:`CheckFailed` or returns a digest of the unit's output.  The runner
compares digests of units that share a ``key``: a repeated CLI seed, and the
traced replay of an untraced run, must reproduce the same bytes.

Units are sized so that one run completes about eighty of them, and hundreds
where a unit is cheap.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import shutil
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output the benchmark timed is wrong."""


@dataclasses.dataclass
class Unit:
    label: str  # what the unit runs, e.g. an estimator or a subcommand
    key: tuple  # units with equal keys must produce equal digests
    call: Callable[[], object]
    check: Callable[[object], str]


@dataclasses.dataclass(frozen=True)
class Size:
    steps: int  # samples per unit time of every generated path
    kpi_ladder: tuple
    kpi_paths: int
    occ_paths: int
    band_eps: tuple
    band_pool: int
    trace_rounds: dict  # rounds the traced pass replays, per workload


# The K_pi and occupation experiments cost about the same, ~0.5 s: a run
# holds about eighty, so the tail percentile (ten samples beyond it) lies in
# the body of the distribution, not on the few units a host scheduling hiccup
# stretches.  An odd number of eps values puts band_map's median unit inside
# one eps cluster.  Either way no median falls on the gap between clusters.
FULL = Size(
    steps=2**14,
    kpi_ladder=(8, 9, 10, 11, 12, 13),
    kpi_paths=48,
    occ_paths=88,
    band_eps=(0.4, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01),
    band_pool=48,
    # about ten seconds each; cli_artifacts visits every seed twice
    trace_rounds={"mc_partition": 9, "cli_artifacts": 10, "band_map": 12},
)

SMOKE = Size(
    steps=2**10,
    kpi_ladder=(4, 5, 6, 7, 8),
    kpi_paths=2,
    occ_paths=2,
    band_eps=(0.4, 0.1, 0.05),
    band_pool=2,
    trace_rounds={"mc_partition": 2, "cli_artifacts": 2, "band_map": 2},
)

WIDTHS = (0.4, 0.2, 0.1, 0.05)

# Jump-diffusion generator of check 7 in tests/test_acceptance.py.
JUMP_DIFFUSION = {
    "kind": "jump_diffusion",
    "T": 1.0,
    "seed": 0,
    "sigma": 1.0,
    "jump_rate": 5.0,
    "jump_low": -1.0,
    "jump_high": 1.0,
}


def round_seed(seed, k):
    """Independent integer seed for round ``k`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def stratified_seeds(seed, cost, count=64):
    """Round seeds of a run, ordered so that every prefix samples ``cost``
    evenly.

    A CLI chain on a jump-diffusion path costs time and memory in
    proportion to the path's level count, which differs by about 30%
    between seeds, and a run holds only a few dozen chains.  Visiting
    ``count`` seeded candidates, sorted by cost, in bit-reversed rank order
    gives every run the same mix of cheap and costly chains.  ``count`` is a
    power of two.
    """
    bits = count.bit_length() - 1
    ranked = sorted((round_seed(seed, j) for j in range(count)), key=cost)
    return [ranked[int(f"{i:0{bits}b}"[::-1], 2)] for i in range(count)]


def _fmt(v):
    return "%.17g" % float(v)


def _csv_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _report_digest(report):
    """Digest of report.csv and long.csv as ``leveltime experiment`` writes
    them, after checking that every distance is finite and nonnegative."""
    d = report.distances
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise CheckFailed("experiment distance not finite and nonnegative")
    report_csv = _csv_bytes(
        ["level", "paths", "mean", "se"],
        [[r.level, str(r.n_paths), _fmt(r.mean), _fmt(r.se)]
         for r in report.rows],
    )
    long_csv = _csv_bytes(
        ["path", "level", "distance"],
        [[str(i), report.levels[k], _fmt(d[i, k])]
         for i in range(d.shape[0]) for k in range(d.shape[1])],
    )
    return hashlib.sha256(report_csv + long_csv).hexdigest()


# ---------------------------------------------------------------------------
# mc_partition
# ---------------------------------------------------------------------------

def mc_partition(lt, seed, size, workdir):
    """Rounds of one K_pi (cell mode) and one occupation experiment."""
    spec = {"kind": "brownian", "T": 1.0, "steps_per_unit": size.steps}

    def rounds():
        for k in itertools.count():
            s = round_seed(seed, k)
            kpi = lt.experiment_config_from_json({
                "generator": spec, "estimator": "K_pi",
                "ladder": list(size.kpi_ladder), "paths": size.kpi_paths,
                "seed": s, "grid_du": 0.05, "field_mode": "cell",
            })
            occ = lt.experiment_config_from_json({
                "generator": spec, "estimator": "occupation",
                "ladder": list(WIDTHS), "paths": size.occ_paths,
                "seed": s, "grid_du": 0.05,
            })
            yield [
                Unit(cfg.estimator, (s, cfg.estimator),
                     lambda cfg=cfg: lt.run_convergence_experiment(cfg),
                     _report_digest)
                for cfg in (kpi, occ)
            ]

    return rounds


# ---------------------------------------------------------------------------
# cli_artifacts
# ---------------------------------------------------------------------------

# (label, subcommand argv, files it writes)
CLI_CHAIN = (
    ("generate", ["generate"], ("path.csv",)),
    ("qv", ["qv"], ("qv.csv",)),
    ("tanaka-check", ["tanaka-check"], ("tanaka_check.csv",)),
    ("localtime-occ", ["localtime", "occ"], ("localtime_occ.csv",)),
    ("localtime-crossing", ["localtime", "crossing"],
     ("localtime_crossing.csv",)),
    ("localtime-skorokhod", ["localtime", "skorokhod"],
     tuple(f"localtime_skorokhod_{repr(c).replace('.', 'p')}.csv"
           for c in WIDTHS) + ("skorokhod_cauchy.csv",)),
    ("q-stat", ["q-stat"], ("qstat.csv",)),
)


def _digest_files(out, names):
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def cli_artifacts(lt, seed, size, workdir):
    """Rounds of one CLI chain on a fresh seeded path.  Chains 2j and 2j+1
    share a seed, so every seed is written twice and compared."""
    from leveltime import cli

    gen = dict(JUMP_DIFFUSION, steps_per_unit=size.steps)
    config = os.path.join(workdir, "generator.json")
    with open(config, "w") as fh:
        json.dump({"generator": gen}, fh)
    spec = lt.GeneratorSpec(**gen)
    # levels of the widest grid the chain builds (localtime skorokhod's)
    seeds = stratified_seeds(seed, lambda s: lt.LevelGrid.for_path(
        lt.generate(dataclasses.replace(spec, seed=s)), 0.05, 0.5 + WIDTHS[0]
    ).n_levels)

    out = os.path.join(workdir, "chain")
    path_csv = os.path.join(out, "path.csv")

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code, label, names):
        if code != 0:
            raise CheckFailed(f"leveltime {label} exited {code}")
        if label == "tanaka-check":
            with open(os.path.join(out, names[0]), newline="") as fh:
                if any(r["status"] != "pass" for r in csv.DictReader(fh)):
                    raise CheckFailed("tanaka-check residual over its bound")
        return _digest_files(out, names)

    def rounds():
        for k in itertools.count():
            s = seeds[(k // 2) % len(seeds)]
            shutil.rmtree(out, ignore_errors=True)
            units = []
            for label, sub, names in CLI_CHAIN:
                if label == "generate":
                    argv = sub + ["--config", config, "--seed", str(s)]
                else:
                    argv = sub + ["--path", path_csv]
                argv += ["--out", out]
                units.append(Unit(
                    label, (s, label),
                    lambda argv=argv: call(argv),
                    lambda code, a=(label, names): check(code, *a),
                ))
            yield units

    return rounds


def artifact_mb(workdir):
    """Megabytes one CLI chain leaves in its output directory."""
    out = os.path.join(workdir, "chain")
    if not os.path.isdir(out):
        return 0.0
    return sum(
        os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)
    ) / 1e6


# ---------------------------------------------------------------------------
# band_map
# ---------------------------------------------------------------------------

def band_map(lt, seed, size, workdir):
    """Rounds of one path's band solutions over the whole eps ladder."""
    spec = lt.GeneratorSpec(kind="brownian", T=1.0, steps_per_unit=size.steps)
    pool = lt.generate_many(spec, size.band_pool, seed=seed)
    f = lt.make_square()  # convex, so the barrier route is exact too

    def solve(path, eps):
        sol = lt.skorokhod_map(path, eps)
        return sol, (
            lt.banach_indicatrix_integral(sol),
            lt.stieltjes_integral_fprime(path, sol, f),
            lt.stieltjes_integral_ibp(path, sol, f),
            lt.stieltjes_integral_band(path, sol, f),
        )

    def rounds():
        for k in itertools.count():
            i = k % len(pool)
            yield [
                Unit(f"eps={eps}", (i, eps),
                     lambda eps=eps: solve(pool[i], eps), _check_band)
                for eps in size.band_eps
            ]

    return rounds


def _check_band(out):
    from leveltime import total_variation

    sol, (indicatrix, s_fprime, s_ibp, s_band) = out
    x = sol.path.values
    reg = sol.regularized.values
    if float(np.abs(x - reg).max()) > sol.half_width:
        raise CheckFailed(f"|x - x^eps| exceeds eps/2 at eps={sol.eps}")
    tv = total_variation(sol.regularized)
    if abs(indicatrix - tv) > 1e-9 * (1.0 + tv):
        raise CheckFailed(f"indicatrix integral {indicatrix} != TV {tv}")
    scale = 1e-9 * (1.0 + total_variation(sol.path) * float(np.abs(x).max()))
    if abs(s_fprime - s_ibp) > scale or abs(s_fprime - s_band) > scale:
        raise CheckFailed(
            f"Stieltjes routes disagree: {s_fprime}, {s_ibp}, {s_band}"
        )
    h = hashlib.sha256(reg.tobytes())
    h.update(np.array([indicatrix, s_fprime, s_ibp, s_band]).tobytes())
    return h.hexdigest()


WORKLOADS = {
    "mc_partition": mc_partition,
    "cli_artifacts": cli_artifacts,
    "band_map": band_map,
}
