"""End-to-end checks for the command line: exit codes, output files, and
byte-level determinism of every CSV artifact."""

import csv
import json

import numpy as np
import pytest

from leveltime._kernels import HAS_NUMBA
from leveltime.cli import main
from leveltime.crossing import occupation_local_time
from leveltime.follmer import quadratic_variation
from leveltime.lab import (
    GeneratorSpec,
    classical_local_time,
    generate,
    lp_distance,
    q_statistic,
)
from leveltime.paths import (
    LevelGrid,
    PartitionScheme,
    read_path_csv,
    total_variation,
    write_path_csv,
)
from leveltime.skorokhod import interval_crossing_local_time

GEN = {
    "kind": "jump_diffusion",
    "T": 1.0,
    "steps_per_unit": 256,
    "seed": 11,
    "sigma": 1.0,
    "jump_rate": 4.0,
}


def fmt(v):
    return "%.17g" % float(v)


def write_config(tmp_path, payload, name="config.json"):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def dyadic_scheme(path, exponents):
    # same construction the qv/tanaka-check subcommands apply
    top = path.n_samples - 1
    parts = []
    for j in exponents:
        pts = np.unique(np.rint(np.linspace(0, top, 2**j + 1)).astype(np.int64))
        if path.jump_indices.size:
            pts = np.union1d(pts, path.jump_indices)
        parts.append(pts)
    return PartitionScheme.explicit(parts)


@pytest.fixture
def sample_path():
    return generate(GeneratorSpec(**GEN))


@pytest.fixture
def path_csv(tmp_path, sample_path):
    target = tmp_path / "input.csv"
    write_path_csv(sample_path, str(target))
    return str(target)


class TestGenerate:
    def test_writes_path_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generator": GEN})
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert "samples=257" in captured
        path = read_path_csv(str(out / "path.csv"))
        assert path.n_samples == 257
        assert f"tv={fmt(total_variation(path))}" in captured

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": GEN})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "path.csv").read_bytes() == (out_b / "path.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": GEN})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(out_a)])
        main(["generate", "--config", cfg, "--seed", "999", "--out", str(out_b)])
        assert (out_a / "path.csv").read_bytes() != (out_b / "path.csv").read_bytes()
        expected = generate(GeneratorSpec(**dict(GEN, seed=999)))
        roundtrip = read_path_csv(str(out_b / "path.csv"))
        assert np.array_equal(roundtrip.values, expected.values)

    def test_continuous_generator_marks_nothing(self, tmp_path):
        gen = {"kind": "brownian", "T": 1.0, "steps_per_unit": 128, "seed": 3}
        cfg = write_config(tmp_path, {"generator": gen})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "path.csv")
        assert rows[0] == ["t", "x", "jump", "pre_x"]
        assert all(r[2] == "0" for r in rows[1:])

    def test_unknown_generator_field_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": dict(GEN, flavor="spicy")})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_missing_generator_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_malformed_json_exits_1(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1


class TestQv:
    def test_values_match_library(self, tmp_path, sample_path, path_csv):
        out = tmp_path / "qv"
        rc = main(["qv", "--path", path_csv, "--levels", "2,4", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "qv.csv")
        assert rows[0] == ["n", "t", "total", "continuous", "jump"]
        scheme = dyadic_scheme(sample_path, [2, 4])
        body = rows[1:]
        assert len(body) == 2
        for k, j in enumerate([2, 4]):
            qv = quadratic_variation(sample_path, scheme, k)
            total, cont, jump = qv.value_at(sample_path.duration)
            assert body[k] == [
                str(j),
                fmt(sample_path.duration),
                fmt(total),
                fmt(cont),
                fmt(jump),
            ]

    def test_config_times_row_per_time(self, tmp_path, path_csv):
        cfg = write_config(tmp_path, {"times": [0.25, 0.5, 1.0]})
        out = tmp_path / "qv"
        rc = main(
            ["qv", "--path", path_csv, "--config", cfg, "--levels", "3",
             "--out", str(out)]
        )
        assert rc == 0
        body = read_rows(out / "qv.csv")[1:]
        assert [r[1] for r in body] == [fmt(0.25), fmt(0.5), fmt(1.0)]

    def test_time_outside_horizon_exits_1(self, tmp_path, path_csv):
        cfg = write_config(tmp_path, {"times": [2.5]})
        rc = main(["qv", "--path", path_csv, "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1

    def test_path_and_generator_conflict_exits_1(self, tmp_path, path_csv):
        cfg = write_config(tmp_path, {"generator": GEN})
        rc = main(["qv", "--path", path_csv, "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1

    def test_no_input_exits_1(self, tmp_path):
        assert main(["qv", "--out", str(tmp_path)]) == 1

    def test_negative_level_exits_1(self, tmp_path, path_csv, capsys):
        rc = main(["qv", "--path", path_csv, "--levels=-1", "--out", str(tmp_path)])
        assert rc == 1
        assert "error: dyadic exponents must be >= 0" in capsys.readouterr().out

    def test_levels_zero_and_beyond_the_samples(self, tmp_path, sample_path, path_csv):
        # 2**0 + 1 points are the two endpoints; 2**40 + 1 points cap at the
        # 257 samples, which is the full partition
        out = tmp_path / "qv"
        rc = main(["qv", "--path", path_csv, "--levels", "0,40", "--out", str(out)])
        assert rc == 0
        body = read_rows(out / "qv.csv")[1:]
        schemes = (
            dyadic_scheme(sample_path, [0]),
            PartitionScheme.full(sample_path.n_samples),
        )
        for row, j, scheme in zip(body, ["0", "40"], schemes):
            qv = quadratic_variation(sample_path, scheme, 0)
            total, cont, jump = qv.value_at(sample_path.duration)
            assert row == [
                j, fmt(sample_path.duration), fmt(total), fmt(cont), fmt(jump)
            ]


class TestLocaltimeOcc:
    def test_default_width_is_twice_du(self, tmp_path, sample_path, path_csv):
        out = tmp_path / "occ"
        rc = main(
            ["localtime", "occ", "--path", path_csv, "--grid-du", "0.1",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out / "localtime_occ.csv")
        assert rows[0] == ["t", "u", "value", "kind", "width"]
        body = rows[1:]
        grid = LevelGrid.for_path(sample_path, 0.1, 0.5)
        assert len(body) == grid.n_levels
        assert {r[3] for r in body} == {"L_occupation"}
        assert {r[4] for r in body} == {fmt(0.2)}
        field = occupation_local_time(sample_path, bandwidth=0.2, grid=grid)
        for r, u, v in zip(body, grid.levels, field.data[0]):
            assert r[1] == fmt(u) and r[2] == fmt(v)

    def test_width_ladder_stacks_rows(self, tmp_path, path_csv):
        out = tmp_path / "occ"
        rc = main(
            ["localtime", "occ", "--path", path_csv, "--grid-du", "0.1",
             "--widths", "0.4,0.2", "--out", str(out)]
        )
        assert rc == 0
        body = read_rows(out / "localtime_occ.csv")[1:]
        assert [fmt(0.4), fmt(0.2)] == sorted({r[4] for r in body}, reverse=True)
        halves = len(body) // 2
        assert {r[4] for r in body[:halves]} == {fmt(0.4)}


class TestLocaltimeCrossing:
    def test_emits_all_four_kinds(self, tmp_path, sample_path, path_csv):
        out = tmp_path / "crossing"
        rc = main(
            ["localtime", "crossing", "--path", path_csv, "--grid-du", "0.1",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out / "localtime_crossing.csv")
        assert rows[0] == ["t", "u", "value", "kind", "width"]
        body = rows[1:]
        grid = LevelGrid.for_path(sample_path, 0.1, 0.5)
        assert [r[3] for r in body] == (
            ["K"] * grid.n_levels + ["J"] * grid.n_levels
            + ["Kc"] * grid.n_levels + ["L_occupation"] * grid.n_levels
        )
        by_kind = {}
        for r in body:
            by_kind.setdefault(r[3], []).append(float(r[2]))
        doubled = 2.0 * np.asarray(by_kind["Kc"])
        assert np.allclose(doubled, by_kind["L_occupation"], rtol=0, atol=1e-15)


class TestLocaltimeSkorokhod:
    def test_per_width_files_and_cauchy_table(self, tmp_path, sample_path, path_csv):
        out = tmp_path / "sk"
        rc = main(
            ["localtime", "skorokhod", "--path", path_csv, "--grid-du", "0.1",
             "--widths", "0.4,0.2,0.1", "--out", str(out)]
        )
        assert rc == 0
        for stem in ("0p4", "0p2", "0p1"):
            assert (out / f"localtime_skorokhod_{stem}.csv").exists()
        cauchy = read_rows(out / "skorokhod_cauchy.csv")
        assert cauchy[0] == ["width_coarse", "width_fine", "l1_distance"]
        assert len(cauchy) == 3
        assert [r[0] for r in cauchy[1:]] == [fmt(0.4), fmt(0.2)]
        grid = LevelGrid.for_path(sample_path, 0.1, 0.5 + 0.4)
        fields = interval_crossing_local_time(
            sample_path, widths=[0.4, 0.2, 0.1], grid=grid
        )
        expected = lp_distance(fields[0], fields[1], p=1.0)
        assert cauchy[1][2] == fmt(expected)
        body = read_rows(out / "localtime_skorokhod_0p4.csv")[1:]
        assert {r[3] for r in body} == {"L_interval"}
        assert {r[4] for r in body} == {fmt(0.4)}


class TestTanakaCheck:
    def test_passes_on_generated_path(self, tmp_path, path_csv, capsys):
        out = tmp_path / "tk"
        rc = main(
            ["tanaka-check", "--path", path_csv, "--levels", "2,3,4",
             "--out", str(out)]
        )
        assert rc == 0
        assert "worst residual" in capsys.readouterr().out
        rows = read_rows(out / "tanaka_check.csv")
        assert rows[0] == ["function", "level", "t", "residual", "bound", "status"]
        body = rows[1:]
        # builtin suite of five functions, three levels, three default times
        assert len(body) == 5 * 3 * 3
        assert {r[5] for r in body} == {"pass"}

    def test_zero_tolerance_override_exits_2(self, tmp_path, path_csv):
        cfg = write_config(tmp_path, {"tolerance": 1e-30})
        rc = main(
            ["tanaka-check", "--path", path_csv, "--config", cfg,
             "--levels", "2", "--out", str(tmp_path)]
        )
        assert rc == 2
        body = read_rows(tmp_path / "tanaka_check.csv")[1:]
        assert "FAIL" in {r[5] for r in body}

    def test_corrupt_input_csv_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,path\n1,2,3\n")
        rc = main(["tanaka-check", "--path", str(bad), "--out", str(tmp_path)])
        assert rc == 1

    def test_missing_input_file_exits_1(self, tmp_path):
        rc = main(
            ["tanaka-check", "--path", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path)]
        )
        assert rc == 1


class TestExperiment:
    CONFIG = {
        "generator": {
            "kind": "brownian", "T": 1.0, "steps_per_unit": 128, "seed": 0,
        },
        "estimator": "K_pi",
        "field_mode": "cell",
        "ladder": [2, 3],
        "paths": 4,
        "seed": 5,
        "grid_du": 0.1,
        "grid_margin": 0.5,
    }

    def test_outputs_and_byte_idempotency(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["experiment", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out_b)]) == 0
        report = read_rows(out_a / "report.csv")
        assert report[0] == ["level", "paths", "mean", "se"]
        assert len(report) == 1 + 2
        assert all(r[1] == "4" for r in report[1:])
        long_rows = read_rows(out_a / "long.csv")
        assert long_rows[0] == ["path", "level", "distance"]
        assert len(long_rows) == 1 + 4 * 2
        timings = read_rows(out_a / "timings.csv")
        assert timings[0] == ["level", "seconds"]
        assert len(timings) == 1 + 2
        # deterministic artifacts agree byte for byte; timings are wall clock
        # and carry no such promise
        for name in ("report.csv", "long.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert "level" in capsys.readouterr().out

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["experiment", "--config", cfg, "--out", str(out_a)])
        main(["experiment", "--config", cfg, "--seed", "6", "--out", str(out_b)])
        assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()

    def test_requires_config(self, tmp_path):
        assert main(["experiment", "--out", str(tmp_path)]) == 1

    def test_incomplete_config_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": GEN, "estimator": "K_pi"})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestQStat:
    def test_values_match_library(self, tmp_path, sample_path, path_csv):
        out = tmp_path / "qs"
        rc = main(
            ["q-stat", "--path", path_csv, "--grid-du", "0.1",
             "--widths", "0.4,0.2", "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out / "qstat.csv")
        assert rows[0] == ["d", "q_l1"]
        body = rows[1:]
        assert [r[0] for r in body] == [fmt(0.4), fmt(0.2)]
        grid = LevelGrid.for_path(sample_path, 0.1, 0.5 + 0.4)
        ref = classical_local_time(sample_path, grid=grid)
        for r, d in zip(body, [0.4, 0.2]):
            q = q_statistic(sample_path, grid=grid, d=d, classical=ref)
            assert r[1] == fmt(q)


class TestParser:
    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_subcommand_help_exits_0(self):
        assert main(["generate", "--help"]) == 0

    def test_every_run_names_its_backend_first(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generator": GEN})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        expected = (
            "backend numba (compiled loops)"
            if HAS_NUMBA
            else "backend numpy (numba not installed)"
        )
        assert capsys.readouterr().out.splitlines()[0] == expected
        assert main(["qv", "--levels=-1", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == expected

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand_exits_1(self):
        assert main([]) == 1

    def test_bad_width_list_exits_1(self, tmp_path, path_csv):
        rc = main(
            ["localtime", "occ", "--path", path_csv, "--widths", "a,b",
             "--out", str(tmp_path)]
        )
        assert rc == 1
