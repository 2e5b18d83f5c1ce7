"""End-to-end checks for the command line: exit codes, output files, and
byte-level determinism of every CSV artifact."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import leveltime
from leveltime import cli, paths
from leveltime._kernels import HAS_NUMBA
from leveltime.cli import _FIELD_HEADER, _field_columns, main
from leveltime.crossing import LocalTimeField, occupation_local_time
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
    _write_table,
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
        for r, u, v in zip(body, grid.levels, field.data):
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
        fields = [
            interval_crossing_local_time(sample_path, width=c, grid=grid)
            for c in (0.4, 0.2, 0.1)
        ]
        expected = lp_distance(fields[0], fields[1], p=1.0)
        assert cauchy[1][2] == fmt(expected)
        body = read_rows(out / "localtime_skorokhod_0p4.csv")[1:]
        assert {r[3] for r in body} == {"L_interval"}
        assert {r[4] for r in body} == {fmt(0.4)}

    def test_increasing_widths_exit_1(self, tmp_path, path_csv, capsys):
        rc = main(["localtime", "skorokhod", "--path", path_csv,
                   "--widths", "0.1,0.4", "--out", str(tmp_path)])
        assert rc == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "error: widths must be strictly decreasing"
        assert [p.name for p in tmp_path.glob("*.csv")] == ["input.csv"]


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

    @pytest.mark.parametrize(
        "tolerance,shown", [(float("nan"), "nan"), (-1, "-1.0"),
                            (float("inf"), "inf")]
    )
    def test_bad_tolerance_exits_1(self, tmp_path, path_csv, capsys,
                                   tolerance, shown):
        cfg = write_config(tmp_path, {"tolerance": tolerance})
        rc = main(["tanaka-check", "--path", path_csv, "--config", cfg,
                   "--levels", "2", "--out", str(tmp_path)])
        assert rc == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            f"error: tolerance must be nonnegative and finite, got {shown}"
        )
        assert not (tmp_path / "tanaka_check.csv").exists()

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


class TestOneParser:
    """``main`` builds its parser once per process; the handler is looked
    up on each call."""

    def test_calls_in_a_row_write_what_each_writes_alone(self, tmp_path, path_csv):
        runs = [["localtime", "occ", "--path", path_csv, "--widths", "0.2"],
                ["localtime", "occ", "--path", path_csv]]
        for k, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"row{k}")]) == 0
        for k, argv in enumerate(runs):
            cli._parser.cache_clear()
            assert main(argv + ["--out", str(tmp_path / f"alone{k}")]) == 0
            alone = (tmp_path / f"alone{k}" / "localtime_occ.csv").read_bytes()
            assert (tmp_path / f"row{k}" / "localtime_occ.csv").read_bytes() == alone
        assert alone != (tmp_path / "row0" / "localtime_occ.csv").read_bytes()

    def test_a_handler_replaced_on_the_module_runs(
        self, tmp_path, path_csv, monkeypatch
    ):
        argv = ["qv", "--path", path_csv, "--out", str(tmp_path)]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_qv", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert [a.path for a in seen] == [path_csv]


class TestTablesMatchCsvWriter:
    def test_every_table_of_a_chain_and_an_experiment(
        self, tmp_path, monkeypatch, csv_writer
    ):
        written = {}

        def spy(file, header, columns):
            if isinstance(file, str):
                written[os.path.basename(file)] = (header, columns)
            return _write_table(file, header, columns)

        monkeypatch.setattr(paths, "_write_table", spy)
        monkeypatch.setattr(cli, "_write_table", spy)
        cfg = write_config(tmp_path, {"generator": GEN})
        out = str(tmp_path / "run")
        path_in = ["--path", os.path.join(out, "path.csv"), "--out", out]
        for argv in (
            ["generate", "--config", cfg, "--out", out],
            ["qv", *path_in],
            ["tanaka-check", *path_in],
            ["localtime", "occ", "--widths", "0.2,0.1", *path_in],
            ["localtime", "crossing", *path_in],
            ["localtime", "skorokhod", "--widths", "0.4,0.2", *path_in],
            ["q-stat", "--widths", "0.4,0.2", *path_in],
            ["experiment", "--config",
             write_config(tmp_path, TestExperiment.CONFIG, "exp.json"),
             "--out", out],
        ):
            assert main(argv) == 0, argv
        assert sorted(written) == sorted(os.listdir(out)) == sorted([
            "path.csv", "qv.csv", "tanaka_check.csv", "localtime_occ.csv",
            "localtime_crossing.csv", "localtime_skorokhod_0p4.csv",
            "localtime_skorokhod_0p2.csv", "skorokhod_cauchy.csv",
            "qstat.csv", "report.csv", "long.csv", "timings.csv",
        ])
        for name, (header, columns) in written.items():
            with open(os.path.join(out, name), newline="") as fh:
                assert fh.read() == csv_writer(header, columns), name


class TestArtifactText:
    def test_field_table_rows(self):
        grid = LevelGrid(0.1, 0.1, 3)
        early = LocalTimeField(
            grid, 0.5, [0.0, 1.0 / 3.0, 2.0], "L_occupation", width=0.2
        )
        late = LocalTimeField(grid, 1.0, [1.0, 2.5, 0.0], "L_occupation", width=0.2)
        k = LocalTimeField(grid, 1.0, [1.0, 2.5, 0.0], "K")
        buf = io.StringIO()
        _write_table(buf, _FIELD_HEADER, _field_columns([early, late, k]))
        lines = buf.getvalue().split("\r\n")
        assert lines[0] == "t,u,value,kind,width"
        # one row per level of each field in turn, its time on every row
        assert lines[2] == (
            "0.5,0.20000000000000001,0.33333333333333331,L_occupation,"
            "0.20000000000000001"
        )
        assert lines[6] == "1,0.30000000000000004,0,L_occupation,0.20000000000000001"
        assert lines[8] == "1,0.20000000000000001,2.5,K,"
        assert len(lines) == 11 and lines[-1] == ""


class TestBadInput:
    """Non-finite numbers and malformed config values exit 1 with an error
    line, never with a traceback."""

    def run(self, capsys, argv):
        rc = main(argv)
        return rc, capsys.readouterr().out.splitlines()[-1]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["localtime", "occ"], ["localtime", "skorokhod"], ["q-stat"]]
    )
    def test_non_finite_width_exits_1(self, tmp_path, path_csv, capsys,
                                      command, value):
        rc, last = self.run(capsys, command + [
            "--path", path_csv, "--widths", value, "--out", str(tmp_path)
        ])
        assert rc == 1
        assert last == f"error: widths must be positive and finite, got {value}"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_grid_spacing_exits_1(self, tmp_path, path_csv, capsys,
                                             value):
        rc, last = self.run(capsys, [
            "localtime", "crossing", "--path", path_csv, "--grid-du", value,
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert last.startswith("error: du must be positive and finite")

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_distance_exponent_exits_1(self, tmp_path, capsys, p):
        cfg = write_config(tmp_path, dict(TestExperiment.CONFIG, distance={"p": p}))
        rc, last = self.run(capsys, ["experiment", "--config", cfg,
                                     "--out", str(tmp_path)])
        assert rc == 1
        assert last.startswith("error:") and "finite" in last

    @pytest.mark.parametrize(
        "command,config,message",
        [
            (["qv"], {"levels": 5}, "'levels' must be a list of ints, got 5"),
            (["tanaka-check"], {"levels": 5},
             "'levels' must be a list of ints, got 5"),
            (["localtime", "occ"], {"widths": 0.1},
             "'widths' must be a list of floats, got 0.1"),
            (["localtime", "skorokhod"], {"widths": 0.1},
             "'widths' must be a list of floats, got 0.1"),
            (["q-stat"], {"widths": 0.1},
             "'widths' must be a list of floats, got 0.1"),
            (["localtime", "occ"], {"grid_margin": None},
             "'grid_margin' must be a number, got None"),
            (["localtime", "skorokhod"], {"grid_margin": None},
             "'grid_margin' must be a number, got None"),
            (["q-stat"], {"grid_margin": None},
             "'grid_margin' must be a number, got None"),
            (["qv"], {"times": "x"}, "'times' must be a list of floats, got 'x'"),
            (["qv"], {"levels": [2.5, 3.7]},
             "'levels' must be a list of ints, got [2.5, 3.7]"),
            (["tanaka-check"], {"levels": [2.5, 3.7]},
             "'levels' must be a list of ints, got [2.5, 3.7]"),
            (["qv"], {"levels": [True, 3]},
             "'levels' must be a list of ints, got [True, 3]"),
            (["qv"], {"levels": ["2"]},
             "'levels' must be a list of ints, got ['2']"),
            (["qv"], {"times": ["0.5"]},
             "'times' must be a list of floats, got ['0.5']"),
            (["qv"], {"times": True}, "'times' must be a list of floats, got True"),
            (["localtime", "occ"], {"widths": ["0.1"]},
             "'widths' must be a list of floats, got ['0.1']"),
            (["q-stat"], {"widths": [0.4, True]},
             "'widths' must be a list of floats, got [0.4, True]"),
            (["localtime", "occ"], {"grid_du": "0.05"},
             "'grid_du' must be a number, got '0.05'"),
            (["localtime", "crossing"], {"grid_margin": True},
             "'grid_margin' must be a number, got True"),
            (["tanaka-check"], {"tolerance": "1e-9"},
             "'tolerance' must be a number, got '1e-9'"),
            # an empty list is not the default ladder
            (["qv"], {"levels": []}, "'levels' must not be empty"),
            (["tanaka-check"], {"levels": []}, "'levels' must not be empty"),
            (["localtime", "occ"], {"widths": []}, "'widths' must not be empty"),
            (["localtime", "skorokhod"], {"widths": []},
             "'widths' must not be empty"),
            (["q-stat"], {"widths": []}, "'widths' must not be empty"),
            (["qv"], {"times": []}, "'times' must not be empty"),
            (["tanaka-check"], {"times": []}, "'times' must not be empty"),
        ],
    )
    def test_malformed_config_value_exits_1(self, tmp_path, path_csv, capsys,
                                            command, config, message):
        cfg = write_config(tmp_path, config)
        rc, last = self.run(capsys, command + [
            "--path", path_csv, "--config", cfg, "--out", str(tmp_path)
        ])
        assert rc == 1
        assert last == "error: config " + message

    @pytest.mark.parametrize(
        "weight",
        [
            {"kind": "abs", "scale": 0},
            {"kind": "mix", "atoms": [], "uniform_weight": 0, "bump_weight": 0},
        ],
    )
    def test_weight_without_mass_exits_1(self, tmp_path, capsys, weight):
        cfg = write_config(tmp_path, dict(
            TestExperiment.CONFIG, distance={"p": 2, "weight": weight}
        ))
        rc, last = self.run(capsys, ["experiment", "--config", cfg,
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert last == "error: weight has no mass on the level grid"

    @pytest.mark.parametrize(
        "command,config",
        [
            (["qv"], {"widths": [0.1]}),
            (["tanaka-check"], {"grid_du": 0.1}),
            (["localtime", "occ"], {"widht": [0.3]}),
            (["localtime", "crossing"], {"widths": [0.3]}),
            (["localtime", "skorokhod"], {"levels": [2]}),
            (["q-stat"], {"levels": 5}),
        ],
    )
    def test_unknown_config_key_exits_1(self, tmp_path, path_csv, capsys,
                                        command, config):
        cfg = write_config(tmp_path, config)
        rc, last = self.run(capsys, command + [
            "--path", path_csv, "--config", cfg, "--out", str(tmp_path)
        ])
        assert rc == 1
        assert last == f"error: unknown config keys: {sorted(config)}"
        assert [p.name for p in tmp_path.glob("*.csv")] == ["input.csv"]

    @pytest.mark.parametrize(
        "command,config,message",
        [
            (["generate"], {"generator": GEN, "levels": [1]},
             "unknown config keys: ['levels']"),
            (["generate"], {"generator": GEN, "seed": 5},
             "unknown config keys: ['seed']"),
            (["experiment"], dict(TestExperiment.CONFIG, grid_dx=0.5),
             "unknown config keys: ['grid_dx']"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={"q": 2}),
             "unknown distance keys: ['q']"),
            (["experiment"], dict(TestExperiment.CONFIG, include_jumps="false"),
             "config 'include_jumps' must be true or false, got 'false'"),
            (["experiment"], dict(TestExperiment.CONFIG, paths=2.5),
             "config 'paths' must be an integer, got 2.5"),
            (["experiment"], dict(TestExperiment.CONFIG, ladder=[2.5, 4.9]),
             "bad experiment config: dyadic exponents must be whole numbers, "
             "got 2.5"),
            (["generate"], {"generator": dict(GEN, seed=1.5)},
             "bad generator descriptor: seed must be an integer, got 1.5"),
            (["generate"], {"generator": {
                "kind": "deterministic_test", "pattern": "jump_ladder",
                "n_jumps": 2.5}},
             "bad generator descriptor: n_jumps must be an integer, got 2.5"),
            (["generate"], {"generator": dict(GEN, sigma=float("nan"))},
             "bad generator descriptor: sigma must be nonnegative and finite, "
             "got nan"),
            (["generate"], {"generator": dict(GEN, jump_rate=float("nan"))},
             "bad generator descriptor: jump_rate must be nonnegative and "
             "finite, got nan"),
            (["generate"], {"generator": dict(GEN, T=float("inf"))},
             "bad generator descriptor: T must be positive and finite, got inf"),
            (["generate"], {"generator": dict(GEN, mu=float("-inf"))},
             "bad generator descriptor: mu must be finite, got -inf"),
            (["generate"], {"generator": dict(GEN, steps_per_unit=float("inf"))},
             "bad generator descriptor: steps_per_unit must be whole numbers, "
             "got inf"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "p": 2, "weight": {"kind": "abs", "centre": 0.3}}),
             "unknown function fields: ['centre']"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "p": 2, "weight": {"kind": "square", "center": 1.0}}),
             "unknown function fields: ['center']"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "p": 2, "weight": {"kind": "mix", "uniform_weight": float("nan")}}),
             "bad function descriptor: mix weights must be finite, got nan, 0.5"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "p": 2, "weight": {"kind": "mix", "bump_weight": float("inf")}}),
             "bad function descriptor: mix weights must be finite, got 0.3, inf"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "weight": {"kind": "bump", "width": float("inf")}}),
             "bad function descriptor: width must be positive and finite, "
             "got inf"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "weight": {"kind": "bump", "center": float("nan")}}),
             "bad function descriptor: center must be finite, got nan"),
            (["generate"], {"generator": dict(GEN, steps_per_unit=100.5)},
             "bad generator descriptor: steps_per_unit must be whole numbers, "
             "got 100.5"),
            (["generate"], {"generator": dict(GEN, steps_per_unit=True)},
             "bad generator descriptor: steps_per_unit must be whole numbers, "
             "got True"),
            (["generate"], {"generator": dict(GEN, steps_per_unit="64")},
             "bad generator descriptor: steps_per_unit must be whole numbers, "
             "got '64'"),
            (["generate"], {"generator": dict(GEN, T="1")},
             "bad generator descriptor: T must be positive and finite, got '1'"),
            (["generate"], {"generator": dict(GEN, sigma=True)},
             "bad generator descriptor: sigma must be nonnegative and finite, "
             "got True"),
            (["generate"], {"generator": dict(GEN, x0="0.5")},
             "bad generator descriptor: x0 must be finite, got '0.5'"),
            (["generate"], {"generator": dict(GEN, mu=False)},
             "bad generator descriptor: mu must be finite, got False"),
            (["experiment"], dict(TestExperiment.CONFIG, grid_du="0.05"),
             "bad experiment config: grid_du must be positive and finite, "
             "got '0.05'"),
            (["experiment"], dict(TestExperiment.CONFIG, grid_margin=True),
             "bad experiment config: grid_margin must be nonnegative and "
             "finite, got True"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={"p": "2"}),
             "bad experiment config: distance p must be finite and at least 1"),
            (["experiment"], dict(TestExperiment.CONFIG, t="0.5"),
             "bad experiment config: t must be a number, got '0.5'"),
            (["experiment"], dict(TestExperiment.CONFIG, ladder="23"),
             "bad experiment config: ladder must be a list, got '23'"),
            (["experiment"], dict(TestExperiment.CONFIG, ladder=["2", "3"]),
             "bad experiment config: dyadic exponents must be whole numbers, "
             "got '2'"),
            (["experiment"], dict(TestExperiment.CONFIG, estimator="occupation",
                                  field_mode="point", ladder=["0.4", 0.2]),
             "bad experiment config: widths must be positive and finite, "
             "got '0.4'"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "weight": {"kind": "abs", "center": True}}),
             "bad function descriptor: center must be finite, got True"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "weight": {"kind": "abs", "scale": "2"}}),
             "bad function descriptor: scale must be finite, got '2'"),
            (["experiment"], dict(TestExperiment.CONFIG, distance={
                "weight": {"kind": "mix", "atoms": [[0, True]]}}),
             "bad function descriptor: atom locations and weights must be "
             "finite, got 0, True"),
            # a distance that is there but falsy is not the default
            (["experiment"], dict(TestExperiment.CONFIG, distance=0),
             "config 'distance' must be a mapping, got 0"),
            (["experiment"], dict(TestExperiment.CONFIG, distance=[]),
             "config 'distance' must be a mapping, got []"),
            (["experiment"], dict(TestExperiment.CONFIG, distance=False),
             "config 'distance' must be a mapping, got False"),
        ],
    )
    def test_generate_and_experiment_refuse_keys_they_do_not_read(
        self, tmp_path, capsys, command, config, message
    ):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        rc, last = self.run(capsys, command + ["--config", cfg, "--out", str(out)])
        assert rc == 1
        assert last == "error: " + message
        assert not out.exists()

    @pytest.mark.parametrize("command", [["qv"], ["tanaka-check"]])
    @pytest.mark.parametrize("time", [float("nan"), -0.5, 1.5])
    def test_evaluation_time_outside_the_horizon_exits_1(
        self, tmp_path, path_csv, capsys, command, time
    ):
        cfg = write_config(tmp_path, {"times": [time]})
        rc, last = self.run(capsys, command + [
            "--path", path_csv, "--config", cfg, "--out", str(tmp_path)
        ])
        assert rc == 1
        assert last.startswith("error:") and "horizon" in last
        assert [p.name for p in tmp_path.glob("*.csv")] == ["input.csv"]

    @pytest.mark.parametrize(
        "command,flag",
        [
            (["qv"], "--grid-du"),
            (["qv"], "--widths"),
            (["localtime", "occ"], "--levels"),
            (["localtime", "crossing"], "--widths"),
            (["localtime", "crossing"], "--levels"),
            (["localtime", "skorokhod"], "--levels"),
            (["tanaka-check"], "--grid-du"),
            (["tanaka-check"], "--widths"),
            (["q-stat"], "--levels"),
        ],
    )
    def test_unread_flag_exits_1(self, tmp_path, path_csv, capsys, command, flag):
        rc = main(command + ["--path", path_csv, flag, "3", "--out", str(tmp_path)])
        assert rc == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert [p.name for p in tmp_path.glob("*.csv")] == ["input.csv"]

    @pytest.mark.parametrize("text", [",", "", " , "])
    @pytest.mark.parametrize(
        "command,flag",
        [
            (["qv"], "--levels"),
            (["tanaka-check"], "--levels"),
            (["localtime", "occ"], "--widths"),
            (["localtime", "skorokhod"], "--widths"),
            (["q-stat"], "--widths"),
        ],
    )
    def test_empty_flag_list_exits_1(self, tmp_path, path_csv, capsys, command,
                                     flag, text):
        rc = main(command + ["--path", path_csv, flag, text, "--out", str(tmp_path)])
        assert rc == 1
        kind = "int" if flag == "--levels" else "float"
        assert (f"argument {flag}: empty {kind} list {text!r}"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.glob("*.csv")] == ["input.csv"]

    def test_out_of_memory_grid_exits_1(self, tmp_path, path_csv):
        resource = pytest.importorskip("resource")
        limit = 4 << 30  # address space for the child only; no page is touched

        def lower_limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = os.path.dirname(os.path.dirname(leveltime.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "leveltime.cli", "localtime", "occ",
             "--path", path_csv, "--grid-du", "1e-9", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300, preexec_fn=lower_limit,
            env=dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
                     OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1].startswith("error: out of memory")
