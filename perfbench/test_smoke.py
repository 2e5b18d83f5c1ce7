"""Smoke tests of the benchmark itself.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402


def _copy_checkout(dest, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def test_smoke_prints_every_metric_and_passes():
    proc = _run(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke passed")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert f"  {metric['name']} " in proc.stdout, metric["name"]


def test_traced_work_does_not_depend_on_the_budget():
    # The traced pass replays a fixed number of rounds, so a longer budget
    # lengthens only the untraced pass and leaves every count unchanged.
    short, long = (run.run_workload("band_map", 0, s, 1, smoke=True)
                   for s in (0.2, 3.0))
    assert long["attempted"] > short["attempted"]
    assert short["notes"]["traced_rounds"] == long["notes"]["traced_rounds"]

    def counts(report):
        return {k: m["value"] for k, m in report["metrics"].items()
                if k.rsplit(".", 1)[1] in ("calls", "cells", "segments")}

    assert counts(short) == counts(long)
    assert counts(short)["kernels.play_operator.calls"] > 0


def test_smoke_fails_when_the_band_map_is_wrong(tmp_path):
    # A play operator that leaves the band must fail the band_map check.
    _copy_checkout(tmp_path)
    kernels = tmp_path / "src" / "leveltime" / "_kernels.py"
    kernels.write_text(kernels.read_text() + (
        "\n_exact_play_operator = play_operator\n\n"
        "def play_operator(values, eps):\n"
        "    reg, dev = _exact_play_operator(values, eps)\n"
        "    return reg + eps, dev\n"
    ))
    proc = _run(tmp_path, "--smoke")
    assert proc.returncode != 0
    assert "band_map trace 0: output checks failed" in proc.stdout
    assert "|x - x^eps| exceeds eps/2" in proc.stdout


def test_run_without_package_source_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "--workload", "band_map", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_result_line_has_the_contract_keys(tmp_path):
    proc = _run(ROOT, "--workload", "band_map", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
