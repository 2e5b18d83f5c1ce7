"""Check and time the path CSV round trip on a seeded jump diffusion.

The CLI writes ``path.csv`` once per ``generate`` and reads it once per
estimator subcommand.  This script writes a path of ``--steps`` steps with
``write_path_csv`` and reads it back with ``read_path_csv``, through a
file, as the CLI does.  It first checks the contract: the text of
``path_to_csv_text`` is the same on every call, equals the file's bytes
and the text ``csv.writer`` writes for the same cells, the path reads back
bit for bit, and writing the read path gives the same bytes again.  It
then reports best-of-``--repeat`` wall times of the write and the read,
the reader's peak of traced allocations (``tracemalloc``), which includes
the path it returns, and the time of ``_write_table`` on the field table
that ``leveltime localtime occ --grid-du 0.002 --widths 0.2,0.1`` writes
for the same path.

Usage::

    python benchmarks/bench_csv.py [--steps 16384] [--repeat 5] [--seed 0]
"""

import argparse
import csv
import io
import os
import tempfile
import time
import tracemalloc

from leveltime import _kernels
from leveltime.cli import _FIELD_HEADER, _field_columns
from leveltime.crossing import occupation_local_time
from leveltime.lab import GeneratorSpec, generate
from leveltime.paths import (
    LevelGrid,
    _write_table,
    path_to_csv_text,
    read_path_csv,
    write_path_csv,
)


def same_path(p, q):
    return all(
        a.tobytes() == b.tobytes()
        for a, b in zip(
            (p.times, p.values, p.jump_mask), (q.times, q.values, q.jump_mask)
        )
    )


def csv_writer_text(path):
    """The text ``csv.writer`` writes for the path's cells: the oracle of
    ``write_path_csv``."""
    pre = [""] * path.n_samples
    for i in path.jump_indices.tolist():
        pre[i] = "%.17g" % path.values[i - 1]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "x", "jump", "pre_x"])
    writer.writerows(zip(
        ["%.17g" % v for v in path.times.tolist()],
        ["%.17g" % v for v in path.values.tolist()],
        ["1" if m else "0" for m in path.jump_mask.tolist()],
        pre,
    ))
    return buf.getvalue()


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=16384)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    path = generate(GeneratorSpec(
        "jump_diffusion", T=1.0, steps_per_unit=args.steps, seed=args.seed,
        sigma=1.0, jump_rate=5.0,
    ))
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "path.csv")
        write_path_csv(path, target)
        text = path_to_csv_text(path)
        with open(target, "rb") as fh:
            data = fh.read()
        if path_to_csv_text(path) != text or data != text.encode():
            raise AssertionError("path csv text differs between writes")
        if text != csv_writer_text(path):
            raise AssertionError("path csv text differs from csv.writer's")
        back = read_path_csv(target)
        if not same_path(back, path):
            raise AssertionError("path csv does not read back bit for bit")
        if path_to_csv_text(back) != text:
            raise AssertionError("a path read back writes different bytes")
        print(
            f"round trip exact and stable: {path.n_samples} rows, "
            f"{int(path.jump_mask.sum())} jumps, {len(data) / 1e6:.3f} MB"
        )

        print(f"backend {_kernels.ACTIVE_BACKEND}, HAS_NUMBA {_kernels.HAS_NUMBA}")
        print(f"steps={args.steps} seed={args.seed} repeat={args.repeat}")
        write_s = best_time(lambda: write_path_csv(path, target), args.repeat)
        read_s = best_time(lambda: read_path_csv(target), args.repeat)
        grid = LevelGrid.for_path(path, 0.002, 0.5)
        columns = _field_columns([
            occupation_local_time(path, bandwidth=eps, grid=grid)
            for eps in (0.2, 0.1)
        ])
        table = os.path.join(tmp, "localtime_occ.csv")
        table_s = best_time(
            lambda: _write_table(table, _FIELD_HEADER, columns), args.repeat
        )
        tracemalloc.start()
        read_path_csv(target)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    print(f"write_path_csv {write_s * 1e3:9.3f} ms")
    print(f"read_path_csv  {read_s * 1e3:9.3f} ms")
    print(f"read_path_csv peak traced allocation {peak / 1e6:.3f} MB")
    print(f"_write_table   {table_s * 1e3:9.3f} ms "
          f"(field table, {len(columns[0])} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
