"""Path skeleton, partition schemes, level grids, and the CSV round trip."""

import csv
import dataclasses
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import paths
from leveltime import (
    LevelGrid,
    PartitionScheme,
    SampledCadlagPath,
    classical_local_time,
    occupation_local_time,
    path_to_csv_text,
    read_path_csv,
    total_variation,
    write_path_csv,
)


def path_from_csv_text(text):
    return read_path_csv(io.StringIO(text))


def refines(scheme):
    """Whether every partition's points are contained in the next one's."""
    parts = scheme.partitions
    return all(np.isin(a, b).all() for a, b in zip(parts[:-1], parts[1:]))


def make_step_path():
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([0.0, 1.0, 1.0, -0.5, 0.25])
    mask = np.array([False, False, False, True, False])
    return SampledCadlagPath(times, values, mask)


class TestValidation:
    def test_minimal_single_sample(self):
        p = SampledCadlagPath([0.0], [3.0])
        assert p.n_samples == 1
        assert p.duration == 0.0
        assert total_variation(p) == 0.0

    def test_first_time_must_be_zero(self):
        with pytest.raises(ValueError, match="first sample time"):
            SampledCadlagPath([0.5, 1.0], [0.0, 1.0])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledCadlagPath([0.0, 0.5, 0.5], [0.0, 1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SampledCadlagPath([0.0, 1.0], [0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SampledCadlagPath([0.0, 1.0], [0.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            SampledCadlagPath([0.0, np.inf], [0.0, 1.0])

    def test_first_index_never_marked(self):
        with pytest.raises(ValueError, match="index 0"):
            SampledCadlagPath([0.0, 1.0], [0.0, 1.0], np.array([True, False]))

    def test_mask_must_be_boolean(self):
        with pytest.raises(ValueError, match="boolean"):
            SampledCadlagPath([0.0, 1.0], [0.0, 1.0], np.array([0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            SampledCadlagPath([], [])

    def test_arrays_are_read_only(self):
        p = make_step_path()
        with pytest.raises(ValueError):
            p.values[0] = 9.0
        with pytest.raises(ValueError):
            p.jump_mask[1] = True


class TestAccessors:
    def test_jump_bookkeeping(self):
        p = make_step_path()
        assert list(p.jump_indices) == [3]
        pre, post = p.jump_brackets()
        np.testing.assert_array_equal(pre, [1.0])
        np.testing.assert_array_equal(post - pre, [-1.5])

    def test_index_at_is_right_continuous_floor(self):
        p = make_step_path()
        assert p.index_at(0.0) == 0
        assert p.index_at(0.25) == 1
        assert p.index_at(0.3) == 1
        assert p.index_at(1.0) == 4
        assert p.index_at(None) == p.index_at() == 4
        with pytest.raises(ValueError, match="outside"):
            p.index_at(1.5)
        with pytest.raises(ValueError, match="outside"):
            p.index_at(-0.1)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("where", ["none", "zero", "jump", "between", "end"])
    def test_stop_accessors_match_slicing(self, step_path, seed, where):
        p = make_step_path() if seed == 0 else step_path(seed)
        jump_t = float(p.times[p.jump_indices[0]])
        t = {
            "none": None,
            "zero": 0.0,
            "jump": jump_t,
            "between": 0.5 * (p.times[2] + p.times[3]),
            "end": p.duration,
        }[where]
        # the stop rule written out by slicing
        i_t = p.n_samples - 1 if t is None else p.index_at(t)
        inc = np.diff(p.values[: i_t + 1])
        unmarked = ~p.jump_mask[1 : i_t + 1]
        jidx = p.jump_indices[p.jump_indices <= i_t]

        assert p.index_at(t) == i_t
        left, steps = p.continuous_steps(t)
        np.testing.assert_array_equal(left, p.values[:i_t][unmarked])
        np.testing.assert_array_equal(steps, inc[unmarked])
        pre, post = p.jump_brackets(t)
        np.testing.assert_array_equal(pre, p.values[jidx - 1])
        np.testing.assert_array_equal(post, p.values[jidx])
        if where == "jump":
            # stopped at a jump instant, the jump itself is included
            assert jidx[-1] == i_t
        scheme = PartitionScheme.dyadic(p.n_samples, range(4), include_jumps=p)
        for n in range(scheme.n_levels):
            np.testing.assert_array_equal(
                scheme.clipped(p, n, t), np.minimum(scheme[n], i_t)
            )
        with pytest.raises(ValueError, match="samples"):
            PartitionScheme.full(p.n_samples + 1).clipped(p, 0, t)

    @pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
    @pytest.mark.parametrize("t", [None, 0.5])
    def test_continuous_steps_match_the_masked_form(self, step_path, marked, t):
        p = step_path(3, jump_rate=20.0 if marked else 0.0)
        i_t = p.index_at(t)
        unmarked = ~p.jump_mask[1 : i_t + 1]
        assert unmarked.all() != marked
        left, inc = p.continuous_steps(t)
        np.testing.assert_array_equal(left, p.values[:i_t][unmarked])
        np.testing.assert_array_equal(inc, np.diff(p.values[: i_t + 1])[unmarked])
        for arr in (left, inc):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 9.0

    def test_value_at_steps(self):
        # the path holds values[i] on [times[i], times[i+1]): right-continuous
        p = make_step_path()
        assert p.values[p.index_at(0.6)] == 1.0
        assert p.values[p.index_at(0.75)] == -0.5

    def test_total_variation_hand_value(self):
        p = make_step_path()
        assert total_variation(p) == pytest.approx(1.0 + 0.0 + 1.5 + 0.75)


class TestStepTable:
    """The sorted step table that the classical reference and every
    occupation width read: built once per path and stop index."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        build = paths._step_table

        def counting(*args):
            calls.append(args[0].size)
            return build(*args)

        monkeypatch.setattr(paths, "_step_table", counting)
        return calls

    def test_built_once_per_stop_index(self, step_path, counted):
        p = step_path(5, n_samples=400)
        grid = LevelGrid.for_path(p, 0.02, margin=0.5)
        classical_local_time(p, grid=grid)
        for w in (0.4, 0.2, 0.1, 0.05):
            occupation_local_time(p, bandwidth=w, grid=grid)
        assert counted == [p.n_samples - 1]
        # a second time builds its own table, once
        for _ in range(2):
            classical_local_time(p, t=0.6, grid=grid)
            occupation_local_time(p, t=0.6, bandwidth=0.1, grid=grid)
        assert counted == [p.n_samples - 1, p.index_at(0.6)]
        occupation_local_time(p, bandwidth=0.3, grid=grid)
        assert len(counted) == 2

    @pytest.mark.parametrize("t", [None, 0.6, 0.0])
    def test_table_is_the_stable_sorted_steps(self, step_path, t):
        p = step_path(6, n_samples=300, jump_rate=20.0)
        i_t = p.index_at(t)
        left, inc = p.values[:i_t], np.diff(p.values[: i_t + 1])
        marked = p.jump_mask[1 : i_t + 1]
        assert marked.any() == (t != 0.0)
        order = np.argsort(left, kind="stable")
        ranked, prefix = p.step_table(t)
        np.testing.assert_array_equal(ranked, left[order])
        squares = np.where(marked, 0.0, inc**2)[order]
        for row, w in zip(prefix, (inc[order], squares)):
            np.testing.assert_array_equal(row, np.cumsum(np.r_[0.0, w]))
        for arr in (ranked, prefix):
            assert not arr.flags.writeable

    def test_new_paths_never_see_a_stale_table(self, step_path, counted):
        p = step_path(7, n_samples=300)
        grid = LevelGrid.for_path(p, 0.02, margin=3.0)
        before = occupation_local_time(p, bandwidth=0.1, grid=grid).data
        values = 2.0 * p.values[::-1] + 0.5
        others = (
            p._revalued(values.copy()),
            SampledCadlagPath(p.times, values, p.jump_mask),
            dataclasses.replace(p, values=values),
        )
        fresh = SampledCadlagPath(p.times, values, p.jump_mask)
        want = occupation_local_time(fresh, bandwidth=0.1, grid=grid).data
        assert not np.array_equal(want, before)
        for q in others:
            got = occupation_local_time(q, bandwidth=0.1, grid=grid).data
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(q.step_table()[0], np.sort(values[:-1]))
        # p, fresh and each other path built one table apiece
        assert len(counted) == 2 + len(others)
        np.testing.assert_array_equal(
            occupation_local_time(p, bandwidth=0.1, grid=grid).data, before
        )
        assert len(counted) == 2 + len(others)


def rounded_spread(n_samples, count, jumps=None):
    # reference: deduplicate the rounded spread, which needs no cap on the count
    pts = np.unique(np.rint(np.linspace(0, n_samples - 1, count)).astype(np.int64))
    if jumps is not None:
        pts = np.union1d(pts, jumps[(jumps > 0) & (jumps < n_samples)])
    return pts


class TestPartitionScheme:
    @pytest.mark.parametrize("with_jumps", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 1000, 1025, 12345, 16385])
    def test_spreads_match_the_deduplicated_construction(self, n, with_jumps):
        jumps = None
        if with_jumps:
            jumps = np.array([-1, 0, 1, n // 3, n // 3 + 1, n - 2, n - 1, n, n + 7])
        exponents = range(int(np.log2(3 * n)) + 2)
        scheme = PartitionScheme.dyadic(n, exponents, jumps)
        for j, part in zip(exponents, scheme.partitions):
            np.testing.assert_array_equal(part, rounded_spread(n, 2**j + 1, jumps))
        assert refines(scheme)

    def test_dyadic_levels_refine(self):
        scheme = PartitionScheme.dyadic(1025, range(1, 6))
        assert scheme.n_levels == 5
        assert refines(scheme)
        assert scheme[0].size == 3
        assert scheme[4].size == 33
        assert scheme.last_index == 1024

    def test_dyadic_takes_any_exponent_list(self):
        scheme = PartitionScheme.dyadic(1025, [0, 3, 20])
        np.testing.assert_array_equal(scheme[0], [0, 1024])
        assert scheme[1].size == 9
        # 2**20 + 1 points cap at the 1025 samples: every index
        np.testing.assert_array_equal(scheme[2], np.arange(1025))
        assert refines(scheme)
        for j in (40, 2000):
            np.testing.assert_array_equal(
                PartitionScheme.dyadic(65, [j])[0], np.arange(65)
            )

    def test_dyadic_rejects_negative_or_missing_exponents(self):
        with pytest.raises(ValueError, match=">= 0"):
            PartitionScheme.dyadic(65, [2, -1])
        with pytest.raises(ValueError, match="at least one level"):
            PartitionScheme.dyadic(65, [])

    @pytest.mark.parametrize("bad", [2.5, True, np.bool_(True), float("nan"), "2"])
    def test_dyadic_refuses_fractional_or_boolean_exponents(self, bad):
        with pytest.raises(ValueError, match=f"whole numbers, got {bad!r}"):
            PartitionScheme.dyadic(65, [2, bad])
        # an integral float is a whole number
        assert PartitionScheme.dyadic(65, [2.0])[0].size == 5

    @pytest.mark.parametrize("bad", [3.7, True, np.bool_(True), float("nan")])
    def test_dyadic_refuses_fractional_or_boolean_leading_exponent(self, bad):
        message = f"dyadic exponents must be whole numbers, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            PartitionScheme.dyadic(65, [bad, 9])
        # an integral float is a whole number
        assert PartitionScheme.dyadic(65, [1.0, 9])[0].size == 3

    def test_dyadic_include_jumps_unions_marks(self):
        p = make_step_path()
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 3), include_jumps=p)
        for n in range(scheme.n_levels):
            assert 3 in scheme[n]
        assert scheme.exhausts_jumps(p)
        assert scheme.exhausts_jumps(p, 0)

    def test_mesh_shrinks_across_levels(self):
        p = make_step_path()
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 3))
        assert scheme.mesh(p, 1) <= scheme.mesh(p, 0)

    def test_full_uses_every_index(self):
        scheme = PartitionScheme.full(7)
        np.testing.assert_array_equal(scheme[0], np.arange(7))

    def test_explicit_validation(self):
        with pytest.raises(ValueError, match="start at index 0"):
            PartitionScheme.explicit([np.array([1, 4])])
        with pytest.raises(ValueError, match="strictly increasing"):
            PartitionScheme.explicit([np.array([0, 2, 2, 4])])
        with pytest.raises(ValueError, match="same index"):
            PartitionScheme.explicit([np.array([0, 4]), np.array([0, 5])])
        with pytest.raises(ValueError, match="at least two"):
            PartitionScheme.explicit([np.array([0])])
        with pytest.raises(ValueError, match="at least one partition"):
            PartitionScheme.explicit([])

    def test_non_nested_scheme_not_refining(self):
        scheme = PartitionScheme.explicit(
            [np.array([0, 3, 6]), np.array([0, 2, 4, 6])]
        )
        assert not refines(scheme)

    def test_mesh_rejects_foreign_path(self):
        p = make_step_path()
        scheme = PartitionScheme.full(9)
        with pytest.raises(ValueError, match="samples"):
            scheme.mesh(p, 0)


class TestLevelGrid:
    def test_levels_and_umax(self):
        g = LevelGrid(-1.0, 0.5, 5)
        np.testing.assert_allclose(g.levels, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.u_max == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LevelGrid(0.0, 0.0, 3)
        with pytest.raises(ValueError, match="positive"):
            LevelGrid(0.0, -0.1, 3)
        with pytest.raises(ValueError, match="at least one level"):
            LevelGrid(0.0, 0.1, 0)
        with pytest.raises(ValueError, match="finite"):
            LevelGrid(np.nan, 0.1, 3)

    @pytest.mark.parametrize("bad", [2.5, True, np.bool_(True), float("nan")])
    def test_refuses_fractional_or_boolean_level_counts(self, bad):
        message = f"n_levels must be whole numbers, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            LevelGrid(0.0, 1.0, bad)
        # an integral float is a whole number
        g = LevelGrid(0.0, 1.0, 3.0)
        assert g.n_levels == 3 and type(g.n_levels) is int
        assert g.levels.size == 3

    def test_edges_bound_the_cells(self):
        g = LevelGrid(-1.0, 0.25, 4)
        np.testing.assert_array_equal(
            g.edges, [-1.125, -0.875, -0.625, -0.375, -0.125]
        )
        np.testing.assert_array_equal(g.edges[:-1] + 0.5 * g.du, g.levels)

    def test_left_index_is_the_nearest_level_at_or_below(self):
        g = LevelGrid(0.0, 0.5, 5)
        assert g.left_index(0.5) == 1
        assert g.left_index(0.49) == 0
        assert g.left_index(-0.01) == -1
        assert g.left_index(2.0) == 4
        assert g.left_index(2.5) == 5
        np.testing.assert_array_equal(g.left_index([0.0, 0.99, 1.0]), [0, 1, 2])

    def test_for_path_covers_range_with_margin(self):
        p = make_step_path()
        g = LevelGrid.for_path(p, 0.1, margin=0.3)
        assert g.u0 <= p.values.min() - 0.3
        assert g.u_max >= p.values.max() + 0.3
        assert g.u0 / g.du == pytest.approx(round(g.u0 / g.du))
        with pytest.raises(ValueError, match="positive"):
            LevelGrid.for_path(p, 0.0)


class TestCsvRoundTrip:
    def test_exact_round_trip(self):
        p = make_step_path()
        q = path_from_csv_text(path_to_csv_text(p))
        np.testing.assert_array_equal(p.times, q.times)
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.jump_mask, q.jump_mask)

    def test_pre_x_written_only_on_marked_rows(self):
        text = path_to_csv_text(make_step_path())
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert rows[0] == ["t", "x", "jump", "pre_x"]
        assert rows[4][2] == "1" and rows[4][3] == "1"
        assert all(r[3] == "" for r in rows[1:] if r[2] == "0")

    def test_exact_text_of_a_path_with_one_jump(self):
        p = SampledCadlagPath(
            [0.0, 0.1, 0.2], [0.3, -1.0 / 3.0, 0.1], [False, False, True]
        )
        assert path_to_csv_text(p) == (
            "t,x,jump,pre_x\r\n"
            "0,0.29999999999999999,0,\r\n"
            "0.10000000000000001,-0.33333333333333331,0,\r\n"
            "0.20000000000000001,0.10000000000000001,1,-0.33333333333333331\r\n"
        )

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            path_from_csv_text("a,b,c,d\n0,0,0,\n")

    def test_bad_jump_flag(self):
        with pytest.raises(ValueError, match="jump column"):
            path_from_csv_text("t,x,jump,pre_x\n0,0,0,\n1,1,2,\n")

    def test_marked_row_needs_pre_x(self):
        with pytest.raises(ValueError, match="must carry pre_x"):
            path_from_csv_text("t,x,jump,pre_x\n0,0,0,\n1,1,1,\n")

    def test_pre_x_must_match_exactly(self):
        with pytest.raises(ValueError, match="exactly"):
            path_from_csv_text("t,x,jump,pre_x\n0,0.5,0,\n1,1,1,0.4999\n")

    def test_unmarked_row_must_leave_pre_x_empty(self):
        with pytest.raises(ValueError, match="leave pre_x empty"):
            path_from_csv_text("t,x,jump,pre_x\n0,0,0,\n1,1,0,0\n")

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="4 columns"):
            path_from_csv_text("t,x,jump,pre_x\n0,0,0\n")

    def test_blank_lines_skipped(self):
        p = path_from_csv_text("t,x,jump,pre_x\n0,1,0,\n\n1,2,0,\n")
        assert p.n_samples == 2

    def test_file_handle_and_filename_writes_match(self, tmp_path):
        p = make_step_path()
        target = tmp_path / "path.csv"
        write_path_csv(p, str(target))
        assert target.read_bytes().decode() == path_to_csv_text(p)
        with open(target, newline="") as fh:
            q = read_path_csv(fh)
        assert q.n_samples == p.n_samples

    @given(
        gaps=st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact_for_arbitrary_paths(self, gaps, data):
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        values = np.array(
            data.draw(
                st.lists(
                    st.floats(
                        min_value=-1e12,
                        max_value=1e12,
                        allow_nan=False,
                    ),
                    min_size=times.size,
                    max_size=times.size,
                )
            )
        )
        mask = np.zeros(times.size, bool)
        if times.size > 1:
            marks = data.draw(
                st.lists(
                    st.booleans(), min_size=times.size - 1, max_size=times.size - 1
                )
            )
            mask[1:] = marks
        p = SampledCadlagPath(times, values, mask)
        q = path_from_csv_text(path_to_csv_text(p))
        np.testing.assert_array_equal(p.times, q.times)
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.jump_mask, q.jump_mask)


def test_buffer_round_trip_via_stringio():
    p = make_step_path()
    buf = io.StringIO()
    write_path_csv(p, buf)
    buf.seek(0)
    q = read_path_csv(buf)
    assert q.values[-1] == p.values[-1]


# ---------------------------------------------------------------------------
# the table writer against csv.writer
# ---------------------------------------------------------------------------

def written_text(header, columns):
    buf = io.StringIO()
    paths._write_table(buf, header, columns)
    return buf.getvalue()


EDGE_FLOATS = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
        1.7976931348623157e308, 0.1, 1.0 / 3.0,
    ]),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(),
)
PLAIN_TEXT = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=6)


class TestTableWriter:
    def test_path_csv_matches_csv_writer(self, csv_writer):
        p = path_from_csv_text("\n".join(long_rows()))
        pre = [""] * p.n_samples
        for i in p.jump_indices.tolist():
            pre[i] = "%.17g" % p.values[i - 1]
        jump = ["1" if m else "0" for m in p.jump_mask.tolist()]
        assert path_to_csv_text(p) == csv_writer(
            ["t", "x", "jump", "pre_x"], [p.times, p.values, jump, pre]
        )

    @given(
        kinds=st.lists(st.booleans(), min_size=1, max_size=5),
        n=st.integers(0, 40),
        block=st.sampled_from([1, 3, paths._BLOCK_ROWS]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_and_text_columns_match_csv_writer(
        self, csv_writer, kinds, n, block, data
    ):
        columns = [
            np.array(data.draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n)))
            if is_float
            else data.draw(st.lists(PLAIN_TEXT, min_size=n, max_size=n))
            for is_float in kinds
        ]
        header = [f"c{i}" for i in range(len(kinds))]
        if len(kinds) == 1 and not kinds[0] and "" in columns[0]:
            # csv.writer quotes a row whose one cell is empty
            with pytest.raises(ValueError):
                written_text(header, columns)
            return
        with mock.patch.object(paths, "_BLOCK_ROWS", block):
            assert written_text(header, columns) == csv_writer(
                header, columns
            )

    def test_a_2d_array_is_written_row_major(self, csv_writer):
        table = np.arange(6.0).reshape(2, 3) / 3.0
        rows = [str(i) for i in range(6)]
        assert written_text(["i", "v"], [rows, table]) == csv_writer(
            ["i", "v"], [rows, table.ravel()]
        )

    @pytest.mark.parametrize("bad", [",", '"', "\r", "\n", "a,b", 'say "x"',
                                     "a\r\nb"])
    @pytest.mark.parametrize("row", [0, 5, 1500])
    def test_a_cell_that_needs_quoting_is_refused(self, bad, row):
        cells = ["ok"] * 2000
        cells[row] = bad
        with pytest.raises(ValueError):
            written_text(["x", "text"], [np.zeros(2000), cells])
        with pytest.raises(ValueError):
            written_text(["x", bad], [np.zeros(2), ["a", "b"]])

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            written_text(["x", "y"], [np.zeros(3), ["a", "b"]])
        with pytest.raises(ValueError):
            written_text(["x", "y"], [np.zeros(3)])


# ---------------------------------------------------------------------------
# the block-wise reader against the row loop it replaced
# ---------------------------------------------------------------------------

def row_loop_read(text):
    """The reader ``read_path_csv`` had before block-wise parsing: one
    ``csv.reader`` row, ``strip`` and ``float`` calls at a time.  It is the
    oracle for every path, and every message, of the block-wise reader."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["t", "x", "jump", "pre_x"]:
        raise ValueError("path csv must start with header 't,x,jump,pre_x'")
    times, values, marks = [], [], []
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise ValueError(f"path csv row needs 4 columns, got {len(row)}")
        t, x, jump, pre = (c.strip() for c in row)
        times.append(float(t))
        values.append(float(x))
        if jump not in ("0", "1"):
            raise ValueError(f"jump column must be 0 or 1, got {jump!r}")
        marked = jump == "1"
        marks.append(marked)
        if marked:
            if not pre:
                raise ValueError("marked rows must carry pre_x")
            if len(values) < 2 or float(pre) != values[-2]:
                raise ValueError("pre_x must equal the previous sample value exactly")
        elif pre:
            raise ValueError("unmarked rows must leave pre_x empty")
    return SampledCadlagPath(
        np.asarray(times), np.asarray(values), np.asarray(marks, bool)
    )


def outcome(read, text):
    """The path's arrays, or the type and message of the error."""
    try:
        p = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return p.times.tobytes(), p.values.tobytes(), p.jump_mask.tobytes()


def long_rows(n=2**14, seed=5):
    """Header and rows of a path of ``n`` samples, every 97th row marked."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(0.0, 0.01, n))
    mask = np.zeros(n, bool)
    mask[97::97] = True
    p = SampledCadlagPath(np.arange(n) / n, values, mask)
    return path_to_csv_text(p).splitlines()


DEEP = 12_000  # a row index far past the first block


def deep_fault(row):
    """``long_rows`` with row ``DEEP`` replaced by ``row(cells, previous
    row's cells)``."""
    lines = long_rows()
    lines[DEEP] = row(lines[DEEP].split(","), lines[DEEP - 1].split(","))
    return "\n".join(lines) + "\n"


class TestCsvReaderContract:
    @pytest.mark.parametrize(
        "row,message",
        [
            (lambda c, _: ",".join(c[:3]), "path csv row needs 4 columns, got 3"),
            (lambda c, _: ",".join(c + [""]), "path csv row needs 4 columns, got 5"),
            (lambda c, _: ",".join(["abc"] + c[1:]),
             "could not convert string to float: 'abc'"),
            (lambda c, _: ",".join([c[0], "1.2.3"] + c[2:]),
             "could not convert string to float: '1.2.3'"),
            (lambda c, _: ",".join(c[:2] + ["2", ""]),
             "jump column must be 0 or 1, got '2'"),
            (lambda c, _: ",".join(c[:2] + ["1", ""]), "marked rows must carry pre_x"),
            (lambda c, _: ",".join(c[:2] + ["1", "0.5"]),
             "pre_x must equal the previous sample value exactly"),
            (lambda c, prev: ",".join(c[:2] + ["0", prev[1]]),
             "unmarked rows must leave pre_x empty"),
            (lambda c, prev: ",".join(prev),
             "times must be strictly increasing"),
        ],
    )
    def test_message_of_a_fault_deep_in_the_file(self, row, message):
        text = deep_fault(row)
        assert len(text) > 2 * paths._BLOCK_CHARS
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            path_from_csv_text(text)
        assert outcome(row_loop_read, text) == (ValueError, message)

    def test_earlier_of_two_faults_in_different_blocks_is_raised(self):
        lines = long_rows()
        lines[3_000] = "0.5,1,7,"
        lines[DEEP] = "0.5,1,0"
        text = "\n".join(lines)
        with pytest.raises(ValueError, match="got '7'"):
            path_from_csv_text(text)
        lines[3_000], lines[DEEP] = lines[DEEP], lines[3_000]
        with pytest.raises(ValueError, match="got 3"):
            path_from_csv_text("\n".join(lines))

    def test_short_row_is_refused_when_a_long_row_realigns_the_cells(self):
        # as one run of cells, the 3 + 5 cells read as two valid rows
        text = "t,x,jump,pre_x\n0,0,0\n,1,2,0,\n"
        with pytest.raises(ValueError, match="^path csv row needs 4 columns, got 3$"):
            path_from_csv_text(text)

    def test_bad_flag_is_named_before_a_missing_pre_x(self):
        with pytest.raises(ValueError, match="jump column must be 0 or 1, got 'x'"):
            path_from_csv_text("t,x,jump,pre_x\n0,0,0,\n1,1,x,\n")

    @pytest.mark.parametrize("pre", ["0", "abc", ""])
    def test_marked_first_row_is_refused(self, pre):
        message = ("marked rows must carry pre_x" if not pre
                   else "pre_x must equal the previous sample value exactly")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            path_from_csv_text(f"t,x,jump,pre_x\n,,,\n0,0,1,{pre}\n")

    def test_line_ends_read_identically(self, tmp_path):
        text = "\n".join(long_rows()) + "\n"
        expected = outcome(path_from_csv_text, text)
        for end in ["\n", "\r\n", "\r"]:
            target = tmp_path / "path.csv"
            target.write_bytes(text.replace("\n", end).encode())
            assert outcome(read_path_csv, str(target)) == expected
            assert outcome(path_from_csv_text, text.replace("\n", end)) == expected

    def test_writer_output_never_falls_back_to_the_row_loop(self, tmp_path):
        p = path_from_csv_text("\n".join(long_rows()))
        target = tmp_path / "path.csv"
        write_path_csv(p, str(target))
        with mock.patch.object(paths, "_row_columns", side_effect=AssertionError):
            assert outcome(read_path_csv, str(target)) == outcome(lambda q: q, p)

    def test_padded_cells_and_blank_rows_across_block_boundaries(self):
        lines = long_rows()
        blanks = ["", "   ", ",,,", " ,\t, , ", ",", "\xa0,\u3000"]
        padded = [lines[0]]
        for i, line in enumerate(lines[1:], 1):
            # a run of blank rows longer than a block, then rows each
            # followed by a blank one, so blanks fall on many block edges
            if i == 6_000:
                padded += [" , , , "] * (paths._BLOCK_CHARS // 7 + 10)
            elif i % 50 == 0:
                padded.append(blanks[i // 50 % len(blanks)])
            padded.append(",".join(f" {c}\t" for c in line.split(",")))
        text = "\r\n".join(padded) + "\r\n"
        assert outcome(path_from_csv_text, text) == outcome(
            path_from_csv_text, "\n".join(lines)
        )
        assert outcome(path_from_csv_text, text) == outcome(row_loop_read, text)

    @pytest.mark.parametrize(
        "text",
        [
            '"t","x","jump","pre_x"\n"0","0","0",""\n',
            't,x,jump,pre_x\n"0","0","0",""\n',
            't,x,jump,pre_x\n0,0,0,\n"1","2",0,\n',
        ],
    )
    def test_quoted_cells_are_refused(self, text):
        with pytest.raises(ValueError):
            path_from_csv_text(text)

    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        end=st.sampled_from(["\n", "\r\n"]),
        block=st.sampled_from([1, 40, 200, paths._BLOCK_CHARS]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["cell", "comma", "blank", "flag"]),
                st.integers(0, 10**6),
                st.sampled_from(
                    ["", " ", "0", "1", "2", "abc", "nan", "1e400", "-0",
                     " 1 ", "0.5", "1_0", ",,,", " , , , "]
                ),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_texts_match_the_row_loop(self, n, seed, end, block, edits):
        rng = np.random.default_rng(seed)
        values = np.round(np.cumsum(rng.normal(0.0, 1.0, n)), int(rng.integers(0, 3)))
        mask = np.zeros(n, bool)
        mask[1:] = rng.random(n - 1) < 0.3
        lines = path_to_csv_text(
            SampledCadlagPath(np.arange(n) / 4.0, values, mask)
        ).splitlines()
        for kind, where, new in edits:
            k = where % len(lines)
            cells = lines[k].split(",")
            if kind == "cell":
                cells[where % len(cells)] = new
            elif kind == "comma" and len(cells) > 1:
                j = where % (len(cells) - 1)
                cells[j : j + 2] = [cells[j] + cells[j + 1]]
            elif kind == "blank":
                cells = [new]
            elif kind == "flag" and len(cells) > 2:
                cells[2] = {"0": "1", "1": "0"}.get(cells[2], cells[2])
            lines[k] = ",".join(cells)
        text = end.join(lines) + end
        with mock.patch.object(paths, "_BLOCK_CHARS", block):
            assert outcome(path_from_csv_text, text) == outcome(row_loop_read, text)


class TestCsvReaderBlocks:
    """Reads of ``_BLOCK_CHARS`` characters: line ends and lines that
    straddle the reads."""

    @given(
        text=st.text(st.sampled_from("ab\r\n"), max_size=60),
        block=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_are_whole_lines_with_every_line_end_translated(
        self, text, block
    ):
        with mock.patch.object(paths, "_BLOCK_CHARS", block):
            blocks = list(paths._text_blocks(io.StringIO(text)))
        assert "".join(blocks) == text.replace("\r\n", "\n").replace("\r", "\n")
        assert all(b.endswith("\n") for b in blocks[:-1])
        assert all(blocks)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    @pytest.mark.parametrize("source", ["stringio", "open file", "filename"])
    def test_line_end_split_across_two_reads_is_one_line_end(
        self, tmp_path, end, source
    ):
        text = "\n".join(long_rows(n=400)) + "\n"
        other = text.replace("\n", end)
        # the first read ends in the "\r" of a line end
        block = other.index("\r", 1000) + 1
        target = tmp_path / "path.csv"
        target.write_bytes(other.encode())

        def read(_):
            if source == "stringio":
                return path_from_csv_text(other)
            if source == "filename":
                return read_path_csv(str(target))
            with open(target, newline="") as fh:
                return read_path_csv(fh)

        with mock.patch.object(paths, "_BLOCK_CHARS", block), \
                mock.patch.object(paths, "_row_columns", side_effect=AssertionError):
            if source == "stringio":
                assert "".join(paths._text_blocks(io.StringIO(other))) == text
            assert outcome(read, None) == outcome(path_from_csv_text, text)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_line_longer_than_a_block(self, tmp_path, end):
        lines = long_rows(n=60)
        padded = list(lines)
        padded[30] = " " * (paths._BLOCK_CHARS + 100) + lines[30]
        text = end.join(padded) + end
        expected = outcome(path_from_csv_text, "\n".join(lines))
        assert outcome(path_from_csv_text, text) == expected
        assert outcome(row_loop_read, text) == expected
        target = tmp_path / "path.csv"
        target.write_bytes(text.encode())
        assert outcome(read_path_csv, str(target)) == expected
