"""Path skeleton, partition schemes, level grids, and the CSV round trip."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import (
    ConfigError,
    LevelGrid,
    PartitionScheme,
    SampledCadlagPath,
    jump_sizes,
    path_from_csv_text,
    path_to_csv_text,
    read_path_csv,
    restrict,
    total_variation,
    value_at,
    write_path_csv,
)


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
        np.testing.assert_array_equal(p.pre_jump_values(), [1.0])
        np.testing.assert_array_equal(jump_sizes(p), [-1.5])

    def test_index_at_is_right_continuous_floor(self):
        p = make_step_path()
        assert p.index_at(0.0) == 0
        assert p.index_at(0.25) == 1
        assert p.index_at(0.3) == 1
        assert p.index_at(1.0) == 4
        with pytest.raises(ValueError, match="outside"):
            p.index_at(1.5)
        with pytest.raises(ValueError, match="outside"):
            p.index_at(-0.1)

    def test_value_at_steps(self):
        p = make_step_path()
        assert value_at(p, 0.6) == 1.0
        assert value_at(p, 0.75) == -0.5

    def test_restrict_keeps_prefix(self):
        p = make_step_path()
        q = restrict(p, 0.8)
        assert q.n_samples == 4
        assert q.final_value == -0.5
        assert list(q.jump_indices) == [3]

    def test_total_variation_hand_value(self):
        p = make_step_path()
        assert total_variation(p) == pytest.approx(1.0 + 0.0 + 1.5 + 0.75)


class TestPartitionScheme:
    def test_dyadic_levels_refine(self):
        scheme = PartitionScheme.dyadic(1025, range(1, 6))
        assert scheme.n_levels == 5
        assert scheme.refining
        assert scheme[0].size == 3
        assert scheme[4].size == 33
        assert scheme.last_index == 1024

    def test_dyadic_takes_any_exponent_list(self):
        scheme = PartitionScheme.dyadic(1025, [0, 3, 20])
        np.testing.assert_array_equal(scheme[0], [0, 1024])
        assert scheme[1].size == 9
        # 2**20 + 1 points cap at the 1025 samples: every index
        np.testing.assert_array_equal(scheme[2], np.arange(1025))
        assert scheme.refining
        np.testing.assert_array_equal(
            PartitionScheme.dyadic(65, [40])[0], np.arange(65)
        )

    def test_dyadic_rejects_negative_or_missing_exponents(self):
        with pytest.raises(ValueError, match=">= 0"):
            PartitionScheme.dyadic(65, [2, -1])
        with pytest.raises(ValueError, match="at least one level"):
            PartitionScheme.dyadic(65, [])

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
        assert not scheme.refining

    def test_mesh_rejects_foreign_path(self):
        p = make_step_path()
        scheme = PartitionScheme.full(9)
        with pytest.raises(ValueError, match="samples"):
            scheme.mesh(p, 0)

    def test_from_descriptor_kinds(self):
        p = make_step_path()
        s = PartitionScheme.from_descriptor({"kind": "dyadic", "levels": 2}, 5)
        assert s.n_levels == 2
        s = PartitionScheme.from_descriptor(
            {"kind": "uniform", "counts": [3, 5]}, 5
        )
        assert s.n_levels == 2
        s = PartitionScheme.from_descriptor(
            {"kind": "explicit", "indices": [[0, 2, 4]]}, 5
        )
        assert s[0].size == 3
        s = PartitionScheme.from_descriptor({"kind": "full"}, 5)
        assert s[0].size == 5
        s = PartitionScheme.from_descriptor(
            {"kind": "dyadic", "levels": 2, "include_jumps": True}, 5, path=p
        )
        assert 3 in s[0]

    def test_from_descriptor_errors(self):
        with pytest.raises(ConfigError, match="kind"):
            PartitionScheme.from_descriptor({"levels": 2}, 5)
        with pytest.raises(ConfigError, match="unknown partition kind"):
            PartitionScheme.from_descriptor({"kind": "fibonacci"}, 5)
        with pytest.raises(ConfigError, match="missing field"):
            PartitionScheme.from_descriptor({"kind": "dyadic"}, 5)
        with pytest.raises(ConfigError, match="include_jumps requires"):
            PartitionScheme.from_descriptor(
                {"kind": "dyadic", "levels": 2, "include_jumps": True}, 5
            )
        with pytest.raises(ConfigError, match="bad partition"):
            PartitionScheme.from_descriptor(
                {"kind": "uniform", "counts": [1]}, 5
            )


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

    def test_cell_index_nearest_level(self):
        g = LevelGrid(0.0, 0.5, 5)
        assert g.cell_index(0.2) == 0
        assert g.cell_index(0.3) == 1
        np.testing.assert_array_equal(g.cell_index([0.0, 1.1, 2.0]), [0, 2, 4])
        with pytest.raises(ValueError, match="outside"):
            g.cell_index(2.5)
        with pytest.raises(ValueError, match="outside"):
            g.cell_index(-0.3)

    def test_integrate_riemann_sum(self):
        g = LevelGrid(0.0, 0.25, 4)
        assert g.integrate([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
        with pytest.raises(ValueError, match="match the grid"):
            g.integrate([1.0, 2.0])

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
    assert q.final_value == p.final_value
