"""Level-crossing fields K and J, the exact discrete Tanaka identity, and
the occupation-density estimator."""

import numpy as np
import pytest

from leveltime import (
    LevelGrid,
    LocalTimeField,
    PartitionScheme,
    SampledCadlagPath,
    builtin_suite,
    discrete_tanaka_residual,
    j_pi,
    k_pi,
    mollify,
    occupation_local_time,
    split_Kc_Kd,
    total_variation,
)


def zigzag_path():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, 1.0, 0.0, 1.0])
    return SampledCadlagPath(times, values)


class TestKField:
    def test_single_increment_point_values(self):
        p = SampledCadlagPath([0.0, 1.0], [0.2, 0.8])
        grid = LevelGrid(0.0, 0.1, 11)
        field = k_pi(p, PartitionScheme.full(2), 0, grid=grid, mode="point")
        levels = grid.levels
        expected = np.where(
            (levels >= 0.2) & (levels < 0.8), np.abs(0.8 - levels), 0.0
        )
        np.testing.assert_allclose(field.level_values(), expected, atol=1e-12)

    def test_zigzag_point_field_sums_upcrossing_distances(self):
        # increments 0->1, 1->0, 0->1: levels u in [0, 1) are straddled by
        # all three, with endpoint distances (1-u) + u + (1-u) = 2 - u
        p = zigzag_path()
        grid = LevelGrid(0.0, 0.25, 4)
        field = k_pi(p, PartitionScheme.full(4), 0, grid=grid, mode="point")
        np.testing.assert_allclose(
            field.level_values(), 2.0 - grid.levels, atol=1e-12
        )

    def test_cell_mode_mass_identity(self, step_path):
        # du * total K mass telescopes to half the sum of squared partition
        # increments, exactly, because each cell stores its exact average
        p = step_path(21)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 5))
        for n in range(scheme.n_levels):
            field = k_pi(p, scheme, n, grid=grid, mode="cell")
            idx = scheme[n]
            inc = np.diff(p.values[idx])
            np.testing.assert_allclose(
                field.masses()[0], 0.5 * np.sum(inc**2), rtol=1e-12
            )

    def test_multi_time_rows_are_monotone(self, step_path):
        p = step_path(22)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        times = [0.25, 0.5, 1.0]
        field = k_pi(
            p, PartitionScheme.full(p.n_samples), 0, t=times, grid=grid
        )
        assert field.n_times == 3
        diffs = np.diff(field.data, axis=0)
        assert diffs.min() >= -1e-12

    def test_needs_grid(self, step_path):
        p = step_path(1)
        with pytest.raises(ValueError, match="grid"):
            k_pi(p, PartitionScheme.full(p.n_samples), 0)
        with pytest.raises(ValueError, match="mode"):
            k_pi(
                p,
                PartitionScheme.full(p.n_samples),
                0,
                grid=LevelGrid(0.0, 0.1, 3),
                mode="smooth",
            )


class TestJField:
    def test_jump_mass_identity(self, step_path):
        p = step_path(23, jump_rate=9.0)
        assert p.jump_indices.size > 0
        grid = LevelGrid.for_path(p, 0.04, margin=0.1)
        field = j_pi(p, grid=grid, mode="cell")
        sizes = p.values[p.jump_indices] - p.pre_jump_values()
        np.testing.assert_allclose(
            field.masses()[0], 0.5 * np.sum(sizes**2), rtol=1e-12
        )

    def test_no_jumps_gives_zero_field(self, step_path):
        p = step_path(24, jump_rate=0.0)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        field = j_pi(p, grid=grid)
        assert field.level_values().sum() == 0.0

    def test_time_clipping_drops_later_jumps(self):
        times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        values = np.array([0.0, 1.0, 1.0, 2.0, 2.0])
        mask = np.array([False, True, False, True, False])
        p = SampledCadlagPath(times, values, mask)
        grid = LevelGrid(-0.5, 0.05, 61)
        early = j_pi(p, t=0.3, grid=grid, mode="cell").masses()[0]
        late = j_pi(p, t=1.0, grid=grid, mode="cell").masses()[0]
        assert early == pytest.approx(0.5, rel=1e-12)
        assert late == pytest.approx(1.0, rel=1e-12)


class TestDiscreteTanaka:
    @pytest.mark.parametrize("f", builtin_suite(), ids=lambda f: f.name)
    def test_identity_exact_on_random_paths(self, f, step_path):
        for seed in (31, 32, 33):
            p = step_path(seed)
            scheme = PartitionScheme.dyadic(p.n_samples, range(1, 6), include_jumps=p)
            tol = 1e-9 * (1.0 + total_variation(p))
            for n in range(scheme.n_levels):
                res = discrete_tanaka_residual(p, f, scheme, n)
                assert abs(res) <= tol, (f.name, seed, n)

    def test_identity_exact_at_interior_times(self, step_path):
        p = step_path(34)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 5))
        f = builtin_suite()[4]
        tol = 1e-9 * (1.0 + total_variation(p))
        for t in (0.21, 0.5, 0.83):
            assert abs(discrete_tanaka_residual(p, f, scheme, 2, t=t)) <= tol

    def test_identity_holds_for_mollified_members(self, step_path):
        # mollified measures route through the quadrature fallback, so the
        # residual reflects Gauss-Legendre accuracy rather than exactness
        p = step_path(35, n_samples=60)
        scheme = PartitionScheme.full(p.n_samples)
        fn = mollify(builtin_suite()[0], 2)
        assert abs(discrete_tanaka_residual(p, fn, scheme, 0)) < 1e-7

    def test_zigzag_abs_by_hand(self):
        # f = |x - 1/2|: lhs telescopes to 1/2 - (-1/2 + 1/2 - 1/2) = 1
        # minus nothing; each of the three unit increments crosses the kink
        # at distance 1/2 from its endpoint, so rhs = 3 * 2 * (1/2) * ...
        # worked out: residual must vanish identically
        p = zigzag_path()
        f = builtin_suite()[0]
        res = discrete_tanaka_residual(p, f, PartitionScheme.full(4), 0)
        assert res == pytest.approx(0.0, abs=1e-15)


class TestSplit:
    def test_kinds_and_doubling(self, step_path):
        p = step_path(41, jump_rate=8.0)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        scheme = PartitionScheme.full(p.n_samples)
        K = k_pi(p, scheme, 0, grid=grid)
        J = j_pi(p, grid=grid)
        kc, ell = split_Kc_Kd(K, J)
        assert kc.kind == "Kc"
        assert ell.kind == "L_occupation"
        np.testing.assert_allclose(ell.data, 2.0 * kc.data, atol=0.0)

    def test_pure_jump_path_has_zero_continuous_part(self):
        times = np.array([0.0, 0.2, 0.4, 0.6, 1.0])
        values = np.array([0.0, 1.0, -0.5, 0.25, 0.25])
        mask = np.array([False, True, True, True, False])
        p = SampledCadlagPath(times, values, mask)
        grid = LevelGrid(-1.0, 0.05, 50)
        scheme = PartitionScheme.full(p.n_samples)
        # on the full partition every interval is either a marked jump or a
        # flat step, so K and J coincide pointwise and Kc is exactly zero
        for mode in ("point", "cell"):
            K = k_pi(p, scheme, 0, grid=grid, mode=mode)
            J = j_pi(p, grid=grid, mode=mode)
            kc, ell = split_Kc_Kd(K, J)
            assert kc.data.max() == 0.0
            assert ell.masses()[0] == 0.0

    def test_mismatched_grids_rejected(self, step_path):
        p = step_path(42)
        g1 = LevelGrid.for_path(p, 0.05, margin=0.1)
        g2 = LevelGrid.for_path(p, 0.1, margin=0.1)
        K = k_pi(p, PartitionScheme.full(p.n_samples), 0, grid=g1)
        J = j_pi(p, grid=g2)
        with pytest.raises(ValueError, match="grid"):
            split_Kc_Kd(K, J)


class TestOccupation:
    def test_mass_matches_banded_increments(self, step_path):
        p = step_path(51)
        grid = LevelGrid.for_path(p, 0.02, margin=0.5)
        eps = 0.1
        field = occupation_local_time(p, bandwidth=eps, grid=grid)
        # total mass: du/(2 eps) * sum over increments of (band level count)
        inc = np.diff(p.values)
        unmarked = ~p.jump_mask[1:]
        left = p.values[:-1][unmarked]
        w = inc[unmarked] ** 2
        count = np.array(
            [np.sum(np.abs(left - u) <= eps) for u in grid.levels]
        )
        direct = grid.du / (2 * eps) * np.sum(
            [wi * np.sum(np.abs(li - grid.levels) <= eps) for li, wi in zip(left, w)]
        )
        assert field.masses()[0] == pytest.approx(direct, rel=1e-10)
        assert count.max() > 0

    def test_bandwidth_validation(self, step_path):
        p = step_path(52)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        with pytest.raises(ValueError, match="positive"):
            occupation_local_time(p, bandwidth=0.0, grid=grid)
        with pytest.raises(ValueError, match="under the grid spacing"):
            occupation_local_time(p, bandwidth=0.01, grid=grid)
        with pytest.raises(ValueError, match="grid"):
            occupation_local_time(p, bandwidth=0.1)

    def test_jump_increments_excluded(self):
        times = np.array([0.0, 0.5, 1.0])
        values = np.array([0.0, 5.0, 5.0])
        mask = np.array([False, True, False])
        p = SampledCadlagPath(times, values, mask)
        grid = LevelGrid(0.0, 0.5, 11)
        field = occupation_local_time(p, bandwidth=0.5, grid=grid)
        assert field.level_values().sum() == 0.0

    def test_width_recorded(self, step_path):
        p = step_path(53)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        field = occupation_local_time(p, bandwidth=0.2, grid=grid)
        assert field.width == 0.2
        assert field.kind == "L_occupation"


class TestLocalTimeField:
    def test_kind_validation(self):
        grid = LevelGrid(0.0, 0.1, 3)
        with pytest.raises(ValueError, match="kind"):
            LocalTimeField(grid, [1.0], np.zeros(3), "M")

    def test_shape_validation(self):
        grid = LevelGrid(0.0, 0.1, 3)
        with pytest.raises(ValueError, match="n_times"):
            LocalTimeField(grid, [1.0, 2.0], np.zeros((1, 3)), "K")

    def test_times_must_be_nondecreasing(self):
        grid = LevelGrid(0.0, 0.1, 3)
        with pytest.raises(ValueError, match="nondecreasing"):
            LocalTimeField(grid, [2.0, 1.0], np.zeros((2, 3)), "K")

    def test_negative_data_rejected_but_noise_clipped(self):
        grid = LevelGrid(0.0, 0.1, 3)
        with pytest.raises(ValueError, match="below zero"):
            LocalTimeField(grid, [1.0], np.array([0.0, -1.0, 0.0]), "K")
        field = LocalTimeField(grid, [1.0], np.array([0.0, -1e-12, 0.5]), "K")
        assert field.data.min() == 0.0

    def test_data_read_only(self):
        grid = LevelGrid(0.0, 0.1, 3)
        field = LocalTimeField(grid, [1.0], np.ones(3), "K")
        with pytest.raises(ValueError):
            field.data[0, 0] = 2.0

    def test_replace_data_keeps_geometry(self):
        grid = LevelGrid(0.0, 0.1, 3)
        field = LocalTimeField(grid, [1.0], np.ones(3), "K")
        other = field.replace_data(2.0 * field.data, kind="Kc")
        assert other.kind == "Kc"
        assert other.grid == grid
        np.testing.assert_array_equal(other.data, 2.0 * field.data)
