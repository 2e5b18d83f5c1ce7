"""Band regularization, crossing counts, the Banach indicatrix, and the
three Stieltjes integral routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import (
    LevelGrid,
    SampledCadlagPath,
    SkorokhodSolution,
    banach_indicatrix,
    banach_indicatrix_integral,
    crossing_count_field,
    interval_crossing_local_time,
    j_pi,
    make_abs,
    make_mix,
    make_square,
    monotone_segments,
    skorokhod_map,
    stieltjes_integral_band,
    stieltjes_integral_fprime,
    stieltjes_integral_ibp,
    total_variation,
)
from leveltime.skorokhod import exceptional_levels
from test_kernels import ref_crossings


def tent_path():
    return SampledCadlagPath([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def zigzag4():
    return SampledCadlagPath([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0])


class TestSkorokhodMap:
    def test_tent_with_unit_band(self):
        sol = skorokhod_map(tent_path(), 1.0)
        np.testing.assert_allclose(sol.regularized.values, [0.0, 0.5, 0.5])
        np.testing.assert_allclose(sol.deviation, [0.0, 0.5, -0.5])
        assert sol.half_width == 0.5
        assert total_variation(sol.regularized) == pytest.approx(0.5)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            skorokhod_map(tent_path(), 0.0)

    def test_regularized_keeps_times_and_marks(self, step_path):
        p = step_path(61, jump_rate=8.0)
        sol = skorokhod_map(p, 0.3)
        np.testing.assert_array_equal(sol.regularized.times, p.times)
        np.testing.assert_array_equal(sol.regularized.jump_mask, p.jump_mask)
        # shared, not copied; the new values are read-only like the path's
        assert sol.regularized.times is p.times
        assert sol.regularized.jump_mask is p.jump_mask
        assert not sol.regularized.values.flags.writeable

    def test_revalued_path_checks_the_new_values(self):
        p = tent_path()
        with pytest.raises(ValueError, match="finite"):
            p._revalued(np.array([0.0, np.inf, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            p._revalued(np.zeros(2))

    @pytest.mark.parametrize("eps", [1.0, 0.25, 0.04])
    def test_band_invariants(self, eps, step_path):
        for seed in (62, 63, 64):
            p = step_path(seed)
            sol = skorokhod_map(p, eps)
            reg = sol.regularized.values
            half = 0.5 * eps
            # the deviation never leaves the band
            assert np.max(np.abs(p.values - reg)) <= half
            # movement happens only with the deviation pinned on a barrier
            moved = np.diff(reg) != 0.0
            assert np.all(np.abs(sol.deviation[1:][moved]) == half)
            # stalls copy the previous regularized value bit for bit
            assert np.all(reg[1:][~moved] == reg[:-1][~moved])

    def test_variation_monotone_in_band_width(self, step_path):
        # a wider band absorbs more oscillation, so TV(x^eps) shrinks as eps
        # grows (this is the truncated variation in disguise)
        for seed in (65, 66):
            p = step_path(seed)
            tvs = [
                total_variation(skorokhod_map(p, eps).regularized)
                for eps in (0.8, 0.4, 0.2, 0.1)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(tvs[:-1], tvs[1:]))
            assert tvs[0] <= total_variation(p)

    def test_segments_tile_the_index_range(self, step_path):
        p = step_path(67)
        sol = skorokhod_map(p, 0.2)
        segs = sol.monotone_segments
        assert segs[0][0] == 0
        assert segs[-1][1] == p.n_samples - 1
        for (s0, e0, d0), (s1, e1, d1) in zip(segs[:-1], segs[1:]):
            assert s1 == e0
            assert d0 != 0 and d1 != 0 and d0 != d1


def ref_monotone_segments(values):
    """Per-step reference loop for monotone_segments."""
    values = np.asarray(values, np.float64)
    n = values.size
    if n <= 1:
        return [[0, max(n - 1, 0), 0]]
    segs = []
    start = 0
    direction = 0
    for i in range(1, n):
        d = values[i] - values[i - 1]
        s = 0 if d == 0 else (1 if d > 0 else -1)
        if s == 0:
            continue
        if direction == 0:
            direction = s
        elif s != direction:
            segs.append([start, i - 1, direction])
            start = i - 1
            direction = s
    segs.append([start, n - 1, direction])
    return segs


def ref_indicatrix(values, segs, z):
    """Per-segment loop reference for banach_indicatrix at an array of
    levels ``z``."""
    z = np.asarray(z, np.float64)
    count = np.zeros(z.shape, np.int64)
    for start, end, direction in segs:
        a = values[start]
        b = values[end]
        if direction > 0:
            count += (a < z) & (z <= b)
        elif direction < 0:
            count += (b <= z) & (z < a)
    return count


def ref_indicatrix_integral(solution, t=None):
    """Slicing-loop reference for banach_indicatrix_integral: every slice
    between neighbouring endpoint values counts the segments that span it,
    O(S^2) in the number S of segments."""
    reg = solution.regularized
    values = reg.values[: reg.index_at(t) + 1]
    intervals = []
    for start, end, _ in ref_monotone_segments(values):
        a = float(values[start])
        b = float(values[end])
        if a != b:
            intervals.append((min(a, b), max(a, b)))
    if not intervals:
        return 0.0
    cuts = np.unique(np.array([p for iv in intervals for p in iv]))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        cover = sum(1 for a, b in intervals if a <= lo and hi <= b)
        total += cover * (hi - lo)
    return total


def solution_of(values):
    """A band solution whose regularized path has exactly ``values``."""
    p = SampledCadlagPath(np.arange(len(values), dtype=float), values)
    return SkorokhodSolution(
        path=p,
        regularized=p,
        deviation=np.zeros(len(values)),
        eps=1e-300,
        monotone_segments=monotone_segments(values),
    )


EDGE_VALUES = [
    [2.0, 2.0, 2.0],  # all flat
    [1.0],  # one sample
    [0.0, 0.5, 0.5, 2.0],  # a single segment
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 1.0],  # repeated endpoints
    # adjacent floats: slices one ulp wide, whose midpoint rounds onto a cut
    [0.0, np.nextafter(1.0, 2.0), 1.0, 3.0],
    [2.0, np.nextafter(1.0, 0.0), 1.0, -1.0, 1.0],
    [1.0, np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 2.0)],
    # a slice whose midpoint overflows
    [1e308, 1.5e308, 1e308],
]


def walk_values(steps, kind, centre):
    """An integer walk from ``centre``, or a walk of ``steps`` ulps."""
    if kind == "walk":
        return centre + np.cumsum(np.asarray(steps, np.float64))
    values, v = np.empty(len(steps)), centre
    for i, k in enumerate(steps):
        for _ in range(abs(k)):
            v = np.nextafter(v, np.inf if k > 0 else -np.inf)
        values[i] = v
    return values


# integer walks tie many segment ends; walks of a few ulps make segment ends
# adjacent floats, near 0 with both signed zeros, and near 1.7e308 slices
# whose midpoints overflow
WALKS = (
    st.lists(st.integers(-4, 4), min_size=1, max_size=60),
    st.sampled_from(["walk", "ulps"]),
    st.sampled_from([0.0, 1.0, -3.0, 1e-310, 1e300, -1.7e308]),
    st.lists(st.floats(0.0, 1.0), max_size=3),
)


class TestMonotoneSegments:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1.0],
            [2.0, 2.0, 2.0],
            [0.0, 0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [3.0, 3.0, 1.0, 1.0, 2.0, 2.0],
        ],
    )
    def test_edge_inputs_match_the_loop(self, values):
        assert monotone_segments(values).tolist() == ref_monotone_segments(
            values
        )

    @given(st.lists(st.integers(-3, 3), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_on_integer_walks(self, steps):
        # small integer steps make flat runs and ties frequent
        values = np.cumsum(np.asarray(steps, np.float64))
        segs = monotone_segments(values)
        assert segs.tolist() == ref_monotone_segments(values)
        assert segs.dtype == np.int64 and segs.shape[1:] == (3,)

    def test_matches_the_loop_on_band_solutions(self, step_path):
        p = step_path(8, n_samples=4097)
        for eps in (0.4, 0.1, 0.01):
            reg = skorokhod_map(p, eps).regularized.values
            assert monotone_segments(reg).tolist() == ref_monotone_segments(reg)

    def test_constant(self):
        assert monotone_segments([2.0, 2.0, 2.0]).tolist() == [[0, 2, 0]]

    def test_single_sample(self):
        assert monotone_segments([1.0]).tolist() == [[0, 0, 0]]

    def test_flat_steps_stay_in_run(self):
        segs = monotone_segments([0.0, 1.0, 1.0, 2.0, 0.0])
        assert segs.tolist() == [[0, 3, 1], [3, 4, -1]]


class TestCrossingCounts:
    # one level at 0.5, the zigzag's midpoint
    ONE_LEVEL = LevelGrid(0.5, 1.0, 1)

    def test_zigzag_band_counts_by_hand(self):
        # two upcrossings and one downcrossing, with either arming rule
        p = zigzag4()
        assert crossing_count_field(p, self.ONE_LEVEL, 0.4).tolist() == [3]
        assert crossing_count_field(
            p, self.ONE_LEVEL, 0.4, strict=True
        ).tolist() == [3]

    def test_zero_width_needs_strict(self):
        p = zigzag4()
        assert crossing_count_field(
            p, self.ONE_LEVEL, 0.0, strict=True
        ).tolist() == [3]

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            crossing_count_field(zigzag4(), self.ONE_LEVEL, -0.1)

    def test_time_clipping(self):
        early = crossing_count_field(zigzag4(), self.ONE_LEVEL, 0.4, t=1.0)
        assert early.tolist() == [1]

    def test_field_matches_scalar_counts(self, step_path):
        # every level against the reference loop of test_kernels
        p = step_path(71)
        grid = LevelGrid.for_path(p, 0.05, margin=0.2)
        for t in (None, 0.63):
            values = p.values[: p.index_at(t) + 1]
            for eps, strict in ((0.2, False), (0.2, True), (0.0, True)):
                field = crossing_count_field(p, grid, eps, t=t, strict=strict)
                expected = [
                    sum(ref_crossings(values, z, eps, strict))
                    for z in grid.levels
                ]
                assert field.tolist() == expected

    def test_field_rejects_zero_width_non_strict(self, step_path):
        p = step_path(72)
        grid = LevelGrid.for_path(p, 0.1, margin=0.1)
        with pytest.raises(ValueError, match="eps > 0"):
            crossing_count_field(p, grid, 0.0, strict=False)


class TestBanachIndicatrix:
    def test_tent_counts(self):
        sol = skorokhod_map(tent_path(), 0.2)
        # reg = [0, 0.9, 0.1]: up segment then down segment
        assert banach_indicatrix(sol, 0.5) == 2
        assert banach_indicatrix(sol, 0.05) == 1
        assert banach_indicatrix(sol, 0.95) == 0

    def test_integral_equals_total_variation(self, step_path):
        for seed in (73, 74):
            p = step_path(seed)
            for eps in (0.3, 0.08):
                sol = skorokhod_map(p, eps)
                tv = total_variation(sol.regularized)
                assert banach_indicatrix_integral(sol) == pytest.approx(
                    tv, abs=1e-9 * (1.0 + tv)
                )

    def test_integral_equals_total_variation_at_lab_size(self, step_path):
        # thousands of monotone segments, as the lab's band ladders produce
        p = step_path(76, n_samples=2**14 + 1, kind="brownian")
        sol = skorokhod_map(p, 0.01)
        assert len(sol.monotone_segments) > 2000
        tv = total_variation(sol.regularized)
        assert abs(banach_indicatrix_integral(sol) - tv) <= 1e-9 * (1.0 + tv)

    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01])
    def test_integral_matches_the_slicing_loop_bitwise(self, step_path, eps):
        # band_map's eps ladder on a Brownian path with thousands of
        # segments at the smallest eps
        p = step_path(79, n_samples=2**13 + 1, kind="brownian")
        sol = skorokhod_map(p, eps)
        for t in (None, 0.0, 0.37, 0.5, p.times[-1]):
            got = banach_indicatrix_integral(sol, t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(
                ref_indicatrix_integral(sol, t)
            ).tobytes()

    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01])
    def test_matches_the_segment_loop_at_every_level(self, step_path, eps):
        # band_map's eps ladder on a 2^14-sample Brownian path; the segment
        # start and end values are the ties of the half-open conventions
        p = step_path(80, n_samples=2**14 + 1, kind="brownian")
        sol = skorokhod_map(p, eps)
        grid = LevelGrid.for_path(p, 0.01, margin=0.1)
        reg = sol.regularized
        for t in (None, 0.0, 0.37, 0.5, p.times[-1]):
            values = reg.values[: reg.index_at(t) + 1]
            segs = ref_monotone_segments(values)
            ends = values[np.asarray(segs)[:, :2]].ravel()
            levels = np.concatenate([grid.levels, ends])
            got = banach_indicatrix(sol, levels, t)
            assert got.tolist() == ref_indicatrix(values, segs, levels).tolist()
            for z in levels[::41]:
                count = banach_indicatrix(sol, z, t)
                assert type(count) is int
                assert count == ref_indicatrix(values, segs, z)

    @pytest.mark.parametrize("values", EDGE_VALUES)
    def test_edge_inputs_match_the_segment_loop(self, values):
        values = np.asarray(values, np.float64)
        sol = solution_of(values)
        # halve before adding, so that the midpoints of huge values stay finite
        mids = 0.5 * values[:-1] + 0.5 * values[1:]
        levels = np.concatenate([values, mids, values - 1, values + 1])
        want = ref_indicatrix(values, ref_monotone_segments(values), levels)
        assert banach_indicatrix(sol, levels).tolist() == want.tolist()
        assert [banach_indicatrix(sol, z) for z in levels] == want.tolist()

    @pytest.mark.parametrize("values", EDGE_VALUES)
    def test_integral_edge_inputs_match_the_slicing_loop(self, values):
        sol = solution_of(np.asarray(values, np.float64))
        got = banach_indicatrix_integral(sol)
        want = ref_indicatrix_integral(sol)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        tv = total_variation(sol.regularized)
        assert abs(got - tv) <= 1e-9 * (1.0 + tv)

    @pytest.mark.parametrize(
        "values, tv",
        [
            # one-ulp slices and an overflowing midpoint: every slice counts
            ([1.0, np.nextafter(1.0, 2.0)] * 2, 3 * np.spacing(1.0)),
            ([0.0, np.nextafter(1.0, 2.0), 1.0, 3.0], 3.0000000000000004),
            ([1e308, 1.5e308, 1e308], 1e308),
        ],
    )
    def test_integral_is_the_variation_on_narrow_and_huge_slices(
        self, values, tv
    ):
        sol = solution_of(np.asarray(values, np.float64))
        assert total_variation(sol.regularized) == tv
        assert banach_indicatrix_integral(sol) == tv

    @given(*WALKS)
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_integral_matches_the_slicing_loop_on_any_walk(
        self, steps, kind, centre, fractions
    ):
        values = walk_values(steps, kind, centre)
        sol = solution_of(values)
        for t in (None, *(f * (values.size - 1) for f in fractions)):
            got = banach_indicatrix_integral(sol, t)
            want = ref_indicatrix_integral(sol, t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(*WALKS)
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_counts_match_the_segment_loop_on_any_walk(
        self, steps, kind, centre, fractions
    ):
        # at every turning value, the tie of the half-open conventions, and
        # at both of its float neighbours
        values = walk_values(steps, kind, centre)
        sol = solution_of(values)
        for t in (None, *(f * (values.size - 1) for f in fractions)):
            stopped = values[: sol.regularized.index_at(t) + 1]
            segs = ref_monotone_segments(stopped)
            ends = stopped[np.asarray(segs)[:, :2]].ravel()
            levels = np.concatenate(
                [ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]
            )
            want = ref_indicatrix(stopped, segs, levels)
            assert banach_indicatrix(sol, levels, t).tolist() == want.tolist()
            assert banach_indicatrix(sol, levels[0], t) == want[0]

    def test_time_restricted_integral(self, step_path):
        p = step_path(75)
        sol = skorokhod_map(p, 0.2)
        partial = banach_indicatrix_integral(sol, t=0.5)
        full = banach_indicatrix_integral(sol)
        assert 0.0 <= partial <= full + 1e-12

    def test_comparison_lemma_off_exceptional_levels(self, step_path):
        # strict band counts of x and the indicatrix of x^eps agree to
        # within 2 at every level clear of the exceptional set
        for seed in (76, 77, 78):
            p = step_path(seed)
            lo, hi = p.values.min() - 0.1, p.values.max() + 0.1
            grid = LevelGrid(lo, (hi - lo) / 60, 61)
            for eps in (0.4, 0.15):
                sol = skorokhod_map(p, eps)
                exc = exceptional_levels(sol)
                strict = crossing_count_field(p, grid, eps, strict=True)
                for z, n in zip(grid.levels, strict.tolist()):
                    if np.min(np.abs(exc - z)) < 1e-9:
                        continue
                    assert abs(n - banach_indicatrix(sol, z)) <= 2

    def test_exceptional_levels_cover_shifted_samples(self):
        sol = skorokhod_map(tent_path(), 0.2)
        exc = exceptional_levels(sol)
        for v in (0.9, 1.1, -0.1, 0.1):
            assert np.min(np.abs(exc - v)) < 1e-12


class TestIntervalCrossingLocalTime:
    def test_fields_scale_counts_by_width(self, step_path):
        p = step_path(81)
        grid = LevelGrid.for_path(p, 0.05, margin=0.5)
        fields = [
            interval_crossing_local_time(p, width=c, grid=grid)
            for c in (0.4, 0.2)
        ]
        assert [f.width for f in fields] == [0.4, 0.2]
        for f, c in zip(fields, (0.4, 0.2)):
            assert f.kind == "L_interval"
            counts = crossing_count_field(p, grid, c)
            np.testing.assert_allclose(f.data, c * counts, atol=0.0)

    def test_width_ladder_validation(self, step_path):
        p = step_path(82)
        grid = LevelGrid.for_path(p, 0.05, margin=0.1)
        with pytest.raises(ValueError, match="positive"):
            interval_crossing_local_time(p, width=0.0, grid=grid)
        with pytest.raises(TypeError, match="grid"):
            interval_crossing_local_time(p, width=0.2)


class TestStieltjesRoutes:
    def test_tent_square_frozen_value(self):
        p = tent_path()
        sol = skorokhod_map(p, 1.0)
        f = make_square()
        assert stieltjes_integral_fprime(p, sol, f) == pytest.approx(-0.5, abs=1e-15)
        assert stieltjes_integral_ibp(p, sol, f) == pytest.approx(-0.5, abs=1e-15)
        assert stieltjes_integral_band(p, sol, f) == pytest.approx(-0.5, abs=1e-15)

    def test_fprime_and_ibp_agree_always(self, step_path):
        for seed in (83, 84):
            p = step_path(seed)
            sol = skorokhod_map(p, 0.25)
            for f in (make_square(), make_abs(0.1, 0.7), make_mix()):
                a = stieltjes_integral_fprime(p, sol, f)
                b = stieltjes_integral_ibp(p, sol, f)
                assert a == pytest.approx(b, abs=1e-10 * (1 + abs(a)))

    def test_band_route_exact_for_convex_f(self, step_path):
        # where f'(x^eps) moves, the deviation is pinned at +-eps/2 with the
        # matching sign, so the barrier form loses nothing for convex f
        for seed in (85, 86):
            p = step_path(seed)
            for eps in (0.5, 0.12):
                sol = skorokhod_map(p, eps)
                for f in (make_square(), make_abs(0.0, 0.5)):
                    a = stieltjes_integral_fprime(p, sol, f)
                    c = stieltjes_integral_band(p, sol, f)
                    assert a == pytest.approx(c, abs=1e-12 * (1 + abs(a)))

    def test_band_route_is_a_lower_bound_in_general(self, step_path):
        for seed in (87, 88):
            p = step_path(seed)
            sol = skorokhod_map(p, 0.3)
            f = make_mix()
            a = stieltjes_integral_fprime(p, sol, f)
            c = stieltjes_integral_band(p, sol, f)
            assert c <= a + 1e-10 * (1 + abs(a))

    def test_single_sample_integrals_vanish(self):
        p = SampledCadlagPath([0.0], [1.0])
        sol = skorokhod_map(p, 0.5)
        f = make_square()
        assert stieltjes_integral_fprime(p, sol, f) == 0.0
        assert stieltjes_integral_ibp(p, sol, f) == 0.0
        assert stieltjes_integral_band(p, sol, f) == 0.0

    def test_refuses_another_paths_solution(self, step_path):
        # a copy with the same times and values is the same path; a path
        # of the same length, other times or more samples is not
        p = step_path(89, n_samples=257, kind="brownian")
        sol = skorokhod_map(p, 0.2)
        f = make_square()
        others = (
            step_path(90, n_samples=257, kind="brownian"),
            SampledCadlagPath(2.0 * p.times, p.values),
            step_path(89, n_samples=300, kind="brownian"),
        )
        for route in (
            stieltjes_integral_fprime,
            stieltjes_integral_ibp,
            stieltjes_integral_band,
        ):
            same = SampledCadlagPath(p.times, p.values)
            assert route(same, sol, f, 0.5) == route(p, sol, f, 0.5)
            for q in others:
                with pytest.raises(ValueError, match="not this path's band"):
                    route(q, sol, f)


class TestJOfRegularized:
    def test_mass_dominated_by_path_jump_field(self, step_path):
        # the clamp shrinks every increment, marked ones included, so the
        # jump field of x^eps never outweighs the jump field of x
        for seed in (91, 92):
            p = step_path(seed, jump_rate=8.0)
            grid = LevelGrid.for_path(p, 0.04, margin=0.3)
            J_x = j_pi(p, grid=grid, mode="cell")
            for eps in (0.5, 0.1):
                sol = skorokhod_map(p, eps)
                J_reg = j_pi(sol.regularized, grid=grid, mode="cell")
                assert J_reg.mass <= J_x.mass + 1e-9

    def test_needs_grid(self, step_path):
        p = step_path(93)
        sol = skorokhod_map(p, 0.2)
        with pytest.raises(TypeError, match="grid"):
            j_pi(sol.regularized)
