"""Generators, the classical Tanaka reference, the Q-statistic, field
distances, and the convergence harness."""

import inspect
import re
import threading
import time

import numpy as np
import pytest

import leveltime
from leveltime import _kernels, lab
from leveltime import (
    ConfigError,
    ExperimentConfig,
    GeneratorSpec,
    InvariantViolation,
    LevelGrid,
    LocalTimeField,
    PartitionScheme,
    SampledCadlagPath,
    classical_local_time,
    crossing_count_field,
    experiment_config_from_json,
    generate,
    generate_many,
    generator_spec_from_json,
    interval_crossing_local_time,
    j_pi,
    k_pi,
    lp_distance,
    SecondDerivativeMeasure,
    make_abs,
    make_bump,
    make_mix,
    make_relu,
    make_square,
    occupation_local_time,
    q_statistic,
    quadratic_variation,
    run_convergence_experiment,
    skorokhod_map,
    split_Kc_Kd,
)
from leveltime.lab import _worker_count


class TestGenerators:
    def test_same_seed_same_path_bitwise(self):
        spec = GeneratorSpec(kind="jump_diffusion", seed=7, jump_rate=5.0)
        p = generate(spec)
        q = generate(spec)
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.jump_mask, q.jump_mask)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(kind="brownian", seed=1))
        b = generate(GeneratorSpec(kind="brownian", seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_grid_geometry(self):
        spec = GeneratorSpec(kind="brownian", T=2.0, steps_per_unit=512, seed=0)
        p = generate(spec)
        assert p.n_samples == 1025
        assert p.duration == 2.0
        assert p.values[0] == 0.0

    def test_marked_steps_carry_only_the_jump(self):
        spec = GeneratorSpec(kind="jump_diffusion", seed=11, jump_rate=10.0)
        p = generate(spec)
        assert p.jump_indices.size > 0
        # pre-jump values are literally the previous samples, by construction
        pre, _ = p.jump_brackets()
        np.testing.assert_array_equal(pre, p.values[p.jump_indices - 1])

    def test_compound_poisson_is_piecewise_constant(self):
        spec = GeneratorSpec(
            kind="compound_poisson", seed=3, sigma=5.0, jump_rate=8.0
        )
        p = generate(spec)
        inc = np.diff(p.values)
        unmarked = ~p.jump_mask[1:]
        assert np.all(inc[unmarked] == 0.0)

    def test_brownian_quadratic_variation_near_t(self):
        spec = GeneratorSpec(kind="brownian", steps_per_unit=2**14, seed=41)
        totals = [
            quadratic_variation(
                generate(spec, np.random.default_rng(s)),
                PartitionScheme.full(2**14 + 1),
                0,
            ).value_at(1.0)[0]
            for s in range(20)
        ]
        assert np.mean(totals) == pytest.approx(1.0, abs=0.05)

    def test_deterministic_patterns(self):
        ramp = generate(GeneratorSpec(kind="deterministic_test", pattern="ramp"))
        assert ramp.values[-1] == 1.0
        const = generate(
            GeneratorSpec(kind="deterministic_test", pattern="constant", x0=2.0)
        )
        assert np.all(const.values == 2.0)
        zig = generate(
            GeneratorSpec(
                kind="deterministic_test", pattern="zigzag", steps_per_unit=8
            )
        )
        np.testing.assert_allclose(zig.values[:3], [0.0, 0.5, 1.0])
        ladder = generate(
            GeneratorSpec(
                kind="deterministic_test",
                pattern="jump_ladder",
                steps_per_unit=100,
                n_jumps=4,
                amplitude=1.0,
            )
        )
        assert ladder.jump_indices.size == 4
        inc = np.diff(ladder.values)
        assert np.all(inc[~ladder.jump_mask[1:]] == 0.0)
        pre, post = ladder.jump_brackets()
        np.testing.assert_allclose(post - pre, [1.0, -1.0, 1.0, -1.0])

    def test_generate_many_distinct_and_reproducible(self):
        spec = GeneratorSpec(kind="brownian", steps_per_unit=64, seed=5)
        batch1 = generate_many(spec, 3)
        batch2 = generate_many(spec, 3)
        for a, b in zip(batch1, batch2):
            np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(batch1[0].values, batch1[1].values)

    @pytest.mark.parametrize(
        "bad", [2.5, True, np.bool_(True), float("nan"), "3"]
    )
    def test_generate_many_refuses_fractional_or_boolean_counts(self, bad):
        spec = GeneratorSpec(kind="brownian", steps_per_unit=64, seed=5)
        message = f"n_paths must be whole numbers, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            generate_many(spec, bad)
        # an integral float is a whole number
        assert len(generate_many(spec, 3.0)) == 3

    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_generate_many_refuses_fractional_or_boolean_seeds(self, bad):
        spec = GeneratorSpec(kind="brownian", steps_per_unit=64, seed=5)
        message = f"seed must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            generate_many(spec, 2, seed=bad)
        # an integer seed, numpy's included, overrides the spec's
        want = generate_many(GeneratorSpec(kind="brownian", steps_per_unit=64, seed=1), 1)
        for seed in (1, np.int64(1)):
            got = generate_many(spec, 1, seed=seed)
            np.testing.assert_array_equal(got[0].values, want[0].values)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            GeneratorSpec(kind="levy_flight")
        with pytest.raises(ValueError, match="T must"):
            GeneratorSpec(kind="brownian", T=0.0)
        with pytest.raises(ValueError, match="sigma"):
            GeneratorSpec(kind="brownian", sigma=-1.0)
        with pytest.raises(ValueError, match="bounds"):
            GeneratorSpec(kind="compound_poisson", jump_low=1.0, jump_high=-1.0)
        with pytest.raises(ValueError, match="pattern"):
            GeneratorSpec(kind="deterministic_test", pattern="spiral")
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            GeneratorSpec(kind="brownian", seed=1.5)
        with pytest.raises(ValueError, match="n_jumps must be an integer"):
            GeneratorSpec(kind="deterministic_test", n_jumps=2.5)
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            GeneratorSpec(kind="brownian", seed=True)
        # a string or a boolean is not a number
        with pytest.raises(ValueError, match="T must be positive and finite"):
            GeneratorSpec(kind="brownian", T="1")
        with pytest.raises(ValueError, match="steps_per_unit must be whole"):
            GeneratorSpec(kind="brownian", steps_per_unit="64")
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            GeneratorSpec(kind="brownian", sigma=True)
        with pytest.raises(ValueError, match="amplitude must be finite, got '2'"):
            GeneratorSpec(kind="deterministic_test", amplitude="2")

    def test_effective_parameters(self):
        assert GeneratorSpec(
            kind="brownian", mu=3.0, jump_rate=2.0
        ).effective() == (1.0, 0.0, 0.0)
        assert GeneratorSpec(
            kind="compound_poisson", sigma=9.0, jump_rate=2.0
        ).effective() == (0.0, 0.0, 2.0)


class TestClassicalLocalTime:
    def test_matches_doubled_continuous_crossing_field(self, step_path):
        # the raw Tanaka value at every level equals 2 (K - J) on the full
        # grid before flooring; with the floor it is max(2 (K - J), 0)
        p = step_path(101)
        grid = LevelGrid.for_path(p, 0.05, margin=0.3)
        ref = classical_local_time(p, grid=grid)
        K = k_pi(p, PartitionScheme.full(p.n_samples), 0, grid=grid, mode="point")
        J = j_pi(p, grid=grid, mode="point")
        identity = np.maximum(2.0 * (K.data - J.data), 0.0)
        np.testing.assert_allclose(ref.data, identity, atol=1e-10)

    def test_ramp_and_pure_jump_have_no_local_time(self):
        ramp = generate(
            GeneratorSpec(kind="deterministic_test", pattern="ramp")
        )
        grid = LevelGrid.for_path(ramp, 0.02, margin=0.1)
        ref = classical_local_time(ramp, grid=grid)
        # a monotone staircase straddles each level once: mass du * inc each
        assert ref.mass <= 2.0 / 1024
        ladder = generate(
            GeneratorSpec(
                kind="deterministic_test", pattern="jump_ladder", n_jumps=6
            )
        )
        grid = LevelGrid.for_path(ladder, 0.05, margin=0.2)
        ref = classical_local_time(ladder, grid=grid)
        assert ref.data.max() <= 1e-12

    def test_flooring_diagnostics_are_small(self, step_path):
        p = step_path(102, n_samples=2049)
        grid = LevelGrid.for_path(p, 0.02, margin=0.3)
        ref = classical_local_time(p, grid=grid)
        # the raw Tanaka sum is 2 (K_full - J) >= 0 in exact arithmetic, so
        # flooring removes rounding only
        x, u = p.values, grid.levels
        ranked, prefix = p.step_table()
        signed = _kernels.signed_increment_sum(
            ranked, prefix[0], grid.u0, grid.du, grid.n_levels
        )
        jf = j_pi(p, grid=grid, mode="point")
        raw = np.abs(x[-1] - u) - np.abs(x[0] - u) - signed - 2.0 * jf.data
        np.testing.assert_array_equal(ref.data, np.maximum(raw, 0.0))
        neg = np.minimum(raw, 0.0)
        mass = ref.mass
        assert -neg.min() <= 1e-12 * (1 + mass)
        assert -grid.du * neg.sum() <= 1e-12 * (1 + mass)

    def test_needs_grid(self, step_path):
        with pytest.raises(TypeError, match="grid"):
            classical_local_time(step_path(103))

    def test_no_step_is_zero(self, step_path):
        # one sample, or a path stopped at time 0, has no step to sum
        grid = LevelGrid(-1.0, 0.25, 9)
        for p, t in ((SampledCadlagPath([0.0], [0.3]), None), (step_path(103), 0.0)):
            field = classical_local_time(p, t=t, grid=grid)
            assert field.time == 0.0
            assert np.array_equal(field.data, np.zeros(grid.n_levels))

    def test_mass_consistency_within_ten_percent(self):
        # occupation-times formula: the local time's mass over the levels is
        # the continuous quadratic variation, the unmarked squared increments
        spec = GeneratorSpec(kind="brownian", steps_per_unit=2**13, seed=17)
        p = generate(spec)
        grid = LevelGrid.for_path(p, 0.02, margin=0.2)
        mass = classical_local_time(p, grid=grid).mass
        qv_c = float((p.continuous_steps()[1] ** 2).sum())
        assert qv_c > 0.5
        assert abs(mass - qv_c) / qv_c < 0.1


class TestQStatistic:
    def test_constant_path_is_zero(self):
        p = generate(
            GeneratorSpec(kind="deterministic_test", pattern="constant")
        )
        grid = LevelGrid(-1.0, 0.05, 41)
        assert q_statistic(p, grid=grid, d=0.2) == 0.0

    def test_window_validation(self, step_path):
        p = step_path(111)
        grid = LevelGrid.for_path(p, 0.05, margin=0.5)
        with pytest.raises(ValueError, match="positive"):
            q_statistic(p, grid=grid, d=0.0)
        with pytest.raises(ValueError, match="twice the grid spacing"):
            q_statistic(p, grid=grid, d=0.05)
        with pytest.raises(TypeError, match="grid"):
            q_statistic(p, d=0.2)

    def test_ramp_bounded_by_window_scale(self):
        p = generate(GeneratorSpec(kind="deterministic_test", pattern="ramp"))
        grid = LevelGrid.for_path(p, 0.01, margin=1.0)
        d = 0.1
        # counts are 0/1 and the inner integral is at most the total mass,
        # so each |Q| is at most d and the z-integral at most d * range
        val = q_statistic(p, grid=grid, d=d)
        assert val <= d * (grid.u_max - grid.u0) + 1e-12

    def test_reuses_precomputed_classical(self, step_path):
        p = step_path(112)
        grid = LevelGrid.for_path(p, 0.02, margin=0.5)
        ref = classical_local_time(p, grid=grid)
        a = q_statistic(p, grid=grid, d=0.2, classical=ref)
        b = q_statistic(p, grid=grid, d=0.2)
        assert a == b

    def test_classical_must_match_grid_and_time(self, step_path):
        p = step_path(112)
        grid = LevelGrid.for_path(p, 0.02, margin=0.5)
        at_t = classical_local_time(p, t=0.3, grid=grid)
        assert q_statistic(p, t=0.3, grid=grid, d=0.2, classical=at_t) == (
            q_statistic(p, t=0.3, grid=grid, d=0.2)
        )
        at_end = classical_local_time(p, grid=grid)
        with pytest.raises(ValueError, match="time t"):
            q_statistic(p, t=0.3, grid=grid, d=0.2, classical=at_end)
        with pytest.raises(ValueError, match="time t"):
            q_statistic(p, grid=grid, d=0.2, classical=at_t)
        shifted = LevelGrid(grid.u0 + 0.7, grid.du, grid.n_levels)
        with pytest.raises(ValueError, match="different level grid"):
            q_statistic(
                p, grid=grid, d=0.2,
                classical=classical_local_time(p, grid=shifted),
            )


class TestLpDistance:
    def test_zero_for_identical_fields(self, step_path):
        p = step_path(121)
        grid = LevelGrid.for_path(p, 0.05, margin=0.2)
        f = classical_local_time(p, grid=grid)
        assert lp_distance(f, f) == 0.0

    def test_constant_gap_times_grid_length(self):
        grid = LevelGrid(0.0, 0.1, 11)
        a = LocalTimeField(grid, 1.0, np.full(11, 2.0), "K")
        b = LocalTimeField(grid, 1.0, np.full(11, 1.5), "K")
        assert lp_distance(a, b) == pytest.approx(0.5 * 1.1, abs=1e-12)
        assert lp_distance(a, b, p=2.0) == pytest.approx(
            np.sqrt(0.25 * 1.1), abs=1e-12
        )

    def test_atom_weight_samples_nearest_left_cell(self):
        grid = LevelGrid(0.0, 0.1, 11)
        a = LocalTimeField(grid, 1.0, np.arange(11.0), "K")
        b = LocalTimeField(grid, 1.0, np.zeros(11), "K")
        w = make_abs(0.52, 0.5).second_derivative  # atom weight 1 at 0.52
        assert lp_distance(a, b, weight=w) == pytest.approx(5.0, abs=1e-12)

    def test_density_weight_uses_cell_masses(self):
        grid = LevelGrid(0.0, 0.1, 11)
        a = LocalTimeField(grid, 1.0, np.full(11, 3.0), "K")
        b = LocalTimeField(grid, 1.0, np.zeros(11), "K")
        w = make_square().second_derivative
        assert lp_distance(a, b, weight=w) == pytest.approx(3.0 * 1.1, abs=1e-12)

    def test_atom_outside_grid_rejected(self):
        grid = LevelGrid(0.0, 0.1, 11)
        a = LocalTimeField(grid, 1.0, np.ones(11), "K")
        w = make_abs(55.0).second_derivative
        with pytest.raises(ValueError, match="outside"):
            lp_distance(a, a, weight=w)

    def test_grid_ends_decide_atom_coverage(self):
        # an atom sits on the grid iff its nearest level to the left is a
        # grid level: 4.75 lands on the last level, -0.25 has none
        grid = LevelGrid(0.0, 1.0, 5)
        g = LocalTimeField(grid, 1.0, np.arange(1.0, 6.0), "K")
        z = LocalTimeField(grid, 1.0, np.zeros(5), "K")
        w = make_abs(4.75).second_derivative  # atom weight 2 at 4.75
        assert lp_distance(g, z, weight=w) == 10.0
        w = make_abs(-0.25).second_derivative
        with pytest.raises(ValueError, match="outside the level grid"):
            lp_distance(g, z, weight=w)

    def test_zero_off_grid_drops_the_mass_off_the_grid(self):
        # the experiment's rule: its fields vanish beyond the grid, so an
        # atom off it adds nothing and a weight without mass on it gives 0
        grid = LevelGrid(0.0, 1.0, 5)
        g = LocalTimeField(grid, 1.0, np.arange(1.0, 6.0), "K")
        z = LocalTimeField(grid, 1.0, np.zeros(5), "K")
        two = make_mix(atoms=((4.75, 2.0), (-0.25, 3.0), (9.0, 1.0)),
                       uniform_weight=0.0, bump_weight=0.0)
        assert lp_distance(g, z, weight=two.second_derivative,
                           zero_off_grid=True) == 10.0
        for off in (-0.25, 5.0, 9.0):
            w = make_abs(off).second_derivative
            assert lp_distance(g, z, weight=w, zero_off_grid=True) == 0.0
            with pytest.raises(ValueError, match="outside the level grid"):
                lp_distance(g, z, weight=w)
        far = make_mix(atoms=(), uniform_weight=0.0, bump_weight=1.0)
        far_grid = LevelGrid(5.0, 1.0, 5)
        f = LocalTimeField(far_grid, 1.0, np.ones(5), "K")
        assert lp_distance(f, f, weight=far.second_derivative,
                           zero_off_grid=True) == 0.0
        with pytest.raises(ValueError, match="no mass on the level grid"):
            lp_distance(f, f, weight=far.second_derivative)

    @pytest.mark.parametrize("zero_off_grid", [False, True])
    def test_a_weight_without_any_mass_is_refused(self, zero_off_grid):
        grid = LevelGrid(0.0, 1.0, 5)
        f = LocalTimeField(grid, 1.0, np.ones(5), "K")
        for fn in (make_abs(0.0, 0.0),
                   make_mix(atoms=(), uniform_weight=0.0, bump_weight=0.0)):
            assert fn.second_derivative.density is None
            with pytest.raises(ValueError, match="no mass on the level grid"):
                lp_distance(f, f, weight=fn.second_derivative,
                            zero_off_grid=zero_off_grid)

    def test_grid_mismatch_rejected(self, step_path):
        p = step_path(122)
        g1 = LevelGrid.for_path(p, 0.05, margin=0.2)
        g2 = LevelGrid.for_path(p, 0.04, margin=0.2)
        f1 = classical_local_time(p, grid=g1)
        f2 = classical_local_time(p, grid=g2)
        with pytest.raises(ValueError, match="different level grids"):
            lp_distance(f1, f2)

    def test_p_below_one_rejected(self):
        grid = LevelGrid(0.0, 0.5, 4)
        a = LocalTimeField(grid, 1.0, np.ones(4), "K")
        b = LocalTimeField(grid, 1.0, np.zeros(4), "K")
        with pytest.raises(ValueError, match="at least 1"):
            lp_distance(a, b, p=0.5)

    @pytest.mark.parametrize("p", [True, "2", None, np.nan])
    def test_p_must_be_a_real_number(self, p):
        # the rule ExperimentConfig applies to distance_p: True is not 1
        grid = LevelGrid(0.0, 0.5, 4)
        a = LocalTimeField(grid, 1.0, np.ones(4), "K")
        b = LocalTimeField(grid, 1.0, np.zeros(4), "K")
        with pytest.raises(ValueError, match="finite and at least 1"):
            lp_distance(a, b, p=p)
        with pytest.raises(ValueError, match="finite and at least 1"):
            ExperimentConfig(**dict(OCCUPATION_CONFIG, distance_p=p))


class TestExperiments:
    def brownian_config(self, **overrides):
        base = dict(
            generator=GeneratorSpec(
                kind="brownian", steps_per_unit=256, seed=0
            ),
            estimator="K_pi",
            ladder=(2, 4, 6),
            n_paths=6,
            seed=99,
            grid_du=0.05,
            grid_margin=0.5,
            field_mode="cell",
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_report_is_deterministic(self):
        cfg = self.brownian_config()
        r1 = run_convergence_experiment(cfg)
        r2 = run_convergence_experiment(cfg)
        np.testing.assert_array_equal(r1.distances, r2.distances)
        assert r1.levels == ("2", "4", "6")
        assert r1.distances.shape == (6, 3)

    def test_one_worker_runs_inline_with_the_same_report(self, monkeypatch):
        threads = []
        original = lab.generate

        def spy(spec, rng=None):
            threads.append(threading.get_ident())
            return original(spec, rng)

        monkeypatch.setattr(lab, "generate", spy)
        cfg = self.brownian_config()
        reports = []
        for workers in ("1", "3"):
            monkeypatch.setenv("LOCALTIME_THREADS", workers)
            threads.clear()
            reports.append(run_convergence_experiment(cfg))
            inline = {t == threading.get_ident() for t in threads}
            assert len(threads) == cfg.n_paths
            assert inline == {workers == "1"}
        np.testing.assert_array_equal(reports[0].distances, reports[1].distances)

    def test_generate_many_draws_the_experiment_paths(self, monkeypatch):
        drawn = []
        original = lab.generate

        def spy(spec, rng=None):
            drawn.append(original(spec, rng))
            return drawn[-1]

        monkeypatch.setattr(lab, "generate", spy)
        monkeypatch.setenv("LOCALTIME_THREADS", "1")
        cfg = self.brownian_config(generator=GeneratorSpec(
            kind="jump_diffusion", steps_per_unit=256, seed=0, jump_rate=5.0
        ))
        run_convergence_experiment(cfg)
        monkeypatch.undo()
        paths = generate_many(cfg.generator, cfg.n_paths, seed=cfg.seed)
        assert len(drawn) == len(paths) == cfg.n_paths
        assert any(p.jump_indices.size for p in paths)
        for got, want in zip(drawn, paths):
            np.testing.assert_array_equal(got.times, want.times)
            np.testing.assert_array_equal(got.values, want.values)
            np.testing.assert_array_equal(got.jump_mask, want.jump_mask)

    def test_seed_changes_distances(self):
        r1 = run_convergence_experiment(self.brownian_config())
        r2 = run_convergence_experiment(self.brownian_config(seed=100))
        assert not np.array_equal(r1.distances, r2.distances)

    def test_rows_expose_summary(self):
        report = run_convergence_experiment(self.brownian_config())
        rows = report.rows
        assert [r.level for r in rows] == ["2", "4", "6"]
        assert all(r.n_paths == 6 for r in rows)
        np.testing.assert_allclose(
            [r.mean for r in rows], report.means, atol=0.0
        )
        assert all(r.se > 0 for r in rows)
        assert all(r.wall_clock >= 0 for r in rows)

    def test_ramp_fine_levels_nearly_vanish(self):
        cfg = ExperimentConfig(
            generator=GeneratorSpec(
                kind="deterministic_test", pattern="ramp", steps_per_unit=1024
            ),
            estimator="K_pi",
            ladder=(2, 6, 10),
            n_paths=2,
            seed=1,
            grid_du=0.01,
            grid_margin=0.2,
            field_mode="cell",
        )
        report = run_convergence_experiment(cfg)
        means = report.means
        assert means[-1] < 0.05 * means[0]

    def test_occupation_and_interval_estimators_run(self):
        for estimator in ("occupation", "interval_crossing"):
            cfg = self.brownian_config(
                estimator=estimator,
                ladder=(0.4, 0.2),
                field_mode="point",
            )
            report = run_convergence_experiment(cfg)
            assert np.all(report.distances >= 0)

    @pytest.mark.parametrize(
        "estimator,builder,ladder",
        [
            ("K_pi", "k_pi", (2, 4, 6)),
            ("occupation", "occupation_local_time", (0.4, 0.2, 0.1)),
            ("interval_crossing", "interval_crossing_local_time", (0.4, 0.2, 0.1)),
        ],
    )
    def test_each_level_is_charged_its_own_field(
        self, monkeypatch, estimator, builder, ladder
    ):
        # a builder that takes a fixed time per field it returns: every
        # ladder level's wall clock must cover its own fields, not only the
        # first level's
        pause = 0.03
        original = getattr(lab, builder)

        def slow(*args, **kwargs):
            out = original(*args, **kwargs)
            time.sleep(pause * (len(out) if isinstance(out, list) else 1))
            return out

        monkeypatch.setattr(lab, builder, slow)
        cfg = self.brownian_config(
            estimator=estimator,
            ladder=ladder,
            n_paths=2,
            field_mode="cell" if estimator == "K_pi" else "point",
        )
        report = run_convergence_experiment(cfg)
        assert all(c >= cfg.n_paths * pause for c in report.wall_clocks)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="estimator"):
            self.brownian_config(estimator="wavelet")
        with pytest.raises(ValueError, match="increase"):
            self.brownian_config(ladder=(4, 2))
        with pytest.raises(ValueError, match="decrease"):
            self.brownian_config(
                estimator="occupation", ladder=(0.1, 0.4), field_mode="point"
            )
        with pytest.raises(ValueError, match="nonempty"):
            self.brownian_config(ladder=())
        with pytest.raises(ValueError, match="at least one path"):
            self.brownian_config(n_paths=0)
        with pytest.raises(ValueError, match="field_mode"):
            self.brownian_config(field_mode="dual")
        with pytest.raises(ValueError, match="whole numbers, got 2.5"):
            self.brownian_config(ladder=(2.5, 4.9))
        with pytest.raises(ValueError, match="whole numbers, got True"):
            self.brownian_config(ladder=(True, 3))
        # an integral float is a whole number of paths
        n_paths = self.brownian_config(n_paths=2.0).n_paths
        assert n_paths == 2 and type(n_paths) is int
        # the config stores the values it checked
        cfg = self.brownian_config(
            grid_du=1, grid_margin=0, t=1, distance_p=2, seed=np.int64(5)
        )
        stored = (cfg.grid_du, cfg.grid_margin, cfg.t, cfg.distance_p, cfg.seed)
        assert [type(v) for v in stored] == [float] * 4 + [int]

    def test_worker_count_honors_thread_cap(self, monkeypatch):
        monkeypatch.setenv("LOCALTIME_THREADS", "2")
        assert _worker_count(8) == 2
        monkeypatch.setenv("LOCALTIME_THREADS", "0")
        assert _worker_count(8) == 1
        monkeypatch.setenv("LOCALTIME_THREADS", "many")
        with pytest.raises(ConfigError, match="integer"):
            _worker_count(8)
        monkeypatch.delenv("LOCALTIME_THREADS")
        assert 1 <= _worker_count(3) <= 3


class TestJsonDescriptors:
    def test_generator_round_trip(self):
        spec = generator_spec_from_json(
            {"kind": "jump_diffusion", "seed": 4, "jump_rate": 3.0}
        )
        assert spec.kind == "jump_diffusion"
        assert spec.jump_rate == 3.0

    def test_generator_errors(self):
        with pytest.raises(ConfigError, match="kind"):
            generator_spec_from_json({"seed": 4})
        with pytest.raises(ConfigError, match="unknown generator fields"):
            generator_spec_from_json({"kind": "brownian", "volatility": 2.0})
        with pytest.raises(ConfigError, match="bad generator"):
            generator_spec_from_json({"kind": "brownian", "sigma": -1.0})
        with pytest.raises(ConfigError, match="seed must be an integer"):
            generator_spec_from_json({"kind": "brownian", "seed": 1.5})
        with pytest.raises(ConfigError, match="n_jumps must be an integer"):
            generator_spec_from_json({
                "kind": "deterministic_test", "pattern": "jump_ladder",
                "n_jumps": 2.5,
            })
        # a field the kind does not read is refused, not ignored
        with pytest.raises(ConfigError, match=re.escape(
            "unknown generator fields for kind 'brownian': ['jump_rate', 'mu']"
        )):
            generator_spec_from_json({"kind": "brownian", "mu": 5.0, "jump_rate": 9.0})
        # the kind is checked before the fields
        with pytest.raises(ConfigError, match=re.escape(
            "bad generator descriptor: unknown generator kind 'levy'"
        )):
            generator_spec_from_json({"kind": "levy", "volatility": 2.0})

    def test_experiment_round_trip(self):
        cfg = experiment_config_from_json(
            {
                "generator": {"kind": "brownian", "steps_per_unit": 128},
                "estimator": "occupation",
                "ladder": [0.4, 0.2],
                "paths": 3,
                "seed": 11,
                "grid_du": 0.05,
                "distance": {"p": 2.0, "weight": {"kind": "abs"}},
            }
        )
        assert cfg.estimator == "occupation"
        assert cfg.distance_p == 2.0
        assert cfg.distance_weight.atoms == ((0.0, 2.0),)
        report = run_convergence_experiment(cfg)
        assert report.distances.shape == (3, 2)

    def test_experiment_errors(self):
        with pytest.raises(ConfigError, match="missing fields"):
            experiment_config_from_json({"estimator": "K_pi"})
        occupation = {
            "generator": {"kind": "brownian"}, "estimator": "occupation",
            "ladder": [0.4], "paths": 1, "seed": 0,
        }
        with pytest.raises(ConfigError, match=re.escape(
            "unknown config keys: ['field_mode', 'include_jumps']"
        )):
            experiment_config_from_json(
                dict(occupation, field_mode="cell", include_jumps=True)
            )
        # the estimator is checked before the keys
        with pytest.raises(ConfigError, match=re.escape(
            "bad experiment config: unknown estimator 'kernel'"
        )):
            experiment_config_from_json(
                dict(occupation, estimator="kernel", field_mode="cell")
            )
        with pytest.raises(ConfigError, match="mapping"):
            experiment_config_from_json([1, 2])
        with pytest.raises(ConfigError, match="bad experiment"):
            experiment_config_from_json(
                {
                    "generator": {"kind": "brownian"},
                    "estimator": "K_pi",
                    "ladder": [],
                    "paths": 1,
                    "seed": 0,
                }
            )
        with pytest.raises(ConfigError, match="bad experiment"):
            experiment_config_from_json(
                {
                    "generator": {"kind": "brownian"},
                    "estimator": "K_pi",
                    "ladder": [2],
                    "paths": 1,
                    "seed": 0,
                    "t": [0.5],
                }
            )


# every width-like argument, called on (path, grid, value)
WIDTH_ARGUMENTS = {
    "occupation bandwidth": lambda p, g, v: occupation_local_time(
        p, bandwidth=v, grid=g
    ),
    "interval width": lambda p, g, v: interval_crossing_local_time(
        p, width=v, grid=g
    ),
    "crossing eps": lambda p, g, v: crossing_count_field(p, g, v),
    "strict crossing eps": lambda p, g, v: crossing_count_field(
        p, g, v, strict=True
    ),
    "band eps": lambda p, g, v: skorokhod_map(p, v),
    "q window": lambda p, g, v: q_statistic(p, grid=g, d=v),
    "grid du": lambda p, g, v: LevelGrid.for_path(p, v),
    "grid margin": lambda p, g, v: LevelGrid.for_path(p, 0.1, v),
    "distance p": lambda p, g, v: lp_distance(
        LocalTimeField(g, 1.0, np.zeros(g.n_levels), "K"),
        LocalTimeField(g, 1.0, np.ones(g.n_levels), "K"),
        p=v,
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.1])
@pytest.mark.parametrize("argument", sorted(WIDTH_ARGUMENTS))
def test_non_finite_or_negative_width_rejected(argument, value):
    p = SampledCadlagPath(np.linspace(0.0, 1.0, 5), [0.0, 0.5, -0.2, 0.3, 0.0])
    grid = LevelGrid.for_path(p, 0.1, 0.5)
    with pytest.raises(ValueError, match="finite"):
        WIDTH_ARGUMENTS[argument](p, grid, value)


OCCUPATION_CONFIG = dict(
    generator=GeneratorSpec(kind="brownian", steps_per_unit=64, seed=0),
    estimator="occupation", ladder=(0.4, 0.2), n_paths=1, seed=0,
)


@pytest.mark.parametrize(
    "field,value",
    [("distance_p", np.inf), ("distance_p", np.nan), ("grid_du", np.inf),
     ("grid_margin", np.nan), ("ladder", (np.inf, 0.1)),
     ("distance_p", "2"), ("distance_p", True), ("grid_du", "0.05"),
     ("grid_margin", False), ("ladder", ("0.4", 0.1))],
)
def test_experiment_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(**dict(OCCUPATION_CONFIG, **{field: value}))


@pytest.mark.parametrize(
    "field,value,message",
    [("n_paths", 2.5, "n_paths must be whole numbers, got 2.5"),
     ("n_paths", True, "n_paths must be whole numbers, got True"),
     ("n_paths", np.nan, "n_paths must be whole numbers, got nan"),
     ("seed", 1.5, "seed must be an integer, got 1.5"),
     ("seed", True, "seed must be an integer, got True"),
     ("seed", 7.0, "seed must be an integer, got 7.0"),
     ("n_paths", "2", "n_paths must be whole numbers, got '2'"),
     ("ladder", "89", "ladder must be a list, got '89'"),
     ("t", "0.5", "t must be a number, got '0.5'"),
     ("t", True, "t must be a number, got True")],
)
def test_experiment_config_refuses_fractional_or_boolean_counts(
    field, value, message
):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**dict(OCCUPATION_CONFIG, **{field: value}))


@pytest.mark.parametrize("value", ["false", 1, None])
def test_experiment_config_refuses_non_boolean_include_jumps(value):
    # "false" is truthy and would take in each path's jumps
    with pytest.raises(ValueError, match=re.escape(
        f"include_jumps must be True or False, got {value!r}"
    )):
        ExperimentConfig(**dict(OCCUPATION_CONFIG, include_jumps=value))


# values from outside that a constructor or builder refuses: a string or a
# boolean is not a number, and a count is never truncated
LIBRARY_REFUSALS = {
    "grid u0 'a'": (lambda: LevelGrid("a", 0.1, 3), "u0 must be finite, got 'a'"),
    "grid u0 True": (lambda: LevelGrid(True, 0.1, 3), "u0 must be finite, got True"),
    "abs center '1'": (lambda: make_abs("1"), "center must be finite, got '1'"),
    "mix uniform weight True": (
        lambda: make_mix(uniform_weight=True),
        "mix weights must be finite, got True, 0.5",
    ),
    "atom location '1'": (
        lambda: SecondDerivativeMeasure(atoms=(("1", 1.0),)),
        "atom locations and weights must be finite, got '1', 1.0",
    ),
    "full scheme of 2.5 samples": (
        lambda: PartitionScheme.full(2.5), "n_samples must be whole numbers, got 2.5"
    ),
    "dyadic scheme of 2.5 samples": (
        lambda: PartitionScheme.dyadic(2.5, [1]),
        "n_samples must be whole numbers, got 2.5",
    ),
    "distance weight 5": (
        lambda: ExperimentConfig(**dict(OCCUPATION_CONFIG, distance_weight=5)),
        "distance_weight must be None or a SecondDerivativeMeasure, got 5",
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refuses_values_that_are_not_what_they_name(case):
    build, message = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# every estimator of a local-time field, called on (path, grid, t)
FIELD_ESTIMATORS = {
    "k_pi": lambda p, g, t: k_pi(
        p, PartitionScheme.full(p.n_samples), 0, t=t, grid=g
    ),
    "j_pi": lambda p, g, t: j_pi(p, t=t, grid=g),
    "occupation": lambda p, g, t: occupation_local_time(
        p, t=t, bandwidth=0.1, grid=g
    ),
    "interval crossing": lambda p, g, t: interval_crossing_local_time(
        p, t=t, width=0.1, grid=g
    ),
    "classical": lambda p, g, t: classical_local_time(p, t=t, grid=g),
}


@pytest.mark.parametrize("t", [None, 0.5])
@pytest.mark.parametrize(
    "estimator,kind,width",
    [
        ("k_pi", "K", None),
        ("j_pi", "J", None),
        ("occupation", "L_occupation", 0.1),
        ("interval crossing", "L_interval", 0.1),
        ("classical", "L_classical", None),
    ],
)
def test_estimator_returns_one_field(estimator, kind, width, t, step_path):
    p = step_path(124)
    grid = LevelGrid.for_path(p, 0.05, margin=0.2)
    field = FIELD_ESTIMATORS[estimator](p, grid, t)
    assert isinstance(field, LocalTimeField)
    assert field.grid == grid and field.data.shape == (grid.n_levels,)
    assert (field.kind, field.width) == (kind, width)
    assert field.time == (p.duration if t is None else t)


# each estimator called without one required argument, and that argument
MISSING_ARGUMENT = {
    "k_pi scheme": (lambda p, g: k_pi(p, grid=g), "scheme"),
    "k_pi grid": (
        lambda p, g: k_pi(p, PartitionScheme.full(p.n_samples), 0), "grid"
    ),
    "j_pi grid": (lambda p, g: j_pi(p), "grid"),
    "occupation bandwidth": (
        lambda p, g: occupation_local_time(p, grid=g), "bandwidth"
    ),
    "occupation grid": (
        lambda p, g: occupation_local_time(p, bandwidth=0.1), "grid"
    ),
    "interval crossing width": (
        lambda p, g: interval_crossing_local_time(p, grid=g), "width"
    ),
    "interval crossing grid": (
        lambda p, g: interval_crossing_local_time(p, width=0.1), "grid"
    ),
    "classical grid": (lambda p, g: classical_local_time(p), "grid"),
}


@pytest.mark.parametrize("case", sorted(MISSING_ARGUMENT))
def test_missing_argument_is_named(case, step_path):
    p = step_path(125)
    grid = LevelGrid.for_path(p, 0.05, margin=0.2)
    call, name = MISSING_ARGUMENT[case]
    with pytest.raises(TypeError, match=f"missing .*'{name}'"):
        call(p, grid)


@pytest.mark.parametrize("t", [[0.5, 1.0], (0.5,)])
@pytest.mark.parametrize("estimator", sorted(FIELD_ESTIMATORS))
def test_sequence_time_refused(estimator, t, step_path):
    # a field is one evaluation time; a sequence is refused as the path's
    # own stop rule refuses it
    p = step_path(123)
    grid = LevelGrid.for_path(p, 0.05, margin=0.2)
    with pytest.raises(TypeError) as stop:
        p.index_at(t)
    with pytest.raises(TypeError) as refused:
        FIELD_ESTIMATORS[estimator](p, grid, t)
    assert str(refused.value) == str(stop.value)


def test_export_list_names_each_public_definition_once():
    exported = leveltime.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(leveltime, n)] == []
    # every function or class of a layer module that the package imports
    imported = {
        name for name, obj in vars(leveltime).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("leveltime.")
        and not name.startswith("_")
    }
    assert sorted(imported - set(exported)) == []


# ---------------------------------------------------------------------------
# fields vanish beyond the path's range, and weighted distances rely on it
# ---------------------------------------------------------------------------

def _jump_config(estimator, **overrides):
    base = dict(
        generator=GeneratorSpec(kind="jump_diffusion", steps_per_unit=1024,
                                jump_rate=8.0),
        estimator=estimator, ladder=(0.4, 0.2, 0.1, 0.05), n_paths=1,
        seed=3, grid_du=0.02, grid_margin=0.0,
    )
    if estimator == "K_pi":
        base["ladder"] = (3, 5, 7)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("t", [None, 0.6])
@pytest.mark.parametrize(
    "estimator,mode",
    [("occupation", "point"), ("interval_crossing", "point"),
     ("K_pi", "point"), ("K_pi", "cell")],
)
def test_every_field_is_zero_beyond_the_paths_range(estimator, mode, t):
    # at grid_margin 0, the grid covers the range widened by the widths only
    config = _jump_config(estimator, t=t, field_mode=mode)
    margin, fields = lab._estimator(config)
    path = generate(config.generator, 11)
    assert path.jump_indices.size > 2
    grid = LevelGrid.for_path(path, config.grid_du, margin)
    u = grid.levels
    x = path.values[: path.index_at(t) + 1]
    built = list(fields(path, grid))
    for k, fld in enumerate(built):
        pad = fld.width or (grid.du if mode == "cell" else 0.0)
        beyond = (u < x.min() - pad) | (u > x.max() + pad)
        assert beyond.any() or t is None
        if k and estimator != "K_pi":
            assert (fld.data[beyond] == 0.0).all()
        else:  # within rounding: the references, and K's difference arrays
            scale = 1.0 + np.abs(x).max()
            assert np.abs(fld.data[beyond]).max(initial=0.0) <= 1e-12 * scale
    if estimator == "occupation":
        # exactly 0.0 wherever no band [left - eps, left + eps] holds the
        # level, in the gaps the jumps leave too
        left = x[:-1]
        for fld in built[1:]:
            eps = fld.width
            held = ((left - eps <= u[:, None]) & (u[:, None] <= left + eps)).any(1)
            inside = (u >= left.min()) & (u <= left.max()) & ~held
            assert (fld.data[~held] == 0.0).all()
            assert (fld.data[held] > 0.0).all()
            if eps <= 0.05:
                assert inside.any()


def _relu_config(center, seed, **overrides):
    base = dict(
        generator=GeneratorSpec(kind="brownian", steps_per_unit=1024),
        estimator="K_pi", ladder=(4, 6, 8), n_paths=8, seed=seed,
        field_mode="cell",
        distance_weight=make_relu(center).second_derivative,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _own_grids(config):
    margin, _ = lab._estimator(config)
    paths = [generate(config.generator, child)
             for child in lab._path_seeds(config.seed, config.n_paths)]
    return paths, [LevelGrid.for_path(p, config.grid_du, margin) for p in paths]


class TestWeightedDistances:
    def test_atom_far_off_every_grid_gives_zero(self):
        report = run_convergence_experiment(_relu_config(9.0, 7))
        assert (report.distances == 0.0).all()

    @pytest.mark.parametrize(
        "weight",
        # atoms between levels: one on a level may land on either
        # neighbour, as the grids round their levels differently
        [make_relu(1.51), make_mix(atoms=((-0.51, 0.7), (0.27, 0.4), (1.01, -0.2))),
         make_bump(1.0, 1.0)],
        ids=["relu", "mix", "bump"],
    )
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_distance_is_the_one_on_a_grid_covering_every_path(self, weight, p):
        config = _relu_config(0.0, 7, distance_weight=weight.second_derivative,
                              distance_p=p)
        paths, grids = _own_grids(config)
        if weight.name.startswith("relu"):
            # some path's own grid misses the atom, and some holds it
            held = [0 <= g.left_index(1.51) < g.n_levels for g in grids]
            assert any(held) and not all(held)
        du = config.grid_du
        lo = min(min(g.u0 for g in grids), -2.0)
        hi = max(max(g.u_max for g in grids), 3.0)
        k0 = int(np.floor(lo / du))
        common = LevelGrid(k0 * du, du, int(np.ceil(hi / du)) - k0 + 1)
        _, fields = lab._estimator(config)
        want = np.empty((len(paths), len(config.ladder)))
        for i, path in enumerate(paths):
            ref, *ladder = fields(path, common)
            want[i] = [lp_distance(f, ref, p=p, weight=config.distance_weight)
                       for f in ladder]
        got = run_convergence_experiment(config).distances
        # the K_pi fields vanish beyond the range only within rounding, so a
        # distance of 0 on a path's own grid may read ~1e-15 on the common one
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())
