"""Acceptance harness: eight fixed-tolerance end-to-end checks.

Each test exercises one headline property at desk scale (exact discrete
Tanaka identity, mass identities, band-map invariants, crossing-count
comparison, Brownian local-time level, and the three convergence trends),
prints a single pass/fail line outside pytest's capture, and enforces a
wall-clock budget.  Budgets relax tenfold when the compiled kernel backend
is unavailable.
"""

import time

import numpy as np

from leveltime._kernels import HAS_NUMBA
from leveltime.crossing import (
    discrete_tanaka_residual,
    j_pi,
    k_pi,
    occupation_local_time,
    split_Kc_Kd,
)
from leveltime.dcfuncs import builtin_suite
from leveltime.lab import (
    GeneratorSpec,
    classical_local_time,
    experiment_config_from_json,
    generate,
    generate_many,
    q_statistic,
    run_convergence_experiment,
)
from leveltime.paths import LevelGrid, PartitionScheme, total_variation
from leveltime.skorokhod import (
    banach_indicatrix,
    banach_indicatrix_integral,
    crossing_count_field,
    exceptional_levels,
    interval_crossing_local_time,
    skorokhod_map,
)

RELAX = 1.0 if HAS_NUMBA else 10.0


def report(capsys, label, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"[acceptance] {label}: {status} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s)"
        )


def jump_spec(steps_per_unit, seed, jump_rate=6.0):
    return GeneratorSpec(
        "jump_diffusion",
        T=1.0,
        steps_per_unit=steps_per_unit,
        seed=seed,
        sigma=1.0,
        jump_rate=jump_rate,
    )


def test_1_discrete_tanaka_identity(capsys):
    budget = 5.0 * RELAX
    tick = time.perf_counter()
    paths = generate_many(jump_spec(199, seed=101), 100)
    suite = builtin_suite()
    worst_ratio = 0.0
    for path in paths:
        scheme = PartitionScheme.dyadic(
            path.n_samples, range(1, 6), include_jumps=path.jump_indices
        )
        tol = 1e-9 * (1.0 + total_variation(path))
        T = path.duration
        for f in suite:
            for n in range(5):
                for t in (T / 3.0, 2.0 * T / 3.0, T):
                    r = abs(discrete_tanaka_residual(path, f, scheme, n, t=t))
                    worst_ratio = max(worst_ratio, r / tol)
    elapsed = time.perf_counter() - tick
    ok = worst_ratio <= 1.0
    report(
        capsys,
        "1 discrete Tanaka identity",
        ok and elapsed <= budget,
        f"worst residual at {worst_ratio:.2e} of the 1e-9(1+TV) budget",
        elapsed,
        budget,
    )
    assert ok, f"residual exceeded tolerance by factor {worst_ratio}"
    assert elapsed <= budget


def test_2_mass_identities(capsys):
    budget = 1.0 * RELAX
    tick = time.perf_counter()
    paths = generate_many(jump_spec(999, seed=202), 20)
    worst_jump = 0.0
    worst_cont = 0.0
    for path in paths:
        grid = LevelGrid.for_path(path, 0.02, 0.5)
        jf = j_pi(path, grid=grid, mode="cell")
        idx = path.jump_indices
        sizes = path.values[idx] - path.values[idx - 1]
        worst_jump = max(
            worst_jump, abs(jf.mass - 0.5 * float((sizes**2).sum()))
        )
        kf = k_pi(
            path, PartitionScheme.full(path.n_samples), 0, grid=grid, mode="cell"
        )
        _, lt = split_Kc_Kd(kf, jf)
        inc = np.diff(path.values)
        qv_c = float((inc[~path.jump_mask[1:]] ** 2).sum())
        gap = abs(lt.mass - qv_c)
        bound = 2.0 * grid.du * total_variation(path)
        worst_cont = max(worst_cont, gap / bound)
    elapsed = time.perf_counter() - tick
    ok = worst_jump <= 1e-12 and worst_cont <= 1.0
    report(
        capsys,
        "2 mass identities",
        ok and elapsed <= budget,
        f"jump-mass gap {worst_jump:.2e}, "
        f"continuous gap at {worst_cont:.2f} of the 2*du*TV budget",
        elapsed,
        budget,
    )
    assert worst_jump <= 1e-12
    assert worst_cont <= 1.0
    assert elapsed <= budget


def test_3_band_map_invariants(capsys):
    budget = 2.0 * RELAX
    tick = time.perf_counter()
    paths = generate_many(jump_spec(199, seed=303), 100)
    checked = 0
    for path in paths:
        for eps in (1.0, 0.3, 0.05):
            sol = skorokhod_map(path, eps)
            h = sol.half_width
            x = path.values
            reg = sol.regularized.values
            dev = sol.deviation
            assert dev[0] == 0.0
            assert float(np.abs(x - reg).max()) <= h
            moves = np.diff(reg)
            moved = moves != 0.0
            d = dev[1:][moved]
            assert np.all(np.abs(np.abs(d) - h) <= 1e-12)
            assert np.array_equal(np.sign(d), np.sign(moves[moved]))
            prev_dir = 0
            for i0, i1, dirn in sol.monotone_segments:
                seg = np.diff(reg[i0 : i1 + 1])
                if dirn > 0:
                    assert np.all(seg >= 0.0)
                elif dirn < 0:
                    assert np.all(seg <= 0.0)
                else:
                    assert np.all(seg == 0.0)
                if dirn != 0:
                    assert prev_dir == 0 or dirn == -prev_dir
                    prev_dir = dirn
            ji = path.jump_indices
            assert np.all(
                np.abs(reg[ji] - reg[ji - 1]) <= np.abs(x[ji] - x[ji - 1]) + 1e-12
            )
            checked += 1
    elapsed = time.perf_counter() - tick
    ok = checked == 300
    report(
        capsys,
        "3 band map invariants",
        ok and elapsed <= budget,
        f"{checked} path/width combinations verified",
        elapsed,
        budget,
    )
    assert ok
    assert elapsed <= budget


def test_4_crossing_count_comparison(capsys):
    budget = 2.0 * RELAX
    tick = time.perf_counter()
    paths = generate_many(jump_spec(199, seed=404), 50)
    worst_gap = 0
    worst_tv = 0.0
    n_levels_checked = 0
    for path in paths:
        grid = LevelGrid.for_path(path, 0.1, 0.25)
        for eps in (0.4, 0.15, 0.05):
            sol = skorokhod_map(path, eps)
            strict = crossing_count_field(path, grid, eps, strict=True)
            # the levels farther than 1e-9 from every exceptional level,
            # found by one searchsorted and counted by one call
            bad = np.concatenate([[-np.inf], exceptional_levels(sol), [np.inf]])
            z = grid.levels
            j = np.searchsorted(bad, z)
            keep = np.minimum(z - bad[j - 1], bad[j] - z) > 1e-9
            gap = np.abs(
                strict[keep].astype(np.int64) - banach_indicatrix(sol, z[keep])
            )
            worst_gap = max(worst_gap, int(gap.max(initial=0)))
            n_levels_checked += int(keep.sum())
            tv_reg = total_variation(sol.regularized)
            err = abs(banach_indicatrix_integral(sol) - tv_reg)
            worst_tv = max(worst_tv, err / (1e-9 * (1.0 + tv_reg)))
    elapsed = time.perf_counter() - tick
    ok = worst_gap <= 2 and worst_tv <= 1.0
    report(
        capsys,
        "4 crossing-count comparison",
        ok and elapsed <= budget,
        f"max count gap {worst_gap} over {n_levels_checked} levels, "
        f"indicatrix integral at {worst_tv:.2f} of the 1e-9(1+TV) budget",
        elapsed,
        budget,
    )
    assert worst_gap <= 2
    assert worst_tv <= 1.0
    assert elapsed <= budget


def test_5_brownian_local_time_level(capsys):
    budget = 90.0 * RELAX
    tick = time.perf_counter()
    n_paths = 2000
    spec = GeneratorSpec("brownian", T=1.0, steps_per_unit=2**14, seed=555)
    grid = LevelGrid(0.0, 0.02, 1)
    ell = np.empty(n_paths)
    end = np.empty(n_paths)
    for i, child in enumerate(np.random.SeedSequence(555).spawn(n_paths)):
        path = generate(spec, np.random.default_rng(child))
        ell[i] = classical_local_time(path, grid=grid).data[0]
        end[i] = abs(path.values[-1])
    mean = float(ell.mean())
    diff = abs(mean - float(end.mean()))
    se = float(np.std(ell - end, ddof=1)) / np.sqrt(n_paths)
    elapsed = time.perf_counter() - tick
    ok = 0.75 <= mean <= 0.85 and diff <= 3.0 * se
    report(
        capsys,
        "5 Brownian local-time level",
        ok and elapsed <= budget,
        f"mean {mean:.4f} in [0.75, 0.85], "
        f"gap to |x_T| oracle {diff:.4f} vs 3SE {3.0 * se:.4f}",
        elapsed,
        budget,
    )
    assert 0.75 <= mean <= 0.85, f"mean local time {mean} off the target level"
    assert diff <= 3.0 * se, f"oracle gap {diff} above 3 SE {3.0 * se}"
    assert elapsed <= budget


def test_6_partition_crossing_trend(capsys):
    budget = 120.0 * RELAX
    tick = time.perf_counter()
    config = experiment_config_from_json(
        {
            "generator": {
                "kind": "brownian", "T": 1.0, "steps_per_unit": 2**14, "seed": 0,
            },
            "estimator": "K_pi",
            "field_mode": "cell",
            "ladder": [8, 9, 10, 11, 12, 13],
            "paths": 500,
            "seed": 42,
            "grid_du": 0.05,
            "grid_margin": 0.5,
        }
    )
    rep = run_convergence_experiment(config)
    means = [r.mean for r in rep.rows]
    elapsed = time.perf_counter() - tick
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ratio = means[-1] / means[0]
    ok = decreasing and ratio < 0.25
    report(
        capsys,
        "6 partition-crossing trend",
        ok and elapsed <= budget,
        f"means {'strictly decreasing' if decreasing else 'NOT decreasing'}, "
        f"final/first {ratio:.3f} < 0.25",
        elapsed,
        budget,
    )
    assert decreasing, f"distance means not strictly decreasing: {means}"
    assert ratio < 0.25, f"final level at {ratio} of the first"
    assert elapsed <= budget


def test_7_interval_crossing_trend(capsys):
    budget = 180.0 * RELAX
    tick = time.perf_counter()
    widths_a = [0.4, 0.2, 0.1, 0.05]
    widths_b = [0.3, 0.15, 0.075, 0.05]
    generator = {
        "kind": "jump_diffusion",
        "T": 1.0,
        "steps_per_unit": 2**14,
        "seed": 0,
        "sigma": 1.0,
        "jump_rate": 5.0,
        "jump_low": -1.0,
        "jump_high": 1.0,
    }

    def run(ladder, seed):
        return run_convergence_experiment(
            experiment_config_from_json(
                {
                    "generator": generator,
                    "estimator": "interval_crossing",
                    "ladder": ladder,
                    "paths": 500,
                    "seed": seed,
                    "grid_du": 0.025,
                    "grid_margin": 0.5,
                }
            )
        )

    rep_a = run(widths_a, seed=1001)
    rep_b = run(widths_b, seed=2002)
    means_a = [r.mean for r in rep_a.rows]
    means_b = [r.mean for r in rep_b.rows]
    dec_a = all(b < a for a, b in zip(means_a, means_a[1:]))
    dec_b = all(b < a for a, b in zip(means_b, means_b[1:]))
    gap = abs(means_a[-1] - means_b[-1])
    two_se = 2.0 * float(np.hypot(rep_a.rows[-1].se, rep_b.rows[-1].se))

    # Q statistic on the same cohort of paths as ladder A
    spec = GeneratorSpec(**generator)
    q_sum = np.zeros(len(widths_a))
    n_paths = 500
    for child in np.random.SeedSequence(1001).spawn(n_paths):
        path = generate(spec, np.random.default_rng(child))
        grid = LevelGrid.for_path(path, 0.025, 0.5)
        ref = classical_local_time(path, grid=grid)
        for k, d in enumerate(widths_a):
            q_sum[k] += q_statistic(path, grid=grid, d=d, classical=ref)
    q_means = q_sum / n_paths
    dec_q = all(b < a for a, b in zip(q_means, q_means[1:]))

    elapsed = time.perf_counter() - tick
    ok = dec_a and dec_b and dec_q and gap <= two_se
    report(
        capsys,
        "7 interval-crossing trend",
        ok and elapsed <= budget,
        f"distance means decreasing on both ladders ({dec_a}/{dec_b}), "
        f"Q-statistic decreasing ({dec_q}), "
        f"ladder gap {gap:.4f} vs 2SE {two_se:.4f}",
        elapsed,
        budget,
    )
    assert dec_a, f"ladder A means not strictly decreasing: {means_a}"
    assert dec_b, f"ladder B means not strictly decreasing: {means_b}"
    assert dec_q, f"Q-statistic means not strictly decreasing: {list(q_means)}"
    assert gap <= two_se, f"interleaved ladders disagree: {gap} > {two_se}"
    assert elapsed <= budget


def test_8_degenerate_paths_stay_flat(capsys):
    budget = 1.0 * RELAX
    tick = time.perf_counter()
    n = 1024
    ramp = generate(
        GeneratorSpec(
            "deterministic_test", T=1.0, steps_per_unit=n, seed=0, pattern="ramp"
        )
    )
    mesh = 1.0 / n
    grid = LevelGrid.for_path(ramp, 0.02, 0.3)
    peaks = {}
    peaks["ramp classical"] = (
        float(classical_local_time(ramp, grid=grid).data.max()),
        2.0 * mesh + 1e-12,
    )
    kf = k_pi(ramp, PartitionScheme.full(ramp.n_samples), 0, grid=grid, mode="cell")
    jf = j_pi(ramp, grid=grid, mode="cell")
    peaks["ramp split"] = (
        float(split_Kc_Kd(kf, jf)[1].data.max()), 2.0 * mesh + 1e-12
    )
    peaks["ramp occupation"] = (
        float(
            occupation_local_time(ramp, bandwidth=2 * grid.du, grid=grid).data.max()
        ),
        2.0 * mesh,
    )
    wide = LevelGrid.for_path(ramp, 0.02, 0.55)
    for c in (0.2, 0.1):
        fld = interval_crossing_local_time(ramp, width=c, grid=wide)
        # a monotone path traverses each band at most once
        peaks[f"ramp interval {c}"] = (float(fld.data.max()), c + 1e-12)

    for label, path in (
        (
            "ladder",
            generate(
                GeneratorSpec(
                    "deterministic_test",
                    T=1.0,
                    steps_per_unit=64,
                    seed=0,
                    pattern="jump_ladder",
                )
            ),
        ),
        (
            "poisson",
            generate(
                GeneratorSpec(
                    "compound_poisson",
                    T=1.0,
                    steps_per_unit=256,
                    seed=808,
                    jump_rate=8.0,
                )
            ),
        ),
    ):
        grid = LevelGrid.for_path(path, 0.02, 0.3)
        # telescoped route leaves only float cancellation on pure-jump paths
        peaks[f"{label} classical"] = (
            float(classical_local_time(path, grid=grid).data.max()), 1e-11
        )
        kf = k_pi(
            path, PartitionScheme.full(path.n_samples), 0, grid=grid, mode="cell"
        )
        jf = j_pi(path, grid=grid, mode="cell")
        peaks[f"{label} split"] = (float(split_Kc_Kd(kf, jf)[1].data.max()), 0.0)
        peaks[f"{label} occupation"] = (
            float(
                occupation_local_time(
                    path, bandwidth=2 * grid.du, grid=grid
                ).data.max()
            ),
            0.0,
        )
        n_jumps = int(path.jump_indices.size)
        wide = LevelGrid.for_path(path, 0.02, 0.55)
        for c in (0.2, 0.1):
            fld = interval_crossing_local_time(path, width=c, grid=wide)
            # each band traversal of a pure-jump path consumes a jump
            peaks[f"{label} interval {c}"] = (
                float(fld.data.max()), c * n_jumps + 1e-12
            )

    elapsed = time.perf_counter() - tick
    failures = {k: v for k, v in peaks.items() if v[0] > v[1]}
    ok = not failures
    worst = max(v[0] / v[1] if v[1] > 0 else v[0] for v in peaks.values())
    report(
        capsys,
        "8 degenerate paths stay flat",
        ok and elapsed <= budget,
        f"{len(peaks)} estimator/path pairs within mesh-level bounds, "
        f"worst fill {worst:.2e}",
        elapsed,
        budget,
    )
    assert ok, f"estimators left spurious mass: {failures}"
    assert elapsed <= budget
