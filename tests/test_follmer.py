"""Quadratic variation along partitions, and the pathwise Ito identity
checked through an oracle residual built from the path's own samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import (
    DCFunction,
    GeneratorSpec,
    PartitionScheme,
    SampledCadlagPath,
    generate,
    make_abs,
    make_bump,
    make_square,
    quadratic_variation,
)


def riemann_integral(path, integrand, scheme, n, t=None):
    """Left-point Riemann sum ``sum g(x_{t_j}) (x_{t_{j+1} ^ t} - x_{t_j ^ t})``
    of the callable ``integrand`` along partition ``n``."""
    x = path.values[scheme.clipped(path, n, t)]
    g = np.asarray(integrand(path.values), np.float64)
    return float(np.dot(g[scheme[n][:-1]], np.diff(x)))


def jump_compensator(path, f: DCFunction, t=None):
    """Sum over marked jumps of ``f(x_s) - f(x_{s-}) - f'(x_{s-}) dx_s``."""
    pre, post = path.jump_brackets(t)
    terms = f.eval_f(post) - f.eval_f(pre) - f.eval_fprime(pre) * (post - pre)
    return float(np.sum(terms))


def follmer_residual(path, f: DCFunction, scheme, n, t=None):
    """Defect of the pathwise Ito formula at partition level ``n``.

    Residual = f(x_t) - f(x_0) - left Riemann sum of f' along the partition
    - (1/2) sum over unmarked grid increments of f''(x_left) (increment)^2
    - jump compensator, for an ``f`` whose ``f''`` has a density and no
    atoms.
    """
    assert not f.second_derivative.atoms
    head = f.eval_f(np.array([path.values[path.index_at(t)], path.values[0]]))
    left, inc = path.continuous_steps(t)
    term_qv = 0.5 * float(np.dot(f.second_derivative.density(left), inc**2))
    return (
        float(head[0] - head[1])
        - riemann_integral(path, f.eval_fprime, scheme, n, t)
        - term_qv
        - jump_compensator(path, f, t)
    )


def ramp_path(n=1024):
    t = np.linspace(0.0, 1.0, n + 1)
    return SampledCadlagPath(t, t.copy())


def single_jump_path():
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 1.0])
    mask = np.array([False, True, False])
    return SampledCadlagPath(times, values, mask)


class TestQuadraticVariation:
    def test_ramp_full_grid(self):
        p = ramp_path(1024)
        qv = quadratic_variation(p, PartitionScheme.full(p.n_samples), 0)
        total, cont, jump = qv.value_at(1.0)
        assert total == pytest.approx(1.0 / 1024.0, rel=1e-12)
        assert cont == total
        assert jump == 0.0

    def test_single_jump_is_pure_jump(self):
        p = single_jump_path()
        qv = quadratic_variation(p, PartitionScheme.full(3), 0)
        total, cont, jump = qv.value_at(1.0)
        assert (total, cont, jump) == (1.0, 0.0, 1.0)

    def test_constant_path(self):
        p = SampledCadlagPath([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
        qv = quadratic_variation(p, PartitionScheme.full(3), 0)
        assert qv.value_at(1.0) == (0.0, 0.0, 0.0)

    def test_decomposition_and_monotonicity(self, step_path):
        p = step_path(11)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 5), include_jumps=p)
        for n in range(scheme.n_levels):
            qv = quadratic_variation(p, scheme, n)
            np.testing.assert_allclose(
                qv.total, qv.continuous_part + qv.jump_part, atol=1e-14
            )
            assert np.all(np.diff(qv.total) >= -1e-14)
            assert np.all(np.diff(qv.continuous_part) >= -1e-14)
            assert np.all(np.diff(qv.jump_part) >= -1e-14)

    def test_clipping_freezes_after_t(self):
        p = ramp_path(8)
        scheme = PartitionScheme.full(p.n_samples)
        qv = quadratic_variation(p, scheme, 0, t=0.5)
        total_half, _, _ = qv.value_at(1.0)
        assert total_half == pytest.approx(0.5 / 8.0, rel=1e-12)

    def test_value_before_partition_raises(self):
        p = ramp_path(8)
        qv = quadratic_variation(p, PartitionScheme.full(p.n_samples), 0)
        with pytest.raises(ValueError, match="precedes"):
            qv.value_at(-0.25)

    def test_jump_exhausting_partition_captures_jump_square(self, step_path):
        p = step_path(5, jump_rate=8.0)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 4), include_jumps=p)
        assert scheme.exhausts_jumps(p)
        qv = quadratic_variation(p, scheme, scheme.n_levels - 1)
        _, _, jump = qv.value_at(p.duration)
        pre, post = p.jump_brackets()
        expected = float(np.sum((post - pre) ** 2))
        assert jump == pytest.approx(expected, rel=1e-12)


class TestRiemannIntegral:
    def test_constant_integrand_telescopes(self, step_path):
        p = step_path(3)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 3))
        val = riemann_integral(p, lambda x: np.ones_like(x), scheme, 0)
        assert val == pytest.approx(p.values[-1] - p.values[0], abs=1e-12)

    def test_clipping_at_t(self):
        p = ramp_path(8)
        scheme = PartitionScheme.full(p.n_samples)
        val = riemann_integral(p, lambda x: x, scheme, 0, t=0.5)
        # left sums of x dx over [0, 1/2]: (1/8) * sum of first 4 left points
        assert val == pytest.approx(np.dot(p.values[:4], np.full(4, 0.125)), abs=1e-15)


class TestJumpCompensator:
    def test_no_jumps_is_zero(self):
        assert jump_compensator(ramp_path(16), make_square()) == 0.0

    def test_single_jump_closed_form(self):
        p = single_jump_path()
        f = make_square()
        # f(1) - f(0) - f'(0) * 1 = 1/2
        assert jump_compensator(p, f) == pytest.approx(0.5, abs=1e-15)
        assert jump_compensator(p, f, t=0.25) == 0.0

    @given(
        pre=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        size=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_convex_compensator_nonnegative(self, pre, size):
        times = np.array([0.0, 0.5, 1.0])
        values = np.array([pre, pre + size, pre + size])
        mask = np.array([False, True, False])
        p = SampledCadlagPath(times, values, mask)
        for f in (make_square(), make_abs(0.0, 0.5), make_bump()):
            assert jump_compensator(p, f) >= -1e-12


class TestFollmerResidual:
    def test_square_on_full_grid_is_exactly_zero(self, step_path):
        # for f = x^2/2 the Taylor expansion on each increment is exact, so
        # the full-partition residual telescopes to zero in exact arithmetic
        p = step_path(7)
        scheme = PartitionScheme.full(p.n_samples)
        res = follmer_residual(p, make_square(), scheme, 0)
        assert abs(res) < 1e-12

    def test_ramp_residual_closed_form(self):
        # unit ramp over 2^k steps, dyadic level n: f = x^2/2 gives
        # residual = (2^-n - 2^-k) / 2 exactly
        k = 10
        p = ramp_path(2**k)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 7))
        for n in range(scheme.n_levels):
            res = follmer_residual(p, make_square(), scheme, n)
            expected = 0.5 * (2.0 ** -(n + 1) - 2.0**-k)
            assert res == pytest.approx(expected, abs=1e-13), n

    def test_full_grid_residual_obeys_third_order_taylor_bound(self, step_path):
        # when the partition exhausts every sample, the residual is a sum of
        # per-increment Taylor tails, each at most max|f'''|/6 * |inc|^3
        f = make_bump(0.0, 2.0)
        u = np.linspace(-2.1, 2.1, 100001)
        rho = f.second_derivative.density(u)
        max3 = 1.1 * np.max(np.abs(np.diff(rho))) / (u[1] - u[0])
        for seed in range(5):
            p = step_path(seed, n_samples=1025)
            res = abs(follmer_residual(p, f, PartitionScheme.full(p.n_samples), 0))
            inc = np.abs(np.diff(p.values))[~p.jump_mask[1:]]
            assert res <= max3 / 6.0 * np.sum(inc**3)

    def test_mean_residual_shrinks_along_dyadic_levels(self):
        # per-path residuals oscillate across levels, so the decay is asserted
        # on the seed-averaged magnitude
        f = make_bump(0.0, 2.0)
        coarse, fine = [], []
        for seed in range(10):
            spec = GeneratorSpec(
                kind="jump_diffusion",
                steps_per_unit=2048,
                seed=seed,
                sigma=1.0,
                jump_rate=6.0,
            )
            p = generate(spec)
            scheme = PartitionScheme.dyadic(p.n_samples, range(1, 10), include_jumps=p)
            coarse.append(abs(follmer_residual(p, f, scheme, 0)))
            fine.append(abs(follmer_residual(p, f, scheme, 8)))
        assert np.mean(fine) < 0.3 * np.mean(coarse)

    def test_clipped_residual_matches_restricted_effort(self, step_path):
        p = step_path(13)
        scheme = PartitionScheme.dyadic(p.n_samples, range(1, 5), include_jumps=p)
        res_t = follmer_residual(p, make_square(), scheme, 3, t=0.5)
        assert np.isfinite(res_t)
        full = follmer_residual(p, make_square(), scheme, 3)
        assert res_t != pytest.approx(full, abs=0.0) or p.index_at(0.5) == p.n_samples - 1


def test_generated_pure_jump_qv_is_all_jump():
    spec = GeneratorSpec(
        kind="compound_poisson", steps_per_unit=256, seed=5, sigma=0.0, jump_rate=9.0
    )
    p = generate(spec)
    qv = quadratic_variation(p, PartitionScheme.full(p.n_samples), 0)
    total, cont, jump = qv.value_at(1.0)
    assert cont == 0.0
    assert total == pytest.approx(jump, abs=0.0)
