"""Difference-of-convex functions: Taylor remainders, curvature measures,
quadrature, mollification, and descriptor parsing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import (
    ConfigError,
    DCFunction,
    LevelGrid,
    Mollifier,
    builtin_suite,
    dc_function_from_descriptor,
    gauss_integrate,
    integrate_against_f2,
    jf_increment,
    make_abs,
    make_bump,
    make_mix,
    make_relu,
    make_square,
    mollify,
)
from leveltime.dcfuncs import left_sign
from leveltime.lab import lp_distance

SUITE = builtin_suite()


def jf_measure_side(f: DCFunction, a: float, b: float) -> float:
    """Curvature-side value of the Taylor remainder J^f(a, b).

    Equals ``int over [a^b, a v b) of |a - u| f''(du)``; the weight measures
    distance from the first argument.  (Writing the weight from the second
    argument breaks the identity whenever f'' has an atom strictly between
    a and b, as a one-atom example shows.)
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    lo = min(a, b)
    hi = max(a, b)
    return float(
        f.second_derivative.bracket_weight_integrals(
            np.array([a]), np.array([lo]), np.array([hi])
        )[0]
    )


# ---------------------------------------------------------------------------
# the Taylor remainder and its curvature-side twin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", SUITE, ids=lambda f: f.name)
def test_remainder_equals_weighted_curvature_integral(f):
    rng = np.random.default_rng(99)
    pts = rng.uniform(-2.0, 2.0, (100, 2))
    # force a few brackets that straddle the suite's kink locations
    pts = np.vstack([pts, [[1.0, 0.0], [0.0, 1.0], [0.3, 0.2], [-0.6, 1.1]]])
    for a, b in pts:
        lhs = jf_increment(f, a, b)
        rhs = jf_measure_side(f, a, b)
        assert lhs == pytest.approx(rhs, abs=1e-12), (f.name, a, b)


def test_remainder_weights_distance_from_first_argument():
    # one atom strictly inside the bracket separates the two weight
    # conventions: only distance-from-the-first-argument matches J
    f = make_relu(0.25)
    assert jf_increment(f, 1.0, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert jf_increment(f, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert jf_measure_side(f, 1.0, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert jf_measure_side(f, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_remainder_frozen_values():
    f = make_abs(0.0, 0.5)
    assert jf_increment(f, 1.0, -1.0) == pytest.approx(1.0, abs=1e-15)
    g = make_square()
    for a, b in [(1.3, -0.2), (0.0, 2.0), (-1.0, -1.0)]:
        assert jf_increment(g, a, b) == pytest.approx(0.5 * (a - b) ** 2, abs=1e-14)


def test_remainder_vanishes_on_equal_arguments():
    for f in SUITE:
        assert jf_increment(f, 0.37, 0.37) == 0.0
        assert jf_measure_side(f, 0.37, 0.37) == 0.0


@given(
    a=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    b=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_remainder_nonnegative_for_convex_members(a, b):
    for f in (make_abs(0.0, 0.5), make_relu(0.25), make_square(), make_bump()):
        assert jf_increment(f, a, b) >= -1e-12 * (1.0 + abs(a) + abs(b))


@pytest.mark.parametrize("f", SUITE, ids=lambda f: f.name)
def test_fundamental_theorem_against_left_derivative(f):
    # the left derivative disagrees with any other derivative choice only on
    # a null set, so integrating it still recovers increments of f
    m = f.second_derivative
    kinks = [loc for loc, _ in m.atoms]
    kinks.extend(b for b in m.breakpoints)
    kinks.extend(s for s in m.support if np.isfinite(s))
    for a, b in [(-1.7, 1.9), (0.0, 0.25), (-0.5, 1.0)]:
        integral = gauss_integrate(f.eval_fprime, a, b, breaks=kinks, panels=4)
        assert integral == pytest.approx(float(f(b) - f(a)), abs=1e-9)


def test_left_sign_convention():
    np.testing.assert_array_equal(left_sign([-1.0, 0.0, 1e-300]), [-1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# gauss_integrate
# ---------------------------------------------------------------------------

def test_gauss_integrate_polynomial_exactness():
    # 16-node Gauss-Legendre is exact through degree 31
    val = gauss_integrate(lambda u: u**31 + u**5 - 3.0, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 32.0 + 1.0 / 6.0 - 3.0, abs=1e-14)


def test_gauss_integrate_breaks_isolate_kinks():
    val = gauss_integrate(np.abs, -1.0, 1.0, breaks=[0.0])
    assert val == pytest.approx(1.0, abs=1e-15)
    coarse = gauss_integrate(np.abs, -1.0, 1.0)
    assert abs(coarse - 1.0) > 1e-15


def test_gauss_integrate_empty_interval():
    assert gauss_integrate(np.exp, 1.0, 1.0) == 0.0
    assert gauss_integrate(np.exp, 2.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# the curvature measure
# ---------------------------------------------------------------------------

class TestSecondDerivativeMeasure:
    def test_atoms_merge_and_drop_zeros(self):
        m = dataclasses.replace(
            make_abs().second_derivative,
            atoms=((0.5, 1.0), (0.5, 2.0), (1.0, 0.0)),
        )
        assert m.atoms == ((0.5, 3.0),)

    def test_mass_is_half_open(self):
        m = make_relu(0.25).second_derivative
        assert m.mass(0.25, 0.5) == 1.0
        assert m.mass(0.0, 0.25) == 0.0
        assert m.mass(0.3, 0.1) == 0.0

    def test_square_masses_are_lengths(self):
        m = make_square().second_derivative
        assert m.mass(-0.5, 2.0) == pytest.approx(2.5, abs=1e-15)
        grid = LevelGrid(0.0, 0.25, 4)
        np.testing.assert_allclose(m.cell_masses(grid), [0.25] * 4, atol=1e-15)

    def test_bump_total_mass_is_one(self):
        m = make_bump(0.3, 0.7).second_derivative
        assert m.mass(-1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert m.mass(0.3 - 0.7, 0.3) == pytest.approx(0.5, abs=1e-12)

    def test_unbounded_density_needs_cdf(self):
        m = dataclasses.replace(
            make_square().second_derivative, cdf=None, first_moment=None
        )
        with pytest.raises(ValueError, match="unbounded"):
            m.density_mass(-np.inf, 0.0)

    def test_bracket_weights_closed_form_matches_quadrature(self):
        f = make_mix()
        exact = f.second_derivative
        fallback = dataclasses.replace(exact, cdf=None, first_moment=None)
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.5, 1.5, 40)
        b = rng.uniform(-1.5, 1.5, 40)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        np.testing.assert_allclose(
            exact.bracket_weight_integrals(a, lo, hi),
            fallback.bracket_weight_integrals(a, lo, hi),
            atol=1e-12,
        )

    def test_invalid_support(self):
        with pytest.raises(ValueError, match="support"):
            dataclasses.replace(make_square().second_derivative, support=(1.0, 1.0))

    def test_non_finite_atom(self):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(
                make_relu().second_derivative, atoms=((np.inf, 1.0),)
            )


# ---------------------------------------------------------------------------
# integrate_against_f2
# ---------------------------------------------------------------------------

class TestIntegrateAgainstCurvature:
    def test_pure_atom_picks_up_g_at_kink(self):
        f = make_abs(0.3, 0.5)
        val = integrate_against_f2(lambda u: u**2 + 1.0, f, (-1.0, 1.0))
        assert val == pytest.approx(1.0 * (0.3**2 + 1.0), abs=1e-14)
        assert integrate_against_f2(lambda u: u, f, (0.4, 1.0)) == 0.0

    def test_lebesgue_curvature_integrates_g(self):
        f = make_square()
        val = integrate_against_f2(np.cos, f, (-1.0, 2.0))
        assert val == pytest.approx(np.sin(2.0) - np.sin(-1.0), abs=1e-12)

    def test_grid_sampled_atom_uses_nearest_left_cell(self):
        f = make_relu(0.25)
        grid = LevelGrid(0.0, 0.1, 5)
        g = np.array([1.0, 10.0, 100.0, 1000.0, 10000.0])
        val = integrate_against_f2(g, f, (0.0, 1.0), grid=grid)
        assert val == 100.0

    def test_grid_sampled_atom_policies(self):
        f = make_relu(0.7)
        grid = LevelGrid(0.0, 0.1, 5)  # places atoms in [0, 0.5)
        g = np.ones(5)
        with pytest.raises(ValueError, match="outside the level grid"):
            integrate_against_f2(g, f, (0.0, 1.0), grid=grid)
        val = integrate_against_f2(
            g * np.arange(5), f, (0.0, 1.0), grid=grid, atom_policy="extend"
        )
        assert val == 4.0
        val = integrate_against_f2(
            g, f, (0.0, 1.0), grid=grid, atom_policy="skip"
        )
        assert val == 0.0

    def test_grid_ends_agree_with_lp_distance(self):
        # one coverage rule: an atom sits on the grid iff its nearest level
        # to the left is a grid level, for the integral and the weighted
        # distance alike
        grid = LevelGrid(0.0, 1.0, 5)
        g = np.arange(1.0, 6.0)
        w = make_abs(4.75).second_derivative  # atom weight 2 at 4.75
        assert integrate_against_f2(g, make_abs(4.75), (-10.0, 10.0), grid=grid) == 10.0
        assert lp_distance(g, np.zeros(5), weight=w, grid=grid) == 10.0
        w = make_abs(-0.25).second_derivative
        with pytest.raises(ValueError, match="outside the level grid"):
            integrate_against_f2(g, make_abs(-0.25), (-10.0, 10.0), grid=grid)
        with pytest.raises(ValueError, match="outside the level grid"):
            lp_distance(g, np.zeros(5), weight=w, grid=grid)

    def test_grid_sampled_density_full_and_partial_cells(self):
        f = make_square()
        grid = LevelGrid(0.0, 0.1, 5)
        g = np.arange(5.0)
        # window covering every cell exactly: each cell contributes g[k] * du
        val = integrate_against_f2(g, f, (-0.05, 0.45), grid=grid)
        assert val == pytest.approx(0.1 * g.sum(), abs=1e-14)
        # right-open window cutting cell 2 in half
        val = integrate_against_f2(g, f, (-0.05, 0.2), grid=grid)
        assert val == pytest.approx(0.1 * (0.0 + 1.0) + 0.05 * 2.0, abs=1e-14)

    def test_grid_required_for_sampled_g(self):
        with pytest.raises(ValueError, match="grid"):
            integrate_against_f2(np.ones(3), make_square(), (0.0, 1.0))
        grid = LevelGrid(0.0, 0.1, 5)
        with pytest.raises(ValueError, match="per grid level"):
            integrate_against_f2(np.ones(3), make_square(), (0.0, 1.0), grid=grid)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="atom_policy"):
            integrate_against_f2(
                lambda u: u, make_square(), (0.0, 1.0), atom_policy="clip"
            )

    def test_empty_window(self):
        assert integrate_against_f2(lambda u: u, make_square(), (1.0, 1.0)) == 0.0


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

class TestMollify:
    def test_level_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            mollify(make_abs(), 0)

    def test_mollified_abs_at_kink(self):
        # (|.| * rho_n)(0) = (1/n) * integral |w| rho(w) dw
        rho = Mollifier.standard_bump()
        expected = gauss_integrate(
            lambda w: np.abs(w) * rho.profile(w), -1.0, 1.0, breaks=[0.0], panels=8
        )
        for n in (1, 4):
            fn = mollify(make_abs(), n, rho)
            assert fn.eval_f(0.0) == pytest.approx(expected / n, abs=1e-10)

    def test_mollified_atom_density_is_scaled_profile(self):
        rho = Mollifier.standard_bump()
        f = make_abs(0.5, 2.0)  # curvature atom of weight 4 at 0.5
        n = 3
        fn = mollify(f, n, rho)
        u = np.array([0.5, 0.4, 0.61])
        np.testing.assert_allclose(
            fn.second_derivative.density(u),
            4.0 * n * rho.profile(n * (u - 0.5)),
            atol=1e-12,
        )

    def test_mollified_function_is_smooth_with_shrunk_support(self):
        fn = mollify(make_abs(), 5)
        assert fn.is_smooth
        assert fn.second_derivative.atoms == ()
        np.testing.assert_allclose(fn.second_derivative.support, (-0.2, 0.2))
        assert fn.name == "abs@0~n5"

    def test_mollified_function_agrees_with_f_far_from_kinks(self):
        # tolerance reflects the quadrature of the nearly-flat bump edges,
        # not the convolution itself, which is exact away from the kink
        fn = mollify(make_relu(0.0), 4)
        f = make_relu(0.0)
        for u in (-2.0, -0.5, 0.5, 2.0):
            assert fn.eval_f(u) == pytest.approx(float(f(u)), abs=1e-8)
            assert fn.eval_fprime(u) == pytest.approx(float(f.derivative(u)), abs=1e-8)

    def test_remainder_identity_survives_mollification(self):
        # exercises the quadrature fallback of bracket_weight_integrals,
        # since mollified measures carry no closed-form antiderivatives
        fn = mollify(make_abs(), 2)
        for a, b in [(0.8, -0.3), (-0.1, 0.45), (0.2, 0.05)]:
            assert jf_increment(fn, a, b) == pytest.approx(
                jf_measure_side(fn, a, b), abs=1e-8
            )

    def test_one_sided_profile_shifts_support(self):
        fn = mollify(make_abs(), 2, Mollifier.one_sided_bump())
        np.testing.assert_allclose(fn.second_derivative.support, (0.0, 0.5))


class TestMollifierValidation:
    def test_profiles_normalised(self):
        assert gauss_integrate(
            Mollifier.standard_bump().profile, -1.0, 1.0, panels=12
        ) == pytest.approx(1.0, abs=1e-10)
        assert gauss_integrate(
            Mollifier.one_sided_bump().profile, 0.0, 1.0, panels=12
        ) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalised_profile_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            Mollifier(lambda u: np.full_like(np.asarray(u, float), 2.0), (0.0, 1.0))

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Mollifier(lambda u: np.asarray(u, float) * 2.0, (-1.0, 1.0))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            Mollifier(lambda u: np.ones_like(np.asarray(u, float)), (1.0, 1.0))

    def test_one_sided_needs_nonnegative_support(self):
        with pytest.raises(ValueError, match="one-sided"):
            Mollifier(
                lambda u: np.full_like(np.asarray(u, float), 0.5),
                (-1.0, 1.0),
                one_sided=True,
            )


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_round_trip_kinds():
    assert dc_function_from_descriptor({"kind": "abs", "center": 1.0}).name == "abs@1"
    assert dc_function_from_descriptor({"kind": "relu"}).name == "relu@0"
    assert dc_function_from_descriptor({"kind": "square"}).name == "square"
    assert (
        dc_function_from_descriptor({"kind": "bump", "width": 2.0}).name
        == "bump@0w2"
    )
    assert dc_function_from_descriptor({"kind": "mix"}).name == "mix"


def test_descriptor_errors():
    with pytest.raises(ConfigError, match="kind"):
        dc_function_from_descriptor({"center": 1.0})
    with pytest.raises(ConfigError, match="unknown function kind"):
        dc_function_from_descriptor({"kind": "cubic"})
    with pytest.raises(ConfigError, match="bad function descriptor"):
        dc_function_from_descriptor({"kind": "bump", "width": -1.0})
    with pytest.raises(ConfigError, match="mapping"):
        dc_function_from_descriptor("abs")


def test_suite_composition():
    names = [f.name for f in SUITE]
    assert names == ["abs*0.5@0", "relu@0.25", "square", "bump@0w1", "mix"]
    assert [f.is_smooth for f in SUITE] == [False, False, True, True, False]
