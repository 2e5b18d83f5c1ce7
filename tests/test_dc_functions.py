"""Difference-of-convex functions: Taylor remainders, curvature measures
checked against a Gauss-Legendre oracle, and descriptor parsing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import (
    ConfigError,
    DCFunction,
    LevelGrid,
    builtin_suite,
    dc_function_from_descriptor,
    make_abs,
    make_bump,
    make_mix,
    make_relu,
    make_square,
)
from leveltime.dcfuncs import left_sign

SUITE = builtin_suite()


def jf_increment(f: DCFunction, a: float, b: float) -> float:
    """Taylor remainder J^f(a, b) = f(a) - f(b) - f'(b)(a - b)."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    return float(f.eval_f(a) - f.eval_f(b) - f.eval_fprime(b) * (a - b))


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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gl_integrate(func, lo, hi, breaks=(), panels=4):
    """Composite 16-point Gauss-Legendre integral of ``func`` on [lo, hi].

    The interval is cut at each of ``breaks`` inside it and every piece into
    ``panels`` equal panels, so piecewise polynomials of degree up to 31 with
    kinks only at ``breaks`` integrate to rounding.  This is the reference
    the closed-form antiderivatives are checked against.
    """
    cuts = np.unique([lo, hi, *(b for b in breaks if lo < b < hi)])
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(left, right, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * np.diff(edges)
        pts = mids[:, None] + halfs[:, None] * _GL_NODES[None, :]
        vals = np.asarray(func(pts.ravel()), np.float64).reshape(pts.shape)
        total += float((halfs[:, None] * _GL_WEIGHTS[None, :] * vals).sum())
    return total


def curvature_integral(g, m, lo, hi, breaks=(-1.0, 1.0)):
    """Oracle for ``int_{[lo, hi)} g(u) m(du)``: atoms by half-open window
    membership, the density by quadrature cut at the atoms and ``breaks``
    (the suite's densities lose smoothness only at -1 and 1)."""
    total = sum(w * float(g(np.array([loc]))[0])
                for loc, w in m.atoms if lo <= loc < hi)
    if m.density is not None:
        kinks = [loc for loc, _ in m.atoms] + list(breaks)
        total += gl_integrate(lambda u: g(u) * m.density(u), lo, hi, kinks)
    return total


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
    kinks = [loc for loc, _ in f.second_derivative.atoms] + [-1.0, 1.0]
    for a, b in [(-1.7, 1.9), (0.0, 0.25), (-0.5, 1.0)]:
        integral = gl_integrate(f.eval_fprime, a, b, kinks)
        assert integral == pytest.approx(float(f(b) - f(a)), abs=1e-9)


def test_left_sign_convention():
    np.testing.assert_array_equal(left_sign([-1.0, 0.0, 1e-300]), [-1.0, -1.0, 1.0])


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
        # an atom counts in the window [lo, hi) iff lo <= loc < hi
        m = make_relu(0.25).second_derivative
        ref = np.array([0.5, 0.0, 0.5])
        lo = np.array([0.25, 0.0, 0.3])
        hi = np.array([0.5, 0.25, 0.3])
        np.testing.assert_array_equal(
            m.bracket_weight_integrals(ref, lo, hi), [0.25, 0.0, 0.0]
        )
        grid = LevelGrid(0.0, 0.25, 4)
        np.testing.assert_array_equal(m.cell_masses(grid), np.zeros(4))

    def test_square_masses_are_lengths(self):
        m = make_square().second_derivative
        assert m.cdf(2.0) - m.cdf(-0.5) == pytest.approx(2.5, abs=1e-15)
        grid = LevelGrid(0.0, 0.25, 4)
        np.testing.assert_allclose(m.cell_masses(grid), [0.25] * 4, atol=1e-15)

    def test_bump_total_mass_is_one(self):
        m = make_bump(0.3, 0.7).second_derivative
        assert m.cdf(2.0) - m.cdf(-1.0) == pytest.approx(1.0, abs=1e-15)
        assert m.cdf(0.3) - m.cdf(0.3 - 0.7) == pytest.approx(0.5, abs=1e-15)
        total = curvature_integral(np.ones_like, m, -1.0, 2.0, (-0.4, 1.0))
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_unbounded_density_needs_cdf(self):
        with pytest.raises(ValueError, match="together"):
            dataclasses.replace(
                make_square().second_derivative, cdf=None, first_moment=None
            )

    def test_density_and_antiderivatives_come_together(self):
        m = make_bump().second_derivative
        for missing in ("cdf", "first_moment", "density"):
            with pytest.raises(ValueError, match="together"):
                dataclasses.replace(m, **{missing: None})
        with pytest.raises(ValueError, match="together"):
            dataclasses.replace(make_abs().second_derivative, cdf=m.cdf)

    def test_bracket_weights_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.5, 1.5, 40)
        b = rng.uniform(-1.5, 1.5, 40)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        for f, breaks in ((make_mix(), (-1.0, 1.0)),
                          (make_bump(0.3, 0.7), (-0.4, 1.0))):
            m = f.second_derivative
            oracle = [
                curvature_integral(lambda u, r=r: np.abs(r - u), m, l, h, breaks)
                for r, l, h in zip(a, lo, hi)
            ]
            np.testing.assert_allclose(
                m.bracket_weight_integrals(a, lo, hi), oracle, atol=1e-12,
                err_msg=f.name,
            )

    def test_cell_masses_closed_form_matches_quadrature(self):
        grid = LevelGrid(-1.3, 0.1, 27)
        edges = grid.edges
        for f, breaks in ((make_mix(), (-1.0, 1.0)),
                          (make_bump(0.3, 0.7), (-0.4, 1.0))):
            m = f.second_derivative
            density_only = dataclasses.replace(m, atoms=())
            oracle = [
                curvature_integral(np.ones_like, density_only, l, h, breaks)
                for l, h in zip(edges[:-1], edges[1:])
            ]
            np.testing.assert_allclose(
                m.cell_masses(grid), oracle, atol=1e-13, err_msg=f.name
            )

    def test_non_finite_atom(self):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(
                make_relu().second_derivative, atoms=((np.inf, 1.0),)
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


@pytest.mark.parametrize(
    "desc,unknown",
    [
        ({"kind": "abs", "centre": 0.3}, ["centre"]),
        ({"kind": "square", "center": 1.0}, ["center"]),
        ({"kind": "relu", "center": 0.1, "scale": 2.0}, ["scale"]),
        ({"kind": "bump", "centre": 0.0, "widht": 1.0}, ["centre", "widht"]),
        ({"kind": "mix", "atoms": [], "uniform": 0.3}, ["uniform"]),
    ],
)
def test_descriptor_refuses_unknown_fields(desc, unknown):
    with pytest.raises(ConfigError) as err:
        dc_function_from_descriptor(desc)
    assert str(err.value) == f"unknown function fields: {unknown}"


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "mix", "uniform_weight": float("nan")},
        {"kind": "mix", "bump_weight": float("inf")},
        {"kind": "bump", "width": float("inf")},
        {"kind": "bump", "width": float("nan")},
        {"kind": "bump", "center": float("nan")},
        {"kind": "bump", "center": float("-inf")},
    ],
)
def test_descriptor_refuses_non_finite_numbers(desc):
    with pytest.raises(ConfigError, match="bad function descriptor: .*finite"):
        dc_function_from_descriptor(desc)


def test_suite_composition():
    names = [f.name for f in SUITE]
    assert names == ["abs*0.5@0", "relu@0.25", "square", "bump@0w1", "mix"]
    has_atoms = [bool(f.second_derivative.atoms) for f in SUITE]
    assert has_atoms == [True, True, False, False, True]
