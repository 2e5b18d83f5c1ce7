"""Variant equivalence and brute-force oracles for the array kernels.

Each kernel is bound at import to one implementation, but the loop variants
stay reachable under their private names.  These tests run every variant of
a kernel on the same input: the uncompiled loop, its array form where there
is one, and with numba the compiled loop.  Each is compared with the others
and with an independent reference loop written here, so a regression in any
variant shows up as a disagreement on every machine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import _kernels
from leveltime._kernels import HAS_NUMBA


def _sample_values(seed, n=400, jumpy=True):
    rng = np.random.default_rng(seed)
    steps = 0.08 * rng.standard_normal(n)
    if jumpy:
        hits = rng.random(n) < 0.03
        steps[hits] = rng.uniform(-1.0, 1.0, hits.sum())
    return np.concatenate([[0.0], np.cumsum(steps)])


# ---------------------------------------------------------------------------
# reference implementations (independent of the package internals)
# ---------------------------------------------------------------------------

def ref_play(values, eps):
    half = 0.5 * eps
    reg = np.empty_like(values)
    reg[0] = values[0]
    for i in range(1, values.size):
        prev = reg[i - 1]
        d = values[i] - prev
        if d > half:
            reg[i] = values[i] - half
        elif d < -half:
            reg[i] = values[i] + half
        else:
            reg[i] = prev
    return reg


def ref_crossings(values, z, eps, strict):
    low, high = z - 0.5 * eps, z + 0.5 * eps
    up = down = 0
    armed_up = armed_down = False
    for v in values:
        arm_up = v < low if strict else v <= low
        arm_dn = v > high if strict else v >= high
        if arm_up:
            armed_up = True
        elif v >= high and armed_up:
            up += 1
            armed_up = False
        if arm_dn:
            armed_down = True
        elif v <= low and armed_down:
            down += 1
            armed_down = False
    return up, down


def ref_point_field(a, b, levels):
    out = np.zeros(levels.size)
    for aj, bj in zip(a, b):
        lo, hi = min(aj, bj), max(aj, bj)
        inside = (levels >= lo) & (levels < hi)
        out[inside] += np.abs(bj - levels[inside])
    return out


def ref_cell_field(a, b, edges):
    # exact integral of |b - u| over [lo, hi) meet cell k, divided by du
    du = edges[1] - edges[0]
    out = np.zeros(edges.size - 1)
    for aj, bj in zip(a, b):
        lo, hi = min(aj, bj), max(aj, bj)
        for k in range(out.size):
            alpha, beta = max(lo, edges[k]), min(hi, edges[k + 1])
            if beta > alpha:
                out[k] += (beta - alpha) * abs(bj - 0.5 * (alpha + beta)) / du
    return out


def ref_signed_sum(left, inc, levels):
    out = np.zeros(levels.size)
    for k, u in enumerate(levels):
        out[k] = np.sum(np.where(left > u, inc, -inc))
    return out


def ref_occupation(left, w, levels, eps):
    # the band [left - eps, left + eps] with its ends rounded as written
    out = np.zeros(levels.size)
    for k, u in enumerate(levels):
        out[k] = w[(left - eps <= u) & (u <= left + eps)].sum()
    return out


def variants(loop, array_form, bound):
    """The implementations of one kernel: the uncompiled loop, its array
    form unless that is ``None``, and with numba the compiled loop
    ``bound``."""
    found = [loop] if array_form is None else [loop, array_form]
    if HAS_NUMBA:
        assert bound.py_func is loop
        found.append(bound)
    return found


def assert_variants_agree(run, impls, expected, tol):
    """``run(impl)`` for every implementation agrees with the first one and
    with the oracle's ``expected``."""
    outs = [run(impl) for impl in impls]
    for out in outs:
        np.testing.assert_allclose(out, outs[0], rtol=tol, atol=tol)
        np.testing.assert_allclose(out, expected, rtol=tol, atol=tol)


# ---------------------------------------------------------------------------
# variant-vs-variant and variant-vs-reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", [1.0, 0.25, 0.01])
def test_play_operator_backends_bitwise_equal(seed, eps):
    values = _sample_values(seed)
    reg, dev = _kernels.play_operator(values, eps)
    for kernel in variants(_kernels._play_operator_loop, None, _kernels._play_operator):
        r, d = kernel(values, eps)
        assert np.array_equal(r, reg)
        assert np.array_equal(d, dev)
    # the band holds exactly after the ulp nudges, and a stall copies the
    # previous regularised value bit for bit
    assert np.all(np.abs(values - reg) <= 0.5 * eps)
    stall = np.abs(dev[1:]) < 0.5 * eps
    assert np.array_equal(reg[1:][stall], reg[:-1][stall])


@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_play_operator_matches_reference_recursion(eps):
    values = _sample_values(7)
    reg, dev = _kernels.play_operator(values, eps)
    expected = ref_play(values, eps)
    # the ulp nudge may move a sample by a few ulps, never more
    np.testing.assert_allclose(reg, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(values - reg, dev, rtol=0, atol=1e-12)


def _grid_snapped_values(seed, u0, du, m, eps, n=400):
    # samples sitting exactly on band edges z +- eps/2 and on levels, so
    # every arm/fire comparison meets its tie
    rng = np.random.default_rng(seed)
    k = rng.integers(-2, m + 2, n)
    side = rng.choice([-1.0, 0.0, 1.0], n)
    return (u0 + k * du) + side * (0.5 * eps)


CLAMPS = variants(
    _kernels._crossing_clamp_loop, _kernels._crossing_clamp_np, _kernels._crossing_clamp
)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("snapped", [False, True], ids=["walk", "snapped"])
@pytest.mark.parametrize(
    "eps,strict",
    # 0.05 is the grid spacing du
    [(0.5, False), (0.5, True), (0.0, True), (0.0, False), (0.05, False), (0.05, True)],
)
def test_crossing_counts_backends_and_reference(seed, snapped, eps, strict):
    u0, du, m = -2.0, 0.05, 100
    if snapped:
        values = _grid_snapped_values(seed, u0, du, m, eps)
    else:
        values = _sample_values(seed)
    expected = [ref_crossings(values, u0 + k * du, eps, strict) for k in range(m)]
    for clamp in CLAMPS:
        up, down = _kernels._crossing_counts(clamp, values, u0, du, m, eps, strict)
        assert [(int(u), int(d)) for u, d in zip(up, down)] == expected


def test_crossing_counts_armed_sample_never_fires_same_step():
    # at eps=0 non-strict a sample sitting exactly on the level arms and
    # must not also complete a crossing on that same sample: here every
    # v=0 sample re-arms the down tally (v >= high), so down stays 0
    values = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    for clamp in CLAMPS:
        up, down = _kernels._crossing_counts(clamp, values, 0.0, 1.0, 1, 0.0, False)
        assert (int(up[0]), int(down[0])) == (2, 0)


# Grid-snapped cases: values on levels, on cell edges u_k +- du/2 and beyond
# both grid ends, so every range end meets its tie.
def _snapped(seeds, grids):
    return [
        pytest.param(("snapped", seed, u0, du), id=f"snapped-{seed}-{u0}-{du}")
        for seed in seeds
        for u0, du in grids
    ]


def _field_case(case):
    """``(values, u0, du, m)``: a jumpy walk for an integer seed, else
    values snapped to the case's grid."""
    if isinstance(case, int):
        return _sample_values(case), -2.5, 0.04, 150
    _, seed, u0, du = case
    return _grid_snapped_values(seed, u0, du, 60, du), u0, du, 60


_TIE_GRIDS = ((-2.5, 0.04), (0.0, 0.5), (1e3, 1e-3))


@pytest.mark.parametrize("case", [5, 6] + _snapped((15, 16), _TIE_GRIDS))
def test_interval_field_point_backends_and_reference(case):
    values, u0, du, m = _field_case(case)
    a, b = values[:-1], values[1:]
    assert_variants_agree(
        lambda accumulate: _kernels._interval_field(
            _kernels._level_ranges, accumulate, a, b, u0, du, m, np.zeros(m)
        ),
        variants(_kernels._point_sums_loop, _kernels._point_sums_np, _kernels._point_sums),
        ref_point_field(a, b, u0 + du * np.arange(m)),
        1e-10,
    )


@pytest.mark.parametrize("case", [8, 9] + _snapped((15, 16), _TIE_GRIDS))
def test_interval_field_cell_backends_agree(case):
    values, u0, du, m = _field_case(case)
    a, b = values[:-1], values[1:]
    assert_variants_agree(
        lambda accumulate: _kernels._interval_field(
            _kernels._cell_ranges, accumulate, a, b, u0, du, m, np.zeros(m)
        ),
        variants(_kernels._cell_sums_loop, _kernels._cell_sums_np, _kernels._cell_sums),
        ref_cell_field(a, b, u0 + du * (np.arange(m + 1) - 0.5)),
        1e-10,
    )


def test_interval_field_cell_mass_identity():
    # du * sum(cell field) telescopes to sum (b-a)^2 / 2 exactly: each
    # increment's |b - u| integrates to half its squared length
    values = _sample_values(10)
    a, b = values[:-1], values[1:]
    du = 0.05
    u0 = values.min() - 5 * du
    m = int(np.ceil((values.max() + 5 * du - u0) / du)) + 1
    out = _kernels.interval_field_cell(a, b, u0, du, m)
    np.testing.assert_allclose(
        du * out.sum(), 0.5 * np.sum((b - a) ** 2), rtol=1e-12
    )


def test_interval_field_cell_averages_the_point_field():
    # single increment: per-cell value equals the analytic cell average
    a = np.array([0.1])
    b = np.array([0.9])
    u0, du, m = 0.0, 0.25, 5
    out = _kernels.interval_field_cell(a, b, u0, du, m)
    fine = np.linspace(-0.125, 1.125, 200001)
    point = np.where((fine >= 0.1) & (fine < 0.9), np.abs(0.9 - fine), 0.0)
    for k in range(m):
        lo, hi = u0 + (k - 0.5) * du, u0 + (k + 0.5) * du
        mask = (fine >= lo) & (fine < hi)
        approx = np.trapezoid(point[mask], fine[mask]) / du
        assert abs(out[k] - approx) < 2e-4


@pytest.mark.parametrize("case", [11, 12] + _snapped((19,), _TIE_GRIDS))
def test_signed_increment_sum_backends_and_reference(case):
    values, u0, du, m = _field_case(case)
    left, inc = values[:-1], np.diff(values)
    out = _kernels.signed_increment_sum(left, inc, u0, du, m)
    np.testing.assert_allclose(
        out,
        ref_signed_sum(left, inc, u0 + du * np.arange(m)),
        rtol=1e-10,
        atol=1e-10,
    )


def test_signed_increment_sum_left_continuous_sign():
    # sign(0) = -1: an increment starting exactly on the level counts negative
    out = _kernels.signed_increment_sum(
        np.array([0.5]), np.array([1.0]), 0.5, 1.0, 1
    )
    assert out[0] == -1.0


# with eps 0.3 and 0.05 these grids put band half-widths of du/6, du/2, du,
# 3 du and 6 du, so band ends land on levels too
@pytest.mark.parametrize(
    "case", [13, 14] + _snapped((17, 18), ((-2.5, 0.05), (0.0, 0.1), (1e3, 0.3)))
)
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_occupation_weights_backends_and_reference(case, eps):
    values, u0, du, m = _field_case(case)
    left = values[:-1]
    w = np.diff(values) ** 2
    assert_variants_agree(
        lambda accumulate: _kernels._occupation_weights(
            accumulate, left, w, u0, du, m, eps, np.zeros(m)
        ),
        variants(_kernels._band_sums_loop, _kernels._band_sums_np, _kernels._band_sums),
        ref_occupation(left, w, u0 + du * np.arange(m), eps),
        1e-12,
    )


_GRID_SIZE = 40


@st.composite
def _grid_probes(draw):
    # values on the grid points, on their float neighbours, between them and
    # beyond both ends of a grid with |u0| / du up to 1e10
    u0 = draw(st.floats(-1e4, 1e4, allow_nan=False))
    du = draw(st.floats(1e-6, 10.0))
    off = draw(st.sampled_from([0.0, -0.5]))
    grid = u0 + (np.arange(_GRID_SIZE) + off) * du
    ks = draw(st.lists(st.integers(-3, _GRID_SIZE + 2), min_size=1, max_size=30))
    shifts = draw(st.lists(st.sampled_from(["on", "up", "down", "mid"]), min_size=len(ks), max_size=len(ks)))
    x = []
    for k, shift in zip(ks, shifts):
        v = u0 + (k + off) * du
        if shift == "up":
            v = np.nextafter(v, np.inf)
        elif shift == "down":
            v = np.nextafter(v, -np.inf)
        elif shift == "mid":
            v = v + 0.5 * du
        x.append(v)
    return u0, du, off, grid, np.array(x)


@given(_grid_probes(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_rank_is_searchsorted_on_the_materialised_grid(probe, right):
    u0, du, off, grid, x = probe
    got = _kernels._rank(x, u0, du, right, off)
    want = np.searchsorted(grid, x, "right" if right else "left")
    np.testing.assert_array_equal(np.minimum(got, grid.size), want)
    for v, expect in zip(x, got):
        assert _kernels._rank(v, u0, du, right, off) == expect


def test_kernels_empty_and_degenerate_inputs():
    empty = np.empty(0)
    assert _kernels.interval_field_point(empty, empty, 0.0, 0.1, 4).sum() == 0.0
    assert _kernels.interval_field_cell(empty, empty, 0.0, 0.1, 4).sum() == 0.0
    assert _kernels.signed_increment_sum(empty, empty, 0.0, 0.1, 4).sum() == 0.0
    assert _kernels.occupation_weights(empty, empty, 0.0, 0.1, 4, 0.2).sum() == 0.0
    one = np.array([1.0])
    reg, dev = _kernels.play_operator(one, 0.5)
    assert reg[0] == 1.0 and dev[0] == 0.0
    up, down = _kernels.crossing_counts(one, 0.0, 1.0, 3, 0.5)
    assert up.sum() == 0 and down.sum() == 0


def test_zero_length_increments_contribute_nothing():
    a = np.array([0.3, 0.7, 0.3])
    b = np.array([0.3, 0.7, 0.3])
    out = _kernels.interval_field_point(a, b, 0.0, 0.1, 11)
    assert np.all(out == 0.0)
