"""Backend equivalence and brute-force oracles for the array kernels.

Every kernel is reachable through a ``numba`` and a ``numpy`` backend; these
tests pit the two against each other and against independent reference
loops written here, so a regression in either backend shows up as a
disagreement.  Without numba the ``numba`` entries hold the uncompiled
loops, so every test runs on every machine.
"""

import numpy as np
import pytest

from leveltime import _kernels


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


def ref_signed_sum(left, inc, levels):
    out = np.zeros(levels.size)
    for k, u in enumerate(levels):
        out[k] = np.sum(np.where(left > u, inc, -inc))
    return out


def ref_occupation(left, w, levels, eps):
    out = np.zeros(levels.size)
    for k, u in enumerate(levels):
        out[k] = w[np.abs(left - u) <= eps].sum()
    return out


# ---------------------------------------------------------------------------
# backend-vs-backend and backend-vs-reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", [1.0, 0.25, 0.01])
def test_play_operator_backends_bitwise_equal(seed, eps):
    values = _sample_values(seed)
    ra, da = _kernels.BACKENDS["numba"]["play_operator"](values, eps)
    rb, db = _kernels.BACKENDS["numpy"]["play_operator"](values, eps)
    assert np.array_equal(ra, rb)
    assert np.array_equal(da, db)


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
    ua, da = _kernels.BACKENDS["numba"]["crossing_counts"](values, u0, du, m, eps, strict)
    ub, db = _kernels.BACKENDS["numpy"]["crossing_counts"](values, u0, du, m, eps, strict)
    assert np.array_equal(ua, ub)
    assert np.array_equal(da, db)
    expected = [ref_crossings(values, u0 + k * du, eps, strict) for k in range(m)]
    assert [(int(u), int(d)) for u, d in zip(ua, da)] == expected


def test_crossing_counts_armed_sample_never_fires_same_step():
    # at eps=0 non-strict a sample sitting exactly on the level arms and
    # must not also complete a crossing on that same sample: here every
    # v=0 sample re-arms the down tally (v >= high), so down stays 0
    values = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    for backend in ("numba", "numpy"):
        up, down = _kernels.BACKENDS[backend]["crossing_counts"](
            values, 0.0, 1.0, 1, 0.0, False
        )
        assert (int(up[0]), int(down[0])) == (2, 0)


@pytest.mark.parametrize("seed", [5, 6])
def test_interval_field_point_backends_and_reference(seed):
    values = _sample_values(seed)
    a, b = values[:-1], values[1:]
    u0, du, m = -2.5, 0.04, 150
    levels = u0 + du * np.arange(m)
    out_a = _kernels.BACKENDS["numba"]["interval_field_point"](
        a, b, u0, du, m, np.zeros(m)
    )
    out_b = _kernels.BACKENDS["numpy"]["interval_field_point"](
        a, b, u0, du, m, np.zeros(m)
    )
    np.testing.assert_allclose(out_a, out_b, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(out_a, ref_point_field(a, b, levels), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("seed", [8, 9])
def test_interval_field_cell_backends_agree(seed):
    values = _sample_values(seed)
    a, b = values[:-1], values[1:]
    u0, du, m = -2.5, 0.04, 150
    out_a = _kernels.BACKENDS["numba"]["interval_field_cell"](
        a, b, u0, du, m, np.zeros(m)
    )
    out_b = _kernels.BACKENDS["numpy"]["interval_field_cell"](
        a, b, u0, du, m, np.zeros(m)
    )
    np.testing.assert_allclose(out_a, out_b, rtol=1e-10, atol=1e-10)


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


@pytest.mark.parametrize("seed", [11, 12])
def test_signed_increment_sum_backends_and_reference(seed):
    values = _sample_values(seed)
    left, inc = values[:-1], np.diff(values)
    u0, du, m = -2.5, 0.04, 150
    levels = u0 + du * np.arange(m)
    out_a = _kernels.BACKENDS["numba"]["signed_increment_sum"](
        left, inc, u0, du, m, np.zeros(m)
    )
    out_b = _kernels.BACKENDS["numpy"]["signed_increment_sum"](
        left, inc, u0, du, m, np.zeros(m)
    )
    np.testing.assert_allclose(out_a, out_b, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(
        out_a, ref_signed_sum(left, inc, levels), rtol=1e-10, atol=1e-10
    )


def test_signed_increment_sum_left_continuous_sign():
    # sign(0) = -1: an increment starting exactly on the level counts negative
    out = _kernels.signed_increment_sum(
        np.array([0.5]), np.array([1.0]), 0.5, 1.0, 1
    )
    assert out[0] == -1.0


@pytest.mark.parametrize("seed", [13, 14])
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_occupation_weights_backends_and_reference(seed, eps):
    values = _sample_values(seed)
    left = values[:-1]
    w = np.diff(values) ** 2
    u0, du, m = -2.5, 0.04, 150
    levels = u0 + du * np.arange(m)
    out_a = _kernels.BACKENDS["numba"]["occupation_weights"](
        left, w, u0, du, m, eps, np.zeros(m)
    )
    out_b = _kernels.BACKENDS["numpy"]["occupation_weights"](
        left, w, u0, du, m, eps, np.zeros(m)
    )
    np.testing.assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        out_a, ref_occupation(left, w, levels, eps), rtol=1e-12, atol=1e-12
    )


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
