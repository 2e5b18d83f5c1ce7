"""Variant equivalence and brute-force oracles for the array kernels.

Each kernel is bound at import to one implementation, but the loop variants
stay reachable under their private names.  These tests run every variant of
a kernel on the same input: the uncompiled loop, its array form where there
is one, and with numba the compiled loop.  Each is compared with the others
and with an independent reference loop written here, so a regression in any
variant shows up as a disagreement on every machine.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltime import _kernels
from leveltime._kernels import HAS_NUMBA
from leveltime.lab import GeneratorSpec, generate


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


def ref_clamps(p0, lo, hi):
    """The states of ``p = min(max(p, lo_i), hi_i)``, one map at a time."""
    out = [p0]
    for low, high in zip(lo.tolist(), hi.tolist()):
        out.append(min(max(out[-1], low), high))
    return np.array(out, lo.dtype)


def ref_steps(x, v, half, toward):
    """The loop's ``while``: step ``v`` by ``np.nextafter`` toward
    ``toward`` until it is within ``half`` of ``x``, one value at a time."""
    out = np.array(v, np.float64)
    for i in range(out.size):
        while (x[i] - out[i] if toward > 0 else out[i] - x[i]) > half:
            out[i] = np.nextafter(out[i], toward)
    return out


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

PLAYS = variants(
    _kernels._play_operator_loop, _kernels._play_operator_np, _kernels._play_operator
)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_plays_agree(values, eps):
    """Every play-operator variant gives the loop's ``reg`` and ``dev``,
    bit for bit."""
    reg, dev = _kernels._play_operator_loop(values, eps)
    for kernel in PLAYS[1:]:
        r, d = kernel(values, eps)
        assert_bitwise(r, reg)
        assert_bitwise(d, dev)
    return reg, dev


BLOCK = _kernels._BLOCK
SCAN_SIZES = [
    0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 3, BLOCK**2 + 1, 2**14 + 1
]


def _clamp_maps(n, dtype, rng):
    """``n`` clamps ``[lo, hi]`` with ``lo <= hi``, many ties between maps
    and some constant maps (``lo == hi``)."""
    lo = rng.integers(-20, 20, n)
    hi = lo + rng.integers(0, 8, n)
    if dtype == np.float64:
        return lo / 4.0, hi / 4.0
    return lo, hi


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("n", SCAN_SIZES)
def test_clamp_scan_is_the_sequential_recursion(n, dtype):
    # whole blocks, partial last blocks and the recursion over block ends;
    # floats compare with ==, as the scan leaves signed zeros to the play
    # operator's check
    lo, hi = _clamp_maps(n, dtype, np.random.default_rng(n))
    p0 = dtype(3)
    got = _kernels._clamp_scan(p0, lo, hi)
    assert got.dtype == dtype and got.shape == (n + 1,)
    np.testing.assert_array_equal(got, ref_clamps(p0, lo, hi))


@given(
    st.integers(-30, 30),
    st.lists(
        st.tuples(st.integers(-25, 25), st.integers(0, 10)), max_size=4 * BLOCK + 3
    ),
    st.sampled_from([np.float64, np.int64]),
)
@settings(max_examples=200, deadline=None)
def test_clamp_scan_matches_the_recursion_on_any_clamps(p0, maps, dtype):
    lo = np.array([m[0] for m in maps], dtype)
    hi = np.array([m[0] + m[1] for m in maps], dtype)
    np.testing.assert_array_equal(
        _kernels._clamp_scan(dtype(p0), lo, hi), ref_clamps(dtype(p0), lo, hi)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", [1.0, 0.25, 0.01])
def test_play_operator_backends_bitwise_equal(seed, eps):
    values = _sample_values(seed)
    reg, dev = _kernels.play_operator(values, eps)
    for kernel in PLAYS:
        r, d = kernel(values, eps)
        assert np.array_equal(r, reg)
        assert np.array_equal(d, dev)
    # the band holds exactly after the ulp nudges, and a stall copies the
    # previous regularised value bit for bit
    assert np.all(np.abs(values - reg) <= 0.5 * eps)
    stall = np.abs(dev[1:]) < 0.5 * eps
    assert np.array_equal(reg[1:][stall], reg[:-1][stall])


def test_play_operator_ulp_nudges():
    # a one-ulp rise and fall against a band narrower than one ulp: both
    # moves round back onto the previous value and must be nudged by an ulp
    up = np.nextafter(1.0, 2.0)
    values = np.array([1.0, up, 1.0])
    eps = 2.4e-16
    for kernel in PLAYS:
        reg, dev = kernel(values, eps)
        assert np.all(np.abs(values - reg) <= 0.5 * eps)
        assert list(reg) == [1.0, up, 1.0]
        assert list(dev) == [0.0, 0.5 * eps, -0.5 * eps]


def test_play_operator_scan_falls_back_where_the_loop_stalls(monkeypatch):
    # x1 - 5e-18 rounds onto half = 0.05, so the loop stalls at 5e-18; the
    # clamp would move to the first float within half of x1, 6.9e-18
    values = np.array([5e-18, np.nextafter(0.05, 1.0), 0.02])
    reg, dev = assert_plays_agree(values, 0.1)
    assert list(reg) == [5e-18] * 3
    calls = []
    loop = _kernels._play_operator_loop

    def counted(values, eps):
        calls.append(values.size)
        return loop(values, eps)

    monkeypatch.setattr(_kernels, "_play_operator_loop", counted)
    r, d = _kernels._play_operator_np(values, 0.1)
    assert calls == [3]
    assert_bitwise(r, reg)
    assert_bitwise(d, dev)
    # a walk the scan gets right never runs the loop
    _kernels._play_operator_np(_sample_values(0), 0.25)
    assert calls == [3]


@given(
    st.sampled_from([0.0, 1.0, 1e3]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=60),
    st.integers(0, 6),
)
@settings(max_examples=300, deadline=None)
def test_play_operator_variants_agree_on_ulp_walks(centre, steps, width):
    # walks of a few ulps around the centre against bands a few ulps wide,
    # so moves, ulp nudges, stalls and (around 0) signed zeros all occur
    values = np.empty(len(steps))
    v = centre
    for i, k in enumerate(steps):
        for _ in range(abs(k)):
            v = np.nextafter(v, np.inf if k > 0 else -np.inf)
        values[i] = v
    assert_plays_agree(values, width * np.spacing(centre))


@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01])
def test_play_operator_variants_agree_on_lab_size_brownian_paths(eps):
    # the band_map workload's path length and eps ladder
    rng = np.random.default_rng(51)
    for _ in range(2):
        values = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 2**-7, 2**14))])
        assert_plays_agree(values, eps)


def _outside(x, half, toward, extra):
    """The play operator's first guess ``x -/+ half``, then ``extra[i]``
    more ulps away from ``x``, so that ``_step_inside`` takes that many
    steps or more."""
    v = x - half if toward > 0 else x + half
    for i, k in enumerate(extra):
        for _ in range(k):
            v[i] = np.nextafter(v[i], -toward)
    return v


def assert_steps_match(x, half, extra):
    """``_step_inside`` in both directions, bit for bit as ``np.nextafter``
    steps one value at a time."""
    x = np.asarray(x, np.float64)
    for toward in (np.inf, -np.inf):
        v = _outside(x, half, toward, extra)
        want = ref_steps(x, v, half, toward)
        got = _kernels._step_inside(x, v.copy(), half, toward)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


TINY = 5e-324  # the least subnormal
STEP_VALUES = [
    0.0, -0.0, TINY, -TINY, 2 * TINY, -2 * TINY, 3 * TINY, 1e-310, -1e-310,
    2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0,
    np.nextafter(1.0, 2.0), 1e300, -1e300, np.nextafter(1e300, np.inf),
    1.7e308, -1.7e308,
]


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "half", [0.0, TINY, 3 * TINY, 1e-310, 1e-300, 1.1e-16, 0.25, 1e284]
)
def test_step_inside_is_nextafter_bitwise(half, extra):
    # signed zeros, subnormals, magnitudes near 1e300 and bands from zero
    # width up; with extra ulps outside, values step toward and across zero
    # (a step from one zero skips the other) and take two or more steps
    assert_steps_match(STEP_VALUES, half, [extra] * len(STEP_VALUES))


@pytest.mark.parametrize("toward", [np.inf, -np.inf])
def test_step_inside_steps_across_zero(toward):
    # upward from -0.0 the next float is +TINY and downward from +0.0 it is
    # -TINY, where a step of the bits as an integer would give a NaN; the
    # walks from -/+TINY and -/+2 TINY cross both zeros
    s = 1.0 if toward > 0 else -1.0
    x = s * np.array([TINY, 2 * TINY, TINY, 2 * TINY])
    v = -s * np.array([0.0, 0.0, TINY, 2 * TINY])
    want = ref_steps(x, v, 0.0, toward)
    assert want.tolist() == x.tolist()
    assert_bitwise(_kernels._step_inside(x, v.copy(), 0.0, toward), want)


@given(
    st.lists(
        st.tuples(
            st.floats(-1e307, 1e307, allow_subnormal=True)
            | st.sampled_from([0.0, -0.0, TINY, -TINY, 2 * TINY]),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([0.0, TINY, 2 * TINY, 1e-310, 1e-300, 1e-16, 0.5, 1e300])
    | st.floats(0.0, 1e300, allow_subnormal=True),
)
@settings(max_examples=300, deadline=None)
def test_step_inside_is_nextafter_on_any_floats(cases, half):
    assert_steps_match([c[0] for c in cases], half, [c[1] for c in cases])


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


def _clamp_case(case):
    """``(values, u0, du, m)``: a 2^14-sample path of check 7's
    jump-diffusion generator on its 0.025 grid, a walk of half grid steps
    held for up to 40 samples at a time, or one or two samples."""
    if case == "jump-diffusion":
        spec = GeneratorSpec(
            kind="jump_diffusion", steps_per_unit=2**14, seed=0, jump_rate=5.0
        )
        values = generate(spec).values
        u0 = values.min() - 0.5
        return values, u0, 0.025, int((values.max() + 0.5 - u0) / 0.025) + 1
    if case == "flat":
        rng = np.random.default_rng(41)
        steps = rng.choice([-1, 0, 1], 600) * 0.0125  # half a grid step
        held = np.repeat(np.cumsum(steps), rng.integers(1, 41, steps.size))
        return held, -0.5, 0.025, 41
    return np.array([0.3, -0.2][: int(case)]), -0.5, 0.025, 41


@pytest.mark.parametrize("strict", [False, True], ids=["non-strict", "strict"])
@pytest.mark.parametrize(
    "case,eps",
    [("jump-diffusion", w) for w in (0.4, 0.2, 0.1, 0.05, 0.025)]
    + [("flat", 0.025), ("flat", 0.1), ("1", 0.1), ("2", 0.1)],
)
def test_crossing_clamps_match_the_loop_bitwise(case, eps, strict):
    # long flat stretches repeat one (arm, last) pair many times over
    values, u0, du, m = _clamp_case(case)
    want = _kernels._crossing_counts(
        _kernels._crossing_clamp_loop, values, u0, du, m, eps, strict
    )
    assert sum(int(c.sum()) for c in want) > 0 or values.size < 3
    for clamp in CLAMPS[1:]:
        got = _kernels._crossing_counts(clamp, values, u0, du, m, eps, strict)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("strict", [False, True], ids=["non-strict", "strict"])
@pytest.mark.parametrize("du,drops", [(0.001, False), (0.05, True)],
                         ids=["fine", "coarse"])
def test_crossing_clamps_drop_repeats_only_where_many_repeat(
    monkeypatch, du, drops, strict
):
    # a 2^14-step Brownian path moves about 0.008 a step: on a 0.001 grid
    # few samples repeat the previous clamp and the scan takes every sample;
    # on a 0.05 grid most repeat and are dropped before it
    values = generate(GeneratorSpec(kind="brownian", steps_per_unit=2**14, seed=3)).values
    u0 = values.min() - 0.1
    m = int((values.max() + 0.1 - u0) / du) + 1
    want = _kernels._crossing_counts(
        _kernels._crossing_clamp_loop, values, u0, du, m, 2 * du, strict
    )
    scanned = []
    scan = _kernels._clamp_scan

    def counted(p0, lo, hi):  # the outer call of each direction only
        scanned.append(lo.size)
        monkeypatch.setattr(_kernels, "_clamp_scan", scan)
        try:
            return scan(p0, lo, hi)
        finally:
            monkeypatch.setattr(_kernels, "_clamp_scan", counted)

    monkeypatch.setattr(_kernels, "_clamp_scan", counted)
    got = _kernels._crossing_counts(
        _kernels._crossing_clamp_np, values, u0, du, m, 2 * du, strict
    )
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert len(scanned) == 2
    if drops:
        assert all(k < values.size // 2 for k in scanned)
    else:
        assert scanned == [values.size] * 2


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


def step_table(left, inc, marked=None):
    if marked is None:
        marked = np.zeros(left.size, bool)
    return _kernels._step_table(left, inc, marked)


def signed_sum(left, inc, u0, du, m):
    """The signed increment sum read from the step table of ``left`` and
    ``inc``."""
    ranked, prefix = step_table(left, inc)
    return _kernels.signed_increment_sum(ranked, prefix[0], u0, du, m)


def occupation(left, inc, u0, du, m, eps, marked=None):
    """The occupation weights of the squared unmarked ``inc``, read from
    their step table."""
    ranked, prefix = step_table(left, inc, marked)
    return _kernels.occupation_weights(ranked, prefix[1], u0, du, m, eps)


@pytest.mark.parametrize("case", [11, 12] + _snapped((19,), _TIE_GRIDS))
def test_signed_increment_sum_backends_and_reference(case):
    values, u0, du, m = _field_case(case)
    left, inc = values[:-1], np.diff(values)
    out = signed_sum(left, inc, u0, du, m)
    np.testing.assert_allclose(
        out,
        ref_signed_sum(left, inc, u0 + du * np.arange(m)),
        rtol=1e-10,
        atol=1e-10,
    )


def test_signed_increment_sum_left_continuous_sign():
    # sign(0) = -1: an increment starting exactly on the level counts negative
    out = signed_sum(np.array([0.5]), np.array([1.0]), 0.5, 1.0, 1)
    assert out[0] == -1.0


def stable_signed_sum(left, inc, u0, du, m):
    """The signed increment sum as a prefix sum in stable-sort order."""
    order = np.argsort(left, kind="stable")
    cs = np.cumsum(inc[order])
    cnt = np.searchsorted(left[order], u0 + du * np.arange(m), side="right")
    out = np.zeros(m)
    out += cs[-1] - 2.0 * np.where(cnt > 0, cs[np.maximum(cnt - 1, 0)], 0.0)
    return out


@pytest.mark.parametrize("kind", ["walk", "snapped", "repeated", "signed-zeros"])
def test_signed_increment_sum_is_the_stable_sort_form_bitwise(kind):
    # 2,000 keys, so that the default sort does reorder equal keys
    rng = np.random.default_rng(23)
    u0, du, m = -2.5, 0.04, 150
    if kind == "walk":
        left = _sample_values(23, n=2000)
    elif kind == "snapped":
        left = _grid_snapped_values(23, u0, du, m, du, n=2000)
    elif kind == "repeated":
        left = np.repeat(_sample_values(23, n=400), 5)
    else:
        # -0.0 next to 0.0 on a grid with a level at 0
        u0, du, m = -1.0, 0.25, 9
        left = rng.choice([-0.0, 0.0, 0.5, -0.75], 2000)
    inc = rng.standard_normal(left.size)
    # the walk has no ties and takes the default sort; the others fall back
    assert (np.unique(left).size < left.size) == (kind != "walk")
    assert_bitwise(
        signed_sum(left, inc, u0, du, m), stable_signed_sum(left, inc, u0, du, m)
    )


def _hopping_values(seed, u0, du, m, n=400):
    # a quarter step above a level, hopping one to three levels at a time
    # inside the grid, so every bracket and every band holds a level
    rng = np.random.default_rng(seed)
    k = 2 + np.cumsum(rng.choice([-3, -2, -1, 1, 2, 3], n)) % (m - 5)
    return u0 + (k + 0.25) * du


FIELDS = {
    "point": (
        _kernels._level_ranges,
        variants(_kernels._point_sums_loop, _kernels._point_sums_np, _kernels._point_sums),
    ),
    "cell": (
        _kernels._cell_ranges,
        variants(_kernels._cell_sums_loop, _kernels._cell_sums_np, _kernels._cell_sums),
    ),
}


@pytest.mark.parametrize("field", ["point", "cell"])
@pytest.mark.parametrize("drop", [False, True], ids=["keep-all", "drop-some"])
def test_interval_fields_match_the_gathered_brackets_bitwise(field, drop):
    u0, du, m = -1.0, 0.05, 40
    values = _hopping_values(31, u0, du, m)
    if drop:
        # an a == b bracket, then one that leaves the grid and one beyond it
        tail = u0 + du * np.array([m + 3.0, m + 5.0])
        values = np.concatenate([values, values[-1:], tail])
    a, b = values[:-1], values[1:]
    ranges, impls = FIELDS[field]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    kf, kl = ranges(lo, hi, u0, du, m)
    j = np.flatnonzero((kf <= kl) & (a != b))
    assert (j.size < a.size) == drop
    for accumulate in impls:
        got = _kernels._interval_field(ranges, accumulate, a, b, u0, du, m, np.zeros(m))
        kept = (b[j], lo[j], hi[j], kf[j], kl[j])
        assert_bitwise(got, accumulate(*kept, u0, du, m, np.zeros(m)))


def prefix_sum_gather(left, inc, marked, u0, du, m, eps):
    """The occupation weights gathered explicitly: per level, the bands
    ``left - eps <= u <= left + eps`` that hold it, found one by one, form
    one run ``[lo, hi)`` of the stable sort's order, and the weight is
    ``prefix[hi] - prefix[lo]`` on the prefix sums, from a leading 0, of
    the squared unmarked increments in that order."""
    order = np.argsort(left, kind="stable")
    w = np.where(marked, 0.0, inc * inc)[order]
    prefix = np.cumsum(np.concatenate([[0.0], w]))
    out = np.empty(m)
    for k, u in enumerate(u0 + du * np.arange(m)):
        held = np.flatnonzero(((left - eps <= u) & (u <= left + eps))[order])
        lo, hi = (held[0], held[-1] + 1) if held.size else (0, 0)
        assert held.size == hi - lo
        out[k] = prefix[hi] - prefix[lo]
    return out


def _occupation_case(case):
    """``(left, inc, u0, du, m)`` of a field case, or of a walk hopping
    between levels with (``"drop"``) or without bands off both ends of
    the grid."""
    if case in ("keep", "drop"):
        u0, du, m = -1.0, 0.05, 40
        values = _hopping_values(32, u0, du, m)
        if case == "drop":
            values = np.concatenate([values, [u0 - 1.0, u0 + (m + 4) * du, 0.0]])
    else:
        values, u0, du, m = _field_case(case)
    return values[:-1], np.diff(values), u0, du, m


# with eps 0.3 and 0.05 these grids put band half-widths of du/6, du/2, du,
# 3 du and 6 du, so band ends land on levels too
OCCUPATION_CASES = ["keep", "drop", 13, 14] + _snapped(
    (17, 18), ((-2.5, 0.05), (0.0, 0.1), (1e3, 0.3))
)


@pytest.mark.parametrize("case", OCCUPATION_CASES)
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_occupation_weights_are_the_prefix_sum_gather_bitwise(case, eps):
    left, inc, u0, du, m = _occupation_case(case)
    marked = np.random.default_rng(len(left)).random(left.size) < 0.1
    ranked, prefix = step_table(left, inc, marked)
    order = np.argsort(left, kind="stable")
    assert_bitwise(ranked, left[order])
    assert_bitwise(prefix[0], np.cumsum(np.concatenate([[0.0], inc[order]])))
    got = _kernels.occupation_weights(ranked, prefix[1], u0, du, m, eps)
    assert_bitwise(got, prefix_sum_gather(left, inc, marked, u0, du, m, eps))


@pytest.mark.parametrize("case", OCCUPATION_CASES)
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_occupation_weights_match_the_reference(case, eps):
    left, inc, u0, du, m = _occupation_case(case)
    np.testing.assert_allclose(
        occupation(left, inc, u0, du, m, eps),
        ref_occupation(left, inc**2, u0 + du * np.arange(m), eps),
        rtol=1e-12,
        atol=1e-12,
    )


_GRID_SIZE = 40


@st.composite
def _grid_probes(draw):
    # values on the grid points, on their float neighbours, between them and
    # beyond both ends of a grid with |u0| / du up to 1e10, shifted as the
    # crossing counts' band edges u_k -/+ eps/2 are
    u0 = draw(st.floats(-1e4, 1e4, allow_nan=False))
    du = draw(st.floats(1e-6, 10.0))
    off = draw(st.sampled_from([0.0, -0.5]))
    half = 0.5 * draw(st.floats(0.0, 10.0))
    shift = draw(st.sampled_from([0.0, 0.5 * du, -0.5 * du, half, -half]))
    grid = (u0 + (np.arange(_GRID_SIZE) + off) * du) + shift
    ks = draw(st.lists(st.integers(-3, _GRID_SIZE + 2), min_size=1, max_size=30))
    moves = draw(st.lists(st.sampled_from(["on", "up", "down", "mid"]), min_size=len(ks), max_size=len(ks)))
    x = []
    for k, move in zip(ks, moves):
        v = (u0 + (k + off) * du) + shift
        if move == "up":
            v = np.nextafter(v, np.inf)
        elif move == "down":
            v = np.nextafter(v, -np.inf)
        elif move == "mid":
            v = v + 0.5 * du
        x.append(v)
    return u0, du, off, shift, grid, np.array(x)


@given(_grid_probes(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_rank_is_searchsorted_on_the_materialised_grid(probe, right):
    u0, du, off, shift, grid, x = probe
    got = _kernels._rank(x, u0, du, right, off, shift)
    want = np.searchsorted(grid, x, "right" if right else "left")
    np.testing.assert_array_equal(np.minimum(got, grid.size), want)
    for v, expect in zip(x, got):
        assert _kernels._rank(v, u0, du, right, off, shift) == expect


def test_kernels_empty_and_degenerate_inputs():
    empty = np.empty(0)
    assert _kernels.interval_field_point(empty, empty, 0.0, 0.1, 4).sum() == 0.0
    assert _kernels.interval_field_cell(empty, empty, 0.0, 0.1, 4).sum() == 0.0
    assert signed_sum(empty, empty, 0.0, 0.1, 4).sum() == 0.0
    assert occupation(empty, empty, 0.0, 0.1, 4, 0.2).sum() == 0.0
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


def test_public_functions_are_the_six_kernels_and_warmup():
    # perfbench's tracer wraps each public function of the module and looks
    # up its cell count in KERNEL_CELLS by name: a traced run fails on a
    # public helper that table does not know
    public = {
        name for name, obj in vars(_kernels).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == _kernels.__name__
    }
    assert public == {
        "play_operator", "crossing_counts", "interval_field_point",
        "interval_field_cell", "signed_increment_sum", "occupation_weights",
        "warmup",
    }
