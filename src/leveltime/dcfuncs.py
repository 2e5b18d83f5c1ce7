"""Difference-of-convex test functions with explicit curvature measures.

Each :class:`DCFunction` bundles pointwise handles for ``f`` and its left
derivative ``f'`` with a :class:`SecondDerivativeMeasure` describing the
distributional ``f''`` as atoms plus an absolutely continuous density.  A
density always comes with its closed-form antiderivatives ``cdf`` and
``first_moment``, so Taylor-remainder integrals, Tanaka sums and per-cell
masses are evaluated exactly, never by quadrature.

Sign convention: ``sign(0) = -1`` throughout (the left-continuous sign), so
derivative handles are left-continuous at atoms of ``f''``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, _finite, _positive, _refuse_unknown


def left_sign(x):
    """Left-continuous sign: +1 for x > 0, -1 for x <= 0."""
    return np.where(np.asarray(x, np.float64) > 0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# curvature measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondDerivativeMeasure:
    """Signed measure ``f''(du) = density(u) du + sum of weighted atoms``.

    ``cdf`` and ``first_moment`` are antiderivatives of the density and of
    ``u * density(u)`` (any fixed constant of integration).  The three are
    given together or not at all, so interval integrals of piecewise-linear
    weights are always exact.
    """

    density: Optional[Callable] = None
    atoms: tuple = ()
    cdf: Optional[Callable] = None
    first_moment: Optional[Callable] = None

    def __post_init__(self):
        absent = [h is None for h in (self.density, self.cdf, self.first_moment)]
        if any(absent) and not all(absent):
            raise ValueError(
                "density, cdf and first_moment must be given together"
            )
        pairs = {}
        for loc, w in self.atoms:
            loc, w = _finite("atom locations and weights", loc, w)
            pairs[loc] = pairs.get(loc, 0.0) + w
        merged = tuple(
            (loc, w) for loc, w in sorted(pairs.items()) if w != 0.0
        )
        object.__setattr__(self, "atoms", merged)

    def cell_masses(self, grid) -> np.ndarray:
        """Density mass per grid cell (atoms handled separately by callers)."""
        if self.cdf is None:
            return np.zeros(grid.n_levels)
        vals = np.asarray(self.cdf(grid.edges), np.float64)
        return np.diff(vals)

    def bracket_weight_integrals(self, ref, lo, hi) -> np.ndarray:
        """Vectorised ``int_{[lo_i, hi_i)} |ref_i - u| f''(du)``.

        ``ref_i`` must lie at or outside the window endpoints (it is always a
        bracket endpoint in the Tanaka sums), so the weight is linear on each
        window and the closed-form antiderivatives give exact values.
        """
        ref = np.atleast_1d(np.asarray(ref, np.float64))
        lo = np.atleast_1d(np.asarray(lo, np.float64))
        hi = np.atleast_1d(np.asarray(hi, np.float64))
        out = np.zeros(ref.shape, np.float64)
        for loc, w in self.atoms:
            mask = (lo <= loc) & (loc < hi)
            if np.any(mask):
                out[mask] += w * np.abs(ref[mask] - loc)
        if self.density is not None:
            m0 = np.asarray(self.cdf(hi) - self.cdf(lo), np.float64)
            m1 = np.asarray(
                self.first_moment(hi) - self.first_moment(lo), np.float64
            )
            sgn = np.where(ref >= hi, 1.0, -1.0)
            out += np.where(hi > lo, sgn * (ref * m0 - m1), 0.0)
        return out


# ---------------------------------------------------------------------------
# DC functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DCFunction:
    """A difference of convex functions with explicit derivative structure."""

    name: str
    eval_f: Callable
    eval_fprime: Callable
    second_derivative: SecondDerivativeMeasure

    def __call__(self, u):
        return self.eval_f(u)


# ---------------------------------------------------------------------------
# the built-in suite
# ---------------------------------------------------------------------------

def make_abs(center: float = 0.0, scale: float = 1.0) -> DCFunction:
    """f(x) = scale * |x - center|, curvature 2*scale at the kink."""
    c, s = _finite("center", center), _finite("scale", scale)

    def f(x):
        return s * np.abs(np.asarray(x, np.float64) - c)

    def fp(x):
        return s * left_sign(np.asarray(x, np.float64) - c)

    f2 = SecondDerivativeMeasure(atoms=((c, 2.0 * s),))
    label = "abs" if s == 1.0 else f"abs*{s:g}"
    return DCFunction(f"{label}@{c:g}", f, fp, f2)


def make_relu(center: float = 0.0) -> DCFunction:
    """f(x) = (x - center)^+, one unit atom of curvature."""
    c = _finite("center", center)

    def f(x):
        return np.maximum(np.asarray(x, np.float64) - c, 0.0)

    def fp(x):
        return np.where(np.asarray(x, np.float64) > c, 1.0, 0.0)

    f2 = SecondDerivativeMeasure(atoms=((c, 1.0),))
    return DCFunction(f"relu@{c:g}", f, fp, f2)


def make_square() -> DCFunction:
    """f(x) = x^2 / 2, curvature = Lebesgue measure."""

    def f(x):
        x = np.asarray(x, np.float64)
        return 0.5 * x * x

    def fp(x):
        return np.asarray(x, np.float64) + 0.0

    f2 = SecondDerivativeMeasure(
        density=lambda u: np.ones_like(np.asarray(u, np.float64)),
        cdf=lambda u: np.asarray(u, np.float64) + 0.0,
        first_moment=lambda u: 0.5 * np.asarray(u, np.float64) ** 2,
    )
    return DCFunction("square", f, fp, f2)


def _quartic_density(v):
    v = np.asarray(v, np.float64)
    out = np.zeros_like(v)
    m = np.abs(v) < 1.0
    vm = v[m]
    out[m] = (15.0 / 16.0) * (1.0 - vm * vm) ** 2
    return out


def _quartic_cdf(v):
    v = np.asarray(v, np.float64)
    x = np.clip(v, -1.0, 1.0)
    return (15.0 / 16.0) * (x - 2.0 * x**3 / 3.0 + x**5 / 5.0 + 8.0 / 15.0)


def _quartic_first_moment(v):
    v = np.asarray(v, np.float64)
    x = np.clip(v, -1.0, 1.0)
    return (15.0 / 16.0) * (x * x / 2.0 - x**4 / 2.0 + x**6 / 6.0 - 1.0 / 6.0)


def _quartic_ramp(v):
    """Second antiderivative S of the quartic bump with S' = cdf, S(-1) = 0."""
    v = np.asarray(v, np.float64)
    x = np.clip(v, -1.0, 1.0)
    core = (15.0 / 16.0) * (
        x * x / 2.0 - x**4 / 6.0 + x**6 / 30.0 + 8.0 * x / 15.0 + 1.0 / 6.0
    )
    return core + np.maximum(v - 1.0, 0.0)


def make_bump(center: float = 0.0, width: float = 1.0) -> DCFunction:
    """C^2 ramp whose curvature is the quartic bump on [center-width, center+width]."""
    w = _positive("width", width)
    c = _finite("center", center)

    def f(x):
        return w * _quartic_ramp((np.asarray(x, np.float64) - c) / w)

    def fp(x):
        return _quartic_cdf((np.asarray(x, np.float64) - c) / w)

    f2 = SecondDerivativeMeasure(
        density=lambda u: _quartic_density((np.asarray(u, np.float64) - c) / w) / w,
        cdf=lambda u: _quartic_cdf((np.asarray(u, np.float64) - c) / w),
        first_moment=lambda u: c * _quartic_cdf((np.asarray(u, np.float64) - c) / w)
        + w * _quartic_first_moment((np.asarray(u, np.float64) - c) / w),
    )
    return DCFunction(f"bump@{c:g}w{w:g}", f, fp, f2)


_MIX_ATOMS = ((-0.5, 0.7), (0.25, 0.4), (1.0, -0.2))
_MIX_UNIFORM = 0.3
_MIX_BUMP = 0.5


def _uniform_cdf(v):
    return np.clip(np.asarray(v, np.float64), -1.0, 1.0) + 1.0


def _uniform_first_moment(v):
    x = np.clip(np.asarray(v, np.float64), -1.0, 1.0)
    return 0.5 * (x * x - 1.0)


def _uniform_ramp(v):
    v = np.asarray(v, np.float64)
    x = np.clip(v, -1.0, 1.0)
    return 0.5 * (x + 1.0) ** 2 + 2.0 * np.maximum(v - 1.0, 0.0)


def make_mix(
    atoms=_MIX_ATOMS, uniform_weight=_MIX_UNIFORM, bump_weight=_MIX_BUMP
) -> DCFunction:
    """Kinked mixture: signed atoms plus a uniform + quartic density on [-1, 1].

    The negative atom weight makes this a genuine difference of convex
    functions rather than a convex one.
    """
    atoms = tuple(_finite("atom locations and weights", loc, w) for loc, w in atoms)
    cu, cb = _finite("mix weights", uniform_weight, bump_weight)

    def f(x):
        x = np.asarray(x, np.float64)
        out = cu * _uniform_ramp(x) + cb * _quartic_ramp(x)
        for loc, w in atoms:
            out = out + 0.5 * w * np.abs(x - loc)
        return out

    def fp(x):
        x = np.asarray(x, np.float64)
        out = cu * _uniform_cdf(x) + cb * _quartic_cdf(x)
        for loc, w in atoms:
            out = out + 0.5 * w * left_sign(x - loc)
        return out

    density = dict(
        density=lambda u: cu
        * ((np.abs(np.asarray(u, np.float64)) <= 1.0) * 1.0)
        + cb * _quartic_density(u),
        cdf=lambda u: cu * _uniform_cdf(u) + cb * _quartic_cdf(u),
        first_moment=lambda u: cu * _uniform_first_moment(u)
        + cb * _quartic_first_moment(u),
    ) if cu or cb else {}  # no density where it would be zero
    f2 = SecondDerivativeMeasure(atoms=atoms, **density)
    return DCFunction("mix", f, fp, f2)


def builtin_suite():
    """The canonical test suite: two pure-atom kinks, a smooth quadratic,
    a compact C^2 bump, and a signed atom+density mixture."""
    return [
        make_abs(0.0, 0.5),
        make_relu(0.25),
        make_square(),
        make_bump(0.0, 1.0),
        make_mix(),
    ]


_DESCRIPTOR_KINDS = {
    "abs": make_abs, "relu": make_relu, "square": make_square,
    "bump": make_bump, "mix": make_mix,
}


def dc_function_from_descriptor(obj) -> DCFunction:
    """Build a DCFunction from a JSON-style mapping ({"kind": ..., params}).

    Each kind takes the keyword arguments of its ``make_*`` builder and
    refuses any other field.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("function descriptor must be a mapping with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_KINDS:
        raise ConfigError(f"unknown function kind {kind!r}")
    build = _DESCRIPTOR_KINDS[kind]
    fields = {k: v for k, v in obj.items() if k != "kind"}
    _refuse_unknown(fields, inspect.signature(build).parameters, "function fields")
    try:
        return build(**fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad function descriptor: {exc}") from exc
