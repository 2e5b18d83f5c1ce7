"""Difference-of-convex test functions with explicit curvature measures.

Each :class:`DCFunction` bundles pointwise handles for ``f`` and its left
derivative ``f'`` with a :class:`SecondDerivativeMeasure` describing the
distributional ``f''`` as atoms plus an absolutely continuous density.  The
built-in suite keeps closed-form antiderivatives of the density (``cdf`` and
``first_moment``), which lets Taylor-remainder integrals and Tanaka sums be
evaluated exactly instead of through grid quadrature.

Sign convention: ``sign(0) = -1`` throughout (the left-continuous sign), so
derivative handles are left-continuous at atoms of ``f''``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def left_sign(x):
    """Left-continuous sign: +1 for x > 0, -1 for x <= 0."""
    return np.where(np.asarray(x, np.float64) > 0, 1.0, -1.0)


def gauss_integrate(func, lo, hi, breaks=(), panels=1):
    """Composite 16-point Gauss-Legendre integral of ``func`` on [lo, hi].

    ``breaks`` lists interior points where the integrand may lose smoothness;
    each smooth piece is split into ``panels`` equal panels.  Exact for
    piecewise polynomials of degree up to 31.
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        return 0.0
    cuts = [lo, hi]
    for b in breaks:
        b = float(b)
        if lo < b < hi:
            cuts.append(b)
    cuts = np.unique(np.array(cuts, np.float64))
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(left, right, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * np.diff(edges)
        pts = mids[:, None] + halfs[:, None] * _GL_NODES[None, :]
        vals = np.asarray(func(pts.ravel()), np.float64).reshape(pts.shape)
        total += float((halfs[:, None] * _GL_WEIGHTS[None, :] * vals).sum())
    return total


# ---------------------------------------------------------------------------
# curvature measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondDerivativeMeasure:
    """Signed measure ``f''(du) = density(u) du + sum of weighted atoms``.

    ``cdf`` and ``first_moment`` are antiderivatives of the density and of
    ``u * density(u)`` (any fixed constant of integration); when present they
    make interval integrals of piecewise-linear weights exact.
    ``breakpoints`` are density kink locations used to split quadrature.
    """

    density: Optional[Callable] = None
    atoms: tuple = ()
    support: tuple = (-np.inf, np.inf)
    cdf: Optional[Callable] = None
    first_moment: Optional[Callable] = None
    breakpoints: tuple = ()

    def __post_init__(self):
        pairs = {}
        for loc, w in self.atoms:
            loc = float(loc)
            w = float(w)
            if not (np.isfinite(loc) and np.isfinite(w)):
                raise ValueError("atom locations and weights must be finite")
            pairs[loc] = pairs.get(loc, 0.0) + w
        merged = tuple(
            (loc, w) for loc, w in sorted(pairs.items()) if w != 0.0
        )
        object.__setattr__(self, "atoms", merged)
        lo, hi = self.support
        if not lo < hi:
            raise ValueError("support must be a nonempty interval")
        object.__setattr__(self, "support", (float(lo), float(hi)))
        object.__setattr__(
            self, "breakpoints", tuple(float(b) for b in self.breakpoints)
        )

    @property
    def atom_locations(self) -> np.ndarray:
        return np.array([loc for loc, _ in self.atoms])

    @property
    def atom_weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def is_absolutely_continuous(self) -> bool:
        return len(self.atoms) == 0

    def _density_breaks(self):
        lo, hi = self.support
        breaks = list(self.breakpoints)
        if np.isfinite(lo):
            breaks.append(lo)
        if np.isfinite(hi):
            breaks.append(hi)
        return breaks

    def density_mass(self, lo: float, hi: float) -> float:
        """Density mass of [lo, hi] (atoms excluded)."""
        if hi <= lo:
            return 0.0
        if self.cdf is not None:
            return float(self.cdf(hi) - self.cdf(lo))
        if self.density is None:
            return 0.0
        slo, shi = self.support
        lo = max(lo, slo)
        hi = min(hi, shi)
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise ValueError(
                "cannot integrate an unbounded density without a cdf"
            )
        return gauss_integrate(self.density, lo, hi, self._density_breaks(), 4)

    def mass(self, lo: float, hi: float) -> float:
        """Total measure of the half-open window [lo, hi)."""
        out = self.density_mass(lo, hi)
        for loc, w in self.atoms:
            if lo <= loc < hi:
                out += w
        return out

    def cell_masses(self, grid) -> np.ndarray:
        """Density mass per grid cell (atoms handled separately by callers)."""
        edges = grid.edges
        if self.cdf is not None:
            vals = np.asarray(self.cdf(edges), np.float64)
            return np.diff(vals)
        if self.density is None:
            return np.zeros(grid.n_levels)
        out = np.zeros(grid.n_levels)
        slo, shi = self.support
        for k in range(grid.n_levels):
            lo = max(float(edges[k]), slo)
            hi = min(float(edges[k + 1]), shi)
            if lo < hi:
                out[k] = gauss_integrate(
                    self.density, lo, hi, self._density_breaks(), 1
                )
        return out

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
            if self.cdf is not None and self.first_moment is not None:
                m0 = np.asarray(self.cdf(hi) - self.cdf(lo), np.float64)
                m1 = np.asarray(
                    self.first_moment(hi) - self.first_moment(lo), np.float64
                )
                sgn = np.where(ref >= hi, 1.0, -1.0)
                out += np.where(hi > lo, sgn * (ref * m0 - m1), 0.0)
            else:
                breaks = self._density_breaks()
                slo, shi = self.support
                for i in range(ref.size):
                    a = max(float(lo[i]), slo)
                    b = min(float(hi[i]), shi)
                    if a < b:
                        r = float(ref[i])
                        out[i] += gauss_integrate(
                            lambda u: np.abs(r - u) * self.density(u),
                            a,
                            b,
                            breaks,
                            4,
                        )
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

    def derivative(self, u):
        """Left derivative of f (left-continuous at curvature atoms)."""
        return self.eval_fprime(u)

    @property
    def is_smooth(self) -> bool:
        return self.second_derivative.is_absolutely_continuous


def jf_increment(f: DCFunction, a: float, b: float) -> float:
    """Taylor remainder J^f(a, b) = f(a) - f(b) - f'(b)(a - b)."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    return float(f.eval_f(a) - f.eval_f(b) - f.eval_fprime(b) * (a - b))


def jf_measure_side(f: DCFunction, a: float, b: float) -> float:
    """Curvature-side value of the same remainder.

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


def integrate_against_f2(
    g,
    f: DCFunction,
    window,
    grid=None,
    atom_policy: str = "error",
    g_breaks=(),
) -> float:
    """Integral of ``g`` against the curvature measure on [window[0], window[1]).

    ``g`` is either a callable or an array sampled on ``grid`` levels (cell
    convention).  Atom terms for grid-sampled ``g`` use the nearest level to
    the left (:meth:`LevelGrid.atom_index`); ``atom_policy`` says what to do
    when an atom has none on the grid: ``"error"`` raises, ``"extend"``
    clamps to the edge level, ``"skip"`` drops the atom.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        return 0.0
    f2 = f.second_derivative
    if atom_policy not in ("error", "extend", "skip"):
        raise ValueError(f"unknown atom_policy {atom_policy!r}")

    if callable(g):
        total = 0.0
        for loc, w in f2.atoms:
            if lo <= loc < hi:
                total += w * float(np.asarray(g(np.array([loc])))[0])
        if f2.density is not None:
            slo, shi = f2.support
            a = max(lo, slo)
            b = min(hi, shi)
            if a < b:
                if not (np.isfinite(a) and np.isfinite(b)):
                    raise ValueError(
                        "unbounded window over an unbounded density"
                    )
                breaks = list(f2._density_breaks()) + list(g_breaks)
                total += gauss_integrate(
                    lambda u: np.asarray(g(u), np.float64) * f2.density(u),
                    a,
                    b,
                    breaks,
                    4,
                )
        return float(total)

    g = np.asarray(g, np.float64)
    if grid is None:
        raise ValueError("grid-sampled g requires the grid")
    if g.shape != (grid.n_levels,):
        raise ValueError("g must have one value per grid level")
    total = 0.0
    for loc, w in f2.atoms:
        if not lo <= loc < hi:
            continue
        try:
            k = grid.atom_index(loc)
        except ValueError:
            if atom_policy == "error":
                raise
            if atom_policy == "skip":
                continue
            k = 0 if loc < grid.u0 else grid.n_levels - 1
        total += w * g[k]
    if f2.density is not None:
        masses = f2.cell_masses(grid)
        edges = grid.edges
        inside = (edges[1:] > lo) & (edges[:-1] < hi)
        full = inside & (edges[:-1] >= lo) & (edges[1:] <= hi)
        total += float((g[full] * masses[full]).sum())
        for k in np.flatnonzero(inside & ~full):
            a = max(float(edges[k]), lo)
            b = min(float(edges[k + 1]), hi)
            total += g[k] * f2.density_mass(a, b)
    return float(total)


# ---------------------------------------------------------------------------
# the built-in suite
# ---------------------------------------------------------------------------

def make_abs(center: float = 0.0, scale: float = 1.0) -> DCFunction:
    """f(x) = scale * |x - center|, curvature 2*scale at the kink."""
    c = float(center)
    s = float(scale)

    def f(x):
        return s * np.abs(np.asarray(x, np.float64) - c)

    def fp(x):
        return s * left_sign(np.asarray(x, np.float64) - c)

    f2 = SecondDerivativeMeasure(atoms=((c, 2.0 * s),))
    label = "abs" if s == 1.0 else f"abs*{s:g}"
    return DCFunction(f"{label}@{c:g}", f, fp, f2)


def make_relu(center: float = 0.0) -> DCFunction:
    """f(x) = (x - center)^+, one unit atom of curvature."""
    c = float(center)

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
        support=(-np.inf, np.inf),
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
    c = float(center)
    w = float(width)
    if w <= 0:
        raise ValueError("width must be positive")

    def f(x):
        return w * _quartic_ramp((np.asarray(x, np.float64) - c) / w)

    def fp(x):
        return _quartic_cdf((np.asarray(x, np.float64) - c) / w)

    f2 = SecondDerivativeMeasure(
        density=lambda u: _quartic_density((np.asarray(u, np.float64) - c) / w) / w,
        support=(c - w, c + w),
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
    atoms = tuple((float(loc), float(w)) for loc, w in atoms)
    cu = float(uniform_weight)
    cb = float(bump_weight)

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

    f2 = SecondDerivativeMeasure(
        density=lambda u: cu
        * ((np.abs(np.asarray(u, np.float64)) <= 1.0) * 1.0)
        + cb * _quartic_density(u),
        atoms=atoms,
        support=(-1.0, 1.0),
        cdf=lambda u: cu * _uniform_cdf(u) + cb * _quartic_cdf(u),
        first_moment=lambda u: cu * _uniform_first_moment(u)
        + cb * _quartic_first_moment(u),
    )
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


def dc_function_from_descriptor(obj) -> DCFunction:
    """Build a DCFunction from a JSON-style mapping ({"kind": ..., params})."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("function descriptor must be a mapping with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "abs":
            return make_abs(obj.get("center", 0.0), obj.get("scale", 1.0))
        if kind == "relu":
            return make_relu(obj.get("center", 0.0))
        if kind == "square":
            return make_square()
        if kind == "bump":
            return make_bump(obj.get("center", 0.0), obj.get("width", 1.0))
        if kind == "mix":
            return make_mix(
                obj.get("atoms", _MIX_ATOMS),
                obj.get("uniform_weight", _MIX_UNIFORM),
                obj.get("bump_weight", _MIX_BUMP),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad function descriptor: {exc}") from exc
    raise ConfigError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mollifier:
    """Nonnegative smooth bump with unit integral on a compact support."""

    profile: Callable
    support: tuple
    one_sided: bool = False
    name: str = "mollifier"

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError("mollifier support must be a nonempty interval")
        object.__setattr__(self, "support", (float(lo), float(hi)))
        if self.one_sided and self.support[0] < 0:
            raise ValueError("one-sided mollifier must have support in [0, inf)")
        probe = np.linspace(self.support[0], self.support[1], 513)
        vals = np.asarray(self.profile(probe), np.float64)
        if np.any(vals < -1e-15):
            raise ValueError("mollifier profile must be nonnegative")
        total = gauss_integrate(self.profile, *self.support, panels=12)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mollifier integral is {total}, not 1")

    @classmethod
    def standard_bump(cls) -> "Mollifier":
        """The classic symmetric bump exp(-1/(1-u^2)) on [-1, 1], normalised."""

        def raw(u):
            u = np.asarray(u, np.float64)
            out = np.zeros_like(u)
            m = np.abs(u) < 1.0
            um = u[m]
            out[m] = np.exp(-1.0 / (1.0 - um * um))
            return out

        z = gauss_integrate(raw, -1.0, 1.0, panels=12)
        return cls(lambda u: raw(u) / z, (-1.0, 1.0), False, "bump")

    @classmethod
    def one_sided_bump(cls) -> "Mollifier":
        """A smooth bump supported on [0, 1], for right-limit approximations."""

        def raw(u):
            u = np.asarray(u, np.float64)
            out = np.zeros_like(u)
            m = (u > 0.0) & (u < 1.0)
            um = u[m]
            out[m] = np.exp(-1.0 / (um * (1.0 - um)))
            return out

        z = gauss_integrate(raw, 0.0, 1.0, panels=12)
        return cls(lambda u: raw(u) / z, (0.0, 1.0), True, "one_sided")


def _kink_set(f: DCFunction):
    f2 = f.second_derivative
    kinks = [loc for loc, _ in f2.atoms]
    kinks.extend(b for b in f2.breakpoints)
    lo, hi = f2.support
    if np.isfinite(lo):
        kinks.append(lo)
    if np.isfinite(hi):
        kinks.append(hi)
    return sorted(set(kinks))


def mollify(f: DCFunction, n: int, rho: Optional[Mollifier] = None) -> DCFunction:
    """Convolve ``f`` with the scaled mollifier ``rho_n(u) = n rho(n u)``.

    Returns a smooth DCFunction whose curvature is purely a density (the
    convolution of ``rho_n`` with ``f''``), evaluated by quadrature.
    """
    n = int(n)
    if n < 1:
        raise ValueError("mollification level must be at least 1")
    if rho is None:
        rho = Mollifier.standard_bump()
    wlo, whi = rho.support
    kinks = _kink_set(f)
    f2 = f.second_derivative

    def _conv(handle, u):
        u = np.atleast_1d(np.asarray(u, np.float64))
        out = np.empty(u.shape, np.float64)
        for i, ui in enumerate(u):
            breaks = [n * (ui - k) for k in kinks]
            out[i] = gauss_integrate(
                lambda w: np.asarray(handle(ui - w / n), np.float64)
                * rho.profile(w),
                wlo,
                whi,
                breaks,
                8,
            )
        return out if out.size > 1 else float(out[0])

    def fn(u):
        return _conv(f.eval_f, u)

    def fpn(u):
        return _conv(f.eval_fprime, u)

    def density_n(u):
        u = np.atleast_1d(np.asarray(u, np.float64))
        out = np.zeros(u.shape, np.float64)
        for loc, w in f2.atoms:
            out += w * n * rho.profile(n * (u - loc))
        if f2.density is not None:
            dens_breaks = f2._density_breaks()
            for i, ui in enumerate(u):
                breaks = [n * (ui - b) for b in dens_breaks]
                out[i] += gauss_integrate(
                    lambda w: np.asarray(f2.density(ui - w / n), np.float64)
                    * rho.profile(w),
                    wlo,
                    whi,
                    breaks,
                    8,
                )
        return out

    slo, shi = f2.support
    locs = [loc for loc, _ in f2.atoms]
    if f2.density is None:
        base_lo = min(locs) if locs else 0.0
        base_hi = max(locs) if locs else 0.0
    else:
        base_lo = min([slo] + locs)
        base_hi = max([shi] + locs)
    if np.isfinite(base_lo) and np.isfinite(base_hi):
        support_n = (base_lo + wlo / n, base_hi + whi / n)
    else:
        support_n = (-np.inf, np.inf)
    f2n = SecondDerivativeMeasure(density=density_n, support=support_n)
    return DCFunction(f"{f.name}~n{n}", fn, fpn, f2n)
