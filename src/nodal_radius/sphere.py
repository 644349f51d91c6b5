"""Zonal-harmonic expansions on the unit sphere S^(d-1), d >= 3.

Functions are finite sums of zonal harmonics C_k^((d-2)/2)(<x, pole>); the
Funk-Hecke formula turns convolution with an inner-product kernel into a
per-degree scalar multiplier. The annihilator construction builds a
nonnegative bump kernel, supported close to 1, whose degree-m multiplier
vanishes -- the degree-lowering step behind the zero-radius bound on
spheres. The spherical-cap ground-state bound and geodesic helpers live
here as well.

Measure convention: integrals over S^(d-1) use the unnormalized surface
measure, so the degree-0 multiplier of the constant kernel equals the full
surface area. The weight constant in the multiplier formula is the surface
area of the unit sphere in R^(d-1); the convolution fidelity test pins this
convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (
    bessel_first_zero,
    gauss_legendre,
    gegenbauer,
    gegenbauer_max_root,
    quad_adaptive,
    sphere_surface,
)

_POLE_TOL = 1e-12
_POINT_TOL = 1e-10


class ConstructionError(RuntimeError):
    """A kernel construction failed (signals a root-isolation bug)."""


@dataclass(frozen=True)
class ZonalTerm:
    """One zonal harmonic: weight * C_degree^((d-2)/2)(<x, pole>)."""

    degree: int
    pole: np.ndarray
    weight: float

    def __post_init__(self):
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
            raise ValueError(f"degree must be an integer >= 1, got {self.degree!r}")
        pole = np.asarray(self.pole, dtype=float)
        norm = float(np.linalg.norm(pole))
        if abs(norm - 1.0) > _POLE_TOL:
            raise ValueError(f"pole must be a unit vector, ||pole|| = {norm!r}")
        pole.setflags(write=False)
        object.__setattr__(self, "pole", pole)
        object.__setattr__(self, "weight", float(self.weight))


class SphereFn:
    """Finite combination of zonal harmonics on S^(d-1), mean value 0.

    An empty term list is allowed and represents the zero function (it is
    what a full annihilation returns).
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        if not isinstance(dim, (int, np.integer)) or dim < 3:
            raise ValueError(f"dim must be an integer >= 3, got {dim!r}")
        terms = tuple(terms)
        for t in terms:
            if not isinstance(t, ZonalTerm):
                raise ValueError("terms must be ZonalTerm instances")
            if t.pole.shape != (dim,):
                raise ValueError(
                    f"pole dimension {t.pole.shape[0]} does not match dim={dim}"
                )
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("SphereFn is immutable")

    def __repr__(self):
        return f"SphereFn(dim={self.dim}, terms={len(self.terms)}, degrees={sorted(self.degrees())})"

    def degrees(self) -> set:
        return {t.degree for t in self.terms}

    @property
    def lam(self) -> float:
        return (self.dim - 2.0) / 2.0

    def eval(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        if abs(float(np.linalg.norm(x)) - 1.0) > _POINT_TOL:
            raise ValueError("evaluation point must lie on the unit sphere")
        total = 0.0
        for t in self.terms:
            total += t.weight * gegenbauer(t.degree, self.lam, float(np.dot(x, t.pole)))
        return total

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, dim) array of unit vectors."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for t in self.terms:
            out += t.weight * gegenbauer(t.degree, self.lam, pts @ t.pole)
        return out


class ZonalKernel:
    """Integrable kernel g: [-1, 1] -> R with support in an interval J.

    The standard constructor is :meth:`bump`, a C^2 polynomial bump
    (1 - u^2)^3 on a subinterval of (-1, 1). :meth:`raw` wraps an arbitrary
    profile without the bump invariants -- meant for degenerate test
    kernels such as g = 1.
    """

    __slots__ = ("support", "_profile", "center", "half_width")

    def __init__(self, support, profile, center=None, half_width=None):
        a, b = float(support[0]), float(support[1])
        if not (-1.0 <= a < b <= 1.0):
            raise ValueError(f"support must be a subinterval of [-1, 1], got {support!r}")
        object.__setattr__(self, "support", (a, b))
        object.__setattr__(self, "_profile", profile)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", half_width)

    def __setattr__(self, name, value):
        raise AttributeError("ZonalKernel is immutable")

    @classmethod
    def bump(cls, center: float, half_width: float) -> "ZonalKernel":
        """Nonnegative C^2 bump (1 - ((t-c)/h)^2)^3 supported on [c-h, c+h]."""
        c, h = float(center), float(half_width)
        if h <= 0.0:
            raise ValueError("half_width must be positive")
        if c - h < -1.0 or c + h > 1.0:
            raise ValueError("bump support must stay inside [-1, 1]")

        def profile(t):
            u = (np.asarray(t, dtype=float) - c) / h
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            out[inside] = (1.0 - u[inside] ** 2) ** 3
            return out

        return cls((c - h, c + h), profile, center=c, half_width=h)

    @classmethod
    def raw(cls, a: float, b: float, profile) -> "ZonalKernel":
        """Wrap an arbitrary profile on [a, b]; bypasses the bump invariants."""

        def wrapped(t):
            t = np.asarray(t, dtype=float)
            vals = np.asarray(profile(t), dtype=float)
            return np.broadcast_to(vals, t.shape).copy()

        return cls((a, b), wrapped)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        vals = self._profile(np.atleast_1d(arr))
        return float(vals[0]) if scalar else vals


def _weighted_moment(g: ZonalKernel, k: int, d: int, absval: bool = False) -> float:
    """int over J of g(t) C_k(t) (1-t^2)^((d-3)/2) dt, by Gauss-Legendre panels."""
    a, b = g.support
    lam = (d - 2.0) / 2.0
    expo = (d - 3.0) / 2.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        ck = gegenbauer(k, lam, t)
        if absval:
            ck = np.abs(ck)
        return g(t) * ck * (1.0 - t * t) ** expo

    if absval:
        # reference scale only; a fixed high-order panel is plenty
        rule = gauss_legendre(max(80, k + 30), a, b)
        return float(np.dot(rule.weights, integrand(rule.nodes)))
    hint_a = expo if a <= -1.0 + 1e-14 and expo != 0.0 else 0.0
    hint_b = expo if b >= 1.0 - 1e-14 and expo != 0.0 else 0.0
    return quad_adaptive(
        lambda t: float(integrand(t)),
        a,
        b,
        tol=1e-13 * max(1.0, abs(_scale_hint(g, k, d))),
        alpha_a=hint_a,
        alpha_b=hint_b,
    )


def _scale_hint(g: ZonalKernel, k: int, d: int) -> float:
    rule = gauss_legendre(max(60, k + 20), *g.support)
    lam = (d - 2.0) / 2.0
    vals = g(rule.nodes) * np.abs(gegenbauer(k, lam, rule.nodes))
    vals *= (1.0 - rule.nodes**2) ** ((d - 3.0) / 2.0)
    return float(np.dot(rule.weights, vals))


def funk_hecke_eigenvalue(g: ZonalKernel, k: int, d: int) -> float:
    """Degree-k convolution multiplier of the kernel g on S^(d-1).

    lambda_k(g) = surface(S^(d-2)) / C_k^((d-2)/2)(1) *
                  int_J g(t) C_k^((d-2)/2)(t) (1 - t^2)^((d-3)/2) dt

    With this constant, convolution against the unnormalized surface
    measure acts on a degree-k zonal harmonic as multiplication by
    lambda_k(g); in particular lambda_0(1) is the full surface area.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree must be an integer >= 0, got {k!r}")
    if not isinstance(d, (int, np.integer)) or d < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {d!r}")
    lam = (d - 2.0) / 2.0
    ck1 = gegenbauer(k, lam, 1.0)
    return sphere_surface(d - 1) / ck1 * _weighted_moment(g, k, d)


def convolve(f: SphereFn, g: ZonalKernel) -> SphereFn:
    """Spherical convolution of f with the zonal kernel g.

    Acts degree-wise: each term's weight is multiplied by the Funk-Hecke
    multiplier of its degree; poles are unchanged. Terms whose new weight
    is below 1e-13 of the largest original weight are dropped.
    """
    if not f.terms:
        return f
    mults = {k: funk_hecke_eigenvalue(g, k, f.dim) for k in f.degrees()}
    cutoff = 1e-13 * max(abs(t.weight) for t in f.terms)
    new_terms = []
    for t in f.terms:
        w = t.weight * mults[t.degree]
        if abs(w) > cutoff:
            new_terms.append(ZonalTerm(degree=t.degree, pole=t.pole, weight=w))
    return SphereFn(f.dim, new_terms)


def _next_root_below(m: int, lam: float, x1: float) -> float:
    """Second-largest root of C_m^lam, scanned down from x1."""
    step = 1.0 / (m + lam) ** 2
    t = x1 - step
    f = gegenbauer(m, lam, t)
    while t > -1.0:
        t2 = t - step
        f2 = gegenbauer(m, lam, t2)
        if f * f2 < 0.0 or f2 == 0.0:
            lo, hi = t2, t
            f_lo = f2
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = gegenbauer(m, lam, mid)
                if fm == 0.0:
                    return mid
                if fm * f_lo > 0.0:
                    lo, f_lo = mid, fm
                else:
                    hi = mid
                if hi - lo < 1e-13:
                    break
            return 0.5 * (lo + hi)
        t, f = t2, f2
    return -1.0  # m = 1: no second root


def annihilator_bump(m: int, d: int) -> ZonalKernel:
    """Nonnegative bump kernel whose degree-m multiplier vanishes.

    The bump sits inside (1 - (d+4)^2/(4 m^2), 1) -- possible because the
    largest Gegenbauer root x_1 obeys the Driver-Jordaan bound -- and its
    center slides across x_1 by bisection until the signed weighted moment
    changes sign and is driven to zero. Requires m > (d+4)/2.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"degree must be an integer >= 1, got {m!r}")
    if not isinstance(d, (int, np.integer)) or d < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {d!r}")
    if not m > (d + 4) / 2.0:
        raise ValueError(
            f"annihilator_bump requires m > (d+4)/2 = {(d + 4) / 2.0}, got m={m}"
        )
    lam = (d - 2.0) / 2.0
    x1 = gegenbauer_max_root(m, lam)
    x2 = _next_root_below(m, lam, x1)
    dj = 1.0 - (d + 4.0) ** 2 / (4.0 * m * m)
    h = min(0.25 * (1.0 - dj), 0.5 * (x1 - dj), 0.5 * (1.0 - x1), 0.4 * (x1 - x2))
    if h <= 0.0:
        raise ConstructionError(
            f"degenerate bump width for (m, d) = ({m}, {d}); root isolation failed"
        )

    def signed_moment(center):
        kern = ZonalKernel.bump(center, h)
        rule = gauss_legendre(max(60, m + 20), center - h, center + h)
        vals = kern(rule.nodes) * gegenbauer(m, lam, rule.nodes)
        vals *= (1.0 - rule.nodes**2) ** ((d - 3.0) / 2.0)
        return float(np.dot(rule.weights, vals))

    lo, hi = x1 - h, x1 + h
    m_lo, m_hi = signed_moment(lo), signed_moment(hi)
    if not m_lo * m_hi < 0.0:
        raise ConstructionError(
            f"no sign change of the weighted moment across x_1 for (m, d) = ({m}, {d})"
        )
    center = 0.5 * (lo + hi)
    for _ in range(200):
        center = 0.5 * (lo + hi)
        m_c = signed_moment(center)
        kern = ZonalKernel.bump(center, h)
        if abs(m_c) <= 1e-13 * _weighted_moment(kern, m, d, absval=True):
            break
        if m_c * m_hi < 0.0:
            lo, m_lo = center, m_c
        else:
            hi, m_hi = center, m_c
    kern = ZonalKernel.bump(center, h)
    rel = abs(_weighted_moment(kern, m, d)) / _weighted_moment(kern, m, d, absval=True)
    if rel > 1e-11:
        raise ConstructionError(
            f"moment annihilation stalled at relative size {rel:.2e} for (m, d) = ({m}, {d})"
        )
    return kern


def bound_theorem2(f: SphereFn) -> float:
    """Geodesic zero-radius bound pi^2 * d * sum over distinct degrees of 1/k."""
    degs = f.degrees()
    if not degs:
        raise ValueError("the zero function has no radius bound")
    return math.pi**2 * f.dim * sum(1.0 / k for k in degs)


def cap_lambda1_upper(d: int, r: float) -> float:
    """Upper bound for the first Dirichlet eigenvalue of a geodesic cap of
    radius r on S^d (the cited display's own indexing: S^2, S^3, S^d).

    Three cases: j_{0,1}^2/r^2 + 1/3 on S^2; pi^2/r^2 + 1 on S^3; and for
    d >= 4, j_{(d-2)/2,1}^2/r^2 - (d-1)^2/4 + ((d-1)(d-3)/4)(1/sin^2 r - 1/r^2).
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"cap dimension must be an integer >= 2, got {d!r}")
    r = float(r)
    if not 0.0 < r < math.pi:
        raise ValueError(f"geodesic radius must lie in (0, pi), got {r!r}")
    if d == 2:
        return bessel_first_zero(0.0) ** 2 / r**2 + 1.0 / 3.0
    if d == 3:
        return math.pi**2 / r**2 + 1.0
    j = bessel_first_zero((d - 2) / 2.0)
    s = math.sin(r)
    return (
        j * j / (r * r)
        - (d - 1.0) ** 2 / 4.0
        + (d - 1.0) * (d - 3.0) / 4.0 * (1.0 / (s * s) - 1.0 / (r * r))
    )


def geodesic_distance(a, b) -> float:
    """Great-circle distance arccos(<a, b>) in [0, pi] for unit vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.acos(max(-1.0, min(1.0, float(np.dot(a, b)))))


# ----------------------------------------------------------------------
# Direct surface quadrature (the independent route for validation)
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SphereGridFactors:
    """Per-axis factors of the product rule ``unit_sphere_grid(n, order)``.

    The grid's angles are ``n - 2`` polar angles, each at the Gauss-Legendre
    nodes ``polar`` on [0, pi], then the azimuth ``azimuth``: 2 * order
    uniform angles in [0, 2 pi). A point is
    (cos t0, sin t0 cos t1, ..., sin t0 ... sin t_{n-3} cos phi,
    sin t0 ... sin t_{n-3} sin phi), and its weight is the product of one
    entry of each ``axis_weights`` array: the polar weights times
    sin^(n-2-i)(t_i) on polar axis i, then 2 pi / (2 order). Points run in
    C order over the angle axes.

    The factors from axis ``start`` on are those of the same rule on
    S^(n-1-start): the grid splits as omega = (cos t0, sin t0 * omega').
    """

    dim: int
    order: int
    polar: np.ndarray
    polar_weights: np.ndarray
    azimuth: np.ndarray
    axis_weights: tuple

    @property
    def angles(self) -> tuple:
        return (self.polar,) * (self.dim - 2) + (self.azimuth,)

    def weights(self, start: int = 0) -> np.ndarray:
        """Grid weights over the axes from ``start`` on, raveled in point order.

        ``start = dim - 1`` leaves no axis and gives ``[1.0]``.
        """
        w = np.ones(1)
        for aw in reversed(self.axis_weights[start:]):
            w = np.multiply.outer(aw, w).ravel()
        return w

    def projection(self, k, start: int = 0) -> np.ndarray:
        """<k, omega> over the grid, shaped as the angle axes from ``start`` on.

        k has dim - start entries; ``.ravel()`` runs in point order. The
        projection nests over the angles, k0 cos t0 + sin t0 (k1 cos t1 +
        sin t1 (... + k_{n-2} cos phi + k_{n-1} sin phi)), so it costs one
        multiply-add per grid point and never forms the points.
        """
        k = np.asarray(k, dtype=float)
        angles = self.angles[start:]
        if k.shape != (len(angles) + 1,):
            raise ValueError(
                f"k must have {len(angles) + 1} entries for axes {start}.., got shape {k.shape}"
            )
        g = np.asarray(k[-1])
        for a, ki in zip(reversed(angles), reversed(k[:-1])):
            lead = (slice(None),) + (None,) * g.ndim
            g = np.multiply.outer(np.sin(a), g)
            g += (ki * np.cos(a))[lead]
        return g


@lru_cache(maxsize=64)
def sphere_grid_factors(n: int, order: int) -> SphereGridFactors:
    """The per-axis factors of ``unit_sphere_grid(n, order)`` (cached, read-only)."""
    if n < 2:
        raise ValueError("the sphere grid needs n >= 2")
    n, order = int(n), int(order)
    n_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
    if n == 2:
        polar = polar_weights = np.empty(0)
    else:
        rule = gauss_legendre(order, 0.0, math.pi)
        polar, polar_weights = rule.nodes, rule.weights
    # measure: prod_i sin^(n-2-i)(t_i) over the polar axes i = 0..n-3
    axis_weights = tuple(
        polar_weights * np.sin(polar) ** (n - 2 - i) for i in range(n - 2)
    ) + (w_phi,)
    for arr in (polar, polar_weights, phi) + axis_weights:
        arr.setflags(write=False)
    return SphereGridFactors(n, order, polar, polar_weights, phi, axis_weights)


def unit_sphere_grid(n: int, order: int):
    """Product quadrature grid on S^(n-1): points (N, n) and weights (N,).

    Gauss-Legendre in each polar angle on [0, pi] (the integrand is analytic
    in the angles), uniform trapezoid in the periodic azimuth. Weights sum
    to the surface area of S^(n-1). The grid has 2 * order**(n-1) points.
    The rule is defined once, by ``sphere_grid_factors(n, order)``: the
    points are its projections onto the coordinate axes and the weights the
    product of its per-axis weights, so a caller that needs only <k, omega>
    and the weights can take them from the factors without forming the grid.
    Up to 300 000 points it is kept in a 32-entry LRU cache, up to 4 000 000
    in a 3-entry one; a larger grid is rebuilt on every call.
    """
    if n < 2:
        raise ValueError("unit_sphere_grid needs n >= 2")
    n, order = int(n), int(order)
    if 2 * order ** (n - 1) <= 300_000:
        return _sphere_grid_cached_small(n, order)
    if 2 * order ** (n - 1) <= 4_000_000:
        return _sphere_grid_cached_large(n, order)
    return _build_sphere_grid(n, order)


@lru_cache(maxsize=32)
def _sphere_grid_cached_small(n: int, order: int):
    return _build_sphere_grid(n, order)


@lru_cache(maxsize=3)
def _sphere_grid_cached_large(n: int, order: int):
    return _build_sphere_grid(n, order)


def _build_sphere_grid(n: int, order: int):
    grid = sphere_grid_factors(n, order)
    coords = np.empty((2 * order ** (n - 1), n))
    for i, e in enumerate(np.eye(n)):
        coords[:, i] = grid.projection(e).ravel()
    weight = grid.weights()
    coords.setflags(write=False)
    weight.setflags(write=False)
    return coords, weight


def _frame_at(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at the unit vector x."""
    d = x.size
    basis = np.eye(d)
    idx = int(np.argmin(np.abs(x)))
    cols = [basis[i] for i in range(d) if i != idx] + [basis[idx]]
    frame = [x]
    for v in cols:
        for u in frame:
            v = v - np.dot(v, u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            frame.append(v / norm)
        if len(frame) == d:
            break
    return np.stack(frame[1:], axis=0)


def convolve_at_point_quadrature(
    f: SphereFn, g: ZonalKernel, x, polar_order: int = 48, azimuth_order=None
) -> float:
    """int over S^(d-1) of g(<x, y>) f(y) dsigma(y) by direct quadrature.

    Coordinates are aligned with x so the kernel depends on the polar angle
    alone and the integration band covers exactly the kernel support, where
    everything is analytic; the azimuthal factor of a degree-k zonal term is
    a trigonometric polynomial, integrated exactly by the uniform rule.

    This is the independent check of the Funk-Hecke multiplier route.
    """
    x = np.asarray(x, dtype=float)
    d = f.dim
    if x.shape != (d,):
        raise ValueError(f"point must have shape ({d},)")
    a, b = g.support
    th_lo = math.acos(min(1.0, b))
    th_hi = math.acos(max(-1.0, a))
    if not th_hi > th_lo:
        return 0.0
    if d == 3:
        n_phi = azimuth_order or max(2 * polar_order, 8)
        rule = gauss_legendre(polar_order, th_lo, th_hi)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        u = _frame_at(x)  # (2, 3)
        theta = rule.nodes[:, None]
        circ = np.cos(phi)[None, :, None] * u[0] + np.sin(phi)[None, :, None] * u[1]
        pts = np.cos(theta)[:, :, None] * x + np.sin(theta)[:, :, None] * circ
        vals = f.eval_many(pts.reshape(-1, 3)).reshape(len(rule.nodes), n_phi)
        kern = g(np.cos(rule.nodes)) * np.sin(rule.nodes) * rule.weights
        return float(np.dot(kern, vals.sum(axis=1)) * (2.0 * np.pi / n_phi))
    # general d: restrict the full product grid to the support band in the
    # leading polar angle, rotated so that x is the pole
    rule = gauss_legendre(polar_order, th_lo, th_hi)
    sub_pts, sub_w = unit_sphere_grid(d - 1, max(polar_order // 2, 12))
    u = _frame_at(x)  # (d-1, d)
    total = 0.0
    for theta, w in zip(rule.nodes, rule.weights):
        ring = math.cos(theta) * x + math.sin(theta) * (sub_pts @ u)
        vals = f.eval_many(ring)
        total += w * g(math.cos(theta)) * math.sin(theta) ** (d - 2) * float(
            np.dot(sub_w, vals)
        )
    return total


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------


def to_json(f: SphereFn) -> str:
    terms = [
        {"k": t.degree, "pole": list(map(float, t.pole)), "w": t.weight}
        for t in f.terms
    ]
    return json.dumps({"dim": f.dim, "terms": terms})


def from_json(text: str) -> SphereFn:
    return from_dict(json.loads(text))


def from_dict(data) -> SphereFn:
    if not isinstance(data, dict):
        raise ValueError("SphereFn JSON must be an object")
    if "dim" not in data:
        raise ValueError("SphereFn JSON missing field 'dim'")
    if "terms" not in data or not isinstance(data["terms"], list):
        raise ValueError("SphereFn JSON missing field 'terms' (a list)")
    terms = []
    for i, term in enumerate(data["terms"]):
        for field in ("k", "pole", "w"):
            if field not in term:
                raise ValueError(f"terms[{i}] missing field {field!r}")
        terms.append(
            ZonalTerm(
                degree=int(term["k"]),
                pole=np.asarray(term["pole"], dtype=float),
                weight=float(term["w"]),
            )
        )
    return SphereFn(int(data["dim"]), terms)
