"""Zonal-harmonic expansions on the unit sphere S^(d-1), d >= 3.

Functions are finite sums of zonal harmonics C_k^((d-2)/2)(<x, pole>); the
Funk-Hecke formula turns convolution with an inner-product kernel into a
per-degree scalar multiplier. The annihilator construction builds a
nonnegative bump kernel, supported close to 1, whose degree-m multiplier
vanishes -- the degree-lowering step behind the zero-radius bound on
spheres. ``convolve_at_point_quadrature`` checks that multiplier by direct
surface quadrature: Gauss-Legendre in the angle from the point over the
kernel's support, times ``specfun.polar_rule`` on the tangent sphere
S^(d-2), the polar rule that the eigenfunction shell sums use too. The
spherical-cap ground-state bound and geodesic helpers live here as well.

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

import numpy as np

from .specfun import (
    bessel_first_zero,
    gauss_legendre,
    gegenbauer,
    gegenbauer_max_root,
    gegenbauer_root_below,
    polar_rule,
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
        tol=1e-13 * max(1.0, abs(_weighted_moment(g, k, d, absval=True))),
        alpha_a=hint_a,
        alpha_b=hint_b,
    )


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


def annihilator_bump(m: int, d: int) -> ZonalKernel:
    """Nonnegative bump kernel whose degree-m multiplier vanishes.

    The bump sits inside (1 - (d+4)^2/(4 m^2), 1) -- possible because the
    largest Gegenbauer root x_1 obeys the Driver-Jordaan bound -- and its
    center moves across x_1 by Illinois false position on the bracket
    [x_1 - h, x_1 + h] until the signed weighted moment m_c is driven to
    zero: |m_c| <= 1e-13 * scale, where scale is the moment of |C_m| (the
    ``absval`` rule of ``_weighted_moment``), at most 200 steps. Each step
    takes both moments from one ``gegenbauer`` call over the nodes of the
    two rules. A false-position point that rounds onto an end of the
    bracket is replaced by the midpoint, and the search also stops once lo
    and hi are adjacent floats: there the moment's rounding floor can lie
    above the stop test (as for m = 45, d = 3). Requires m > (d+4)/2.
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
    x2 = gegenbauer_root_below(m, lam, x1 - 1.0 / (m + lam) ** 2, 1e-13)
    dj = 1.0 - (d + 4.0) ** 2 / (4.0 * m * m)
    h = min(0.25 * (1.0 - dj), 0.5 * (x1 - dj), 0.5 * (1.0 - x1), 0.4 * (x1 - x2))
    if h <= 0.0:
        raise ConstructionError(
            f"degenerate bump width for (m, d) = ({m}, {d}); root isolation failed"
        )
    n_signed, n_scale = max(60, m + 20), max(80, m + 30)

    def moments(center):
        """(signed moment, scale) of the bump at ``center``."""
        signed_rule = gauss_legendre(n_signed, center - h, center + h)
        scale_rule = gauss_legendre(n_scale, center - h, center + h)
        t = np.concatenate([signed_rule.nodes, scale_rule.nodes])
        vals = ZonalKernel.bump(center, h)(t) * gegenbauer(m, lam, t)
        vals *= (1.0 - t * t) ** ((d - 3.0) / 2.0)
        return (
            float(np.dot(signed_rule.weights, vals[:n_signed])),
            float(np.dot(scale_rule.weights, np.abs(vals[n_signed:]))),
        )

    lo, hi = x1 - h, x1 + h
    (m_lo, _), (m_hi, _) = moments(lo), moments(hi)
    if not m_lo * m_hi < 0.0:
        raise ConstructionError(
            f"no sign change of the weighted moment across x_1 for (m, d) = ({m}, {d})"
        )
    side = 0  # which end moved last: -1 lo, +1 hi
    for _ in range(200):
        center = (lo * m_hi - hi * m_lo) / (m_hi - m_lo)
        if not lo < center < hi:
            center = 0.5 * (lo + hi)  # rounded onto an end: bisect instead
        m_c, scale = moments(center)
        if abs(m_c) <= 1e-13 * scale:
            break
        if m_c * m_hi < 0.0:
            lo, m_lo = center, m_c
            if side == -1:
                m_hi *= 0.5  # Illinois: halve the stale end's value
            side = -1
        else:
            hi, m_hi = center, m_c
            if side == 1:
                m_lo *= 0.5
            side = 1
        if math.nextafter(lo, hi) == hi:
            break  # adjacent floats: no center left between them
    kern = ZonalKernel.bump(center, h)
    rel = abs(_weighted_moment(kern, m, d)) / scale  # the last step's, at center
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


def convolve_at_point_quadrature(f: SphereFn, g: ZonalKernel, x, polar_order: int = 48) -> float:
    """int over S^(d-1) of g(<x, y>) f(y) dsigma(y) by direct quadrature.

    A point at angle theta from x is y = cos(theta) x + sin(theta) omega,
    with omega on the unit sphere S^(d-2) of the tangent space at x, and
    dsigma(y) = sin^(d-2)(theta) dtheta domega. For a zonal term with pole p,
    a = <x, p> and b = sqrt(1 - a^2), <y, p> = cos(theta) a + sin(theta) b
    cos(psi), where psi is the angle of omega from the tangent part of p. So
    the integral is a double sum: Gauss-Legendre in theta over exactly the
    kernel's support band, where everything is analytic, times
    ``polar_rule(d - 1, polar_order)`` in psi, which carries the measure of
    S^(d-2). The same rule, in one code path, serves every d >= 3.

    This is the independent check of the Funk-Hecke multiplier route.
    """
    x = np.asarray(x, dtype=float)
    d = f.dim
    if x.shape != (d,):
        raise ValueError(f"point must have shape ({d},)")
    if abs(float(np.linalg.norm(x)) - 1.0) > _POINT_TOL:
        raise ValueError("evaluation point must lie on the unit sphere")
    lo, hi = g.support
    th_lo = math.acos(min(1.0, hi))
    th_hi = math.acos(max(-1.0, lo))
    if not th_hi > th_lo:
        return 0.0
    ring = gauss_legendre(polar_order, th_lo, th_hi)
    c = np.cos(ring.nodes)[:, None]
    s = np.sin(ring.nodes)[:, None]
    across = polar_rule(d - 1, polar_order)
    cos_psi = np.cos(across.nodes)
    vals = np.zeros((ring.order, across.order))
    for t in f.terms:
        a = float(np.dot(x, t.pole))
        b = math.sqrt(max(0.0, 1.0 - a * a))
        vals += t.weight * gegenbauer(t.degree, f.lam, c * a + s * (b * cos_psi))
    kern = g(np.cos(ring.nodes)) * np.sin(ring.nodes) ** (d - 2) * ring.weights
    return float(kern @ (vals @ across.weights))


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
                degree=term["k"],
                pole=np.asarray(term["pole"], dtype=float),
                weight=float(term["w"]),
            )
        )
    return SphereFn(data["dim"], terms)
