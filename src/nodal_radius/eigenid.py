"""Global Laplacian eigenfunctions on R^n and their integral identities.

Eigenfunctions are realized as finite sums of plane waves sharing one
frequency norm sqrt(lambda); mixes combine finitely many eigenvalue levels.
The module computes the Coulomb-kernel ball integral of an eigenfunction by
honest nested quadrature (radial Gauss-Legendre times a product rule on the
sphere of directions), the universal radial profile Q_n that the integral
must reproduce, the ODE residual satisfied by the radial derivative profile,
and the closed-form/Kirchhoff/Poisson solutions of the driven wave equation
used in the degree-lowering argument for eigenfunction mixes.

Every shell sum, the weighted sum of phi over the product-rule grid of the
sphere of radius s about x, comes from ``_shell_sums``. Since
phi(x + s omega) = sum amp cos(<k, x> + phase + s <k, omega>) and the grid
maps onto itself under omega -> -omega, each wave contributes
amp cos(<k, x> + phase) F(s k) with F(v) = sum_j w_j cos<v, omega_j>. F is
summed over the rule's folded half axes (``sphere.sphere_grid_factors``),
one polar angle at a time, with 2^(n-1) times fewer full-size cosines than
the whole grid. The grid points themselves are never formed, and the values
are those of phi's own definition at the rule's nodes, not the closed-form
Bessel mean that the identity check compares against. ``poisson_2d``
likewise takes each wave's projection onto its disk rule instead of the
disk points.

Sign convention: wave_factor(lam, t) = (cos(sqrt(lam) t) - 1)/lam, and
kirchhoff_3d / poisson_2d return the wave field matching that factor; the
raw positive ball integral is -4*pi times the n=3 wave field.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .specfun import AccuracyError, ball_volume, bessel_j, gamma_fn, gauss_legendre, quad_adaptive
from .sphere import sphere_grid_factors

_LAMBDA_TOL = 1e-10

# polar-angle order ladders per dimension; grids grow like order^(n-2)
_ANGULAR_LADDERS = {
    2: (32, 64, 128, 256, 512),
    3: (16, 24, 36, 54, 81, 122),
    4: (12, 17, 24, 34, 48),
    5: (10, 14, 19, 26),
    6: (9, 12, 16, 21),
    7: (8, 11, 14),
    8: (7, 10, 13),
}
_RADIAL_LADDER = (32, 48, 64, 96)
# elements of one cosine array in _shell_sums and poisson_2d (8 MB)
_SHELL_BLOCK = 1 << 20


def _angular_ladder(n: int):
    try:
        return _ANGULAR_LADDERS[n]
    except KeyError:
        raise ValueError(f"spherical quadrature ladders cover 2 <= n <= 8, got n={n}")


class PlaneWaveEigen:
    """sum_j amp_j cos(<k_j, x> + phase_j) with every ||k_j||^2 = lambda.

    A global solution of -Laplace(phi) = lambda * phi on R^n.
    """

    __slots__ = ("dim", "lam", "waves")

    def __init__(self, dim: int, lam: float, waves):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
        lam = float(lam)
        if not lam > 0.0:
            raise ValueError(f"lambda must be positive, got {lam!r}")
        packed = []
        for k, amp, phase in waves:
            k = np.asarray(k, dtype=float)
            if k.shape != (dim,):
                raise ValueError(f"wavevector shape {k.shape} does not match dim={dim}")
            ksq = float(np.dot(k, k))
            if abs(ksq - lam) > _LAMBDA_TOL * max(1.0, lam):
                raise ValueError(
                    f"wavevector norm^2 = {ksq!r} does not match lambda = {lam!r}"
                )
            k.setflags(write=False)
            packed.append((k, float(amp), float(phase)))
        if not packed:
            raise ValueError("a plane-wave eigenfunction needs at least one wave")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "waves", tuple(packed))

    def __setattr__(self, name, value):
        raise AttributeError("PlaneWaveEigen is immutable")

    def __repr__(self):
        return f"PlaneWaveEigen(dim={self.dim}, lam={self.lam:g}, waves={len(self.waves)})"

    @classmethod
    def single(cls, k, amplitude: float = 1.0, phase: float = 0.0) -> "PlaneWaveEigen":
        k = np.asarray(k, dtype=float)
        return cls(k.size, float(np.dot(k, k)), [(k, amplitude, phase)])

    def eval(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for k, amp, phase in self.waves:
            total += amp * math.cos(float(np.dot(k, x)) + phase)
        return total

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for k, amp, phase in self.waves:
            out += amp * np.cos(pts @ k + phase)
        return out

    def scaled(self, c: float) -> "PlaneWaveEigen":
        return PlaneWaveEigen(
            self.dim, self.lam, [(k, c * a, p) for k, a, p in self.waves]
        )


class EigenMix:
    """Linear combination of eigenfunctions with distinct eigenvalue levels.

    Parts sharing the same lambda are merged into a single PlaneWaveEigen at
    construction (the coefficient is folded into the wave amplitudes), so the
    stored levels are strictly increasing and every coefficient is 1.
    """

    __slots__ = ("dim", "parts")

    def __init__(self, dim: int, parts):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
        by_lam: dict = {}
        for coef, eigen in parts:
            coef = float(coef)
            if coef == 0.0:
                raise ValueError("mix coefficients must be nonzero")
            if not isinstance(eigen, PlaneWaveEigen):
                raise ValueError("mix parts must be PlaneWaveEigen instances")
            if eigen.dim != dim:
                raise ValueError("all parts must share the mix dimension")
            key = round(eigen.lam / _LAMBDA_TOL)
            waves = [(k, coef * a, p) for k, a, p in eigen.waves]
            if key in by_lam:
                lam0, acc = by_lam[key]
                acc.extend(waves)
            else:
                by_lam[key] = (eigen.lam, list(waves))
        if not by_lam:
            raise ValueError("a mix needs at least one part")
        merged = []
        for key in sorted(by_lam):
            lam0, waves = by_lam[key]
            merged.append((1.0, PlaneWaveEigen(dim, lam0, waves)))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "parts", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("EigenMix is immutable")

    def __repr__(self):
        return f"EigenMix(dim={self.dim}, lambdas={[p.lam for _, p in self.parts]})"

    @property
    def lambdas(self) -> tuple:
        return tuple(p.lam for _, p in self.parts)

    def eval(self, x) -> float:
        return sum(c * p.eval(x) for c, p in self.parts)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(np.asarray(pts).shape[0])
        for c, p in self.parts:
            out += c * p.eval_many(pts)
        return out


# ----------------------------------------------------------------------
# The universal radial profile Q_n
# ----------------------------------------------------------------------


def qn_prefactor(n: int) -> float:
    return 2.0 ** ((n - 2) / 2.0) * gamma_fn(n / 2.0) * n * ball_volume(n)


def _qn_integrand(n: int):
    nu = (n - 2) / 2.0
    expo = (4.0 - n) / 2.0
    slope = 2.0 ** (-nu) / gamma_fn(n / 2.0)

    def integrand(s):
        if s < 1e-8:
            return s * slope  # continuous extension: s^expo J_nu(s) ~ slope * s
        return s**expo * bessel_j(nu, s)

    return integrand


def qn(n: int, x: float, tol: float = 1e-11) -> float:
    """Q_n(x): the universal profile of the Coulomb-kernel ball integral.

    Q_n(x) = 2^((n-2)/2) Gamma(n/2) n omega_n int_0^x s^((4-n)/2) J_((n-2)/2)(s) ds,
    evaluated by adaptive quadrature; the integrand extends continuously by 0
    at s = 0 (for n = 4 it is exactly J_1). In three dimensions
    Q_3(x) = 4 pi (1 - cos x).
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"qn requires integer n >= 3, got {n!r}")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"qn requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    return qn_prefactor(n) * quad_adaptive(_qn_integrand(n), 0.0, x, tol=tol)


# ----------------------------------------------------------------------
# Radial averages and the Coulomb-kernel ball integral
# ----------------------------------------------------------------------


def _wave_scale(phi) -> float:
    return sum(abs(a) for _, a, _ in phi.waves)


def _shell_sums(phi: PlaneWaveEigen, x, radii, order: int) -> np.ndarray:
    """sum_j w_j phi(x + s omega_j) for each s in radii, on the grid
    ``unit_sphere_grid(n, order)``, whose weights sum to the surface area.

    The grid maps onto itself under omega -> -omega, so per wave
    sum_j w_j cos(c + s <k, omega_j>) = cos(c) F(s k) with
    F(v) = sum_j w_j cos<v, omega_j>, c = <k, x> + phase. F is summed over
    the rule's folded half axes (``SphereGridFactors.folded_weights``):
    pairing t0 with pi - t0 gives
    F(v) = sum_{t0 <= pi/2} 2 w0 cos(v0 cos t0) F'(sin t0 v'), level by
    level, down to the half azimuth, where phi pairs with phi + pi. That
    takes 2^(n-1) times fewer full-size cosines than the whole grid. The
    radii are taken in blocks whose innermost cosine array has at most
    ``_SHELL_BLOCK`` elements, or one radius's worth if that is larger.
    """
    grid = sphere_grid_factors(phi.dim, order)
    radii = np.asarray(radii, dtype=float)
    cos_t, sin_t = np.cos(grid.half_polar), np.sin(grid.half_polar)
    polar_weights, ring_weights = grid.folded_weights[:-1], grid.folded_weights[-1]
    size = grid.half_polar.size ** (phi.dim - 2) * grid.half_azimuth.size
    per_block = max(1, _SHELL_BLOCK // size)
    out = np.zeros(radii.size)
    for k, amp, phase in phi.waves:
        c = amp * math.cos(float(np.dot(k, x)) + phase)
        ring = k[-2] * np.cos(grid.half_azimuth) + k[-1] * np.sin(grid.half_azimuth)
        for b in range(0, radii.size, per_block):
            # scale: s times the sines of the polar angles so far; prod: the
            # folded weights times cos(scale k_i cos t_i) of those angles
            scale = radii[b : b + per_block]
            prod = np.ones(scale.size)
            for ki, w in zip(k[:-2], polar_weights):
                prod = np.multiply.outer(prod, w) * np.cos(np.multiply.outer(scale, ki * cos_t))
                scale = np.multiply.outer(scale, sin_t)
            arg = np.multiply.outer(scale, ring)
            np.cos(arg, out=arg)
            shells = (arg @ ring_weights) * prod
            out[b : b + per_block] += c * shells.reshape(shells.shape[0], -1).sum(axis=1)
    return out


def _converged_shell(phi: PlaneWaveEigen, x, s: float, tol: float):
    """(order, average) at the first ladder order where the average of phi
    over the sphere of radius s about x agrees with the previous order's
    within tol (or within machine noise for the wave amplitudes); the top
    order and its average if none does.
    """
    n = phi.dim
    area = n * ball_volume(n)
    floor = 8e-16 * (1.0 + _wave_scale(phi))
    prev = None
    for order in _angular_ladder(n):
        val = float(_shell_sums(phi, x, [s], order)[0]) / area
        if prev is not None and abs(val - prev) <= max(tol * (1.0 + abs(val)), floor):
            break
        prev = val
    return order, val


def radial_average(phi, x, s: float, tol: float = 1e-10) -> float:
    """Average of phi over the sphere of radius s centered at x.

    Product-rule spherical quadrature (Gauss-Legendre polar angles, uniform
    azimuth) with the order climbing a ladder until two successive
    estimates agree within tol (or within machine noise for the wave
    amplitudes); the last estimate is returned. Each estimate is a shell
    sum of phi's plane waves folded onto the grid's symmetry domain
    (``_shell_sums``), not an evaluation at materialized grid points.
    """
    x = np.asarray(x, dtype=float)
    s = float(s)
    if s < 0.0:
        raise ValueError(f"shell radius must be >= 0, got {s!r}")
    if s == 0.0:
        return phi.eval(x)
    return _converged_shell(phi, x, s, tol)[1]


def coulomb_ball_integral(phi: PlaneWaveEigen, x, r: float, tol: float = 1e-8) -> float:
    """int over ||y - x|| <= r of phi(y) / ||y - x||^(n-2) dy, n >= 3.

    Computed as the nested quadrature n omega_n int_0^r s * Av(s) ds with the
    shell averages Av evaluated on a product spherical grid; radial and
    angular orders climb a ladder until two successive estimates agree
    within tol/2 each. One estimate takes the shell sums at all its radial
    nodes from one ``_shell_sums`` call, which sums each plane wave over the
    grid's folded half axes instead of evaluating phi on (N, n) point arrays.

    Raises AccuracyError if the ladders are exhausted without convergence.
    """
    x = np.asarray(x, dtype=float)
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"ball radius must be positive, got {r!r}")
    n = phi.dim
    if n < 3:
        raise ValueError("the Coulomb kernel integral needs n >= 3")
    if x.shape != (n,):
        raise ValueError(f"point must have shape ({n},), got {x.shape}")

    def estimate(q: int, p: int) -> float:
        rule = gauss_legendre(q, 0.0, r)
        shells = _shell_sums(phi, x, rule.nodes, p)  # carry the area factor
        # = n omega_n int s Av(s) ds since the grid weights sum to n omega_n
        return float(np.dot(rule.weights * rule.nodes, shells))

    angular = _angular_ladder(n)
    prev = None
    for q, p in zip(_RADIAL_LADDER, angular):
        val = estimate(q, p)
        if prev is not None and abs(val - prev) <= 0.5 * tol * (1.0 + abs(val)):
            # one refinement of the radial order alone to decouple the two limits
            val2 = estimate(min(q + q // 2, 2 * q), p)
            if abs(val2 - val) <= 0.5 * tol * (1.0 + abs(val2)):
                return val2
        prev = val
    raise AccuracyError(
        f"coulomb_ball_integral did not converge to tol={tol:g} "
        f"(n={n}, r={r:g}, lambda={phi.lam:g})",
        estimate=prev,
    )


def verify_identity(phi: PlaneWaveEigen, x, r: float, tol: float = 1e-7) -> float:
    """Normalized residual of the Coulomb-kernel identity.

    |ball integral - Q_n(sqrt(lambda) r)/lambda * phi(x)| / (1 + |rhs|);
    the ball integral is computed by nested quadrature, the right-hand side
    by the 1D Q_n quadrature -- two independent routes.
    """
    x = np.asarray(x, dtype=float)
    lam = phi.lam
    rhs = qn(phi.dim, math.sqrt(lam) * r) / lam * phi.eval(x)
    lhs = coulomb_ball_integral(phi, x, r, tol=0.25 * tol * (1.0 + abs(rhs)))
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _profile_stencil(n: int, phi: PlaneWaveEigen, x, r: float):
    """R at r-h, r, r+h with R(s) = n omega_n s Av(s), on one shared grid.

    The angular order is chosen once, at radius r, by the convergence
    ladder; the three stencil radii then reuse that grid, so the (smooth)
    quadrature error largely cancels in the finite differences instead of
    being amplified by 1/h^2.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-4 * max(1.0, r)
    order, _ = _converged_shell(phi, x, r, tol=1e-11)
    radii = np.array([r - h, r, r + h])
    # the shell sums carry the area factor n omega_n
    shells = _shell_sums(phi, x, radii, order)
    rm, r0, rp = (float(s * v) if s > 0.0 else 0.0 for s, v in zip(radii, shells))
    return rm, r0, rp, h


def ode_residual_R(n: int, phi: PlaneWaveEigen, x, r: float) -> float:
    """Residual of r^2 R'' + (n-3) r R' - (n-3) R + lambda r^2 R at r.

    R(r) = n omega_n r Av(r) is the derivative profile of the ball integral;
    derivatives are central differences with step 1e-4 * max(1, r). Returns
    the raw combination; compare against the scale r^2 |R''| + |R|.
    """
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise ValueError(f"ode_residual_R requires integer n >= 4, got {n!r}")
    if phi.dim != n:
        raise ValueError("eigenfunction dimension must match n")
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"ode_residual_R requires r > 0, got {r!r}")
    rm, r0, rp, h = _profile_stencil(n, phi, x, r)
    d1 = (rp - rm) / (2.0 * h)
    d2 = (rp - 2.0 * r0 + rm) / (h * h)
    return r * r * d2 + (n - 3.0) * r * d1 - (n - 3.0) * r0 + phi.lam * r0 * r * r


def radial_profile_scale(n: int, phi: PlaneWaveEigen, x, r: float) -> float:
    """The comparison scale r^2 |R''| + |R| for ode_residual_R."""
    rm, r0, rp, h = _profile_stencil(n, phi, x, float(r))
    d2 = (rp - 2.0 * r0 + rm) / (h * h)
    return float(r) * float(r) * abs(d2) + abs(r0)


# ----------------------------------------------------------------------
# Wave-equation machinery
# ----------------------------------------------------------------------


def wave_factor(lam: float, t: float) -> float:
    """(cos(sqrt(lam) t) - 1) / lam: the per-level Duhamel factor.

    Vanishes at t = 0 and at t* = 2 pi / sqrt(lam), the time at which the
    top eigenvalue level of a mix is annihilated.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    return (math.cos(math.sqrt(lam) * t) - 1.0) / lam


def _as_parts(source):
    if isinstance(source, PlaneWaveEigen):
        return ((1.0, source),)
    if isinstance(source, EigenMix):
        return source.parts
    raise ValueError("source must be a PlaneWaveEigen or an EigenMix")


def kirchhoff_3d(source, x, t: float, tol: float = 1e-7) -> float:
    """Wave field at (t, x) driven by a static source in R^3.

    Computed from the ball integral (1/4 pi) int over B(x,t) of f(y)/||y-x|| dy,
    orientation-matched to wave_factor: for a pure eigenfunction part the
    result equals wave_factor(lambda, t) * phi(x), and a mix sums its parts.
    """
    parts = _as_parts(source)
    if parts[0][1].dim != 3:
        raise ValueError("kirchhoff_3d requires dim = 3 sources")
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    total = 0.0
    part_tol = 4.0 * math.pi * tol / len(parts)
    for coef, eigen in parts:
        total += coef * coulomb_ball_integral(eigen, x, t, tol=part_tol)
    return -total / (4.0 * math.pi)


def poisson_2d(source, x, t: float, tol: float = 1e-7) -> float:
    """Wave field at (t, x) driven by a static source in R^2.

    The double Duhamel integral over the shrinking disks B(x, t-s) with
    weight ((t-s)^2 - |y-x|^2)^(-1/2); the radial weight is absorbed by the
    substitution rho = sin(psi) (a Chebyshev-type rule for that weight),
    the angle uses the uniform rule, and the time, radial and angular
    orders climb a three-rung ladder until two estimates agree within
    tol/2. Per wave, the source at the disk nodes is
    cos(<k, x> + phase + (t - s) rho <k, omega_theta>), taken on one
    (time node x rho x theta) array per rung in blocks of at most
    ``_SHELL_BLOCK`` elements (one time node's worth if that is larger);
    the disk points are never formed. Orientation matches wave_factor, as
    for kirchhoff_3d.

    Raises AccuracyError if the ladder is exhausted without convergence.
    """
    parts = _as_parts(source)
    if parts[0][1].dim != 2:
        raise ValueError("poisson_2d requires dim = 2 sources")
    x = np.asarray(x, dtype=float)
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    lam_max = max(p.lam for _, p in parts)
    bandwidth = t * math.sqrt(lam_max)
    waves = [(k, coef * amp, phase) for coef, eigen in parts for k, amp, phase in eigen.waves]

    def attempt(n_theta: int, n_psi: int, q: int) -> float:
        # (1/2 pi) int_0^t radius int over the unit disk of
        # f(x + radius z) (1 - |z|^2)^(-1/2) dz ds, radius = t - s
        time_rule = gauss_legendre(q, 0.0, t)
        radius = t - time_rule.nodes
        w_time = time_rule.weights * radius
        disk = gauss_legendre(n_psi, 0.0, 0.5 * math.pi)
        rho = np.sin(disk.nodes)
        w_psi = disk.weights * rho  # rho drho / sqrt(1-rho^2) = sin psi dpsi
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        per_block = max(1, _SHELL_BLOCK // (n_psi * n_theta))
        total = 0.0
        for k, amp, phase in waves:
            c = float(np.dot(k, x)) + phase
            disk_proj = np.multiply.outer(rho, k[0] * np.cos(theta) + k[1] * np.sin(theta))
            for b in range(0, q, per_block):
                arg = np.multiply.outer(radius[b : b + per_block], disk_proj)
                arg += c
                np.cos(arg, out=arg)
                total += amp * float(w_time[b : b + per_block] @ (arg.sum(axis=2) @ w_psi))
        return total / n_theta  # the angle weights 2 pi / n_theta over the 2 pi

    n_theta = max(32, 4 * int(math.ceil(bandwidth)) + 8)
    prev = None
    for n_psi, q in ((16, 48), (24, 72), (36, 108)):
        val = attempt(n_theta, n_psi, q)
        if prev is not None and abs(val - prev) <= 0.5 * tol * (1.0 + abs(val)):
            return -val
        prev = val
        n_theta = int(1.5 * n_theta)
    raise AccuracyError(
        f"poisson_2d did not converge to tol={tol:g} (t={t:g})", estimate=-prev
    )


def bound_theorem3(mix: EigenMix) -> float:
    """Zero-radius bound 2 pi sum_k lambda_k^(-1/2) over the mix levels."""
    return 2.0 * math.pi * sum(1.0 / math.sqrt(lam) for lam in mix.lambdas)


def wave_pde_residual(lam: float, phi: PlaneWaveEigen, x, t: float) -> float:
    """Finite-difference check that u = wave_factor(lam, t) phi solves the
    driven wave equation (in the orientation of wave_factor: u_tt - Lap(u)
    balances -phi). Central differences with step 1e-3; returns
    |u_tt - Lap(u) + phi(x)|.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    x = np.asarray(x, dtype=float)
    h = 1e-3
    fx = phi.eval(x)
    u_tt = (
        (wave_factor(lam, t + h) - 2.0 * wave_factor(lam, t) + wave_factor(lam, t - h))
        / (h * h)
        * fx
    )
    lap = 0.0
    for i in range(phi.dim):
        e = np.zeros(phi.dim)
        e[i] = h
        lap += phi.eval(x + e) - 2.0 * fx + phi.eval(x - e)
    lap = lap / (h * h) * wave_factor(lam, t)
    return abs(u_tt - lap + fx)


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------


def eigen_to_dict(phi: PlaneWaveEigen) -> dict:
    return {
        "dim": phi.dim,
        "lambda": phi.lam,
        "waves": [
            {"k": list(map(float, k)), "amp": a, "phase": p} for k, a, p in phi.waves
        ],
    }


def eigen_from_dict(data) -> PlaneWaveEigen:
    if not isinstance(data, dict):
        raise ValueError("PlaneWaveEigen JSON must be an object")
    for field in ("dim", "lambda", "waves"):
        if field not in data:
            raise ValueError(f"PlaneWaveEigen JSON missing field {field!r}")
    waves = []
    for i, w in enumerate(data["waves"]):
        for field in ("k", "amp", "phase"):
            if field not in w:
                raise ValueError(f"waves[{i}] missing field {field!r}")
        waves.append((np.asarray(w["k"], dtype=float), float(w["amp"]), float(w["phase"])))
    return PlaneWaveEigen(int(data["dim"]), float(data["lambda"]), waves)


def mix_to_dict(mix: EigenMix) -> dict:
    return {
        "dim": mix.dim,
        "parts": [{"coef": c, "eigen": eigen_to_dict(p)} for c, p in mix.parts],
    }


def mix_from_dict(data) -> EigenMix:
    if not isinstance(data, dict):
        raise ValueError("EigenMix JSON must be an object")
    for field in ("dim", "parts"):
        if field not in data:
            raise ValueError(f"EigenMix JSON missing field {field!r}")
    parts = []
    for i, p in enumerate(data["parts"]):
        for field in ("coef", "eigen"):
            if field not in p:
                raise ValueError(f"parts[{i}] missing field {field!r}")
        parts.append((float(p["coef"]), eigen_from_dict(p["eigen"])))
    return EigenMix(int(data["dim"]), parts)


def eigen_to_json(phi: PlaneWaveEigen) -> str:
    return json.dumps(eigen_to_dict(phi))


def eigen_from_json(text: str) -> PlaneWaveEigen:
    return eigen_from_dict(json.loads(text))


def mix_to_json(mix: EigenMix) -> str:
    return json.dumps(mix_to_dict(mix))


def mix_from_json(text: str) -> EigenMix:
    return mix_from_dict(json.loads(text))
