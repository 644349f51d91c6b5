"""Global Laplacian eigenfunctions on R^n and their integral identities.

Eigenfunctions are realized as finite sums of plane waves sharing one
frequency norm sqrt(lambda); mixes combine finitely many eigenvalue levels.
The module computes the Coulomb-kernel ball integral of an eigenfunction by
honest nested quadrature (radial Gauss-Legendre times a polar rule on the
sphere of directions), the universal radial profile Q_n that the integral
must reproduce, the ODE residual satisfied by the radial derivative profile,
and the closed-form/Kirchhoff/Poisson solutions of the driven wave equation
used in the degree-lowering argument for eigenfunction mixes.

Every shell sum, the integral of phi over the sphere of radius s about x,
comes from ``_shell_sums``. In a frame whose pole is k/|k|, the integral of
one wave amp cos(<k, x> + phase + s <k, omega>) over the unit sphere is
amp cos(<k, x> + phase) |S^(n-2)| int_0^pi sin^(n-2)(t) cos(s |k| cos t) dt,
the sine part being odd under omega -> -omega. Every wave has |k| =
sqrt(lambda), so the shell sum is phi(x) times one 1-D integral over the
polar angle t, taken by ``specfun.polar_rule``: Gauss-Legendre on [0, pi]
with the ring measure sin^(n-2)(t) |S^(n-2)| folded into its weights, the
rule that ``sphere.convolve_at_point_quadrature`` integrates on as well.
Its order climbs the one ladder ``_POLAR_LADDER`` in every dimension. The
quadrature is that of phi's own definition, not the closed-form Bessel mean
that the identity check compares against. ``poisson_2d`` takes its disk
angle from the same shell sums in n = 2.

Sign convention: wave_factor(lam, t) = (cos(sqrt(lam) t) - 1)/lam, and
kirchhoff_3d / poisson_2d return the wave field matching that factor; the
raw positive ball integral is -4*pi times the n=3 wave field.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

import numpy as np

from .specfun import (
    AccuracyError,
    bessel_j,
    gamma_fn,
    gauss_legendre,
    polar_rule,
    quad_adaptive,
    sphere_surface,
)

_LAMBDA_TOL = 1e-10

# Gauss-Legendre orders of the polar rule on [0, pi], shared by every n
_POLAR_LADDER = (16, 24, 32, 48, 64, 96, 128, 192)
_RADIAL_LADDER = (32, 48, 64, 96)


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
    return 2.0 ** ((n - 2) / 2.0) * gamma_fn(n / 2.0) * sphere_surface(n)


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
    """int over the unit sphere of phi(x + s omega) d omega, for each s in radii.

    In a frame whose pole is k/|k|, each wave integrates to
    amp cos(<k, x> + phase) |S^(n-2)| int_0^pi sin^(n-2)(t) cos(s |k| cos t) dt.
    Every |k| is sqrt(lambda), so the waves' factors sum to phi(x), taken
    once, times ``polar_rule(n, order)``: Gauss-Legendre on [0, pi] with
    weights w_t sin^(n-2)(t) |S^(n-2)|. The sums are even in s.
    """
    rule = polar_rule(phi.dim, order)
    radii = np.asarray(radii, dtype=float)
    arg = np.multiply.outer(radii * math.sqrt(phi.lam), np.cos(rule.nodes))
    return phi.eval(x) * (np.cos(arg) @ rule.weights)


def _polar_orders(bandwidth: float, rungs: int) -> tuple:
    """``rungs`` successive ``_POLAR_LADDER`` orders, from the first of at
    least bandwidth + 16 (or the top ``rungs``), for shells whose phases
    s sqrt(lambda) stay within bandwidth.

    Order p resolves the polar integral to rounding for phases up to about
    p - 24 (n <= 12), so the first rung is close and the next one is there.
    """
    start = min(bisect_left(_POLAR_LADDER, bandwidth + 16.0), len(_POLAR_LADDER) - rungs)
    return _POLAR_LADDER[start : start + rungs]


def _converged_shell(phi: PlaneWaveEigen, x, s: float, tol: float):
    """(order, average) at the first ``_POLAR_LADDER`` order where the
    average of phi over the sphere of radius s about x agrees with the
    previous order's within tol (or within machine noise for the wave
    amplitudes).

    Raises AccuracyError, with the top order's average as its estimate, if
    no order does.
    """
    area = sphere_surface(phi.dim)
    floor = 8e-16 * (1.0 + _wave_scale(phi))
    prev = None
    for order in _POLAR_LADDER:
        val = float(_shell_sums(phi, x, [s], order)[0]) / area
        if prev is not None and abs(val - prev) <= max(tol * (1.0 + abs(val)), floor):
            return order, val
        prev = val
    raise AccuracyError(
        f"shell average did not converge to tol={tol:g} "
        f"(n={phi.dim}, s={s:g}, lambda={phi.lam:g})",
        estimate=prev,
    )


def radial_average(phi, x, s: float, tol: float = 1e-10) -> float:
    """Average of phi over the sphere of radius s centered at x.

    The polar rule of ``_shell_sums`` with its order climbing
    ``_POLAR_LADDER`` until two successive estimates agree within tol (or
    within machine noise for the wave amplitudes); the last estimate is
    returned. Raises AccuracyError if the ladder runs out first.
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

    Computed as the nested quadrature n omega_n int_0^r s * Av(s) ds: a
    radial Gauss-Legendre rule whose orders climb ``_RADIAL_LADDER`` in step
    with the polar orders of ``_polar_orders(r sqrt(lambda))``, until two
    successive estimates agree within tol/2 each. One estimate takes the
    shell sums at all its radial nodes from one ``_shell_sums`` call.

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
        shells = _shell_sums(phi, x, rule.nodes, p)  # = n omega_n Av(s)
        return float(np.dot(rule.weights * rule.nodes, shells))

    prev = None
    for q, p in zip(_RADIAL_LADDER, _polar_orders(r * math.sqrt(phi.lam), len(_RADIAL_LADDER))):
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
    """R at r-h, r, r+h with R(s) = n omega_n s Av(s), on one shared rule.

    The polar order is chosen once, at radius r, by the convergence ladder;
    the three stencil radii then reuse that rule, so the (smooth) quadrature
    error largely cancels in the finite differences instead of being
    amplified by 1/h^2. Av is even in s, so R is odd and s * Av(s) holds at
    a stencil radius below 0 too. Raises AccuracyError if the ladder runs
    out.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-4 * max(1.0, r)
    order, _ = _converged_shell(phi, x, r, tol=1e-11)
    radii = np.array([r - h, r, r + h])
    rm, r0, rp = (float(v) for v in radii * _shell_sums(phi, x, radii, order))
    return rm, r0, rp, h


def ode_residual_R(n: int, phi: PlaneWaveEigen, x, r: float) -> float:
    """Residual of r^2 R'' + (n-3) r R' - (n-3) R + lambda r^2 R at r.

    R(r) = n omega_n r Av(r) is the derivative profile of the ball integral;
    derivatives are central differences with step 1e-4 * max(1, r). Returns
    the raw combination; compare against the scale r^2 |R''| + |R|. Raises
    AccuracyError if the shell average at r does not converge.
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
    """The comparison scale r^2 |R''| + |R| for ode_residual_R.

    Raises AccuracyError if the shell average at r does not converge.
    """
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
    and the angle is taken by each level's n = 2 shell sums at the radii
    (t - s) rho, one ``_shell_sums`` call per level. The time, radial and
    polar orders climb a three-rung ladder until two estimates agree within
    tol/2; the polar orders are ``_polar_orders(t sqrt(lambda_max))``, as no
    shell's phase s |k| exceeds that. Orientation matches wave_factor, as
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
    bandwidth = t * math.sqrt(max(p.lam for _, p in parts))

    def attempt(n_psi: int, q: int, p: int) -> float:
        # (1/2 pi) int_0^t radius int over the unit disk of
        # f(x + radius z) (1 - |z|^2)^(-1/2) dz ds, radius = t - s
        time_rule = gauss_legendre(q, 0.0, t)
        radius = t - time_rule.nodes
        disk = gauss_legendre(n_psi, 0.0, 0.5 * math.pi)
        rho = np.sin(disk.nodes)
        w_psi = disk.weights * rho  # rho drho / sqrt(1-rho^2) = sin psi dpsi
        radii = np.multiply.outer(radius, rho)
        circles = sum(coef * _shell_sums(eigen, x, radii, p) for coef, eigen in parts)
        return float((time_rule.weights * radius) @ circles @ w_psi) / (2.0 * math.pi)

    prev = None
    for (n_psi, q), p in zip(((16, 48), (24, 72), (36, 108)), _polar_orders(bandwidth, 3)):
        val = attempt(n_psi, q, p)
        if prev is not None and abs(val - prev) <= 0.5 * tol * (1.0 + abs(val)):
            return -val
        prev = val
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
    return PlaneWaveEigen(data["dim"], float(data["lambda"]), waves)


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
    return EigenMix(data["dim"], parts)


def eigen_to_json(phi: PlaneWaveEigen) -> str:
    return json.dumps(eigen_to_dict(phi))


def eigen_from_json(text: str) -> PlaneWaveEigen:
    return eigen_from_dict(json.loads(text))


def mix_to_json(mix: EigenMix) -> str:
    return json.dumps(mix_to_dict(mix))


def mix_from_json(text: str) -> EigenMix:
    return mix_from_dict(json.loads(text))
