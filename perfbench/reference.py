"""Reference computations made apart from the program under test.

Nothing here imports ``nodal_radius``: every value is rebuilt from the
instance description (frequencies, amplitudes, poles, eigenvalues) with
numpy and scipy, so a check that compares a program output with one of these
functions compares two independent routes.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.polynomial import legendre
from scipy import integrate, optimize, special


# ----------------------------------------------------------------------
# evaluators
# ----------------------------------------------------------------------


def cosine_sum(terms, pts: np.ndarray) -> np.ndarray:
    """sum amp * cos(2 pi <k, x> + phase) on an (N, d) array of torus points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    for k, amp, phase in terms:
        out += amp * np.cos(2.0 * math.pi * (pts @ np.asarray(k, dtype=float)) + phase)
    return out


def zonal_sum(terms, pts: np.ndarray) -> np.ndarray:
    """sum w * P_k(<x, pole>) on S^2 (the Gegenbauer C_k^(1/2) = Legendre P_k)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    for degree, pole, weight in terms:
        t = np.clip(pts @ np.asarray(pole, dtype=float), -1.0, 1.0)
        out += weight * special.eval_legendre(degree, t)
    return out


def plane_wave_sum(waves, pts: np.ndarray) -> np.ndarray:
    """sum amp * cos(<k, x> + phase) on an (N, n) array of points in R^n."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    for k, amp, phase in waves:
        out += amp * np.cos(pts @ np.asarray(k, dtype=float) + phase)
    return out


def fibonacci_sphere(n_points: int) -> np.ndarray:
    """The equal-area spiral the sphere search samples (documented layout)."""
    i = np.arange(n_points)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


# ----------------------------------------------------------------------
# theorem bounds, recomputed from the instance data
# ----------------------------------------------------------------------


def theorem1_bound(dim: int, freqs) -> float:
    """d^(3/2) * sum over distinct shells ||k|| of 1/||k||."""
    shells = {sum(int(c) ** 2 for c in k) for k in freqs}
    return dim**1.5 * sum(1.0 / math.sqrt(s) for s in shells)


def kozma_bound(freqs_both_signs) -> float:
    """(1/4) * sum over the full symmetric frequency set of 1/||k||."""
    return 0.25 * sum(1.0 / math.sqrt(sum(int(c) ** 2 for c in k)) for k in freqs_both_signs)


def theorem2_bound(dim: int, degrees) -> float:
    """pi^2 * d * sum over distinct degrees of 1/k."""
    return math.pi**2 * dim * sum(1.0 / k for k in set(degrees))


def theorem3_bound(lambdas) -> float:
    """2 pi * sum over distinct eigenvalue levels of lambda^(-1/2)."""
    return 2.0 * math.pi * sum(1.0 / math.sqrt(lam) for lam in lambdas)


# ----------------------------------------------------------------------
# exact radii of single-frequency instances
# ----------------------------------------------------------------------


def torus_single_radius(k) -> float:
    """cos(2 pi <k, x> + phase) keeps its sign on slabs of width 1/(2||k||)."""
    return 1.0 / (4.0 * math.sqrt(sum(int(c) ** 2 for c in k)))


def sphere_single_radius(degree: int) -> float:
    """P_k(<x, pole>) keeps its sign on the polar cap arccos(largest root of P_k)."""
    coef = np.zeros(degree + 1)
    coef[degree] = 1.0
    return math.acos(float(np.max(legendre.legroots(coef).real)))


# ----------------------------------------------------------------------
# Coulomb-kernel identity, spherical means and wave fields
# ----------------------------------------------------------------------


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def qn(n: int, u: float) -> float:
    """Q_n(u); closed form 4 pi (1 - cos u) for n = 3, quadrature otherwise."""
    if n == 3:
        return 4.0 * math.pi * (1.0 - math.cos(u))
    return qn_quad(n, u)


def qn_quad(n: int, u: float) -> float:
    """Q_n(u) = 2^((n-2)/2) Gamma(n/2) n omega_n int_0^u s^((4-n)/2) J_((n-2)/2)(s) ds."""
    nu = (n - 2) / 2.0
    expo = (4.0 - n) / 2.0
    val, _ = integrate.quad(
        lambda s: s**expo * special.jv(nu, s), 0.0, u, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return 2.0**nu * math.gamma(n / 2.0) * n * ball_volume(n) * val


def coulomb_ball(waves, lam: float, x, r: float) -> float:
    """int over B(x, r) of phi(y) |y - x|^(2-n) dy = Q_n(sqrt(lam) r)/lam * phi(x)."""
    x = np.asarray(x, dtype=float)
    return qn(x.size, math.sqrt(lam) * r) / lam * float(plane_wave_sum(waves, x[None, :])[0])


def spherical_mean(waves, lam: float, x, s: float) -> float:
    """Average of phi over the sphere of radius s about x:
    Gamma(n/2) (2/(sqrt(lam) s))^nu J_nu(sqrt(lam) s) phi(x), nu = (n-2)/2."""
    x = np.asarray(x, dtype=float)
    n = x.size
    nu = (n - 2) / 2.0
    z = math.sqrt(lam) * s
    factor = math.gamma(n / 2.0) * (2.0 / z) ** nu * special.jv(nu, z)
    return factor * float(plane_wave_sum(waves, x[None, :])[0])


def wave_field(levels, x, t: float) -> float:
    """sum over levels of (cos(sqrt(lam) t) - 1)/lam * phi_level(x)."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for lam, waves in levels:
        phi = float(plane_wave_sum(waves, x[None, :])[0])
        total += (math.cos(math.sqrt(lam) * t) - 1.0) / lam * phi
    return total


# ----------------------------------------------------------------------
# Funk-Hecke multipliers and the torus smoothing multiplier
# ----------------------------------------------------------------------


def bump_profile(center: float, half_width: float):
    """The C^2 bump (1 - ((t-c)/h)^2)^3 on [c-h, c+h]."""

    def g(t):
        u = (t - center) / half_width
        return (1.0 - u * u) ** 3 if abs(u) < 1.0 else 0.0

    return g


def funk_hecke(g, support, k: int, d: int, absval: bool = False) -> float:
    """surface(S^(d-2)) / C_k(1) * int_J g(t) C_k(t) (1 - t^2)^((d-3)/2) dt.

    With ``absval`` the integrand uses |C_k| and the result is the scale
    against which a vanishing multiplier is judged.
    """
    lam = (d - 2.0) / 2.0
    expo = (d - 3.0) / 2.0
    a, b = support

    def integrand(t):
        ck = special.eval_gegenbauer(k, lam, t)
        if absval:
            ck = abs(ck)
        return g(t) * ck * (1.0 - t * t) ** expo

    # split the support so every panel holds few oscillations of C_k; a
    # vanishing multiplier cannot meet a relative tolerance, so quad's
    # roundoff warning is expected there and silenced
    edges = np.linspace(a, b, max(2, k // 4 + 2))
    val = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            part, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
            val += part
    surface = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    return surface / special.eval_gegenbauer(k, lam, 1.0) * val


def bessel_zero(nu: float) -> float:
    """First positive zero of J_nu, bracketed between nu and nu + 4 (nu <= 2)."""
    return optimize.brentq(lambda z: special.jv(nu, z), max(nu, 0.5), nu + 4.0, xtol=1e-15)


def smoothing_multiplier(k, dim: int, top_norm: float) -> float:
    """Fourier multiplier of the ball indicator of radius j_{d/2,1}/(2 pi top_norm)."""
    delta = bessel_zero(dim / 2.0) / (2.0 * math.pi * top_norm)
    knorm = math.sqrt(sum(int(c) ** 2 for c in k))
    return delta ** (dim / 2.0) * knorm ** (-dim / 2.0) * special.jv(dim / 2.0, 2.0 * math.pi * knorm * delta)


def sharpness_ceiling(A: int, B: int) -> float:
    """Longest sign-free arc of a band-limited polynomial with spectrum in +-[A, A+B]."""
    return (B + 1.0) / (2.0 * A + B)
