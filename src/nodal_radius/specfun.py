"""Self-contained special functions and quadrature.

Everything downstream funnels through this module: Bessel J of real order
and its first positive zero, Gegenbauer (ultraspherical) polynomials and
their largest roots, the Gamma function, unit-ball volume constants,
adaptive 1D Gauss-Legendre quadrature with endpoint-singularity handling,
and ``polar_rule``, the one rule for the surface measure of a sphere in
the angle from a pole.

All functions are pure and reentrant; cached quadrature rules are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


class AccuracyError(ArithmeticError):
    """Raised when a quadrature cannot meet the requested tolerance.

    Carries the best available estimate in ``estimate`` and the estimated
    error in ``error``.
    """

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


# Lanczos g=7, 9-term coefficients (double precision quality).
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0, via the Lanczos approximation."""
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise ValueError(f"gammaln requires finite x > 0, got {x!r}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - gammaln(1.0 - x)
    y = x - 1.0
    a = _LANCZOS[0]
    t = y + 7.5
    for i in range(1, 9):
        a += _LANCZOS[i] / (y + i)
    return 0.5 * math.log(2.0 * math.pi) + (y + 0.5) * math.log(t) - t + math.log(a)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x > 0.

    Relative error is ~1e-15 for moderate arguments and stays below 1e-13
    over the whole double range; overflows to inf above x ~ 171.6.
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"gamma_fn requires a real number, got {type(x).__name__}")
    x = float(x)
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise ValueError(f"gamma_fn requires finite x > 0, got {x!r}")
    if x > 141.0:
        # direct power t**(x-0.5) would overflow before Gamma itself does
        try:
            return math.exp(gammaln(x))
        except OverflowError:
            return math.inf
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    y = x - 1.0
    a = _LANCZOS[0]
    t = y + 7.5
    for i in range(1, 9):
        a += _LANCZOS[i] / (y + i)
    return math.sqrt(2.0 * math.pi) * t ** (y + 0.5) * math.exp(-t) * a


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"ball_volume requires an integer n >= 1, got {n!r}")
    return math.pi ** (n / 2.0) / gamma_fn(n / 2.0 + 1.0)


def sphere_surface(n: int) -> float:
    """Surface area of the unit sphere in R^n, i.e. n * ball_volume(n)."""
    return n * ball_volume(n)


# ----------------------------------------------------------------------
# Bessel J of real order
# ----------------------------------------------------------------------

_SERIES_AMP_LIMIT = 1.0e3  # max tolerated peak-term / result amplification
_MAX_ORDER = 120.0  # Miller normalization coefficients overflow beyond this


def _bessel_series(nu: float, x: float):
    """Ascending power series; returns (value, cancellation amplification)."""
    h = 0.5 * x
    lt0 = nu * math.log(h) - gammaln(nu + 1.0)
    if lt0 < -745.0:
        return 0.0, 1.0  # underflow region: J is (sub)denormal
    term = math.exp(lt0)
    total = term
    peak = abs(term)
    x2 = h * h
    m = 0
    while m < 600:
        m += 1
        term *= -x2 / (m * (m + nu))
        total += term
        at = abs(term)
        if at > peak:
            peak = at
        if at < 1e-18 * peak and m > h:
            break
    return total, peak / max(abs(total), 1e-300)


def _bessel_miller(nu: float, x: float) -> float:
    """Backward-recurrence evaluation normalized by sum_k c_k J_{nu+2k} = (x/2)^nu."""
    top = max(nu, x)
    k_hi = int(top + 12.0 * math.sqrt(top + 2.0) + 18.0)
    if k_hi % 2 == 1:
        k_hi += 1
    j_next = 0.0
    j_cur = 1e-30
    even = np.empty(k_hi // 2 + 1)
    i = k_hi
    while i >= 0:
        if i % 2 == 0:
            even[i // 2] = j_cur
        j_prev = (2.0 * (nu + i) / x) * j_cur - j_next
        j_next, j_cur = j_cur, j_prev
        if abs(j_cur) > 1e250:
            j_cur *= 1e-250
            j_next *= 1e-250
            even *= 1e-250
        i -= 1
    # c_0 = Gamma(nu+1) (the nu*Gamma(nu) limit), c_1/c_0 = nu+2, and for k >= 2
    # c_k/c_{k-1} = (nu+2k)/(nu+2k-2) * (nu+k-1)/k.
    norm = even[0]
    q = 1.0
    for k in range(1, k_hi // 2 + 1):
        if k == 1:
            q *= nu + 2.0
        else:
            q *= ((nu + 2.0 * k) / (nu + 2.0 * k - 2.0)) * ((nu + k - 1.0) / k)
        norm += q * even[k]
    scale = nu * math.log(0.5 * x) - gammaln(nu + 1.0)
    return even[0] / norm * math.exp(scale)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), real order nu >= 0, x >= 0.

    Absolute error <= 1e-12 for x <= 200 and nu <= 120 (validated to ~2e-14
    against high-precision references). Small arguments go through the
    ascending series; a cancellation guard reroutes unstable cases to a
    backward-recurrence (Miller) evaluation.
    """
    nu = float(nu)
    x = float(x)
    if math.isnan(nu) or math.isinf(nu) or nu < 0.0:
        raise ValueError(f"bessel_j requires finite order nu >= 0, got {nu!r}")
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x!r}")
    if nu > _MAX_ORDER:
        raise ValueError(f"bessel_j supports orders nu <= {_MAX_ORDER}, got {nu!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= max(12.0, 2.0 * nu):
        value, amp = _bessel_series(nu, x)
        if amp <= _SERIES_AMP_LIMIT:
            return value
    return _bessel_miller(nu, x)


def bessel_first_zero(nu: float, tol: float = 1e-12) -> float:
    """Smallest strictly positive zero j_{nu,1} of J_nu.

    Sign-bracketing scan with step 0.25 starting at max(nu, 0.1) -- the first
    zero always exceeds nu and consecutive zeros are more than 0.5 apart, so
    the scan cannot skip it -- followed by bisection to ``tol``.
    """
    nu = float(nu)
    if math.isnan(nu) or math.isinf(nu) or nu < 0.0:
        raise ValueError(f"bessel_first_zero requires finite nu >= 0, got {nu!r}")
    t = max(nu, 0.1)
    f = bessel_j(nu, t)
    while True:
        t2 = t + 0.25
        f2 = bessel_j(nu, t2)
        if f2 == 0.0:
            return t2
        if f > 0.0 and f2 < 0.0:
            lo, hi = t, t2
            break
        t, f = t2, f2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(nu, mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Gegenbauer (ultraspherical) polynomials
# ----------------------------------------------------------------------


def gegenbauer(m: int, lam: float, t):
    """C_m^(lam)(t) by the three-term recurrence, vectorized over t.

    A scalar t (a Python or numpy float, or a 0-d array) runs the same
    recurrence on Python floats, after the same range check and clip as an
    array. Its value is bit-identical to that of the one-element array
    ``[t]``, at a few microseconds a call instead of one numpy dispatch per
    step; root scans, bisections and adaptive quadrature nodes make one call
    per point.

    Parameters
    ----------
    m : int >= 0
        Polynomial degree.
    lam : float > -1/2
        Ultraspherical parameter.
    t : float or ndarray, |t| <= 1
        Evaluation points; extrapolation outside [-1, 1] is rejected.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"gegenbauer requires integer degree m >= 0, got {m!r}")
    lam = float(lam)
    if not lam > -0.5:
        raise ValueError(f"gegenbauer requires lam > -1/2, got {lam!r}")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        x = float(arr)
        if abs(x) > 1.0 + 1e-14:
            raise ValueError("gegenbauer evaluated outside [-1, 1]")
        x = min(max(x, -1.0), 1.0)
    else:
        if np.any(np.abs(arr) > 1.0 + 1e-14):
            raise ValueError("gegenbauer evaluated outside [-1, 1]")
        x = np.clip(arr, -1.0, 1.0)
    if m == 0:
        return 1.0 if scalar else np.ones_like(x)
    c_prev = 1.0
    c_cur = 2.0 * lam * x
    for j in range(2, m + 1):
        c_cur, c_prev = (
            (2.0 * (j + lam - 1.0) * x * c_cur - (j + 2.0 * lam - 2.0) * c_prev) / j,
            c_cur,
        )
    return c_cur


def gegenbauer_root_below(m: int, lam: float, start: float, tol: float) -> float:
    """Largest root of C_m^(lam) in [-1, start], or -1.0 if it has none there.

    Scans down from ``start`` (clamped at -1) with step 1/(m+lam)^2 --
    smaller than the minimal gap between the top roots, so the first sign
    change met brackets the largest root below ``start`` -- then bisects the
    bracket until it is narrower than ``tol`` and returns its midpoint. A
    scan point where C_m is exactly 0 is returned as is. To step past a
    known root x_k, start at x_k - 1/(m+lam)^2, so that the scan does not
    bracket x_k again.
    """
    step = 1.0 / (m + lam) ** 2
    t = max(start, -1.0)
    f = gegenbauer(m, lam, t)
    while t > -1.0:
        t2 = max(t - step, -1.0)
        f2 = gegenbauer(m, lam, t2)
        if f2 == 0.0:
            return t2
        if f * f2 < 0.0:
            break
        t, f = t2, f2
    else:
        return -1.0
    lo, hi, f_lo = t2, t, f2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = gegenbauer(m, lam, mid)
        if fm == 0.0:
            return mid
        if fm * f_lo > 0.0:
            lo, f_lo = mid, fm
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def gegenbauer_max_root(m: int, lam: float, tol: float = 1e-12) -> float:
    """Largest root x_1 of C_m^(lam) in (-1, 1).

    ``gegenbauer_root_below`` from t = 1 to ``tol``. Satisfies the
    Driver-Jordaan bound x_1 > 1 - (lam+3)^2/m^2 whenever m > lam + 3.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"gegenbauer_max_root requires integer m >= 1, got {m!r}")
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"gegenbauer_max_root requires lam > 0, got {lam!r}")
    if m == 1:
        return 0.0  # C_1 = 2*lam*t
    return gegenbauer_root_below(m, lam, 1.0, tol)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuadRule:
    """A positive quadrature rule on an interval (a, b).

    ``order`` Gauss-Legendre points integrate polynomials of degree up to
    2*order - 1 exactly; nodes are strictly interior and weights positive.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=64)
def _gl_cache(order: int):
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(order: int, a: float = -1.0, b: float = 1.0) -> QuadRule:
    """Gauss-Legendre rule with ``order`` nodes mapped onto (a, b)."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order!r}")
    if not b > a:
        raise ValueError(f"empty interval ({a!r}, {b!r})")
    ref_nodes, ref_weights = _gl_cache(int(order))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid + half * ref_nodes
    weights = half * ref_weights
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(nodes=nodes, weights=weights, order=int(order))


def polar_rule(n: int, order: int) -> QuadRule:
    """Rule in the polar angle t on [0, pi] for the surface measure of S^(n-1).

    The weights are w_t sin^(n-2)(t) |S^(n-2)|, the Gauss-Legendre weights
    times the measure of the ring at angle t from a pole, so for any pole p
    the sum of weights * h(cos t) over the nodes is int over S^(n-1) of
    h(<omega, p>) d omega (for n = 2, 2 w_t: the circle's two arcs). Both
    the spherical means of plane waves and the direct sphere convolution
    take their rings from this rule.
    """
    if n < 2:
        raise ValueError(f"the polar rule needs n >= 2, got {n!r}")
    rule = gauss_legendre(order, 0.0, math.pi)
    weights = rule.weights * np.sin(rule.nodes) ** (n - 2) * sphere_surface(n - 1)
    weights.setflags(write=False)
    return QuadRule(nodes=rule.nodes, weights=weights, order=rule.order)


def _panel_estimates(f, a: float, b: float):
    lo = gauss_legendre(10, a, b)
    hi = gauss_legendre(21, a, b)
    coarse = float(np.dot(lo.weights, [f(t) for t in lo.nodes]))
    fine = float(np.dot(hi.weights, [f(t) for t in hi.nodes]))
    return fine, abs(fine - coarse)


def _adaptive(f, a, b, tol, depth, max_depth):
    value, err = _panel_estimates(f, a, b)
    if err <= tol or err <= 1e-16 * (1.0 + abs(value)):
        return value, err
    if depth >= max_depth:
        raise AccuracyError(
            f"adaptive quadrature stalled on [{a}, {b}] (err ~ {err:.2e})",
            estimate=value,
            error=err,
        )
    mid = 0.5 * (a + b)
    v1, e1 = _adaptive(f, a, mid, 0.5 * tol, depth + 1, max_depth)
    v2, e2 = _adaptive(f, mid, b, 0.5 * tol, depth + 1, max_depth)
    return v1 + v2, e1 + e2


def quad_adaptive(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 40,
    alpha_a: float = 0.0,
    alpha_b: float = 0.0,
) -> float:
    """Adaptive Gauss-Legendre integral of f over [a, b].

    Estimated absolute error <= tol (panels compare 10- vs 21-point rules and
    bisect until the local budget is met; depth limit 40). Integrable endpoint
    singularities of type (t-a)^alpha_a or (b-t)^alpha_b with alpha > -1 are
    declared by the caller and removed by the power substitution
    t = a + (b-a) s^(1/(1+alpha)).

    Raises
    ------
    AccuracyError
        Carrying the best estimate, when a panel cannot converge.
    """
    if not b > a:
        raise ValueError(f"quad_adaptive requires a < b, got [{a!r}, {b!r}]")
    if alpha_a <= -1.0 or alpha_b <= -1.0:
        raise ValueError("endpoint exponents must be > -1 for integrability")
    if alpha_a != 0.0 and alpha_b != 0.0:
        mid = 0.5 * (a + b)
        left = quad_adaptive(f, a, mid, 0.5 * tol, max_depth, alpha_a=alpha_a)
        right = quad_adaptive(f, mid, b, 0.5 * tol, max_depth, alpha_b=alpha_b)
        return left + right
    if alpha_b != 0.0:
        # mirror onto a left-endpoint singularity
        return quad_adaptive(
            lambda u: f(a + b - u), a, b, tol, max_depth, alpha_a=alpha_b
        )
    if alpha_a != 0.0:
        beta = 1.0 / (1.0 + alpha_a)
        span = b - a

        def g(s):
            return f(a + span * s**beta) * span * beta * s ** (beta - 1.0)

        value, _ = _adaptive(g, 0.0, 1.0, tol, 0, max_depth)
        return value
    value, _ = _adaptive(f, a, b, tol, 0, max_depth)
    return value
