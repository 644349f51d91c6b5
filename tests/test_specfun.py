"""Tests for the special-function layer.

Frozen expected values were computed with mpmath at 30 digits (besselj,
besseljzero, gamma, and an exact-arithmetic Gegenbauer recurrence); closed
trigonometric forms cover the half-integer Bessel orders.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_radius import specfun
from nodal_radius.specfun import (
    AccuracyError,
    ball_volume,
    bessel_first_zero,
    bessel_j,
    gamma_fn,
    gauss_legendre,
    gegenbauer,
    gegenbauer_max_root,
    gegenbauer_root_below,
    quad_adaptive,
    sphere_surface,
)

J01 = 2.404825557695773  # mpmath besseljzero(0, 1)


class TestGamma:
    def test_gamma_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_gamma_2p5(self):
        # recursive Gamma(x+1) = x Gamma(x) from the Gamma(1/2) closed form:
        # Gamma(2.5) = 1.5 * 0.5 * sqrt(pi)
        assert gamma_fn(2.5) == pytest.approx(1.5 * 0.5 * math.sqrt(math.pi), rel=1e-13)
        assert gamma_fn(2.5) == pytest.approx(1.3293403881791370, rel=1e-13)

    def test_recursion_property(self):
        for x in [0.1, 0.7, 1.3, 4.2, 17.9, 60.5, 123.4]:
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_integer_factorials(self):
        assert gamma_fn(6.0) == pytest.approx(120.0, rel=1e-13)
        assert gamma_fn(11.0) == pytest.approx(3628800.0, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            gamma_fn(bad)


class TestBallVolume:
    def test_interval(self):
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)

    def test_disk(self):
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)

    def test_ball(self):
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_surface_is_n_omega_n(self):
        for n in range(1, 12):
            assert sphere_surface(n) == pytest.approx(n * ball_volume(n), rel=1e-14)
        # S^2 in R^3 has area 4 pi
        assert sphere_surface(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ball_volume(0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    def test_half_order_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x) vanishes at pi
        assert abs(bessel_j(0.5, math.pi)) <= 1e-13

    def test_j1_of_3(self):
        # mpmath: besselj(1, 3) = 0.339058958525936458925514597206
        assert bessel_j(1.0, 3.0) == pytest.approx(0.33905895852593646, abs=1e-13)

    @pytest.mark.parametrize(
        "nu,x,expected",
        [
            (0.0, 2.0, 0.22389077914123567),
            (0.0, 50.0, 0.055812327669251815),
            (0.0, 200.0, -0.015437439930565092),
            (7.0, 100.0, 0.07017269098721272),
            (12.5, 40.0, -0.11677617976922572),
            (31.0, 36.0, 0.10782991286549152),
            (35.0, 60.0, -0.06711417722833836),
            (2.0, 150.0, -9.451180670874022e-05),
        ],
    )
    def test_frozen_reference_values(self, nu, x, expected):
        assert bessel_j(nu, x) == pytest.approx(expected, abs=1e-12)

    def test_half_integer_closed_forms(self):
        # J_{1/2} and J_{3/2} in closed trigonometric form over [0.1, 50]
        for x in np.linspace(0.1, 50.0, 173):
            c = math.sqrt(2.0 / (math.pi * x))
            assert bessel_j(0.5, x) == pytest.approx(c * math.sin(x), abs=1e-12)
            assert bessel_j(1.5, x) == pytest.approx(
                c * (math.sin(x) / x - math.cos(x)), abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0.0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(121.0, 1.0)


class TestBesselFirstZero:
    def test_j0_zero(self):
        z = bessel_first_zero(0.0)
        assert z == pytest.approx(J01, abs=1e-10)
        assert 2.404 < z < 2.405

    def test_half_order_zero_is_pi(self):
        assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)

    def test_three_halves(self):
        # root of tan(x) = x: mpmath besseljzero(1.5, 1)
        assert bessel_first_zero(1.5) == pytest.approx(4.493409457909064, abs=1e-10)

    def test_j1_and_j2(self):
        assert bessel_first_zero(1.0) == pytest.approx(3.831705970207512, abs=1e-10)
        assert bessel_first_zero(2.0) == pytest.approx(5.135622301840683, abs=1e-10)

    def test_zero_is_actually_a_zero(self):
        for nu in [0.0, 0.5, 1.0, 3.0, 7.5, 16.0, 31.0]:
            z = bessel_first_zero(nu)
            assert abs(bessel_j(nu, z)) < 1e-11
            # strictly positive and beyond the order
            assert z > max(nu, 0.0)

    def test_lemma_one_bound(self):
        # j_{d/2-1,1} <= (j01/2) d for every d in 2..64
        j0 = bessel_first_zero(0.0)
        for d in range(2, 65):
            assert bessel_first_zero(d / 2.0 - 1.0) <= 0.5 * j0 * d


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0, 2.0, 0.3) == 1.0

    def test_degree_one(self):
        assert gegenbauer(1, 2.0, 0.3) == pytest.approx(1.2, rel=1e-14)

    def test_degree_two_closed_form(self):
        # C_2^lam(t) = 2 lam (lam+1) t^2 - lam
        for lam in [0.5, 1.0, 2.5]:
            for t in [-0.9, -0.2, 0.0, 0.4, 1.0]:
                expected = 2.0 * lam * (lam + 1.0) * t * t - lam
                assert gegenbauer(2, lam, t) == pytest.approx(expected, abs=1e-13)

    def test_frozen_oracle_values(self):
        # exact-arithmetic recurrence at 30 digits
        assert gegenbauer(5, 1.5, 0.7) == pytest.approx(-3.26468625, abs=1e-12)
        assert gegenbauer(12, 0.5, 0.3) == pytest.approx(-0.18100217969140723, abs=1e-12)
        assert gegenbauer(8, 4.0, 0.95) == pytest.approx(2938.18497765, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        t = np.linspace(-1.0, 1.0, 11)
        vec = gegenbauer(7, 1.5, t)
        for i, ti in enumerate(t):
            assert vec[i] == pytest.approx(gegenbauer(7, 1.5, float(ti)), rel=1e-14)

    def test_orthogonality_against_weight(self):
        # int C_m C_k (1-t^2)^(lam-1/2) dt = 0 for m != k, via quad_adaptive
        for lam in [1.0, 1.5]:
            alpha = lam - 0.5
            for m, k in [(1, 2), (3, 5), (2, 8), (7, 12), (0, 4)]:
                val = quad_adaptive(
                    lambda t: gegenbauer(m, lam, t)
                    * gegenbauer(k, lam, t)
                    * (1.0 - t * t) ** alpha,
                    -1.0,
                    1.0,
                    tol=1e-11,
                    alpha_a=alpha,
                    alpha_b=alpha,
                )
                assert abs(val) <= 1e-9

    def test_extrapolation_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(3, 1.0, 1.5)

    def test_magnitude_audit(self):
        # recurrence magnitudes stay finite in double range for m <= 60, lam <= 32
        t = np.linspace(-1.0, 1.0, 201)
        for lam in [0.5, 8.0, 32.0]:
            vals = gegenbauer(60, lam, t)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) < 1e300


class TestGegenbauerScalarPath:
    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(0, 80),
        lam=st.floats(-0.5, 6.0, exclude_min=True),
        x=st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
    )
    def test_bit_identical_to_one_element_array(self, m, lam, x):
        scalar = gegenbauer(m, lam, x)
        assert isinstance(scalar, float)
        assert scalar == gegenbauer(m, lam, np.array([x]))[0]
        assert gegenbauer(m, lam, np.float64(x)) == scalar
        assert gegenbauer(m, lam, np.array(x)) == scalar

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(0, 80),
        lam=st.floats(-0.5, 6.0, exclude_min=True),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_both_paths_reject_just_outside(self, m, lam, sign):
        x = sign * math.nextafter(1.0 + 1e-14, 2.0)
        with pytest.raises(ValueError):
            gegenbauer(m, lam, x)
        with pytest.raises(ValueError):
            gegenbauer(m, lam, np.array([x]))

    def test_clip_inside_the_tolerance(self):
        x = 1.0 + 1e-14
        assert gegenbauer(9, 1.5, x) == gegenbauer(9, 1.5, 1.0)
        assert gegenbauer(9, 1.5, -x) == gegenbauer(9, 1.5, np.array([-1.0]))[0]


class TestGegenbauerRootBelow:
    def test_no_root_returns_minus_one(self):
        # C_1 = 2 lam t: nothing below its root 0
        assert gegenbauer_root_below(1, 0.5, 0.0 - 1.0 / 1.5**2, 1e-13) == -1.0
        assert gegenbauer_root_below(1, 0.5, -1.0, 1e-13) == -1.0

    def test_walks_down_the_roots(self):
        # C_4^1 = U_4 has roots cos(k pi / 5), k = 1..4
        m, lam = 4, 1.0
        x = 1.0
        for k in range(1, 5):
            x = gegenbauer_root_below(m, lam, x, 1e-13)
            assert x == pytest.approx(math.cos(k * math.pi / 5.0), abs=1e-12)
            x -= 1.0 / (m + lam) ** 2
        assert gegenbauer_root_below(m, lam, x, 1e-13) == -1.0

    def test_max_root_is_the_scan_from_one(self):
        for m, lam in [(2, 1.0), (7, 0.5), (30, 2.0)]:
            assert gegenbauer_max_root(m, lam) == gegenbauer_root_below(m, lam, 1.0, 1e-12)


class TestGegenbauerMaxRoot:
    def test_degree_one(self):
        assert gegenbauer_max_root(1, 2.0) == 0.0

    def test_degree_two(self):
        # C_2^1(t) = 4 t^2 - 1 has largest root 1/2
        assert gegenbauer_max_root(2, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_driver_jordaan_bound(self):
        for m, lam in [(50, 20.0), (20, 0.5), (40, 4.0), (12, 0.5), (50, 2.0)]:
            x1 = gegenbauer_max_root(m, lam)
            assert 0.0 < x1 < 1.0
            if m > lam + 3.0:
                assert x1 > 1.0 - (lam + 3.0) ** 2 / m**2

    @pytest.mark.parametrize(
        "m,lam,expected",
        [
            # polished with an exact-arithmetic recurrence + mpmath findroot
            (5, 1.5, 0.830223896278567),
            (50, 20.0, 0.935834052684),
            (20, 0.5, 0.993128599185094),
            (40, 4.0, 0.987389058457484),
        ],
    )
    def test_frozen_root_values(self, m, lam, expected):
        assert gegenbauer_max_root(m, lam) == pytest.approx(expected, abs=1e-10)

    def test_root_is_simple(self):
        for m, lam in [(6, 0.5), (11, 1.5), (30, 3.0)]:
            x1 = gegenbauer_max_root(m, lam)
            left = gegenbauer(m, lam, x1 - 1e-6)
            right = gegenbauer(m, lam, min(x1 + 1e-6, 1.0))
            assert left * right < 0.0


class TestQuadrature:
    def test_rule_invariants(self):
        for order in [4, 10, 21]:
            rule = gauss_legendre(order, 0.0, 2.0)
            assert np.all(rule.weights > 0.0)
            assert np.all((rule.nodes > 0.0) & (rule.nodes < 2.0))
            # exact for monomials up to degree 2*order - 1
            for p in range(2 * order):
                got = float(np.dot(rule.weights, rule.nodes**p))
                exact = 2.0 ** (p + 1) / (p + 1)
                assert got == pytest.approx(exact, rel=1e-12)

    def test_sine_integral(self):
        assert quad_adaptive(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_constant(self):
        assert quad_adaptive(lambda t: 1.0, -1.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_bessel_antiderivative_identity(self):
        # int_0^{j01} J_0(s) s ds = j01 * J_1(j01); frozen from mpmath:
        # 2.404825557695773 * 0.5191474972894669 = 1.2484591696955066
        val = quad_adaptive(lambda s: bessel_j(0.0, s) * s, 0.0, J01, tol=1e-11)
        assert val == pytest.approx(1.2484591696955066, abs=1e-9)

    def test_endpoint_singularity(self):
        # int_0^1 t^(-1/2) dt = 2 with a declared alpha = -1/2 endpoint
        val = quad_adaptive(lambda t: t**-0.5, 0.0, 1.0, tol=1e-11, alpha_a=-0.5)
        assert val == pytest.approx(2.0, abs=1e-9)
        # and at the right endpoint: int_0^1 (1-t)^(-1/3) dt = 3/2
        val = quad_adaptive(
            lambda t: (1.0 - t) ** (-1.0 / 3.0), 0.0, 1.0, tol=1e-11, alpha_b=-1.0 / 3.0
        )
        assert val == pytest.approx(1.5, abs=1e-9)

    def test_accuracy_error_carries_estimate(self):
        # an undeclared endpoint singularity cannot converge at depth 8
        with pytest.raises(AccuracyError) as exc:
            quad_adaptive(lambda t: t**-0.9, 1e-300, 1.0, tol=1e-13, max_depth=8)
        assert exc.value.estimate is not None

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            quad_adaptive(math.sin, 1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    nu=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 7.0]),
    x=st.floats(min_value=0.05, max_value=40.0),
)
def test_bessel_recurrence_property(nu, x):
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x) holds for all nu >= 1
    lhs = bessel_j(nu, x) + bessel_j(nu + 2.0, x)
    rhs = (2.0 * (nu + 1.0) / x) * bessel_j(nu + 1.0, x)
    assert lhs == pytest.approx(rhs, abs=2e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=85.0))
def test_gamma_reflection_like_duplication(x):
    # Legendre duplication: Gamma(x) Gamma(x+1/2) = 2^(1-2x) sqrt(pi) Gamma(2x)
    lhs = gamma_fn(x) * gamma_fn(x + 0.5)
    rhs = 2.0 ** (1.0 - 2.0 * x) * math.sqrt(math.pi) * gamma_fn(2.0 * x)
    assert lhs == pytest.approx(rhs, rel=1e-11)
