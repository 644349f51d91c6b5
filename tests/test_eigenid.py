"""Tests for plane-wave eigenfunctions, the Coulomb-kernel identity, and waves."""

import math

import numpy as np
import pytest

from nodal_radius import eigenid
from nodal_radius.specfun import AccuracyError, bessel_j, gamma_fn, gauss_legendre, sphere_surface
from nodal_radius.eigenid import (
    EigenMix,
    PlaneWaveEigen,
    bound_theorem3,
    coulomb_ball_integral,
    eigen_from_json,
    eigen_to_json,
    kirchhoff_3d,
    mix_from_json,
    mix_to_json,
    ode_residual_R,
    poisson_2d,
    qn,
    radial_average,
    radial_profile_scale,
    verify_identity,
    wave_factor,
    wave_pde_residual,
)
from grid_reference import reference_sphere_grid

J0_AT_2 = 0.22389077914123567  # mpmath besselj(0, 2)


def plane_wave(n, lam, direction=None, amplitude=1.0, phase=0.0):
    k = np.zeros(n)
    if direction is None:
        k[0] = math.sqrt(lam)
    else:
        d = np.asarray(direction, float)
        k = d / np.linalg.norm(d) * math.sqrt(lam)
    return PlaneWaveEigen(n, lam, [(k, amplitude, phase)])


def random_eigen(rng, n, lam, n_waves=2):
    waves = []
    for _ in range(n_waves):
        d = rng.normal(size=n)
        k = d / np.linalg.norm(d) * math.sqrt(lam)
        waves.append((k, float(rng.normal()) or 1.0, float(rng.uniform(0, 2 * math.pi))))
    return PlaneWaveEigen(n, lam, waves)


class TestEval:
    def test_single_wave_at_origin(self):
        phi = plane_wave(3, 2.0)
        assert phi.eval(np.zeros(3)) == 1.0

    def test_quarter_period(self):
        lam = 4.0
        phi = plane_wave(3, lam)
        x = np.array([math.pi / (2.0 * math.sqrt(lam)) * 2.0 / 2.0, 0.0, 0.0])
        # <k, x> = sqrt(lam) * x_0 = pi/2
        x[0] = math.pi / 2.0 / math.sqrt(lam)
        assert phi.eval(x) == pytest.approx(0.0, abs=1e-15)

    def test_two_waves_sum(self):
        rng = np.random.default_rng(4)
        phi = random_eigen(rng, 3, 5.0, n_waves=2)
        x = rng.normal(size=3)
        expected = sum(
            a * math.cos(float(np.dot(k, x)) + p) for k, a, p in phi.waves
        )
        assert phi.eval(x) == pytest.approx(expected, abs=1e-14)

    def test_eigen_equation_fd(self):
        # -Lap(phi) = lam phi by central differences
        rng = np.random.default_rng(8)
        phi = random_eigen(rng, 2, 7.3, n_waves=3)
        x = rng.normal(size=2)
        h = 1e-4
        lap = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            lap += phi.eval(x + e) - 2.0 * phi.eval(x) + phi.eval(x - e)
        lap /= h * h
        assert -lap == pytest.approx(7.3 * phi.eval(x), abs=1e-5)

    def test_wavevector_norm_validated(self):
        with pytest.raises(ValueError):
            PlaneWaveEigen(2, 4.0, [(np.array([1.0, 0.0]), 1.0, 0.0)])


class TestEigenMix:
    def test_equal_lambda_parts_merge(self):
        a = plane_wave(2, 3.0, direction=[1, 0])
        b = plane_wave(2, 3.0, direction=[0, 1])
        c = plane_wave(2, 5.0, direction=[1, 1])
        mix = EigenMix(2, [(2.0, a), (1.5, b), (-1.0, c)])
        assert len(mix.parts) == 2
        assert mix.lambdas == (3.0, 5.0)
        x = np.array([0.3, -0.7])
        assert mix.eval(x) == pytest.approx(
            2.0 * a.eval(x) + 1.5 * b.eval(x) - c.eval(x), abs=1e-13
        )

    def test_levels_sorted_ascending(self):
        mix = EigenMix(
            2,
            [(1.0, plane_wave(2, 9.0)), (1.0, plane_wave(2, 1.0)), (1.0, plane_wave(2, 4.0))],
        )
        assert mix.lambdas == (1.0, 4.0, 9.0)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            EigenMix(2, [(0.0, plane_wave(2, 1.0))])


class TestQn:
    def test_vanishes_at_zero(self):
        for n in (3, 4, 5, 6):
            assert qn(n, 0.0) == 0.0

    def test_q3_closed_form(self):
        # Q_3(x) = 4 pi (1 - cos x); the quadrature path must reproduce it
        for x in np.linspace(0.05, 4.0 * math.pi, 37):
            expected = 4.0 * math.pi * (1.0 - math.cos(x))
            assert qn(3, float(x)) == pytest.approx(expected, abs=1e-9)

    def test_q4_bessel_antiderivative(self):
        # for n = 4 the integrand is exactly J_1 and int_0^2 J_1 = 1 - J_0(2)
        expected = eigenid.qn_prefactor(4) * (1.0 - J0_AT_2)
        assert qn(4, 2.0) == pytest.approx(expected, abs=1e-9)
        assert eigenid.qn_prefactor(4) == pytest.approx(4.0 * math.pi**2, rel=1e-13)

    def test_sn_initial_slope(self):
        # S(r) = r^((4-n)/2) J_((n-2)/2)(r) has S'(0+) = 2^(-(n-2)/2)/Gamma(n/2)
        r = 1e-4
        for n in range(3, 9):
            s_val = r ** ((4.0 - n) / 2.0) * bessel_j((n - 2.0) / 2.0, r)
            slope = s_val / r  # S(0) = 0
            expected = 2.0 ** (-(n - 2.0) / 2.0) / gamma_fn(n / 2.0)
            assert slope == pytest.approx(expected, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            qn(2, 1.0)
        with pytest.raises(ValueError):
            qn(3, -0.5)


def bessel_mean(n, z):
    """Spherical mean over S^(n-1) of cos(z <e, omega>) for a unit vector e:
    Gamma(n/2) (2/z)^((n-2)/2) J_((n-2)/2)(z)."""
    nu = (n - 2.0) / 2.0
    return gamma_fn(n / 2.0) * (2.0 / z) ** nu * bessel_j(nu, z)


class TestRadialAverage:
    def test_zero_radius(self):
        phi = plane_wave(3, 2.0, phase=0.4)
        x = np.array([0.1, 0.2, 0.3])
        assert radial_average(phi, x, 0.0) == phi.eval(x)

    def test_sinc_oracle_n3(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            lam = float(rng.uniform(0.5, 9.0))
            phi = random_eigen(rng, 3, lam, n_waves=1)
            x = rng.normal(size=3)
            for s in [0.3, 1.0, 2.4]:
                z = math.sqrt(lam) * s
                expected = phi.eval(x) * math.sin(z) / z
                assert radial_average(phi, x, s, tol=1e-11) == pytest.approx(
                    expected, abs=1e-8
                )

    def test_general_n_bessel_kernel(self):
        # spherical mean of a plane wave: Gamma(n/2) (2/z)^((n-2)/2) J_((n-2)/2)(z)
        rng = np.random.default_rng(25)
        for n in (4, 5):
            lam = 3.0
            phi = random_eigen(rng, n, lam, n_waves=1)
            x = rng.normal(size=n)
            s = 0.8
            z = math.sqrt(lam) * s
            assert radial_average(phi, x, s, tol=1e-11) == pytest.approx(
                phi.eval(x) * bessel_mean(n, z), abs=1e-8
            )
        # every n of one polar ladder, out to s sqrt(lambda) = 100
        for n in range(2, 13):
            for z in (0.3, 2.0, 9.0, 27.0, 60.0, 100.0):
                lam = float(rng.uniform(0.5, 9.0))
                phi = random_eigen(rng, n, lam, int(rng.integers(1, 3)))
                x = rng.normal(size=n)
                got = radial_average(phi, x, z / math.sqrt(lam), tol=1e-11)
                assert got == pytest.approx(
                    phi.eval(x) * bessel_mean(n, z), rel=0.0, abs=1e-11 * eigenid._wave_scale(phi)
                )

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = random_eigen(rng, 3, 2.0)
        b = random_eigen(rng, 3, 2.0)
        both = PlaneWaveEigen(3, 2.0, list(a.waves) + list(b.waves))
        x = rng.normal(size=3)
        va = radial_average(a, x, 1.1, tol=1e-11)
        vb = radial_average(b, x, 1.1, tol=1e-11)
        assert radial_average(both, x, 1.1, tol=1e-11) == pytest.approx(
            va + vb, abs=1e-10
        )


def pointwise_shell_sum(phi, x, s, order):
    """sum_j w_j phi(x + s omega_j) on the materialized product-rule grid."""
    pts, w = reference_sphere_grid(phi.dim, order)
    return float(np.dot(w, phi.eval_many(x + s * pts)))


# product-rule orders per dimension; grids grow like order^(n-1)
PRODUCT_LADDERS = {
    3: (16, 24, 36, 54),
    4: (12, 17, 24, 34),
    5: (10, 14, 19, 26),
    6: (9, 12, 16, 21),
}


def reference_radial_average(phi, x, s, tol):
    """radial_average's stop rule on a product-rule ladder, one pointwise
    shell sum per order."""
    n = phi.dim
    area = sphere_surface(n)
    floor = 8e-16 * (1.0 + sum(abs(a) for _, a, _ in phi.waves))
    prev = None
    for order in PRODUCT_LADDERS[n]:
        val = pointwise_shell_sum(phi, x, s, order) / area
        if prev is not None and abs(val - prev) <= max(tol * (1.0 + abs(val)), floor):
            return val
        prev = val
    raise AccuracyError("reference ladder exhausted", estimate=prev)


def reference_coulomb(phi, x, r, tol):
    """coulomb_ball_integral's ladders with a product-rule ladder for the
    angle, one pointwise shell sum per radial node."""

    def estimate(q, p):
        rule = gauss_legendre(q, 0.0, r)
        total = 0.0
        for s, ws in zip(rule.nodes, rule.weights):
            total += ws * s * pointwise_shell_sum(phi, x, s, p)
        return total

    prev = None
    for q, p in zip(eigenid._RADIAL_LADDER, PRODUCT_LADDERS[phi.dim]):
        val = estimate(q, p)
        if prev is not None and abs(val - prev) <= 0.5 * tol * (1.0 + abs(val)):
            val2 = estimate(min(q + q // 2, 2 * q), p)
            if abs(val2 - val) <= 0.5 * tol * (1.0 + abs(val2)):
                return val2
        prev = val
    raise AccuracyError("reference ladder exhausted", estimate=prev)


class TestProjectedShells:
    """The polar rule, which projects each wave onto its own axis, against
    the product rule evaluated pointwise and against the Bessel mean."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_shell_sums_match_pointwise(self, n):
        # product-rule orders that resolve s sqrt(lambda) <= 2 to 1e-11
        product_order = {2: 16, 3: 20, 4: 20, 5: 16, 6: 16}[n]
        rng = np.random.default_rng(500 + n)
        for _ in range(2):
            lam = float(rng.uniform(0.5, 9.0))
            phi = random_eigen(rng, n, lam, int(rng.integers(1, 4)))
            x = rng.normal(size=n)
            radii = np.sort(rng.uniform(0.05, 2.0, size=4)) / math.sqrt(lam)
            got = eigenid._shell_sums(phi, x, radii, 48)
            ref = [pointwise_shell_sum(phi, x, s, product_order) for s in radii]
            # relative to |S^(n-1)| * sum |amp|, the size of any shell sum
            scale = sphere_surface(n) * eigenid._wave_scale(phi)
            assert np.max(np.abs(got - ref)) <= 1e-11 * scale

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_radial_average_matches_pointwise_ladder(self, n):
        rng = np.random.default_rng(520 + n)
        for _ in range(2):
            lam = float(rng.uniform(0.5, 6.0))
            phi = random_eigen(rng, n, lam, 2)
            x = rng.normal(size=n) * 0.4
            s = float(rng.uniform(0.5, 3.0)) / math.sqrt(lam)
            got = radial_average(phi, x, s, tol=1e-10)
            ref = reference_radial_average(phi, x, s, tol=1e-10)
            assert got == pytest.approx(ref, rel=0.0, abs=1e-10 * (1.0 + abs(ref)))

    # tolerances that stop each ladder by its second rung; the pointwise
    # reference costs seconds per rung in n = 6
    @pytest.mark.parametrize(
        "n,u_hi,tol", [(3, 10.0, 1e-8), (4, 3.0, 1e-8), (5, 1.2, 1e-8), (6, 0.6, 1e-6)]
    )
    def test_coulomb_matches_pointwise_ladder(self, n, u_hi, tol):
        rng = np.random.default_rng(540 + n)
        lam = float(rng.uniform(0.5, 6.0))
        phi = random_eigen(rng, n, lam, 2)
        x = rng.normal(size=n) * 0.4
        r = float(rng.uniform(0.3, u_hi)) / math.sqrt(lam)
        got = coulomb_ball_integral(phi, x, r, tol=tol)
        ref = reference_coulomb(phi, x, r, tol=tol)
        assert got == pytest.approx(ref, rel=0.0, abs=tol * (1.0 + abs(ref)))

    def test_far_shell_n6_converges(self):
        # the product rule's top order 21 left 1.5e-3 here
        phi = plane_wave(6, 1.0)
        assert radial_average(phi, np.zeros(6), 40.0) == pytest.approx(
            bessel_mean(6, 40.0), rel=0.0, abs=1e-10
        )

    def test_shell_meets_tolerance_at_s_k_10(self):
        # the product rule stopped at its top order 21 here, 1.2e-6 off
        phi = plane_wave(6, 1.0)
        x = np.zeros(6)
        order, val = eigenid._converged_shell(phi, x, 10.0, tol=1e-10)
        before = eigenid._POLAR_LADDER[eigenid._POLAR_LADDER.index(order) - 1]
        area = sphere_surface(6)
        step = val - float(eigenid._shell_sums(phi, x, [10.0], before)[0]) / area
        assert abs(step) <= 1e-10 * (1.0 + abs(val))
        assert radial_average(phi, x, 10.0, tol=1e-10) == pytest.approx(
            bessel_mean(6, 10.0), rel=0.0, abs=1e-10
        )

    def test_exhausted_ladder_raises(self, monkeypatch):
        monkeypatch.setattr(eigenid, "_POLAR_LADDER", (16, 24))
        phi = plane_wave(4, 4.0, phase=0.3)
        with pytest.raises(AccuracyError) as err:
            radial_average(phi, np.zeros(4), 30.0)
        # the estimate is the top order's average
        top = float(eigenid._shell_sums(phi, np.zeros(4), [30.0], 24)[0])
        assert err.value.estimate == top / sphere_surface(4)
        with pytest.raises(AccuracyError):
            ode_residual_R(4, phi, np.zeros(4), 30.0)


class TestCoulombIntegral:
    def test_full_period_vanishes(self):
        lam = 2.0
        phi = plane_wave(3, lam)
        r = 2.0 * math.pi / math.sqrt(lam)
        assert abs(coulomb_ball_integral(phi, np.zeros(3), r, tol=1e-8)) <= 1e-7

    def test_zero_at_root_balances(self):
        # phase pi/2 makes phi(0) = 0; the weighted mass balances for any r
        lam = 3.0
        phi = plane_wave(3, lam, phase=math.pi / 2.0)
        for r in (0.5, 1.0, 2.0):
            val = coulomb_ball_integral(phi, np.zeros(3), r / math.sqrt(lam), tol=1e-9)
            assert abs(val) <= 1e-7

    def test_quarter_period_closed_form(self):
        # n=3, lam=1, r=pi/2: 4 pi (1 - cos(pi/2)) phi(0) = 4 pi
        phi = plane_wave(3, 1.0)
        val = coulomb_ball_integral(phi, np.zeros(3), math.pi / 2.0, tol=1e-9)
        assert val == pytest.approx(4.0 * math.pi, abs=1e-6)

    def test_domain_checks(self):
        phi = plane_wave(2, 1.0)
        with pytest.raises(ValueError):
            coulomb_ball_integral(phi, np.zeros(2), 1.0)
        phi3 = plane_wave(3, 1.0)
        with pytest.raises(ValueError):
            coulomb_ball_integral(phi3, np.zeros(3), 0.0)


class TestIdentity:
    def test_n3_random_instances(self):
        rng = np.random.default_rng(2025)
        for _ in range(8):
            lam = float(rng.uniform(0.5, 20.0))
            phi = random_eigen(rng, 3, lam, n_waves=int(rng.integers(1, 4)))
            x = rng.normal(size=3)
            u = float(rng.uniform(0.1, 4.0 * math.pi))
            r = u / math.sqrt(lam)
            assert verify_identity(phi, x, r, tol=1e-7) <= 1e-6

    def test_n5_standard_radii(self):
        rng = np.random.default_rng(99)
        lam = 2.0
        phi = random_eigen(rng, 5, lam, n_waves=2)
        x = rng.normal(size=5) * 0.5
        for r in (0.5, 1.0, 2.0):
            assert verify_identity(phi, x, r, tol=1e-6) <= 1e-5

    @pytest.mark.parametrize("n", [10, 12])
    def test_high_dimensions(self, n):
        rng = np.random.default_rng(60 + n)
        lam = 2.0
        phi = random_eigen(rng, n, lam, n_waves=2)
        x = rng.normal(size=n) * 0.5
        for r in (0.5, 1.0, 2.0):
            assert verify_identity(phi, x, r, tol=1e-6) <= 1e-5

    @pytest.mark.parametrize("n", [3, 6])
    def test_wide_balls(self, n):
        # r sqrt(lambda) from 20 to 60 starts the polar orders past 32
        rng = np.random.default_rng(80 + n)
        for u in (20.0, 30.0, 60.0):
            lam = float(rng.uniform(0.5, 6.0))
            phi = random_eigen(rng, n, lam, n_waves=2)
            x = rng.normal(size=n) * 0.5
            assert verify_identity(phi, x, u / math.sqrt(lam), tol=1e-6) <= 1e-6

    def test_scaling_preserves_pass(self):
        rng = np.random.default_rng(41)
        phi = random_eigen(rng, 3, 4.0, n_waves=1)
        x = rng.normal(size=3)
        r = 0.9
        res1 = verify_identity(phi, x, r, tol=1e-7)
        res7 = verify_identity(phi.scaled(7.0), x, r, tol=1e-7)
        assert res1 <= 1e-6 and res7 <= 1e-6


class TestOdeResidual:
    # r = 3e-5 < h = 1e-4 puts the stencil radius r - h below 0, where R is odd
    @pytest.mark.parametrize("n,r", [(4, 1.0), (6, 0.5), (4, 3e-5), (5, 3e-5), (6, 3e-5)])
    def test_residual_small(self, n, r):
        rng = np.random.default_rng(n)
        phi = random_eigen(rng, n, 3.0, n_waves=1)
        x = rng.normal(size=n) * 0.3
        res = ode_residual_R(n, phi, x, r)
        scale = radial_profile_scale(n, phi, x, r)
        assert abs(res) <= 1e-5 * scale

    def test_r_vanishes_at_zero(self):
        phi = plane_wave(4, 2.0)
        x = np.zeros(4)
        nwn = sphere_surface(4)
        r_tiny = nwn * 1e-8 * radial_average(phi, x, 1e-8)
        assert abs(r_tiny) <= 1e-6


class TestWaveFactor:
    def test_vanishes_at_t_star(self):
        for lam in (1.0, 4.0, 7.5):
            t_star = 2.0 * math.pi / math.sqrt(lam)
            assert wave_factor(lam, t_star) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_at_zero(self):
        assert wave_factor(3.0, 0.0) == 0.0

    def test_cos_pi_minus_one(self):
        assert wave_factor(1.0, math.pi) == pytest.approx(-2.0, rel=1e-14)


class TestKirchhoff:
    def test_pure_eigenfunction_matches_factor(self):
        rng = np.random.default_rng(10)
        lam = 2.5
        phi = random_eigen(rng, 3, lam, n_waves=2)
        x = rng.normal(size=3) * 0.4
        for t in (0.8, 1.7):
            expected = wave_factor(lam, t) * phi.eval(x)
            assert kirchhoff_3d(phi, x, t, tol=1e-7) == pytest.approx(
                expected, abs=1e-6
            )

    def test_annihilation_at_t_star(self):
        lam = 3.0
        phi = plane_wave(3, lam)
        t_star = 2.0 * math.pi / math.sqrt(lam)
        assert abs(kirchhoff_3d(phi, np.zeros(3), t_star, tol=1e-7)) <= 1e-6

    def test_mix_of_two_levels(self):
        rng = np.random.default_rng(77)
        a = random_eigen(rng, 3, 1.5, n_waves=1)
        b = random_eigen(rng, 3, 6.0, n_waves=2)
        mix = EigenMix(3, [(0.8, a), (-1.2, b)])
        x = rng.normal(size=3) * 0.3
        t = 1.3
        expected = sum(
            c * wave_factor(p.lam, t) * p.eval(x) for c, p in mix.parts
        )
        assert kirchhoff_3d(mix, x, t, tol=1e-7) == pytest.approx(expected, abs=1e-6)

    def test_zero_source(self):
        phi = PlaneWaveEigen(3, 1.0, [(np.array([1.0, 0, 0]), 0.0, 0.0)])
        assert kirchhoff_3d(phi, np.zeros(3), 1.0, tol=1e-8) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_consistency_with_coulomb_integral(self):
        # same code path: kirchhoff is the negated, 1/(4 pi)-scaled ball integral
        phi = plane_wave(3, 2.0, phase=0.3)
        x = np.array([0.1, -0.2, 0.05])
        t = 1.1
        tol = 1e-7
        direct = coulomb_ball_integral(phi, x, t, tol=4.0 * math.pi * tol)
        assert kirchhoff_3d(phi, x, t, tol=tol) == pytest.approx(
            -direct / (4.0 * math.pi), abs=1e-12
        )


def reference_poisson_2d(source, x, t, tol):
    """(value, last n_theta) of poisson_2d's ladder on the disk points: a
    uniform angle rule of n_theta nodes, n_theta growing from a bandwidth
    rule, and the source evaluated once per time node."""
    parts = eigenid._as_parts(source)
    x = np.asarray(x, dtype=float)
    bandwidth = t * math.sqrt(max(p.lam for _, p in parts))

    def inner(radius, n_theta, n_psi):
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        rule = gauss_legendre(n_psi, 0.0, 0.5 * math.pi)
        rho = np.sin(rule.nodes)
        pts = (x + radius * rho[:, None, None] * omega[None, :, :]).reshape(-1, 2)
        vals = sum(c * p.eval_many(pts) for c, p in parts).reshape(len(rho), n_theta)
        return float(np.dot(rule.weights * rho, vals.sum(axis=1))) * (2.0 * np.pi / n_theta)

    def attempt(n_theta, n_psi, q):
        rule = gauss_legendre(q, 0.0, t)
        total = 0.0
        for s, ws in zip(rule.nodes, rule.weights):
            total += ws * (t - s) * inner(t - s, n_theta, n_psi)
        return total / (2.0 * math.pi)

    n_theta = max(32, 4 * int(math.ceil(bandwidth)) + 8)
    prev = None
    for n_psi, q in ((16, 48), (24, 72), (36, 108)):
        val = attempt(n_theta, n_psi, q)
        if prev is not None and abs(val - prev) <= 0.5 * tol * (1.0 + abs(val)):
            return -val, n_theta
        prev, last = val, n_theta
        n_theta = int(1.5 * n_theta)
    return -prev, last


class TestPoisson2d:
    @pytest.mark.parametrize("seed", range(6))
    def test_projection_matches_disk_points(self, seed):
        rng = np.random.default_rng(700 + seed)
        mix = EigenMix(
            2, [(float(rng.normal()) or 1.0, random_eigen(rng, 2, lam, 2)) for lam in (1.3, 7.0)]
        )
        x = rng.normal(size=2)
        t = float(rng.uniform(0.2, 2.5))
        ref, _ = reference_poisson_2d(mix, x, t, tol=1e-9)
        got = poisson_2d(mix, x, t, tol=1e-9)
        assert got == pytest.approx(ref, rel=0.0, abs=1e-13 * (1.0 + abs(ref)))

    def test_projection_matches_on_odd_third_rung(self):
        # the reference's bandwidth 6.5 starts at n_theta = 36, so its rungs
        # are 36, 54, 81; tol 1e-15 takes poisson_2d to its third rung, which
        # then raises with that rung's estimate
        rng = np.random.default_rng(717)
        phi = random_eigen(rng, 2, 1.0, 3)
        x = rng.normal(size=2)
        ref, n_theta = reference_poisson_2d(phi, x, 6.5, tol=1e-15)
        assert n_theta == 81
        with pytest.raises(AccuracyError) as err:
            poisson_2d(phi, x, 6.5, tol=1e-15)
        assert err.value.estimate == pytest.approx(ref, rel=0.0, abs=1e-13 * (1.0 + abs(ref)))

    def test_pure_eigenfunction_closed_form(self):
        # lam=1, t=pi, phi(0)=1: u = cos(pi) - 1 = -2
        phi = plane_wave(2, 1.0)
        got = poisson_2d(phi, np.zeros(2), math.pi, tol=1e-6)
        assert got == pytest.approx(-2.0, abs=1e-5)

    def test_annihilation_at_t_star(self):
        lam = 4.0
        phi = plane_wave(2, lam, direction=[1, 1])
        t_star = 2.0 * math.pi / math.sqrt(lam)
        assert abs(poisson_2d(phi, np.zeros(2), t_star, tol=1e-6)) <= 1e-5

    def test_short_time_limit(self):
        phi = plane_wave(2, 2.0)
        got = poisson_2d(phi, np.zeros(2), 1e-2, tol=1e-8)
        # u ~ -t^2/2 phi for small t
        assert got == pytest.approx(-0.5e-4, abs=1e-6)

    def test_mix(self):
        rng = np.random.default_rng(5)
        a = random_eigen(rng, 2, 1.0, n_waves=1)
        b = random_eigen(rng, 2, 5.0, n_waves=2)
        mix = EigenMix(2, [(1.0, a), (0.6, b)])
        x = rng.normal(size=2) * 0.3
        t = 1.4
        expected = sum(c * wave_factor(p.lam, t) * p.eval(x) for c, p in mix.parts)
        assert poisson_2d(mix, x, t, tol=1e-6) == pytest.approx(expected, abs=1e-5)


class TestWavePde:
    def test_residual_small(self):
        rng = np.random.default_rng(123)
        phi = random_eigen(rng, 3, 4.2, n_waves=2)
        assert wave_pde_residual(4.2, phi, np.zeros(3), 1.0) <= 1e-4 * (
            1.0 + abs(phi.eval(np.zeros(3)))
        )

    def test_zero_amplitude(self):
        phi = PlaneWaveEigen(2, 1.0, [(np.array([1.0, 0.0]), 0.0, 0.0)])
        assert wave_pde_residual(1.0, phi, np.zeros(2), 1.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestBoundTheorem3:
    def test_single_unit_level(self):
        mix = EigenMix(2, [(1.0, plane_wave(2, 1.0))])
        assert bound_theorem3(mix) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_two_levels(self):
        mix = EigenMix(2, [(1.0, plane_wave(2, 1.0)), (1.0, plane_wave(2, 4.0))])
        assert bound_theorem3(mix) == pytest.approx(3.0 * math.pi, rel=1e-14)

    def test_pi_squared_level(self):
        mix = EigenMix(2, [(1.0, plane_wave(2, math.pi**2))])
        assert bound_theorem3(mix) == pytest.approx(2.0, rel=1e-14)


class TestJson:
    def test_eigen_roundtrip(self):
        rng = np.random.default_rng(1)
        phi = random_eigen(rng, 4, 2.5, n_waves=3)
        back = eigen_from_json(eigen_to_json(phi))
        assert back.dim == phi.dim and back.lam == phi.lam
        x = rng.normal(size=4)
        assert back.eval(x) == pytest.approx(phi.eval(x), abs=1e-14)

    def test_mix_roundtrip(self):
        rng = np.random.default_rng(2)
        mix = EigenMix(
            3,
            [
                (1.0, random_eigen(rng, 3, 1.0)),
                (-0.5, random_eigen(rng, 3, 3.0)),
            ],
        )
        back = mix_from_json(mix_to_json(mix))
        assert back.lambdas == mix.lambdas
        x = rng.normal(size=3)
        assert back.eval(x) == pytest.approx(mix.eval(x), abs=1e-14)

    def test_loader_errors(self):
        with pytest.raises(ValueError, match="lambda"):
            eigenid.eigen_from_dict({"dim": 2, "waves": []})
        with pytest.raises(ValueError, match="parts"):
            eigenid.mix_from_dict({"dim": 2})
        wave = {"k": [2.0, 0.0], "amp": 1.0, "phase": 0.0}
        with pytest.raises(ValueError, match="dim"):
            eigenid.eigen_from_dict({"dim": 2.5, "lambda": 4.0, "waves": [wave]})
        with pytest.raises(ValueError, match="dim"):
            eigenid.mix_from_dict({"dim": 2.5, "parts": [
                {"coef": 1.0, "eigen": {"dim": 2, "lambda": 4.0, "waves": [wave]}}]})
