"""Tests for zonal harmonics, Funk-Hecke multipliers, and annihilator kernels."""

import math

import numpy as np
import pytest

from nodal_radius import sphere
from nodal_radius.specfun import bessel_first_zero, gegenbauer, sphere_surface
from nodal_radius.sphere import (
    ConstructionError,
    SphereFn,
    ZonalKernel,
    ZonalTerm,
    annihilator_bump,
    bound_theorem2,
    cap_lambda1_upper,
    convolve,
    convolve_at_point_quadrature,
    funk_hecke_eigenvalue,
    from_json,
    geodesic_distance,
    sphere_grid_factors,
    to_json,
    unit_sphere_grid,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def zonal(dim, degree, pole, weight=1.0):
    return SphereFn(dim, [ZonalTerm(degree=degree, pole=np.asarray(pole, float), weight=weight)])


def random_unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def cap_samples(rng, center, rho, n):
    """Random points within geodesic distance rho of center (d=3)."""
    center = np.asarray(center, float)
    d = center.size
    pts = []
    while len(pts) < n:
        u = random_unit(rng, d)
        u = u - np.dot(u, center) * center
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            continue
        u /= norm
        theta = rho * rng.random() ** (1.0 / max(d - 1, 1))
        pts.append(math.cos(theta) * center + math.sin(theta) * u)
    return np.array(pts)


class TestEval:
    def test_degree_one_at_pole(self):
        f = zonal(3, 1, E1)
        assert f.eval(E1) == pytest.approx(1.0, abs=1e-14)  # C_1^{1/2}(1) = 1

    def test_degree_one_orthogonal(self):
        f = zonal(3, 1, E1)
        assert f.eval(E2) == pytest.approx(0.0, abs=1e-14)

    def test_degree_two_d4_at_half(self):
        # C_2^1(t) = 4 t^2 - 1 vanishes at t = 1/2
        f = zonal(4, 2, [1.0, 0.0, 0.0, 0.0], weight=2.0)
        x = np.array([0.5, math.sqrt(0.75), 0.0, 0.0])
        assert f.eval(x) == pytest.approx(0.0, abs=1e-13)

    def test_off_sphere_rejected(self):
        f = zonal(3, 1, E1)
        with pytest.raises(ValueError):
            f.eval(np.array([1.1, 0.0, 0.0]))

    def test_bad_pole_rejected(self):
        with pytest.raises(ValueError):
            ZonalTerm(degree=1, pole=np.array([1.0, 0.5, 0.0]), weight=1.0)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            ZonalTerm(degree=0, pole=E1, weight=1.0)

    def test_empty_is_zero_function(self):
        f = SphereFn(3, [])
        assert f.eval(E1) == 0.0
        assert f.degrees() == set()

    def test_laplace_beltrami_eigenvalue(self):
        # finite-difference Laplace-Beltrami on the zonal profile matches
        # -k(k+1) * u on S^2 (i.e. d=3, eigenvalue k(k+d-2))
        h = 1e-4
        for k in range(1, 6):
            f = zonal(3, k, E1)

            def u(theta):
                return f.eval(np.array([math.cos(theta), math.sin(theta), 0.0]))

            for theta0 in [0.5, 1.2, 2.0]:
                upp = (u(theta0 + h) - 2.0 * u(theta0) + u(theta0 - h)) / h**2
                up = (u(theta0 + h) - u(theta0 - h)) / (2.0 * h)
                lap = upp + up / math.tan(theta0)
                expected = -k * (k + 1.0) * u(theta0)
                assert lap == pytest.approx(expected, rel=1e-3, abs=1e-6)


class TestFunkHecke:
    def test_constant_kernel_degree_one_vanishes(self):
        g = ZonalKernel.raw(-1.0, 1.0, lambda t: np.ones_like(t))
        assert funk_hecke_eigenvalue(g, 1, 3) == pytest.approx(0.0, abs=1e-12)

    def test_constant_kernel_degree_zero_is_surface_area(self):
        g = ZonalKernel.raw(-1.0, 1.0, lambda t: np.ones_like(t))
        got = funk_hecke_eigenvalue(g, 0, 3)
        assert got == pytest.approx(sphere_surface(2) * 2.0, rel=1e-12)
        assert got == pytest.approx(4.0 * math.pi, rel=1e-12)  # area of S^2

    def test_annihilator_multiplier_vanishes(self):
        g = annihilator_bump(8, 3)
        assert abs(funk_hecke_eigenvalue(g, 8, 3)) <= 1e-10

    def test_fidelity_against_direct_quadrature_d3(self):
        # the single test that pins the surface-measure convention
        rng = np.random.default_rng(2024)
        for k in [1, 2, 3, 5, 7, 10]:
            pole = random_unit(rng, 3)
            f = zonal(3, k, pole, weight=float(rng.normal()) or 1.0)
            c = float(rng.uniform(-0.4, 0.6))
            h = float(rng.uniform(0.1, 0.25))
            g = ZonalKernel.bump(c, h)
            lam_k = funk_hecke_eigenvalue(g, k, 3)
            scale = abs(lam_k) * gegenbauer(k, 0.5, 1.0) * abs(f.terms[0].weight) + 1e-12
            for _ in range(20):
                x = random_unit(rng, 3)
                direct = convolve_at_point_quadrature(f, g, x, polar_order=60)
                assert abs(direct - lam_k * f.eval(x)) <= 1e-6 * scale

    def test_fidelity_d5(self):
        rng = np.random.default_rng(7)
        k = 3
        pole = random_unit(rng, 5)
        f = zonal(5, k, pole)
        g = ZonalKernel.bump(0.3, 0.2)
        lam_k = funk_hecke_eigenvalue(g, k, 5)
        scale = abs(lam_k) * gegenbauer(k, 1.5, 1.0) + 1e-12
        for _ in range(5):
            x = random_unit(rng, 5)
            direct = convolve_at_point_quadrature(f, g, x, polar_order=48)
            assert abs(direct - lam_k * f.eval(x)) <= 1e-6 * scale

    def test_multiplier_linearity_in_kernel(self):
        g = ZonalKernel.bump(0.2, 0.15)
        g3 = ZonalKernel.raw(*g.support, lambda t: 3.0 * g(t))
        for k in [0, 2, 5]:
            assert funk_hecke_eigenvalue(g3, k, 3) == pytest.approx(
                3.0 * funk_hecke_eigenvalue(g, k, 3), rel=1e-10, abs=1e-12
            )


class TestConvolve:
    def test_single_degree_annihilated_to_zero(self):
        m, d = 9, 3
        f = zonal(d, m, E1, weight=2.5)
        g = annihilator_bump(m, d)
        out = convolve(f, g)
        assert out.terms == ()
        assert out.eval(E1) == 0.0

    def test_top_degree_removed_others_kept(self):
        d = 3
        rng = np.random.default_rng(5)
        f = SphereFn(
            d,
            [
                ZonalTerm(degree=2, pole=random_unit(rng, d), weight=1.0),
                ZonalTerm(degree=5, pole=random_unit(rng, d), weight=-0.7),
            ],
        )
        g = annihilator_bump(5, d)
        out = convolve(f, g)
        assert out.degrees() == {2}

    def test_convolution_matches_quadrature_pointwise(self):
        rng = np.random.default_rng(31)
        d = 3
        f = SphereFn(
            d,
            [
                ZonalTerm(degree=3, pole=random_unit(rng, d), weight=0.8),
                ZonalTerm(degree=6, pole=random_unit(rng, d), weight=-1.3),
            ],
        )
        g = annihilator_bump(6, d)
        out = convolve(f, g)
        assert out.degrees() == {3}
        scale = max(abs(t.weight) * gegenbauer(t.degree, 0.5, 1.0) for t in f.terms)
        for _ in range(10):
            x = random_unit(rng, d)
            direct = convolve_at_point_quadrature(f, g, x, polar_order=60)
            assert abs(direct - out.eval(x)) <= 1e-6 * scale

    def test_positivity_transfer(self):
        # f > 0 on a sampled cap implies the convolution is positive on the
        # shrunken cap, the shrink being arccos(inf J)
        rng = np.random.default_rng(12)
        d, m = 3, 8
        pole = E1
        f = SphereFn(
            d,
            [
                ZonalTerm(degree=1, pole=pole, weight=1.0),
                ZonalTerm(degree=m, pole=pole, weight=0.05),
            ],
        )
        g = annihilator_bump(m, d)
        shrink = math.acos(g.support[0])
        assert shrink <= 0.5 * math.pi * (d + 4) / (math.sqrt(2.0) * m)
        rho = 1.1
        pts = cap_samples(rng, pole, rho, 300)
        assert np.all(f.eval_many(pts) > 0.0)
        out = convolve(f, g)
        inner = cap_samples(rng, pole, rho - shrink, 300)
        assert np.all(out.eval_many(inner) > 0.0)


class TestAnnihilatorBump:
    @pytest.mark.parametrize("m,d", [(20, 3), (50, 6), (40, 10)])
    def test_acceptance_triples(self, m, d):
        g = annihilator_bump(m, d)
        lo, hi = g.support
        assert lo > 1.0 - (d + 4.0) ** 2 / (4.0 * m * m)
        assert hi < 1.0
        # relative moment
        num = abs(sphere._weighted_moment(g, m, d))
        den = sphere._weighted_moment(g, m, d, absval=True)
        assert num <= 1e-11 * den
        # multiplier route
        assert abs(funk_hecke_eigenvalue(g, m, d)) <= 1e-10
        # chord-length consequence for support points
        assert math.sqrt(2.0 - 2.0 * lo) <= (d + 4.0) / (math.sqrt(2.0) * m)

    def test_support_is_nonneg_bump(self):
        g = annihilator_bump(12, 4)
        t = np.linspace(-1.0, 1.0, 2001)
        vals = g(t)
        assert np.all(vals >= 0.0)
        lo, hi = g.support
        outside = (t < lo) | (t > hi)
        assert np.all(vals[outside] == 0.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            annihilator_bump(3, 3)  # needs m > (d+4)/2 = 3.5


class TestBoundTheorem2:
    def test_single_low_degree_exceeds_diameter(self):
        f = zonal(3, 1, E1)
        b = bound_theorem2(f)
        assert b == pytest.approx(3.0 * math.pi**2, rel=1e-14)
        assert b > math.pi  # trivially true bound, still returned

    def test_two_degrees(self):
        f = SphereFn(
            4,
            [
                ZonalTerm(degree=10, pole=np.array([1.0, 0, 0, 0]), weight=1.0),
                ZonalTerm(degree=20, pole=np.array([0, 1.0, 0, 0]), weight=1.0),
            ],
        )
        assert bound_theorem2(f) == pytest.approx(
            math.pi**2 * 4.0 * (0.1 + 0.05), rel=1e-14
        )

    def test_high_degree(self):
        f = zonal(3, 100, E1)
        assert bound_theorem2(f) == pytest.approx(3.0 * math.pi**2 / 100.0, rel=1e-14)

    def test_duplicate_degrees_counted_once(self):
        f = SphereFn(
            3,
            [
                ZonalTerm(degree=4, pole=E1, weight=1.0),
                ZonalTerm(degree=4, pole=E2, weight=-2.0),
            ],
        )
        assert bound_theorem2(f) == pytest.approx(3.0 * math.pi**2 / 4.0, rel=1e-14)


class TestCapBound:
    def test_s2(self):
        j01 = bessel_first_zero(0.0)
        r = math.pi / 2.0
        assert cap_lambda1_upper(2, r) == pytest.approx(
            j01**2 * 4.0 / math.pi**2 + 1.0 / 3.0, rel=1e-12
        )

    def test_s3(self):
        assert cap_lambda1_upper(3, 1.0) == pytest.approx(math.pi**2 + 1.0, rel=1e-14)

    def test_s5_small_radius_leading_term(self):
        j = bessel_first_zero(1.5)
        for r in [1e-3, 1e-4]:
            assert cap_lambda1_upper(5, r) * r * r == pytest.approx(j * j, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_lambda1_upper(2, 0.0)
        with pytest.raises(ValueError):
            cap_lambda1_upper(3, math.pi)


class TestGeodesic:
    def test_same_point(self):
        assert geodesic_distance(E1, E1) == 0.0

    def test_antipodes(self):
        assert geodesic_distance(E1, -E1) == pytest.approx(math.pi, abs=1e-14)

    def test_orthogonal(self):
        assert geodesic_distance(E1, E2) == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            a, b, c = (random_unit(rng, 3) for _ in range(3))
            assert geodesic_distance(a, c) <= (
                geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-12
            )


class TestSurfaceGrid:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_total_weight_is_surface_area(self, n):
        pts, w = unit_sphere_grid(n, 16)
        assert float(w.sum()) == pytest.approx(sphere_surface(n), rel=1e-10)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_integrates_coordinate_moments(self):
        # int x_i^2 over S^(n-1) = surface / n
        for n in [3, 5]:
            pts, w = unit_sphere_grid(n, 20)
            for i in range(n):
                got = float(np.dot(w, pts[:, i] ** 2))
                assert got == pytest.approx(sphere_surface(n) / n, rel=1e-9)


def reference_sphere_grid(n, order):
    """The product grid built point by point from meshgrids of its angles,
    as unit_sphere_grid built it before it took the per-axis factors."""
    from nodal_radius.specfun import gauss_legendre

    n_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
    if n == 2:
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), w_phi
    rule = gauss_legendre(order, 0.0, math.pi)
    mesh = np.meshgrid(*([rule.nodes] * (n - 2) + [phi]), indexing="ij")
    wmesh = np.meshgrid(*([rule.weights] * (n - 2) + [w_phi]), indexing="ij")
    theta = [m.ravel() for m in mesh]
    weight = np.ones(theta[0].size)
    for wm in wmesh:
        weight = weight * wm.ravel()
    for i in range(n - 2):
        weight = weight * np.sin(theta[i]) ** (n - 2 - i)
    coords = np.empty((theta[0].size, n))
    sin_prod = np.ones(theta[0].size)
    for i in range(n - 2):
        coords[:, i] = sin_prod * np.cos(theta[i])
        sin_prod = sin_prod * np.sin(theta[i])
    coords[:, n - 2] = sin_prod * np.cos(theta[n - 2])
    coords[:, n - 1] = sin_prod * np.sin(theta[n - 2])
    return coords, weight


class TestGridFactors:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_projection_matches_points(self, n):
        rng = np.random.default_rng(100 + n)
        for order in (3, 5):
            pts, _ = unit_sphere_grid(n, order)
            grid = sphere_grid_factors(n, order)
            for _ in range(3):
                k = rng.normal(size=n) * rng.uniform(0.5, 20.0)
                g = grid.projection(k)
                assert g.shape == (order,) * (n - 2) + (2 * order,)
                err = np.max(np.abs(g.ravel() - pts @ k))
                assert err <= 1e-14 * np.linalg.norm(k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_separable_weights_multiply_out(self, n):
        for order in (3, 5):
            _, w = unit_sphere_grid(n, order)
            grid = sphere_grid_factors(n, order)
            assert len(grid.axis_weights) == n - 1
            prod = np.ones(1)
            for aw in grid.axis_weights:
                prod = np.outer(prod, aw).ravel()
            assert np.allclose(prod, w, rtol=1e-14, atol=0.0)
            # the axes after the first angle carry the rule on S^(n-2)
            tail = unit_sphere_grid(n - 1, order)[1] if n > 2 else np.ones(1)
            assert np.allclose(grid.weights(start=1), tail, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grid_matches_reference_builder(self, n):
        # same rule, same point order as the meshgrid construction
        for order in (3, 5):
            pts, w = unit_sphere_grid(n, order)
            ref_pts, ref_w = reference_sphere_grid(n, order)
            assert np.allclose(pts, ref_pts, rtol=0.0, atol=1e-15)
            assert np.allclose(w, ref_w, rtol=1e-14, atol=0.0)

    def test_factors_read_only(self):
        grid = sphere_grid_factors(4, 6)
        for arr in (grid.polar, grid.polar_weights, grid.azimuth) + grid.axis_weights:
            assert not arr.flags.writeable
        pts, w = unit_sphere_grid(4, 6)
        assert not pts.flags.writeable and not w.flags.writeable

    def test_projection_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            sphere_grid_factors(4, 6).projection(np.ones(3))


class TestJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        f = SphereFn(
            4,
            [
                ZonalTerm(degree=2, pole=random_unit(rng, 4), weight=1.5),
                ZonalTerm(degree=7, pole=random_unit(rng, 4), weight=-0.25),
            ],
        )
        g = from_json(to_json(f))
        assert g.dim == f.dim
        assert len(g.terms) == len(f.terms)
        for a, b in zip(f.terms, g.terms):
            assert a.degree == b.degree
            assert a.weight == pytest.approx(b.weight)
            assert np.allclose(a.pole, b.pole)

    def test_loader_error_messages(self):
        with pytest.raises(ValueError, match="dim"):
            sphere.from_dict({"terms": []})
        with pytest.raises(ValueError, match="pole"):
            sphere.from_dict({"dim": 3, "terms": [{"k": 1, "w": 1.0}]})
