"""Tests for trigonometric polynomials on the torus."""

import json
import math

import numpy as np
import pytest

from nodal_radius import torus
from nodal_radius.specfun import ball_volume, bessel_first_zero, quad_adaptive
from nodal_radius.torus import (
    TrigPoly,
    ball_multiplier,
    bound_kozma,
    bound_theorem1,
    delta_star,
    from_json,
    shells,
    smooth_top_shell,
    to_json,
)


def cos3_on_t2():
    # cos(2 pi * 3 x1) on T^2: keys (3,0) and (-3,0) with amplitude 1/2
    return TrigPoly(2, {(3, 0): 0.5, (-3, 0): 0.5})


class TestConstruction:
    def test_rejects_zero_key(self):
        with pytest.raises(ValueError):
            TrigPoly(2, {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})

    def test_rejects_missing_conjugate(self):
        with pytest.raises(ValueError):
            TrigPoly(1, {(3,): 0.5})

    def test_rejects_broken_symmetry(self):
        with pytest.raises(ValueError):
            TrigPoly(1, {(3,): 0.5 + 0.5j, (-3,): 0.5 + 0.5j})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrigPoly(1, {})

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            TrigPoly(2, {(1,): 0.5, (-1,): 0.5})

    def test_immutable(self):
        f = cos3_on_t2()
        with pytest.raises(AttributeError):
            f.dim = 3
        with pytest.raises(TypeError):
            f.coeffs[(1, 1)] = 1.0


class TestEval:
    def test_cosine_at_origin(self):
        assert cos3_on_t2().eval((0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_cosine_at_quarter_period(self):
        # x1 = 1/12: cos(2 pi 3/12) = cos(pi/2) = 0; x2 irrelevant
        assert cos3_on_t2().eval((1.0 / 12.0, 0.77)) == pytest.approx(0.0, abs=1e-14)

    def test_two_term_example(self):
        f = TrigPoly.from_cosines(2, [((1, 1), 1.0, 0.0), ((3, 0), 1.0, 0.0)])
        got = f.eval((0.2, 0.1))
        expected = math.cos(2 * math.pi * 0.3) + math.cos(2 * math.pi * 0.6)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_real_valuedness_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            table = {}
            for _ in range(int(rng.integers(1, 6))):
                k = tuple(int(c) for c in rng.integers(-6, 7, size=d))
                if all(c == 0 for c in k):
                    continue
                a = complex(rng.normal(), rng.normal())
                table[k] = table.get(k, 0j) + a
                nk = tuple(-c for c in k)
                table[nk] = table.get(nk, 0j) + a.conjugate()
            if not table:
                continue
            f = TrigPoly(d, table)
            scale = sum(abs(a) for a in f.coeffs.values())
            pts = rng.random((20, d))
            for x in pts:
                total = sum(
                    a * np.exp(2j * np.pi * np.dot(k, x)) for k, a in f.coeffs.items()
                )
                assert abs(total.imag) <= 1e-10 * scale
                assert f.eval(x) == pytest.approx(total.real, abs=1e-12 * max(1, scale))

    def test_eval_many_matches_eval(self):
        f = TrigPoly.from_cosines(2, [((1, 2), 0.7, 0.3), ((4, 0), 1.1, -0.2)])
        rng = np.random.default_rng(0)
        pts = rng.random((17, 2))
        many = f.eval_many(pts)
        for i, x in enumerate(pts):
            assert many[i] == pytest.approx(f.eval(x), abs=1e-12)

    def test_eval_grid_matches_eval(self):
        f = TrigPoly.from_cosines(2, [((2, 1), 1.0, 0.5), ((0, 3), 0.4, 0.0)])
        n = 16
        grid = f.eval_grid(n)
        for i in [0, 3, 7, 12]:
            for j in [0, 5, 9, 15]:
                assert grid[i, j] == pytest.approx(f.eval((i / n, j / n)), abs=1e-12)


class TestEvalGridKernel:
    """eval_grid, which sums one term per +-k pair with the separable kernel,
    agrees with eval_many point by point to 1e-13 of sum |a_k|."""

    @staticmethod
    def check(f, n):
        grid = f.eval_grid(n)
        assert grid.shape == (n,) * f.dim
        mesh = np.meshgrid(*[np.arange(n) / n] * f.dim, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        want = f.eval_many(pts).reshape(grid.shape)
        scale = sum(abs(a) for a in f.coeffs.values())
        assert np.max(np.abs(grid - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("d, n", [(1, 128), (2, 32), (3, 12)])
    def test_random_polys(self, d, n):
        rng = np.random.default_rng(40 + d)
        for _ in range(5):
            self.check(_random_poly(rng, d), n)

    def test_zero_components(self):
        self.check(TrigPoly.from_cosines(2, [((0, 3), 0.8, 0.4), ((2, 0), -0.5, 1.0)]), 24)
        self.check(TrigPoly.from_cosines(3, [((0, 0, 2), 1.0, 0.2), ((0, 3, -1), 0.6, -0.7)]), 10)

    def test_high_frequency_1d(self):
        self.check(TrigPoly.from_cosines(1, [((40,), 1.0, 0.3), ((7,), 0.5, 2.0)]), 4096)

    def test_hermitian_defect(self):
        # ten small pairs with a_{-k} = conj(a_k) + 1e-13, inside the
        # constructor's tolerance: a_k + conj(a_{-k}) keeps the defect, while
        # 2 a_k per pair would be 1e-12 off at x = 0
        table = {(1,): 0.5, (-1,): 0.5}
        for j in range(2, 12):
            a = 1e-3 * complex(math.cos(j), math.sin(j))
            table[(j,)] = a
            table[(-j,)] = a.conjugate() + 1e-13
        self.check(TrigPoly(1, table), 64)


class TestShells:
    def test_merging_equal_norms(self):
        f = TrigPoly(2, {(3, 4): 1.0, (-3, -4): 1.0, (5, 0): 0.5, (-5, 0): 0.5})
        s = shells(f)
        assert s.norms == (5.0,)

    def test_single(self):
        f = TrigPoly(2, {(1, 0): 0.5, (-1, 0): 0.5})
        assert shells(f).norms == (1.0,)

    def test_two_shells_exact_integers(self):
        f = TrigPoly(2, {(1, 1): 1.0, (-1, -1): 1.0, (2, 0): 1.0, (-2, 0): 1.0})
        s = shells(f)
        assert s.norms_sq == (2, 4)
        assert s.norms == pytest.approx((math.sqrt(2.0), 2.0))


class TestBounds:
    def test_theorem1_d2(self):
        f = TrigPoly(2, {(3, 4): 1.0, (-3, -4): 1.0, (5, 0): 0.5, (-5, 0): 0.5})
        assert bound_theorem1(f) == pytest.approx(2.0**1.5 / 5.0, rel=1e-14)

    def test_theorem1_d1(self):
        f = TrigPoly(1, {(1,): 0.5, (-1,): 0.5})
        assert bound_theorem1(f) == pytest.approx(1.0, rel=1e-14)

    def test_theorem1_d3(self):
        f = TrigPoly(
            3, {(1, 1, 0): 1.0, (-1, -1, 0): 1.0, (2, 0, 0): 1.0, (-2, 0, 0): 1.0}
        )
        assert bound_theorem1(f) == pytest.approx(
            3.0**1.5 * (1.0 / math.sqrt(2.0) + 0.5), rel=1e-14
        )

    def test_kozma_single_frequency(self):
        f = TrigPoly(1, {(3,): 0.5, (-3,): 0.5})
        assert bound_kozma(f) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_kozma_unit_frequency(self):
        f = TrigPoly(2, {(1, 0): 0.5, (-1, 0): 0.5})
        assert bound_kozma(f) == pytest.approx(0.5, rel=1e-14)

    def test_kozma_counts_both_signs(self):
        f = TrigPoly(2, {(3, 4): 1.0, (-3, -4): 1.0, (5, 0): 0.5, (-5, 0): 0.5})
        assert bound_kozma(f) == pytest.approx(0.2, rel=1e-14)

    def test_bounds_positive_and_comparable_d1(self):
        f = TrigPoly(1, {(2,): 0.3, (-2,): 0.3, (7,): 0.1j, (-7,): -0.1j})
        b1, bk = bound_theorem1(f), bound_kozma(f)
        assert b1 > 0 and bk > 0
        assert 0.0 < b1 / bk < math.inf


class TestBallMultiplier:
    def test_1d_closed_form(self):
        # 1D indicator transform: sin(2 pi delta)/pi at k=1
        got = ball_multiplier(0.2, (1,), 1)
        assert got == pytest.approx(math.sin(0.4 * math.pi) / math.pi, abs=1e-13)

    def test_2d_against_quadrature_oracle(self):
        # reduce the disk integral over y, leaving a 1D integral with declared
        # sqrt-type endpoint behavior; independent of the Bessel route
        delta, k1 = 0.3, 1.0

        def column(x):
            g = math.sqrt(max(delta * delta - x * x, 0.0))
            return 2.0 * g * math.cos(2.0 * math.pi * k1 * x)

        oracle = quad_adaptive(column, -delta, delta, tol=1e-11, alpha_a=0.5, alpha_b=0.5)
        assert ball_multiplier(delta, (1, 0), 2) == pytest.approx(oracle, abs=1e-8)

    def test_3d_against_quadrature_oracle(self):
        # same reduction in 3D: the inner disk of radius g(x) contributes
        # pi g^2 only at k=(k1,0,0); use sinc-free exact inner area
        delta, k1 = 0.22, 2.0

        def slab(x):
            g2 = max(delta * delta - x * x, 0.0)
            return math.pi * g2 * math.cos(2.0 * math.pi * k1 * x)

        oracle = quad_adaptive(slab, -delta, delta, tol=1e-12)
        assert ball_multiplier(delta, (2, 0, 0), 3) == pytest.approx(oracle, abs=1e-10)

    def test_zero_frequency_is_ball_mass(self):
        for d in (1, 2, 3):
            assert ball_multiplier(0.37, (0,) * d, d) == pytest.approx(
                ball_volume(d) * 0.37**d, rel=1e-13
            )

    def test_vanishes_at_scaled_bessel_zero(self):
        for d in (1, 2, 3):
            j = bessel_first_zero(d / 2.0)
            delta = j / (2.0 * math.pi)  # with ||k|| = 1
            assert abs(ball_multiplier(delta, (1,) + (0,) * (d - 1), d)) < 1e-13

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ball_multiplier(0.0, (1,), 1)


class TestDeltaStar:
    def test_d1(self):
        f = TrigPoly(1, {(3,): 0.5, (-3,): 0.5})
        assert delta_star(f) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_d2(self):
        f = TrigPoly(2, {(3, 4): 1.0, (-3, -4): 1.0})
        assert delta_star(f) == pytest.approx(
            3.831705970207512 / (10.0 * math.pi), abs=1e-10
        )

    def test_d3(self):
        f = TrigPoly(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5})
        assert delta_star(f) == pytest.approx(
            4.493409457909064 / (2.0 * math.pi), abs=1e-10
        )


class TestSmoothTopShell:
    def test_two_shells_drop_to_one(self):
        f = TrigPoly.from_cosines(2, [((1, 0), 1.0, 0.0), ((0, 2), 1.0, 0.0)])
        g = smooth_top_shell(f)
        assert shells(g).norms == (1.0,)

    def test_surviving_coefficient_value(self):
        f = TrigPoly.from_cosines(2, [((1, 0), 1.0, 0.0), ((0, 2), 1.0, 0.0)])
        ds = bessel_first_zero(1.0) / (4.0 * math.pi)  # j_{1,1}/(2 pi * 2)
        g = smooth_top_shell(f)
        expected = 0.5 * ball_multiplier(ds, (1, 0), 2)
        assert g.coeffs[(1, 0)] == pytest.approx(expected, rel=1e-12)

    def test_top_shell_exactly_zero(self):
        f = TrigPoly.from_cosines(2, [((1, 0), 1.0, 0.0), ((0, 2), 1.0, 0.0)])
        g = smooth_top_shell(f)
        assert (0, 2) not in g.coeffs
        assert (0, -2) not in g.coeffs

    def test_single_shell_rejected(self):
        f = TrigPoly(2, {(1, 0): 0.5, (-1, 0): 0.5})
        with pytest.raises(ValueError):
            smooth_top_shell(f)

    def test_coarse_top_shell_rejected(self):
        # d=3, lambda_n = sqrt(2) < j_{3/2,1}/pi: delta_star = 0.506 >= 1/2
        f = TrigPoly.from_cosines(
            3, [((1, 0, 0), 1.0, 0.0), ((1, 1, 0), 0.1, 0.0)]
        )
        assert delta_star(f) >= 0.5
        with pytest.raises(ValueError):
            smooth_top_shell(f)

    def test_shell_count_decreases_by_one_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            f = _random_poly(rng, d)
            if len(shells(f)) < 2 or delta_star(f) >= 0.5:
                continue
            g = smooth_top_shell(f)
            assert len(shells(g)) == len(shells(f)) - 1
            assert (0,) * d not in g.coeffs

    def test_top_coefficients_extracted_by_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = _random_poly(rng, 2, min_norm_top=4)
            if len(shells(f)) < 2:
                continue
            g = smooth_top_shell(f)
            n = 4 * int(math.ceil(shells(f).top)) + 2
            grid = g.eval_grid(n)
            top_sq = shells(f).top_sq
            axes = np.arange(n) / n
            for k in f.coeffs:
                if sum(c * c for c in k) != top_sq:
                    continue
                phase = np.exp(-2j * np.pi * (k[0] * axes[:, None] + k[1] * axes[None, :]))
                coeff = (grid * phase).mean()
                assert abs(coeff) <= 1e-10

    def test_positivity_transfer(self):
        f = TrigPoly.from_cosines(2, [((1, 0), 1.0, 0.0), ((3, 4), 0.1, 0.0)])
        g = smooth_top_shell(f)
        ds = delta_star(f)
        r = 0.2
        rng = np.random.default_rng(3)
        # f > 0 on the sampled ball B(0, r)
        pts = rng.normal(size=(400, 2))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= (rng.random((400, 1)) ** 0.5) * r
        assert np.all(f.eval_many(pts) > 0.0)
        # then the smoothed polynomial is positive on B(0, r - delta_star)
        inner = pts * (r - ds) / r
        assert np.all(g.eval_many(inner) > 0.0)


def _random_poly(rng, d, min_norm_top=None, max_norm=8):
    """Random Hermitian table with a couple of shells for smoothing tests."""
    table = {}
    nterms = int(rng.integers(2, 5))
    for _ in range(nterms):
        k = tuple(int(c) for c in rng.integers(-max_norm // 2, max_norm // 2 + 1, size=d))
        if all(c == 0 for c in k):
            k = (1,) + (0,) * (d - 1)
        a = complex(rng.normal(), rng.normal())
        table[k] = table.get(k, 0j) + a
        nk = tuple(-c for c in k)
        table[nk] = table.get(nk, 0j) + a.conjugate()
    if min_norm_top is not None:
        k = (min_norm_top,) + (0,) * (d - 1)
        table[k] = table.get(k, 0j) + 1.0
        nk = tuple(-c for c in k)
        table[nk] = table.get(nk, 0j) + 1.0
    return TrigPoly(d, table)


class TestJson:
    def test_roundtrip(self):
        f = TrigPoly.from_cosines(2, [((1, 2), 0.7, 0.3), ((4, 0), 1.1, -0.2)])
        g = from_json(to_json(f))
        assert g.dim == f.dim
        assert set(g.coeffs) == set(f.coeffs)
        for k in f.coeffs:
            assert g.coeffs[k] == pytest.approx(f.coeffs[k], abs=1e-15)

    def test_stores_one_representative_per_pair(self):
        f = cos3_on_t2()
        data = json.loads(to_json(f))
        assert len(data["terms"]) == 1
        assert data["terms"][0]["k"] == [3, 0]

    def test_loader_error_messages(self):
        with pytest.raises(ValueError, match="dim"):
            torus.from_dict({"terms": []})
        with pytest.raises(ValueError, match="terms"):
            torus.from_dict({"dim": 2})
        with pytest.raises(ValueError, match="re"):
            torus.from_dict({"dim": 1, "terms": [{"k": [1], "im": 0.0}]})
