"""Tests for the sign-free-ball search and the 1D sharpness probe."""

import heapq
import math

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from nodal_radius import signsearch
from nodal_radius.eigenid import bound_theorem3
from nodal_radius.signsearch import (
    _SPHERE_KNN,
    _bisect_crossing,
    _fibonacci_sphere,
    _grid_distances,
    _signs,
    _sphere_graph_radius,
    _spiral_graph,
    SearchDomain,
    largest_signfree_ball,
    random_eigen_mix,
    random_sphere_fn,
    random_trig_poly,
    sharpness_probe,
    verify_bound,
)
from nodal_radius.sphere import SphereFn, ZonalTerm, bound_theorem2
from nodal_radius.torus import TrigPoly, bound_kozma, bound_theorem1


def cosine_1d(freq):
    return TrigPoly(1, {(freq,): 0.5, (-freq,): 0.5})


class TestTorusSearch:
    def test_plain_cosine(self):
        report = largest_signfree_ball(cosine_1d(1), SearchDomain.torus(1, 512))
        assert report.r_lower == pytest.approx(0.25, abs=2.0 / 512.0)
        # centers of the positive/negative half-periods are 0 and 1/2
        c = report.center[0]
        assert min(abs(c - 0.0), abs(c - 0.5), abs(c - 1.0)) < 0.01
        assert report.r_upper >= report.r_lower

    def test_fast_cosine(self):
        report = largest_signfree_ball(cosine_1d(5), SearchDomain.torus(1, 512))
        assert report.r_lower == pytest.approx(0.05, abs=2.0 / 512.0)

    def test_2d_product_cosine(self):
        f = TrigPoly.from_cosines(2, [((1, 0), 1.0, 0.0)])
        report = largest_signfree_ball(f, SearchDomain.torus(2, 128))
        # sign depends on x1 alone: the largest inscribed ball of the strip
        # |x1| < 1/4 has radius 1/4
        assert report.r_lower == pytest.approx(0.25, abs=2.0 / 128.0)

    def test_grid_refinement_soundness(self):
        f = TrigPoly.from_cosines(
            2, [((2, 1), 1.0, 0.3), ((0, 3), 0.7, 1.1), ((1, 0), 0.4, 0.0)]
        )
        coarse = largest_signfree_ball(f, SearchDomain.torus(2, 64))
        fine = largest_signfree_ball(f, SearchDomain.torus(2, 128))
        coarse_diag = math.sqrt(2.0) / 64.0
        assert fine.r_lower >= coarse.r_lower - coarse_diag

    def test_constant_sign_flagged(self):
        # not a TrigPoly: a plain positive callable
        dom = SearchDomain.torus(2, 32)
        report = largest_signfree_ball(lambda p: np.ones(p.shape[0]), dom)
        assert report.constant_sign
        assert report.r_upper == dom.diameter()

    def test_verify_bound_kozma_ratio(self):
        f = cosine_1d(5)
        passed, report = verify_bound(f, SearchDomain.torus(1, 512), bound_kozma(f))
        assert passed
        assert report.bound == pytest.approx(0.1)
        assert report.ratio == pytest.approx(0.5, abs=0.05)

    def test_random_trig_stress_smoke(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            f = random_trig_poly(rng, d, max_shells=4, max_norm=8)
            dom = SearchDomain.torus(d, 256 if d == 1 else 128)
            ok1, rep1 = verify_bound(f, dom, bound_theorem1(f))
            ok2, rep2 = verify_bound(f, dom, bound_kozma(f))
            assert ok1 and ok2


def full_pad_torus_distances(sgn, spacing):
    """Reference: EDT on the grid wrap-padded by n // 2 on every side."""
    out = {}
    for s in (1, -1):
        seeds = sgn != s
        if not seeds.any():
            out[s] = None
            continue
        pad = tuple(n // 2 for n in sgn.shape)
        padded = np.pad(~seeds, tuple((p, p) for p in pad), mode="wrap")
        dist = distance_transform_edt(padded, sampling=spacing)
        out[s] = dist[tuple(slice(p, p + n) for p, n in zip(pad, sgn.shape))]
    return out


class TestTorusDistances:
    """The answer-sized wrap pad gives the full-pad distances, element for element."""

    def pads_used(self, monkeypatch, sgn, spacing):
        shapes = []

        def edt(a, **kw):
            shapes.append(a.shape)
            return distance_transform_edt(a, **kw)

        monkeypatch.setattr(signsearch, "distance_transform_edt", edt)
        got = _grid_distances(sgn, spacing, periodic=True)
        monkeypatch.undo()
        return got, [(shape[0] - sgn.shape[0]) // 2 for shape in shapes]

    def assert_same(self, got, want):
        assert got.keys() == want.keys()
        for s in want:
            if want[s] is None:
                assert got[s] is None
            else:
                assert np.array_equal(got[s], want[s])

    @pytest.mark.parametrize("dim, n", [(1, 512), (2, 128), (3, 48)])
    def test_random_trig_grids(self, dim, n):
        rng = np.random.default_rng(40 + dim)
        for _ in range(4):
            f = random_trig_poly(rng, dim, max_shells=4, max_norm=8)
            sgn = _signs(f.eval_grid(n))
            spacing = (1.0 / n,) * dim
            self.assert_same(
                _grid_distances(sgn, spacing, periodic=True),
                full_pad_torus_distances(sgn, spacing),
            )

    def test_first_pad_too_small_grows(self, monkeypatch):
        # half-periods of cos 2 pi x: distances reach 64 cells of 256
        n = 256
        sgn = _signs(cosine_1d(1).eval_grid(n))
        got, pads = self.pads_used(monkeypatch, sgn, (1.0 / n,))
        self.assert_same(got, full_pad_torus_distances(sgn, (1.0 / n,)))
        assert pads[0] == signsearch._TORUS_PAD
        assert signsearch._TORUS_PAD < pads[1] < n // 2

    def test_far_region_reaches_cap(self, monkeypatch):
        # cos 2 pi x1 + cos 2 pi x2 - 1.9: a small positive blob at the origin,
        # negative elsewhere, so the negative cells' distances reach across
        # half the torus
        n = 64
        x = np.arange(n) / n
        values = np.cos(2 * np.pi * x)[:, None] + np.cos(2 * np.pi * x)[None, :] - 1.9
        sgn = _signs(values)
        assert (sgn == 1).any() and (sgn == -1).any()
        spacing = (1.0 / n, 1.0 / n)
        got, pads = self.pads_used(monkeypatch, sgn, spacing)
        self.assert_same(got, full_pad_torus_distances(sgn, spacing))
        assert n // 2 in pads


class TestBoxSearch:
    def test_single_wave_in_box(self):
        rng = np.random.default_rng(17)
        mix = random_eigen_mix(rng, 2, max_levels=1, lam_lo=25.0, lam_hi=25.0, max_waves=1)
        bound = bound_theorem3(mix)
        L = 2.0 * bound
        dom = SearchDomain.box(2, (0.0, 0.0), (L, L), 192)
        passed, report = verify_bound(mix, dom, bound)
        assert passed
        # a single plane wave of frequency 5 has half-period pi/5
        assert report.r_lower <= bound

    def test_mix_stress_smoke(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mix = random_eigen_mix(rng, 2, max_levels=3, lam_lo=1.0, lam_hi=40.0)
            bound = bound_theorem3(mix)
            L = 2.0 * bound
            dom = SearchDomain.box(2, (0.0, 0.0), (L, L), 160)
            passed, _ = verify_bound(mix, dom, bound)
            assert passed


def heap_graph_radius(pts, sgn):
    """Reference: the kNN-graph distances by a heapq Dijkstra per sign."""
    n_points = pts.shape[0]
    _, nbr = cKDTree(pts).query(pts, k=_SPHERE_KNN + 1)
    nbr = nbr[:, 1:]
    arc = np.arccos(np.clip(np.einsum("ij,ikj->ik", pts, pts[nbr]), -1.0, 1.0))
    radius = np.zeros(n_points)
    for s in (1, -1):
        mine = sgn == s
        sources = np.nonzero(sgn != s)[0]
        if not mine.any() or sources.size == 0:
            continue
        dist = np.full(n_points, np.inf)
        dist[sources] = 0.0
        heap = [(0.0, int(u)) for u in sources]
        heapq.heapify(heap)
        while heap:
            d0, u = heapq.heappop(heap)
            if d0 > dist[u]:
                continue
            for v, w in zip(nbr[u], arc[u]):
                if d0 + w < dist[v]:
                    dist[v] = d0 + w
                    heapq.heappush(heap, (d0 + w, int(v)))
        radius[mine] = dist[mine]
    return radius


def reference_sphere_search(f, resolution):
    """Reference: (center, r_lower) of the sphere search with a heapq
    Dijkstra and a per-leader gather of the opposite-sign points."""
    pts = _fibonacci_sphere(resolution**2)
    sgn = _signs(f.eval_many(pts))
    radius = heap_graph_radius(pts, sgn)
    order = np.argsort(-radius, kind="stable")
    best_r, best_i, best_seed = -1.0, -1, None
    for i in order[:512]:
        if radius[i] < 0.9 * radius[order[0]] and best_i >= 0:
            break
        opp = np.nonzero(sgn != sgn[i])[0]
        cos_to = pts[opp] @ pts[i]
        jmax = int(np.argmax(cos_to))
        exact = math.acos(max(-1.0, min(1.0, float(cos_to[jmax]))))
        if exact > best_r:
            best_r, best_i, best_seed = exact, int(i), pts[opp[jmax]]
    center = pts[best_i]
    axis = best_seed - math.cos(best_r) * center
    axis /= np.linalg.norm(axis)

    def eval_arc(theta):
        p = math.cos(theta) * center + math.sin(theta) * axis
        return float(f.eval_many(p[None, :])[0])

    return center, _bisect_crossing(eval_arc, 0.0, best_r)


class TestSphereSearch:
    def test_degree_two_zonal_cap(self):
        # C_2^{1/2}(t) = (3 t^2 - 1)/2 changes sign at t = 1/sqrt(3); the
        # largest sign-free cap is the polar cap of radius arccos(1/sqrt(3))
        f = SphereFn(3, [ZonalTerm(degree=2, pole=np.array([0.0, 0.0, 1.0]), weight=1.0)])
        report = largest_signfree_ball(f, SearchDomain.sphere(3, 96))
        expected = math.acos(1.0 / math.sqrt(3.0))
        assert report.r_lower == pytest.approx(expected, abs=0.03)

    def test_verify_theorem2_smoke(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            f = random_sphere_fn(rng, 3, max_degree=10)
            passed, rep = verify_bound(
                f, SearchDomain.sphere(3, 96), bound_theorem2(f)
            )
            assert passed

    def test_graph_radius_matches_heap_dijkstra(self):
        rng = np.random.default_rng(31)
        for resolution in (32, 96):
            pts = _fibonacci_sphere(resolution**2)
            _, graph = _spiral_graph(resolution**2)
            for _ in range(3):
                f = random_sphere_fn(rng, 3, max_degree=10)
                sgn = _signs(f.eval_many(pts))
                assert np.array_equal(
                    _sphere_graph_radius(graph, sgn), heap_graph_radius(pts, sgn)
                )

    def test_search_matches_reference_search(self):
        rng = np.random.default_rng(32)
        for resolution in (32, 96):
            for _ in range(3):
                f = random_sphere_fn(rng, 3, max_degree=12)
                report = largest_signfree_ball(f, SearchDomain.sphere(3, resolution))
                center, r_lower = reference_sphere_search(f, resolution)
                assert np.allclose(report.center, center, rtol=0.0, atol=1e-12)
                assert report.r_lower == pytest.approx(r_lower, rel=0.0, abs=1e-12)

    def test_all_zero_grid_reported(self):
        report = largest_signfree_ball(
            lambda p: np.zeros(len(p)), SearchDomain.sphere(3, 32)
        )
        assert report.r_lower == 0.0
        assert not report.constant_sign
        assert report.notes == "grid values all within the zero threshold"
        assert report.samples_used == 32**2

    def test_repeated_search_identical(self):
        f = random_sphere_fn(np.random.default_rng(33), 3, max_degree=12)
        dom = SearchDomain.sphere(3, 64)
        first = largest_signfree_ball(f, dom)
        assert largest_signfree_ball(f, dom) == first

    def test_cached_graph_read_only(self):
        pts, graph = _spiral_graph(32**2)
        assert _spiral_graph(32**2)[1] is graph
        assert np.array_equal(pts, _fibonacci_sphere(32**2))
        for arr in (pts, graph.data, graph.indices, graph.indptr):
            assert not arr.flags.writeable

    def test_non_3d_sphere_rejected(self):
        with pytest.raises(ValueError):
            SearchDomain.sphere(4, 64)


class TestNonFiniteSamples:
    """One NaN or inf sample must not turn the grid into all zeros and
    r_lower = 0, which verify_bound would pass."""

    @pytest.mark.parametrize(
        "dom,bad",
        [
            (SearchDomain.torus(1, 256), np.nan),
            (SearchDomain.sphere(3, 32), np.inf),
            (SearchDomain.box(2, (0.0, 0.0), (1.0, 1.0), 32), -np.inf),
        ],
        ids=["torus", "sphere", "box"],
    )
    def test_non_finite_sample_raises(self, dom, bad):
        def f(pts):
            v = np.cos(6.0 * np.pi * pts[:, 0])
            v[0] = bad
            return v

        with pytest.raises(ValueError, match="finite"):
            largest_signfree_ball(f, dom)
        with pytest.raises(ValueError, match="finite"):
            verify_bound(f, dom, 1.0)


class TestDomainValidation:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            SearchDomain.torus(2, 8)

    def test_box_needs_positive_sides(self):
        with pytest.raises(ValueError):
            SearchDomain.box(2, (0.0, 0.0), (1.0, 0.0), 32)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SearchDomain(kind="plane", dim=2, resolution=32)


class TestSharpnessProbe:
    def test_single_frequency_exact(self):
        best = sharpness_probe(5, 0, trials=10, seed=1)
        assert abs(best - 0.1) <= 2.0**-12

    def test_a5_b1_window(self):
        best = sharpness_probe(5, 1, trials=200, seed=1)
        ceiling = 2.0 / 11.0
        assert best <= ceiling + 2.0**-12
        assert best >= 0.5 * ceiling

    def test_a3_b2_ceiling_and_floor(self):
        best = sharpness_probe(3, 2, trials=200, seed=1)
        ceiling = 3.0 / 8.0
        assert best <= ceiling + 2.0**-12
        assert best >= 0.5 * ceiling

    def test_monotone_in_b(self):
        vals = [sharpness_probe(4, b, trials=120, seed=3) for b in range(0, 3)]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12


def reference_band_poly_values(A, coeffs, x):
    """The band polynomial summed one coefficient at a time, each with its
    own e^{2 pi i (A+j) x}: the probe's evaluation before the table."""
    vals = np.zeros(x.size)
    for j, c in enumerate(coeffs):
        vals += np.real(c * np.exp(2j * np.pi * (A + j) * x))
    return vals


def reference_sharpness_probe(A, B, trials, seed, resolution=2**14):
    """sharpness_probe with the per-coefficient evaluation above."""
    gap = signsearch._largest_gap_on_circle
    rng = np.random.default_rng(seed)
    x = np.arange(resolution) / resolution
    best = gap(np.cos(2.0 * np.pi * A * x))
    for Bp in range(1, B + 1):
        for _ in range(trials // 2):
            coeffs = rng.normal(size=Bp + 1) + 1j * rng.normal(size=Bp + 1)
            best = max(best, gap(reference_band_poly_values(A, coeffs, x)))
        M = 2 * A + Bp
        roots = np.array([0.5 + (j - (Bp - 1) / 2.0) / M for j in range(Bp)])
        psi = 0.0
        cur = gap(
            reference_band_poly_values(A, signsearch._structured_coeffs(A, Bp, roots, psi), x)
        )
        step0 = 1.0 / (4.0 * M)
        for it in range(trials // 2):
            scale = 2.0 ** (-it / 40.0)
            cand_roots = roots + rng.normal(scale=step0 * scale, size=Bp)
            cand_psi = psi + rng.normal(scale=0.3 * scale)
            g = gap(
                reference_band_poly_values(
                    A, signsearch._structured_coeffs(A, Bp, cand_roots, cand_psi), x
                )
            )
            if g > cur:
                cur, roots, psi = g, cand_roots, cand_psi
        best = max(best, cur)
    return best


class TestSharpnessTable:
    def test_table_matches_per_coefficient_loop(self):
        rng = np.random.default_rng(12)
        x = np.arange(2**14) / 2**14
        for A, B in ((5, 1), (3, 2), (4, 3)):
            table = signsearch._band_table(A, B, x)
            for Bp in range(B + 1):
                coeffs = rng.normal(size=Bp + 1) + 1j * rng.normal(size=Bp + 1)
                got = signsearch._band_poly_values(table, coeffs)
                ref = reference_band_poly_values(A, coeffs, x)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(coeffs))

    @pytest.mark.parametrize("A,B", [(5, 1), (3, 2), (4, 3)])
    def test_probe_matches_per_coefficient_probe(self, A, B):
        for seed in (0, 7):
            assert sharpness_probe(A, B, trials=80, seed=seed) == reference_sharpness_probe(
                A, B, 80, seed
            )


class TestRandomInstances:
    def test_trig_poly_deterministic(self):
        a = random_trig_poly(np.random.default_rng(5), 2)
        b = random_trig_poly(np.random.default_rng(5), 2)
        assert set(a.coeffs) == set(b.coeffs)
        for k in a.coeffs:
            assert a.coeffs[k] == b.coeffs[k]

    def test_trig_poly_respects_limits(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_trig_poly(rng, 3, max_shells=5, max_norm=12)
            from nodal_radius.torus import shells

            s = shells(f)
            assert 1 <= len(s) <= 5
            assert s.top <= 12.0

    def test_sphere_fn_degrees(self):
        rng = np.random.default_rng(13)
        f = random_sphere_fn(rng, 3, max_degree=12)
        assert all(1 <= k <= 12 for k in f.degrees())

    def test_eigen_mix_levels(self):
        rng = np.random.default_rng(21)
        mix = random_eigen_mix(rng, 3, max_levels=3, lam_lo=1.0, lam_hi=100.0)
        lams = mix.lambdas
        assert 1 <= len(lams) <= 3
        assert all(1.0 <= lam <= 100.0 for lam in lams)
        assert list(lams) == sorted(lams)
