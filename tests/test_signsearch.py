"""Tests for the sign-free-ball search and the 1D sharpness probe."""

import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree
from scipy.special import eval_legendre

from nodal_radius import signsearch
from nodal_radius.eigenid import EigenMix, PlaneWaveEigen, bound_theorem3
from nodal_radius.signsearch import (
    _SPHERE_KNN,
    _bisect_crossing,
    _fibonacci_sphere,
    _grid_argmax,
    _nearest_other,
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


def full_pad_torus_radius(sgn, spacing):
    """Reference: per cell of sign +-1, the EDT distance to another sign on
    the grid wrap-padded by n // 2 on every side (0 on zeros)."""
    radius = np.zeros(sgn.shape)
    pad = tuple(n // 2 for n in sgn.shape)
    for s in (1, -1):
        mine = sgn == s
        if not mine.any() or mine.all():
            continue
        padded = np.pad(mine, tuple((p, p) for p in pad), mode="wrap")
        dist = distance_transform_edt(padded, sampling=spacing)
        dist = dist[tuple(slice(p, p + n) for p, n in zip(pad, sgn.shape))]
        radius[mine] = dist[mine]
    return radius


def radius_argmax(radius):
    """(flat, r) of the first maximum of a radius array."""
    flat = int(np.argmax(radius))
    return flat, float(radius.flat[flat])


def transform_kind(mine, grid_shape):
    """"whole" for a min-plus transform of the whole grid, "coarse" for one
    of the stride-2 coarse grid, which has fewer cells per axis."""
    return "whole" if mine.shape == tuple(grid_shape) else "coarse"


def edt_shapes(monkeypatch, grid_shape):
    """Record (kind, input shape) of every distance transform signsearch
    runs on a grid of ``grid_shape``: "window" for scipy's EDT of a tile
    window, and "coarse" or "whole" for the min-plus transform."""
    shapes = []
    min_plus = signsearch._min_plus_edt

    def edt(a, **kw):
        shapes.append(("window", a.shape))
        return distance_transform_edt(a, **kw)

    def transform(mine, *args):
        shapes.append((transform_kind(mine, grid_shape), mine.shape))
        return min_plus(mine, *args)

    monkeypatch.setattr(signsearch, "distance_transform_edt", edt)
    monkeypatch.setattr(signsearch, "_min_plus_edt", transform)
    return shapes


def min_plus_reaches(monkeypatch, grid_shape):
    """Record (kind, reach) of every min-plus transform signsearch runs on
    a grid of ``grid_shape``, kind "coarse" or "whole"."""
    reaches = []
    min_plus = signsearch._min_plus_edt

    def transform(mine, spacing, periodic, reach):
        reaches.append((transform_kind(mine, grid_shape), list(reach)))
        return min_plus(mine, spacing, periodic, reach)

    monkeypatch.setattr(signsearch, "_min_plus_edt", transform)
    return reaches


class TestTorusDistances:
    """The torus search, one periodic min-plus transform per sign, finds the
    full-pad radius array's first maximum."""

    @pytest.mark.parametrize("dim, n", [(1, 512), (2, 128), (3, 48)])
    def test_random_trig_grids(self, dim, n):
        rng = np.random.default_rng(40 + dim)
        for _ in range(4):
            f = random_trig_poly(rng, dim, max_shells=4, max_norm=8)
            sgn = _signs(f.eval_grid(n))
            spacing = (1.0 / n,) * dim
            assert _grid_argmax(sgn, spacing, periodic=True) == radius_argmax(
                full_pad_torus_radius(sgn, spacing)
            )

    @staticmethod
    def assert_one_transform_per_sign(monkeypatch, sgn, spacing):
        # one whole-grid min-plus transform per sign with cells on both sides,
        # at the caps, no scipy EDT, and the full-pad reference's argmax
        shapes = edt_shapes(monkeypatch, sgn.shape)
        reaches = min_plus_reaches(monkeypatch, sgn.shape)
        got = _grid_argmax(sgn, spacing, periodic=True)
        monkeypatch.undo()
        assert got == radius_argmax(full_pad_torus_radius(sgn, spacing))
        signs = [s for s in (1, -1) if (sgn == s).any() and not (sgn == s).all()]
        assert [kind for kind, _ in shapes] == ["whole"] * len(signs)
        for _, reach in reaches:
            assert all(r >= n // 2 for r, n in zip(reach, sgn.shape))

    def test_odd_fallback_reach_from_bound(self, monkeypatch):
        # quadrants of cos 2 pi x cos 2 pi y at odd n: distances reach 64 cells
        # of 255, short of the cap, where each axis pass stops on its own
        n = 255
        x = np.arange(n) / n
        sgn = _signs(np.cos(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * x)[None, :])
        self.assert_one_transform_per_sign(monkeypatch, sgn, (1.0 / n, 1.0 / n))

    def test_far_region_reaches_cap(self, monkeypatch):
        # a small positive blob at (4, 4) cells, negative elsewhere, so the
        # negative cells' distances reach across half the torus, at even and
        # odd n
        for n in (256, 65):
            x = (np.arange(n) - 4) / n
            values = np.cos(2 * np.pi * x)[:, None] + np.cos(2 * np.pi * x)[None, :] - 1.9
            sgn = _signs(values)
            assert (sgn == 1).any() and (sgn == -1).any()
            self.assert_one_transform_per_sign(monkeypatch, sgn, (1.0 / n, 1.0 / n))

    def test_sign_without_cells_skipped(self, monkeypatch):
        # positive cells and zeros only: no transform runs for the negative sign
        n = 64
        sgn = _signs(np.maximum(np.cos(2 * np.pi * np.arange(n) / n), 0.0))
        assert not (sgn == -1).any()
        self.assert_one_transform_per_sign(monkeypatch, sgn, (1.0 / n,))


class TestTileBounds:
    """Every fine distance of a box grid is at most its tile's bound. A
    collinear case meets the bound exactly, and on these grids rounding
    would break it by one ulp without the bound's relative slack."""

    @staticmethod
    def assert_bounds_hold(sgn, spacing, radius):
        diag = math.sqrt(sum(h * h for h in spacing))
        for s in (1, -1):
            mine = sgn == s
            tiles = signsearch._tile_bounds(mine, spacing, diag)
            if tiles is None:
                continue
            for bound, origin in zip(*tiles):
                cells = tuple(slice(a, a + signsearch._TILE) for a in origin)
                assert np.where(mine, radius, 0.0)[cells].max() <= bound

    def test_box(self):
        for n in (64, 129, 130, 256):
            for sgn, _, spacing, _ in random_box_grids(2, n, 2):
                radius = np.zeros(sgn.shape)
                for s in (1, -1):
                    mine = sgn == s
                    if mine.any() and not mine.all():
                        radius[mine] = distance_transform_edt(mine, sampling=spacing)[mine]
                self.assert_bounds_hold(sgn, spacing, radius)


def reference_search_step(sgn, axes, spacing, periodic):
    """Reference: (flat, r, delta, dist2, EDT cells) of the whole-grid
    search step, an EDT of each sign over the grid (wrap-padded to the
    answer on the torus), the first maximum of the merged radii, and a scan
    of every cell of another sign for the nearest one."""
    radius = np.zeros(sgn.shape)
    caps = [m // 2 for m in sgn.shape]
    pad = [min(8, c) for c in caps]
    cells = 0
    for s in (1, -1):
        mine = sgn == s
        if not mine.any() or mine.all():
            continue
        if not periodic:
            dist = distance_transform_edt(mine, sampling=spacing)
            cells += mine.size
        else:
            while True:
                padded = np.pad(mine, tuple((p, p) for p in pad), mode="wrap")
                dist = distance_transform_edt(padded, sampling=spacing)
                cells += padded.size
                dist = dist[tuple(slice(p, p + m) for p, m in zip(pad, sgn.shape))]
                top = float(dist.max())
                if all(p == c or top <= p * h for p, c, h in zip(pad, caps, spacing)):
                    break
                pad = [min(math.ceil(top / h) + 1, c) for h, c in zip(spacing, caps)]
        radius[mine] = dist[mine]
    flat, r = radius_argmax(radius)
    idx = np.unravel_index(flat, sgn.shape)
    center = np.array([axis[k] for axis, k in zip(axes, idx)])
    opp_idx = np.argwhere(sgn != sgn.flat[flat])
    opp_pts = np.stack([axes[i][opp_idx[:, i]] for i in range(sgn.ndim)], axis=1)
    deltas = opp_pts - center
    if periodic:
        deltas = (deltas + 0.5) % 1.0 - 0.5
    dist2 = np.einsum("ij,ij->i", deltas, deltas)
    j = int(np.argmin(dist2))
    return flat, r, deltas[j], float(dist2[j]), cells


def torus_grid(values):
    n, d = values.shape[0], values.ndim
    return _signs(values), [np.arange(n) / n] * d, (1.0 / n,) * d, True


def box_grid(f, dim, n, side):
    axes = [np.linspace(0.0, side, n)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return _signs(f(pts).reshape((n,) * dim)), axes, (side / (n - 1),) * dim, False


def random_torus_grids(dim, n, count, max_norm):
    rng = np.random.default_rng(100 * dim + n)
    return [torus_grid(random_trig_poly(rng, dim, max_shells=6, max_norm=max_norm).eval_grid(n))
            for _ in range(count)]


def random_box_grids(dim, n, count):
    rng = np.random.default_rng(200 * dim + n)
    grids = []
    for _ in range(count):
        mix = random_eigen_mix(rng, dim, max_levels=2, lam_lo=1.0, lam_hi=100.0, max_waves=2)
        grids.append(box_grid(mix.eval_many, dim, n, 2.0 * bound_theorem3(mix)))
    return grids


def product_grids(n, k):
    """cos 2 pi k x cos 2 pi k y: every maximum ties with many others, and
    n divisible by 4k puts exact zeros on whole grid lines."""
    x = np.arange(n) / n
    torus = torus_grid(np.cos(2 * np.pi * k * x)[:, None] * np.cos(2 * np.pi * k * x)[None, :])
    box = box_grid(lambda p: np.cos(2 * np.pi * k * p[:, 0]) * np.cos(2 * np.pi * k * p[:, 1]),
                   2, n, 1.0)
    return [torus, box]


def zeroed_grids(n):
    """Random torus and box grids with one cell in twenty set to zero."""
    rng = np.random.default_rng(n)
    grids = random_torus_grids(2, n, 1, 12) + random_box_grids(2, n, 1)
    for sgn, *_ in grids:
        sgn[rng.random(sgn.shape) < 0.05] = 0
    return grids


def odd_only_grids(n):
    """Negative cells at odd indices only, on a positive torus and box: the
    stride-2 coarse grid holds no cell of another sign for the positive
    sign, and no cell at all for the negative one."""
    grids = []
    for periodic in (True, False):
        sgn = np.ones((n, n), dtype=int)
        sgn[5, 7] = sgn[41, 13] = sgn[n - 1, 99] = -1
        axes = [np.arange(n) / n if periodic else np.linspace(0.0, 1.0, n)] * 2
        spacing = (1.0 / n if periodic else 1.0 / (n - 1),) * 2
        grids.append((sgn, axes, spacing, periodic))
    return grids


SEARCH_CASES = {
    "torus-d1-n4096": lambda: random_torus_grids(1, 4096, 4, 40),
    "torus-d2-n256": lambda: random_torus_grids(2, 256, 4, 12),
    "torus-d2-n512": lambda: random_torus_grids(2, 512, 2, 20),
    "torus-d3-n96": lambda: random_torus_grids(3, 96, 1, 4),
    "box-d2-n256": lambda: random_box_grids(2, 256, 4),
    "box-d3-n96": lambda: random_box_grids(3, 96, 1),
    "odd-torus-d2-n255": lambda: random_torus_grids(2, 255, 2, 12),
    "odd-torus-d3-n47": lambda: random_torus_grids(3, 47, 2, 6),
    "odd-box-d2-n255": lambda: random_box_grids(2, 255, 2),
    "ties-n256-k4": lambda: product_grids(256, 4),
    "ties-n250-k3": lambda: product_grids(250, 3),
    "zeros-n256": lambda: zeroed_grids(256),
    "odd-cells-only-n128": lambda: odd_only_grids(128),
    "fallback-box-d3-n64": lambda: random_box_grids(3, 64, 1),
}
# cases in which some box grid must run tile windows, not only whole-grid
# transforms; a torus grid never does
WINDOWED = {"box-d2-n256", "box-d3-n96", "zeros-n256", "odd-box-d2-n255"}


class TestCoarseToFineSearch:
    """The grid search step, coarse to fine in a box and one whole-grid
    transform per sign on the torus, equals the whole-grid one: the same
    center cell, distance and refinement cell, bit for bit. Its transforms
    never cost more than half as many cells again, as a box sign whose
    windows would outgrow the whole grid takes one whole-grid transform
    instead."""

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_matches_whole_grid_step(self, monkeypatch, case):
        windowed = False
        for sgn, axes, spacing, periodic in SEARCH_CASES[case]():
            *want, whole_cells = reference_search_step(sgn, axes, spacing, periodic)
            shapes = edt_shapes(monkeypatch, sgn.shape)
            flat, r = _grid_argmax(sgn, spacing, periodic)
            monkeypatch.undo()
            delta, dist2 = _nearest_other(sgn, flat, r, axes, spacing, periodic)
            assert (flat, r) == tuple(want[:2])
            assert np.array_equal(delta, want[2]) and dist2 == want[3]
            assert sum(np.prod(s) for _, s in shapes) <= 1.5 * whole_cells
            windowed |= any(kind == "window" for kind, _ in shapes)
        assert windowed or case not in WINDOWED

    def test_fallback_reach_from_bound(self, monkeypatch):
        # a sign of the 3-D box falls back to the whole grid; the transform's
        # reach is that sign's top tile bound in cells, which bounds every
        # distance and is short of the cap
        ((sgn, _, spacing, periodic),) = SEARCH_CASES["fallback-box-d3-n64"]()
        diag = math.sqrt(sum(h * h for h in spacing))
        reaches = min_plus_reaches(monkeypatch, sgn.shape)
        _, r = _grid_argmax(sgn, spacing, periodic)
        monkeypatch.undo()
        want = []
        for s in (1, -1):
            top = signsearch._tile_bounds(sgn == s, spacing, diag)[0][0]
            want.append([math.ceil(top / h) for h in spacing])
        whole = [reach for kind, reach in reaches if kind == "whole"]
        assert whole and all(reach in want for reach in whole)
        for reach in whole:
            assert all(math.ceil(r / h) <= c < n - 1 for c, h, n in zip(reach, spacing, sgn.shape))

    def test_odd_only_grids_take_caps_once(self, monkeypatch):
        # on the torus both signs take one whole-grid transform at the caps;
        # in the box the positive sign has no coarse cell of another sign, so
        # it takes one at the caps, and the negative sign's tile bounds all
        # fall below the answer
        for sgn, _, spacing, periodic in odd_only_grids(128):
            reaches = min_plus_reaches(monkeypatch, sgn.shape)
            _grid_argmax(sgn, spacing, periodic)
            monkeypatch.undo()
            caps = [n // 2 if periodic else n - 1 for n in sgn.shape]
            whole = [reach for kind, reach in reaches if kind == "whole"]
            assert len(whole) == (2 if periodic else 1)
            assert all(r >= c for reach in whole for r, c in zip(reach, caps))


def brute_distances(mine, spacing, periodic):
    """Reference: per cell of ``mine``, the least over every cell outside it
    (and, on the torus, every image of one within a period on each axis) of
    scipy's float formula, the squared steps (Delta_i h_i)^2 added in axis
    order, and its square root; 0 outside ``mine``."""
    out = np.zeros(mine.shape)
    others = np.argwhere(~mine)
    shifts = [(-n, 0, n) if periodic else (0,) for n in mine.shape]
    images = np.concatenate([others + np.array(shift) for shift in itertools.product(*shifts)])
    for cell in np.argwhere(mine):
        delta = (images - cell).astype(float)
        total = np.zeros(len(images))
        for ax, h in enumerate(spacing):
            step = delta[:, ax] * h
            total = total + step * step
        out[tuple(cell)] = math.sqrt(total.min())
    return out


def scipy_distances(mine, spacing, periodic):
    """scipy's EDT of ``mine``; on the torus of the grid wrap-padded by n // 2."""
    if not periodic:
        return distance_transform_edt(mine, sampling=spacing)
    pad = [n // 2 for n in mine.shape]
    dist = distance_transform_edt(np.pad(mine, [(p, p) for p in pad], mode="wrap"), sampling=spacing)
    return dist[tuple(slice(p, p + n) for p, n in zip(pad, mine.shape))]


def smooth_sign_field(shape, seed, zeros=False):
    """Signs of a few random cosines over the grid, optionally with one cell
    in ten zeroed."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.arange(n) / n for n in shape], indexing="ij")
    values = sum(rng.normal() * np.cos(2 * np.pi * sum(int(rng.integers(-2, 3)) * a for a in axes)
                                       + rng.uniform(0, 2 * np.pi)) for _ in range(3))
    sgn = _signs(values + 0.3)
    if zeros:
        sgn[rng.random(shape) < 0.1] = 0
    return sgn


# (shape, box spacing): even and odd n, and box spacings that differ per axis
KERNEL_SHAPES = [((64,), (0.3,)), ((65,), (0.3,)), ((24, 24), (0.2, 0.2)), ((23, 25), (0.11, 0.37)),
                 ((10, 10, 10), (0.5, 0.5, 0.5)), ((9, 10, 11), (0.05, 0.3, 0.17))]


def tightest_reach(mine, spacing, periodic):
    """ceil(max brute distance / h_i) per axis: the least reach that holds
    every cell's nearest outside cell."""
    top = float(brute_distances(mine, spacing, periodic).max())
    return [math.ceil(top / h) for h in spacing]


class TestMinPlusEdt:
    """The whole-grid min-plus transform, at its caps and at the tightest
    reach that holds every answer, equals an independent brute-force
    minimum of scipy's float formula and is never above scipy's EDT."""

    @staticmethod
    def check(mine, spacing, periodic):
        want = brute_distances(mine, spacing, periodic)
        caps = [n // 2 if periodic else n - 1 for n in mine.shape]
        for reach in (caps, tightest_reach(mine, spacing, periodic)):
            dist = signsearch._min_plus_edt(mine, spacing, periodic, reach)
            assert np.array_equal(dist, want)
            assert np.all(dist <= scipy_distances(mine, spacing, periodic))

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("shape, box_spacing", KERNEL_SHAPES)
    def test_matches_brute_force(self, shape, box_spacing, periodic):
        spacing = tuple(1.0 / n for n in shape) if periodic else box_spacing
        for seed, zeros in ((1, False), (2, True), (3, False)):
            sgn = smooth_sign_field(shape, seed + len(shape), zeros)
            for s in (1, -1):
                mine = sgn == s
                if mine.any() and not mine.all():
                    self.check(mine, spacing, periodic)

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("shape, box_spacing", KERNEL_SHAPES[2:])
    def test_far_cells_reach_cap(self, shape, box_spacing, periodic):
        # one outside cell: most axis-0 lines hold no outside cell (+inf after
        # axis 0), and the far cells' distances need every reach at its cap
        spacing = tuple(1.0 / n for n in shape) if periodic else box_spacing
        mine = np.ones(shape, dtype=bool)
        mine[(1,) * len(shape)] = False
        self.check(mine, spacing, periodic)

    def test_odd_tightest_reach_one_pass(self, monkeypatch):
        # on an odd torus, the tightest reach is short of the cap; each later
        # axis takes one pass at it, and the result is exact
        shape = (25, 25)
        spacing = (1.0 / 25, 1.0 / 25)
        mine = smooth_sign_field(shape, 5) == 1
        reach = tightest_reach(mine, spacing, True)
        assert reach[1] < 25 // 2
        passes = []
        min_plus_axis = signsearch._min_plus_axis

        def axis_pass(g, ax, reach, h, periodic):
            passes.append(reach)
            return min_plus_axis(g, ax, reach, h, periodic)

        monkeypatch.setattr(signsearch, "_min_plus_axis", axis_pass)
        dist = signsearch._min_plus_edt(mine, spacing, True, reach)
        assert passes == [reach[1]]
        assert np.array_equal(dist, brute_distances(mine, spacing, True))
        assert np.array_equal(dist, scipy_distances(mine, spacing, True))


def reference_trig_grid(f, n):
    """Reference TrigPoly grid values: one complex outer product of per-axis
    exponential tables per stored key, k and -k alike."""
    axis = np.arange(n) / n
    out = np.zeros((n,) * f.dim, dtype=complex)
    for k, a in f.coeffs.items():
        term = np.exp(2j * np.pi * k[0] * axis)
        for comp in k[1:]:
            term = np.multiply.outer(term, np.exp(2j * np.pi * comp * axis))
        out += a * term
    return out.real


def reference_grid_search(f, dom, seed=None):
    """Reference: the torus and box search in one function, with a distance
    array per sign, an argmax over their merge and a report per outcome."""

    def evaluate(pts):
        return np.asarray(f.eval_many(pts) if hasattr(f, "eval_many") else f(pts), dtype=float)

    n, d = dom.resolution, dom.dim
    periodic = dom.kind == "torus"
    if periodic:
        axes = [np.arange(n) / n] * d
        spacing = (1.0 / n,) * d
    else:
        axes = [np.linspace(dom.lo[i], dom.hi[i], n) for i in range(d)]
        spacing = tuple((dom.hi[i] - dom.lo[i]) / (n - 1) for i in range(d))
    if periodic and isinstance(f, TrigPoly) and f.dim == d:
        values = reference_trig_grid(f, n)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        values = evaluate(pts).reshape((n,) * d)
    sgn = _signs(values)
    diag = math.sqrt(sum(h * h for h in spacing))
    common = dict(samples_used=values.size, resolution=n, domain=dom.kind, dim=d, seed=seed)
    if np.all(sgn == sgn.flat[0]) and sgn.flat[0] != 0:
        return signsearch.SignBallReport(
            center=tuple(float(a[0]) for a in axes), r_lower=0.0, r_upper=dom.diameter(),
            constant_sign=True, notes="constant sign on the whole grid", **common,
        )
    caps = [m // 2 for m in sgn.shape]
    pad = [min(8, c) for c in caps]
    dists = {}
    for s in (1, -1):
        seeds = sgn != s
        if not seeds.any():
            dists[s] = None
        elif not periodic:
            dists[s] = distance_transform_edt(~seeds, sampling=spacing)
        else:
            while True:
                padded = np.pad(~seeds, tuple((p, p) for p in pad), mode="wrap")
                dist = distance_transform_edt(padded, sampling=spacing)
                dist = dist[tuple(slice(p, p + m) for p, m in zip(pad, sgn.shape))]
                top = float(dist.max())
                if all(p == c or top <= p * h for p, c, h in zip(pad, caps, spacing)):
                    break
                pad = [min(math.ceil(top / h) + 1, c) for h, c in zip(spacing, caps)]
            dists[s] = dist
    radius = np.zeros(sgn.shape)
    for s in (1, -1):
        if dists[s] is not None:
            radius[sgn == s] = dists[s][sgn == s]
    idx = np.unravel_index(int(np.argmax(radius)), sgn.shape)
    center = np.array([axes[i][idx[i]] for i in range(d)])
    center_sign = int(sgn[idx])
    if center_sign == 0:
        return signsearch.SignBallReport(
            center=tuple(float(c) for c in center), r_lower=0.0, r_upper=diag,
            notes="grid values all within the zero threshold", **common,
        )
    opp_idx = np.argwhere(sgn != center_sign)
    opp_pts = np.stack([axes[i][opp_idx[:, i]] for i in range(d)], axis=1)
    deltas = opp_pts - center
    if periodic:
        deltas = (deltas + 0.5) % 1.0 - 0.5
    dist2 = np.einsum("ij,ij->i", deltas, deltas)
    j = int(np.argmin(dist2))

    def eval_line(t):
        p = center + t * deltas[j]
        if periodic:
            p = p % 1.0
        return float(evaluate(p[None, :])[0])

    r_ref = _bisect_crossing(eval_line, 0.0, 1.0) * math.sqrt(float(dist2[j]))
    return signsearch.SignBallReport(
        center=tuple(float(c) for c in center), r_lower=r_ref, r_upper=r_ref + diag, **common
    )


class TestGridSearchReference:
    """Torus and box reports equal the two-path grid search field for field."""

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (3, 24)])
    def test_torus_trig_poly(self, dim, n):
        rng = np.random.default_rng(70 + dim)
        dom = SearchDomain.torus(dim, n)
        for _ in range(4):
            f = random_trig_poly(rng, dim, max_shells=4, max_norm=8)
            # the TrigPoly takes the eval_grid path, a plain callable the mesh
            for g in (f, lambda pts: f.eval_many(pts)):
                assert largest_signfree_ball(g, dom, seed=5) == reference_grid_search(g, dom, 5)

    @pytest.mark.parametrize("dim, n", [(2, 64), (3, 24)])
    def test_box_eigen_mix(self, dim, n):
        rng = np.random.default_rng(80 + dim)
        for _ in range(4):
            mix = random_eigen_mix(rng, dim, max_levels=3, lam_lo=1.0, lam_hi=40.0)
            L = 2.0 * bound_theorem3(mix)
            dom = SearchDomain.box(dim, (0.0,) * dim, (L,) * dim, n)
            for g in (mix, lambda pts: mix.eval_many(pts)):
                assert largest_signfree_ball(g, dom, seed=3) == reference_grid_search(g, dom, 3)


class TestGridSampling:
    """The sampler's separable kernel against point evaluation."""

    @pytest.mark.parametrize("dim, n", [(2, 48), (3, 16)])
    def test_box_waves_match_point_evaluation(self, dim, n):
        rng = np.random.default_rng(90 + dim)
        lo = (-1.5, 0.25, 2.0)[:dim]
        hi = (2.5, 1.0, 9.0)[:dim]
        dom = SearchDomain.box(dim, lo, hi, n)
        mesh = np.meshgrid(*[np.linspace(a, b, n) for a, b in zip(lo, hi)], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        for _ in range(3):
            mix = random_eigen_mix(rng, dim, max_levels=3, lam_lo=1.0, lam_hi=40.0)
            for f in (mix, mix.parts[-1][1]):
                parts = f.parts if isinstance(f, EigenMix) else ((1.0, f),)
                scale = sum(abs(c * a) for c, p in parts for _, a, _ in p.waves)
                values = signsearch._grid_sample(f, dom)[0]
                want = f.eval_many(pts).reshape(values.shape)
                assert np.max(np.abs(values - want)) <= 1e-13 * scale

    def test_exact_zero_lines_keep_their_signs(self):
        # cos(2 pi 4 x) cos(2 pi 4 y) vanishes on the grid lines i = 16 mod 32
        f = TrigPoly.from_cosines(2, [((4, 4), 0.5, 0.0), ((4, -4), 0.5, 0.0)])
        sgn = _signs(f.eval_grid(256))
        assert np.array_equal(sgn, _signs(reference_trig_grid(f, 256)))
        assert not sgn[16::32].any() and not sgn[:, 16::32].any()
        assert np.count_nonzero(sgn) == (256 - 8) ** 2


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


def brute_sphere_arcs(pts, sgn):
    """Reference: per sample of sign +-1, the exact arc to the nearest
    sample of another sign (0 on zeros), from blocked matrix products over
    all samples."""
    arcs = np.zeros(len(pts))
    for s in (1, -1):
        mine, opp = np.nonzero(sgn == s)[0], np.nonzero(sgn != s)[0]
        if mine.size == 0 or opp.size == 0:
            continue
        for blk in np.array_split(mine, -(-mine.size // 1024)):
            cos_max = np.max(pts[blk] @ pts[opp].T, axis=1)
            arcs[blk] = np.arccos(np.clip(cos_max, -1.0, 1.0))
    return arcs


def reference_sphere_search(f, resolution):
    """Reference: (center, r_lower) of the sphere search, with the center
    the brute-force farthest sample from another sign."""
    pts = _fibonacci_sphere(resolution**2)
    sgn = _signs(f.eval_many(pts))
    arcs = brute_sphere_arcs(pts, sgn)
    best_i = int(np.argmax(arcs))
    center, best_r = pts[best_i], float(arcs[best_i])
    opp = pts[sgn != sgn[best_i]]
    axis = opp[np.argmax(opp @ center)] - math.cos(best_r) * center
    axis /= np.linalg.norm(axis)

    def eval_arc(theta):
        p = math.cos(theta) * center + math.sin(theta) * axis
        return float(f.eval_many(p[None, :])[0])

    return center, _bisect_crossing(eval_arc, 0.0, best_r)


def random_sphere_instances(resolution, count):
    """(pts, sgn, f) of ``count`` random sphere functions on the spiral."""
    rng = np.random.default_rng(resolution)
    pts = _fibonacci_sphere(resolution**2)
    for _ in range(count):
        f = random_sphere_fn(rng, 3, max_degree=12)
        yield pts, _signs(f.eval_many(pts)), f


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

    @pytest.mark.parametrize(
        "resolution, seed, farthest",
        [(32, 79, 880), (32, 90, 481), (48, 374, 946)],
        ids=["32-79", "32-90", "48-374"],
    )
    def test_center_pinned(self, resolution, seed, farthest):
        # at (48, 374) a cutoff to the samples within 10 % of the top graph
        # distance chose sample 1128 (arc 0.555716), not the farthest
        f = random_sphere_fn(np.random.default_rng(seed), 3, max_degree=12)
        pts = _fibonacci_sphere(resolution**2)
        arcs = brute_sphere_arcs(pts, _signs(f.eval_many(pts)))
        assert int(np.argmax(arcs)) == farthest
        report = largest_signfree_ball(f, SearchDomain.sphere(3, resolution))
        assert np.array_equal(report.center, pts[farthest])

    @pytest.mark.parametrize("resolution", [32, 48, 96, 128])
    def test_center_arc_is_brute_force_maximum(self, resolution):
        for pts, sgn, f in random_sphere_instances(resolution, 20):
            report = largest_signfree_ball(f, SearchDomain.sphere(3, resolution))
            arcs = brute_sphere_arcs(pts, sgn)
            center = int(np.argmin(np.linalg.norm(pts - report.center, axis=1)))
            assert arcs[center] == pytest.approx(arcs.max(), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("resolution", [32, 48, 96, 128])
    def test_graph_radius_bounds_exact_arc(self, resolution):
        # the premise of the search's stop test, up to arccos rounding
        _, graph = _spiral_graph(resolution**2)
        for pts, sgn, _ in random_sphere_instances(resolution, 5):
            signed = sgn != 0
            radius = _sphere_graph_radius(graph, sgn)[signed]
            assert np.all(radius >= brute_sphere_arcs(pts, sgn)[signed] * (1.0 - 1e-12))

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


OUTCOME_DOMAINS = [
    SearchDomain.torus(2, 32),
    SearchDomain.sphere(3, 32),
    SearchDomain.box(2, (-1.0, 0.5), (1.0, 2.0), 32),
]


def first_sample(dom):
    """The first sample of the domain's grid, laid out independently."""
    if dom.kind == "torus":
        return (0.0,) * dom.dim
    if dom.kind == "box":
        return dom.lo
    z = 1.0 - 1.0 / dom.resolution**2  # first point of the equal-area spiral
    return (math.sqrt(1.0 - z * z), 0.0, z)


def grid_diagonal(dom):
    if dom.kind == "sphere":
        return 2.0 * math.sqrt(4.0 * math.pi / dom.resolution**2)
    n = dom.resolution
    steps = [1.0 / n] * dom.dim if dom.kind == "torus" else [
        (h - l) / (n - 1) for l, h in zip(dom.lo, dom.hi)
    ]
    return math.sqrt(sum(h * h for h in steps))


def max_cos_0(dom):
    """max(cos, 0) of the polar angle on the sphere, of 2 pi x_1 on grids:
    one sign plus zeros, with its sign-free ball centered on the first sample."""
    if dom.kind == "sphere":
        return lambda p: np.maximum(p[:, 2], 0.0)
    return lambda p: np.maximum(np.cos(2.0 * np.pi * p[:, 0]), 0.0)


class TestOutcomes:
    """Every domain reports the constant-sign, all-zero and one-sign-plus-zeros
    outcomes through the same pipeline."""

    @pytest.mark.parametrize("dom", OUTCOME_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("case", ["constant", "zero", "max_cos_0"])
    def test_outcome(self, dom, case):
        f = {
            "constant": lambda p: np.full(len(p), -2.0),
            "zero": lambda p: np.zeros(len(p)),
            "max_cos_0": max_cos_0(dom),
        }[case]
        report = largest_signfree_ball(f, dom, seed=4)
        assert report.samples_used == dom.resolution ** (2 if dom.kind == "sphere" else dom.dim)
        assert report.center == first_sample(dom)
        assert report.constant_sign == (case == "constant")
        assert (report.domain, report.dim, report.resolution, report.seed) == (
            dom.kind, dom.dim, dom.resolution, 4
        )
        if case == "constant":
            assert report.notes == "constant sign on the whole grid"
            assert (report.r_lower, report.r_upper) == (0.0, dom.diameter())
        elif case == "zero":
            assert report.notes == "grid values all within the zero threshold"
            assert report.r_lower == 0.0
            assert report.r_upper == pytest.approx(grid_diagonal(dom), rel=1e-15)
        else:
            assert report.notes == ""
            assert report.r_lower > 0.0
            assert report.r_upper - report.r_lower == pytest.approx(grid_diagonal(dom), rel=1e-12)
        if dom.kind != "sphere":
            assert report == reference_grid_search(f, dom, seed=4)


# -- certificate properties ------------------------------------------------

AMPLITUDES = st.floats(0.2, 2.0) | st.floats(-2.0, -0.2)
PHASES = st.floats(0.0, 2.0 * math.pi)
DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: math.hypot(*v) > 0.1
)
TORUS_RES = {1: 128, 2: 48, 3: 20}
BOX_RES = {2: 48, 3: 16}


@st.composite
def torus_terms(draw):
    d = draw(st.integers(1, 3))
    k = st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any).map(tuple)
    return d, draw(st.lists(st.tuples(k, AMPLITUDES, PHASES), min_size=1, max_size=4))


@st.composite
def box_levels(draw):
    d = draw(st.integers(2, 3))
    wave = st.tuples(DIRECTIONS.map(lambda v: v[:d]), AMPLITUDES, PHASES).filter(
        lambda w: math.hypot(*w[0]) > 0.1
    )
    level = st.tuples(st.floats(1.0, 30.0), st.lists(wave, min_size=1, max_size=2))
    return d, draw(st.lists(level, min_size=1, max_size=2))


def assert_certificate(report, pts, values, dist_to):
    """No sample strictly within r_lower of the center has another sign
    than the center (the test's own layout ``pts``, values and metric)."""
    scale = np.max(np.abs(values))
    signs = np.where(values > 1e-12 * scale, 1, np.where(values < -1e-12 * scale, -1, 0))
    center = np.asarray(report.center)
    offset = np.linalg.norm(pts - center, axis=1)
    at = int(np.argmin(offset))
    assert offset[at] <= 1e-12  # the center is a sample
    dist = dist_to(center, pts)
    # the radius is a distance computed in the package: allow its rounding
    inside = dist < report.r_lower * (1.0 - 1e-12)
    assert np.all(signs[inside] == signs[at])


def grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class TestCertificateProperty:
    """For random instances in each domain, r_lower certifies the sampled
    signs and never exceeds the theorem bound."""

    @settings(max_examples=25, deadline=None)
    @given(torus_terms())
    def test_torus(self, inst):
        d, terms = inst
        f = TrigPoly.from_cosines(d, terms)
        dom = SearchDomain.torus(d, TORUS_RES[d])
        report = largest_signfree_ball(f, dom)
        pts = grid_points([np.arange(dom.resolution) / dom.resolution] * d)
        values = sum(a * np.cos(2.0 * np.pi * (pts @ np.array(k, float)) + ph) for k, a, ph in terms)

        def wrap_dist(c, p):
            delta = (p - c + 0.5) % 1.0 - 0.5
            return np.sqrt(np.einsum("ij,ij->i", delta, delta))

        assert_certificate(report, pts, values, wrap_dist)
        assert report.r_lower <= bound_theorem1(f)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 8), DIRECTIONS, AMPLITUDES), min_size=1, max_size=3))
    def test_sphere(self, terms):
        poles = [np.array(v) / np.linalg.norm(v) for _, v, _ in terms]
        f = SphereFn(3, [ZonalTerm(deg, pole, w) for (deg, _, w), pole in zip(terms, poles)])
        dom = SearchDomain.sphere(3, 24)
        report = largest_signfree_ball(f, dom)
        n_points = dom.resolution**2
        i = np.arange(n_points)
        z = 1.0 - (2.0 * i + 1.0) / n_points
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(1.0 - z * z)
        pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        values = sum(w * eval_legendre(deg, pts @ pole) for (deg, _, w), pole in zip(terms, poles))

        def arc(c, p):
            return np.arccos(np.clip(p @ c, -1.0, 1.0))

        assert_certificate(report, pts, values, arc)
        assert report.r_lower <= bound_theorem2(f)

    @settings(max_examples=25, deadline=None)
    @given(box_levels())
    def test_box(self, inst):
        d, levels = inst
        levels = [
            (lam, [(np.array(v) / math.hypot(*v) * math.sqrt(lam), a, ph) for v, a, ph in ws])
            for lam, ws in levels
        ]
        mix = EigenMix(d, [(1.0, PlaneWaveEigen(d, lam, ws)) for lam, ws in levels])
        bound = bound_theorem3(mix)
        dom = SearchDomain.box(d, (0.0,) * d, (2.0 * bound,) * d, BOX_RES[d])
        report = largest_signfree_ball(mix, dom)
        pts = grid_points([np.linspace(0.0, 2.0 * bound, dom.resolution)] * d)
        values = sum(a * np.cos(pts @ k + ph) for _, ws in levels for k, a, ph in ws)

        def euclid(c, p):
            return np.sqrt(np.einsum("ij,ij->i", p - c, p - c))

        assert_certificate(report, pts, values, euclid)
        assert report.r_lower <= bound


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

    @pytest.mark.parametrize("make", [
        lambda: SearchDomain.torus(2, 16.5),
        lambda: SearchDomain.torus(2, 32.0),
        lambda: SearchDomain.box(2, (0.0, 0.0), (1.0, 1.0), 16.5),
        lambda: SearchDomain.sphere(3.0, 32),
        lambda: SearchDomain.torus(0, 32),
        lambda: SearchDomain.torus(-1, 32),
        lambda: SearchDomain.torus(1.5, 32),
        lambda: SearchDomain.box(0, (), (), 32),
    ])
    def test_non_integer_or_empty_shape_rejected(self, make):
        # a fractional resolution would lay out a grid of another spacing
        # than the report claims; dim < 1 has no grid at all
        with pytest.raises(ValueError):
            make()

    def test_numpy_integers_accepted(self):
        dom = SearchDomain.torus(np.int64(1), np.int64(64))
        assert largest_signfree_ball(cosine_1d(1), dom).resolution == 64


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

    @pytest.mark.parametrize("trials", [0, -7, 2.5, "10", None])
    def test_trials_must_be_integer_at_least_one(self, trials):
        with pytest.raises(ValueError, match="trials"):
            sharpness_probe(5, 1, trials=trials)


def reference_signs(values):
    """The nested-where sign rule: +1, -1, or 0 within _NEAR_ZERO of the
    largest |value| of the whole array."""
    thresh = signsearch._NEAR_ZERO * float(np.max(np.abs(values))) if values.size else 0.0
    return np.where(values > thresh, 1, np.where(values < -thresh, -1, 0))


def reference_gap(values):
    """Longest arc of a 1-D circle sample without a sign change, by an
    np.roll scan of one polynomial at a time."""
    n = values.size
    sgn = reference_signs(values)
    nxt = np.roll(sgn, -1)
    change = (sgn * nxt < 0) | (sgn == 0)
    idx = np.nonzero(change)[0]
    if idx.size == 0:
        return 1.0
    gaps = np.diff(idx)
    wrap = idx[0] + n - idx[-1]
    return float(max(gaps.max(initial=0), wrap)) / n


class TestSigns:
    def sample_with_edges(self, rng, n=2000):
        """Random values with exact zeros and values exactly at, and one ulp
        past, +-threshold."""
        v = rng.normal(size=n)
        v[::7] = 0.0
        t = signsearch._NEAR_ZERO * float(np.max(np.abs(v)))
        v[1:9] = [t, -t, np.nextafter(t, np.inf), np.nextafter(-t, -np.inf),
                  np.nextafter(t, 0.0), np.nextafter(-t, 0.0), 0.5 * t, -0.0]
        return v

    def test_int8_and_nested_where_rule(self):
        rng = np.random.default_rng(4)
        for flip in (1.0, -1.0):  # the scale from the largest value, then from the least
            v = flip * self.sample_with_edges(rng)
            got = _signs(v)
            assert got.dtype == np.int8
            assert np.array_equal(got, reference_signs(v))
            assert set(np.unique(got)) == {-1, 0, 1}
            grid = v[:1936].reshape(44, 44)
            assert np.array_equal(_signs(grid), reference_signs(grid))
            # a strided view, as a sampled raster or a real part is
            assert np.array_equal(_signs(grid[::3, 1::2]), reference_signs(grid[::3, 1::2]))

    def test_per_row_scale(self):
        rng = np.random.default_rng(5)
        rows = np.stack([self.sample_with_edges(rng, 512) * s for s in (1e-9, 1.0, -3e7)])
        got = _signs(rows, axis=1)
        assert got.dtype == np.int8
        for row, sgn in zip(rows, got):
            assert np.array_equal(sgn, reference_signs(row))
        # one scale for the whole array reads the small row as zeros
        assert not _signs(rows)[0].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [None, 1])
    def test_non_finite_raises(self, bad, axis):
        v = np.cos(np.arange(64.0)).reshape(4, 16)
        v[2, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            _signs(v, axis=axis)

    def test_empty(self):
        for shape in ((0,), (0, 3), (3, 0)):
            got = _signs(np.zeros(shape))
            assert got.dtype == np.int8 and got.shape == shape


class TestLargestGaps:
    def test_rows_match_one_row_scan(self):
        n = 96
        x = np.arange(n) / n
        rows = [
            2.0 + np.cos(2 * np.pi * x),  # no change
            np.where(np.arange(n) == 40, 0.0, 1.0),  # one change: a lone zero
            np.zeros(n),  # all zero
            np.where(np.arange(n) < 10, -1.0, 1.0),  # a change across the wrap
            -np.ones(n),  # no change, negative
            1e-8 * np.cos(6 * np.pi * x + 0.3),  # a small row next to large ones
            np.cos(2 * np.pi * 5 * x),  # zeros fall between samples
            np.cos(2 * np.pi * 4 * x),  # exact zeros on samples
        ]
        rng = np.random.default_rng(6)
        rows += [rng.normal(size=n) * 10.0 ** rng.integers(-6, 7) for _ in range(12)]
        values = np.stack(rows)
        got = signsearch._largest_gaps(values)
        assert got.shape == (len(rows),)
        assert [float(g) for g in got] == [reference_gap(row) for row in rows]
        assert got[0] == 1.0 and got[1] == 1.0 and got[2] == 1.0 / n
        assert got[3] == (n - 10) / n

    def test_single_rows(self):
        for row in (np.ones(16), np.zeros(16), np.cos(2 * np.pi * np.arange(16) / 16)):
            assert signsearch._largest_gaps(row[None, :])[0] == reference_gap(row)


def reference_band_poly_values(A, coeffs, x):
    """The band polynomial summed one coefficient at a time, each with its
    own e^{2 pi i (A+j) x}: the probe's evaluation before the table."""
    vals = np.zeros(x.size)
    for j, c in enumerate(coeffs):
        vals += np.real(c * np.exp(2j * np.pi * (A + j) * x))
    return vals


def reference_cluster(A, B, count, rng, x):
    """The structured cluster's coordinate search one step at a time, with
    the per-coefficient evaluation and the np.roll gap scan above. Returns
    (gap, taken steps)."""
    M = 2 * A + B
    roots = np.array([0.5 + (j - (B - 1) / 2.0) / M for j in range(B)])
    psi = 0.0
    cur = reference_gap(
        reference_band_poly_values(A, signsearch._structured_coeffs(A, B, roots, psi), x)
    )
    step0 = 1.0 / (4.0 * M)
    taken = []
    for it in range(count):
        scale = 2.0 ** (-it / 40.0)
        cand_roots = roots + rng.normal(scale=step0 * scale, size=B)
        cand_psi = psi + rng.normal(scale=0.3 * scale)
        g = reference_gap(
            reference_band_poly_values(
                A, signsearch._structured_coeffs(A, B, cand_roots, cand_psi), x
            )
        )
        if g > cur:
            cur, roots, psi = g, cand_roots, cand_psi
            taken.append(it)
    return cur, taken


def reference_sharpness_probe(A, B, trials, seed, resolution=2**14):
    """sharpness_probe one candidate at a time, with the per-coefficient
    evaluation and the np.roll gap scan above. Returns (best, taken): the
    (band, step) of every step the structured searches took."""
    rng = np.random.default_rng(seed)
    x = np.arange(resolution) / resolution
    best = reference_gap(np.cos(2.0 * np.pi * A * x))
    taken = []
    for Bp in range(1, B + 1):
        for _ in range(trials // 2):
            coeffs = rng.normal(size=Bp + 1) + 1j * rng.normal(size=Bp + 1)
            best = max(best, reference_gap(reference_band_poly_values(A, coeffs, x)))
        cur, steps = reference_cluster(A, Bp, trials // 2, rng, x)
        best = max(best, cur)
        taken += [(Bp, it) for it in steps]
    return best, taken


class TestSharpnessTable:
    def test_table_matches_per_coefficient_loop(self):
        rng = np.random.default_rng(12)
        x = np.arange(2**14) / 2**14
        for A, B in ((5, 1), (3, 2), (4, 3)):
            table = signsearch._band_table(A, B, x)
            for Bp in range(B + 1):
                coeffs = rng.normal(size=(5, Bp + 1)) + 1j * rng.normal(size=(5, Bp + 1))
                got = signsearch._band_values(table, coeffs)
                assert got.shape == (5, x.size)
                for row, c in zip(got, coeffs):
                    ref = reference_band_poly_values(A, c, x)
                    assert np.max(np.abs(row - ref)) <= 1e-13 * np.sum(np.abs(c))

    @pytest.mark.parametrize("A,B", [(5, 1), (3, 2), (4, 3)])
    def test_probe_matches_per_coefficient_probe(self, A, B):
        for seed in (0, 7):
            assert sharpness_probe(A, B, trials=80, seed=seed) == reference_sharpness_probe(
                A, B, 80, seed
            )[0]

    @pytest.mark.parametrize(
        "A,B,trials,seed,step",
        [(5, 1, 200, 0, 82), (3, 2, 300, 1, 8), (3, 2, 201, 7, None), (4, 2, 1, 0, None)],
        ids=["accept-mid-batch-82", "accept-mid-batch-8", "odd-trials", "one-trial"],
    )
    def test_probe_matches_one_at_a_time(self, A, B, trials, seed, step):
        best, taken = reference_sharpness_probe(A, B, trials, seed)
        assert sharpness_probe(A, B, trials=trials, seed=seed) == best
        if step is not None:
            # the case takes a step inside a batch
            assert step % signsearch._PROBE_BATCH != 0
            assert step in [it for _, it in taken]

    @pytest.mark.parametrize(
        "A,B,seed,steps", [(3, 2, 35, [114, 119]), (4, 1, 39, [74, 84])],
        ids=["two-steps-one-batch-3-2", "two-steps-one-batch-4-1"],
    )
    def test_cluster_takes_steps_in_draw_order(self, A, B, seed, steps, monkeypatch):
        """Two steps fall in one batch: the search resumes right after the
        first, from the new state, so it takes the second too, at any batch
        size."""
        x = np.arange(2**14) / 2**14
        cur, taken = reference_cluster(A, B, 150, np.random.default_rng(seed), x)
        assert taken == steps
        table = signsearch._band_table(A, B, x)
        for batch in (1, 5, 32):
            monkeypatch.setattr(signsearch, "_PROBE_BATCH", batch)
            assert signsearch._probe_cluster(A, B, 150, np.random.default_rng(seed), table) == cur


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
