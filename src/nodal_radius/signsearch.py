"""Empirical measurement of the largest sign-free ball of a function.

All three domains run one pipeline, ``largest_signfree_ball``:

- sampler: ``_grid_sample`` (wrap-around torus grid, plain box grid) or
  ``_sphere_sample`` (equal-area spiral on the 2-sphere) evaluates the
  function and supplies the grid diagonal and the domain's search step;
- signs: ``_signs`` classifies every sample as +1, -1 or near zero;
- outcomes: constant sign and all-zero grids are reported directly;
- search: the sample farthest from a sample of another sign is the
  center, and its radius is refined by bisection toward its nearest sign
  change.

Every report is built in one place, and ``verify_bound`` compares it with
a theoretical radius bound.

Both domains find the farthest sample by one best-first rule: a cheap
upper bound on each candidate's distance orders the candidates, each
visited candidate gets its exact distance, and the visit stops at the
first bound that cannot beat the best exact distance found, since no
candidate left can then win. On a grid the candidates are tiles of cells
and the bound comes from a coarse grid (``_grid_argmax``); on the sphere
they are the samples and the bound is their kNN-graph distance
(``_sphere_graph_radius``).

On a grid, a min-plus distance transform of the stride-2 coarse grid per
sign gives an exact upper bound on every fine distance: the coarse cells of
another sign are fine cells of another sign, and every fine cell
lies within one grid diagonal h*sqrt(d) of a coarse cell, so coarse
distance + h*sqrt(d) bounds it. Tiles of cells are visited by decreasing
bound until the bound falls below the best fine distance found; each gets a
fine EDT of a window padded by its bound, which holds the nearest cell of
another sign of every tile cell, so the result is exact. A sign falls back
to one distance transform of the whole grid when the windows would cover
more cells, or when its coarse grid holds no cell of another sign.

Both the coarse grids and the whole-grid fallbacks take one separable
min-plus transform in numpy (``_min_plus_edt``), at a reach that already
bounds every distance it returns, so none is redone: a coarse grid and a
sign without tile bounds take each axis's cap, and a fallback sign takes
its top tile bound in cells. The nearest cell of another sign is then looked for within the
answer's radius of the center. The sphere's graph distances come from one
compiled multi-source Dijkstra per sign (``scipy.sparse.csgraph``).

The reported r_lower is a certificate *at grid resolution*: no sampled
point within r_lower of the center has the opposite sign. r_upper adds one
grid diagonal to it as an estimate of the true maximum, not a proven upper
bound: the bisected radius can fall below the center's grid distance when
the grid misses a sign change near the center, and a ball about another
center may then be larger than r_upper.

Randomized stress instances use numpy's PCG64 generator; every report
records the seed that produced it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from .eigenid import EigenMix, PlaneWaveEigen
from .specfun import gegenbauer
from .sphere import SphereFn, ZonalTerm
from .torus import TrigPoly, _cosine_grid

_NEAR_ZERO = 1e-12
_REFINE_STEPS = 40
_SPHERE_KNN = 8
_TILE = 8  # cells per axis of a coarse-to-fine search tile (even)
_EDT_CALL_CELLS = 512  # the fixed cost of one EDT call, in cells
_SLAB_CELLS = 1 << 15  # cells per slab of the min-plus passes, sized to stay in cache
_PROBE_RESOLUTION = 2**14  # circle samples per polynomial in the sharpness probe
# relative slack on a tile bound: a collinear case meets the bound exactly,
# and rounding may overshoot it by a few ulps
_BOUND_SLACK = 1.0 + 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SearchDomain:
    """Where to sample: torus(d), sphere(d) (d = 3 only), or box(d, lo, hi)."""

    kind: str
    dim: int
    resolution: int
    lo: tuple = ()
    hi: tuple = ()

    def __post_init__(self):
        if self.kind not in ("torus", "sphere", "box"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        for name in ("dim", "resolution"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim!r}")
        if self.resolution < 16:
            raise ValueError(f"resolution must be >= 16, got {self.resolution!r}")
        if self.kind == "sphere" and self.dim != 3:
            raise ValueError("sphere search grids are implemented for d = 3 only")
        if self.kind == "box":
            if len(self.lo) != self.dim or len(self.hi) != self.dim:
                raise ValueError("box corners must match the dimension")
            if not all(h > l for l, h in zip(self.lo, self.hi)):
                raise ValueError("box must have positive side lengths")

    @classmethod
    def torus(cls, dim: int, resolution: int) -> "SearchDomain":
        return cls(kind="torus", dim=dim, resolution=resolution)

    @classmethod
    def sphere(cls, dim: int, resolution: int) -> "SearchDomain":
        return cls(kind="sphere", dim=dim, resolution=resolution)

    @classmethod
    def box(cls, dim: int, lo, hi, resolution: int) -> "SearchDomain":
        return cls(
            kind="box",
            dim=dim,
            resolution=resolution,
            lo=tuple(float(v) for v in lo),
            hi=tuple(float(v) for v in hi),
        )

    def diameter(self) -> float:
        if self.kind == "torus":
            return 0.5 * math.sqrt(self.dim)
        if self.kind == "sphere":
            return math.pi
        span = [h - l for l, h in zip(self.lo, self.hi)]
        return math.sqrt(sum(s * s for s in span))


@dataclass
class SignBallReport:
    """Largest empirical sign-free ball versus a theoretical bound.

    ``r_lower`` is certified at grid resolution: no sample within it of
    ``center`` has the opposite sign. ``r_upper`` is r_lower plus one grid
    diagonal, an estimate of the true largest radius and not a proven bound
    on it (the grid can miss a sign change near the center).
    """

    center: tuple
    r_lower: float
    r_upper: float
    bound: Optional[float] = None
    ratio: Optional[float] = None
    samples_used: int = 0
    resolution: int = 0
    domain: str = ""
    dim: int = 0
    constant_sign: bool = False
    seed: Optional[int] = None
    notes: str = ""

    def with_bound(self, bound: float) -> "SignBallReport":
        """A copy of the report compared with ``bound``."""
        return replace(self, bound=float(bound), ratio=self.r_lower / float(bound))

    @property
    def passed(self) -> bool:
        """The measured radius does not exceed the bound (no bound: True)."""
        return self.bound is None or bool(self.r_lower <= self.bound)


def _evaluate(f, pts: np.ndarray) -> np.ndarray:
    """Batch-evaluate f on an (N, d) array of points."""
    if hasattr(f, "eval_many"):
        return np.asarray(f.eval_many(pts), dtype=float)
    vals = f(pts)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError("callable must map (N, d) points to (N,) values")
    return vals


def _signs(values: np.ndarray) -> np.ndarray:
    """Sign of each sample, 0 within ``_NEAR_ZERO`` of the largest |value|.

    Raises ValueError on a NaN or inf sample, which would make every
    threshold NaN or inf and every sample read as zero.
    """
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if not math.isfinite(scale):
        raise ValueError("function values must be finite; got NaN or inf on the grid")
    thresh = _NEAR_ZERO * scale
    return np.where(values > thresh, 1, np.where(values < -thresh, -1, 0))


def _min_plus_edt(mine: np.ndarray, spacing, periodic: bool, reach) -> np.ndarray:
    """Per cell of ``mine``, the exact Euclidean distance to the nearest cell
    outside it (nearest image on the torus), provided every such distance
    is at most reach[i] * h_i on every axis i after the first, or that
    axis's reach is at its cap. The caller gives such a reach: the caps, or
    a proven upper bound on every distance in cells.

    Axis 0 takes, per line, the nearest outside cell on either side from
    running max / min indices (wrapping on the torus), so it is searched
    whole. Each later axis i is a min-plus pass over |j| <= reach[i]
    (``_min_plus_axis``), wrap-indexed on the torus and with cells past a
    box edge at +inf; the passes run on slabs of axis-0 rows, which they do
    not mix, small enough to stay in cache. A reach is capped at n // 2 on
    the torus (the largest nearest-image offset) and n - 1 in a box.

    Every candidate is a real cell or image, the squares (j h_i)^2 are added
    in axis order as scipy's EDT adds them, and float rounding is monotone,
    so each value is the least of scipy's own float formula over the cells
    within reach: never above scipy's EDT (below it, by an ulp in the cases
    seen, where rounding throws scipy's feature choice off at a tie), and
    never below the true distance. A reach that holds every nearest outside
    cell therefore makes the result exact.
    """
    shape, d = mine.shape, mine.ndim
    caps = [n // 2 if periodic else n - 1 for n in shape]
    n0 = shape[0]
    i = np.arange(n0, dtype=np.int32).reshape((n0,) + (1,) * (d - 1))
    far = np.int32(2 * n0)  # farther than any offset on the axis
    left, right = np.where(mine, -far, i), np.where(mine, far, i)
    if d == 1:
        left = np.maximum.accumulate(left)
        right = np.minimum.accumulate(right[::-1])[::-1]
    else:
        # row by row: an accumulate along axis 0 of many lines runs strided
        for k in range(1, n0):
            np.maximum(left[k - 1], left[k], out=left[k])
            np.minimum(right[n0 - k], right[n0 - 1 - k], out=right[n0 - 1 - k])
    if periodic:
        # before a line's first outside cell, the nearest one to the left is
        # the line's last one, one period back; likewise to the right
        left = np.where(left < 0, left[-1:] - n0, left)
        right = np.where(right >= n0, right[:1] + n0, right)
    step = np.minimum(np.minimum(i - left, right - i), n0)
    sq = np.append((np.arange(n0) * spacing[0]) ** 2, np.inf)
    dist = sq[step]  # step n0 (no outside cell on the line) reads +inf
    rows = max(1, _SLAB_CELLS * n0 // mine.size)
    for a in range(0, n0, rows):
        g = dist[a:a + rows]
        for ax in range(1, d):
            g = _min_plus_axis(g, ax, min(reach[ax], caps[ax]), spacing[ax], periodic)
        dist[a:a + rows] = g
    return np.sqrt(dist, out=dist)


def _min_plus_axis(g: np.ndarray, ax: int, reach: int, h: float, periodic: bool) -> np.ndarray:
    """min over |j| <= reach of g(x + j e_ax) + (j h)^2, wrap-indexed on the
    torus and +inf past a box edge. Stops at the first j whose (j h)^2 is at
    least every value so far, which no later j can lower."""
    n = g.shape[ax]
    pad = [(0, 0)] * g.ndim
    pad[ax] = (reach, reach)
    gp = np.pad(g, pad, mode="wrap") if periodic else np.pad(g, pad, constant_values=np.inf)
    out = g.copy()
    tmp = np.empty_like(g)
    at = [slice(None)] * g.ndim
    for j in range(1, reach + 1):
        jh = j * h
        if jh * jh >= out.max():
            break
        at[ax] = slice(reach + j, reach + j + n)
        ahead = gp[tuple(at)]
        at[ax] = slice(reach - j, reach - j + n)
        np.minimum(ahead, gp[tuple(at)], out=tmp)
        tmp += jh * jh
        np.minimum(out, tmp, out=out)
    return out


def _tile_bounds(mine: np.ndarray, spacing, periodic: bool, diag: float):
    """Upper bounds on the fine distances of ``mine``'s cells, per tile of
    ``_TILE`` cells per axis: (bounds, tile origins), by decreasing bound
    (ties by tile index). None where the stride-2 coarse grid has no cell
    outside ``mine``.

    The coarse distances come from ``_min_plus_edt`` at the caps, so they
    are exact on the coarse grid. On a torus with odd n the coarse ring of
    ceil(n / 2) cells of 2h is longer than the torus, which only stretches
    distances, so they still bound the fine ones."""
    coarse = mine[(slice(None, None, 2),) * mine.ndim]
    if coarse.all():
        return None
    dc = _min_plus_edt(coarse, tuple(2.0 * h for h in spacing), periodic, coarse.shape)
    step = _TILE // 2
    for ax in range(dc.ndim):
        dc = np.maximum.reduceat(dc, np.arange(0, dc.shape[ax], step), axis=ax)
    bound = (dc.ravel() + diag) * _BOUND_SLACK
    order = np.argsort(-bound, kind="stable")
    return bound[order], np.stack(np.unravel_index(order, dc.shape), axis=1) * _TILE


def _grid_argmax(sgn: np.ndarray, spacing, periodic: bool):
    """(flat, r): the lowest flat index among the cells of sign +-1 farthest
    from a cell of another sign, and that exact Euclidean distance
    (wrap-around on the torus).

    Equal to the argmax of a full-grid EDT per sign, found coarse to fine.
    Stride-2 coarse cells of another sign are fine cells of another sign,
    and every fine cell lies within one grid diagonal h*sqrt(d) of a coarse
    cell of its tile, so a coarse distance plus the diagonal bounds the fine
    distance of every cell of a tile (``_tile_bounds``; a relative slack of
    a few ulps covers the collinear case, where the bound is met). Tiles
    are visited by decreasing bound, the best sign's first, and stop at
    the first bound below the running best r. Each visited tile gets a fine
    EDT of its window, the tile padded by ceil(bound / h) + 1 cells per
    axis (wrap-indexed and capped at n // 2 on the torus, clipped in a
    box): the nearest cell of another sign of every tile cell lies inside
    it, so the window's distances are exact. Ties go to the lowest flat
    index; a tile's own argmax is its lowest, as tiles do not wrap.

    A sign takes one transform of the whole grid (``_min_plus_edt``) when
    the windows still planned would cover more cells than a whole-grid EDT
    wrap-padded by the top tile's window pad, counting ``_EDT_CALL_CELLS``
    per call, or when it has no tile bounds. Its reach bounds every distance
    of the sign, so the transform is exact in one pass: the top tile bound
    in cells, or without tile bounds each axis's cap. The plan holds the
    tiles whose bound reaches the running best r; before any fine distance
    is known, r is estimated as the top bound less one diagonal. A sign with
    no cells, or with no cells of another sign, is skipped.
    """
    shape, d = sgn.shape, sgn.ndim
    diag = math.sqrt(sum(h * h for h in spacing))
    caps = np.array([n // 2 for n in shape])
    best_r, best_flat = 0.0, -1

    def offer(dist, origin):
        nonlocal best_r, best_flat
        j = int(np.argmax(dist))
        r = float(dist.flat[j])
        cell = np.add(np.unravel_index(j, dist.shape), origin)
        flat = int(np.ravel_multi_index(tuple(cell), shape))
        if r > best_r or (r == best_r and flat < best_flat):
            best_r, best_flat = r, flat

    def whole(mine, reach):
        offer(_min_plus_edt(mine, spacing, periodic, reach), (0,) * d)

    plans = []
    for s in (1, -1):
        mine = sgn == s
        if mine.any() and not mine.all():
            plans.append((mine, _tile_bounds(mine, spacing, periodic, diag)))
    plans.sort(key=lambda p: -math.inf if p[1] is None else -p[1][0][0])
    for mine, tiles in plans:
        if tiles is None:
            whole(mine, shape)
            continue
        bound, origin = tiles
        reach = np.ceil(bound[:, None] / np.array(spacing)).astype(np.intp) + 1
        end = np.minimum(origin + _TILE, shape)
        if periodic:
            reach = np.minimum(reach, caps)
            lo, hi = origin - reach, end + reach
            whole_cells = np.prod(np.add(shape, 2 * reach[0]))
        else:
            lo, hi = np.maximum(origin - reach, 0), np.minimum(end + reach, shape)
            whole_cells = mine.size
        spent = np.concatenate(([0], np.cumsum(np.prod(hi - lo, axis=1) + _EDT_CALL_CELLS)))
        for k in range(bound.size):
            if bound[k] < best_r:
                break
            last = np.count_nonzero(bound >= (best_r if best_r > 0 else bound[0] - diag))
            if spent[last] - spent[k] > whole_cells + _EDT_CALL_CELLS:
                whole(mine, [math.ceil(bound[0] / h) for h in spacing])
                break
            if periodic:
                win = mine[np.ix_(*(np.arange(a, b) % n for a, b, n in zip(lo[k], hi[k], shape)))]
            else:
                win = mine[tuple(slice(a, b) for a, b in zip(lo[k], hi[k]))]
            dist = distance_transform_edt(win, sampling=spacing)
            offer(dist[tuple(slice(a - b, c - b) for a, b, c in zip(origin[k], lo[k], end[k]))], origin[k])
    return best_flat, best_r


def _nearest_other(sgn: np.ndarray, flat: int, r: float, axes, spacing, periodic: bool):
    """(delta, dist2): the offset from sample ``flat`` to the nearest sample
    of another sign (nearest image on the torus), the lowest flat index
    among equals, and its squared length.

    ``r`` is the sample's EDT distance to another sign, so the nearest
    sample of another sign lies within ceil(r / h) + 1 cells on every axis:
    only this window is scanned. Its per-axis indices are sorted, so its
    order is the grid's.
    """
    n = sgn.shape[0]
    idx = np.unravel_index(flat, sgn.shape)
    near = []
    for c, h in zip(idx, spacing):
        w = math.ceil(r / h) + 1
        if not periodic:
            near.append(np.arange(max(c - w, 0), min(c + w + 1, n)))
        elif 2 * w + 1 >= n:
            near.append(np.arange(n))
        else:
            near.append(np.sort((c + np.arange(-w, w + 1)) % n))
    opp_idx = np.argwhere(sgn[np.ix_(*near)] != sgn.flat[flat])
    opp_pts = np.stack([axis[ax[i]] for axis, ax, i in zip(axes, near, opp_idx.T)], axis=1)
    deltas = opp_pts - np.array([axis[k] for axis, k in zip(axes, idx)])
    if periodic:
        deltas = (deltas + 0.5) % 1.0 - 0.5  # nearest image
    dist2 = np.einsum("ij,ij->i", deltas, deltas)
    j = int(np.argmin(dist2))
    return deltas[j], float(dist2[j])


def _bisect_crossing(eval_line, lo: float, hi: float, steps: int = _REFINE_STEPS):
    """Crossing parameter of a sign change bracketed on [lo, hi]."""
    f_lo = eval_line(lo)
    sign0 = 1.0 if f_lo > 0 else -1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if eval_line(mid) * sign0 > 0:
            lo = mid
        else:
            hi = mid
    return hi


def largest_signfree_ball(f, dom: SearchDomain, seed: Optional[int] = None) -> SignBallReport:
    """Measure the largest ball on which f keeps one sign.

    One pipeline serves every domain: sampler -> signs -> outcomes -> search.

    1. The domain's sampler (``_grid_sample`` on the torus and in a box,
       ``_sphere_sample`` on the sphere) evaluates f on its grid and returns
       the values, the point of a flat sample index, the grid diagonal and
       the domain's ``search(sgn) -> (center, r)`` step.
    2. ``_signs`` turns the samples into signs; values within 1e-12 of zero
       relative to the grid maximum count as sign changes.
    3. A function of constant sign on the whole grid yields a flagged report
       with r_upper equal to the domain diameter (for mean-zero inputs that
       signals an upstream bug); a grid of zeros yields r_lower = 0.
    4. Otherwise the sampler's search takes as the center the sample
       farthest from a sample of another sign (wrap-around metric on the
       torus, geodesic on the sphere, Euclidean in a box), found by the one
       best-first rule of both domains (see the module docstring), and
       sharpens the radius by bisecting toward its nearest sign change.

    Every report is built in one place; r_upper adds one grid diagonal, an
    estimate and not a proven bound (see ``SignBallReport``).
    """
    sample = _sphere_sample if dom.kind == "sphere" else _grid_sample
    values, point, diag, search = sample(f, dom)
    sgn = _signs(values)

    def report(center, r_lower, r_upper, **outcome):
        return SignBallReport(
            center=tuple(float(c) for c in center),
            r_lower=r_lower,
            r_upper=r_upper,
            samples_used=values.size,
            resolution=dom.resolution,
            domain=dom.kind,
            dim=dom.dim,
            seed=seed,
            **outcome,
        )

    first = sgn.flat[0]
    if first != 0 and np.all(sgn == first):
        return report(
            point(0), 0.0, dom.diameter(),
            constant_sign=True, notes="constant sign on the whole grid",
        )
    if not sgn.any():
        # every sample is (numerically) zero: no sign-free ball at all
        return report(point(0), 0.0, diag, notes="grid values all within the zero threshold")
    center, r = search(sgn)
    return report(center, r, r + diag)


def _grid_sample(f, dom: SearchDomain):
    """Sampler of the uniform grid: i/n per axis on the torus, n points from
    lo to hi per axis in a box.

    A TrigPoly on the torus is sampled by ``TrigPoly.eval_grid``, and an
    EigenMix or PlaneWaveEigen by ``_wave_grid``: both sum their cosines on
    the product grid with the separable kernel ``torus._cosine_grid`` (an
    exponential table per axis and one real matrix product), without
    building the grid's points. Only a plain callable is evaluated on a
    meshgrid of (N, d) points.

    The search centers the ball on the first cell of largest distance to
    another sign, found coarse to fine by ``_grid_argmax``: a min-plus
    transform of the stride-2 coarse grid plus one grid diagonal bounds the
    fine distances of each tile, and only tiles whose bound reaches the best
    distance so far get a fine EDT, of a window padded by that bound, which
    holds the nearest cell of another sign of every tile cell and so is
    exact. A sign takes one whole-grid min-plus transform instead when its
    windows would cover more cells, searched as far as its top tile bound,
    or when its coarse grid has no cell of another sign, searched to the
    caps. The search then finds the nearest cell of another sign within that
    distance of the center (``_nearest_other``) and bisects along the
    segment (t in [0, 1]) to it."""
    n, d = dom.resolution, dom.dim
    periodic = dom.kind == "torus"
    if periodic:
        axes = [np.arange(n) / n] * d
        spacing = (1.0 / n,) * d
    else:
        axes = [np.linspace(dom.lo[i], dom.hi[i], n) for i in range(d)]
        spacing = tuple((dom.hi[i] - dom.lo[i]) / (n - 1) for i in range(d))
    if periodic and isinstance(f, TrigPoly) and f.dim == d:
        values = f.eval_grid(n)
    elif isinstance(f, (EigenMix, PlaneWaveEigen)) and f.dim == d:
        values = _wave_grid(f, axes)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        values = _evaluate(f, pts).reshape((n,) * d)
    diag = math.sqrt(sum(h * h for h in spacing))

    def point(flat):
        idx = np.unravel_index(flat, values.shape)
        return np.array([axis[k] for axis, k in zip(axes, idx)])

    def search(sgn):
        flat, r = _grid_argmax(sgn, spacing, periodic)
        center = point(flat)
        delta, dist2 = _nearest_other(sgn, flat, r, axes, spacing, periodic)

        def eval_line(t):
            p = center + t * delta
            if periodic:
                p = p % 1.0
            return float(_evaluate(f, p[None, :])[0])

        return center, _bisect_crossing(eval_line, 0.0, 1.0) * math.sqrt(dist2)

    return values, point, diag, search


def _wave_grid(f, axes) -> np.ndarray:
    """Values of an EigenMix or PlaneWaveEigen on the product grid of
    ``axes``: each wave c * amp * cos(<k, x> + phase) is the real part of
    c * amp * e^(i phase) prod_i e^(i k_i x_i), summed by ``_cosine_grid``."""
    parts = f.parts if isinstance(f, EigenMix) else ((1.0, f),)
    waves = [(k, c * amp * cmath.exp(1j * phase)) for c, p in parts for k, amp, phase in p.waves]
    return _cosine_grid(axes, [k for k, _ in waves], [a for _, a in waves])


def _fibonacci_sphere(n_points: int) -> np.ndarray:
    i = np.arange(n_points)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


@lru_cache(maxsize=8)
def _spiral_graph(n_points: int):
    """The spiral of ``n_points`` samples and its directed kNN graph.

    Each sample has edges to its ``_SPHERE_KNN`` nearest neighbors, weighted
    by their great-circle arcs; row u of the CSR graph holds the edges
    u -> v. Both depend only on the number of points, so they are cached;
    every array is read-only.
    """
    from scipy.sparse import csr_array

    pts = _fibonacci_sphere(n_points)
    _, nbr = cKDTree(pts).query(pts, k=_SPHERE_KNN + 1)
    nbr = nbr[:, 1:]  # drop self
    cosines = np.clip(np.einsum("ij,ikj->ik", pts, pts[nbr]), -1.0, 1.0)
    graph = csr_array(
        (np.arccos(cosines).ravel(), nbr.ravel(), np.arange(0, nbr.size + 1, _SPHERE_KNN)),
        shape=(n_points, n_points),
    )
    for arr in (pts, graph.data, graph.indices, graph.indptr):
        arr.setflags(write=False)
    return pts, graph


def _sphere_graph_radius(graph, sgn: np.ndarray) -> np.ndarray:
    """Per sample of sign +-1, the shortest-path length to the nearest sample
    of another sign in the spiral's kNN graph (0 on zeros).

    A sign with no samples, or with no samples of another sign, is skipped.
    One multi-source Dijkstra per sign runs in scipy's compiled csgraph.

    Every path is a chain of great-circle arcs from a sample of another
    sign, so by the triangle inequality a sample's graph distance is at
    least its exact arc to the nearest sample of another sign, up to the
    rounding of arccos on short arcs (at most about 5e-13 relative in
    random draws at 160^2 samples). The sphere search stops on this bound.
    """
    from scipy.sparse.csgraph import dijkstra

    radius = np.zeros(sgn.size)
    for s in (1, -1):
        mine = sgn == s
        if not mine.any() or mine.all():
            continue
        dist = dijkstra(graph, directed=True, indices=np.nonzero(~mine)[0], min_only=True)
        radius[mine] = dist[mine]
    return radius


def _sphere_sample(f, dom: SearchDomain):
    """Sampler of the equal-area spiral of ``resolution**2`` points.

    The search visits the samples by decreasing kNN-graph distance to
    another sign (``_sphere_graph_radius``, compiled Dijkstra on the cached
    graph of ``_spiral_graph``; ties in sample order) and gives each the
    exact arc omega to the nearest sample of another sign; the
    opposite-sign points are gathered once per sign. It stops at the first
    sample whose graph distance is not above the best arc so far: graph
    distances bound the arcs from above, so no sample left can beat it.
    The best sample is the center, and its radius is sharpened by slerp
    bisection (theta in [0, omega]) toward its nearest sample of another
    sign.
    """
    n_points = dom.resolution**2
    pts, graph = _spiral_graph(n_points)
    values = _evaluate(f, pts)
    # typical spacing of the equal-area spiral; one "grid diagonal"
    diag = 2.0 * math.sqrt(4.0 * math.pi / n_points)

    def search(sgn):
        radius = _sphere_graph_radius(graph, sgn)
        best_r, best_i, best_seed = -1.0, -1, None
        opposite = {}  # sign -> (indices, points) of the samples of other signs
        for i in np.argsort(-radius, kind="stable"):
            if radius[i] <= best_r:
                break  # no later sample's arc, at most its graph distance, can win
            s = int(sgn[i])
            if s not in opposite:
                opp = np.nonzero(sgn != s)[0]
                opposite[s] = (opp, pts[opp])
            opp, opp_pts = opposite[s]
            cos_to = opp_pts @ pts[i]
            jmax = int(np.argmax(cos_to))
            exact = math.acos(max(-1.0, min(1.0, float(cos_to[jmax]))))
            if exact > best_r:
                best_r, best_i, best_seed = exact, int(i), pts[opp[jmax]]
        center = pts[best_i]
        # slerp bisection toward the nearest sign change
        axis = best_seed - math.cos(best_r) * center
        axis_norm = np.linalg.norm(axis)
        if axis_norm < 1e-14:
            return center, 0.0
        axis = axis / axis_norm

        def eval_arc(theta):
            p = math.cos(theta) * center + math.sin(theta) * axis
            return float(_evaluate(f, p[None, :])[0])

        return center, _bisect_crossing(eval_arc, 0.0, best_r)

    return values, lambda flat: pts[flat], diag, search


def verify_bound(f, dom: SearchDomain, bound: float, seed: Optional[int] = None):
    """Measure the largest sign-free ball and test it against ``bound``.

    Returns (passed, report); the underlying theorems assert this must
    always pass, so a False here is a counterexample (or a measurement at
    too coarse a resolution).
    """
    if not bound > 0.0:
        raise ValueError(f"bound must be positive, got {bound!r}")
    report = largest_signfree_ball(f, dom, seed=seed).with_bound(bound)
    return report.passed, report


# ----------------------------------------------------------------------
# 1D sharpness probe
# ----------------------------------------------------------------------


def _largest_gap_on_circle(values: np.ndarray) -> float:
    """Longest arc (fraction of the period) without a sign change."""
    n = values.size
    sgn = _signs(values)
    nxt = np.roll(sgn, -1)
    change = (sgn * nxt < 0) | (sgn == 0)
    idx = np.nonzero(change)[0]
    if idx.size == 0:
        return 1.0
    gaps = np.diff(idx)
    wrap = idx[0] + n - idx[-1]
    return float(max(gaps.max(initial=0), wrap)) / n


def _band_poly_values(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Re(sum_j coeffs[j] e^{2 pi i (A+j) x}) on the sample points, from the
    ``_band_table`` columns of the band's frequencies A .. A + len(coeffs) - 1."""
    return np.real(table[:, : coeffs.size] @ coeffs)


def _band_table(A: int, B: int, x: np.ndarray) -> np.ndarray:
    """e^{2 pi i (A+j) x} on the sample points, one column per j = 0..B."""
    return np.exp(np.multiply.outer(x, 2j * np.pi * (A + np.arange(B + 1))))


def _structured_coeffs(A: int, B: int, roots: np.ndarray, psi: float) -> np.ndarray:
    """Coefficients of e^{i psi} prod_j (z - e^{2 pi i u_j}) in powers of z."""
    poly = np.array([1.0 + 0j])
    for u in roots:
        poly = np.convolve(poly, np.array([-np.exp(2j * np.pi * u), 1.0]))
    return np.exp(1j * psi) * poly


def sharpness_probe(A: int, B: int, trials: int = 400, seed: int = 0) -> float:
    """Largest sign-free interval found among polynomials with spectrum in
    +-[A, A+B] on the circle.

    Searches random coefficient draws plus a structured family whose root
    cluster sits on consecutive carrier zeros around x = 1/2 (polished by a
    stochastic coordinate search); every narrower band [A, A+B'] with
    B' <= B is admissible and is searched too, which makes the result
    nondecreasing in B. The measured best never exceeds the ceiling
    (B+1)/(2A+B) + 2^-12 and in practice lands well above half of it.
    """
    if not isinstance(A, (int, np.integer)) or A < 1:
        raise ValueError(f"A must be an integer >= 1, got {A!r}")
    if not isinstance(B, (int, np.integer)) or B < 0:
        raise ValueError(f"B must be an integer >= 0, got {B!r}")
    rng = np.random.default_rng(seed)
    x = np.arange(_PROBE_RESOLUTION) / _PROBE_RESOLUTION
    table = _band_table(A, B, x)  # every band [A, A+B'] takes its first B'+1 columns
    best = 0.0
    for Bp in range(0, B + 1):
        best = max(best, _probe_band(A, Bp, trials, rng, x, table))
    return best


def _probe_band(A: int, B: int, trials: int, rng, x: np.ndarray, table: np.ndarray) -> float:
    if B == 0:
        return _largest_gap_on_circle(np.cos(2.0 * np.pi * A * x))
    best = 0.0
    # random draws
    for _ in range(trials // 2):
        coeffs = rng.normal(size=B + 1) + 1j * rng.normal(size=B + 1)
        best = max(best, _largest_gap_on_circle(_band_poly_values(table, coeffs)))
    # structured cluster on consecutive carrier zeros around 1/2
    M = 2 * A + B
    roots = np.array([0.5 + (j - (B - 1) / 2.0) / M for j in range(B)])
    psi = 0.0
    cur = _largest_gap_on_circle(
        _band_poly_values(table, _structured_coeffs(A, B, roots, psi))
    )
    step0 = 1.0 / (4.0 * M)
    for it in range(trials // 2):
        scale = 2.0 ** (-it / 40.0)
        cand_roots = roots + rng.normal(scale=step0 * scale, size=B)
        cand_psi = psi + rng.normal(scale=0.3 * scale)
        gap = _largest_gap_on_circle(
            _band_poly_values(table, _structured_coeffs(A, B, cand_roots, cand_psi))
        )
        if gap > cur:
            cur, roots, psi = gap, cand_roots, cand_psi
    return max(best, cur)


# ----------------------------------------------------------------------
# Random stress instances (deterministic per seed)
# ----------------------------------------------------------------------


def random_trig_poly(rng, dim: int, max_shells: int = 5, max_norm: int = 12) -> TrigPoly:
    """Random Hermitian polynomial with <= max_shells distinct shells."""
    n_shells = int(rng.integers(1, max_shells + 1))
    table: dict = {}
    used_sq = set()
    attempts = 0
    while len(used_sq) < n_shells and attempts < 200:
        attempts += 1
        k = tuple(int(c) for c in rng.integers(-max_norm, max_norm + 1, size=dim))
        sq = sum(c * c for c in k)
        if sq == 0 or sq > max_norm * max_norm or sq in used_sq:
            continue
        used_sq.add(sq)
        for _ in range(int(rng.integers(1, 3)) if dim > 1 else 1):
            a = complex(rng.normal(), rng.normal())
            table[k] = table.get(k, 0j) + a
            nk = tuple(-c for c in k)
            table[nk] = table.get(nk, 0j) + a.conjugate()
            if dim > 1:
                perm = tuple(int(c) for c in rng.permutation(k))
                if sum(c * c for c in perm) == sq and perm != k:
                    b = complex(rng.normal(), rng.normal())
                    table[perm] = table.get(perm, 0j) + b
                    np_ = tuple(-c for c in perm)
                    table[np_] = table.get(np_, 0j) + b.conjugate()
    if not table:
        table = {(1,) + (0,) * (dim - 1): 0.5, (-1,) + (0,) * (dim - 1): 0.5}
    return TrigPoly(dim, table)


def random_sphere_fn(rng, dim: int = 3, max_degree: int = 12, max_terms: int = 4) -> SphereFn:
    """Random zonal-sum function on S^(dim-1) with degrees in [1, max_degree]."""
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        degree = int(rng.integers(1, max_degree + 1))
        pole = rng.normal(size=dim)
        pole /= np.linalg.norm(pole)
        weight = float(rng.normal())
        if weight == 0.0:
            weight = 1.0
        # high degrees have huge sup norms; keep contributions comparable
        weight /= gegenbauer(degree, (dim - 2.0) / 2.0, 1.0)
        terms.append(ZonalTerm(degree=degree, pole=pole, weight=weight))
    return SphereFn(dim, terms)


def random_eigen_mix(
    rng,
    dim: int,
    max_levels: int = 3,
    lam_lo: float = 1.0,
    lam_hi: float = 100.0,
    max_waves: int = 3,
) -> EigenMix:
    """Random mix with <= max_levels distinct eigenvalue levels."""
    n_levels = int(rng.integers(1, max_levels + 1))
    lams = np.sort(rng.uniform(lam_lo, lam_hi, size=n_levels))
    parts = []
    for lam in lams:
        waves = []
        for _ in range(int(rng.integers(1, max_waves + 1))):
            direction = rng.normal(size=dim)
            direction /= np.linalg.norm(direction)
            k = direction * math.sqrt(lam)
            waves.append((k, float(rng.normal()) or 1.0, float(rng.uniform(0, 2 * math.pi))))
        coef = float(rng.normal())
        if coef == 0.0:
            coef = 1.0
        parts.append((coef, PlaneWaveEigen(dim, float(lam), waves)))
    return EigenMix(dim, parts)
