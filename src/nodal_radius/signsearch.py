"""Empirical measurement of the largest sign-free ball of a function.

A function is sampled on a grid adapted to its domain (wrap-around torus
grid, equal-area spiral on the 2-sphere, plain box grid); every grid point
gets the exact distance to the nearest opposite-sign or near-zero sample,
the maximizing center is refined by bisection toward its nearest sign
change, and the result is compared against a theoretical radius bound.

Distances cost in proportion to the grid and the answer. The torus EDT
wrap-pads each axis only as far as the largest distance reaches (see
``_grid_distances`` for why that is exact), and the sphere's graph distances
come from one compiled multi-source Dijkstra per sign
(``scipy.sparse.csgraph``).

The reported r_lower is a certificate *at grid resolution*: no sampled
point within r_lower of the center has the opposite sign; r_upper adds one
grid diagonal as an upper estimate of the true maximum.

Randomized stress instances use numpy's PCG64 generator; every report
records the seed that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from .eigenid import EigenMix, PlaneWaveEigen
from .sphere import SphereFn, ZonalTerm
from .torus import TrigPoly

_NEAR_ZERO = 1e-12
_REFINE_STEPS = 40
_SPHERE_KNN = 8
_TORUS_PAD = 8


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
    """Largest empirical sign-free ball versus a theoretical bound."""

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
        self.bound = float(bound)
        self.ratio = self.r_lower / float(bound)
        return self


def _evaluate(f, pts: np.ndarray) -> np.ndarray:
    """Batch-evaluate f on an (N, d) array of points."""
    if hasattr(f, "eval_many"):
        return np.asarray(f.eval_many(pts), dtype=float)
    vals = f(pts)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError("callable must map (N, d) points to (N,) values")
    return vals


def _signs(values: np.ndarray):
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    thresh = _NEAR_ZERO * scale
    sgn = np.where(values > thresh, 1, np.where(values < -thresh, -1, 0))
    return sgn, scale


def _torus_wrap_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (b - a + 0.5) % 1.0 - 0.5


def _grid_distances(sgn: np.ndarray, spacing, periodic: bool):
    """Exact Euclidean distance from every cell to the nearest cell of the
    opposite sign (or a near-zero cell), per sign.

    On the torus each axis is wrap-padded by a width p that starts at
    ``_TORUS_PAD`` cells (capped at n // 2, the largest nearest-image offset
    on an axis of n cells) and is sized to the answer. Every padded cell is
    an image of a real cell, so a padded distance is never below the true
    wrap-around distance; a true distance of at most p * h has its nearest
    image within p cells on every axis, inside the pad, and so is found
    exactly. If the largest central distance exceeds p * h on an axis that
    is not yet at its cap, the EDT is redone once with p = ceil(max / h) + 1,
    which bounds every true distance. The second sign starts from the first
    sign's final pad: the two largest radii are mostly alike.
    """
    out = {}
    caps = [n // 2 for n in sgn.shape]
    pad = [min(_TORUS_PAD, c) for c in caps]
    for s in (1, -1):
        seeds = sgn != s  # opposite sign or zero
        if not seeds.any():
            out[s] = None
            continue
        if not periodic:
            out[s] = distance_transform_edt(~seeds, sampling=spacing)
            continue
        while True:
            padded = np.pad(
                ~seeds, tuple((p, p) for p in pad), mode="wrap"
            )  # True where NOT seed
            dist = distance_transform_edt(padded, sampling=spacing)
            dist = dist[tuple(slice(p, p + n) for p, n in zip(pad, sgn.shape))]
            top = float(dist.max())
            if all(p == c or top <= p * h for p, c, h in zip(pad, caps, spacing)):
                break
            pad = [min(math.ceil(top / h) + 1, c) for h, c in zip(spacing, caps)]
        out[s] = dist
    return out


def _best_center(sgn: np.ndarray, dists) -> tuple:
    """(flat index, radius) of the deterministic argmax over grid points."""
    radius = np.zeros(sgn.shape)
    for s in (1, -1):
        if dists[s] is not None:
            radius[sgn == s] = dists[s][sgn == s]
    flat = int(np.argmax(radius))  # first occurrence: lowest-index tie-break
    return flat, float(radius.flat[flat])


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

    Samples signs on the domain grid (values within 1e-12 of zero relative
    to the grid maximum count as sign changes), computes for every point the
    exact distance to the nearest opposite-sign point (wrap-around metric on
    the torus, geodesic via the spiral-grid neighbor graph on the sphere,
    Euclidean in a box), takes the maximizing center, and sharpens the
    radius by bisecting along the segment from the center to its nearest
    sign change.

    A function of constant sign on the whole grid yields a flagged report
    with r_upper equal to the domain diameter; for mean-zero inputs that
    signals an upstream bug.
    """
    if dom.kind == "sphere":
        return _sphere_search(f, dom, seed)
    n = dom.resolution
    d = dom.dim
    if dom.kind == "torus":
        if isinstance(f, TrigPoly) and f.dim == d:
            values = f.eval_grid(n)
        else:
            axes = [np.arange(n) / n] * d
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            values = _evaluate(f, pts).reshape((n,) * d)
        spacing = (1.0 / n,) * d
        axes_coords = [np.arange(n) / n] * d
        periodic = True
    else:
        axes_coords = [np.linspace(dom.lo[i], dom.hi[i], n) for i in range(d)]
        mesh = np.meshgrid(*axes_coords, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        values = _evaluate(f, pts).reshape((n,) * d)
        spacing = tuple(
            (dom.hi[i] - dom.lo[i]) / (n - 1) for i in range(d)
        )
        periodic = False
    sgn, scale = _signs(values)
    diag = math.sqrt(sum(h * h for h in spacing))
    if np.all(sgn == sgn.flat[0]) and sgn.flat[0] != 0:
        idx = np.unravel_index(0, values.shape)
        center = tuple(float(axes_coords[i][idx[i]]) for i in range(d))
        return SignBallReport(
            center=center,
            r_lower=0.0,
            r_upper=dom.diameter(),
            samples_used=values.size,
            resolution=n,
            domain=dom.kind,
            dim=d,
            constant_sign=True,
            seed=seed,
            notes="constant sign on the whole grid",
        )
    dists = _grid_distances(sgn, spacing, periodic)
    flat, grid_radius = _best_center(sgn, dists)
    idx = np.unravel_index(flat, values.shape)
    center = np.array([axes_coords[i][idx[i]] for i in range(d)])
    center_sign = int(sgn[idx])
    if center_sign == 0:
        # every sample is (numerically) zero: no sign-free ball at all
        return SignBallReport(
            center=tuple(float(c) for c in center),
            r_lower=0.0,
            r_upper=diag,
            samples_used=values.size,
            resolution=n,
            domain=dom.kind,
            dim=d,
            seed=seed,
            notes="grid values all within the zero threshold",
        )
    # exact nearest opposite-sign sample, for the refinement direction
    opp_mask = sgn != center_sign
    opp_idx = np.argwhere(opp_mask)
    opp_pts = np.stack(
        [np.asarray(axes_coords[i])[opp_idx[:, i]] for i in range(d)], axis=1
    )
    if periodic:
        deltas = _torus_wrap_delta(center, opp_pts)
    else:
        deltas = opp_pts - center
    dist2 = np.einsum("ij,ij->i", deltas, deltas)
    j = int(np.argmin(dist2))
    delta = deltas[j]
    seg_len = math.sqrt(float(dist2[j]))

    def eval_line(t):
        p = center + t * delta
        if periodic:
            p = p % 1.0
        return float(_evaluate(f, p[None, :])[0])

    t_cross = _bisect_crossing(eval_line, 0.0, 1.0)
    r_ref = t_cross * seg_len
    return SignBallReport(
        center=tuple(float(c) for c in center),
        r_lower=r_ref,
        r_upper=r_ref + diag,
        samples_used=values.size,
        resolution=n,
        domain=dom.kind,
        dim=d,
        seed=seed,
    )


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

    One multi-source Dijkstra per sign runs in scipy's compiled csgraph.
    Path lengths never undercut the geodesic.
    """
    from scipy.sparse.csgraph import dijkstra

    radius = np.zeros(sgn.size)
    for s in (1, -1):
        mine = sgn == s
        sources = np.nonzero(~mine)[0]
        if not mine.any() or sources.size == 0:
            continue
        dist = dijkstra(graph, directed=True, indices=sources, min_only=True)
        radius[mine] = dist[mine]
    return radius


def _sphere_search(f, dom: SearchDomain, seed) -> SignBallReport:
    """Sign search on the equal-area spiral of ``resolution**2`` points.

    Ranks the samples by their kNN-graph distance to another sign
    (``_sphere_graph_radius``, compiled Dijkstra on the cached graph of
    ``_spiral_graph``), then replaces the graph
    distance of the leaders, those within 10 % of the best (at most 512),
    by the exact arc to the nearest sample of another sign; the opposite-sign
    points are gathered once per sign. The best leader is the center, and
    its radius is sharpened by slerp bisection toward that sample.
    """
    n_points = dom.resolution**2
    pts, graph = _spiral_graph(n_points)
    values = _evaluate(f, pts)
    sgn, scale = _signs(values)
    # typical spacing of the equal-area spiral; one "grid diagonal"
    diag = 2.0 * math.sqrt(4.0 * math.pi / n_points)
    if np.all(sgn == sgn[0]) and sgn[0] != 0:
        return SignBallReport(
            center=tuple(map(float, pts[0])),
            r_lower=0.0,
            r_upper=dom.diameter(),
            samples_used=n_points,
            resolution=dom.resolution,
            domain="sphere",
            dim=3,
            constant_sign=True,
            seed=seed,
            notes="constant sign on the whole grid",
        )
    if not sgn.any():
        # every sample is (numerically) zero: no sign-free ball at all
        return SignBallReport(
            center=tuple(map(float, pts[0])),
            r_lower=0.0,
            r_upper=diag,
            samples_used=n_points,
            resolution=dom.resolution,
            domain="sphere",
            dim=3,
            seed=seed,
            notes="grid values all within the zero threshold",
        )
    radius = _sphere_graph_radius(graph, sgn)
    # graph distances overestimate geodesics: correct the leaders exactly
    order = np.argsort(-radius, kind="stable")
    top = order[: min(512, n_points)]
    best_r = -1.0
    best_i = -1
    best_seed = None
    opposite = {}  # sign -> (indices, points) of the samples of other signs
    for i in top:
        if radius[i] < 0.9 * radius[order[0]] and best_i >= 0:
            break
        s = int(sgn[i])
        if s not in opposite:
            opp = np.nonzero(sgn != s)[0]
            opposite[s] = (opp, pts[opp])
        opp, opp_pts = opposite[s]
        cos_to = opp_pts @ pts[i]
        jmax = int(np.argmax(cos_to))
        exact = math.acos(max(-1.0, min(1.0, float(cos_to[jmax]))))
        if exact > best_r:
            best_r = exact
            best_i = int(i)
            best_seed = pts[opp[jmax]]
    center = pts[best_i]
    # slerp bisection toward the nearest sign change
    omega = best_r
    axis = best_seed - math.cos(omega) * center
    axis_norm = np.linalg.norm(axis)
    if axis_norm < 1e-14:
        r_ref = 0.0
    else:
        axis = axis / axis_norm

        def eval_arc(theta):
            p = math.cos(theta) * center + math.sin(theta) * axis
            return float(_evaluate(f, p[None, :])[0])

        theta_cross = _bisect_crossing(eval_arc, 0.0, omega)
        r_ref = theta_cross
    return SignBallReport(
        center=tuple(float(c) for c in center),
        r_lower=r_ref,
        r_upper=r_ref + diag,
        samples_used=n_points,
        resolution=dom.resolution,
        domain="sphere",
        dim=3,
        seed=seed,
    )


def verify_bound(f, dom: SearchDomain, bound: float, seed: Optional[int] = None):
    """Measure the largest sign-free ball and test it against ``bound``.

    Returns (passed, report); the underlying theorems assert this must
    always pass, so a False here is a counterexample (or a measurement at
    too coarse a resolution).
    """
    if not bound > 0.0:
        raise ValueError(f"bound must be positive, got {bound!r}")
    report = largest_signfree_ball(f, dom, seed=seed).with_bound(bound)
    return bool(report.r_lower <= bound), report


# ----------------------------------------------------------------------
# 1D sharpness probe
# ----------------------------------------------------------------------


def _largest_gap_on_circle(values: np.ndarray) -> float:
    """Longest arc (fraction of the period) without a sign change."""
    n = values.size
    sgn, _ = _signs(values)
    nxt = np.roll(sgn, -1)
    change = (sgn * nxt < 0) | (sgn == 0)
    idx = np.nonzero(change)[0]
    if idx.size == 0:
        return 1.0
    gaps = np.diff(idx)
    wrap = idx[0] + n - idx[-1]
    return float(max(gaps.max(initial=0), wrap)) / n


def _band_poly_values(A: int, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re(sum_j coeffs[j] e^{2 pi i (A+j) x}) on the sample points."""
    vals = np.zeros(x.size)
    for j, c in enumerate(coeffs):
        vals += np.real(c * np.exp(2j * np.pi * (A + j) * x))
    return vals


def _structured_coeffs(A: int, B: int, roots: np.ndarray, psi: float) -> np.ndarray:
    """Coefficients of e^{i psi} prod_j (z - e^{2 pi i u_j}) in powers of z."""
    poly = np.array([1.0 + 0j])
    for u in roots:
        poly = np.convolve(poly, np.array([-np.exp(2j * np.pi * u), 1.0]))
    return np.exp(1j * psi) * poly


def sharpness_probe(
    A: int,
    B: int,
    trials: int = 400,
    resolution: int = 2**14,
    seed: int = 0,
) -> float:
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
    if resolution < 2**14:
        resolution = 2**14
    rng = np.random.default_rng(seed)
    x = np.arange(resolution) / resolution
    best = 0.0
    for Bp in range(0, B + 1):
        best = max(best, _probe_band(A, Bp, trials, rng, x))
    return best


def _probe_band(A: int, B: int, trials: int, rng, x: np.ndarray) -> float:
    if B == 0:
        return _largest_gap_on_circle(np.cos(2.0 * np.pi * A * x))
    best = 0.0
    # random draws
    for _ in range(trials // 2):
        coeffs = rng.normal(size=B + 1) + 1j * rng.normal(size=B + 1)
        best = max(best, _largest_gap_on_circle(_band_poly_values(A, coeffs, x)))
    # structured cluster on consecutive carrier zeros around 1/2
    M = 2 * A + B
    roots = np.array([0.5 + (j - (B - 1) / 2.0) / M for j in range(B)])
    psi = 0.0
    cur = _largest_gap_on_circle(
        _band_poly_values(A, _structured_coeffs(A, B, roots, psi), x)
    )
    step0 = 1.0 / (4.0 * M)
    for it in range(trials // 2):
        scale = 2.0 ** (-it / 40.0)
        cand_roots = roots + rng.normal(scale=step0 * scale, size=B)
        cand_psi = psi + rng.normal(scale=0.3 * scale)
        gap = _largest_gap_on_circle(
            _band_poly_values(A, _structured_coeffs(A, B, cand_roots, cand_psi), x)
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
        from .specfun import gegenbauer as _geg

        weight /= _geg(degree, (dim - 2.0) / 2.0, 1.0)
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
