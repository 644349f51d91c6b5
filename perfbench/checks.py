"""Correctness checks on program outputs.

Each check raises :class:`CheckFailure` with a message naming the violated
property, and returns nothing when the output is acceptable. The checks
compare against :mod:`reference` (computed apart from the program) or
against properties the method must have, such as r_lower staying below a
theorem bound. ``test_checks.py`` feeds each check a corrupted output to
show that it rejects it.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref


class CheckFailure(AssertionError):
    """A program output violated a property the benchmark checks."""


def _fail(msg: str):
    raise CheckFailure(msg)


# ----------------------------------------------------------------------
# sign-free balls
# ----------------------------------------------------------------------


def _window(axis: np.ndarray, c: float, r: float, period: float | None) -> np.ndarray:
    """Indices of the axis samples within r of c (wrap-around when periodic)."""
    delta = axis - c
    if period is not None:
        delta = (delta + 0.5 * period) % period - 0.5 * period
    return np.nonzero(np.abs(delta) <= r)[0]


def grid_samples_near(kind: str, dim: int, resolution: int, center, r: float, lo=(), hi=()):
    """Grid points of the search domain within (Euclidean or geodesic) r of center.

    Rebuilds the documented sample layout: i/N on each torus axis, the
    equal-area spiral with N^2 points on S^2, and N-point linspaces per box
    axis.
    """
    c = np.asarray(center, dtype=float)
    if kind == "sphere":
        pts = ref.fibonacci_sphere(resolution**2)
        return pts[np.arccos(np.clip(pts @ c, -1.0, 1.0)) < r]
    if kind == "torus":
        axes = [np.arange(resolution) / resolution] * dim
        period = 1.0
    else:
        axes = [np.linspace(lo[i], hi[i], resolution) for i in range(dim)]
        period = None
    idx = [_window(axes[i], c[i], r, period) for i in range(dim)]
    mesh = np.meshgrid(*[axes[i][idx[i]] for i in range(dim)], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    delta = pts - c
    if period is not None:
        delta = (delta + 0.5) % 1.0 - 0.5
    return pts[np.einsum("ij,ij->i", delta, delta) < r * r]


def check_sign_ball(label, r_lower, r_upper, bounds, evaluate, kind, dim, resolution,
                    center, scale, lo=(), hi=()):
    """r_lower <= every bound, and no grid sample within r_lower of the center
    has the opposite sign, judged by the benchmark's own evaluator."""
    if not (0.0 <= r_lower <= r_upper):
        _fail(f"{label}: radii out of order: r_lower={r_lower!r}, r_upper={r_upper!r}")
    for name, bound in bounds:
        if not r_lower <= bound:
            _fail(f"{label}: r_lower={r_lower:.6g} exceeds the {name} bound {bound:.6g}")
    c_val = float(evaluate(np.asarray(center, dtype=float)[None, :])[0])
    tol = 1e-9 * scale
    if abs(c_val) <= tol:
        if r_lower > 0.0:
            _fail(f"{label}: center value {c_val:.3g} is a root, yet r_lower={r_lower:.6g}")
        return
    pts = grid_samples_near(kind, dim, resolution, center, r_lower * (1.0 - 1e-12), lo, hi)
    if pts.shape[0]:
        vals = evaluate(pts) * math.copysign(1.0, c_val)
        worst = int(np.argmin(vals))
        if vals[worst] < -tol:
            _fail(
                f"{label}: grid sample {pts[worst].tolist()} within r_lower={r_lower:.6g} "
                f"of the center has the opposite sign"
            )


def check_exact_radius(label, r_lower, exact, diag):
    """A single-frequency instance lands within one grid diagonal of its exact radius."""
    if not abs(r_lower - exact) <= diag:
        _fail(f"{label}: r_lower={r_lower:.6g} is farther than {diag:.3g} from the exact {exact:.6g}")


# ----------------------------------------------------------------------
# quadrature outputs
# ----------------------------------------------------------------------


def check_close(label, value, expected, rtol):
    """|value - expected| <= rtol * (1 + |expected|)."""
    if not abs(value - expected) <= rtol * (1.0 + abs(expected)):
        _fail(f"{label}: {value!r} differs from the reference {expected!r} (rtol {rtol:g})")


def check_small(label, value, atol):
    if not abs(value) <= atol:
        _fail(f"{label}: |{value!r}| exceeds {atol:g}")


def check_annihilator(label, support, center, half_width, m, d):
    """The bump sits inside (1 - (d+4)^2/(4 m^2), 1) and its degree-m
    multiplier, recomputed with scipy, vanishes against its |C_m| scale."""
    lo, hi = support
    floor = 1.0 - (d + 4.0) ** 2 / (4.0 * m * m)
    if not (floor < lo < hi < 1.0):
        _fail(f"{label}: support {support} leaves the window ({floor:.6g}, 1)")
    g = ref.bump_profile(center, half_width)
    lam_m = ref.funk_hecke(g, support, m, d)
    scale = ref.funk_hecke(g, support, m, d, absval=True)
    if not abs(lam_m) <= 1e-9 * scale:
        _fail(f"{label}: degree-{m} multiplier {lam_m:.3g} does not vanish (scale {scale:.3g})")


def check_smoothed(label, dim, coeffs_before, coeffs_after, fft_grid):
    """After smoothing: one shell fewer, the top-shell FFT coefficients vanish,
    and every other coefficient carries the ball-indicator multiplier."""
    sq_before = sorted({sum(c * c for c in k) for k in coeffs_before})
    sq_after = sorted({sum(c * c for c in k) for k in coeffs_after})
    if len(sq_after) != len(sq_before) - 1:
        _fail(f"{label}: shell count {len(sq_before)} -> {len(sq_after)}, expected one fewer")
    top_sq = sq_before[-1]
    npts = fft_grid.shape[0]
    spectrum = np.fft.fftn(fft_grid) / fft_grid.size
    top_norm = math.sqrt(top_sq)
    for k, a in coeffs_before.items():
        got = spectrum[tuple(np.mod(k, npts))]
        if sum(c * c for c in k) == top_sq:
            if not abs(got) <= 1e-10:
                _fail(f"{label}: top-shell coefficient at {k} survives with |c|={abs(got):.3g}")
        else:
            want = a * ref.smoothing_multiplier(k, dim, top_norm)
            if not abs(got - want) <= 1e-9 * (1.0 + abs(a)):
                _fail(f"{label}: coefficient at {k} is {got:.6g}, reference {want:.6g}")


# ----------------------------------------------------------------------
# CLI reports
# ----------------------------------------------------------------------


def check_cli_exit(label, code):
    if code != 0:
        _fail(f"{label}: exit status {code}, expected 0")


def check_sign_rows(label, rows, expected_bounds=None):
    """Every sign row passes, its pass flag and ratio agree with r_lower/bound,
    and (when given) its bound equals the one recomputed from the instance."""
    if not rows:
        _fail(f"{label}: report has no sign rows")
    for row in rows:
        r_lower, bound, ratio = row["r_lower"], row["bound"], row["ratio"]
        if not row["pass"] or not r_lower <= bound:
            _fail(f"{label}: row {row['bound_name']} fails: r_lower={r_lower} > bound={bound}")
        if not abs(ratio - r_lower / bound) <= 1e-12 * max(1.0, ratio):
            _fail(f"{label}: ratio {ratio} != r_lower/bound")
        if expected_bounds is not None:
            want = expected_bounds[row["bound_name"]]
            if not abs(bound - want) <= 1e-12 * want:
                _fail(f"{label}: {row['bound_name']} bound {bound} != recomputed {want}")


def check_identity_rows(label, rows, tol):
    """Identity rows are within the default n = 3 tolerance, which they report."""
    if not rows:
        _fail(f"{label}: report has no identity rows")
    for row in rows:
        if row["tol"] != tol:
            _fail(f"{label}: case {row['case']} reports tol {row['tol']}, expected {tol}")
        if not (row["pass"] and row["residual"] <= tol):
            _fail(f"{label}: case {row['case']} residual {row['residual']} > {tol}")


def check_sharpness_rows(label, rows):
    """Each probe best sits between half the recomputed ceiling and the ceiling."""
    if not rows:
        _fail(f"{label}: report has no sharpness rows")
    for row in rows:
        ceiling = ref.sharpness_ceiling(row["A"], row["B"])
        if row["ceiling"] != ceiling:
            _fail(f"{label}: ceiling {row['ceiling']} != recomputed {ceiling}")
        best = row["best"]
        if not (0.5 * ceiling <= best <= ceiling + 2.0**-12 and row["pass"]):
            _fail(f"{label}: ({row['A']},{row['B']}) best={best} outside [{0.5 * ceiling}, {ceiling}]")


def check_same_body(label, body, first_body):
    """A repeated suite seed reproduces the CSV body byte for byte."""
    if body != first_body:
        _fail(f"{label}: CSV body differs from the first run of the same seed")
