"""The benchmark's workloads: instances built from a seed, run through the
package's public API, each output paired with a check.

A workload is a list of :class:`Op` that makes one round; the runner repeats
the round. Every instance is drawn from ``numpy.random.default_rng(seed)``
with a fixed structure per slot (dimension, resolution, number of terms or
waves, parameter ranges), so the work per round barely depends on the seed
while the values do. Ops call the package through module attributes at run
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref


@dataclass
class Op:
    kind: str  # the metric group the op's time counts toward
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


# ----------------------------------------------------------------------
# random instance data (plain tuples, independent of the package)
# ----------------------------------------------------------------------


def cosine_terms(rng, dim: int, n_terms: int, max_norm: int):
    """n_terms cosines with distinct frequencies (up to sign), ||k|| <= max_norm."""
    terms, seen = [], set()
    while len(terms) < n_terms:
        k = tuple(int(c) for c in rng.integers(-max_norm, max_norm + 1, size=dim))
        sq = sum(c * c for c in k)
        if sq == 0 or sq > max_norm * max_norm or k in seen:
            continue
        seen.update((k, tuple(-c for c in k)))
        terms.append((k, float(rng.normal()) or 1.0, float(rng.uniform(0.0, 2.0 * math.pi))))
    return terms


def unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def plane_waves(rng, dim: int, lam: float, n_waves: int):
    return [
        (unit_vector(rng, dim) * math.sqrt(lam), float(rng.normal()) or 1.0,
         float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(n_waves)
    ]


def zero_balance_waves(rng, dim: int, lam: float, x: np.ndarray):
    """Plane waves whose sum vanishes at x: the last wave, phased to equal its
    amplitude at x, cancels the others."""
    waves = plane_waves(rng, dim, lam, int(rng.integers(1, 3)))
    partial = sum(a * math.cos(float(k @ x) + p) for k, a, p in waves)
    k_last = unit_vector(rng, dim) * math.sqrt(lam)
    waves.append((k_last, -partial, -float(k_last @ x)))
    return waves


# ----------------------------------------------------------------------
# grid-search: sign searches with their theorem bounds
# ----------------------------------------------------------------------

# (dim, resolution, terms, max_norm, count); single-frequency slots have terms = 1
TORUS_SLOTS = ((1, 4096, 4, 40, 6), (2, 256, 6, 12, 6), (2, 512, 6, 20, 2), (3, 96, 8, 10, 1),
               (1, 4096, 1, 40, 2), (2, 256, 1, 12, 2), (3, 48, 1, 6, 1))
# (resolution, terms, max_degree, count)
SPHERE_SLOTS = ((128, 3, 12, 6), (128, 1, 16, 3))
# (dim, resolution, levels, waves per level, count)
BOX_SLOTS = ((2, 256, 2, 2, 8), (3, 96, 2, 2, 3))


def _torus_op(nr, rng, dim, res, n_terms, max_norm):
    terms = cosine_terms(rng, dim, n_terms, max_norm)
    f = nr.torus.TrigPoly.from_cosines(dim, terms)
    dom = nr.signsearch.SearchDomain.torus(dim, res)
    freqs = [k for k, _, _ in terms]
    both = freqs + [tuple(-c for c in k) for k in freqs]
    bounds = (("theorem1", ref.theorem1_bound(dim, freqs)), ("kozma", ref.kozma_bound(both)))
    label = f"torus d={dim} N={res} terms={n_terms}"

    def run():
        rep = nr.signsearch.largest_signfree_ball(f, dom)
        return rep, nr.torus.bound_theorem1(f), nr.torus.bound_kozma(f)

    def check(out):
        rep, b1, bk = out
        for (name, want), got in zip(bounds, (b1, bk)):
            checks.check_close(f"{label} {name} bound", got, want, 1e-12)
        checks.check_sign_ball(
            label, rep.r_lower, rep.r_upper, bounds, lambda p: ref.cosine_sum(terms, p),
            "torus", dim, res, rep.center, sum(abs(a) for _, a, _ in terms))
        if n_terms == 1:
            checks.check_exact_radius(label, rep.r_lower, ref.torus_single_radius(freqs[0]),
                                      math.sqrt(dim) / res)

    return Op("torus", label, run, check)


def _sphere_op(nr, rng, res, n_terms, max_degree):
    if n_terms == 1:
        zonal = [(int(rng.integers(3, max_degree + 1)), unit_vector(rng, 3), 1.0)]
    else:
        zonal = [(int(rng.integers(2, max_degree + 1)), unit_vector(rng, 3),
                  float(rng.normal()) or 1.0) for _ in range(n_terms)]
    f = nr.sphere.SphereFn(3, [nr.sphere.ZonalTerm(degree=k, pole=p, weight=w) for k, p, w in zonal])
    dom = nr.signsearch.SearchDomain.sphere(3, res)
    bounds = (("theorem2", ref.theorem2_bound(3, [k for k, _, _ in zonal])),)
    label = f"sphere N={res}^2 terms={n_terms}"

    def run():
        return nr.signsearch.largest_signfree_ball(f, dom), nr.sphere.bound_theorem2(f)

    def check(out):
        rep, b2 = out
        checks.check_close(f"{label} theorem2 bound", b2, bounds[0][1], 1e-12)
        checks.check_sign_ball(
            label, rep.r_lower, rep.r_upper, bounds, lambda p: ref.zonal_sum(zonal, p),
            "sphere", 3, res, rep.center, sum(abs(w) for _, _, w in zonal))
        if n_terms == 1:
            diag = 2.0 * math.sqrt(4.0 * math.pi / res**2)
            checks.check_exact_radius(label, rep.r_lower, ref.sphere_single_radius(zonal[0][0]), diag)

    return Op("sphere", label, run, check)


def _box_op(nr, rng, dim, res, n_levels, n_waves):
    lams = np.sort(rng.uniform(1.0, 100.0, size=n_levels))
    levels = [(float(lam), plane_waves(rng, dim, float(lam), n_waves)) for lam in lams]
    coefs = [float(rng.normal()) or 1.0 for _ in levels]
    mix = nr.eigenid.EigenMix(dim, [
        (c, nr.eigenid.PlaneWaveEigen(dim, lam, waves)) for c, (lam, waves) in zip(coefs, levels)])
    flat = [(k, c * a, p) for c, (_, waves) in zip(coefs, levels) for k, a, p in waves]
    bound = ref.theorem3_bound([lam for lam, _ in levels])
    side = 2.0 * bound
    lo, hi = (0.0,) * dim, (side,) * dim
    dom = nr.signsearch.SearchDomain.box(dim, lo, hi, res)
    label = f"box d={dim} N={res}"

    def run():
        return nr.signsearch.largest_signfree_ball(mix, dom), nr.eigenid.bound_theorem3(mix)

    def check(out):
        rep, b3 = out
        checks.check_close(f"{label} theorem3 bound", b3, bound, 1e-12)
        checks.check_sign_ball(
            label, rep.r_lower, rep.r_upper, (("theorem3", bound),),
            lambda p: ref.plane_wave_sum(flat, p), "box", dim, res, rep.center,
            sum(abs(a) for _, a, _ in flat), lo, hi)

    return Op("box", label, run, check)


def grid_search(nr, seed: int, workdir: Path, counter):
    rng = np.random.default_rng(seed)
    ops = []
    for dim, res, n_terms, max_norm, count in TORUS_SLOTS:
        ops += [_torus_op(nr, rng, dim, res, n_terms, max_norm) for _ in range(count)]
    for res, n_terms, max_degree, count in SPHERE_SLOTS:
        ops += [_sphere_op(nr, rng, res, n_terms, max_degree) for _ in range(count)]
    for dim, res, n_levels, n_waves, count in BOX_SLOTS:
        ops += [_box_op(nr, rng, dim, res, n_levels, n_waves) for _ in range(count)]
    order = rng.permutation(len(ops))
    warm = [_torus_op(nr, rng, 2, 32, 2, 4), _sphere_op(nr, rng, 16, 2, 4),
            _box_op(nr, rng, 2, 32, 1, 1)]
    return warm, [ops[i] for i in order]


# ----------------------------------------------------------------------
# quadrature: Coulomb ball integrals, wave fields, kernels
# ----------------------------------------------------------------------

# (n, count, waves, u range); u = sqrt(lambda) * r. For n >= 5 the u range
# keeps every instance converging on the second angular rung (in 60 draws the
# rung-2 step stayed 5x inside the tolerance); a wider range lets the odd seed
# climb a rung and run 5 to 8 times longer, so the work would follow the seed
COULOMB_SLOTS = ((3, 10, 2, (0.3, 10.0)), (4, 8, 2, (0.3, 3.0)), (5, 2, 2, (0.3, 1.2)),
                 (6, 1, 1, (0.3, 0.6)))
ZERO_BALANCE = 4  # n = 3 instances, each at three radii
TOP_RUNG_SHELLS = 1  # n = 6 shell averages that climb to the top angular order
WAVE_FIELDS = 20  # per dimension: half full mixes at random t, half top levels at t*
FUNK_HECKE = 30
ANNIHILATORS = 12
SMOOTHINGS = 20


def _coulomb_op(nr, rng, n, n_waves, u_range, tol=1e-6):
    lam = float(rng.uniform(0.5, 6.0))
    waves = plane_waves(rng, n, lam, n_waves)
    x = rng.normal(size=n) * 0.4
    r = float(rng.uniform(*u_range)) / math.sqrt(lam)
    phi = nr.eigenid.PlaneWaveEigen(n, lam, waves)
    label = f"coulomb n={n}"

    def check(val):
        checks.check_close(label, val, ref.coulomb_ball(waves, lam, x, r), 10 * tol)

    return Op("coulomb", label, lambda: nr.eigenid.coulomb_ball_integral(phi, x, r, tol=tol), check)


def _zero_balance_ops(nr, rng):
    lam = float(rng.uniform(0.5, 30.0))
    x = rng.normal(size=3) * 0.5
    phi = nr.eigenid.PlaneWaveEigen(3, lam, zero_balance_waves(rng, 3, lam, x))
    ops = []
    for factor in (0.5, 1.0, 2.0):
        r = factor / math.sqrt(lam)
        label = f"zero-balance r={factor}/sqrt(lam)"
        ops.append(Op(
            "coulomb", label,
            lambda r=r: nr.eigenid.coulomb_ball_integral(phi, x, r, tol=1e-8),
            lambda val, label=label: checks.check_small(label, val, 1e-7)))
    return ops


def _top_rung_op(nr, rng):
    lam = float(rng.uniform(1.0, 4.0))
    waves = plane_waves(rng, 6, lam, 2)
    x = rng.normal(size=6) * 0.4
    s = float(rng.uniform(6.0, 10.0)) / math.sqrt(lam)
    phi = nr.eigenid.PlaneWaveEigen(6, lam, waves)

    def check(val):
        checks.check_close("top-rung shell n=6", val, ref.spherical_mean(waves, lam, x, s), 1e-6)

    return Op("shell", "top-rung shell n=6",
              lambda: nr.eigenid.radial_average(phi, x, s, tol=1e-10), check)


def _wave_op(nr, rng, dim, at_t_star):
    lams = np.sort(rng.uniform(1.0, 9.0, size=2))
    levels = [(float(lam), plane_waves(rng, dim, float(lam), 2)) for lam in lams]
    coefs = [float(rng.normal()) or 1.0 for _ in levels]
    x = rng.normal(size=dim) * 0.4
    field = nr.eigenid.kirchhoff_3d if dim == 3 else nr.eigenid.poisson_2d
    name = field.__name__
    if at_t_star:
        lam, waves = levels[-1]
        t = 2.0 * math.pi / math.sqrt(lam)
        source = nr.eigenid.PlaneWaveEigen(dim, lam, waves)
        label = f"{name} top level at t*"
        check = lambda val: checks.check_small(label, val, 1e-5)  # noqa: E731
    else:
        t = float(rng.uniform(0.5, 1.8 if dim == 3 else 1.5))
        source = nr.eigenid.EigenMix(dim, [
            (c, nr.eigenid.PlaneWaveEigen(dim, lam, waves)) for c, (lam, waves) in zip(coefs, levels)])
        scaled = [(lam, [(k, c * a, p) for k, a, p in waves]) for c, (lam, waves) in zip(coefs, levels)]
        label = f"{name} mix"
        check = lambda val: checks.check_close(label, val, ref.wave_field(scaled, x, t), 1e-5)  # noqa: E731
    return Op("wave", label,
              lambda: getattr(nr.eigenid, name)(source, x, t, tol=1e-6), check)


def _funk_hecke_op(nr, rng):
    d = int(rng.integers(3, 6))
    k = int(rng.integers(1, 13))
    c = float(rng.uniform(-0.3, 0.6))
    h = float(rng.uniform(0.08, 0.22))
    kern = nr.sphere.ZonalKernel.bump(c, h)
    label = f"funk-hecke k={k} d={d}"

    def check(val):
        want = ref.funk_hecke(ref.bump_profile(c, h), (c - h, c + h), k, d)
        scale = ref.funk_hecke(ref.bump_profile(c, h), (c - h, c + h), k, d, absval=True)
        checks.check_close(label, val / scale, want / scale, 1e-9)

    return Op("kernel", label, lambda: nr.sphere.funk_hecke_eigenvalue(kern, k, d), check)


def _annihilator_op(nr, rng):
    d = int(rng.integers(3, 7))
    m = int(rng.integers(max(15, d + 5), 51))
    label = f"annihilator m={m} d={d}"

    def check(kern):
        checks.check_annihilator(label, kern.support, kern.center, kern.half_width, m, d)

    return Op("kernel", label, lambda: nr.sphere.annihilator_bump(m, d), check)


def _smoothing_op(nr, rng):
    dim = int(rng.integers(1, 4))
    while True:
        terms = cosine_terms(rng, dim, 4, 10)
        sq = sorted({sum(c * c for c in k) for k, _, _ in terms})
        top = math.sqrt(sq[-1])
        if len(sq) >= 2 and ref.bessel_zero(dim / 2.0) / (2.0 * math.pi * top) < 0.5:
            break
    f = nr.torus.TrigPoly.from_cosines(dim, terms)
    npts = 4 * int(math.ceil(top)) + 2
    label = f"smooth top shell d={dim}"

    def run():
        g = nr.torus.smooth_top_shell(f)
        return g, g.eval_grid(npts)

    def check(out):
        g, grid = out
        checks.check_smoothed(label, dim, dict(f.coeffs), dict(g.coeffs), grid)

    return Op("kernel", label, run, check)


def quadrature(nr, seed: int, workdir: Path, counter):
    rng = np.random.default_rng(seed)
    ops = []
    for n, count, n_waves, u_range in COULOMB_SLOTS:
        ops += [_coulomb_op(nr, rng, n, n_waves, u_range) for _ in range(count)]
    for _ in range(ZERO_BALANCE):
        ops += _zero_balance_ops(nr, rng)
    ops += [_top_rung_op(nr, rng) for _ in range(TOP_RUNG_SHELLS)]
    for dim in (2, 3):
        ops += [_wave_op(nr, rng, dim, i % 2 == 1) for i in range(WAVE_FIELDS)]
    ops += [_funk_hecke_op(nr, rng) for _ in range(FUNK_HECKE)]
    ops += [_annihilator_op(nr, rng) for _ in range(ANNIHILATORS)]
    ops += [_smoothing_op(nr, rng) for _ in range(SMOOTHINGS)]
    warm = [_coulomb_op(nr, rng, 3, 1, (0.5, 1.0)), _wave_op(nr, rng, 2, False),
            _wave_op(nr, rng, 3, False), _funk_hecke_op(nr, rng), _smoothing_op(nr, rng)]
    # slot order, not shuffled: in a shuffled order the allocator's state when
    # the 8.2M-point grid is built varied with the seed, and so did the peak
    # RSS (1498 or 1634 MB)
    return warm, ops


# ----------------------------------------------------------------------
# cli-suite: in-process command-line runs
# ----------------------------------------------------------------------

SUITE_COUNT = 4
SUITE_SEEDS = 2
# a suite seed is used only if its torus stage holds this many 3-D jobs and
# its mix stage this many 3-D boxes, so every invocation does the same grid work
SUITE_TORUS_3D = 1
SUITE_MIX_3D = 1
# (command, dim, resolution, count) per analyze batch; two batches per round.
# The resolutions stay below the caps the CLI applies (96 for 3-D grids, 160
# for the sphere), so the CLI samples exactly the grid the check rebuilds.
ANALYZE_SLOTS = (("analyze-trig", 1, 1024, 4), ("analyze-trig", 2, 128, 5),
                 ("analyze-trig", 3, 32, 3), ("analyze-sphere", 3, 64, 6),
                 ("analyze-mix", 2, 128, 3), ("analyze-mix", 3, 32, 3))


def suite_profile(nr, seed: int, count: int):
    """(3-D torus jobs, 3-D mix boxes) that ``--cmd suite`` draws for a seed.

    Replays the suite's instance draws with the same public generators; if
    the suite changes how it draws, the profile only stops predicting cost.
    """
    streams = np.random.SeedSequence(seed).spawn(4)
    rng = np.random.default_rng(streams[0])
    torus_3d = 0
    for _ in range(count):
        d = int(rng.integers(1, 4))
        nr.signsearch.random_trig_poly(rng, d, max_shells=4, max_norm=10)
        torus_3d += d == 3
    rng = np.random.default_rng(streams[2])
    mix_3d = 0
    for _ in range(max(2, count // 3)):
        d = int(rng.integers(2, 4))
        nr.signsearch.random_eigen_mix(rng, d, max_levels=3, lam_lo=1.0,
                                       lam_hi=40.0 if d == 2 else 25.0)
        mix_3d += d == 3
    return torus_3d, mix_3d


def _sections(out_dir: Path) -> dict:
    """The JSON report's sections, each a list of {column: value} rows."""
    payload = json.loads((out_dir / "report.json").read_text())
    return {name: [dict(zip(sec["columns"], row)) for row in sec["rows"]]
            for name, sec in payload["sections"].items()}


def _report_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in ("report.csv", "report.json"))


def _suite_op(nr, seed, out_dir: Path, bodies: dict, counter):
    argv = ["--cmd", "suite", "--seed", str(seed), "--count", str(SUITE_COUNT), "--out", str(out_dir)]
    label = f"suite seed={seed}"

    def run():
        code = nr.cli.main(argv)
        counter("cli.report_bytes", _report_bytes(out_dir))
        return code

    def check(code):
        body = (out_dir / "report.csv").read_text().splitlines()[1:]
        sections = _sections(out_dir)
        checks.check_cli_exit(label, code)
        checks.check_sign_rows(label, sections["signsearch"])
        checks.check_identity_rows(label, sections["identity"], 1e-6)
        checks.check_sharpness_rows(label, sections["sharpness"])
        checks.check_same_body(label, body, bodies.setdefault(seed, body))

    return Op("suite", label, run, check)


def _analyze_op(nr, rng, command, dim, res, out_dir: Path, counter):
    out_dir.mkdir(parents=True, exist_ok=True)
    if command == "analyze-trig":
        terms = cosine_terms(rng, dim, 4, 12 if dim > 1 else 30)
        data = {"dim": dim, "terms": [
            {"k": list(k), "re": 0.5 * a * math.cos(p), "im": 0.5 * a * math.sin(p)}
            for k, a, p in terms]}
        freqs = [k for k, _, _ in terms]
        both = freqs + [tuple(-c for c in k) for k in freqs]
        expected = {"theorem1": ref.theorem1_bound(dim, freqs), "kozma": ref.kozma_bound(both)}
        evaluate = lambda p: ref.cosine_sum(terms, p)  # noqa: E731
        scale = sum(abs(a) for _, a, _ in terms)
        kind, lo, hi = "torus", (), ()
    elif command == "analyze-sphere":
        zonal = [(int(rng.integers(2, 13)), unit_vector(rng, 3), float(rng.normal()) or 1.0)
                 for _ in range(3)]
        data = {"dim": 3, "terms": [{"k": k, "pole": p.tolist(), "w": w} for k, p, w in zonal]}
        expected = {"theorem2": ref.theorem2_bound(3, [k for k, _, _ in zonal])}
        evaluate = lambda p: ref.zonal_sum(zonal, p)  # noqa: E731
        scale = sum(abs(w) for _, _, w in zonal)
        kind, lo, hi = "sphere", (), ()
    else:
        lams = np.sort(rng.uniform(1.0, 40.0, size=2))
        levels = [(float(lam), plane_waves(rng, dim, float(lam), 2)) for lam in lams]
        data = {"dim": dim, "parts": [
            {"coef": 1.0, "eigen": {"dim": dim, "lambda": lam, "waves": [
                {"k": k.tolist(), "amp": a, "phase": p} for k, a, p in waves]}}
            for lam, waves in levels]}
        flat = [w for _, waves in levels for w in waves]
        bound = ref.theorem3_bound([lam for lam, _ in levels])
        expected = {"theorem3": bound}
        evaluate = lambda p: ref.plane_wave_sum(flat, p)  # noqa: E731
        scale = sum(abs(a) for _, a, _ in flat)
        kind, lo, hi = "box", (0.0,) * dim, (2.0 * bound,) * dim
    input_path = out_dir / "input.json"
    input_path.write_text(json.dumps(data))
    argv = ["--cmd", command, "--input", str(input_path), "--resolution", str(res),
            "--out", str(out_dir)]
    label = f"{command} d={dim} N={res}"

    def run():
        code = nr.cli.main(argv)
        counter("cli.report_bytes", _report_bytes(out_dir))
        return code

    def check(code):
        checks.check_cli_exit(label, code)
        rows = _sections(out_dir)["signsearch"]
        checks.check_sign_rows(label, rows, expected)
        row = rows[0]
        center = [row[f"cx{i}"] for i in range(dim)]
        checks.check_sign_ball(label, row["r_lower"], row["r_upper"], list(expected.items()),
                               evaluate, kind, dim, res, center, scale, lo, hi)

    return Op("analyze", label, run, check)


def cli_suite(nr, seed: int, workdir: Path, counter):
    rng = np.random.default_rng(seed)
    seeds = []
    while len(seeds) < SUITE_SEEDS:
        cand = int(rng.integers(0, 2**31))
        if suite_profile(nr, cand, SUITE_COUNT) == (SUITE_TORUS_3D, SUITE_MIX_3D):
            seeds.append(cand)
    bodies: dict = {}
    ops = []
    for i, suite_seed in enumerate(seeds):
        ops.append(_suite_op(nr, suite_seed, workdir / f"suite{i}", bodies, counter))
        batch = [(command, dim, res) for command, dim, res, count in ANALYZE_SLOTS
                 for _ in range(count)]
        for j in rng.permutation(len(batch)):
            command, dim, res = batch[j]
            ops.append(_analyze_op(nr, rng, command, dim, res,
                                   workdir / f"analyze{i}-{len(ops)}", counter))
    warm = [_analyze_op(nr, rng, "analyze-trig", 1, 64, workdir / "warm", counter)]
    return warm, ops


WORKLOADS = {"grid-search": grid_search, "quadrature": quadrature, "cli-suite": cli_suite}
