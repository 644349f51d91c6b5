"""Command-line front end: build instances from JSON/flags, run verification
suites, and emit CSV/JSON reports plus optional SVG sign-pattern plots.

Exit codes: 0 all asserted bounds/identities passed; 1 at least one check
failed; 2 input could not be parsed, the report cannot hold it, or --out
cannot be a directory (the message names the offending field); 3 a
quadrature could not reach its tolerance (the failing cases are listed).

The CSV report starts with a timestamp comment line; everything below it is
byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import eigenid, signsearch, sphere, svgplot, torus
from .specfun import AccuracyError

COMMANDS = (
    "analyze-trig",
    "analyze-sphere",
    "analyze-mix",
    "verify-identity",
    "sharpness",
    "suite",
)

SIGN_HEADER = (
    "seed,domain,dim,resolution,cx0,cx1,cx2,r_lower,r_upper,bound,ratio,pass,bound_name"
)
IDENTITY_HEADER = "case,n,lambda,r_or_t,residual,tol,pass"
PROBE_HEADER = "A,B,best,ceiling,floor,pass"


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    seed: int = 0
    tol_residual: float | None = None  # None: the identity's own default
    resolution: int = 256
    output_dir: str = "."
    emit_svg: bool = False
    A: int = 5
    B: int = 1
    trials: int = 300
    n: int = 3
    count: int = 10


class ParseFailure(ValueError):
    pass


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _sign_row(report, bound_name: str) -> list:
    center = list(report.center) + [None] * (3 - len(report.center))
    return [
        report.seed,
        report.domain,
        report.dim,
        report.resolution,
        center[0],
        center[1],
        center[2],
        report.r_lower,
        report.r_upper,
        report.bound,
        report.ratio,
        report.passed,
        bound_name,
    ]


def _bound_rows(f, dom, named_bounds, seed):
    """One measurement, one CSV row per bound."""
    base = signsearch.largest_signfree_ball(f, dom, seed=seed)
    reports = [(base.with_bound(bound), name) for name, bound in named_bounds]
    rows = [_sign_row(rep, name) for rep, name in reports]
    return rows, all(rep.passed for rep, _ in reports)


def _probe_row(A: int, B: int, best: float) -> list:
    """[A, B, best, ceiling, floor, pass] of a sharpness probe: the best
    sign-free interval passes if it exceeds the ceiling (B+1)/(2A+B) by at
    most 2^-12 and reaches the floor, half the ceiling."""
    ceiling = (B + 1.0) / (2.0 * A + B)
    floor = 0.5 * ceiling
    return [A, B, best, ceiling, floor, best <= ceiling + 2.0**-12 and best >= floor]


# ----------------------------------------------------------------------
# fixtures and random instances
# ----------------------------------------------------------------------


def _default_trig() -> torus.TrigPoly:
    # cos(2 pi * 5 x) on the circle
    return torus.TrigPoly(1, {(5,): 0.5, (-5,): 0.5})


def _default_sphere() -> sphere.SphereFn:
    return sphere.SphereFn(
        3,
        [
            sphere.ZonalTerm(degree=2, pole=np.array([0.0, 0.0, 1.0]), weight=1.0),
            sphere.ZonalTerm(degree=5, pole=np.array([1.0, 0.0, 0.0]), weight=0.3),
        ],
    )


def _default_mix() -> eigenid.EigenMix:
    a = eigenid.PlaneWaveEigen(2, 4.0, [(np.array([2.0, 0.0]), 1.0, 0.0)])
    b = eigenid.PlaneWaveEigen(2, 25.0, [(np.array([3.0, 4.0]), 0.6, 1.0)])
    return eigenid.EigenMix(2, [(1.0, a), (0.8, b)])


def _random_plane_wave(rng, n: int, lam: float, n_waves: int = 2):
    waves = []
    for _ in range(n_waves):
        d = rng.normal(size=n)
        k = d / np.linalg.norm(d) * math.sqrt(lam)
        waves.append((k, float(rng.normal()) or 1.0, float(rng.uniform(0, 2 * math.pi))))
    return eigenid.PlaneWaveEigen(n, lam, waves)


def _load_input(cfg: RunConfig, loader, dims):
    """The instance in the input file, None without one. Its dim must lie
    in ``dims``: a sign report holds three center coordinates, and the
    sphere search samples S^2 only."""
    if cfg.input_path is None:
        return None
    try:
        text = Path(cfg.input_path).read_text()
    except OSError as exc:
        raise ParseFailure(f"cannot read input file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"malformed JSON in {cfg.input_path}: {exc}") from exc
    try:
        f = loader(data)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    if f.dim not in dims:
        raise ParseFailure(f"{cfg.command} takes dim in {list(dims)}, got {f.dim}")
    return f


# ----------------------------------------------------------------------
# command handlers: each returns (sections, passed, accuracy_failures)
# where sections is a list of (name, header, rows)
# ----------------------------------------------------------------------


def _run_analyze_trig(cfg: RunConfig):
    f = _load_input(cfg, torus.from_dict, (1, 2, 3)) or _default_trig()
    res = cfg.resolution if f.dim <= 2 else min(cfg.resolution, 96)
    dom = signsearch.SearchDomain.torus(f.dim, res)
    rows, ok = _bound_rows(
        f,
        dom,
        [("theorem1", torus.bound_theorem1(f)), ("kozma", torus.bound_kozma(f))],
        cfg.seed,
    )
    if cfg.emit_svg:
        out = Path(cfg.output_dir)
        if f.dim == 1:
            xs = np.arange(res) / res
            svgplot.sign_trace_svg(xs, f.eval_grid(res), out / "sign_trace.svg")
        else:
            grid = f.eval_grid(res if f.dim == 2 else 64)
            if f.dim == 3:
                grid = grid[:, :, 0]
            svgplot.sign_raster_svg(grid, out / "sign_raster.svg")
    return [("signsearch", SIGN_HEADER, rows)], ok, []


def _run_analyze_sphere(cfg: RunConfig):
    f = _load_input(cfg, sphere.from_dict, (3,)) or _default_sphere()
    res = min(cfg.resolution, 160)
    dom = signsearch.SearchDomain.sphere(3, res)
    rows, ok = _bound_rows(
        f, dom, [("theorem2", sphere.bound_theorem2(f))], cfg.seed
    )
    if cfg.emit_svg:
        pts = signsearch._fibonacci_sphere(res**2)
        svgplot.mollweide_svg(
            pts, f.eval_many(pts), Path(cfg.output_dir) / "mollweide.svg"
        )
    return [("signsearch", SIGN_HEADER, rows)], ok, []


def _run_analyze_mix(cfg: RunConfig):
    mix = _load_input(cfg, eigenid.mix_from_dict, (2, 3)) or _default_mix()
    bound = eigenid.bound_theorem3(mix)
    L = 2.0 * bound
    res = cfg.resolution if mix.dim <= 2 else min(cfg.resolution, 96)
    dom = signsearch.SearchDomain.box(
        mix.dim, (0.0,) * mix.dim, (L,) * mix.dim, res
    )
    rows, ok = _bound_rows(mix, dom, [("theorem3", bound)], cfg.seed)
    if cfg.emit_svg and mix.dim == 2:
        axes = np.linspace(0.0, L, min(res, 256))
        grid = signsearch._wave_grid(mix, [axes, axes])
        svgplot.sign_raster_svg(grid, Path(cfg.output_dir) / "sign_raster.svg")
    return [("signsearch", SIGN_HEADER, rows)], ok, []


def _run_verify_identity(cfg: RunConfig):
    n, tol = cfg.n, cfg.tol_residual
    if tol is None:
        tol = 1e-6 if n == 3 else 1e-5
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = []
    all_pass = True
    for case in range(cfg.count):
        lam = float(rng.uniform(0.5, 20.0 if n == 3 else 6.0))
        phi = _random_plane_wave(rng, n, lam, n_waves=int(rng.integers(1, 3)))
        x = rng.normal(size=n) * 0.5
        u = float(rng.uniform(0.1, 4.0 * math.pi if n == 3 else 3.0))
        r = u / math.sqrt(lam)
        try:
            residual = eigenid.verify_identity(phi, x, r, tol=tol)
        except AccuracyError as exc:
            failures.append(f"identity case {case}: {exc}")
            continue
        ok = residual <= tol
        all_pass &= ok
        rows.append([case, n, lam, r, residual, tol, ok])
    return [("identity", IDENTITY_HEADER, rows)], all_pass, failures


def _run_sharpness(cfg: RunConfig):
    probe = signsearch.sharpness_probe(cfg.A, cfg.B, trials=cfg.trials, seed=cfg.seed)
    row = _probe_row(cfg.A, cfg.B, probe)
    return [("sharpness", PROBE_HEADER, [row])], row[-1], []


def _run_suite(cfg: RunConfig):
    count = cfg.count
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    sign_rows = []
    all_pass = True
    failures = []

    # torus stress: both bounds per instance
    rng = np.random.default_rng(seeds[0])
    for _ in range(count):
        d = int(rng.integers(1, 4))
        f = signsearch.random_trig_poly(rng, d, max_shells=4, max_norm=10)
        rows, ok = _bound_rows(
            f,
            signsearch.SearchDomain.torus(d, 256 if d <= 2 else 64),
            [("theorem1", torus.bound_theorem1(f)), ("kozma", torus.bound_kozma(f))],
            cfg.seed,
        )
        sign_rows.extend(rows)
        all_pass &= ok

    # sphere stress
    rng = np.random.default_rng(seeds[1])
    for _ in range(max(2, count // 3)):
        f = signsearch.random_sphere_fn(rng, 3, max_degree=10)
        rows, ok = _bound_rows(
            f,
            signsearch.SearchDomain.sphere(3, 96),
            [("theorem2", sphere.bound_theorem2(f))],
            cfg.seed,
        )
        sign_rows.extend(rows)
        all_pass &= ok

    # mix stress
    rng = np.random.default_rng(seeds[2])
    for _ in range(max(2, count // 3)):
        d = int(rng.integers(2, 4))
        mix = signsearch.random_eigen_mix(
            rng, d, max_levels=3, lam_lo=1.0, lam_hi=40.0 if d == 2 else 25.0
        )
        bound = eigenid.bound_theorem3(mix)
        L = 2.0 * bound
        res = 192 if d == 2 else 64
        dom = signsearch.SearchDomain.box(d, (0.0,) * d, (L,) * d, res)
        rows, ok = _bound_rows(mix, dom, [("theorem3", bound)], cfg.seed)
        sign_rows.extend(rows)
        all_pass &= ok

    # identity spot checks (n = 3)
    id_cfg = replace(
        cfg,
        command="verify-identity",
        seed=int(seeds[3].generate_state(1)[0] % 2**31),
        n=3,
        count=max(3, count // 4),
    )
    id_sections, id_pass, id_failures = _run_verify_identity(id_cfg)
    all_pass &= id_pass
    failures.extend(id_failures)

    # sharpness triples
    probe_rows = []
    for A, B in ((5, 0), (5, 1), (3, 2)):
        row = _probe_row(A, B, signsearch.sharpness_probe(A, B, trials=200, seed=cfg.seed))
        probe_rows.append(row)
        all_pass &= row[-1]

    sections = [
        ("signsearch", SIGN_HEADER, sign_rows),
        id_sections[0],
        ("sharpness", PROBE_HEADER, probe_rows),
    ]
    return sections, all_pass, failures


_HANDLERS = {
    "analyze-trig": _run_analyze_trig,
    "analyze-sphere": _run_analyze_sphere,
    "analyze-mix": _run_analyze_mix,
    "verify-identity": _run_verify_identity,
    "sharpness": _run_sharpness,
    "suite": _run_suite,
}


# ----------------------------------------------------------------------
# report writing
# ----------------------------------------------------------------------


def _native(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (list, tuple)):
        return [_native(x) for x in v]
    return v


def _write_reports(cfg: RunConfig, sections, passed: bool, failures):
    out = Path(cfg.output_dir)
    sections = [(name, header, _native(rows)) for name, header, rows in sections]
    lines = [f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    for name, header, rows in sections:
        lines.append(f"# section: {name}")
        lines.append(header)
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "config": {
            "command": cfg.command,
            "input": cfg.input_path,
            "seed": cfg.seed,
            "resolution": cfg.resolution,
            "tolerances": {} if cfg.tol_residual is None else {"residual": cfg.tol_residual},
        },
        "passed": bool(passed),
        "accuracy_failures": list(failures),
        "sections": {
            name: {"columns": header.split(","), "rows": rows}
            for name, header, rows in sections
        },
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2))


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="nodal-radius",
        description="Sign-change radius bounds: measurement and verification.",
    )
    parser.add_argument("--cmd", required=True, choices=COMMANDS)
    parser.add_argument("--input", default=None, help="JSON instance file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=256)
    parser.add_argument("--out", default=".", help="report output directory")
    parser.add_argument("--svg", action="store_true", help="emit SVG sign plots")
    parser.add_argument("--A", type=int, default=5, help="sharpness: lowest frequency")
    parser.add_argument("--B", type=int, default=1, help="sharpness: band width")
    parser.add_argument("--trials", type=int, default=300, help="sharpness: search budget")
    parser.add_argument("--n", type=int, default=3, help="verify-identity: dimension")
    parser.add_argument("--count", type=int, default=10, help="instances per suite stage")
    parser.add_argument("--tol.residual", dest="tol_residual", type=float, default=None,
                        help="verify-identity: residual tolerance")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        raise ParseFailure("invalid command line") from exc
    if ns.resolution < 16:
        raise ParseFailure(f"resolution must be >= 16, got {ns.resolution}")
    if not 3 <= ns.n <= 8:
        raise ParseFailure(f"n must lie in 3..8, got {ns.n}")
    if ns.A < 1:
        raise ParseFailure(f"A must be >= 1, got {ns.A}")
    if ns.B < 0:
        raise ParseFailure(f"B must be >= 0, got {ns.B}")
    if ns.trials < 1:
        raise ParseFailure(f"trials must be >= 1, got {ns.trials}")
    if ns.count < 1:
        raise ParseFailure(f"count must be >= 1, got {ns.count}")
    if ns.tol_residual is not None and not ns.tol_residual > 0.0:
        raise ParseFailure(f"tol.residual must be positive, got {ns.tol_residual}")
    return RunConfig(
        command=ns.cmd,
        input_path=ns.input,
        seed=ns.seed,
        tol_residual=ns.tol_residual,
        resolution=ns.resolution,
        output_dir=ns.out,
        emit_svg=ns.svg,
        A=ns.A,
        B=ns.B,
        trials=ns.trials,
        n=ns.n,
        count=ns.count,
    )


def run(cfg: RunConfig) -> int:
    """Execute a command and write its reports; returns the exit status."""
    handler = _HANDLERS[cfg.command]
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseFailure(f"--out cannot be used as the report directory: {exc}") from exc
    try:
        sections, passed, failures = handler(cfg)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    _write_reports(cfg, sections, passed, failures)
    if failures:
        for msg in failures:
            print(f"accuracy error: {msg}", file=sys.stderr)
        return 3
    return 0 if passed else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_args(argv)
        return run(cfg)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
