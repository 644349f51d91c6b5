"""Benchmark of the nodal_radius package: sign searches, quadrature and CLI runs.

Usage (from the root of a checkout that holds ``src/nodal_radius``):

    python3 perfbench/run.py --workload grid-search --seed 1 --seconds 30 --trace 0

The workload's round of operations is built from ``--seed`` and repeated
for about ``--seconds`` seconds (at least three rounds). Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` half the window runs
untraced and half with every layer wrapped, and the metrics are per-layer
figures per round plus the tracing overhead. See README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# fixed before numpy loads: one BLAS/OpenMP thread, one CLI worker thread
THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NODAL_RADIUS_THREADS": "1",
}
os.environ.update(THREADS)
# every thread of the process, the CLI's pool worker included, runs on the
# CPU the probe measures
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
# setup_s is the cold set-up time scaled to a machine on which Probe reads
# this many seconds, about what it reads on the machine of README.md
PROBE_REF_S = 0.18e-3

# workload -> (family, metric, unit); a family is the Op.kind of its ops. A
# "1/s" figure is ops per second of the family's time, an "s" figure the
# family's seconds per op.
FAMILIES = {
    "grid-search": (("torus", "torus_searches_per_s", "1/s"),
                    ("sphere", "sphere_searches_per_s", "1/s"),
                    ("box", "box_searches_per_s", "1/s")),
    "quadrature": (("coulomb", "coulomb_checks_per_s", "1/s"),
                   ("wave", "wave_fields_per_s", "1/s"),
                   ("kernel", "sphere_kernels_per_s", "1/s")),
    "cli-suite": (("suite", "suite_run_s", "s"), ("analyze", "analyze_runs_per_s", "1/s")),
}


class Probe:
    """A fixed computation, independent of the package, timed between ops.

    The machine's speed drifts by up to 1.8x over tens of seconds when other
    tenants load the host. Dividing each op's time by the probe time around
    it cancels that drift. The probe time is the geometric mean, over three
    kernels, of the best of three timings: an in-cache numpy cosine, a pure
    Python loop, and a 4 MB memory pass. It reads about 0.2 ms; one call
    takes about 2.5 ms.
    """

    def __init__(self):
        self.x = np.linspace(0.0, 1.0, 16384)
        self.big = np.random.default_rng(0).random(1 << 19)
        self.kernels = (
            lambda: np.cos(self.x).sum(),
            lambda: sum(i * i % 7 for i in range(3000)),
            lambda: self.big.sum() + self.big.max(),
        )

    def __call__(self) -> float:
        logs = 0.0
        for kernel in self.kernels:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            logs += math.log(best)
        return math.exp(logs / len(self.kernels))


class Rounds:
    """Per-op durations over repeated rounds of the same operations.

    Each op gets its wall time and its cost: wall time over the mean of the
    probes taken just before and just after it.
    """

    def __init__(self, ops, probe: Probe):
        self.ops = ops
        self.probe = probe
        self.durations = [[] for _ in ops]
        self.costs = [[] for _ in ops]
        self.probes = []
        self.rounds = 0
        self.failed = 0
        self.correct = True

    def run(self, seconds: float, min_rounds: int):
        start = time.perf_counter()
        last = 0.0
        while self.rounds < min_rounds or time.perf_counter() - start + last <= seconds:
            t_round = time.perf_counter()
            before = self.probe()
            for op, durations, costs in zip(self.ops, self.durations, self.costs):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    # no operation of a workload is expected to raise: the run
                    # goes on but is not correct, and the time to the exception
                    # is left out, so that failing fast cannot read as a speed-up
                    self.failed += 1
                    self.correct = False
                    print(f"perfbench: {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    before = self.probe()
                    self.probes.append(before)
                    continue
                elapsed = time.perf_counter() - t0
                after = self.probe()
                durations.append(elapsed)
                costs.append(2.0 * elapsed / (before + after))
                self.probes.append(after)
                before = after
                try:
                    op.check(out)
                except AssertionError as exc:
                    self.correct = False
                    print(f"perfbench: check failed: {exc}", file=sys.stderr)
            last = time.perf_counter() - t_round
            self.rounds += 1
        return self

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    @staticmethod
    def _best(per_op):
        """Each op's lowest figure over the rounds. Outside load only ever adds
        time, and the part the probes miss (a speed change in the middle of
        a multi-second op) is left out this way. An op that never succeeded
        has no figure: it reads as infinite, and the run is not correct."""
        return [min(v, default=math.inf) for v in per_op]

    def round_cost(self) -> float:
        return sum(self._best(self.costs))

    def geomean_cost(self) -> float:
        return math.exp(statistics.mean(math.log(c) for c in self._best(self.costs)))

    def family(self, kind: str):
        """(ops, seconds per round) of one family."""
        picked = [m for op, m in zip(self.ops, self._best(self.durations)) if op.kind == kind]
        return len(picked), sum(picked)


def end_to_end(setup_s: float, rounds: Rounds) -> dict:
    return {
        "round_cost": (rounds.round_cost(), "probe"),
        "op_cost_geomean": (rounds.geomean_cost(), "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def family_figures(workload: str, rounds: Rounds) -> dict:
    """Every family figure, in plain seconds; other workloads' families read 0."""
    out = {name: (0.0, unit) for fams in FAMILIES.values() for _, name, unit in fams}
    for kind, name, unit in FAMILIES[workload]:
        count, seconds = rounds.family(kind)
        out[name] = (count / seconds if unit == "1/s" else seconds / count, unit)
    out["probe_ms"] = (1e3 * statistics.median(rounds.probes), "ms")
    return out


def per_layer(tracer, n_rounds: int) -> dict:
    """Per-round layer figures from the traced rounds."""
    total, calls, self_time, counters = tracer.total, tracer.calls, tracer.self_time, tracer.counters

    def t(*names):
        return sum(total[n] for n in names) / n_rounds

    def c(*names):
        return sum(calls[n] for n in names) / n_rounds

    def k(*names):
        return sum(counters[n] for n in names) / n_rounds

    search = "signsearch.largest_signfree_ball"
    coulomb = "eigenid.coulomb_ball_integral"
    return {
        "signsearch.edt_s": (t("signsearch.distance_transform_edt"), "s"),
        "signsearch.edt_calls": (c("signsearch.distance_transform_edt"), "count"),
        "signsearch.edt_cells": (k("signsearch.distance_transform_edt.cells"), "count"),
        "signsearch.search_s": (t(search), "s"),
        "signsearch.search_self_s": (self_time[search] / n_rounds, "s"),
        "signsearch.searches": (c(search), "count"),
        "signsearch.grid_samples": (k(search + ".samples"), "count"),
        "signsearch.point_evals": (k("signsearch.point_evals"), "count"),
        "signsearch.probe_s": (t("signsearch.sharpness_probe"), "s"),
        "torus.eval_grid_s": (t("torus.TrigPoly.eval_grid"), "s"),
        "torus.eval_grid_cells": (k("torus.TrigPoly.eval_grid.work"), "count"),
        "torus.eval_many_s": (t("torus.TrigPoly.eval_many"), "s"),
        "torus.smooth_s": (t("torus.smooth_top_shell"), "s"),
        "eigenid.eval_many_s": (
            (self_time["eigenid.EigenMix.eval_many"] + total["eigenid.PlaneWaveEigen.eval_many"])
            / n_rounds, "s"),
        "eigenid.eval_points": (k("eigenid.PlaneWaveEigen.eval_many.work"), "count"),
        "eigenid.coulomb_s": (t(coulomb), "s"),
        "eigenid.coulomb_self_s": (self_time[coulomb] / n_rounds, "s"),
        "eigenid.coulomb_calls": (c(coulomb), "count"),
        "eigenid.qn_s": (t("eigenid.qn"), "s"),
        "eigenid.wave_s": (t("eigenid.kirchhoff_3d", "eigenid.poisson_2d"), "s"),
        "sphere.grid_s": (t("sphere.unit_sphere_grid"), "s"),
        "sphere.grid_calls": (c("sphere.unit_sphere_grid"), "count"),
        "sphere.grid_points": (k("sphere.unit_sphere_grid.points"), "count"),
        "sphere.eval_many_s": (t("sphere.SphereFn.eval_many"), "s"),
        "sphere.eval_points": (k("sphere.SphereFn.eval_many.work"), "count"),
        "sphere.funk_hecke_s": (t("sphere.funk_hecke_eigenvalue"), "s"),
        "sphere.annihilator_s": (t("sphere.annihilator_bump"), "s"),
        "specfun.quad_adaptive_s": (t("specfun.quad_adaptive"), "s"),
        "specfun.quad_adaptive_calls": (c("specfun.quad_adaptive"), "count"),
        "specfun.gegenbauer_s": (t("specfun.gegenbauer"), "s"),
        "specfun.gegenbauer_calls": (c("specfun.gegenbauer"), "count"),
        "specfun.bessel_j_calls": (c("specfun.bessel_j"), "count"),
        "specfun.gauss_legendre_calls": (c("specfun.gauss_legendre"), "count"),
        "cli.main_s": (t("cli.main"), "s"),
        "cli.self_s": (tracer.layer_self("cli") / n_rounds, "s"),
        "cli.report_bytes": (k("cli.report_bytes"), "bytes"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "nodal_radius" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'nodal_radius'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import nodal_radius
    from nodal_radius import cli, eigenid, signsearch, specfun, sphere, torus  # noqa: F401

    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer()
    probe = Probe()
    try:
        setup_probes = [probe()]
        warm, ops = WORKLOADS[args.workload](nodal_radius, args.seed, workdir, tracer.count)
        warm_rounds = Rounds(warm, probe).run(0.0, 1)
        setup_probes += warm_rounds.probes
        # the host's slow and fast phases last seconds, longer than a set-up,
        # so these probes read the speed it ran at and the phases cancel in
        # the median over runs; a single process's import time still varies
        setup_s = (time.perf_counter() - _START) * PROBE_REF_S / statistics.median(setup_probes)
        if args.trace:
            plain = Rounds(ops, probe).run(args.seconds / 2.0, MIN_ROUNDS)
            tracer.install(nodal_radius)
            try:
                traced = Rounds(ops, probe).run(args.seconds / 2.0, MIN_ROUNDS)
            finally:
                tracer.uninstall()
            measured = (plain, traced)
            metrics = per_layer(tracer, traced.rounds)
            metrics.update(family_figures(args.workload, plain))
            # in plain seconds at the untraced rounds' probe speed
            metrics["trace.overhead_s"] = (
                (traced.round_cost() - plain.round_cost()) * statistics.median(plain.probes), "s")
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "threads": THREADS,
                 "traced_rounds": traced.rounds, **tracer.dump()}))
        else:
            measured = (Rounds(ops, probe).run(args.seconds, MIN_ROUNDS),)
            metrics = end_to_end(setup_s, measured[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# perfbench {args.workload} seed={args.seed} ops/round={len(ops)} "
          f"rounds={[r.rounds for r in measured]} cpu={CPU} threads={json.dumps(THREADS)}")
    result = {
        "correct": warm_rounds.correct and all(r.correct for r in measured),
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
