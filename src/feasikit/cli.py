"""Command-line front end: reproducible single runs, Dolan-More benchmarks
over seeded trial sets, and the closed-form limit probes.

All numeric output is written as decimal strings; identical configurations
(including seed and precision) give identical CSV content, except for the
wall-time columns (suppress them with --no-times for byte-identical
output).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from feasikit import analysis, theory
from feasikit.numerics import FeasikitError, Point2, PrecisionContext, SymMatrix
from feasikit.sets import (
    CurveGraph,
    DiagOnes,
    EntryOne,
    FeasibilitySet,
    HorizontalLine,
    PsdBoundary,
    PsdCone,
    UnitCircle,
    XAxis,
)
from feasikit.solvers import (
    METHODS,
    DrOperator,
    StopRule,
    run,
    trace_to_csv,
)

PROBLEM_IDS = ("circle-line", "graph:<curve-id>", "psd-s1", "psdb-s1", "psdb-s11")
PROBE_IDS = ("zeta", "denominator", "one-minus-h", "ratio")
DEFAULT_PRECISION_ENV = "FEASIKIT_PRECISION"
# nonzero exit codes: unsolved run or failed probe, usage or input error,
# numerical failure (any FeasikitError)
EXIT_FAILED, EXIT_USAGE, EXIT_NUMERICAL = 1, 2, 3


@dataclass(frozen=True)
class RunConfig:
    problem: str
    method: str = "dr"
    methods: tuple = ("dr", "lt")
    precision: int = 120
    tol: Optional[str] = None
    max_iter: int = 200
    seed: int = 0
    trials: int = 100
    dim: int = 3
    jobs: int = 1
    out: Optional[str] = None
    include_times: bool = True


@dataclass(frozen=True)
class Problem:
    """A catalog entry: operator order, designated affine set, reference
    policy and the trial distribution."""

    problem_id: str
    kind: str  # "plane" | "matrix"
    operator: DrOperator
    affine: FeasibilitySet
    reference: Optional[object]  # known solution, or None for auto
    dim: int = 0

    def sample(self, n: int, seed: int, ctx: PrecisionContext):
        if self.kind == "matrix":
            return analysis.sample_sym(self.dim, n, seed, ctx).points
        if self.problem_id == "circle-line":
            center = self.reference
            return analysis.sample_disk(center, ctx.mpf("0.5"), n, seed, ctx).points
        # graph problems: local disk about the intersection at the origin
        return analysis.sample_disk(
            Point2(ctx.mp.zero, ctx.mp.zero), ctx.mpf("0.05"), n, seed, ctx
        ).points


def build_problem(problem_id: str, ctx: PrecisionContext, dim: int = 3) -> Problem:
    """Resolve a problem id to operators, affine set and reference policy."""
    if problem_id == "circle-line":
        line = HorizontalLine(height=ctx.mpf("0.5"))
        return Problem(
            problem_id=problem_id,
            kind="plane",
            operator=DrOperator(first=line, second=UnitCircle()),
            affine=line,
            reference=Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5")),
        )
    if problem_id.startswith("graph:"):
        curve = theory.get_curve(problem_id.split(":", 1)[1], ctx)
        axis = XAxis()
        return Problem(
            problem_id=problem_id,
            kind="plane",
            operator=DrOperator(first=axis, second=CurveGraph(curve)),
            affine=axis,
            reference=Point2(ctx.mp.zero, ctx.mp.zero),
        )
    if problem_id in ("psd-s1", "psdb-s1", "psdb-s11"):
        if dim < 2:
            raise ValueError("matrix problems need --dim >= 2")
        affine = DiagOnes() if problem_id.endswith("-s1") else EntryOne()
        nonlinear = PsdCone() if problem_id == "psd-s1" else PsdBoundary()
        return Problem(
            problem_id=problem_id,
            kind="matrix",
            operator=DrOperator(first=affine, second=nonlinear),
            affine=affine,
            reference=None,
            dim=dim,
        )
    raise ValueError(f"unknown problem id: {problem_id!r} (known: {PROBLEM_IDS})")


def resolve_reference(problem: Problem):
    """The reference for ``run`` and its label: the known solution, or None,
    which makes ``run`` take its own orbit's limit (doubled budget)."""
    if problem.reference is not None:
        return problem.reference, "known-intersection"
    return None, "auto-fixed-point(same-method,doubled-budget)"


def _make_context(precision: int) -> PrecisionContext:
    return PrecisionContext(decimal_digits=precision)


def _write(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_run(cfg: RunConfig) -> int:
    ctx = _make_context(cfg.precision)
    problem = build_problem(cfg.problem, ctx, cfg.dim)
    stop = StopRule(tol=cfg.tol, max_iter=cfg.max_iter)
    p0 = problem.sample(1, cfg.seed, ctx)[0]
    reference, ref_policy = resolve_reference(problem)
    trace = run(
        cfg.method, problem.operator, p0, stop, reference, ctx, affine=problem.affine
    )
    metadata = [
        ("method", cfg.method),
        ("problem", cfg.problem),
        ("precision", cfg.precision),
        ("seed", cfg.seed),
        ("tol", ctx.to_str(stop.resolved_tol(ctx))),
        ("reference", ref_policy),
        ("terminated_by", trace.terminated_by.value),
    ]
    if problem.kind == "matrix":
        metadata.insert(4, ("dim", cfg.dim))
    _write(trace_to_csv(trace, ctx, metadata, include_times=cfg.include_times), cfg.out)
    if _reference_unconverged(trace, ctx):
        print(f"feasikit: warning: auto reference not converged (successive gap "
              f"{ctx.mp.nstr(trace.reference_gap, 3)} after {2 * stop.max_iter} steps)",
              file=sys.stderr)
    return 0 if trace.solved else EXIT_FAILED


def _reference_unconverged(trace, ctx) -> bool:
    """Whether the run's auto reference stopped above the floor
    10^-(digits-10) on successive iterates."""
    floor = ctx.pow10(-(ctx.decimal_digits - 10))
    return trace.reference_gap is not None and trace.reference_gap > floor


def _point_payload(point) -> tuple:
    """The point as raw ``mpf._mpf_`` tuples: exact and picklable."""
    if isinstance(point, Point2):
        return ("point2", point.x._mpf_, point.z._mpf_)
    return ("sym", tuple(tuple(v._mpf_ for v in row) for row in point.entries))


def _point_from_payload(payload, ctx):
    make = ctx.mp.make_mpf
    if payload[0] == "point2":
        return Point2(make(payload[1]), make(payload[2]))
    return SymMatrix.from_rows([[make(v) for v in row] for row in payload[1]])


def _bench_trial(args) -> tuple:
    """Worker: one (method, trial) cell.  Receives only plain picklable
    data and rebuilds the precision context locally.  Returns (iterations,
    seconds, solved, reference_unconverged)."""
    problem_id, method, precision, tol, max_iter, dim, payload = args
    ctx = _make_context(precision)
    problem = build_problem(problem_id, ctx, dim)
    stop = StopRule(tol=tol, max_iter=max_iter)
    p0 = _point_from_payload(payload, ctx)
    trace = run(method, problem.operator, p0, stop, problem.reference, ctx,
                affine=problem.affine)
    return (trace.iterations, trace.total_seconds, trace.solved,
            _reference_unconverged(trace, ctx))


def cmd_bench(cfg: RunConfig) -> int:
    if len(cfg.methods) < 2:
        raise ValueError("bench needs at least two methods (--methods m1,m2)")
    if cfg.trials < 2:
        raise ValueError("bench needs at least two trials")
    for m in cfg.methods:
        if m not in METHODS:
            raise ValueError(f"unknown method: {m!r}")
    ctx = _make_context(cfg.precision)
    problem = build_problem(cfg.problem, ctx, cfg.dim)
    # one shared trial set, carried as exact mpf tuples so that the serial
    # and parallel paths both run the sampled points bit for bit
    payloads = [_point_payload(p) for p in problem.sample(cfg.trials, cfg.seed, ctx)]
    jobs = [
        (cfg.problem, m, cfg.precision, cfg.tol, cfg.max_iter, cfg.dim, payload)
        for m in cfg.methods
        for payload in payloads
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_bench_trial, jobs, chunksize=4))
    else:
        results = [_bench_trial(j) for j in jobs]

    iter_costs = {m: [] for m in cfg.methods}
    time_costs = {m: [] for m in cfg.methods}
    unconverged = {m: 0 for m in cfg.methods}
    for job, (iters, seconds, solved, ref_unconverged) in zip(jobs, results):
        m = job[1]
        iter_costs[m].append(float(iters) if solved else math.inf)
        time_costs[m].append(seconds if solved else math.inf)
        unconverged[m] += ref_unconverged
    for m, count in unconverged.items():
        if count:
            print(f"feasikit: warning: {m}: auto reference not converged in "
                  f"{count} of {cfg.trials} trials (after {2 * cfg.max_iter} steps)",
                  file=sys.stderr)

    stop = StopRule(tol=cfg.tol, max_iter=cfg.max_iter)
    metadata = [
        ("problem", cfg.problem),
        ("methods", ",".join(cfg.methods)),
        ("trials", cfg.trials),
        ("precision", cfg.precision),
        ("seed", cfg.seed),
        ("tol", ctx.to_str(stop.resolved_tol(ctx))),
        ("solved_means", "terminated by tolerance or exact_zero within max_iter"),
    ]
    iters_csv = analysis.profile_to_csv(
        analysis.performance_profile(iter_costs, metric="iterations"),
        metadata + [("metric", "iterations")],
    )
    time_csv = analysis.profile_to_csv(
        analysis.performance_profile(time_costs, metric="seconds"),
        metadata + [("metric", "seconds")],
    )
    if cfg.out is None:
        sys.stdout.write(iters_csv)
        sys.stdout.write(time_csv)
    else:
        base = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        _write(iters_csv, f"{base}_iters.csv")
        _write(time_csv, f"{base}_time.csv")
    return 0


def cmd_probe(
    probe_id: str,
    curve_id: str,
    precision: int,
    out: Optional[str] = None,
    n_radii: int = 10,
    n_angles: int = 16,
    log10_r_max: int = -1,
    log10_r_min: int = -10,
) -> int:
    ctx = _make_context(precision)
    curve = theory.get_curve(curve_id, ctx)
    grid = theory.ProbeGrid.default(
        ctx,
        n_radii=n_radii,
        n_angles=n_angles,
        log10_r_max=log10_r_max,
        log10_r_min=log10_r_min,
    )
    if probe_id == "zeta":
        report = theory.probe_zeta_limit(grid, curve, ctx)
        passed = report.passed
    elif probe_id == "denominator":
        report = theory.probe_denominator_limit(grid, curve, ctx)
        passed = report.passed
    elif probe_id == "one-minus-h":
        report = theory.probe_one_minus_h(grid, curve, ctx)
        passed = report.passed
    elif probe_id == "ratio":
        t = DrOperator(first=XAxis(), second=CurveGraph(curve))
        report = theory.probe_ratio(grid, t, curve, ctx)
        passed = report.verdict
    else:
        raise ValueError(f"unknown probe id: {probe_id!r} (known: {PROBE_IDS})")
    _write(report.to_csv(ctx), out)
    return 0 if passed else EXIT_FAILED


def _default_precision() -> int:
    raw = os.environ.get(DEFAULT_PRECISION_ENV, "120")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{DEFAULT_PRECISION_ENV} must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feasikit",
        description="Projection-method feasibility experiments and probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=_default_precision(),
                       help="working decimal digits (env FEASIKIT_PRECISION)")
        p.add_argument("--tol", default=None,
                       help="stop tolerance (default 10^-(precision-20))")
        p.add_argument("--max-iter", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dim", type=int, default=3,
                       help="matrix dimension for psd problems")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    run_p = sub.add_parser("run", help="single run, trace CSV")
    run_p.add_argument("--problem", required=True)
    run_p.add_argument("--method", default="dr", choices=METHODS)
    run_p.add_argument("--no-times", action="store_true",
                       help="zero the step_seconds column (byte-identical reruns)")
    common(run_p)

    bench_p = sub.add_parser("bench", help="seeded benchmark, profile CSVs")
    bench_p.add_argument("--problem", required=True)
    bench_p.add_argument("--methods", default="dr,lt",
                         help="comma-separated list, at least two")
    bench_p.add_argument("--trials", type=int, default=100)
    bench_p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(bench_p)

    probe_p = sub.add_parser("probe", help="closed-form limit probes")
    probe_p.add_argument("probe", choices=PROBE_IDS)
    probe_p.add_argument("curve", help="curve id (linear:<a>, quad, cubic, sin-shift)")
    probe_p.add_argument("--n-radii", type=int, default=10)
    probe_p.add_argument("--n-angles", type=int, default=16)
    probe_p.add_argument("--log10-r-max", type=int, default=-1)
    probe_p.add_argument("--log10-r-min", type=int, default=-10)
    probe_p.add_argument("--precision", type=int, default=_default_precision())
    probe_p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            cfg = RunConfig(
                problem=args.problem,
                method=args.method,
                precision=args.precision,
                tol=args.tol,
                max_iter=args.max_iter,
                seed=args.seed,
                dim=args.dim,
                out=args.out,
                include_times=not args.no_times,
            )
            return cmd_run(cfg)
        if args.command == "bench":
            cfg = RunConfig(
                problem=args.problem,
                methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
                precision=args.precision,
                tol=args.tol,
                max_iter=args.max_iter,
                seed=args.seed,
                trials=args.trials,
                dim=args.dim,
                jobs=args.jobs,
                out=args.out,
            )
            return cmd_bench(cfg)
        if args.command == "probe":
            return cmd_probe(
                args.probe,
                args.curve,
                precision=args.precision,
                out=args.out,
                n_radii=args.n_radii,
                n_angles=args.n_angles,
                log10_r_max=args.log10_r_max,
                log10_r_min=args.log10_r_min,
            )
    except ValueError as exc:
        print(f"feasikit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FeasikitError as exc:
        print(f"feasikit: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
