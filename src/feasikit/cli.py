"""Command-line front end: reproducible single runs, Dolan-More benchmarks
over seeded trial sets, and the closed-form limit probes.

All numeric output is written as decimal strings; identical configurations
(including seed and precision) give identical CSV content, except for the
wall-time columns (suppress them with --no-times for byte-identical
output).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import NamedTuple, Optional

from feasikit import analysis
from feasikit.numerics import FeasikitError, Point2, PrecisionContext
from feasikit.sets import (
    DiagOnes,
    EntryOne,
    HorizontalLine,
    PsdBoundary,
    PsdCone,
    UnitCircle,
)
from feasikit.solvers import (
    METHODS,
    DrOperator,
    StopRule,
    run,
    trace_to_csv,
)

PROBLEM_IDS = ("circle-line", "graph:<curve-id>", "psd-s1", "psdb-s1", "psdb-s11")
# probe id -> the probe function's name in ``theory``, which only graph
# problems and probes import
PROBES = {
    "zeta": "probe_zeta_limit",
    "denominator": "probe_denominator_limit",
    "one-minus-h": "probe_one_minus_h",
    "ratio": "probe_ratio",
}
# nonzero exit codes: unsolved run or failed probe, usage or input error,
# numerical failure (any FeasikitError)
EXIT_FAILED, EXIT_USAGE, EXIT_NUMERICAL = 1, 2, 3


class Problem(NamedTuple):
    """A catalog entry: operator order (PLT projects onto its first set),
    reference policy and trial distribution, which is the disk of
    ``radius`` about the reference for plane problems and random symmetric
    ``dim`` x ``dim`` matrices for matrix problems (``dim`` > 0)."""

    operator: DrOperator
    reference: Optional[object]  # known solution, or None for auto
    radius: object = None
    dim: int = 0

    def sample(self, n: int, seed: int, ctx: PrecisionContext):
        if self.dim:
            return analysis.sample_sym(self.dim, n, seed, ctx)
        return analysis.sample_disk(self.reference, self.radius, n, seed, ctx)


@functools.lru_cache(maxsize=16)
def build_problem(problem_id: str, ctx: PrecisionContext, dim: int = 3) -> Problem:
    """Resolve a problem id to its operator, reference policy and trial
    distribution, built once per id, precision and dim.  An invalid id or
    dim raises on every call: the cache keeps no exception."""
    if problem_id == "circle-line":
        # the line z = 1/2, the unit circle, their intersection
        # (sqrt(3)/2, 1/2) and the disk of radius 1/2 about it
        half = ctx.mpf("0.5")
        return Problem(DrOperator(first=HorizontalLine(height=half), second=UnitCircle()),
                       Point2(ctx.mp.sqrt(3) / 2, half), radius=half)
    if problem_id.startswith("graph:"):
        from feasikit import theory

        t = theory.graph_operator(theory.get_curve(problem_id.split(":", 1)[1], ctx), ctx)
        # local disk about the intersection at the origin
        return Problem(t, Point2(ctx.mp.zero, ctx.mp.zero), radius=ctx.mpf("0.05"))
    if problem_id in ("psd-s1", "psdb-s1", "psdb-s11"):
        if dim < 2:
            raise ValueError("matrix problems need --dim >= 2")
        first = DiagOnes() if problem_id.endswith("-s1") else EntryOne()
        second = PsdCone() if problem_id == "psd-s1" else PsdBoundary()
        return Problem(DrOperator(first, second), None, dim=dim)
    raise ValueError(f"unknown problem id: {problem_id!r} (known: {PROBLEM_IDS})")


def resolve_reference(problem: Problem):
    """The reference for ``run`` and its label: the known solution, or None,
    which makes ``run`` take its own orbit's limit (doubled budget)."""
    if problem.reference is not None:
        return problem.reference, "known-intersection"
    return None, "auto-fixed-point(same-method,doubled-budget)"


def _write(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _check_seed(seed: int):
    """Reject a negative seed: ``random.Random(-k)`` seeds as ``Random(k)``
    does, so it would repeat the trial points of k."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@functools.lru_cache(maxsize=16)
def _stop_rule(tol, max_iter: int, ctx: PrecisionContext) -> tuple:
    """The stop rule of ``--tol`` and ``--max-iter`` with its tolerance
    resolved against ctx, and that tolerance's header string, built once
    per value and precision.  ``--max-iter`` is checked before ``--tol``;
    an invalid value raises on every call: the cache keeps no exception."""
    resolved = StopRule(tol=tol, max_iter=max_iter).resolved_tol(ctx)
    return StopRule(tol=resolved, max_iter=max_iter), ctx.to_str(resolved)


def cmd_run(args) -> int:
    _check_seed(args.seed)
    ctx = PrecisionContext(decimal_digits=args.precision)
    problem = build_problem(args.problem, ctx, args.dim)
    stop, tol_text = _stop_rule(args.tol, args.max_iter, ctx)
    p0 = problem.sample(1, args.seed, ctx)[0]
    reference, ref_policy = resolve_reference(problem)
    trace = run(args.method, problem.operator, p0, stop, reference, ctx)
    metadata = [
        ("method", args.method),
        ("problem", args.problem),
        ("precision", args.precision),
        ("seed", args.seed),
        ("tol", tol_text),
        ("reference", ref_policy),
        ("terminated_by", trace.terminated_by.value),
    ]
    if problem.dim:
        metadata.insert(4, ("dim", args.dim))
    _write(trace_to_csv(trace, ctx, metadata, include_times=not args.no_times), args.out)
    if _reference_unconverged(trace, ctx):
        print(f"feasikit: warning: auto reference not converged (successive gap "
              f"{ctx.mp.nstr(trace.reference_gap, 3)} after {2 * stop.max_iter} steps)",
              file=sys.stderr)
    return 0 if trace.solved else EXIT_FAILED


def _reference_unconverged(trace, ctx) -> bool:
    """Whether the run's auto reference stopped above the arithmetic floor
    on successive iterates."""
    return trace.reference_gap is not None and trace.reference_gap > ctx.floor


def _bench_trial(args) -> tuple:
    """Worker: one (method, trial) cell.  Receives plain data and the trial
    point, which pickles with its bits and precision, and builds the
    precision context locally.  Returns (iterations, seconds, solved,
    reference_unconverged, terminated_by, q, c, residual, window_first,
    window_last, rate): q to window_last are
    ``estimate_order``'s fit and rate is ``estimate_linear_rate``'s, as
    decimal strings and ints, or empty strings where the trace is too short
    to fit."""
    problem_id, method, precision, tol, max_iter, dim, p0 = args
    ctx = PrecisionContext(decimal_digits=precision)
    problem = build_problem(problem_id, ctx, dim)
    stop, _ = _stop_rule(tol, max_iter, ctx)
    trace = run(method, problem.operator, p0, stop, problem.reference, ctx)
    try:
        est = analysis.estimate_order(trace.errors, ctx)
        fit = (ctx.to_str(est.q), ctx.to_str(est.c), ctx.to_str(est.residual), *est.window)
    except analysis.InsufficientDataError:
        fit = ("",) * 5
    try:
        rate = ctx.to_str(analysis.estimate_linear_rate(trace.errors, ctx))
    except analysis.InsufficientDataError:
        rate = ""
    return (trace.iterations, sum(trace.step_times), trace.solved,
            _reference_unconverged(trace, ctx), trace.terminated_by.value, *fit, rate)


def cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if len(methods) < 2:
        raise ValueError("bench needs at least two methods (--methods m1,m2)")
    if len(set(methods)) < len(methods):
        raise ValueError(f"duplicate method in --methods: {','.join(methods)}")
    if args.trials < 2:
        raise ValueError("bench needs at least two trials")
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    _check_seed(args.seed)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method: {m!r}")
    ctx = PrecisionContext(decimal_digits=args.precision)
    # checked before any trial runs, in run's order
    problem = build_problem(args.problem, ctx, args.dim)
    _, tol = _stop_rule(args.tol, args.max_iter, ctx)
    # one shared trial set; a point pickles as its raw tuples, so that the
    # serial and parallel paths both run the sampled points bit for bit
    points = problem.sample(args.trials, args.seed, ctx)
    cells = [
        (args.problem, m, args.precision, args.tol, args.max_iter, args.dim, p)
        for m in methods
        for p in points
    ]
    # a fork-started pool starts all its workers up front
    workers = min(args.jobs, len(cells))
    if workers > 1:
        # imported here: loading the pool machinery costs every other command
        from concurrent.futures import ProcessPoolExecutor

        from feasikit.helper import stay_serial

        # workers run each graph projection's Newton starts themselves
        with ProcessPoolExecutor(max_workers=workers, initializer=stay_serial) as pool:
            results = list(pool.map(_bench_trial, cells, chunksize=4))
    else:
        results = [_bench_trial(c) for c in cells]

    iter_costs = {m: [] for m in methods}
    time_costs = {m: [] for m in methods}
    unconverged = {m: 0 for m in methods}
    trial_rows = ["method,trial,iterations,terminated_by,q,c,residual,"
                  "window_first,window_last,rate"]
    for k, (cell, result) in enumerate(zip(cells, results)):
        m = cell[1]
        iters, seconds, solved, ref_unconverged, *termination_and_fit = result
        iter_costs[m].append(float(iters) if solved else math.inf)
        time_costs[m].append(seconds if solved else math.inf)
        unconverged[m] += ref_unconverged
        trial_rows.append(",".join(
            map(str, (m, k % args.trials, iters, *termination_and_fit))
        ))
    for m, count in unconverged.items():
        if count:
            print(f"feasikit: warning: {m}: auto reference not converged in "
                  f"{count} of {args.trials} trials (after {2 * args.max_iter} steps)",
                  file=sys.stderr)

    metadata = [
        ("problem", args.problem),
        ("methods", ",".join(methods)),
        ("trials", args.trials),
        ("precision", args.precision),
        ("seed", args.seed),
        ("tol", tol),
        ("solved_means", "terminated by tolerance or exact_zero within max_iter"),
    ]
    iters_csv = analysis.profile_to_csv(
        analysis.performance_profile(iter_costs),
        metadata + [("metric", "iterations")],
    )
    time_csv = analysis.profile_to_csv(
        analysis.performance_profile(time_costs),
        metadata + [("metric", "seconds")],
    )
    trials_csv = "\n".join([f"# {key}: {value}" for key, value in metadata]
                           + trial_rows) + "\n"
    outputs = {"iters": iters_csv, "time": time_csv, "trials": trials_csv}
    if args.out is None:
        sys.stdout.write("".join(outputs.values()))
    else:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        for suffix, text in outputs.items():
            _write(text, f"{base}_{suffix}.csv")
    return 0


def cmd_probe(args) -> int:
    from feasikit import theory

    ctx = PrecisionContext(decimal_digits=args.precision)
    curve = theory.get_curve(args.curve, ctx)
    grid = theory.ProbeGrid.default(
        ctx,
        n_radii=args.n_radii,
        n_angles=args.n_angles,
        log10_r_max=args.log10_r_max,
        log10_r_min=args.log10_r_min,
    )
    report = getattr(theory, PROBES[args.probe])(grid, curve, ctx)
    _write(report.to_csv(ctx), args.out)
    return 0 if report.passed else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    """Raises its errors, and its subparsers', as ``ValueError``: one line."""

    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="feasikit",
        description="Projection-method feasibility experiments and probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=120, help="working decimal digits")
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
    run_p.set_defaults(handler=cmd_run)
    common(run_p)

    bench_p = sub.add_parser("bench", help="seeded benchmark, profile CSVs")
    bench_p.add_argument("--problem", required=True)
    bench_p.add_argument("--methods", default="dr,lt",
                         help="comma-separated list, at least two")
    bench_p.add_argument("--trials", type=int, default=100)
    # the CPUs this process may run on, which taskset or a cpuset can narrow
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    bench_p.add_argument("--jobs", type=int, default=cpus)
    bench_p.set_defaults(handler=cmd_bench)
    common(bench_p)

    probe_p = sub.add_parser("probe", help="closed-form limit probes")
    probe_p.add_argument("probe", choices=PROBES)
    probe_p.add_argument("curve", help="curve id (linear:<a>, quad, cubic, sin-shift)")
    probe_p.add_argument("--n-radii", type=int, default=10)
    probe_p.add_argument("--n-angles", type=int, default=16)
    probe_p.add_argument("--log10-r-max", type=int, default=-1)
    probe_p.add_argument("--log10-r-min", type=int, default=-10)
    probe_p.add_argument("--precision", type=int, default=120)
    probe_p.add_argument("--out", default=None)
    probe_p.set_defaults(handler=cmd_probe)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # run and probe write --out, bench <base>_*.csv in --out's directory
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"output directory does not exist: {os.path.dirname(args.out)}")
        if args.out is not None and args.command != "bench" and os.path.isdir(args.out):
            raise ValueError(f"cannot write {args.out}: Is a directory")
        return args.handler(args)
    except ValueError as exc:
        print(f"feasikit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FeasikitError as exc:
        print(f"feasikit: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
