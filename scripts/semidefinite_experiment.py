#!/usr/bin/env python3
"""Semidefinite feasibility settings at dimension n:

  setting 1: PSD cone with diag(X) = 1      (psd-s1)
  setting 2: PSD boundary with diag(X) = 1  (psdb-s1)
  setting 3: PSD boundary with X_11 = 1     (psdb-s11)

Runs DR, LT and PLT on shared seeded trials, writes one trace CSV per
(setting, method) for the first trial, and a JSON file of per-trial order
estimates and termination kinds.
"""

import argparse
import json
import pathlib

from feasikit.analysis import InsufficientDataError, estimate_order, order_record
from feasikit.cli import build_problem, resolve_reference
from feasikit.numerics import PrecisionContext
from feasikit.solvers import StopRule, run, trace_to_csv

SETTINGS = ("psd-s1", "psdb-s1", "psdb-s11")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/semidefinite")
    parser.add_argument("--precision", type=int, default=120)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--max-iter", type=int, default=200)
    # tolerance below the arithmetic floor makes finite termination visible
    parser.add_argument("--tol", default=None)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = PrecisionContext(decimal_digits=args.precision)
    stop = StopRule(tol=args.tol, max_iter=args.max_iter)

    records = []
    for pid in SETTINGS:
        problem = build_problem(pid, ctx, args.dim)
        points = problem.sample(args.trials, args.seed, ctx)
        reference, policy = resolve_reference(problem)
        for method in ("dr", "lt", "plt"):
            for k, p0 in enumerate(points):
                trace = run(method, problem.operator, p0, stop, reference, ctx,
                            affine=problem.affine)
                try:
                    rec = order_record(
                        estimate_order(trace.errors, ctx), method, pid, ctx
                    )
                except InsufficientDataError:
                    rec = {"method": method, "problem": pid, "q": None}
                rec.update(trial=k, terminated_by=trace.terminated_by.value,
                           iterations=trace.iterations)
                records.append(rec)
                if k == 0:
                    path = outdir / f"trace_{pid}_{method}.csv"
                    path.write_text(trace_to_csv(trace, ctx, [
                        ("method", method), ("problem", pid),
                        ("precision", args.precision), ("dim", args.dim),
                        ("seed", args.seed),
                        ("tol", ctx.to_str(stop.resolved_tol(ctx))),
                        ("reference", policy),
                    ]))
            done = [r for r in records if r["problem"] == pid and r["method"] == method]
            kinds = {r["terminated_by"] for r in done}
            print(f"{pid} {method}: {len(done)} trials, terminations {sorted(kinds)}")

    (outdir / "order_estimates.json").write_text(json.dumps(records, indent=2))
    print(f"wrote {outdir / 'order_estimates.json'}")


if __name__ == "__main__":
    main()
