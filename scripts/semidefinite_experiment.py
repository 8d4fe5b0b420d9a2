#!/usr/bin/env python3
"""Semidefinite feasibility settings at dimension n:

  setting 1: PSD cone with diag(X) = 1      (psd-s1)
  setting 2: PSD boundary with diag(X) = 1  (psdb-s1)
  setting 3: PSD boundary with X_11 = 1     (psdb-s11)

Runs DR, LT and PLT through ``feasikit bench`` on shared seeded trials and
writes, per setting, <pid>_trials.csv (per-trial iterations, termination
kind and fitted order) next to the profiles <pid>_iters.csv and
<pid>_time.csv.  ``feasikit run`` from the first trial's start writes one
trace CSV per (setting, method), trace_<pid>_<method>.csv.
"""

import argparse
import pathlib
import sys

from feasikit import cli

SETTINGS = ("psd-s1", "psdb-s1", "psdb-s11")
METHODS = ("dr", "lt", "plt")


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
    for pid in SETTINGS:
        common = ["--problem", pid, "--precision", str(args.precision),
                  "--dim", str(args.dim), "--seed", str(args.seed),
                  "--max-iter", str(args.max_iter)]
        if args.tol is not None:
            common += ["--tol", args.tol]
        code = cli.main(["bench", "--methods", ",".join(METHODS),
                         "--trials", str(args.trials), "--out", str(outdir / pid)] + common)
        if code > cli.EXIT_FAILED:
            return code
        print(f"wrote {outdir / pid}_trials.csv, _iters.csv and _time.csv")
        for method in METHODS:
            path = outdir / f"trace_{pid}_{method}.csv"
            # exit 1 (unsolved) is expected: DR is linear on psdb-s1
            code = cli.main(["run", "--method", method, "--out", str(path)] + common)
            if code > cli.EXIT_FAILED:
                return code
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
