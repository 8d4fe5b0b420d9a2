#!/usr/bin/env python3
"""Circle/line experiment: log-scale error traces for DR and LT from a
seeded start, plus Dolan-More performance profiles over a trial disk of
radius 0.5 about the intersection (sqrt(3)/2, 1/2).

Writes trace_<method>.csv, profiles_iters.csv, profiles_time.csv and
profiles_trials.csv (one row per trial) into --outdir (plot-ready CSV; no
plotting here).
"""

import argparse
import pathlib
import sys

from feasikit import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/circle_line")
    parser.add_argument("--precision", type=int, default=120)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--problem", "circle-line", "--precision", str(args.precision),
              "--seed", str(args.seed)]

    for method in ("dr", "lt"):
        path = outdir / f"trace_{method}.csv"
        # exit 1 (unsolved) is expected: DR is linear and stops at max_iter
        code = cli.main(["run", "--method", method, "--out", str(path)] + common)
        if code > cli.EXIT_FAILED:
            return code
        print(f"wrote {path}")

    # iteration-count and wall-time profiles; DR needs a reachable tolerance
    code = cli.main(["bench", "--methods", "dr,lt", "--tol", "1e-30",
                     "--trials", str(args.trials), "--jobs", str(args.jobs),
                     "--out", str(outdir / "profiles")] + common)
    if code == 0:
        print(f"wrote profiles_iters.csv, profiles_time.csv and profiles_trials.csv in {outdir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
