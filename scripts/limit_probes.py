#!/usr/bin/env python3
"""Run every closed-form limit probe (zeta, denominator, one-minus-h,
ratio) on the reference curves and write one report CSV per (probe, curve).
Exits nonzero if any verdict fails."""

import argparse
import pathlib
import sys

from feasikit import cli

CURVES = ("quad", "cubic", "sin-shift", "linear:2")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/probes")
    parser.add_argument("--precision", type=int, default=120)
    parser.add_argument("--curves", default=",".join(CURVES))
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for curve in args.curves.split(","):
        for probe in cli.PROBES:
            name = f"{probe}_{curve.replace(':', '-')}.csv"
            code = cli.main(["probe", probe, curve, "--precision", str(args.precision),
                             "--out", str(outdir / name)])
            print(f"{probe:12s} {curve:10s} -> {'pass' if code == 0 else 'FAIL'}")
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
