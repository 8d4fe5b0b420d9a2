"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads circle-line,semidefinite \\
        --seeds 1-10 --seconds 30 [--trace 1] [--out perfbench/results/BENCH_n.json]

Runs ``run.py`` once per (workload, seed), one after another, and prints
per metric the median, the quartiles and the quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``), plus the set of
``trace_digest`` values per seed.  ``--out`` writes the same summary with
the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {}
    env = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            env = json.loads(lines[0].removeprefix("# env: "))
            digest = next(l.split()[2] for l in lines if l.startswith("# trace_digest:"))
            runs.append((seed, result, digest))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = list(runs[0][1]["metrics"])
        stats = {
            name: {"unit": runs[0][1]["metrics"][name]["unit"],
                   **summarise([r["metrics"][name]["value"] for _, r, _ in runs])}
            for name in names
        }
        summary[workload] = {
            "seeds": [s for s, _, _ in runs],
            "all_correct": all(r["correct"] for _, r, _ in runs),
            "attempted": sum(r["attempted"] for _, r, _ in runs),
            "failed": sum(r["failed"] for _, r, _ in runs),
            "trace_digests": {str(s): d for s, _, d in runs},
            "metrics": stats,
        }
        print(f"== {workload}")
        for name, st in stats.items():
            print(f"  {name:40s} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} spread {st['spread']:.3f} {st['unit']}")
    if args.out:
        env.pop("argv", None)
        env.pop("seed", None)
        Path(args.out).write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "trace": args.trace,
             "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
