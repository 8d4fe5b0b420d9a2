"""feasikit benchmark: closed-loop ``feasikit run`` latency and throughput.

    python3 perfbench/run.py --workload circle-line --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one client, no threads: each operation is an
in-process ``feasikit.cli.main(["run", ..., "--no-times"])`` call with
stdout captured, issued only after the previous one returned.  Round ``r``
runs every cell of the workload once with ``--seed <seed>+r``.  Every
operation's CSV is validated; the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Times
are in reference time: wall time rescaled by a calibration kernel run
between operations (``harness.SpeedProbe``).  See README.md for why each
workload exists and what each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DIGITS = 120
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
MIN_OPS = 20  # the tail rule needs ten samples beyond the median


@dataclass(frozen=True)
class Workload:
    why: str
    cells: tuple  # argv fragments after "run"; one operation each per round
    batch_rounds: int  # rounds in the digest and in each traced batch
    tail_cap: float  # highest percentile op_ms.tail may report
    covers: tuple  # spans that must record calls when traced


def _cells(problem, methods, *extra):
    return tuple(("--problem", problem, "--method", m, *extra) for m in methods)


WORKLOADS = {
    "circle-line": Workload(
        why="closed-form projections: per-run fixed costs (argparse, set-up, "
        "sampling, driver, Point2 arithmetic, solve2x2, CSV) dominate",
        cells=_cells("circle-line", ("dr", "lt", "plt"), "--tol", "1e-30"),
        batch_rounds=50,
        tail_cap=90.0,
        covers=(
            "cli.main", "cli.build_problem", "analysis.sample_disk",
            "solvers.run", "solvers.trace_to_csv", "solvers.dr_step",
            "solvers.lt_step", "solvers.solve2x2", "cli.resolve_reference",
        ),
    ),
    "curve-graph": Workload(
        why="graph projections: 33 full-precision Newton starts per call are "
        "over 95% of each run; sin-shift adds transcendental evaluations",
        # three cells, so the pooled median falls inside the quad-LT
        # distribution; with sin-shift PLT added it sat on the edge between
        # two cells and moved 13% between seeds
        cells=_cells("graph:quad", ("lt", "plt")) + _cells("graph:sin-shift", ("lt",)),
        batch_rounds=4,
        tail_cap=75.0,
        covers=("sets.project_graph", "solvers.lt_step", "solvers.solve2x2"),
    ),
    "semidefinite": Workload(
        why="Jacobi eigensolves in every projection and the auto reference "
        "orbit; cone early return vs boundary reconstruction; n=3 and n=5",
        cells=(
            # Tolerances are ones every start reaches within the default 200
            # steps: below 1e-140, LT on psdb-s11 stalls from a few starts,
            # and DR on psdb-s1 needs up to 200 steps for 1e-30.  DR on
            # psdb-s11 is left out: its cost is bimodal (13 ms to 1.4 s).
            # README.md has the measured counts.
            _cells("psd-s1", ("dr", "lt", "plt"), "--dim", "3", "--tol", "1e-140")
            + _cells("psdb-s1", ("dr",), "--dim", "3", "--tol", "1e-20")
            + _cells("psdb-s1", ("lt", "plt"), "--dim", "3", "--tol", "1e-30")
            + _cells("psdb-s11", ("lt",), "--dim", "3", "--tol", "1e-30")
            + _cells("psdb-s11", ("plt",), "--dim", "3", "--tol", "1e-140")
            + _cells("psdb-s1", ("plt",), "--dim", "5", "--tol", "1e-30")
        ),
        batch_rounds=2,
        tail_cap=75.0,
        covers=(
            "sets.project_psd", "sets.project_psd_boundary",
            "numerics.eig_sym.n3", "numerics.eig_sym.n5",
            "cli.resolve_reference", "analysis.sample_sym",
        ),
    ),
}

SPANS = (
    "cli.main", "cli.build_problem", "analysis.sample_disk",
    "analysis.sample_sym", "solvers.run", "solvers.trace_to_csv",
    "solvers.dr_step", "solvers.lt_step", "solvers.solve2x2",
    "sets.project_graph", "sets.project_psd", "sets.project_psd_boundary",
    "numerics.eig_sym.n3", "numerics.eig_sym.n5", "cli.resolve_reference",
)
REFERENCE_DR = ("solvers.dr_step", "cli.resolve_reference")

# metric name -> unit; --trace 0 reports END_TO_END, --trace 1 PER_LAYER
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in SPANS
       for kind, unit in (("calls", "count/op"), ("self_ms", "ms/op"))},
    "cli.resolve_reference.step_share": "ratio",
    "solvers.lt_step.collinear_frac": "ratio",
    "sets.project_psd.passthrough_frac": "ratio",
    "solvers.run.iterations": "count/op",
    "untraced.ops_per_s": "1/s",
    "traced.ops_per_s": "1/s",
    "trace.slowdown": "ratio",
}


def round_ops(workload: Workload, seed: int):
    """(argv, expected header fields) for every cell at one seed."""
    ops = []
    for cell in workload.cells:
        argv = ("run", *cell, "--precision", str(DIGITS), "--seed", str(seed), "--no-times")
        ops.append((argv, {
            "problem": cell[1], "method": cell[3], "seed": seed, "precision": DIGITS,
        }))
    return ops


def load_feasikit():
    """Import feasikit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "feasikit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no feasikit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import feasikit.cli

    if Path(feasikit.cli.__file__).resolve().parent != (SRC / "feasikit").resolve():
        sys.exit(f"perfbench: imported {feasikit.cli.__file__}, not {SRC}")
    return feasikit.cli


def call_cli(main, argv, error_type):
    """One operation: (exit code or exception text, captured stdout,
    start, end)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    except error_type as exc:  # ProjectionError etc. escape cli.main today
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), start, time.perf_counter()


class OpLog:
    """Timings, failures and CSV texts of a sequence of operations.

    ``finish()`` turns wall times into reference times with the probe's
    samples around each operation (see ``harness.SpeedProbe``).
    """

    def __init__(self, error_type, probe: harness.SpeedProbe):
        self.error_type = error_type
        self.probe = probe
        self.intervals = []  # (start, end) of every operation
        self.solved = []  # whether each operation passed its check
        self.failures = []
        self.texts = []

    def run(self, main, argv, expect):
        self.probe.maybe_sample()
        code, text, start, end = call_cli(main, argv, self.error_type)
        reason = harness.check_output(code, text, expect)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")
        self.intervals.append((start, end))
        self.solved.append(reason is None)
        self.texts.append(text)

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def finish(self):
        """Per-operation scales, and wall and reference ms of the solved
        operations."""
        self.probe.sample()
        self.scales = self.probe.scales(self.intervals)
        ops = [((end - start) * 1e3, scale)
               for (start, end), scale, ok in zip(self.intervals, self.scales, self.solved) if ok]
        self.wall_ms = [ms for ms, _ in ops]
        self.latencies_ms = [ms * scale for ms, scale in ops]

    def ops_per_s(self) -> float:
        """Solved operations per second of reference busy time."""
        busy_s = sum(self.latencies_ms) / 1e3
        return len(self.latencies_ms) / busy_s if busy_s else 0.0


def setup(workload: Workload, seed: int):
    """The timed set-up: import, the first batch's trial list and one
    warm-up operation (validated).  Returns the time in reference
    seconds, measured against kernel samples taken right after it."""
    t0 = time.perf_counter()
    cli = load_feasikit()
    from feasikit.numerics import FeasikitError

    batch = [op for r in range(workload.batch_rounds) for op in round_ops(workload, seed + r)]
    code, text, _, end = call_cli(cli.main, batch[0][0], FeasikitError)
    reason = harness.check_output(code, text, batch[0][1])
    if reason is not None:
        sys.exit(f"perfbench: warm-up failed: {reason}")
    probe = harness.SpeedProbe()
    for _ in range(5):
        probe.sample()
    setup_s = (end - t0) * probe.scales([(end, end)])[0]
    return cli, FeasikitError, batch, probe, setup_s


def probe_setup_s(workload_name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so imports are not cached."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_batches(log: OpLog, main, batch, seconds: float, after_op=None):
    """Repeat ``batch`` until ``seconds`` have passed (at least once).
    Returns one digest per repetition."""
    digests = []
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < seconds:
        for argv, expect in batch:
            log.run(main, argv, expect)
            if after_op is not None:
                after_op()
        digests.append(harness.digest(log.texts))
        del log.texts[:]
    return digests


def measure(args, workload: Workload):
    cli, error_type, batch, probe, setup_s = setup(workload, args.seed)
    samples = [setup_s] + [
        probe_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    log = OpLog(error_type, probe)
    start = time.perf_counter()
    rounds = 0
    while (rounds < workload.batch_rounds or log.attempted < MIN_OPS
           or time.perf_counter() - start < args.seconds):
        for argv, expect in round_ops(workload, args.seed + rounds):
            log.run(cli.main, argv, expect)
        rounds += 1
        if rounds == workload.batch_rounds:
            trace_digest = harness.digest(log.texts)
        if rounds >= workload.batch_rounds:
            del log.texts[:]
    elapsed = time.perf_counter() - start
    log.finish()

    lat = sorted(log.latencies_ms)
    wall = sorted(log.wall_ms)
    solved = len(lat)
    if solved < MIN_OPS:  # only when operations failed; correct is false then
        lat = wall = lat + [0.0] * (MIN_OPS - solved)
    level, tail, beyond = harness.tail_percentile(lat, workload.tail_cap)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": log.ops_per_s(),
        "op_ms.p50": harness.nearest_rank(lat, 50.0),
        "op_ms.tail": tail,
        "solved_frac": solved / log.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(samples)}: " + " ".join(f"{s:.4f}" for s in samples),
        "ops_per_s": f"wall {solved / elapsed:.4g} over {elapsed:.3f} s, {rounds} rounds",
        "op_ms.p50": f"wall {harness.nearest_rank(wall, 50.0):.4g}, n={solved}",
        "op_ms.tail": f"p{level:g}, {beyond} samples beyond, n={solved}, "
                      f"wall {harness.nearest_rank(wall, level):.4g}",
        "solved_frac": f"{solved}/{log.attempted}",
    }
    info = {"rounds": rounds, "trace_digest": trace_digest,
            "digest_ops": len(batch), "elapsed_s": elapsed,
            "speed_scale": statistics.median(log.scales),
            "op_wall_ms": [(e - s) * 1e3 for s, e in log.intervals],
            "op_scale": log.scales}
    return log.attempted, log.failures, metrics, notes, info, []


def measure_traced(args, workload: Workload):
    cli, error_type, batch, probe, _ = setup(workload, args.seed)
    problems = []
    plain = OpLog(error_type, probe)
    plain_digests = run_batches(plain, cli.main, batch, args.seconds / 2)

    tracer = harness.Tracer()
    stats = harness.SpanStats(ancestry=[REFERENCE_DR])
    op_self_s = []  # per operation: self seconds by span name
    kept = []  # spans of the first traced batch, dumped at exit

    def after_op():
        spans = tracer.drain()
        op_self_s.append(stats.add(spans))
        if len(kept) < len(batch):
            kept.append(spans)

    log = OpLog(error_type, probe)
    with harness.traced(tracer):
        main = tracer.wrap("cli.main", cli.main)
        traced_digests = run_batches(log, main, batch, args.seconds / 2, after_op)
    plain.finish()
    log.finish()

    if len(set(plain_digests + traced_digests)) != 1:
        problems.append("CSV output differs between repetitions of the same batch")
    for name in workload.covers:
        if stats.calls[name] == 0:
            problems.append(f"coverage: span {name} recorded no calls on {args.workload}")

    n = log.attempted
    self_ms = Counter()
    for own, scale in zip(op_self_s, log.scales):
        for name, seconds in own.items():
            self_ms[name] += seconds * 1e3 * scale
    counters = tracer.counters
    dr_steps = stats.calls["solvers.dr_step"]
    lt_steps = stats.calls["solvers.lt_step"]
    psd = stats.calls["sets.project_psd"]
    ref_dr = stats.under[REFERENCE_DR]
    metrics = {
        **{f"{name}.calls": stats.calls[name] / n for name in SPANS},
        **{f"{name}.self_ms": self_ms[name] / n for name in SPANS},
        # a bypassed layer reports 0 with base 0
        "cli.resolve_reference.step_share": ref_dr / dr_steps if dr_steps else 0.0,
        "solvers.lt_step.collinear_frac":
            counters["solvers.lt_step.collinear"] / lt_steps if lt_steps else 0.0,
        "sets.project_psd.passthrough_frac":
            counters["sets.project_psd.passthrough"] / psd if psd else 0.0,
        "solvers.run.iterations": counters["solvers.run.iterations"] / n,
        "untraced.ops_per_s": plain.ops_per_s(),
        "traced.ops_per_s": log.ops_per_s(),
        "trace.slowdown": plain.ops_per_s() / log.ops_per_s() if log.ops_per_s() else 0.0,
    }
    notes = {
        "cli.resolve_reference.step_share": f"{ref_dr}/{dr_steps} DR steps",
        "solvers.lt_step.collinear_frac": f"{counters['solvers.lt_step.collinear']}/{lt_steps} LT updates",
        "sets.project_psd.passthrough_frac": f"{counters['sets.project_psd.passthrough']}/{psd} calls",
        "untraced.ops_per_s": f"{len(plain_digests)} batches of {len(batch)} ops",
        "traced.ops_per_s": f"{len(traced_digests)} batches of {len(batch)} ops",
    }
    info = {"trace_digest": plain_digests[0], "digest_ops": len(batch),
            "speed_scale": statistics.median(plain.scales + log.scales), "traced_ops": n, "spans_dumped_ops": len(kept), "spans": kept}
    return (plain.attempted + log.attempted, plain.failures + log.failures,
            metrics, notes, info, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(workload, args.seed)[4]}))
        return 0

    measured, units = (measure_traced, PER_LAYER) if args.trace else (measure, END_TO_END)
    attempted, failures, values, notes, info, problems = measured(args, workload)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    env = harness.environment(ROOT, DIGITS, args.seed)

    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload: {args.workload} ({workload.why})")
    print(f"# trace_digest: {info['trace_digest']} (first {info['digest_ops']} ops)")
    print(f"# speed_scale: {info['speed_scale']:.4g} reference ms per wall ms (median)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    for problem in problems + failures[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if len(failures) > 10:
        print(f"perfbench: ... {len(failures) - 10} more failed operations", file=sys.stderr)

    result = {
        "correct": not (problems or failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps(
        {"env": env, "workload": args.workload, "result": result,
         "notes": notes, "problems": problems, "failures": failures, **info}))
    print(json.dumps(result))
    # failed operations are a result (correct: false); a broken check is not
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
