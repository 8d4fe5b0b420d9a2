"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_harness.py -q
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
from feasikit import cli  # noqa: E402
from feasikit.numerics import PrecisionContext, SymMatrix  # noqa: E402
from feasikit.sets import DiagOnes, PsdCone  # noqa: E402
from feasikit.solvers import DrOperator  # noqa: E402


# ---------------------------------------------------------------------------
# tail rule


@pytest.mark.parametrize(
    "n, cap, level",
    [
        (20, 99.9, 50.0),  # exactly ten beyond the median
        (39, 99.9, 50.0),  # p75 would leave nine
        (40, 99.9, 75.0),
        (100, 99.9, 90.0),
        (109, 99.9, 90.0),  # p95 would leave five
        (1000, 99.9, 99.0),
        (1000, 95.0, 95.0),  # the cap pins the level
        (100000, 99.9, 99.9),
    ],
)
def test_tail_level_keeps_ten_samples_beyond(n, cap, level):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    got_level, value, beyond = harness.tail_percentile(values, cap)
    assert got_level == level
    assert beyond >= harness.TAIL_MIN_BEYOND
    assert beyond == sum(1 for v in values if v > value)
    assert value == harness.nearest_rank(sorted(values), level)


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile([1.0] * 19)


def test_speed_probe_scales_by_nearby_kernel_time():
    probe = harness.SpeedProbe(window_s=0.5)
    probe.samples = [(0.0, 1.0), (1.0, 2.0), (1.2, 4.0), (5.0, 0.5)]
    ref = harness.CAL_REF_MS
    assert probe.scales([(1.1, 1.3), (3.0, 3.1), (0.0, 0.0)]) == pytest.approx(
        [ref / 3.0, ref / 4.0, ref / 1.0]  # mean of two; last earlier; one
    )


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    stats = harness.SpanStats(ancestry=[("c", "a"), ("a", "b")])
    stats.add(spans)
    assert stats.calls == {"a": 1, "b": 2, "c": 1}
    assert stats.self_s == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert stats.under[("c", "a")] == 1
    assert stats.under[("a", "b")] == 0


def test_nested_lt_dr_projection_spans():
    """lt_step -> dr_step -> project_psd -> eig_sym through the real call
    sites.  With a clock that ticks once per read, every span's self time
    is 1 + its number of direct children, and self times add up to the
    root's duration."""
    ctx = PrecisionContext(decimal_digits=30)
    ticks = iter(range(10**6))
    tracer = harness.Tracer(clock=lambda: float(next(ticks)))
    p = SymMatrix.from_rows([[2, -3, 1], [-3, 1, 0], [1, 0, -1]])
    p = p * ctx.mpf(1)
    with harness.traced(tracer):
        from feasikit import solvers

        record = solvers.lt_step(DrOperator(DiagOnes(), PsdCone()), p, ctx)
    spans = tracer.drain()

    names = [s[0] for s in spans]
    assert names[0] == "solvers.lt_step"
    assert names.count("solvers.dr_step") == 2
    assert names.count("sets.project_psd") == 2
    assert names.count("numerics.eig_sym.n3") == 2
    chain = []
    i = names.index("numerics.eig_sym.n3")
    while i is not None:
        chain.append(spans[i][0])
        i = spans[i][3]
    assert chain == [
        "numerics.eig_sym.n3", "sets.project_psd", "solvers.dr_step", "solvers.lt_step",
    ]

    children = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            children[span[3]] += 1
    assert harness.self_times(spans) == [1.0 + k for k in children]
    stats = harness.SpanStats()
    stats.add(spans)
    assert sum(stats.self_s.values()) == spans[0][2] - spans[0][1]
    assert tracer.counters["solvers.lt_step.collinear"] == int(record.collinear)


def test_traced_restores_and_rejects_missing_attribute():
    from feasikit import sets

    original = sets.project_psd
    tracer = harness.Tracer()
    with pytest.raises(AttributeError):
        with harness.traced(tracer, patches=(
            ("feasikit.sets", "project_psd", "sets.project_psd"),
            ("feasikit.sets", "no_such_kernel", "sets.no_such_kernel"),
        )):
            pass
    assert sets.project_psd is original


# ---------------------------------------------------------------------------
# output validation


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def good():
    return run_cli(
        "run", "--problem", "circle-line", "--method", "lt", "--tol", "1e-30",
        "--seed", "4", "--no-times",
    )


EXPECT = {"problem": "circle-line", "method": "lt", "seed": 4}


def test_validator_accepts_real_output(good):
    assert harness.check_output(*good, EXPECT) is None


def test_validator_rejects_tampered_csv(good):
    code, text = good
    lines = text.rstrip("\n").split("\n")
    k, _, seconds = lines[-1].split(",")
    raised = "\n".join(lines[:-1] + [f"{k},1.0e-20,{seconds}"]) + "\n"
    assert "above tol" in harness.check_output(code, raised, EXPECT)
    timed = "\n".join(lines[:-1] + [f"{k},0.0,0.25"]) + "\n"
    assert "malformed row" in harness.check_output(code, timed, EXPECT)
    relabelled = text.replace("# terminated_by: tolerance", "# terminated_by: max_iter")
    assert "terminated_by" in harness.check_output(code, relabelled, EXPECT)
    assert "header seed" in harness.check_output(code, text, {**EXPECT, "seed": 5})
    assert "missing CSV header" in harness.check_output(code, "# tol: 1\n", None)


def test_validator_rejects_nonzero_exit(good):
    assert "exit code 2" in harness.check_output(2, good[1], EXPECT)
    code, text = run_cli(
        "run", "--problem", "circle-line", "--method", "dr", "--max-iter", "5",
        "--no-times",
    )
    assert code == 2
    assert harness.check_output(code, text) == "exit code 2"


def test_digest_depends_on_order():
    assert harness.digest(["a", "b"]) != harness.digest(["b", "a"])
    assert harness.digest(["ab"]) != harness.digest(["a", "b"])


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    assert harness.git_commit(tmp_path) == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
    assert harness.git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert harness.git_commit(tmp_path) == "def456"


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
    for workload in run.WORKLOADS.values():
        assert set(workload.covers) <= set(run.SPANS)
