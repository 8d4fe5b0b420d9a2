import hashlib
import json
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import feasikit
from conftest import TWO_CPUS
from feasikit import cli
from feasikit.analysis import estimate_linear_rate, estimate_order
from feasikit.cli import build_problem, main
from feasikit.numerics import Point2, PrecisionContext, dist
from feasikit.sets import DiagOnes, EntryOne, HorizontalLine, ProjectionError, UnitCircle
from feasikit.solvers import StopRule, run


SRC = os.path.dirname(os.path.dirname(feasikit.__file__))


def without_time_profile(out):
    """``bench`` stdout less its wall-time profile, the second of its
    three blocks."""
    blocks = re.split(r"(?m)^(?=# problem: )", out)
    assert len(blocks) == 4 and blocks[0] == ""
    return blocks[1] + blocks[3]


def read(path):
    with open(path) as fh:
        return fh.read()


class TestRunCommand:
    def test_lt_on_two_lines_single_iteration(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "run", "--problem", "graph:linear:1", "--method", "lt",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = read(out).strip().splitlines()
        meta = {l.split(":", 1)[0][2:].strip(): l.split(":", 1)[1].strip()
                for l in lines if l.startswith("#")}
        assert meta["method"] == "lt"
        assert meta["problem"] == "graph:linear:1"
        assert meta["precision"] == "120"
        assert meta["reference"] == "known-intersection"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2  # initial point plus one LT step
        final_error = float(rows[-1].split(",")[1])
        assert final_error <= 1e-100

    def test_max_iter_exit_code(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "run", "--problem", "circle-line", "--method", "dr",
            "--max-iter", "5", "--out", str(out),
        ])
        assert code == 1
        assert "terminated_by: max_iter" in read(out)

    def test_byte_identical_without_times(self, tmp_path):
        args = [
            "run", "--problem", "circle-line", "--method", "lt",
            "--seed", "11", "--no-times",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_other_precision_between_runs_changes_nothing(self, tmp_path):
        # contexts of one precision share an mpmath context; a run at another
        # precision in between must leave it as it was
        for problem, method in (("circle-line", "lt"), ("psd-s1", "dr")):
            args = ["run", "--problem", problem, "--method", method, "--seed", "5",
                    "--no-times"]
            a, b = tmp_path / f"{problem}_a.csv", tmp_path / f"{problem}_b.csv"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--precision", "40", "--out", str(tmp_path / "low.csv")]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert read(a) == read(b)

    def test_run_leaves_mpmath_attributes_unchanged(self):
        # the raw kernels bring their own arithmetic; mpmath, which other code
        # in the process shares, keeps its own functions
        src = os.path.dirname(os.path.dirname(feasikit.__file__))
        code = (
            "import sys\n"
            "from mpmath import libmp\n"
            "from mpmath.libmp import libmpf\n"
            "def attrs():\n"
            "    return (libmpf.bitcount, libmp.bitcount, libmp.mpf_add, libmpf.mpf_add,\n"
            "            libmp.mpf_mul, libmpf.mpf_mul, libmpf.normalize, libmpf.normalize1)\n"
            "before = attrs()\n"
            "from feasikit.cli import main\n"
            "for problem in ('circle-line', 'graph:quad', 'psd-s1'):\n"
            "    main(['run', '--problem', problem, '--method', 'lt', '--max-iter', '3'])\n"
            "sys.exit(any(a is not b for a, b in zip(before, attrs())))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              stdout=subprocess.DEVNULL)
        assert done.returncode == 0

    def test_zero_max_iter_is_a_usage_error(self, capsys):
        # in run and bench, before a bad --tol, on every call: the cache
        # keeps no exception
        for command in (["run"], ["bench", "--trials", "2", "--jobs", "1"]):
            for tol in ([], ["--tol", "bogus"], ["--tol", "bogus"]):
                assert main([*command, "--problem", "circle-line", "--max-iter", "0", *tol]) == 2
                captured = capsys.readouterr()
                assert captured.err == "feasikit: max_iter must be >= 1\n"
                assert captured.out == ""

    def test_missing_out_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        code = main(["run", "--problem", "circle-line", "--max-iter", "3",
                     "--out", str(missing / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"feasikit: output directory does not exist: {missing}\n"
        assert captured.out == ""

    def test_out_directory_rejected_before_work(self, tmp_path, monkeypatch, capsys):
        # run and probe write --out itself, so a directory there is refused
        # before the problem or the curve is built
        def no_work(*args):
            raise AssertionError("built before the --out check")

        monkeypatch.setattr(cli, "build_problem", no_work)
        monkeypatch.setattr("feasikit.theory.get_curve", no_work)
        for argv in (["run", "--problem", "circle-line"], ["probe", "ratio", "quad"]):
            assert main([*argv, "--out", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"feasikit: cannot write {tmp_path}: Is a directory\n"
            assert captured.out == ""

    def test_write_error_after_the_run_is_one_line(self, tmp_path, capsys):
        # a dangling link passes the up-front checks; opening it fails
        out = tmp_path / "link.csv"
        out.symlink_to(tmp_path / "missing" / "x.csv")
        assert main(["run", "--problem", "circle-line", "--max-iter", "3",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"feasikit: cannot write {out}: No such file or directory\n"
        assert captured.out == ""

    def test_failed_write_is_one_line(self, tmp_path, capsys):
        # --out names an existing directory, so only the write itself fails
        code = main(["run", "--problem", "circle-line", "--max-iter", "3",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"feasikit: cannot write {tmp_path}: ")
        assert err.count("\n") == 1

    def test_unknown_problem_and_method(self, capsys):
        assert main(["run", "--problem", "torus"]) == 2
        assert "unknown problem" in capsys.readouterr().err
        # argparse's own errors are one line too, without its usage block
        for argv, message in (
            (["run", "--problem", "circle-line", "--method", "sgd"], "argument --method: "),
            (["run"], "the following arguments are required: --problem"),
            (["run", "--problem", "circle-line", "--max-iter", "abc"], "argument --max-iter: "),
            (["probe", "bogus", "quad"], "argument probe: "),
            (["frobnicate"], "argument command: "),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"feasikit: {message}")
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: feasikit run ")

    def test_non_finite_curve_rejected(self, capsys):
        for pid in ("graph:linear:inf", "graph:linear:nan"):
            assert main(["run", "--problem", pid, "--method", "lt"]) == 2
            err = capsys.readouterr().err
            assert "finite" in err
            assert len(err.strip().splitlines()) == 1

    def test_tangent_curve_rejected(self, ctx, capsys):
        # a slope at or below the floor, 1e-110 at 120 digits, is tangent
        for slope in ("0", "1e-200"):
            assert main(["run", "--problem", f"graph:linear:{slope}", "--method", "lt"]) == 2
            assert capsys.readouterr().err == (
                f"feasikit: curve must not be tangent to the x-axis: |f'(0)| = "
                f"{abs(ctx.mpf(slope))} is at most the floor 1.0e-110\n")
        curve = build_problem("graph:linear:1e-100", ctx).operator.second.curve
        assert curve.a == ctx.mpf("1e-100")

    def test_non_numeric_slope_rejected(self, capsys):
        assert main(["run", "--problem", "graph:linear:abc"]) == 2
        assert capsys.readouterr().err == (
            "feasikit: linear curve needs a numeric slope, got 'abc'\n")

    @pytest.mark.parametrize("tol, message", [
        ("0", "positive and finite"), ("-1", "positive and finite"),
        ("nan", "positive and finite"), ("inf", "positive and finite"),
        ("abc", "a number"),
    ])
    def test_bad_tol_rejected(self, tol, message, capsys):
        assert main(["run", "--problem", "circle-line", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"feasikit: tol must be {message}, got {tol!r}\n"
        assert captured.out == ""

    def test_bad_tol_rejected_on_every_call(self, capsys):
        # the resolved tolerance is cached per value and precision; an
        # invalid one is not, so it fails again
        for _ in range(2):
            assert main(["run", "--problem", "circle-line", "--tol", "abc"]) == 2
            assert capsys.readouterr().err == "feasikit: tol must be a number, got 'abc'\n"

    @pytest.mark.oracle
    def test_cached_stop_rule_equals_a_fresh_one(self):
        for digits in (40, 120):
            ctx = PrecisionContext(decimal_digits=digits)
            for tol in (None, "1e-30", "3.7e-55"):
                fresh = StopRule(tol=tol).resolved_tol(ctx)
                stop, text = cli._stop_rule(tol, 200, ctx)
                assert stop.tol._mpf_ == fresh._mpf_ and stop.tol.context is ctx.mp
                assert stop.resolved_tol(ctx)._mpf_ == fresh._mpf_ and stop.max_iter == 200
                assert text == ctx.to_str(fresh)
                assert cli._stop_rule(tol, 200, PrecisionContext(digits))[0] is stop
        # two precisions in one process keep their own
        assert cli._stop_rule("1e-30", 200, PrecisionContext(40))[1] != \
            cli._stop_rule("1e-30", 200, PrecisionContext(120))[1]

    def test_bench_trial_stops_as_run_does(self, monkeypatch):
        # each run, in ``run`` or in a bench trial, resolves its tolerance
        # to the bits of a fresh StopRule of the --tol string
        tols = []

        def spy(method, operator, p0, stop, reference, ctx):
            tols.append(stop.resolved_tol(ctx)._mpf_)
            return run(method, operator, p0, stop, reference, ctx)

        monkeypatch.setattr(cli, "run", spy)
        for digits in (40, 120):
            ctx = PrecisionContext(decimal_digits=digits)
            for tol in (None, "1e-30", "3.7e-55"):
                common = ["--problem", "circle-line", "--precision", str(digits),
                          "--max-iter", "3"] + ([] if tol is None else ["--tol", tol])
                del tols[:]
                assert main(["run", "--method", "lt", "--no-times", *common]) in (0, 1)
                assert main(["bench", "--trials", "2", "--jobs", "1", *common]) == 0
                assert len(tols) == 5
                assert set(tols) == {StopRule(tol=tol).resolved_tol(ctx)._mpf_}

    def test_negative_seed_is_a_usage_error(self, monkeypatch, capsys):
        # random.Random(-3) seeds as Random(3): it would repeat seed 3
        def no_sampling(*args):
            raise AssertionError("sampled before the seed check")

        monkeypatch.setattr("feasikit.analysis.sample_disk", no_sampling)
        assert main(["run", "--problem", "circle-line", "--method", "lt", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "feasikit: seed must be >= 0, got -3\n"
        assert captured.out == ""

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def fail(p, curve, ctx):
            raise ProjectionError("Newton failed from every start")

        monkeypatch.setattr("feasikit.sets.project_graph", fail)
        assert main(["run", "--problem", "graph:quad", "--method", "lt"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "feasikit: numerical failure: ProjectionError: Newton failed from every start\n"
        )
        assert captured.out == ""

    def test_failed_graph_projection_is_one_line(self, monkeypatch, capsys):
        # on the graph only at t = 0; elsewhere f(t) = 2^1000 swallows p.z,
        # and f'' = -(1 + f'^2) / f makes every Newton slope exactly zero
        from mpmath.libmp import fone, from_man_exp, fzero

        from feasikit.sets import AnalyticCurve

        big, bend = from_man_exp(1, 1000), from_man_exp(-1, -999)

        def flat_slope(ident, ctx):
            return AnalyticCurve.checked(
                lambda t: (fzero, fone, fzero) if t == fzero else (big, fone, bend), ctx, ident
            )

        monkeypatch.setattr("feasikit.theory.get_curve", flat_slope)
        assert main(["run", "--problem", "graph:flat", "--method", "lt", "--no-times"]) == 3
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "feasikit: numerical failure: ProjectionError: graph projection of ("
        )
        assert "Newton failed from all 33 starts on [" in err[0]
        assert captured.out == ""

    def test_unconverged_auto_reference_warns(self, capsys):
        # DR on psdb-s1 converges linearly, so 400 steps leave its reference
        # short of the floor; DR on psd-s1 lands exactly on its fixed point
        base = ["run", "--method", "dr", "--seed", "1", "--tol", "1e-20", "--no-times"]
        assert main(base + ["--problem", "psdb-s1"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("feasikit: warning: auto reference not converged")
        assert len(captured.err.strip().splitlines()) == 1
        assert "warning" not in captured.out
        assert main(base + ["--problem", "psd-s1"]) == 0
        assert capsys.readouterr().err == ""

    def test_stagnation_stop_in_the_catalog(self, capsys):
        # LT on psdb-s11 from seed 10 bottoms out near 1e-110, far above
        # tol = 1e-140, and stops when the stagnation window sees no new
        # error minimum: an unsolved run, with a converged reference
        assert main(["run", "--problem", "psdb-s11", "--method", "lt", "--tol", "1e-140",
                     "--seed", "10", "--no-times"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "# terminated_by: stagnation\n" in captured.out
        rows = captured.out.split("iter,error,step_seconds\n", 1)[1].splitlines()
        assert rows[-1].split(",", 1)[0] == "31"

    def test_matrix_problem_auto_reference(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "run", "--problem", "psd-s1", "--method", "plt", "--dim", "3",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        text = read(out)
        assert "# dim: 3" in text
        assert "auto-fixed-point" in text


def point_bits(point):
    """A point's raw tuples and precision; the worker side of
    ``test_trial_points_exact``."""
    if isinstance(point, Point2):
        return (point.x._mpf_, point.z._mpf_), point.mp.prec
    return tuple(tuple(v._mpf_ for v in row) for row in point.entries), point.mp.prec


TRIALS_HEADER = ("method,trial,iterations,terminated_by,q,c,residual,window_first,window_last,"
                 "rate")


def trials_table(text):
    """The rows of bench's trials table, the last block of its stdout or the
    whole of ``<base>_trials.csv``, as dicts keyed by column."""
    lines = text.splitlines()
    columns = TRIALS_HEADER.split(",")
    return [dict(zip(columns, line.split(",")))
            for line in lines[lines.index(TRIALS_HEADER) + 1:]]


# psdb-s1 at seed 2026: DR converges linearly and LT falls back to linear,
# so every trace is long enough to fit
PSDB_BENCH = ["bench", "--problem", "psdb-s1", "--methods", "dr,lt", "--trials", "2",
              "--seed", "2026", "--max-iter", "40", "--tol", "1e-20", "--jobs", "1"]


@pytest.fixture(scope="module")
def psdb_trials(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "psdb"
    assert main(PSDB_BENCH + ["--out", str(out)]) == 0
    return trials_table(read(str(out) + "_trials.csv"))


class TestBenchCommand:
    def test_smoke_profiles(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "bench", "--problem", "circle-line", "--methods", "dr,lt",
            "--trials", "4", "--tol", "1e-20", "--jobs", "1",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        for suffix in ("_iters.csv", "_time.csv"):
            lines = read(str(out) + suffix).strip().splitlines()
            header = [l for l in lines if l.startswith("tau,")][0]
            assert header == "tau,rho_dr,rho_lt"
            data = [l for l in lines if not l.startswith(("#", "tau"))]
            rhos = [tuple(map(float, l.split(",")[1:])) for l in data]
            for col in range(2):
                vals = [r[col] for r in rhos]
                assert all(0.0 <= v <= 1.0 for v in vals)
                assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_trials_inside_tol(self, capsys):
        # every trial starts within --tol of the reference, at cost 0
        assert main(["bench", "--problem", "circle-line", "--methods", "dr,lt",
                     "--trials", "2", "--tol", "1", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("tau,rho_dr,rho_lt\n1.0,1.0,1.0\n") == 2

    @pytest.mark.parametrize("problem", [["bogus"], ["psd-s1", "--dim", "1"]])
    def test_problem_checked_before_tol_as_in_run(self, problem, capsys):
        errors = []
        for command in (["run"], ["bench", "--trials", "2", "--jobs", "1"]):
            assert main([*command, "--problem", *problem, "--tol", "bogus"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].count("\n") == 1 and "tol" not in errors[0], errors[0]

    def test_single_method_rejected(self, capsys):
        code = main(["bench", "--problem", "circle-line", "--methods", "dr",
                     "--trials", "4"])
        assert code == 2
        assert "at least two methods" in capsys.readouterr().err

    def test_duplicate_methods_rejected_before_sampling(self, monkeypatch, capsys):
        def no_sampling(*args):
            raise AssertionError("sampled before the method checks")

        monkeypatch.setattr("feasikit.analysis.sample_disk", no_sampling)
        assert main(["bench", "--problem", "circle-line", "--methods", "dr,lt,dr",
                     "--trials", "4", "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "feasikit: duplicate method in --methods: dr,lt,dr\n"

    def test_negative_seed_rejected_before_sampling(self, monkeypatch, capsys):
        def no_sampling(*args):
            raise AssertionError("sampled before the seed check")

        monkeypatch.setattr("feasikit.analysis.sample_disk", no_sampling)
        assert main(["bench", "--problem", "circle-line", "--methods", "dr,lt",
                     "--trials", "4", "--jobs", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "feasikit: seed must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_sampling(self, jobs, monkeypatch, capsys):
        def no_sampling(*args):
            raise AssertionError("sampled before the jobs check")

        monkeypatch.setattr("feasikit.analysis.sample_disk", no_sampling)
        assert main(["bench", "--problem", "circle-line", "--methods", "dr,lt",
                     "--trials", "4", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"feasikit: jobs must be >= 1, got {jobs}\n"
        assert captured.out == ""

    def test_missing_out_directory_rejected_before_sampling(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_sampling(*args):
            raise AssertionError("sampled before the output directory check")

        monkeypatch.setattr("feasikit.analysis.sample_disk", no_sampling)
        missing = tmp_path / "missing"
        assert main(["bench", "--problem", "circle-line", "--trials", "4",
                     "--jobs", "1", "--out", str(missing / "b.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"feasikit: output directory does not exist: {missing}\n"

    def test_jobs_default_is_the_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU runs one worker, however many the
        # machine has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cli._build_parser.cache_clear()
        try:
            args = cli._build_parser().parse_args(["bench", "--problem", "circle-line"])
        finally:
            cli._build_parser.cache_clear()
        assert args.jobs == 1

    def test_workers_capped_at_cells(self, monkeypatch, capsys):
        class Recorder:
            """Stands in for the pool: records its size, maps in-process."""

            sizes = []

            def __init__(self, max_workers, initializer=None):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        base = ["bench", "--problem", "circle-line", "--methods", "dr,lt",
                "--trials", "2", "--tol", "1e-20"]
        assert main(base + ["--jobs", "64"]) == 0
        assert main(base + ["--jobs", "3"]) == 0
        assert main(base + ["--jobs", "1"]) == 0
        assert Recorder.sizes == [4, 3]  # 2 methods x 2 trials; --jobs 1 is serial

    def test_import_leaves_process_pool_unloaded(self):
        src = os.path.dirname(os.path.dirname(feasikit.__file__))
        code = "import sys, feasikit.cli; sys.exit('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_parallel_matches_serial(self, tmp_path):
        # psdb-s1 sends pickled matrices through the pool, as the acceptance
        # criteria run them
        for problem in (["circle-line"], ["psdb-s1", "--max-iter", "40"]):
            base = ["bench", "--problem", *problem, "--methods", "dr,lt", "--trials", "4",
                    "--tol", "1e-20", "--seed", "9"]
            a, b = tmp_path / f"serial_{problem[0]}", tmp_path / f"par_{problem[0]}"
            assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
            assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
            for suffix in ("_iters.csv", "_trials.csv"):
                assert read(str(a) + suffix) == read(str(b) + suffix)

    def test_pool_workers_start_no_helper(self, tmp_path, capsys):
        # a sitecustomize on the path logs the pid of every process that
        # calls os.fork; the pool's workers are forked by the bench process
        # (fork) or the fork server (forkserver), or not at all (spawn), and
        # a worker that forked a helper would log its own pid
        log = tmp_path / "forks.log"
        (tmp_path / "sitecustomize.py").write_text(
            "import os\n"
            "def _log():\n"
            f"    with open({str(log)!r}, 'a') as fh:\n"
            "        fh.write(f'{os.getpid()}\\n')\n"
            "os.register_at_fork(after_in_parent=_log)\n"
        )
        code = ("import multiprocessing, sys\n"
                "multiprocessing.set_start_method(sys.argv[1])\n"
                "from feasikit.cli import main\n"
                "sys.exit(main(sys.argv[2:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
        # graph projections and eigensolves are the two users of the helper
        for problem in (["graph:quad"], ["psdb-s1", "--dim", "3", "--tol", "1e-30"]):
            argv = ["bench", "--problem", *problem, "--methods", "lt,plt", "--trials", "4",
                    "--seed", "3"]
            assert main(argv + ["--jobs", "1"]) == 0
            serial = without_time_profile(capsys.readouterr().out)
            for method in ("fork", "forkserver", "spawn"):
                log.unlink(missing_ok=True)
                done = subprocess.run([sys.executable, "-c", code, method, *argv, "--jobs", "2"],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
                assert without_time_profile(done.stdout) == serial, (problem, method)
                forks = log.read_text().split() if log.exists() else []
                assert len(set(forks)) <= 1 and len(forks) <= 2, (problem, method, forks)
                assert forks if method != "spawn" else not forks, (problem, method)

    def test_trials_table_in_cell_order(self, psdb_trials):
        assert [(r["method"], r["trial"]) for r in psdb_trials] == [
            ("dr", "0"), ("dr", "1"), ("lt", "0"), ("lt", "1")
        ]

    def test_trials_fit_matches_direct_run(self, ctx, psdb_trials):
        problem = build_problem("psdb-s1", ctx, 3)
        points = problem.sample(2, 2026, ctx)
        stop = StopRule(tol="1e-20", max_iter=40)
        for row in psdb_trials:
            trace = run(row["method"], problem.operator, points[int(row["trial"])], stop,
                        problem.reference, ctx)
            est = estimate_order(trace.errors, ctx)
            assert row["q"] == ctx.to_str(est.q)
            assert row["c"] == ctx.to_str(est.c)
            assert row["residual"] == ctx.to_str(est.residual)
            assert (row["window_first"], row["window_last"]) == tuple(map(str, est.window))
            assert row["rate"] == ctx.to_str(estimate_linear_rate(trace.errors, ctx))
            assert row["iterations"] == str(trace.iterations)
            assert row["terminated_by"] == trace.terminated_by.value

    def test_trial_zero_matches_run(self, tmp_path, psdb_trials):
        # bench trial 0 and run --seed s start from the same point
        for row in psdb_trials[::2]:
            out = tmp_path / f"{row['method']}.csv"
            code = main(["run", "--problem", "psdb-s1", "--method", row["method"],
                         "--seed", "2026", "--max-iter", "40", "--tol", "1e-20",
                         "--out", str(out)])
            assert code == (1 if row["terminated_by"] == "max_iter" else 0)
            lines = read(out).splitlines()
            assert f"# terminated_by: {row['terminated_by']}" in lines
            data = [l for l in lines if not l.startswith("#")][1:]
            assert row["iterations"] == str(len(data) - 1)

    def test_short_trace_has_empty_fit(self, capsys):
        # DR on psd-s1 from trial 0 at seed 2026 lands on its fixed point
        # in one step: too few error pairs to fit an order
        assert main(["bench", "--problem", "psd-s1", "--methods", "dr,lt", "--trials", "2",
                     "--seed", "2026", "--jobs", "1"]) == 0
        rows = trials_table(capsys.readouterr().out)
        assert rows[0] == {
            "method": "dr", "trial": "0", "iterations": "1", "terminated_by": "exact_zero",
            "q": "", "c": "", "residual": "", "window_first": "", "window_last": "",
            "rate": "",
        }

    def test_trial_points_exact(self, ctx):
        # the serial path runs the sampled points in this process, --jobs 2
        # runs pickled copies in worker processes; both must see their bits
        for pid in ("circle-line", "graph:quad", "psdb-s1"):
            points = build_problem(pid, ctx, 3).sample(4, 9, ctx)
            with ProcessPoolExecutor(max_workers=2) as pool:
                parallel = list(pool.map(point_bits, points))
            assert parallel == [point_bits(p) for p in points]

    def test_unconverged_auto_reference_warns(self, capsys):
        base = ["bench", "--methods", "dr,lt", "--trials", "2", "--max-iter", "40",
                "--tol", "1e-20", "--jobs", "1"]
        assert main(base + ["--problem", "psdb-s1"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"feasikit: warning: {m}: auto reference not converged in 2 of 2 "
            "trials (after 80 steps)"
            for m in ("dr", "lt")
        ]
        assert "warning" not in captured.out
        assert main(base + ["--problem", "psd-s1"]) == 0
        assert capsys.readouterr().err == ""


class TestProbeCommand:
    def test_ratio_quad_passes(self, tmp_path):
        out = tmp_path / "ratio.csv"
        code = main(["probe", "ratio", "quad", "--n-radii", "5", "--n-angles", "6",
                     "--log10-r-min", "-8", "--out", str(out)])
        assert code == 0
        text = read(out)
        assert "# verdict: pass" in text
        assert "# m_est:" in text

    def test_zeta_linear_identically_zero(self, tmp_path):
        out = tmp_path / "zeta.csv"
        code = main(["probe", "zeta", "linear:2", "--n-radii", "4", "--n-angles", "4",
                     "--out", str(out)])
        assert code == 0
        rows = [l for l in read(out).strip().splitlines()
                if not l.startswith("#") and not l.startswith("R,")]
        for row in rows:
            assert abs(float(row.split(",")[2])) <= 1e-80

    def test_denominator_quad_limit_one(self, tmp_path):
        out = tmp_path / "den.csv"
        assert main(["probe", "denominator", "quad", "--n-radii", "4",
                     "--n-angles", "4", "--out", str(out)]) == 0
        rows = [l.split(",") for l in read(out).strip().splitlines()
                if not l.startswith("#") and not l.startswith("R,")]
        targets = {float(r[3]) for r in rows}
        assert targets == {1.0}  # a and a^3 coincide for the quad curve

    @pytest.mark.parametrize("probe", ["zeta", "ratio"])
    def test_empty_grid_rejected(self, probe, capsys):
        assert main(["probe", probe, "quad", "--n-angles", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "feasikit: the probe grid needs at least one angle\n"
        assert captured.out == ""

    def test_missing_out_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["probe", "ratio", "quad", "--n-radii", "3", "--n-angles", "4",
                     "--out", str(missing / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"feasikit: output directory does not exist: {missing}\n"
        assert captured.out == ""

    def test_unknown_curve(self, capsys):
        assert main(["probe", "zeta", "nonagon"]) == 2
        assert "unknown curve" in capsys.readouterr().err


class TestCatalog:
    def test_all_problems_build(self, ctx):
        for pid in ("circle-line", "graph:quad", "graph:linear:1", "psd-s1",
                    "psdb-s1", "psdb-s11"):
            problem = build_problem(pid, ctx, 3)
            # the set PLT projects onto
            assert isinstance(problem.operator.first, (HorizontalLine, DiagOnes, EntryOne))
            if not problem.dim:
                for p in problem.sample(20, 1, ctx):
                    assert dist(p, problem.reference, ctx) <= problem.radius

    @pytest.mark.oracle
    def test_circle_line_built_once_per_precision(self):
        # and every other id too: once per id, precision and --dim
        ids = ("circle-line", "graph:quad", "psd-s1", "psdb-s1", "psdb-s11")
        for digits in (40, 120):
            ctx = PrecisionContext(decimal_digits=digits)
            problem = build_problem("circle-line", ctx)
            assert build_problem("circle-line", PrecisionContext(digits)) is problem
            # what a fresh build gives
            half = ctx.mpf("0.5")
            assert problem.operator.first == HorizontalLine(height=half)
            assert isinstance(problem.operator.second, UnitCircle)
            assert problem.reference.raw == Point2(ctx.mp.sqrt(3) / 2, half).raw
            assert problem.radius._mpf_ == half._mpf_
            assert problem.reference.mp is problem.radius.context is ctx.mp
            for pid in ids:
                by_dim = [build_problem(pid, ctx, dim) for dim in (2, 3)]
                for dim, problem in zip((2, 3), by_dim):
                    assert build_problem(pid, PrecisionContext(digits), dim) is problem
                    assert problem.dim == (0 if pid in ids[:2] else dim)
                # two dims do not share one
                assert by_dim[0] is not by_dim[1]
        # two precisions in one process do not share one
        for pid in ids:
            assert build_problem(pid, PrecisionContext(40), 3) is not \
                build_problem(pid, PrecisionContext(120), 3)
        assert build_problem("circle-line", PrecisionContext(40)).reference.raw != \
            build_problem("circle-line", PrecisionContext(120)).reference.raw
        # an invalid id or dim raises on every call: the cache keeps no exception
        for pid, dim, message in (("nonagon", 3, "unknown problem id"),
                                  *((pid, 1, "--dim >= 2") for pid in ids[2:])):
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    build_problem(pid, PrecisionContext(40), dim)

    def test_every_problem_runs_every_method_quickly(self, ctx):
        start = time.perf_counter()
        stop = StopRule(max_iter=60)
        for pid in ("circle-line", "graph:quad", "psd-s1", "psdb-s1", "psdb-s11"):
            problem = build_problem(pid, ctx, 3)
            p0 = problem.sample(1, 1, ctx)[0]
            for method in ("dr", "lt", "plt"):
                trace = run(method, problem.operator, p0, stop, problem.reference, ctx)
                assert trace.iterations >= 0
        assert time.perf_counter() - start < 60


# (argv, sha256 of stdout) for TestGoldenOutput
GOLDEN_STDOUT = [
    (["run", "--problem", "circle-line", "--method", "lt", "--seed", "4",
      "--max-iter", "10", "--precision", "120", "--no-times"],
     "1655ca5dbe94f1a3c6d9c6b6fd9e34630c39fe898798e98f406bb2c7fa5ff56d"),
    (["run", "--problem", "graph:quad", "--method", "plt", "--seed", "4",
      "--max-iter", "4", "--precision", "120", "--no-times"],
     "c3e87384db0dbb612d35d80804fe564a513f8271da3f98e01364f5f60e57c13b"),
    (["run", "--problem", "psd-s1", "--method", "dr", "--seed", "4",
      "--max-iter", "10", "--precision", "120", "--no-times"],
     "481844a86313233182d7ce2e4046b629f11b892ef6f80bfd7920751abefaf46f"),
    (["probe", "ratio", "quad", "--n-radii", "3", "--n-angles", "4",
      "--precision", "120"],
     "eecdbc4b610747d7dd54373169e6b4ba07eb740b94d69b52f16994f25f4dd574"),
    # recorded before the arithmetic floor moved into PrecisionContext and
    # nu read f''(0) from the jet: nu, the floor in lt_step, solve2x2,
    # eig_sym and the auto reference
    (["probe", "zeta", "quad", "--n-radii", "3", "--n-angles", "4",
      "--precision", "120"],
     "fe7e63801c20ece0f5c001f5385539f914e347710ca912a87ae0926621dd84c7"),
    (["probe", "one-minus-h", "sin-shift", "--n-radii", "3", "--n-angles", "4",
      "--precision", "120"],
     "2c47588e35a07ba4e61bed4d6f1af640e53f949003b393993c9d2849a52ac914"),
    (["run", "--problem", "psdb-s11", "--method", "lt", "--seed", "4",
      "--max-iter", "40", "--tol", "1e-30", "--precision", "120", "--no-times"],
     "ce6003c0a4d74982f65b0a3608ce8c1e10ae4efbb064fa2e6de0f94ccb45f653"),
    # recorded before the graph projection's Newton loop and the curve
    # jets moved onto raw mpf tuples
    (["run", "--problem", "graph:sin-shift", "--method", "lt", "--seed", "4",
      "--precision", "120", "--no-times"],
     "d6b043a9df913bb558c061fc85479ed0b28393b4675804971590fe023eee4a7c"),
    (["run", "--problem", "graph:cubic", "--method", "plt", "--seed", "4",
      "--precision", "120", "--no-times"],
     "dace42f9b7df7b658e26b912c24ad1b673ee49fc8fe405824b59c983e16ddc76"),
    (["run", "--problem", "graph:linear:-2", "--method", "lt", "--seed", "4",
      "--precision", "120", "--no-times"],
     "d1a28255f3a071137dccf47055f4a05e504cf24a269ab309ee7cbdd9e874b27c"),
    # recorded before SymMatrix and the Jacobi spectrum held raw tuples:
    # the n=3 DR orbit and its 400-step auto reference, and an n=5 orbit
    (["run", "--problem", "psdb-s1", "--method", "dr", "--dim", "3", "--tol", "1e-20",
      "--seed", "4", "--no-times"],
     "1328f6caca8b01114bf6b13102062966b37a8daad9dbab849f50e4cfd598bdb4"),
    (["run", "--problem", "psdb-s1", "--method", "plt", "--dim", "5", "--tol", "1e-30",
      "--seed", "4", "--no-times"],
     "6bb1b5c09d68dec1b751e9953a905ee18edcff442b27761e1d8df0e2c3993ff6"),
    # recorded before the plane reflections and the DR midpoint took
    # closed forms: a circle-line DR orbit to 1e-30, its PLT run, and
    # the denominator probe
    (["run", "--problem", "circle-line", "--method", "dr", "--seed", "4", "--tol", "1e-30",
      "--precision", "120", "--no-times"],
     "4a0fc6dfdd01f71a8cbbcaa377be91d2e624436647602809d500bbe45d3f30a7"),
    (["run", "--problem", "circle-line", "--method", "plt", "--seed", "4", "--tol", "1e-30",
      "--precision", "120", "--no-times"],
     "f57a939300b30ac917c8bda367b5a7de197d8e4785393e397ba7adb18a80c0d1"),
    (["probe", "denominator", "quad", "--n-radii", "3", "--n-angles", "4",
      "--precision", "120"],
     "81f7c9ee3a43a092249f32bb69bd97dee844a3d49a53eaf01a8d47cf882c7d56"),
    # recorded before PLT took its projection from the operator's first
    # set: PLT on the two matrix pairs no other golden runs it on
    (["run", "--problem", "psdb-s11", "--method", "plt", "--dim", "3", "--tol", "1e-30",
      "--seed", "4", "--no-times"],
     "2cb7464f73cfd1afc9f3bc182ab01bcec8a3bf1c6ab6437072e3cb93a1c87d69"),
    (["run", "--problem", "psd-s1", "--method", "plt", "--dim", "3", "--tol", "1e-140",
      "--seed", "4", "--no-times"],
     "76e2ebdcb79f962aaeb5e5f3426b8729439eaf8ea4c768ab690b72531f5206c3"),
    # recorded before the graph projection ranked its roots on raw
    # tuples and its Newton step doubled and compared by exponent: three
    # graph runs at the default tol
    (["run", "--problem", "graph:quad", "--method", "lt", "--seed", "4",
      "--precision", "120", "--no-times"],
     "efc42cd852ac89618d8106afb30f9e5f405efef967560aeb67fcc7da0b3106b1"),
    (["run", "--problem", "graph:sin-shift", "--method", "plt", "--seed", "4",
      "--precision", "120", "--no-times"],
     "911dd1a3a6817b8171c163e7443a3c409cf5a1081a69e1d56c3e863c30520990"),
    (["run", "--problem", "graph:cubic", "--method", "lt", "--seed", "4",
      "--precision", "120", "--no-times"],
     "b8592714cada7530097734b384f0e091a4b07fd3228305c265e50ae89401abc8"),
]
GOLDEN_IDS = [
    "run-circle-line-lt", "run-graph-quad-plt", "run-psd-s1-dr", "probe-ratio-quad",
    "probe-zeta-quad", "probe-one-minus-h-sin-shift", "run-psdb-s11-lt",
    "run-graph-sin-shift-lt", "run-graph-cubic-plt", "run-graph-linear-neg2-lt",
    "run-psdb-s1-dr-n3", "run-psdb-s1-plt-n5", "run-circle-line-dr", "run-circle-line-plt",
    "probe-denominator-quad", "run-psdb-s11-plt", "run-psd-s1-plt", "run-graph-quad-lt",
    "run-graph-sin-shift-plt", "run-graph-cubic-lt",
]


class TestGoldenOutput:
    """sha256 of stdout, recorded before the catalog, the set ids and the
    probe dispatch were consolidated; any change to a reported byte fails."""

    @pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT, ids=GOLDEN_IDS)
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_import_graph(self):
        # in a fresh interpreter: importing the CLI and a plane run load
        # neither theory, the helper nor dataclasses (nor inspect, which it
        # imports) and fork nothing; a matrix run loads the helper module
        # and forks the helper where it may, for its eigensolves; a graph
        # run and a probe load theory too, and use that helper; no run
        # loads the process pool or pickle, and all four print the goldens
        golden = dict(zip(GOLDEN_IDS, GOLDEN_STDOUT))
        names = ("run-circle-line-lt", "run-psd-s1-dr", "run-graph-quad-plt",
                 "probe-ratio-quad")
        code = (
            "import contextlib, hashlib, io, json, os, sys\n"
            "forks = []\n"
            "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
            "def loaded():\n"
            "    return [m for m in ('dataclasses', 'inspect', 'feasikit.theory',\n"
            "                        'feasikit.helper', 'multiprocessing',\n"
            "                        'concurrent.futures', 'pickle')\n"
            "            if m in sys.modules]\n"
            "from feasikit.cli import main\n"
            "seen = [loaded()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(argv)\n"
            "    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
            "    seen.append([code, digest, loaded(), len(forks)])\n"
            "print(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        argvs = json.dumps([golden[name][0] for name in names])
        done = subprocess.run([sys.executable, "-c", code, argvs], env=env, timeout=120,
                              capture_output=True, text=True, check=True)
        helpers = int(TWO_CPUS)
        assert json.loads(done.stdout) == [
            [],
            [0, golden["run-circle-line-lt"][1], [], 0],
            [0, golden["run-psd-s1-dr"][1], ["feasikit.helper"], helpers],
            [0, golden["run-graph-quad-plt"][1], ["feasikit.theory", "feasikit.helper"], helpers],
            [0, golden["probe-ratio-quad"][1], ["feasikit.theory", "feasikit.helper"], helpers],
        ]

    @staticmethod
    def run_leaves_no_helper(name):
        # the helper holds the captured stdout and stderr pipes too, so the
        # run returns only once the helper is gone
        code = ("import sys\n"
                "from feasikit import cli, helper\n"
                "code = cli.main(sys.argv[1:])\n"
                "print(helper._helper.pid if helper._helper else 0)\n"
                "sys.exit(code)\n")
        argv = GOLDEN_STDOUT[GOLDEN_IDS.index(name)][0]
        done = subprocess.run([sys.executable, "-c", code, *argv],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60, check=True)
        pid = int(done.stdout.splitlines()[-1])
        assert bool(pid) == TWO_CPUS
        if pid:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_graph_run_leaves_no_helper(self):
        self.run_leaves_no_helper("run-graph-quad-lt")

    def test_matrix_run_leaves_no_helper(self):
        self.run_leaves_no_helper("run-psd-s1-dr")

    def test_bench_tables_digest(self, tmp_path):
        # recorded before Point2 held raw tuples, which changed the path the
        # sampled points take into the trial payloads; the time profile holds
        # wall times and is left out
        out = tmp_path / "bench"
        assert main(["bench", "--problem", "circle-line", "--methods", "dr,lt,plt",
                     "--trials", "4", "--jobs", "1", "--precision", "120", "--seed", "3",
                     "--out", str(out)]) == 0
        digests = {suffix: hashlib.sha256((tmp_path / f"bench_{suffix}.csv").read_bytes())
                   .hexdigest() for suffix in ("trials", "iters")}
        assert digests == {
            "trials": "0b2be6261481d16c90ad8070ced7411ac6ec0637b25b0468638ac8a640f71d24",
            "iters": "cc01533f6441130ed5f68d923c9e837e5224bf740241a5a033ed4eb31dcd0fc0",
        }

    def test_matrix_bench_tables_digest(self, tmp_path):
        # recorded before SymMatrix held raw tuples and bench sent the
        # sampled matrices to its trials as they are
        out = tmp_path / "bench"
        assert main(["bench", "--problem", "psdb-s1", "--dim", "3", "--methods", "dr,lt,plt",
                     "--trials", "4", "--jobs", "1", "--seed", "3", "--out", str(out)]) == 0
        digests = {suffix: hashlib.sha256((tmp_path / f"bench_{suffix}.csv").read_bytes())
                   .hexdigest() for suffix in ("trials", "iters")}
        assert digests == {
            "trials": "aa9f0c40ded733ba3e1cbcc52a6d4b524c726e425e91be6fa3a82fe27f88687e",
            "iters": "211457451564423cfcdb552aef35fcef80545cf8d09513a17a4e278cc8ae97a2",
        }
