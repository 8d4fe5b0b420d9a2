"""Acceptance suite: one test per acceptance criterion, each checked at its
stated tolerance and reported as a pass/fail line (visible with pytest -s)."""

import contextlib
import functools
import io
import math
import random
import re
import time
from typing import NamedTuple

import pytest

from feasikit.analysis import performance_profile
from feasikit.cli import main
from feasikit.numerics import Point2, dist, eig_sym
from feasikit.sets import (
    CurveGraph,
    DiagOnes,
    EntryOne,
    HorizontalLine,
    PsdBoundary,
    PsdCone,
    UnitCircle,
)
from feasikit.solvers import DrOperator, StopRule, dr_step, lt_step, run
from feasikit.theory import (
    ProbeGrid,
    get_curve,
    graph_operator,
    linear_rate,
    lt_closed_form,
    probe_denominator_limit,
    probe_one_minus_h,
    probe_ratio,
    probe_zeta_limit,
)

from test_cli import read, trials_table
from test_numerics import mpf_inner, mpf_norm, mpf_sub_points, sym_random
from test_sets import reflect


def report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert passed, detail


class BenchRun(NamedTuple):
    rows: list         # the trials table, as dicts keyed by column
    out: object        # the output base of <out>_iters.csv, _time.csv and _trials.csv
    seconds: float     # the call's wall time
    unconverged: dict  # method -> trials whose auto reference did not converge


@pytest.fixture(scope="module")
def bench(ctx, tmp_path_factory):
    """``bench(problem, methods, *options)``: ``feasikit bench`` at the
    suite's precision on two workers, run once per distinct argument list."""

    @functools.cache
    def run_once(problem, methods, *options):
        out = tmp_path_factory.mktemp("bench") / "bench"
        warnings = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(warnings):
            code = main(["bench", "--problem", problem, "--methods", methods, *options,
                         "--precision", str(ctx.decimal_digits), "--jobs", "2", "--out", str(out)])
        seconds = time.perf_counter() - start
        assert code == 0, warnings.getvalue()
        unconverged = {m: int(n) for m, n in re.findall(
            r"warning: (\w+): auto reference not converged in (\d+) of", warnings.getvalue())}
        return BenchRun(trials_table(read(f"{out}_trials.csv")), out, seconds, unconverged)

    return run_once


CIRCLE_LINE = ("circle-line", "dr,lt", "--trials", "50", "--seed", "42")
SETTING_2 = ("psdb-s1", "dr,lt,plt", "--trials", "20", "--seed", "2026")


def claims(ctx):
    """Criterion -> claims: (bench arguments, method, trials-table column,
    accepted values: a closed band of decimal strings or a set, need)."""
    # criterion 7: a tol below the arithmetic floor cannot preempt the orbit
    # landing exactly on its fixed point; psdb-s11's LT rows are unread
    finite = ("dr,lt", "--trials", "20", "--seed", "2026",
              "--tol", f"1e-{ctx.decimal_digits + 20}")
    return {
        1: [(CIRCLE_LINE, "dr", "rate", ("0.45", "0.55"), 50)],
        2: [(CIRCLE_LINE, "lt", "q", ("1.8", "2.2"), 45)],
        6: [(SETTING_2, "dr", "q", ("0.8", "1.2"), 14),
            (SETTING_2, "lt", "q", ("0.8", "1.2"), 14),
            (SETTING_2, "plt", "q", ("1.7", "2.3"), 14)],
        7: [(("psd-s1", *finite), "dr", "terminated_by", {"exact_zero"}, 14),
            (("psd-s1", *finite), "lt", "terminated_by", {"exact_zero"}, 14),
            (("psdb-s11", *finite), "dr", "terminated_by", {"exact_zero"}, 14)],
    }


def count_claims(rows, bench, ctx):
    """Whether every claim's count of accepted values meets its need, and a
    detail naming each claim's count, trials, accepted values and need, and
    the auto references that bench warned had not converged."""
    passed, details = True, []
    for args, method, column, accepted, need in rows:
        run = bench(*args)
        values = [r[column] for r in run.rows if r["method"] == method]
        if isinstance(accepted, set):
            count = sum(1 for v in values if v in accepted)
            shown = "=" + "|".join(sorted(accepted))
        else:
            lo, hi = map(ctx.mpf, accepted)
            count = sum(1 for v in values if v and lo <= ctx.mpf(v) <= hi)
            shown = f" in [{accepted[0]}, {accepted[1]}]"
        passed = passed and count >= need
        details.append(f"{args[0]} {method.upper()} {column}{shown} "
                       f"{count}/{len(values)} (need >= {need})")
        if run.unconverged.get(method):
            details[-1] += (f", auto reference not converged in "
                            f"{run.unconverged[method]}/{len(values)}")
    return passed, "; ".join(details)


def test_claim_counter_on_a_synthetic_table(ctx):
    table = BenchRun([{"method": m, "q": q, "terminated_by": t} for m, q, t in (
        ("lt", "1.8", "exact_zero"), ("lt", "2.2", "tolerance"), ("lt", "2.2001", "exact_zero"),
        ("lt", "", "max_iter"), ("dr", "2.0", "exact_zero"))], None, 0.0, {"lt": 3})
    band = (("p", "dr,lt"), "lt", "q", ("1.8", "2.2"), 2)
    exact = (("p", "dr,lt"), "dr", "terminated_by", {"exact_zero"}, 1)
    # both band edges count; a value outside, an empty cell and another
    # method's rows do not
    assert count_claims([band, exact], lambda *args: table, ctx) == (True, (
        "p LT q in [1.8, 2.2] 2/4 (need >= 2), auto reference not converged in 3/4; "
        "p DR terminated_by=exact_zero 1/1 (need >= 1)"))
    # one claim short of its need fails its criterion
    for short in ((*band[:4], 3), (*exact[:4], 2)):
        assert not count_claims([band, exact, short], lambda *args: table, ctx)[0]


def test_criterion_1_dr_linear_rate(ctx, bench):
    passed, detail = count_claims(claims(ctx)[1], bench, ctx)
    seconds = bench(*CIRCLE_LINE).seconds
    report(1, passed and seconds < 120, f"{detail}, runtime {seconds:.1f}s < 120s")


@pytest.mark.parametrize("ident", ("quad", "cubic", "sin-shift", "linear:2"))
def test_dr_rate_on_every_graph_curve(ctx, bench, ident):
    # DR's fitted rate on each graph curve is the local linear rate
    # 1/sqrt(1 + f'(0)^2); tol 1e-20 keeps quad (120-124 steps) under
    # max_iter
    run = bench(f"graph:{ident}", "dr,lt", "--trials", "4", "--seed", "5",
                "--tol", "1e-20", "--max-iter", "600")
    target = linear_rate(get_curve(ident, ctx), ctx)
    rates = [r["rate"] for r in run.rows if r["method"] == "dr"]
    assert len(rates) == 4 and "" not in rates, rates
    worst = max(abs(ctx.mpf(r) / target - 1) for r in rates)
    assert worst <= ctx.mpf("1e-10"), (ident, ctx.mp.nstr(worst, 3))


def test_criterion_2_lt_quadratic_order(ctx, bench):
    report(2, *count_claims(claims(ctx)[2], bench, ctx))


def test_criterion_3_closed_form_equivalence(ctx):
    rng = random.Random(4242)
    bound = ctx.pow10(-(ctx.decimal_digits - 30))
    worst = ctx.mpf(0)
    for ident in ("quad", "cubic"):
        curve = get_curve(ident, ctx)
        t = graph_operator(curve, ctx)
        for _ in range(200):
            r = ctx.mpf(10) ** ctx.mpf(rng.uniform(-6.0, -2.0))
            phi = 2 * ctx.mp.pi * ctx.mpf(rng.random())
            y = Point2(r * ctx.mp.cos(phi), r * ctx.mp.sin(phi))
            deviation = dist(
                lt_step(t, y, ctx).result, lt_closed_form(y, curve, ctx), ctx
            ) / max(mpf_norm(y, ctx), ctx.mp.one)
            if deviation > worst:
                worst = deviation
    report(
        3,
        worst <= bound,
        f"geometric vs closed-form LT on quad/cubic, 200 points each: "
        f"max deviation {ctx.mp.nstr(worst, 3)} <= 10^-{ctx.decimal_digits - 30}",
    )


def test_criterion_4_limit_probes(ctx):
    results = []
    for ident in ("quad", "cubic"):
        curve = get_curve(ident, ctx)
        grid = ProbeGrid.default(ctx)
        zeta = probe_zeta_limit(grid, curve, ctx)
        den = probe_denominator_limit(grid, curve, ctx)
        one_h = probe_one_minus_h(grid, curve, ctx)
        ratio = probe_ratio(grid, curve, ctx)
        results.append(
            (ident, zeta.passed, den.passed, one_h.passed,
             ratio.passed and ratio.m_est > 0, float(ratio.m_est))
        )
    ok = all(z and d and h and r for _, z, d, h, r, _ in results)
    detail = "; ".join(
        f"{ident}: zeta={z} denominator={d} one-minus-h={h} ratio={r} (M_est={m:.3g})"
        for ident, z, d, h, r, m in results
    )
    report(4, ok, detail)


def test_criterion_5_one_step_on_two_lines(ctx):
    rng = random.Random(99)
    bound = ctx.pow10(-(ctx.decimal_digits - 20))
    origin = Point2.of(ctx, 0, 0)
    solved = 0
    attempts = 0
    while solved < 100 and attempts < 400:
        attempts += 1
        a1 = rng.uniform(-5.0, 5.0)
        a2 = rng.uniform(-5.0, 5.0)
        if abs(a1 - a2) < 0.1 or abs(a1) < 0.05 or abs(a2) < 0.05:
            continue
        t = DrOperator(
            first=CurveGraph(get_curve(f"linear:{a1}", ctx)),
            second=CurveGraph(get_curve(f"linear:{a2}", ctx)),
        )
        p0 = Point2.of(ctx, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        trace = run("lt", t, p0, StopRule(max_iter=10), origin, ctx)
        if trace.iterations == 1 and trace.errors[-1] < bound:
            solved += 1
        else:
            break
    report(
        5,
        solved == 100,
        f"LT solved {solved}/100 random non-parallel line pairs in exactly "
        f"1 iteration with error < 10^-{ctx.decimal_digits - 20}",
    )


def test_criterion_6_setting2_orders(ctx, bench):
    report(6, *count_claims(claims(ctx)[6], bench, ctx))


def test_criterion_7_finite_termination(ctx, bench):
    report(7, *count_claims(claims(ctx)[7], bench, ctx))


def test_criterion_8_benchmark_dominance(ctx, bench):
    run = bench("circle-line", "dr,lt", "--trials", "200", "--seed", "7", "--tol", "1e-30")
    lines = read(f"{run.out}_iters.csv").splitlines()
    excluded = any(line.startswith("# excluded_problems") for line in lines)
    header = lines.index("tau,rho_dr,rho_lt")
    profile = {tau: (rho_dr, rho_lt) for tau, rho_dr, rho_lt in
               (map(float, line.split(",")) for line in lines[header + 1:])}
    dominated = all(rho_lt >= rho_dr for rho_dr, rho_lt in profile.values())
    rho_dr1, rho_lt1 = profile[1.0]
    report(
        8,
        dominated and not excluded,
        f"LT iteration-count profile dominates DR pointwise on 200 seeded "
        f"circle-line trials at every breakpoint ({len(profile)} breakpoints, "
        f"rho_lt(1)={rho_lt1:.2f}, rho_dr(1)={rho_dr1:.2f})",
    )


def test_criterion_9_property_suites(ctx):
    rng = random.Random(31415)
    failures = []

    # projection idempotence, 1000 randomized cases across all set variants
    curve = get_curve("quad", ctx)
    plane_sets = [HorizontalLine(ctx.mp.zero), HorizontalLine(height=ctx.mpf("0.5")),
                  UnitCircle(), CurveGraph(curve)]
    matrix_sets = [PsdCone(), PsdBoundary(), DiagOnes(), EntryOne()]
    tol = ctx.pow10(-(ctx.decimal_digits - 15))
    checked = 0
    for i in range(1000):
        if i % 2 == 0:
            s = plane_sets[(i // 2) % 4]
            p = Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
        else:
            s = matrix_sets[(i // 2) % 4]
            p = sym_random(3, rng, ctx)
        q = s.project(p, ctx)
        if dist(s.project(q, ctx), q, ctx) > tol * max(mpf_norm(q, ctx), ctx.mp.one):
            failures.append(f"idempotence {type(s).__name__}")
            break
        checked += 1

    # reflection involution on affine sets
    affine_plane = HorizontalLine(height=ctx.mpf("-0.3"))
    for i in range(1000):
        if i % 3 == 0:
            p = Point2.of(ctx, rng.uniform(-4, 4), rng.uniform(-4, 4))
            rr = reflect(affine_plane, reflect(affine_plane, p, ctx), ctx)
        else:
            s = DiagOnes() if i % 3 == 1 else EntryOne()
            p = sym_random(3, rng, ctx)
            rr = reflect(s, reflect(s, p, ctx), ctx)
        if dist(rr, p, ctx) > tol * max(mpf_norm(p, ctx), ctx.mp.one):
            failures.append("reflection involution")
            break

    # LT orthogonality residuals on the circle-line operator
    t = DrOperator(first=HorizontalLine(height=ctx.mpf("0.5")), second=UnitCircle())
    bound = ctx.pow10(-(ctx.decimal_digits - 15))
    for _ in range(1000):
        p = Point2.of(ctx, rng.uniform(0.2, 1.5), rng.uniform(0.05, 0.95))
        rec = lt_step(t, p, ctx)
        if rec.collinear:
            continue
        v1 = dr_step(t, p, ctx)
        v2 = dr_step(t, v1, ctx)
        u1, u2 = mpf_sub_points(v1, p), mpf_sub_points(v2, p)
        scale = max(mpf_inner(u1, u1), mpf_inner(u2, u2), ctx.mp.one)
        if (
            abs(mpf_inner(mpf_sub_points(rec.result, v1), u1)) > bound * scale
            or abs(mpf_inner(mpf_sub_points(rec.result, v2), mpf_sub_points(v2, v1)))
            > bound * scale
        ):
            failures.append("lt orthogonality")
            break

    # eigensolver residuals
    eig_tol = 10 * ctx.floor
    for _ in range(1000):
        n = rng.randint(2, 5)
        x = sym_random(n, rng, ctx)
        s = eig_sym(x, ctx)
        recon_err = dist(s.reconstruct(), x, ctx)
        ortho_err_sq = sum(
            (sum(s.basis[k][i] * s.basis[k][j] for k in range(n)) - (1 if i == j else 0)) ** 2
            for i in range(n)
            for j in range(n)
        )
        if (recon_err > eig_tol * max(mpf_norm(x, ctx), ctx.mp.one)
                or ctx.mp.sqrt(ortho_err_sq) > eig_tol):
            failures.append("eigensolver residuals")
            break

    # profile monotonicity on random cost tables
    for _ in range(1000):
        n = rng.randint(1, 12)
        costs = {
            s: [rng.uniform(1, 100) if rng.random() > 0.1 else math.inf for _ in range(n)]
            for s in ("a", "b")
        }
        try:
            result = performance_profile(costs)
        except ValueError:
            continue
        for s in ("a", "b"):
            curve_pts = [result.curves[s].rho(tau) for tau in result.curves[s].breakpoints]
            if not all(0 <= v <= 1 for v in curve_pts) or any(
                b < a for a, b in zip(curve_pts, curve_pts[1:])
            ):
                failures.append("profile monotonicity")
                break

    report(
        9,
        not failures,
        "1000-case randomized suites green: projection idempotence, affine "
        "reflection involution, LT orthogonality, eigensolver residuals, "
        "profile monotonicity" + (f" (failed: {failures})" if failures else ""),
    )
