"""Acceptance suite: one test per acceptance criterion, each checked at its
stated tolerance and reported as a pass/fail line (visible with pytest -s)."""

import contextlib
import io
import math
import random
import re
import time

import pytest

from feasikit.analysis import performance_profile
from feasikit.cli import main
from feasikit.numerics import Point2, dist, eig_sym, inner, norm
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
from test_numerics import sym_random
from test_sets import reflect


def report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert passed, detail


def bench(ctx, out, problem, methods, *options):
    """``feasikit bench`` at the suite's precision on two workers, writing
    ``<out>_iters.csv``, ``<out>_time.csv`` and ``<out>_trials.csv``;
    returns the rows of the trials table."""
    assert main(["bench", "--problem", problem, "--methods", methods, *options,
                 "--precision", str(ctx.decimal_digits), "--jobs", "2",
                 "--out", str(out)]) == 0
    return trials_table(read(f"{out}_trials.csv"))


def column(rows, method, name, ctx):
    """One method's values of a trials-table column, None where empty."""
    return [ctx.mpf(r[name]) if r[name] else None for r in rows if r["method"] == method]


@pytest.fixture(scope="module")
def fifty_trials(ctx, tmp_path_factory):
    """DR and LT from the same 50 circle-line points, and the wall time of
    the bench call that ran them."""
    start = time.perf_counter()
    rows = bench(ctx, tmp_path_factory.mktemp("c1") / "circle_line", "circle-line",
                 "dr,lt", "--trials", "50", "--seed", "42")
    return rows, time.perf_counter() - start


def test_criterion_1_dr_linear_rate(ctx, fifty_trials):
    rows, elapsed = fifty_trials
    rates = column(rows, "dr", "rate", ctx)
    fitted = [r for r in rates if r is not None]
    lo, hi = ctx.mpf("0.45"), ctx.mpf("0.55")
    in_band = len(fitted) == 50 and all(lo <= r <= hi for r in fitted)
    spread = (f"min={float(min(fitted)):.4f}, max={float(max(fitted)):.4f}"
              if fitted else "no fitted rate")
    report(
        1,
        in_band and elapsed < 120,
        f"DR circle-line linear rate in [0.45, 0.55] for {len(fitted)}/50 trials "
        f"({spread}), runtime {elapsed:.1f}s < 120s",
    )


@pytest.mark.parametrize("ident", ("quad", "cubic", "sin-shift", "linear:2"))
def test_dr_rate_on_every_graph_curve(ctx, tmp_path, ident):
    # DR's fitted rate on each graph curve is the local linear rate
    # 1/sqrt(1 + f'(0)^2); tol 1e-20 keeps quad (120-124 steps) under
    # max_iter
    rows = bench(ctx, tmp_path / "rate", f"graph:{ident}", "dr,lt", "--trials", "4",
                 "--seed", "5", "--tol", "1e-20", "--max-iter", "600")
    target = linear_rate(get_curve(ident, ctx), ctx)
    rates = column(rows, "dr", "rate", ctx)
    assert len(rates) == 4 and None not in rates, rates
    worst = max(abs(r / target - 1) for r in rates)
    assert worst <= ctx.mpf("1e-10"), (ident, ctx.mp.nstr(worst, 3))


def test_criterion_2_lt_quadratic_order(ctx, fifty_trials):
    rows, _ = fifty_trials
    qs = [q for q in column(rows, "lt", "q", ctx) if q is not None]
    in_band = sum(1 for q in qs if ctx.mpf("1.8") <= q <= ctx.mpf("2.2"))
    report(
        2,
        in_band >= 45,
        f"LT circle-line order q in [1.8, 2.2] for {in_band}/50 trials (need >= 45); "
        f"median q = {float(sorted(qs)[len(qs) // 2]):.3f}",
    )


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
            ) / max(norm(y, ctx), ctx.mp.one)
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


def test_criterion_6_setting2_orders(ctx, tmp_path):
    warnings = io.StringIO()
    with contextlib.redirect_stderr(warnings):
        rows = bench(ctx, tmp_path / "setting2", "psdb-s1", "dr,lt,plt",
                     "--trials", "20", "--seed", "2026")
    # bench warns once per method whose auto reference did not converge in
    # some trials; the fits of those trials are against that reference
    unconverged = dict.fromkeys(("dr", "lt", "plt"), 0)
    for method, count in re.findall(r"warning: (\w+): auto reference not converged in (\d+) of",
                                    warnings.getvalue()):
        unconverged[method] = int(count)

    def frac_in(method, lo, hi):
        qs = column(rows, method, "q", ctx)
        good = sum(1 for q in qs if q is not None and ctx.mpf(lo) <= q <= ctx.mpf(hi))
        return good, len(qs)

    dr_good, n = frac_in("dr", "0.8", "1.2")
    lt_good, _ = frac_in("lt", "0.8", "1.2")
    plt_good, _ = frac_in("plt", "1.7", "2.3")
    need = int(0.7 * n)
    ok = dr_good >= need and lt_good >= need and plt_good >= need
    report(
        6,
        ok,
        f"Setting 2 (n=3, 20 trials): DR q in [0.8,1.2] {dr_good}/{n}, "
        f"LT {lt_good}/{n}, PLT q in [1.7,2.3] {plt_good}/{n} (need >= {need}); "
        f"auto reference not converged: DR {unconverged['dr']}/{n}, "
        f"LT {unconverged['lt']}/{n}, PLT {unconverged['plt']}/{n}",
    )


def test_criterion_7_finite_termination(ctx, tmp_path):
    # tolerance below the arithmetic floor so the stop cannot preempt the
    # finite-termination event (the orbit landing exactly on its fixed point);
    # bench needs two methods, so psdb-s11 also runs LT, whose rows are unread
    below_floor = f"1e-{ctx.decimal_digits + 20}"
    counts = {}
    for pid, methods in (("psd-s1", ("dr", "lt")), ("psdb-s11", ("dr",))):
        rows = bench(ctx, tmp_path / pid, pid, "dr,lt", "--trials", "20",
                     "--seed", "2026", "--tol", below_floor)
        for method in methods:
            counts[(pid, method)] = sum(
                1 for r in rows if r["method"] == method and r["terminated_by"] == "exact_zero"
            )
    ok = (
        counts[("psd-s1", "dr")] >= 14
        and counts[("psd-s1", "lt")] >= 14
        and counts[("psdb-s11", "dr")] >= 14
    )
    report(
        7,
        ok,
        f"finite termination (exact_zero, 20 trials, need >= 14): Setting 1 "
        f"DR {counts[('psd-s1', 'dr')]}/20, LT {counts[('psd-s1', 'lt')]}/20; "
        f"Setting 3 DR {counts[('psdb-s11', 'dr')]}/20",
    )


def test_criterion_8_benchmark_dominance(ctx, tmp_path):
    out = tmp_path / "dominance"
    bench(ctx, out, "circle-line", "dr,lt", "--trials", "200", "--seed", "7",
          "--tol", "1e-30")
    lines = read(f"{out}_iters.csv").splitlines()
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
        if dist(s.project(q, ctx), q, ctx) > tol * max(norm(q, ctx), ctx.mp.one):
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
        if dist(rr, p, ctx) > tol * max(norm(p, ctx), ctx.mp.one):
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
        u1, u2 = v1 - p, v2 - p
        scale = max(inner(u1, u1), inner(u2, u2), ctx.mp.one)
        if (
            abs(inner(rec.result - v1, u1)) > bound * scale
            or abs(inner(rec.result - v2, v2 - v1)) > bound * scale
        ):
            failures.append("lt orthogonality")
            break

    # eigensolver residuals
    eig_tol = 10 * ctx.floor
    for _ in range(1000):
        n = rng.randint(2, 5)
        x = sym_random(n, rng, ctx)
        s = eig_sym(x, ctx)
        recon_err = norm(s.reconstruct() - x, ctx)
        ortho_err_sq = sum(
            (sum(s.basis[k][i] * s.basis[k][j] for k in range(n)) - (1 if i == j else 0)) ** 2
            for i in range(n)
            for j in range(n)
        )
        if recon_err > eig_tol * max(norm(x, ctx), ctx.mp.one) or ctx.mp.sqrt(ortho_err_sq) > eig_tol:
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
