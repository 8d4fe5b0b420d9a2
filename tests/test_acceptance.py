"""Acceptance suite: one test per acceptance criterion, each checked at its
stated tolerance and reported as a pass/fail line (visible with pytest -s)."""

import math
import random
import time

import pytest

from feasikit.analysis import (
    InsufficientDataError,
    estimate_linear_rate,
    estimate_order,
    performance_profile,
)
from feasikit.cli import build_problem
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
from feasikit.solvers import DrOperator, StopRule, Termination, lt_step, run
from feasikit.theory import (
    ProbeGrid,
    get_curve,
    graph_operator,
    lt_closed_form,
    probe_denominator_limit,
    probe_one_minus_h,
    probe_ratio,
    probe_zeta_limit,
)

from test_numerics import sym_random


def report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert passed, detail


@pytest.fixture(scope="module")
def circle_line(ctx):
    return build_problem("circle-line", ctx, 3)


@pytest.fixture(scope="module")
def fifty_trials(ctx, circle_line):
    return circle_line.sample(50, 42, ctx)


def test_criterion_1_dr_linear_rate(ctx, circle_line, fifty_trials):
    start = time.perf_counter()
    rates = []
    for p0 in fifty_trials:
        trace = run(
            "dr", circle_line.operator, p0, StopRule(max_iter=200),
            circle_line.reference, ctx,
        )
        rates.append(estimate_linear_rate(trace.errors, ctx))
    elapsed = time.perf_counter() - start
    lo, hi = ctx.mpf("0.45"), ctx.mpf("0.55")
    in_band = all(lo <= r <= hi for r in rates)
    report(
        1,
        in_band and elapsed < 120,
        f"DR circle-line linear rate in [0.45, 0.55] for 50/50 trials "
        f"(min={float(min(rates)):.4f}, max={float(max(rates)):.4f}), "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_lt_quadratic_order(ctx, circle_line, fifty_trials):
    in_band = 0
    qs = []
    for p0 in fifty_trials:
        trace = run(
            "lt", circle_line.operator, p0, StopRule(max_iter=200),
            circle_line.reference, ctx, affine=circle_line.affine,
        )
        try:
            q = estimate_order(trace.errors, ctx).q
        except InsufficientDataError:
            continue
        qs.append(float(q))
        if ctx.mpf("1.8") <= q <= ctx.mpf("2.2"):
            in_band += 1
    report(
        2,
        in_band >= 45,
        f"LT circle-line order q in [1.8, 2.2] for {in_band}/50 trials (need >= 45); "
        f"median q = {sorted(qs)[len(qs) // 2]:.3f}",
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
                lt_step(t, y, ctx).result, lt_closed_form(y, t, curve, ctx), ctx
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


@pytest.fixture(scope="module")
def setting2_orders(ctx):
    problem = build_problem("psdb-s1", ctx, 3)
    points = problem.sample(20, 2026, ctx)
    stop = StopRule(max_iter=200)
    orders = {}
    for method in ("dr", "lt", "plt"):
        qs = []
        for p0 in points:
            trace = run(method, problem.operator, p0, stop, problem.reference, ctx,
                        affine=problem.affine)
            try:
                qs.append(estimate_order(trace.errors, ctx).q)
            except InsufficientDataError:
                qs.append(None)
        orders[method] = qs
    return orders


def test_criterion_6_setting2_orders(ctx, setting2_orders):
    def frac_in(method, lo, hi):
        qs = setting2_orders[method]
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
        f"LT {lt_good}/{n}, PLT q in [1.7,2.3] {plt_good}/{n} (need >= {need})",
    )


def test_criterion_7_finite_termination(ctx):
    # tolerance below the arithmetic floor so the stop cannot preempt the
    # finite-termination event (the orbit landing exactly on its fixed point)
    below_floor = f"1e-{ctx.decimal_digits + 20}"
    stop = StopRule(tol=below_floor, max_iter=200)
    counts = {}
    for pid, methods in (("psd-s1", ("dr", "lt")), ("psdb-s11", ("dr",))):
        problem = build_problem(pid, ctx, 3)
        points = problem.sample(20, 2026, ctx)
        for method in methods:
            hits = 0
            for p0 in points:
                trace = run(method, problem.operator, p0, stop, problem.reference,
                            ctx, affine=problem.affine)
                if trace.terminated_by is Termination.EXACT_ZERO:
                    hits += 1
            counts[(pid, method)] = hits
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


def test_criterion_8_benchmark_dominance(ctx, circle_line):
    points = circle_line.sample(200, 7, ctx)
    stop = StopRule(tol="1e-30", max_iter=200)
    costs = {"dr": [], "lt": []}
    for method in ("dr", "lt"):
        for p0 in points:
            trace = run(method, circle_line.operator, p0, stop,
                        circle_line.reference, ctx, affine=circle_line.affine)
            costs[method].append(float(trace.iterations) if trace.solved else math.inf)
    result = performance_profile(costs, metric="iterations")
    taus = sorted({t for s in costs for t in result.curves[s].breakpoints})
    dominated = all(
        result.curves["lt"].rho(t) >= result.curves["dr"].rho(t) for t in taus
    )
    report(
        8,
        dominated and not result.excluded,
        f"LT iteration-count profile dominates DR pointwise on 200 seeded "
        f"circle-line trials at every breakpoint ({len(taus)} breakpoints, "
        f"rho_lt(1)={result.curves['lt'].rho(1.0):.2f}, "
        f"rho_dr(1)={result.curves['dr'].rho(1.0):.2f})",
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
            rr = affine_plane.reflect(affine_plane.reflect(p, ctx), ctx)
        else:
            s = DiagOnes() if i % 3 == 1 else EntryOne()
            p = sym_random(3, rng, ctx)
            rr = s.reflect(s.reflect(p, ctx), ctx)
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
        scale = max(inner(rec.u1, rec.u1), inner(rec.u2, rec.u2), ctx.mp.one)
        if (
            abs(inner(rec.result - rec.v1, rec.v1 - rec.v0)) > bound * scale
            or abs(inner(rec.result - rec.v2, rec.v2 - rec.v1)) > bound * scale
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
