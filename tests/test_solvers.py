import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import fzero, mpf_le, mpf_lt

from feasikit import numerics, solvers
from feasikit.cli import build_problem
from feasikit.numerics import (
    Point2,
    PrecisionContext,
    SingularMatrixError,
    _abs_le,
    dist,
)
from feasikit.sets import (
    CurveGraph, DiagOnes, EntryOne, HorizontalLine, PsdBoundary, PsdCone, UnitCircle,
)
from feasikit.solvers import (
    DrOperator,
    StopRule,
    Termination,
    dr_step,
    lt_step,
    plt_step,
    run,
    trace_to_csv,
    _stop_levels,
)
from feasikit.theory import get_curve, graph_operator

from test_numerics import (
    DIGITS, differential_matrix, differential_point, mpf_entrywise, mpf_inner, mpf_norm,
    mpf_project_circle, mpf_solve2x2, mpf_sub_points, point_bits, raw, solve_mpf, sym_random,
)
from test_sets import (
    mpf_project_diag_ones, mpf_project_entry11, mpf_project_psd, mpf_project_psd_boundary,
    reflect, separate_curve, separate_project_graph,
)


@pytest.fixture(scope="module")
def two_lines(ctx):
    return graph_operator(get_curve("linear:1", ctx), ctx)


@pytest.fixture(scope="module")
def circle_line(ctx):
    line = HorizontalLine(height=ctx.mpf("0.5"))
    return DrOperator(first=line, second=UnitCircle())


class TestDrStep:
    def test_hand_composition(self, ctx, two_lines):
        got = dr_step(two_lines, Point2.of(ctx, 1, 0), ctx)
        assert dist(got, Point2.of(ctx, "0.5", "0.5"), ctx) <= ctx.pow10(-100)

    def test_fixed_point_of_two_lines(self, ctx, two_lines):
        origin = Point2.of(ctx, 0, 0)
        assert dist(dr_step(two_lines, origin, ctx), origin, ctx) <= ctx.pow10(-100)

    def test_circle_line_intersection_fixed(self, ctx, circle_line):
        p = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        assert dist(reflect(circle_line.first, p, ctx), p, ctx) <= ctx.pow10(-100)
        assert dist(reflect(circle_line.second, p, ctx), p, ctx) <= ctx.pow10(-100)
        assert dist(dr_step(circle_line, p, ctx), p, ctx) <= ctx.pow10(-100)

    @given(
        problem=st.sampled_from(("circle-line", "graph:quad")),
        kind=st.sampled_from(("random", "axis", "origin")),
        seed=st.integers(0, 2**32 - 1),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=60)
    def test_plane_matches_mpf(self, problem, kind, seed, digits):
        # the plane problems' DR step, against the same step written with
        # mpf reflections through the mpf projections
        ctx = PrecisionContext(decimal_digits=digits)
        t = build_problem(problem, ctx).operator
        if problem == "circle-line":
            def mpf_second(p):
                return mpf_project_circle(p, ctx)
        else:
            def mpf_second(p):
                return separate_project_graph(p, *separate_curve("quad", ctx), ctx)
        h = t.first.height
        p = differential_point(kind, seed, 0, ctx)

        def mpf_reflect(q, p):
            return Point2(q.x * 2 - p.x, q.z * 2 - p.z)

        first = mpf_reflect(Point2(p.x, h), p)
        reflected = mpf_reflect(mpf_second(first), first)
        half = ctx.mpf("0.5")
        want = Point2((p.x + reflected.x) * half, (p.z + reflected.z) * half)
        assert point_bits(dr_step(t, p, ctx)) == point_bits(want)


    @given(
        setting=st.sampled_from((
            (DiagOnes, mpf_project_diag_ones, PsdCone, mpf_project_psd),
            (DiagOnes, mpf_project_diag_ones, PsdBoundary, mpf_project_psd_boundary),
            (EntryOne, mpf_project_entry11, PsdBoundary, mpf_project_psd_boundary),
        )),
        n=st.sampled_from((3, 5, 2)),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=60)
    def test_matrix_matches_mpf(self, setting, n, seed, scale_exp, digits):
        # the three semidefinite settings' DR step, against the same step
        # written with mpf entries and the mpf projections
        ctx = PrecisionContext(decimal_digits=digits)
        first, mpf_first, second, mpf_second = setting
        x = differential_matrix("random", n, seed, scale_exp, ctx)

        def mpf_reflect(project, p):
            return mpf_entrywise(mpf_entrywise(project(p, ctx), 2, operator.mul), p, operator.sub)

        reflected = mpf_reflect(mpf_second, mpf_reflect(mpf_first, x))
        want = mpf_entrywise(mpf_entrywise(x, reflected, operator.add), ctx.mpf("0.5"),
                             operator.mul)
        got = dr_step(DrOperator(first(), second()), x, ctx)
        assert raw(got.entries) == raw(want.entries)


def dr_pair(t, p, ctx):
    """The two DR steps an LT update at p takes: ``v1 = T p``, ``v2 = T v1``."""
    v1 = dr_step(t, p, ctx)
    return v1, dr_step(t, v1, ctx)


def mpf_entries(v):
    """The entries of a Point2 or a SymMatrix as ``mpf`` values, in the
    order of ``v.raw``."""
    return (v.x, v.z) if isinstance(v, Point2) else [x for row in v.entries for x in row]


def mpf_lt_step(t, p, ctx):
    """``lt_step`` written with ``mpf`` operators after its two DR steps;
    its oracle.  Returns the raw result and the collinear flag."""
    v1, v2 = dr_pair(t, p, ctx)
    u1, u2 = mpf_sub_points(v1, p), mpf_sub_points(v2, p)
    nsq1, nsq2, g = mpf_inner(u1, u1), mpf_inner(u2, u2), mpf_inner(u1, u2)
    eta = nsq1 * nsq2 - g * g
    if eta <= ctx.floor * nsq1 * nsq2:
        return v1.raw, True
    try:
        mu1, mu2 = mpf_solve2x2(((nsq1, g), (g - nsq1, nsq2 - g)), (nsq1, nsq2 - g), ctx)
    except SingularMatrixError:
        return v1.raw, True
    entries = zip(*map(mpf_entries, (p, u1, u2)))
    return tuple((x + a * mu1 + b * mu2)._mpf_ for x, a, b in entries), False


class TestLtStep:
    def test_worked_example(self, ctx, two_lines):
        p = Point2.of(ctx, 1, 0)
        v1, v2 = dr_pair(two_lines, p, ctx)
        assert dist(v1, Point2.of(ctx, "0.5", "0.5"), ctx) <= ctx.pow10(-100)
        assert dist(v2, Point2.of(ctx, 0, "0.5"), ctx) <= ctx.pow10(-100)
        rec = lt_step(two_lines, p, ctx)
        assert not rec.collinear
        assert mpf_norm(rec.result, ctx) <= ctx.pow10(-100)

    def test_collinear_fallback_identity_operator(self, ctx):
        # T is the x-axis projection composed with itself through the half sum
        axis = HorizontalLine(ctx.mp.zero)
        t = DrOperator(first=axis, second=axis)
        p = Point2.of(ctx, "1.3", "-0.2")
        rec = lt_step(t, p, ctx)
        assert rec.collinear
        assert rec.result == dr_step(t, p, ctx)

    def test_one_step_on_any_slope(self, ctx):
        for a in ("0.5", "-3", "7"):
            t = graph_operator(get_curve(f"linear:{a}", ctx), ctx)
            rec = lt_step(t, Point2.of(ctx, "0.8", "0.6"), ctx)
            assert mpf_norm(rec.result, ctx) <= ctx.pow10(-(ctx.decimal_digits - 20))

    def test_orthogonality_conditions(self, ctx, circle_line):
        rng = random.Random(31)
        bound = ctx.pow10(-(ctx.decimal_digits - 15))
        for _ in range(50):
            p = Point2.of(ctx, rng.uniform(0.4, 1.3), rng.uniform(0.1, 0.9))
            rec = lt_step(circle_line, p, ctx)
            if rec.collinear:
                continue
            v1, v2 = dr_pair(circle_line, p, ctx)
            u1, u2 = mpf_sub_points(v1, p), mpf_sub_points(v2, p)
            scale = max(mpf_norm(u1, ctx) ** 2, mpf_norm(u2, ctx) ** 2, ctx.mpf(1))
            assert abs(mpf_inner(mpf_sub_points(rec.result, v1), u1)) <= bound * scale
            assert abs(mpf_inner(mpf_sub_points(rec.result, v2), mpf_sub_points(v2, v1))) <= (
                bound * scale)

    @pytest.mark.oracle
    @given(
        problem=st.sampled_from(("circle-line", "graph:quad", "graph:linear:1", "psd-s1",
                                 "psdb-s11", "axis-axis")),
        seed=st.integers(0, 2**32 - 1),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=60)
    def test_update_matches_mpf(self, problem, seed, digits):
        """The whole update, bit for bit against ``mpf_lt_step``; a
        collinear update returns the first DR step itself."""
        ctx = PrecisionContext(decimal_digits=digits)
        if problem == "axis-axis":  # T is the identity on the axis: collinear
            axis = HorizontalLine(ctx.mp.zero)
            t, p = DrOperator(first=axis, second=axis), differential_point("random", seed, 0, ctx)
        else:
            prob = build_problem(problem, ctx, dim=2 + seed % 2)
            t, p = prob.operator, prob.sample(1, seed, ctx)[0]
        rec = lt_step(t, p, ctx)
        assert (rec.result.raw, rec.collinear) == mpf_lt_step(t, p, ctx)
        if rec.collinear:
            assert rec.result == dr_step(t, p, ctx)

    def test_rounds_and_boxes_of_a_circle_line_step(self, ctx, monkeypatch):
        """A non-collinear circle-line update rounds 57 times: 22 in its two
        DR steps, 35 from the differences to the result (the collinearity
        test and the singularity test decided by magnitude, the product
        a00 * a11 rounded once).  It boxes no ``mpf``, and it reaches
        ``solve2x2`` through the ``solvers`` module attribute, which a
        profiler may wrap."""
        problem = build_problem("circle-line", ctx)
        points = problem.sample(20, 3, ctx)
        counts = {"round": 0, "solve2x2": 0}
        round_, solve = numerics._round, solvers.solve2x2

        def counting_round(*args):
            counts["round"] += 1
            return round_(*args)

        def counting_solve(*args):
            counts["solve2x2"] += 1
            return solve(*args)

        def no_boxing(*args):
            raise AssertionError("lt_step boxed an mpf")

        monkeypatch.setattr(numerics, "_round", counting_round)
        monkeypatch.setattr(solvers, "solve2x2", counting_solve)
        monkeypatch.setattr(ctx.mp, "make_mpf", no_boxing)
        for p in points:
            assert not lt_step(problem.operator, p, ctx).collinear
        assert counts == {"round": 57 * len(points), "solve2x2": len(points)}

    def test_mu_matches_adjugate_closed_form(self, ctx):
        # the orthogonality system versus the inverted-Gram closed form
        rng = random.Random(37)
        bound = ctx.pow10(-(ctx.decimal_digits - 15))
        for _ in range(1000):
            u1 = Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
            u2 = Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
            n1, n2 = mpf_inner(u1, u1), mpf_inner(u2, u2)
            g = mpf_inner(u1, u2)
            eta = n1 * n2 - g * g
            if eta <= ctx.mpf("1e-4") * n1 * n2 or n1 == 0 or n2 == 0:
                continue
            mu1, mu2 = solve_mpf(
                ((n1, g), (g - n1, n2 - g)), (n1, n2 - g), ctx
            )
            rhs1, rhs2 = n1, n2 - g + n1
            cf1 = (n2 * rhs1 - g * rhs2) / eta
            cf2 = (-g * rhs1 + n1 * rhs2) / eta
            scale = max(abs(mu1), abs(mu2), ctx.mpf(1))
            assert abs(mu1 - cf1) <= bound * scale
            assert abs(mu2 - cf2) <= bound * scale

    def test_two_random_lines_single_step(self, ctx):
        rng = random.Random(41)
        bound = ctx.pow10(-(ctx.decimal_digits - 20))
        for _ in range(25):
            a1 = rng.uniform(-5, 5)
            a2 = rng.uniform(-5, 5)
            if abs(a1 - a2) < 0.1 or abs(a1) < 0.05 or abs(a2) < 0.05:
                continue
            t = DrOperator(
                first=CurveGraph(get_curve(f"linear:{a1}", ctx)),
                second=CurveGraph(get_curve(f"linear:{a2}", ctx)),
            )
            p = Point2.of(ctx, rng.uniform(0.2, 2), rng.uniform(0.2, 2))
            rec = lt_step(t, p, ctx)
            assert mpf_norm(rec.result, ctx) <= bound


class TestPltStep:
    def test_identity_on_affine(self, ctx, circle_line):
        p = Point2.of(ctx, "0.7", "0.5")  # already on the line
        assert plt_step(circle_line, p, ctx) == lt_step(circle_line, p, ctx).result

    def test_compositional_oracle_matrix(self, ctx):
        t = DrOperator(first=DiagOnes(), second=PsdCone())
        rng = random.Random(43)
        for _ in range(5):
            p = sym_random(3, rng, ctx)
            via_plt = plt_step(t, p, ctx)
            projected = DiagOnes().project(p, ctx)
            assert via_plt == lt_step(t, projected, ctx).result

    def test_plane_composition(self, ctx, two_lines):
        p = Point2.of(ctx, 1, "0.7")
        got = plt_step(two_lines, p, ctx)
        assert mpf_norm(got, ctx) <= ctx.pow10(-100)


class TestFirmNonexpansiveness:
    def test_convex_pairs(self, ctx):
        rng = random.Random(47)
        slack = ctx.pow10(-95)
        t = DrOperator(
            first=HorizontalLine(height=ctx.mpf(0)),
            second=CurveGraph(get_curve("linear:2", ctx)),
        )
        for _ in range(25):
            p = Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
            tp, tq = dr_step(t, p, ctx), dr_step(t, q, ctx)
            residuals = mpf_sub_points(p, tp), mpf_sub_points(q, tq)
            lhs = dist(tp, tq, ctx) ** 2 + dist(*residuals, ctx) ** 2
            assert lhs <= dist(p, q, ctx) ** 2 + slack

    def test_convex_matrix_pair(self, ctx):
        rng = random.Random(53)
        slack = ctx.pow10(-95)
        t = DrOperator(first=DiagOnes(), second=PsdCone())
        for _ in range(10):
            p, q = sym_random(3, rng, ctx), sym_random(3, rng, ctx)
            tp, tq = dr_step(t, p, ctx), dr_step(t, q, ctx)
            residuals = mpf_sub_points(p, tp), mpf_sub_points(q, tq)
            lhs = dist(tp, tq, ctx) ** 2 + dist(*residuals, ctx) ** 2
            assert lhs <= dist(p, q, ctx) ** 2 + slack


class TestRun:
    def test_immediate_tolerance_at_reference(self, ctx, circle_line):
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", circle_line, ref, StopRule(), ref, ctx)
        assert trace.terminated_by is Termination.TOLERANCE
        assert trace.iterations == 0
        assert trace.errors == (ctx.mpf(0),)

    def test_dr_two_lines_halves_error(self, ctx, two_lines):
        # DR on two lines at 45 degrees contracts by 1/sqrt(2) rotation,
        # giving error ratio 1/2 every two steps and exactly 1/sqrt(2) each
        origin = Point2.of(ctx, 0, 0)
        trace = run("dr", two_lines, Point2.of(ctx, 1, 0), StopRule(max_iter=40), origin, ctx)
        inv_sqrt2 = 1 / ctx.mp.sqrt(ctx.mpf(2))
        for e_prev, e_next in zip(trace.errors[:10], trace.errors[1:11]):
            assert abs(e_next / e_prev - inv_sqrt2) <= ctx.pow10(-50)

    def test_lt_two_lines_one_step(self, ctx, two_lines):
        origin = Point2.of(ctx, 0, 0)
        trace = run("lt", two_lines, Point2.of(ctx, 1, 0), StopRule(), origin, ctx)
        assert trace.iterations == 1
        assert trace.solved
        assert trace.errors[-1] <= ctx.pow10(-(ctx.decimal_digits - 20))

    def test_max_iter(self, ctx, circle_line):
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", circle_line, Point2.of(ctx, "0.9", "0.6"), StopRule(max_iter=5), ref, ctx)
        assert trace.terminated_by is Termination.MAX_ITER
        assert trace.iterations == 5
        assert len(trace.errors) == 6
        assert len(trace.step_times) == 5

    def test_dr_errors_eventually_monotone(self, ctx, circle_line):
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", circle_line, Point2.of(ctx, "0.95", "0.3"), StopRule(max_iter=80), ref, ctx)
        tail = trace.errors[5:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_unknown_method(self, ctx, circle_line):
        with pytest.raises(ValueError):
            run("newton", circle_line, Point2.of(ctx, 1, 1), StopRule(), Point2.of(ctx, 0, 0), ctx)

    def test_auto_reference_matches_known(self, ctx):
        # tol below the floor: the trace runs on to its own reference
        problem = build_problem("circle-line", ctx)
        p0 = Point2.of(ctx, "0.9", "0.6")
        stop = StopRule(tol="1e-200")
        trace = run("lt", problem.operator, p0, stop, None, ctx)
        assert trace.terminated_by is Termination.EXACT_ZERO
        assert trace.reference_gap <= ctx.pow10(-(ctx.decimal_digits - 10))
        # the same distances to the two-pass reference, which is the known one
        old, _, reference = two_pass_run("lt", problem, p0, stop, ctx)
        assert trace.errors == old.errors
        assert dist(reference, problem.reference, ctx) <= ctx.pow10(-(ctx.decimal_digits - 15))

    def test_known_reference_has_no_gap(self, ctx, circle_line):
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", circle_line, Point2.of(ctx, "0.9", "0.6"), StopRule(max_iter=3), ref, ctx)
        assert trace.reference_gap is None


def stop_levels(ctx):
    """``run``'s levels as raw tuples: the default tol and the benchmark's
    tols, the floor, the cliff and the near-floor level."""
    tols = [StopRule(tol=tol).resolved_tol(ctx)._mpf_ for tol in (None, "1e-20", "1e-30", "1e-140")]
    return tols + [ctx.floor._mpf_, *_stop_levels(ctx)]


@st.composite
def at_magnitude(draw, bound, prec):
    """A positive raw value with the bound's ``exp + bc``: the tie that
    ``_abs_le`` hands to ``libmp``."""
    bc = draw(st.integers(1, prec))
    man = draw(st.integers(2 ** (bc - 1), 2 ** bc - 1)) | 1
    return (0, man, bound[2] + bound[3] - bc, bc)


class TestStopTests:
    """``run``'s stop tests decide by magnitude (``_abs_le`` and its
    negation); on its nonnegative errors and gaps they answer as the
    ``mpf_le`` and ``mpf_lt`` calls they replace, at 40, 120 and 200
    digits."""

    @given(data=st.data(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=300)
    def test_ties_zero_and_neighbours(self, data, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        prec = ctx.mp.prec
        bound = data.draw(st.sampled_from(stop_levels(ctx)))
        x = data.draw(st.one_of(
            at_magnitude(bound, prec),
            st.just(bound),
            st.just(fzero),
            st.integers(-3, 3).map(lambda k: (0, bound[1], bound[2] + k, bound[3])),
        ))
        assert _abs_le(x, bound) == mpf_le(x, bound)
        assert (not _abs_le(x, bound)) == mpf_lt(bound, x)

    def test_every_error_of_a_run(self, ctx):
        # the errors of DR, LT and PLT traces on circle-line and psdb-s1,
        # against every level
        for problem_id, dim in (("circle-line", None), ("psdb-s1", 3)):
            problem = build_problem(problem_id, ctx, dim)
            p0 = problem.sample(1, 5, ctx)[0]
            for method in ("dr", "lt", "plt"):
                trace = run(method, problem.operator, p0, StopRule(tol="1e-200", max_iter=40),
                            None, ctx)
                for e in trace.errors:
                    for bound in stop_levels(ctx):
                        assert _abs_le(e._mpf_, bound) == mpf_le(e._mpf_, bound)
                        assert (not _abs_le(e._mpf_, bound)) == mpf_lt(bound, e._mpf_)


class TestRecords:
    def test_stop_rule_needs_a_step(self):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            StopRule(max_iter=0)

    def test_fields_are_read_only(self, ctx):
        line = HorizontalLine(height=ctx.mpf("0.5"))
        operator = DrOperator(first=line, second=UnitCircle())
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", operator, ref, StopRule(), ref, ctx)
        for record, name in ((StopRule(), "tol"), (StopRule(), "max_iter"),
                             (operator, "first"), (trace, "errors")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert operator.first is line and trace.errors == (ctx.mpf(0),)


def two_pass_run(method, problem, p0, stop, ctx):
    """The former auto-reference algorithm, kept as the oracle for ``run``
    with ``reference=None``: iterate the method until successive iterates
    agree to the arithmetic floor (at most 2*max_iter steps), take the last
    iterate as the reference, then recompute the orbit against it.
    Returns the trace, the last successive-iterate distance and the
    reference."""
    t = problem.operator
    step = {
        "dr": lambda p: dr_step(t, p, ctx),
        "lt": lambda p: lt_step(t, p, ctx).result,
        "plt": lambda p: plt_step(t, p, ctx),
    }[method]
    floor = ctx.pow10(-(ctx.decimal_digits - 10))
    p = p0
    for _ in range(2 * stop.max_iter):
        q = step(p)
        gap = dist(q, p, ctx)
        p = q
        if gap <= floor:
            break
    return run(method, t, p0, stop, p, ctx), gap, p


class TestAutoReference:
    @settings(max_examples=30)
    @given(
        problem_id=st.sampled_from(("psd-s1", "psdb-s1", "psdb-s11")),
        method=st.sampled_from(("dr", "lt", "plt")),
        seed=st.integers(1, 40),
        max_iter=st.integers(1, 12),
        tol=st.sampled_from((None, "1e-20", "1e-140")),
    )
    def test_one_orbit_matches_two_pass(self, ctx, problem_id, method, seed, max_iter, tol):
        problem = build_problem(problem_id, ctx, 3)
        p0 = problem.sample(1, seed, ctx)[0]
        stop = StopRule(tol=tol, max_iter=max_iter)
        old, old_gap, _ = two_pass_run(method, problem, p0, stop, ctx)
        new = run(method, problem.operator, p0, stop, None, ctx)
        assert new.errors == old.errors
        assert new.terminated_by is old.terminated_by
        assert new.reference_gap == old_gap

    def test_converged_and_unconverged_references(self, ctx):
        # both branches of the auto reference: psd-s1 DR lands on its fixed
        # point within the doubled budget, psdb-s1 DR does not
        floor = ctx.pow10(-(ctx.decimal_digits - 10))
        stop = StopRule(tol="1e-20", max_iter=30)
        gaps = {}
        for problem_id in ("psd-s1", "psdb-s1"):
            problem = build_problem(problem_id, ctx, 3)
            p0 = problem.sample(1, 1, ctx)[0]
            trace = run("dr", problem.operator, p0, stop, None, ctx)
            gaps[problem_id] = trace.reference_gap
        assert gaps["psd-s1"] <= floor < gaps["psdb-s1"]


class TestTraceCsv:
    def test_structure_and_determinism(self, ctx, two_lines):
        origin = Point2.of(ctx, 0, 0)
        meta = [("method", "lt"), ("problem", "graph:linear:1"), ("precision", 120)]

        def make():
            trace = run("lt", two_lines, Point2.of(ctx, 1, 0), StopRule(), origin, ctx)
            return trace_to_csv(trace, ctx, meta, include_times=False)

        text = make()
        lines = text.strip().splitlines()
        assert lines[0] == "# method: lt"
        assert lines[3] == "iter,error,step_seconds"
        assert lines[4].startswith("0,") and lines[4].endswith(",0")
        assert text == make()

    def test_times_column(self, ctx, circle_line):
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", circle_line, Point2.of(ctx, "0.9", "0.6"), StopRule(max_iter=3), ref, ctx)
        text = trace_to_csv(trace, ctx, [("method", "dr")])
        rows = text.strip().splitlines()[2:]
        assert len(rows) == 4
        assert float(rows[1].rsplit(",", 1)[1]) > 0

    def test_stagnation_below_floor_tolerance(self, ctx, circle_line):
        # tol below the arithmetic floor: this run lands exactly on the
        # reference (exact_zero, after 7 steps) before the stagnation window
        # can fire; test_cli's test_stagnation_stop_in_the_catalog pins a
        # run that ends by stagnation
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run(
            "lt",
            circle_line,
            Point2.of(ctx, "0.9", "0.6"),
            StopRule(tol="1e-200", max_iter=60),
            ref,
            ctx,
        )
        assert trace.terminated_by in (Termination.STAGNATION, Termination.EXACT_ZERO)
        assert trace.iterations < 60
