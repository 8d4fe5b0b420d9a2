import random

import pytest

from feasikit import theory
from feasikit.numerics import Point2, dist, inner, norm
from feasikit.solvers import dr_step, lt_step
from feasikit.theory import (
    DegenerateDenominatorError,
    ProbeGrid,
    get_curve,
    graph_operator,
    h_coeff,
    linear_rate,
    lt_closed_form,
    nu,
    probe_denominator_limit,
    probe_one_minus_h,
    probe_ratio,
    probe_zeta_limit,
    zeta_terms,
)

from test_numerics import solve_mpf


class TestCurves:
    def test_registry(self, ctx):
        for ident, a in (("linear:3", 3), ("quad", 1), ("cubic", 2), ("sin-shift", 2)):
            curve = get_curve(ident, ctx)
            assert curve.ident == ident
            assert abs(curve.a - a) <= ctx.pow10(-110)
            assert curve.jet(ctx.mp.zero)[0] == 0

    def test_unknown(self, ctx):
        with pytest.raises(ValueError):
            get_curve("septic", ctx)
        with pytest.raises(ValueError):
            get_curve("linear:0", ctx)


class TestClosedForms:
    def test_t_inverse_is_local_inverse(self, ctx):
        # two-sided: T(T^-1 w) = w and T^-1(T y) = y near the origin
        for ident in ("quad", "cubic"):
            curve = get_curve(ident, ctx)
            t = graph_operator(curve, ctx)

            def t_inverse(w):
                """The local inverse of T: (x + z f'(x), z - f(x))."""
                fx, dfx, _ = curve.jet(w.x)
                return Point2(w.x + w.z * dfx, w.z - fx)

            rng = random.Random(61)
            for _ in range(10):
                w = Point2.of(ctx, rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
                back = dr_step(t, t_inverse(w), ctx)
                assert dist(back, w, ctx) <= ctx.pow10(-100)
                y = Point2.of(ctx, rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
                again = t_inverse(dr_step(t, y, ctx))
                assert dist(again, y, ctx) <= ctx.pow10(-100)

    def test_lyapunov_descent_along_dr_iterates(self, ctx):
        for ident in ("quad", "cubic"):
            curve = get_curve(ident, ctx)
            t = graph_operator(curve, ctx)

            def lyapunov_grad(w):
                """(f(x)/f'(x), z), the gradient of the DR dynamics' Lyapunov function."""
                fx, dfx, _ = curve.jet(w.x)
                return Point2(fx / dfx, w.z)

            w = Point2.of(ctx, "0.01", "0.005")
            for _ in range(10):
                step = dr_step(t, w, ctx)
                assert inner(lyapunov_grad(w), step - w) < 0
                w = step

    def test_h_is_one_on_lines(self, ctx):
        rng = random.Random(67)
        for a in ("1", "-2", "0.3"):
            curve = get_curve(f"linear:{a}", ctx)
            for _ in range(10):
                w = Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
                if norm(w, ctx) < ctx.mpf("0.01"):
                    continue
                assert abs(h_coeff(w, curve, ctx) - 1) <= ctx.pow10(-100)

    def test_h_against_zeta_expression(self, ctx):
        # independent build: multiply numerator and denominator by
        # f'(x) f'(x + z f'(x)) and express both through the zeta terms
        for ident in ("quad", "cubic", "sin-shift"):
            curve = get_curve(ident, ctx)
            for r_exp, theta_num in ((2, 1), (3, 2), (4, 5)):
                r = ctx.pow10(-r_exp)
                theta = ctx.mpf(theta_num)
                w = Point2(r * ctx.mp.cos(theta), r * ctx.mp.sin(theta))
                z1, z2, z3 = zeta_terms(r, theta, curve, ctx)
                fx = curve.jet(w.x)[0]
                num = (w.z - fx) * z2 + fx * z1
                den = w.z * z1 - (w.z - fx) * z3
                assert abs(h_coeff(w, curve, ctx) - num / den) <= ctx.pow10(-95)

    def test_h_tends_to_one(self, ctx):
        curve = get_curve("quad", ctx)
        theta = ctx.mpf(1)
        prev_gap = None
        for k in (2, 4, 6, 8):
            r = ctx.pow10(-k)
            w = Point2(r * ctx.mp.cos(theta), r * ctx.mp.sin(theta))
            gap = abs(1 - h_coeff(w, curve, ctx))
            assert gap <= 10 * r
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_h_degenerate_at_origin(self, ctx):
        with pytest.raises(DegenerateDenominatorError):
            h_coeff(Point2.of(ctx, 0, 0), get_curve("quad", ctx), ctx)

    def test_gamma_matches_h(self, ctx):
        # h(x, z) is gamma1 of the 2x2 system tying the two expressions for
        # the LT update
        rng = random.Random(71)
        for ident in ("quad", "cubic"):
            curve = get_curve(ident, ctx)
            for _ in range(25):
                w = Point2.of(ctx, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
                if norm(w, ctx) < ctx.mpf("1e-4"):
                    continue
                z = w.z
                fx, dfx, _ = curve.jet(w.x)
                fx1, dfx1, _ = curve.jet(w.x + z * dfx)
                g1, _ = solve_mpf(
                    ((-fx / dfx, fx1 / dfx1), (-z, z - fx)), (z * dfx, -fx), ctx
                )
                assert abs(g1 - h_coeff(w, curve, ctx)) <= ctx.pow10(
                    -(ctx.decimal_digits - 20)
                )


class TestLtClosedForm:
    def test_linear_kills_both_coordinates(self, ctx):
        curve = get_curve("linear:2", ctx)
        got = lt_closed_form(Point2.of(ctx, "0.3", "-0.1"), curve, ctx)
        assert norm(got, ctx) <= ctx.pow10(-100)

    def test_fixed_point(self, ctx):
        curve = get_curve("quad", ctx)
        origin = Point2.of(ctx, 0, 0)
        assert lt_closed_form(origin, curve, ctx) == origin

    def test_matches_geometric_lt(self, ctx):
        rng = random.Random(73)
        bound = ctx.pow10(-(ctx.decimal_digits - 25))
        for ident in ("quad", "cubic"):
            curve = get_curve(ident, ctx)
            t = graph_operator(curve, ctx)
            for _ in range(10):
                y = Point2.of(ctx, rng.uniform(-0.05, 0.05), rng.uniform(-0.02, 0.02))
                geometric = lt_step(t, y, ctx).result
                closed = lt_closed_form(y, curve, ctx)
                assert dist(geometric, closed, ctx) <= bound * max(norm(y, ctx), ctx.mpf(1))


class TestAngularCoefficient:
    def test_nu_examples(self, ctx):
        quad = get_curve("quad", ctx)
        assert nu(ctx.mp.zero, quad, ctx) == 0
        assert abs(nu(ctx.mp.pi / 2, quad, ctx) + 1) <= ctx.pow10(-110)
        linear = get_curve("linear:5", ctx)
        for theta in (0.3, 1.1, 4.0):
            assert nu(ctx.mpf(theta), linear, ctx) == 0

    def test_zeta_vanishes_at_small_radius(self, ctx):
        curve = get_curve("quad", ctx)
        for z in zeta_terms(ctx.pow10(-30), ctx.mpf(1), curve, ctx):
            assert abs(z) <= ctx.pow10(-29)

    def test_zeta_identity_linear(self, ctx):
        # symbolically zeta1 = x + z, zeta2 = z, zeta3 = x; the floating
        # difference is rounding noise at the last unit
        curve = get_curve("linear:1", ctx)
        for r, theta in ((ctx.mpf("0.37"), ctx.mpf(2)), (ctx.pow10(-5), ctx.mpf("0.8"))):
            z1, z2, z3 = zeta_terms(r, theta, curve, ctx)
            assert abs(z1 - z2 - z3) <= ctx.pow10(-(ctx.decimal_digits - 5)) * r

    def test_zeta_limit_quad(self, ctx):
        curve = get_curve("quad", ctx)
        r = ctx.pow10(-4)
        theta = ctx.mp.pi / 4
        z1, z2, z3 = zeta_terms(r, theta, curve, ctx)
        assert abs((z1 - z2 - z3) / (r * r) - nu(theta, curve, ctx)) <= ctx.mpf("0.01")


class TestProbes:
    def small_grid(self, ctx):
        return ProbeGrid.default(ctx, n_radii=6, n_angles=6, log10_r_max=-1, log10_r_min=-8)

    def test_zeta_probe_passes(self, ctx):
        for ident in ("quad", "cubic"):
            report = probe_zeta_limit(self.small_grid(ctx), get_curve(ident, ctx), ctx)
            assert report.passed
            assert not report.excluded

    def test_zeta_probe_linear_identically_zero(self, ctx):
        report = probe_zeta_limit(self.small_grid(ctx), get_curve("linear:2", ctx), ctx)
        assert report.passed
        for row in report.rows:
            assert row.target == 0
            assert abs(row.value) <= ctx.pow10(-90)

    def test_denominator_probe(self, ctx):
        for ident, a in (("quad", 1), ("linear:3", 3)):
            report = probe_denominator_limit(self.small_grid(ctx), get_curve(ident, ctx), ctx)
            assert report.passed
            targets = {ctx.to_str(row.target) for row in report.rows}
            assert ctx.to_str(ctx.mpf(a)) in targets  # the D/R^2 -> a family
            assert ctx.to_str(ctx.mpf(a) ** 3) in targets  # the a^3 family

    def test_denominator_limit_slope_three(self, ctx):
        # f(t) = 3t + t^2: the scaled denominator tends to a = 3
        from mpmath.libmp import from_int, mpf_add, mpf_mul, mpf_mul_int, round_nearest

        from feasikit.sets import AnalyticCurve

        prec, rnd = ctx.mp.prec, round_nearest
        curve = AnalyticCurve.checked(
            lambda t: (
                mpf_add(mpf_mul_int(t, 3, prec, rnd), mpf_mul(t, t, prec, rnd), prec, rnd),
                mpf_add(mpf_mul_int(t, 2, prec, rnd), from_int(3), prec, rnd),
                from_int(2),
            ),
            ctx=ctx,
            ident="slope3",
        )
        report = probe_denominator_limit(self.small_grid(ctx), curve, ctx)
        assert report.passed
        r = ctx.pow10(-8)
        theta = ctx.mpf(1)
        x = r * ctx.mp.cos(theta)
        z = r * ctx.mp.sin(theta)
        fx, dfx, _ = curve.jet(x)
        fx1, dfx1, _ = curve.jet(x + z * dfx)
        d = (z * fx1 / dfx1 - fx * (z - fx) / dfx) / (r * r)
        assert abs(d - 3) <= ctx.pow10(-6)

    def test_denominator_numerator_value(self, ctx):
        curve = get_curve("linear:1", ctx)
        r = ctx.pow10(-6)
        theta = ctx.mpf(1)
        x = r * ctx.mp.cos(theta)
        z = r * ctx.mp.sin(theta)
        z1, _, z3 = zeta_terms(r, theta, curve, ctx)
        combo = (z * z1 - (z - curve.jet(x)[0]) * z3) / (r * r)
        assert abs(combo - 1) <= ctx.pow10(-5)

    def test_one_minus_h_probe(self, ctx):
        for ident in ("quad", "cubic"):
            report = probe_one_minus_h(self.small_grid(ctx), get_curve(ident, ctx), ctx)
            assert report.passed

    def test_one_minus_h_pointwise_limit(self, ctx):
        # quad at theta = pi/2: limit is (1 - 0) * nu(pi/2) / a^3 = -1
        curve = get_curve("quad", ctx)
        r = ctx.pow10(-6)
        w = Point2(r * ctx.mp.cos(ctx.mp.pi / 2), r * ctx.mp.sin(ctx.mp.pi / 2))
        assert abs((1 - h_coeff(w, curve, ctx)) / r + 1) <= ctx.pow10(-4)

    def test_one_minus_h_zero_prefactor(self, ctx):
        # at tan(theta) = a the prefactor of the limit vanishes
        curve = get_curve("quad", ctx)
        theta = ctx.mp.atan(curve.a)
        r = ctx.pow10(-6)
        w = Point2(r * ctx.mp.cos(theta), r * ctx.mp.sin(theta))
        assert abs((1 - h_coeff(w, curve, ctx)) / r) <= ctx.pow10(-4)

    def test_ratio_probe_quad(self, ctx):
        curve = get_curve("quad", ctx)
        grid = ProbeGrid.default(ctx, n_radii=5, n_angles=6, log10_r_max=-2, log10_r_min=-8)
        report = probe_ratio(grid, curve, ctx)
        assert report.passed
        assert report.m_est > 0

    def test_ratio_probe_linear_unbounded_good(self, ctx):
        curve = get_curve("linear:1", ctx)
        grid = ProbeGrid.default(ctx, n_radii=4, n_angles=4, log10_r_max=-2, log10_r_min=-6)
        report = probe_ratio(grid, curve, ctx)
        assert report.passed
        assert all(row.value is None for row in report.rows)
        assert report.m_est == ctx.mp.inf

    def test_ratio_single_point_consistency(self, ctx):
        # hand-assembled ratio from the polar LT coordinate expressions
        curve = get_curve("quad", ctx)
        t = graph_operator(curve, ctx)
        y = Point2.of(ctx, "0.001", "0.0004")
        w = dr_step(t, dr_step(t, y, ctx), ctx)
        r_w = ctx.mp.sqrt(w.x * w.x + w.z * w.z)
        theta_w = ctx.mp.atan2(w.z, w.x)
        h = h_coeff(w, curve, ctx)
        x = w.x
        # the tails of f(x) = a x + x^2 b(x) and f'(x) = a + x c(x)
        fx, dfx, _ = curve.jet(x)
        b = (fx - curve.a * x) / (x * x)
        c = (dfx - curve.a) / x
        lt2 = r_w**2 * ctx.mp.sin(theta_w) * (1 - h) / r_w
        lt1 = (
            r_w**2
            * ctx.mp.cos(theta_w)
            / (curve.a + x * c)
            * (curve.a * (1 - h) / r_w + ctx.mp.cos(theta_w) * (c - b * h))
        )
        hand_ratio = r_w**2 / (abs(lt1) + abs(lt2))
        from feasikit.theory import _lt_from_w

        lt = _lt_from_w(w, curve, ctx)
        code_ratio = (w.x**2 + w.z**2) / (abs(lt.x) + abs(lt.z))
        assert abs(hand_ratio - code_ratio) <= ctx.pow10(-50) * code_ratio

    def test_mutated_nu_fails_loudly(self, ctx, monkeypatch):
        real_nu = theory.nu
        monkeypatch.setattr(
            theory, "nu", lambda theta, curve, c: real_nu(theta, curve, c) + 1
        )
        grid = self.small_grid(ctx)
        for probe in (probe_zeta_limit, probe_one_minus_h):
            report = probe(grid, get_curve("quad", ctx), ctx)
            assert not report.passed
            assert report.max_violation > 0

    def test_grid_validation(self, ctx):
        with pytest.raises(ValueError):
            ProbeGrid(radii=(ctx.mpf(1), ctx.mpf(2)), angles=(ctx.mpf(1),))
        with pytest.raises(ValueError):
            ProbeGrid(radii=(ctx.mpf(0),), angles=(ctx.mpf(1),))

    def test_report_csv(self, ctx):
        report = probe_zeta_limit(self.small_grid(ctx), get_curve("quad", ctx), ctx)
        text = report.to_csv(ctx)
        lines = text.strip().splitlines()
        assert lines[0] == "# probe: zeta"
        assert lines[2] == "# verdict: pass"
        assert "R,theta,value,target,abs_err" in lines
        header_at = lines.index("R,theta,value,target,abs_err")
        assert len(lines) - header_at - 1 == len(report.rows)


class TestLinearRate:
    def test_values(self, ctx):
        assert abs(linear_rate(get_curve("linear:1", ctx), ctx) - 1 / ctx.mp.sqrt(2)) <= ctx.pow10(-110)
        sqrt3 = ctx.mp.sqrt(3)
        curve = get_curve(f"linear:{ctx.to_str(sqrt3)}", ctx)
        assert abs(linear_rate(curve, ctx) - ctx.mpf("0.5")) <= ctx.pow10(-100)

    def test_monotone_in_slope(self, ctx):
        rates = [
            linear_rate(get_curve(f"linear:{a}", ctx), ctx) for a in (1, 2, 5, 50)
        ]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("ident", ("quad", "cubic", "sin-shift", "linear:1", "linear:2"))
    def test_two_dr_steps_near_the_origin(self, ctx, ident):
        # near 0, T is a rotation scaled by cos(angle) between the x-axis
        # and the tangent of the graph, so |T^2 y| / |y| is cos^2(angle),
        # 1/(1 + a^2) with a = f'(0): 20 angles at |y| = 1e-20
        curve = get_curve(ident, ctx)
        t = graph_operator(curve, ctx)
        want = 1 / (1 + curve.a * curve.a)
        rng = random.Random(7)
        radius = ctx.pow10(-20)
        for _ in range(20):
            phi = 2 * ctx.mp.pi * ctx.mpf(rng.random())
            y = Point2(radius * ctx.mp.cos(phi), radius * ctx.mp.sin(phi))
            ratio = norm(dr_step(t, dr_step(t, y, ctx), ctx), ctx) / norm(y, ctx)
            assert abs(ratio / want - 1) <= ctx.mpf("1e-15"), (ident, phi, ratio)
