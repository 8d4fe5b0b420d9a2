import math
import random

import pytest
from hypothesis import given, strategies as st

from feasikit.analysis import (
    InsufficientDataError,
    estimate_linear_rate,
    estimate_order,
    performance_profile,
    profile_to_csv,
    sample_disk,
    sample_sym,
)
from feasikit.numerics import Point2, PrecisionContext, dist
from conftest import point


class TestEstimateOrder:
    def test_forced_quadratic(self, ctx):
        errors = [ctx.mpf(10) ** -(2**n) for n in range(6)]
        est = estimate_order(errors, ctx)
        assert abs(est.q - 2) <= ctx.pow10(-30)
        assert abs(est.c - 1) <= ctx.pow10(-30)
        assert est.residual <= ctx.pow10(-30)

    def test_geometric(self, ctx):
        errors = [ctx.mpf(2) ** -n for n in range(12)]
        est = estimate_order(errors, ctx)
        assert abs(est.q - 1) <= ctx.pow10(-30)
        assert abs(est.c - ctx.mpf("0.5")) <= ctx.pow10(-30)

    def test_noisy_geometric(self, ctx):
        rng = random.Random(79)
        errors = [
            ctx.mpf("0.3") * ctx.mpf("0.5") ** n * ctx.mpf(1 + rng.uniform(-0.01, 0.01))
            for n in range(20)
        ]
        est = estimate_order(errors, ctx)
        assert ctx.mpf("0.9") <= est.q <= ctx.mpf("1.1")

    def test_insufficient_data(self, ctx):
        with pytest.raises(InsufficientDataError):
            estimate_order([ctx.mpf("0.5"), ctx.mpf("0.25")], ctx)
        # entries at the precision floor do not count
        floorish = [ctx.pow10(-115)] * 10
        with pytest.raises(InsufficientDataError):
            estimate_order(floorish, ctx)

    def test_scale_invariance(self, ctx):
        errors = [ctx.mpf(2) ** -n for n in range(12)]
        scaled = [ctx.mpf(100) * e for e in errors]
        q1 = estimate_order(errors, ctx).q
        q2 = estimate_order(scaled, ctx).q
        assert abs(q1 - q2) <= ctx.pow10(-50)

    def test_window_excludes_floor(self, ctx):
        # a quadratic tail followed by floor-level flatline entries
        errors = [ctx.mpf(10) ** -(2**n) for n in range(6)] + [ctx.pow10(-115)] * 5
        est = estimate_order(errors, ctx)
        assert abs(est.q - 2) <= ctx.pow10(-30)


class TestEstimateLinearRate:
    def test_halving(self, ctx):
        errors = [ctx.mpf(2) ** -n for n in range(10)]
        assert abs(estimate_linear_rate(errors, ctx) - ctx.mpf("0.5")) <= ctx.pow10(-50)

    @given(
        c=st.floats(min_value=0.01, max_value=100.0),
        r=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_pure_geometric_recovers_rate(self, ctx, c, r):
        errors = [ctx.mpf(c) * ctx.mpf(r) ** n for n in range(12)]
        got = estimate_linear_rate(errors, ctx)
        assert abs(got - ctx.mpf(r)) <= ctx.pow10(-30)

    def test_insufficient(self, ctx):
        with pytest.raises(InsufficientDataError):
            estimate_linear_rate([ctx.mpf(1), ctx.mpf("0.5")], ctx)

    def test_dr_circle_line_rate_half(self, ctx):
        from feasikit.sets import HorizontalLine, UnitCircle
        from feasikit.solvers import DrOperator, StopRule, run

        t = DrOperator(first=HorizontalLine(height=ctx.mpf("0.5")), second=UnitCircle())
        ref = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        trace = run("dr", t, point(ctx, "0.9", "0.6"), StopRule(max_iter=150), ref, ctx)
        rate = estimate_linear_rate(trace.errors, ctx)
        assert abs(rate - ctx.mpf("0.5")) <= ctx.mpf("0.05")


class TestPerformanceProfile:
    def test_hand_example(self):
        # 2 problems x 2 solvers
        result = performance_profile({"s1": [1.0, 4.0], "s2": [2.0, 2.0]})
        assert result.curves["s1"].rho(1.0) == 0.5
        assert result.curves["s2"].rho(1.0) == 0.5
        assert result.curves["s1"].rho(2.0) == 1.0
        assert result.curves["s2"].rho(2.0) == 1.0

    def test_identical_costs(self):
        result = performance_profile({"a": [3.0, 5.0], "b": [3.0, 5.0]})
        assert result.curves["a"].rho(1.0) == 1.0
        assert result.curves["b"].rho(1.0) == 1.0

    def test_total_failure_solver(self):
        result = performance_profile({"ok": [1.0, 1.0], "down": [math.inf, math.inf]})
        for tau in (1.0, 10.0, 1e9):
            assert result.curves["down"].rho(tau) == 0.0
        assert result.curves["down"].rho(math.inf) == 1.0

    def test_all_failed_problem_excluded(self):
        result = performance_profile({"a": [1.0, math.inf], "b": [2.0, math.inf]})
        assert result.excluded == (1,)
        assert result.curves["a"].rho(1.0) == 1.0

    def test_zero_best_cost(self):
        # a trial that starts inside the tolerance costs 0
        result = performance_profile({"a": [0.0, 0.0, 2.0], "b": [0.0, 3.0, 4.0]})
        assert result.curves["a"].ratios == (1.0, 1.0, 1.0)
        assert result.curves["b"].ratios == (1.0, 2.0)
        assert result.curves["b"].n_failures == 1
        assert result.curves["b"].rho(math.inf) == 1.0

    def test_needs_two_solvers(self):
        with pytest.raises(ValueError):
            performance_profile({"only": [1.0]})

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            performance_profile({"a": [1.0], "b": [1.0, 2.0]})

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(1, 1e3), st.just(math.inf)),
                st.one_of(st.floats(1, 1e3), st.just(math.inf)),
                st.one_of(st.floats(1, 1e3), st.just(math.inf)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_monotone_and_bounded(self, rows):
        costs = {
            "a": [r[0] for r in rows],
            "b": [r[1] for r in rows],
            "c": [r[2] for r in rows],
        }
        try:
            result = performance_profile(costs)
        except ValueError:
            return
        taus = sorted({t for s in costs for t in result.curves[s].breakpoints})
        for s in costs:
            values = [result.curves[s].rho(t) for t in taus]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_permutation_invariance(self):
        rng = random.Random(83)
        n = 20
        costs = {
            "a": [rng.uniform(1, 50) for _ in range(n)],
            "b": [rng.uniform(1, 50) for _ in range(n)],
        }
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = {s: [costs[s][p] for p in perm] for s in costs}
        r1 = performance_profile(costs)
        r2 = performance_profile(shuffled)
        for s in costs:
            assert r1.curves[s].ratios == r2.curves[s].ratios

    def test_csv(self):
        result = performance_profile({"dr": [10.0, 8.0], "lt": [2.0, 4.0]})
        text = profile_to_csv(result, [("problem", "circle-line")])
        lines = text.strip().splitlines()
        assert lines[0] == "# problem: circle-line"
        assert lines[1] == "tau,rho_dr,rho_lt"
        assert len(lines) == 2 + len({1.0, 2.0, 5.0})


def mpf_sample_disk(center, radius, n, seed, ctx):
    """``sample_disk`` written with ``mpf`` operators; its oracle."""
    radius = ctx.mpf(radius)
    rng = random.Random(seed)
    two_pi = 2 * ctx.mp.pi
    points = []
    for _ in range(n):
        r = radius * ctx.mp.sqrt(ctx.mpf(rng.random()))
        phi = two_pi * ctx.mpf(rng.random())
        cos, sin = ctx.mp.cos_sin(phi)
        points.append(Point2(center.x + r * cos, center.z + r * sin))
    return tuple(points)


class TestSampling:
    def test_disk_containment_and_determinism(self, ctx):
        center = Point2(ctx.mp.sqrt(3) / 2, ctx.mpf("0.5"))
        a = sample_disk(center, "0.5", 200, 7, ctx)
        b = sample_disk(center, "0.5", 200, 7, ctx)
        assert a == b
        for p in a:
            assert dist(p, center, ctx) <= ctx.mpf("0.5")

    def test_disk_distinct_seeds(self, ctx):
        center = point(ctx, 0, 0)
        a = sample_disk(center, 1, 5, 1, ctx)
        b = sample_disk(center, 1, 5, 2, ctx)
        assert a != b

    @pytest.mark.oracle
    @given(
        seed=st.integers(0, 2**32 - 1),
        radius=st.sampled_from(("0.5", "0.05", 3, "1e-40")),
        center=st.sampled_from(((0, 0), ("0.8660254", "0.5"), (-3, "1e-30"))),
        digits=st.sampled_from((40, 120, 200)),
    )
    def test_disk_matches_mpf(self, seed, radius, center, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        c = point(ctx, *center)
        got = sample_disk(c, radius, 3, seed, ctx)
        assert [p.raw for p in got] == [p.raw for p in mpf_sample_disk(c, radius, 3, seed, ctx)]

    def test_disk_rejects_bad_radius(self, ctx):
        with pytest.raises(ValueError):
            sample_disk(point(ctx, 0, 0), 0, 5, 1, ctx)

    def test_sym_properties(self, ctx):
        trial = sample_sym(4, 25, 13, ctx)
        again = sample_sym(4, 25, 13, ctx)
        assert trial == again
        for m in trial:
            assert m.n == 4
            rows = m.entries
            for i in range(4):
                for j in range(4):
                    assert rows[i][j] == rows[j][i]
                    assert abs(rows[i][j]) <= 1

    def test_sym_rejects_small_dim(self, ctx):
        with pytest.raises(ValueError):
            sample_sym(1, 3, 0, ctx)
