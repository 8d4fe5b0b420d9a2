import functools
import itertools
import operator
import os
import random
import signal
import time
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fhalf, fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_mul, mpf_mul_int,
    round_nearest,
)

from feasikit import helper, numerics, sets
from feasikit.analysis import sample_disk
from feasikit.numerics import (
    NonConvergenceError, Point2, PrecisionContext, Spectrum, SymMatrix, _abs_le, _raw_mul,
    _raw_mul_pow2, _raw_reflect, _vec, dist, eig_sym,
)
from feasikit.sets import (
    AnalyticCurve,
    CurveGraph,
    DiagOnes,
    EntryOne,
    HorizontalLine,
    ProjectionError,
    PsdBoundary,
    PsdCone,
    UnitCircle,
    project_circle,
    project_diag_ones,
    project_entry11,
    project_graph,
    project_psd,
    project_psd_boundary,
    _graph_levels,
    _nearest_root,
)
from feasikit.theory import _quad_jet, get_curve

from conftest import TWO_CPUS, examples, helper_allowed, needs_helper
from test_numerics import (
    DIGITS, differential_matrix, differential_point, mpf_eig_sym, mpf_entrywise, mpf_norm,
    mpf_project_circle, mpf_reconstruct, mpf_spectrum, odd_mantissa, point_bits, raw, raw_operand,
    spectrum_bits, sym_random,
)


def mat(ctx, rows):
    return SymMatrix.from_rows([[ctx.mpf(v) for v in row] for row in rows])


def reflect(s, p, ctx):
    """``s.raw_reflect`` of p's entries, as a vector of p's type."""
    return _vec(type(p), s.raw_reflect(p.raw, ctx), ctx.mp)


def assert_mat_close(ctx, got, expected_rows, tol):
    rows = got.entries
    for i, row in enumerate(expected_rows):
        for j, v in enumerate(row):
            assert abs(rows[i][j] - ctx.mpf(v)) <= tol, (i, j, rows[i][j], v)


class TestPlaneProjections:
    def test_horizontal_line(self, ctx):
        half, zero = HorizontalLine(ctx.mpf("0.5")), HorizontalLine(ctx.mpf(0))
        assert half.project(Point2.of(ctx, "0.3", "0.9"), ctx) == Point2.of(ctx, "0.3", "0.5")
        assert half.project(Point2.of(ctx, 7, "0.5"), ctx) == Point2.of(ctx, 7, "0.5")
        assert zero.project(Point2.of(ctx, -1, -2), ctx) == Point2.of(ctx, -1, 0)

    def test_circle(self, ctx):
        assert project_circle(Point2.of(ctx, 2, 0), ctx) == Point2.of(ctx, 1, 0)
        # selector at the set-valued point
        assert project_circle(Point2.of(ctx, 0, 0), ctx) == Point2.of(ctx, 1, 0)
        p = project_circle(Point2.of(ctx, 3, 4), ctx)
        assert abs(p.x - ctx.mpf("0.6")) <= ctx.pow10(-110)
        assert abs(p.z - ctx.mpf("0.8")) <= ctx.pow10(-110)

    def test_graph_line_45deg(self, ctx):
        curve = get_curve("linear:1", ctx)
        p = project_graph(Point2.of(ctx, 1, 0), curve, ctx)
        assert abs(p.x - ctx.mpf("0.5")) <= ctx.pow10(-100)
        assert abs(p.z - ctx.mpf("0.5")) <= ctx.pow10(-100)

    def test_graph_idempotent_on_graph(self, ctx):
        curve = get_curve("quad", ctx)
        t = ctx.mpf("0.37")
        on_graph = Point2(t, curve.jet(t)[0])
        proj = project_graph(on_graph, curve, ctx)
        assert dist(proj, on_graph, ctx) <= ctx.pow10(-100)

    def test_graph_stationarity_residual(self, ctx):
        curve = get_curve("quad", ctx)
        p = Point2.of(ctx, "0.4", "1.3")
        q = project_graph(p, curve, ctx)
        residual = (q.x - p.x) + (curve.jet(q.x)[0] - p.z) * curve.jet(q.x)[1]
        assert abs(residual) <= ctx.pow10(-(ctx.decimal_digits - 15))

    def test_graph_against_grid_scan(self, ctx):
        # independent oracle: brute-force scan of the squared distance
        curve = get_curve("quad", ctx)
        p = Point2.of(ctx, 0, 1)
        q = project_graph(p, curve, ctx)
        ts = np.linspace(-3.0, 3.0, 1_000_001)
        obj = ts**2 + (ts + ts**2 - 1.0) ** 2
        best = ts[int(np.argmin(obj))]
        assert abs(float(q.x) - best) <= 1e-5
        ours = float(q.x) ** 2 + (float(curve.jet(q.x)[0]) - 1.0) ** 2
        assert ours <= float(np.min(obj)) + 1e-10


def separate_curve(ident, ctx):
    """The catalog curves as the separate f, f', f'' expressions that each
    curve's jet replaced; the oracle for ``get_curve``."""
    if ident.startswith("linear:"):
        a = ctx.mpf(ident.split(":", 1)[1])
        return (lambda t: a * t, lambda t: a, lambda t: ctx.mp.zero)
    return {
        "quad": (lambda t: t + t * t, lambda t: 1 + 2 * t, lambda t: ctx.mpf(2)),
        "cubic": (lambda t: 2 * t + t**3, lambda t: 2 + 3 * t * t, lambda t: 6 * t),
        "sin-shift": (
            lambda t: ctx.mp.sin(t) + t,
            lambda t: ctx.mp.cos(t) + 1,
            lambda t: -ctx.mp.sin(t),
        ),
    }[ident]


def separate_project_graph(p, f, df, ddf, ctx):
    """The former graph selector, which evaluated f and f' twice and f''
    once per Newton step and f again at each converged root; the oracle
    for ``project_graph``."""
    px, pz = p.x, p.z
    res_tol = ctx.pow10(-(ctx.decimal_digits - 15))
    span = 2 * (1 + abs(pz))
    lo = px - span
    width = 2 * span
    escape = abs(px) + span + 10

    roots = []
    for k in range(33):
        t = lo + width * k / 32
        for _ in range(200):
            gt = (t - px) + (f(t) - pz) * df(t)
            if abs(gt) <= res_tol:
                roots.append(t)
                break
            slope = 1 + df(t) ** 2 + (f(t) - pz) * ddf(t)
            if slope == 0:
                break
            t = t - gt / slope
            if abs(t) > escape:
                break
    if not roots:
        raise ProjectionError("Newton failed from every start")
    return Point2(*mpf_nearest_root([(t, f(t)) for t in roots], px, pz, ctx))


def mpf_nearest_root(roots, px, pz, ctx):
    """The former root ranking on ``mpf`` pairs (t, f(t)): sorted, each
    root within 10^-(digits - 20) * (1 + |t|) of the last kept one merged
    into it, then the least squared distance to (px, pz) and on a tie the
    least t; the oracle for ``sets._nearest_root``."""
    roots = sorted(roots)
    merge_tol = ctx.pow10(-(ctx.decimal_digits - 20))
    merged = [roots[0]]
    for t, ft in roots[1:]:
        if abs(t - merged[-1][0]) > merge_tol * (1 + abs(t)):
            merged.append((t, ft))

    def objective_then_t(root):
        dx = root[0] - px
        dz = root[1] - pz
        return dx * dx + dz * dz, root[0]

    return min(merged, key=objective_then_t)


def bits(*values):
    return tuple(v._mpf_ for v in values)


def selector_bits(select):
    try:
        q = select()
    except ProjectionError:
        return "ProjectionError"
    return bits(q.x, q.z)


JET_CURVES = ("quad", "cubic", "sin-shift", "linear:1", "linear:-2", "linear:0.3")


DIGITS = (40, 120, 200)
# points in the 0.05 disk the graph problems sample from, or anywhere with
# |x|, |z| <= 3 (scaled by 1 - 1/q for full-length mantissas)
FAR_POINTS = st.none() | st.tuples(*[st.floats(-3, 3)] * 2)


def check_selector(ident, seed, far):
    for digits in DIGITS:
        ctx = PrecisionContext(decimal_digits=digits)
        if far is None:
            p = sample_disk(Point2.of(ctx, 0, 0), "0.05", 1, seed, ctx)[0]
        else:
            shrink = 1 - ctx.mpf(1) / 999983
            p = Point2(ctx.mpf(far[0]) * shrink, ctx.mpf(far[1]) * shrink)
        curve = get_curve(ident, ctx)
        old = selector_bits(lambda: separate_project_graph(p, *separate_curve(ident, ctx), ctx))
        assert selector_bits(lambda: project_graph(p, curve, ctx)) == old, digits


class TestGraphJet:
    """The raw-tuple jets and Newton loop against the ``mpf`` oracles above,
    with the curve and the points built in one context at each precision."""

    def test_jet_matches_separate_expressions(self):
        for digits in DIGITS:
            ctx = PrecisionContext(decimal_digits=digits)
            rng = random.Random(7)
            half_pi = ctx.mp.pi / 2
            ts = [ctx.mp.zero, ctx.pow10(-130), -ctx.pow10(-130), ctx.pow10(-40)]
            ts += [ctx.mpf(rng.uniform(-1e-3, 1e-3)) / 3 for _ in range(20)]
            for k in (1, 3, 5, 7):  # past each odd multiple of pi/2, both signs
                ts += [sign * (k * half_pi + d) for sign in (1, -1) for d in (ctx.mpf("1e-9"), ctx.mpf(1) / 7)]
            ts += [ctx.mpf(rng.uniform(-8, 8)) / 7 * 3 for _ in range(60)]
            for ident in JET_CURVES:
                jet = get_curve(ident, ctx).jet
                separate = separate_curve(ident, ctx)
                for t in ts:
                    assert bits(*jet(t)) == bits(*(g(t) for g in separate)), (digits, ident, t)

    @pytest.mark.parametrize("ident", JET_CURVES)
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), far=FAR_POINTS)
    def test_project_graph_matches_separate_selector(self, ident, seed, far):
        with helper_allowed(True):
            check_selector(ident, seed, far)
            assert helper._helper is not None or not TWO_CPUS

    @pytest.mark.parametrize("ident", JET_CURVES)
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), far=FAR_POINTS)
    def test_project_graph_without_helper_matches_separate_selector(self, ident, seed, far):
        with helper_allowed(False):
            check_selector(ident, seed, far)
            assert helper._helper is None

    def test_curve_from_another_precision_rejected(self, ctx):
        p = Point2.of(ctx, "0.01", "0.02")
        with pytest.raises(ValueError, match="built at 40 digits, not 120"):
            project_graph(p, get_curve("quad", PrecisionContext(decimal_digits=40)), ctx)


def _flat_jet(big, bend, t):
    # on the graph only at t = 0; elsewhere f(t) = big swallows p.z, and
    # f'' = -(1 + f'^2) / f makes every Newton slope exactly zero
    return (fzero, fone, fzero) if t == fzero else (big, fone, bend)


def _quad_jet_in(owner, prec, t):
    # the quad jet in the process ``owner``, an error in any other; the
    # owner waits (10 s at most) until the helper has marked its first
    # start, 32, so that the helper always runs the jet and fails
    if os.getpid() != owner:
        raise RuntimeError("not the owner")
    claims, deadline = helper._helper.claims, time.monotonic() + 10
    while claims[32] != helper._HELPER:
        if time.monotonic() > deadline:
            pytest.fail("the helper marked no start within 10 s")  # escapes the retry
        time.sleep(0.001)
    return _quad_jet(prec, t)


def _quad_jet_late_in(slow, delay, prec, t):
    # the quad jet, ``delay`` seconds late in the process ``slow``
    if os.getpid() == slow:
        time.sleep(delay)
    return _quad_jet(prec, t)


class Interrupt(BaseException):
    """Escapes ``project_graph`` as a KeyboardInterrupt would."""


class StartsSpy:
    """Stands in for ``sets._newton_roots`` in this process: records the
    starts each call runs, in order, and its arguments, and raises
    ``fail`` once, before its first start, from a call that shares its
    starts with the helper.  ``answers`` collects what ``_Helper.answer``
    returned."""

    def __init__(self, real):
        self.real, self.calls, self.answers, self.fail = real, [], [], None
        self.owner = os.getpid()

    def __call__(self, jet, starts, *args):
        if os.getpid() != self.owner:  # a helper forked with the spy in place
            return self.real(jet, starts, *args)
        ran = []
        self.calls.append((ran, args))
        if self.fail is not None and starts is not helper._ALL:
            exc, self.fail = self.fail, None
            raise exc
        return self.real(jet, self.recorded(starts, ran), *args)

    @staticmethod
    def recorded(starts, ran):
        # lazily, so that each start is claimed just before it runs
        for k in starts:
            ran.append(k)
            yield k

    def starts(self):
        return [ran for ran, _ in self.calls]

    def assert_shared(self, jet):
        """The one recorded call ran an ascending prefix [0, kc) of the
        starts, and the helper's reply holds the roots of the rest, of
        [kc - 1, 32] if both sides claimed kc - 1 at once."""
        [(ran, args)] = self.calls
        assert ran == list(range(len(ran)))
        rest = [self.real(jet, range(k, 33), *args) for k in (len(ran), max(len(ran) - 1, 0))]
        assert self.answers[-1] in rest


class LateMarks:
    """One side's view of a claim table held in a ``bytearray``: the
    side's last mark reaches the shared bytes only at its next read or
    when the schedule flushes it, so the other side may read past it."""

    def __init__(self, table):
        self.table, self.pending = table, None

    def flush(self):
        if self.pending is not None:
            k, mark = self.pending
            self.table[k], self.pending = mark, None

    def __getitem__(self, k):
        self.flush()
        return self.table[k]

    def __setitem__(self, k, mark):
        self.pending = k, mark


@pytest.mark.oracle
class TestClaimTable:
    """``helper._claimed`` for the caller (up from 0) and the helper (down
    from 32) on one table, under random interleavings, with late marks
    and with stale helper marks (ints in the schedule) written at any
    time, as a helper still on a request that an exception cut off
    writes them."""

    @settings(max_examples=examples(300))
    @given(schedule=st.lists(st.one_of(st.sampled_from(["caller", "helper", "flush caller",
                                                         "flush helper"]),
                                       st.integers(0, 32)), max_size=150))
    def test_claims_cover_every_start(self, schedule):
        table = bytearray(33)
        caller, mine = LateMarks(table), LateMarks(table)
        sides = {
            "caller": (caller, helper._claimed(caller, helper._ALL, helper._CALLER, helper._HELPER), []),
            "helper": (mine, helper._claimed(mine, helper._DOWN, helper._HELPER, helper._CALLER), []),
        }
        for event in schedule:
            if isinstance(event, int):
                table[event] = helper._HELPER
                continue
            action, _, name = event.rpartition(" ")
            view, claims, ran = sides[name]
            if action == "flush":
                view.flush()
            else:
                ran.extend(itertools.islice(claims, 1))
        # the caller runs out its starts, then waits for the helper's
        up, down = (ran + list(claims) for _, claims, ran in sides.values())
        assert set(up) | set(down) == set(range(33))
        assert up == list(range(len(up)))
        assert down == list(range(32, 32 - len(down), -1))
        if not any(isinstance(event, int) for event in schedule):
            assert len(set(up) & set(down)) <= 1


class TestGraphHelper:
    """``project_graph`` with its Newton starts shared with the forked
    helper against all 33 starts in this process: the same bits, whatever
    happens to the helper."""

    @pytest.fixture(autouse=True)
    def spy(self, monkeypatch):
        with helper_allowed(True):
            spy = StartsSpy(sets._newton_roots)
            monkeypatch.setattr(sets, "_newton_roots", spy)
            real_answer = helper._Helper.answer

            def answer(helper):
                spy.answers.append(real_answer(helper))
                return spy.answers[-1]

            monkeypatch.setattr(helper._Helper, "answer", answer)
            yield spy

    @staticmethod
    def points(ctx):
        return [*sample_disk(Point2.of(ctx, 0, 0), "0.05", 4, 11, ctx),
                Point2.of(ctx, "1.5", "-2"), Point2.of(ctx, "-3", "0.25")]

    @staticmethod
    def in_process(p, curve, ctx):
        """``project_graph`` with the curve's jet wrapped in a lambda, so
        that all 33 starts run here."""
        lam = AnalyticCurve.checked(lambda t: curve.raw_jet(t), ctx, curve.ident)
        return project_graph(p, lam, ctx).raw

    @needs_helper
    def test_caller_and_helper_share_the_starts(self, spy, ctx):
        for ident in ("quad", "sin-shift"):
            curve = get_curve(ident, ctx)
            for p in self.points(ctx):
                want = self.in_process(p, curve, ctx)
                del spy.calls[:]
                assert project_graph(p, curve, ctx).raw == want
                spy.assert_shared(curve.raw_jet)

    @needs_helper
    def test_late_helper_leaves_every_start_to_the_caller(self, spy, ctx):
        # the helper is still on a request that an exception cut off when
        # the next one comes, so the caller claims all 33 starts first
        curve = get_curve("quad", ctx)
        p, q = Point2.of(ctx, "2", "1"), Point2.of(ctx, "0.01", "-0.02")
        project_graph(p, curve, ctx)  # the helper is up
        jet = functools.partial(_quad_jet_late_in, helper._helper.pid, 0.1, ctx.mp.prec)
        slow = AnalyticCurve.checked(jet, ctx, "quad")
        want = self.in_process(q, curve, ctx)
        spy.fail = Interrupt()
        with pytest.raises(Interrupt):
            project_graph(p, slow, ctx)
        claims = helper._helper.claims
        for _ in range(5000):  # until the helper is in its first slow start
            if claims[32] == helper._HELPER:
                break
            time.sleep(0.001)
        del spy.calls[:]
        assert project_graph(q, slow, ctx).raw == want
        assert spy.starts() == [list(range(33))]
        assert spy.answers[-1] == set()

    @needs_helper
    def test_slow_caller_leaves_most_starts_to_the_helper(self, spy, ctx):
        curve = get_curve("quad", ctx)
        jet = functools.partial(_quad_jet_late_in, os.getpid(), 0.05, ctx.mp.prec)
        slow = AnalyticCurve.checked(jet, ctx, "quad")
        for p in (Point2.of(ctx, "0.01", "-0.02"), Point2.of(ctx, "-3", "0.25")):
            want = self.in_process(p, curve, ctx)
            del spy.calls[:]
            assert project_graph(p, slow, ctx).raw == want
            spy.assert_shared(curve.raw_jet)
            assert len(spy.starts()[0]) <= 16

    def test_lambda_jet_runs_every_start_in_process(self, spy, ctx):
        curve = get_curve("cubic", ctx)
        for p in self.points(ctx):
            want = project_graph(p, curve, ctx).raw
            del spy.calls[:]
            assert self.in_process(p, curve, ctx) == want
            assert spy.starts() == [list(range(33))]

    def test_projection_error_text_unchanged(self, spy, ctx):
        big, bend = (0, 1, 1000, 1), (1, 1, -999, 1)
        p = Point2.of(ctx, "0.25", "-0.5")
        show = functools.partial(ctx.mp.nstr, n=17)
        span = 2 * (1 + abs(p.z))
        want = (f"graph projection of ({show(p.x)}, {show(p.z)}): Newton failed from all 33 "
                f"starts on [{show(p.x - span)}, {show(p.x + span)}]")
        for jet, shared in ((lambda t: _flat_jet(big, bend, t), False),
                            (functools.partial(_flat_jet, big, bend), TWO_CPUS)):
            del spy.calls[:]
            with pytest.raises(ProjectionError) as info:
                project_graph(p, AnalyticCurve.checked(jet, ctx, "flat"), ctx)
            assert str(info.value) == want
            if shared:
                spy.assert_shared(jet)
            else:
                assert spy.starts() == [list(range(33))]

    @needs_helper
    def test_failed_helper_request_runs_every_start(self, spy, ctx):
        curve = get_curve("quad", ctx)
        jet = functools.partial(_quad_jet_in, os.getpid(), ctx.mp.prec)
        failing = curve._replace(raw_jet=jet)  # ``checked`` would call the jet before a request
        for p in self.points(ctx):
            want = self.in_process(p, curve, ctx)
            del spy.calls[:]
            assert project_graph(p, failing, ctx).raw == want
            shared, every = spy.starts()
            assert shared == list(range(len(shared))) and every == list(range(33))
            assert spy.answers[-1] is None
        assert helper._helper is not None

    @needs_helper
    def test_killed_helper_is_reaped_and_replaced(self, spy, ctx):
        curve = get_curve("sin-shift", ctx)
        p, q, r = self.points(ctx)[:3]
        project_graph(p, curve, ctx)
        pid = helper._helper.pid
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        for point, shared in ((q, False), (r, True)):
            want = self.in_process(point, curve, ctx)
            del spy.calls[:]
            assert project_graph(point, curve, ctx).raw == want
            if shared:
                spy.assert_shared(curve.raw_jet)
            else:
                assert spy.starts() == [list(range(33))]
                assert helper._helper is None
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
        assert helper._helper.pid != pid

    @needs_helper
    def test_drop_and_stay_serial_close_the_claim_table(self, ctx):
        # no mapping outlives its helper, in a ``bench`` pool worker either
        curve = get_curve("quad", ctx)
        p = Point2.of(ctx, "0.01", "-0.02")
        for drop in (helper._drop_helper, helper.stay_serial):
            project_graph(p, curve, ctx)
            dropped = helper._helper
            assert not dropped.claims.closed
            drop()
            assert dropped.claims.closed and helper._helper is None

    @needs_helper
    @pytest.mark.parametrize("exc", [Interrupt(), RuntimeError("jet failed")],
                             ids=["base", "error"])
    def test_no_stale_reply_after_an_exception(self, spy, ctx, exc):
        curve = get_curve("quad", ctx)
        p, q = Point2.of(ctx, "2", "1"), Point2.of(ctx, "0.01", "-0.02")
        project_graph(p, curve, ctx)  # the helper is up
        spy.fail = exc
        if isinstance(exc, Exception):
            # all 33 starts again, in start order
            assert project_graph(p, curve, ctx).raw == self.in_process(p, curve, ctx)
        else:
            with pytest.raises(Interrupt):
                project_graph(p, curve, ctx)
        want = self.in_process(q, curve, ctx)
        del spy.calls[:]
        assert project_graph(q, curve, ctx).raw == want
        spy.assert_shared(curve.raw_jet)

    @needs_helper
    @pytest.mark.parametrize("failed", ["eigensolve", "graph"])
    def test_eigensolve_and_graph_read_their_own_replies(self, spy, ctx, monkeypatch, failed):
        # an exhausted sweep budget leaves a stream without a reply, and a
        # failed graph request a reply nobody reads; the next eigensolve
        # and graph projection each read their own
        curve = get_curve("quad", ctx)
        p, q = Point2.of(ctx, "2", "1"), Point2.of(ctx, "0.01", "-0.02")
        x = differential_matrix("random", 5, 3, 0, ctx)
        with monkeypatch.context() as serial:
            serial.setattr(helper, "_live_helper", lambda: None)
            want = spectrum_bits(eig_sym(x, ctx))
        project_graph(p, curve, ctx)  # the helper is up
        if failed == "eigensolve":
            with monkeypatch.context() as budget:
                budget.setattr(numerics, "_sweep_budget", lambda n: 3)
                with pytest.raises(NonConvergenceError, match=r"exhausted \(3\)"):
                    eig_sym(x, ctx)
        else:
            spy.fail = RuntimeError("jet failed")
            assert project_graph(p, curve, ctx).raw == self.in_process(p, curve, ctx)
        del spy.answers[:]
        assert spectrum_bits(eig_sym(x, ctx)) == want
        assert len(spy.answers) == 1 and spy.answers[0] is not None
        want = self.in_process(q, curve, ctx)
        del spy.calls[:]
        assert project_graph(q, curve, ctx).raw == want
        spy.assert_shared(curve.raw_jet)


@st.composite
def positive_bound(draw, x):
    """A positive raw bound: of x's magnitude exp + bc, one off it, or
    anywhere; with the mantissa 1 (a power of two) or a random odd one;
    or |x| itself."""
    if x[1] and draw(st.booleans()):
        return (0,) + x[1:]
    man = 1 if draw(st.booleans()) else odd_mantissa(draw, draw(st.integers(2, 500)))
    bc = man.bit_length()
    mag = x[2] + x[3] if x[1] else draw(st.integers(-600, 600))
    mag += draw(st.sampled_from((0, 0, -1, 1, draw(st.integers(-700, 700)))))
    return (0, man, mag - bc, bc)


@st.composite
def power_of_two(draw):
    """A raw +-2^k, or zero (the f'' of a linear curve)."""
    if draw(st.integers(0, 4)) == 0:
        return fzero
    return (draw(st.integers(0, 1)), 1, draw(st.integers(-600, 600)), 1)


@pytest.mark.oracle
class TestGraphFastPaths:
    """The shortcuts of the graph projection's Newton step and root
    ranking against the calls they replace, at 40, 120 and 200 digits."""

    @given(data=st.data(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=400)
    def test_magnitude_compare_matches_libmp(self, data, digits):
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        x = data.draw(raw_operand(prec))
        bound = data.draw(positive_bound(x))
        assert _abs_le(x, bound) == mpf_le(mpf_abs(x), bound)

    def test_magnitude_compare_edges(self):
        for digits in DIGITS:
            ctx = PrecisionContext(decimal_digits=digits)
            res_tol, merge_tol = _graph_levels(ctx)
            escape = (ctx.mpf("0.3") + 12)._mpf_
            for bound in (res_tol, merge_tol, escape, fone):
                sign, man, exp, bc = bound
                # |x| equal to the bound, next to it on either side, in the
                # adjacent binades, and zero
                xs = [fzero, (1, man, exp, bc), (0, man, exp + 1, bc), (1, man, exp - 1, bc),
                      (0, 1, exp + bc, 1), (1, 1, exp + bc - 1, 1)]
                xs += [(0, m, exp - 1, m.bit_length()) for m in (2 * man - 1, 2 * man + 1)]
                for x in xs:
                    assert _abs_le(x, bound) == mpf_le(mpf_abs(x), bound), (digits, x, bound)

    @given(data=st.data(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=examples(200))
    def test_newton_starts_match_libmp(self, data, digits):
        # each start lo + width * k / 32 is one product by the exact k/32;
        # a jet that records its argument and a residual tolerance every
        # finite value meets stop each start at its first step
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        finite = raw_operand(prec).filter(lambda x: x[1] or x == fzero)
        lo, width = data.draw(finite), data.draw(finite)
        seen = []

        def jet(t):
            seen.append(t)
            return fzero, fone, fzero

        everything = (0, 1, 10 ** 6, 1)
        sets._newton_roots(jet, range(33), lo, width, fzero, fzero, everything, everything, prec)
        rnd = round_nearest
        assert seen == [
            mpf_add(lo, mpf_div(mpf_mul_int(width, k, prec, rnd), from_int(32), prec, rnd), prec, rnd)
            for k in range(33)
        ]

    @given(data=st.data(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=400)
    def test_power_of_two_product_matches_raw_mul(self, data, digits):
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        s = data.draw(raw_operand(prec))
        t = data.draw(power_of_two() | raw_operand(prec))
        assert _raw_mul_pow2(s, t, prec) == _raw_mul(s, t, prec) == mpf_mul(s, t, prec, round_nearest)

    def test_power_of_two_product_at_full_width(self):
        for digits in DIGITS:
            prec = PrecisionContext(decimal_digits=digits).mp.prec
            for man in (2 ** prec - 1, 2 ** (prec - 1) + 1, 2 ** prec + 1):
                for sign in (0, 1):
                    s = (sign, man, -prec, man.bit_length())
                    for t in (from_int(2), from_int(-2), fhalf, fzero, from_int(6)):
                        assert _raw_mul_pow2(s, t, prec) == mpf_mul(s, t, prec, round_nearest)

    @given(data=st.data(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=200)
    def test_quad_jet_doubling_matches_mpf(self, data, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        prec = ctx.mp.prec
        t = data.draw(raw_operand(prec))
        want = (mpf_add(t, mpf_mul(t, t, prec, round_nearest), prec, round_nearest),
                mpf_add(mpf_mul_int(t, 2, prec, round_nearest), fone, prec, round_nearest),
                from_int(2))
        assert get_curve("quad", ctx).raw_jet(t) == want

    @given(
        seed=st.integers(0, 2**32 - 1),
        digits=st.sampled_from(DIGITS),
        mirrored=st.booleans(),
        heads=st.integers(1, 4),
        members=st.integers(0, 4),
    )
    @settings(max_examples=150)
    def test_ranking_matches_mpf_ranking(self, seed, digits, mirrored, heads, members):
        # clusters whose later members lie within merge_tol of the head
        # (the last possibly beyond it), repeated roots, and with p at the
        # origin the mirror image (-t, f(t)) of each root, at the same
        # squared distance
        ctx = PrecisionContext(decimal_digits=digits)
        rng = random.Random(seed)
        tol = ctx.pow10(-(digits - 20))
        p = Point2.of(ctx, 0, 0) if mirrored else Point2.of(ctx, rng.uniform(-1, 1), rng.uniform(-1, 1))
        roots = []
        for _ in range(heads):
            head = ctx.mpf(rng.uniform(-3, 3)) / 7
            for k in range(members + 1):
                t = head + tol * ctx.mpf(rng.uniform(0, 2 if k == members else 0.9)) if k else head
                roots.append((t, t + t * t))
                if mirrored:
                    roots.append((-t, t + t * t))
        roots += rng.choices(roots, k=rng.randint(0, len(roots)))
        rng.shuffle(roots)
        want = bits(*mpf_nearest_root(roots, p.x, p.z, ctx))
        raw_roots = {bits(t, ft) for t, ft in roots}
        assert _nearest_root(raw_roots, p.raw, _graph_levels(ctx)[1], ctx.mp.prec) == want

    def test_ranking_ties_and_merges(self):
        for digits in DIGITS:
            ctx = PrecisionContext(decimal_digits=digits)
            merge_tol, prec = _graph_levels(ctx)[1], ctx.mp.prec
            origin = Point2.of(ctx, 0, 0)
            t, ft = ctx.mpf("0.25"), ctx.mpf("0.5")
            # equal squared distances: the smaller t wins
            tie = [(t, ft), (-t, ft)]
            assert _nearest_root({bits(*r) for r in tie}, origin.raw, merge_tol, prec) == bits(-t, ft)
            # a later member within merge_tol of its head is merged away,
            # even when it lies nearer the point
            near = t - ctx.mpf(merge_tol) / 2
            cluster = [(near - ctx.mpf(merge_tol) / 4, ft), (near, ft)]
            assert _nearest_root({bits(*r) for r in cluster}, Point2(near, ft).raw, merge_tol,
                                 prec) == bits(*cluster[0])
            for roots, p in ((tie, origin), (cluster, Point2(near, ft))):
                assert bits(*mpf_nearest_root(roots, p.x, p.z, ctx)) == _nearest_root(
                    {bits(*r) for r in roots}, p.raw, merge_tol, prec)


class TestReflection:
    def test_mirror(self, ctx):
        axis = HorizontalLine(ctx.mp.zero)
        assert reflect(axis, Point2.of(ctx, 1, 3), ctx) == Point2.of(ctx, 1, -3)

    def test_fixed_on_set(self, ctx):
        line = HorizontalLine(height=ctx.mpf("0.5"))
        p = Point2.of(ctx, "2.5", "0.5")
        assert reflect(line, p, ctx) == p

    @given(
        kind=st.sampled_from(("random", "axis", "origin", "x0")),
        height=st.sampled_from(("0", "0.5", "random")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=200)
    def test_line_matches_mpf_oracle(self, kind, height, seed, scale_exp, digits):
        # the closed form (x, 2h - z) against project(p) * 2 - p in mpf;
        # "axis" has z = 0, "x0" has x = 0 and "origin" both
        ctx = PrecisionContext(decimal_digits=digits)
        p = differential_point("random" if kind == "x0" else kind, seed, scale_exp, ctx)
        if kind == "x0":
            p = Point2(ctx.mp.zero, p.z)
        if height == "random":
            h = differential_point("random", seed + 1, -scale_exp, ctx).z
        else:
            h = ctx.mpf(height)
        want = Point2(p.x * 2 - p.x, h * 2 - p.z)
        assert point_bits(reflect(HorizontalLine(h), p, ctx)) == point_bits(want)

    @given(
        kind=st.sampled_from(("random", "axis", "origin")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=200)
    def test_circle_matches_mpf_oracle(self, kind, seed, scale_exp, digits):
        # the raw reflection against project_circle(p) * 2 - p in mpf; the
        # origin reflects through the selector (1, 0)
        ctx = PrecisionContext(decimal_digits=digits)
        p = differential_point(kind, seed, scale_exp, ctx)
        q = mpf_project_circle(p, ctx)
        want = Point2(q.x * 2 - p.x, q.z * 2 - p.z)
        assert point_bits(reflect(UnitCircle(), p, ctx)) == point_bits(want)

    def test_line_rounds_an_x_it_cannot_keep(self, ctx):
        # x infinite, or longer than the working precision: 2x - x is not x
        long_x = ctx.mp.make_mpf(PrecisionContext(decimal_digits=200).mp.pi._mpf_)
        line = HorizontalLine(ctx.mpf("0.5"))
        for x in (ctx.mpf("inf"), long_x):
            p = Point2(x, ctx.mpf(3))
            got = reflect(line, p, ctx)
            assert point_bits(got) == point_bits(Point2(x * 2 - x, ctx.mpf(-2)))
            assert got.raw[0] != x._mpf_

    def test_circle_outside(self, ctx):
        r = reflect(UnitCircle(), Point2.of(ctx, 2, 0), ctx)
        assert abs(r.x) <= ctx.pow10(-110) and abs(r.z) <= ctx.pow10(-110)

    def test_involution_on_affine_sets(self, ctx):
        rng = random.Random(3)
        line = HorizontalLine(height=ctx.mpf("0.5"))
        for _ in range(50):
            p = Point2.of(ctx, rng.uniform(-5, 5), rng.uniform(-5, 5))
            rr = reflect(line, reflect(line, p, ctx), ctx)
            assert dist(rr, p, ctx) <= ctx.pow10(-(ctx.decimal_digits - 15))
        for aff in (DiagOnes(), EntryOne()):
            for _ in range(20):
                x = sym_random(3, rng, ctx)
                rr = reflect(aff, reflect(aff, x, ctx), ctx)
                assert dist(rr, x, ctx) <= ctx.pow10(-(ctx.decimal_digits - 15))


def projected_reflection(s, p, ctx):
    """``project(p) * 2 - p`` through ``s.project``, entry by entry with
    ``_raw_reflect``: the expression every ``raw_reflect`` answers for."""
    return tuple(map(_raw_reflect, s.project(p, ctx).raw, p.raw, repeat(ctx.mp.prec)))


def plane_point(kind, seed, scale_exp, ctx):
    """A ``differential_point`` of kind "random", "axis" (z = 0) or
    "origin"; "x0" has x = 0, and "wide" an x with more bits than the
    working precision."""
    if kind in ("x0", "wide"):
        p = differential_point("random", seed, scale_exp, ctx)
        if kind == "x0":
            return Point2(ctx.mp.zero, p.z)
        wider = PrecisionContext(decimal_digits=ctx.decimal_digits + 10)
        x = differential_point("random", seed, scale_exp, wider).raw[0]
        assert x[3] > ctx.mp.prec
        return _vec(Point2, (x, p.raw[1]), ctx.mp)
    return differential_point(kind, seed, scale_exp, ctx)


class TestRawReflectionMatchesProjection:
    """Every set's ``raw_reflect`` against ``project`` + ``_raw_reflect``,
    bit for bit, at 40, 120 and 200 digits: the closed forms of the line
    and the circle, and the projecting reflection of the graph and matrix
    sets."""

    @given(
        shape=st.sampled_from(("axis-line", "line", "circle")),
        kind=st.sampled_from(("random", "axis", "x0", "origin", "wide")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=300)
    def test_line_and_circle(self, shape, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        s = {"axis-line": HorizontalLine(ctx.mp.zero),
             "line": HorizontalLine(differential_point("random", seed + 1, 0, ctx).z),
             "circle": UnitCircle()}[shape]
        p = plane_point(kind, seed, scale_exp, ctx)
        assert s.raw_reflect(p.raw, ctx) == projected_reflection(s, p, ctx)

    def test_circle_edges(self):
        # the origin reflects through the selector (1, 0); points on either
        # axis, and the circle's own points on them, reflect exactly
        for digits in DIGITS:
            ctx = PrecisionContext(decimal_digits=digits)
            circle = UnitCircle()
            assert circle.raw_reflect(Point2.of(ctx, 0, 0).raw, ctx) == Point2.of(ctx, 2, 0).raw
            for x, z, want in ((3, 0, (-1, 0)), (0, -3, (0, 1)), (1, 0, (1, 0)), (0, 1, (0, 1))):
                p = Point2.of(ctx, x, z)
                assert circle.raw_reflect(p.raw, ctx) == Point2.of(ctx, *want).raw
                assert circle.raw_reflect(p.raw, ctx) == projected_reflection(circle, p, ctx)

    @given(
        kind=st.sampled_from(("random", "axis", "x0", "origin")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=40)
    def test_graph(self, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        s = CurveGraph(get_curve("quad", ctx))
        p = plane_point(kind, seed, scale_exp, ctx)
        assert s.raw_reflect(p.raw, ctx) == projected_reflection(s, p, ctx)

    @given(
        s=st.sampled_from((PsdCone(), PsdBoundary(), DiagOnes(), EntryOne())),
        n=st.sampled_from((1, 2, 3, 5)),
        kind=st.sampled_from(("random", "sparse", "diagonal", "zero")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=100)
    def test_matrix_sets(self, s, n, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        x = differential_matrix(kind, n, seed, scale_exp, ctx)
        assert s.raw_reflect(x.raw, ctx) == projected_reflection(s, x, ctx)


class TestMatrixProjections:
    def test_psd_diagonal_clip(self, ctx):
        got = project_psd(SymMatrix.diag([1, -2], ctx), ctx)
        assert_mat_close(ctx, got, [[1, 0], [0, 0]], 10 * ctx.floor)

    def test_psd_identity_on_cone(self, ctx):
        x = mat(ctx, [[2, 1], [1, 2]])
        assert project_psd(x, ctx) == x

    def test_psd_hand_eigenpair(self, ctx):
        # eigenpair (-1, 1); the negative part is clipped
        got = project_psd(mat(ctx, [[0, 1], [1, 0]]), ctx)
        assert_mat_close(ctx, got, [["0.5", "0.5"], ["0.5", "0.5"]], 10 * ctx.floor)

    def test_boundary_positive_branch(self, ctx):
        got = project_psd_boundary(SymMatrix.diag([3, 1], ctx), ctx)
        assert_mat_close(ctx, got, [[3, 0], [0, 0]], 10 * ctx.floor)

    def test_boundary_cone_branch(self, ctx):
        got = project_psd_boundary(SymMatrix.diag([-1, 2], ctx), ctx)
        assert_mat_close(ctx, got, [[0, 0], [0, 2]], 10 * ctx.floor)

    def test_boundary_tie_zeroes_first_index(self, ctx):
        x = SymMatrix.diag([2, 2], ctx)
        got = project_psd_boundary(x, ctx)
        spectrum = eig_sym(x, ctx)
        raw_eigs = (ctx.mp.zero._mpf_, spectrum.raw_eigenvalues[1])
        expected = Spectrum(raw_eigs, spectrum.raw_basis, spectrum.mp).reconstruct()
        assert got == expected

    def test_boundary_lambda_min_small(self, ctx):
        from feasikit.numerics import eig_sym

        rng = random.Random(11)
        for _ in range(20):
            got = project_psd_boundary(sym_random(3, rng, ctx), ctx)
            lam_min = eig_sym(got, ctx).eigenvalues[0]
            assert abs(lam_min) <= 10 * ctx.floor

    def test_diag_ones_examples(self, ctx):
        got = project_diag_ones(mat(ctx, [[0, 2], [2, 0]]), ctx)
        assert got == mat(ctx, [[1, 2], [2, 1]])
        member = mat(ctx, [[1, "0.3"], ["0.3", 1]])
        assert project_diag_ones(member, ctx) == member

    def test_entry11_examples(self, ctx):
        assert project_entry11(mat(ctx, [[0, 2], [2, 5]]), ctx) == mat(ctx, [[1, 2], [2, 5]])
        member = mat(ctx, [[1, "0.2"], ["0.2", 9]])
        assert project_entry11(member, ctx) == member
        assert project_entry11(SymMatrix.diag([4, 7], ctx), ctx) == SymMatrix.diag([1, 7], ctx)


def averaging_diag_ones(x, ctx):
    """``project_diag_ones`` as it was, averaging each off-diagonal pair;
    the oracle for the version that keeps the entries."""
    rows = x.entries
    n = len(rows)
    one = ctx.mp.one
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = one
        for j in range(i + 1, n):
            avg = (rows[i][j] + rows[j][i]) / 2
            out[i][j] = out[j][i] = avg
    return SymMatrix.from_rows(out)


def averaging_entry11(x, ctx):
    """``project_entry11`` as it was, averaging each off-diagonal pair."""
    rows = x.entries
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    out[0][0] = ctx.mp.one
    for i in range(n):
        if i > 0:
            out[i][i] = rows[i][i]
        for j in range(i + 1, n):
            avg = (rows[i][j] + rows[j][i]) / 2
            out[i][j] = out[j][i] = avg
    return SymMatrix.from_rows(out)


class TestAffineProjectionsMatchAveraging:
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from((120, 40, 200)),
    )
    @settings(max_examples=100)
    def test_same_bits(self, n, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        assert ctx.floor._mpf_ == ctx.pow10(-(digits - 10))._mpf_
        # scaled by 1 - 1/q so that the entries carry full-length mantissas
        x = sym_random(n, random.Random(seed), ctx) * (
            (1 - ctx.mpf(1) / 999983) * ctx.pow10(scale_exp)
        )
        for new, old in ((project_diag_ones, averaging_diag_ones),
                         (project_entry11, averaging_entry11)):
            assert raw(new(x, ctx).entries) == raw(old(x, ctx).entries)


def mpf_project_psd(x, ctx):
    """``project_psd`` through the ``mpf`` Jacobi kernel and reconstruction,
    on ``mpf`` eigenvalues: its oracle."""
    spectrum = mpf_eig_sym(x, ctx)
    if spectrum.eigenvalues[0] >= 0:
        return x
    clipped = tuple(lam if lam > 0 else ctx.mp.zero for lam in spectrum.eigenvalues)
    return mpf_reconstruct(mpf_spectrum(clipped, spectrum.basis))


def mpf_project_psd_boundary(x, ctx):
    """``project_psd_boundary`` written with ``mpf`` objects; its oracle."""
    spectrum = mpf_eig_sym(x, ctx)
    if spectrum.eigenvalues[0] <= 0:
        mu = tuple(lam if lam > 0 else ctx.mp.zero for lam in spectrum.eigenvalues)
    else:
        mu = (ctx.mp.zero,) + spectrum.eigenvalues[1:]
    return mpf_reconstruct(mpf_spectrum(mu, spectrum.basis))


def mpf_project_diag_ones(x, ctx):
    """``project_diag_ones`` on ``mpf`` entries; its oracle."""
    rows = [list(row) for row in x.entries]
    for i in range(x.n):
        rows[i][i] = ctx.mp.one
    return SymMatrix.from_rows(rows)


def mpf_project_entry11(x, ctx):
    """``project_entry11`` on ``mpf`` entries; its oracle."""
    rows = [list(row) for row in x.entries]
    rows[0][0] = ctx.mp.one
    return SymMatrix.from_rows(rows)


MPF_MATRIX_PROJECTIONS = (
    (project_psd, mpf_project_psd),
    (project_psd_boundary, mpf_project_psd_boundary),
    (project_diag_ones, mpf_project_diag_ones),
    (project_entry11, mpf_project_entry11),
)


def differential_psd_input(kind, n, seed, scale_exp, ctx):
    """``differential_matrix``, or with kind "psd" a random one shifted by
    n 10^scale_exp I, which is positive definite."""
    if kind != "psd":
        return differential_matrix(kind, n, seed, scale_exp, ctx)
    x = differential_matrix("random", n, seed, scale_exp, ctx)
    return mpf_entrywise(x, SymMatrix.diag([n] * n, ctx) * ctx.pow10(scale_exp), operator.add)


class TestMatrixProjectionsMatchMpf:
    @given(
        n=st.sampled_from((3, 5, 2)),
        kind=st.sampled_from(("random", "psd", "sparse", "repeated", "diagonal", "zero")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=60)
    def test_same_bits(self, n, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        x = differential_psd_input(kind, n, seed, scale_exp, ctx)
        for new, old in MPF_MATRIX_PROJECTIONS:
            got, want = new(x, ctx), old(x, ctx)
            assert raw(got.entries) == raw(want.entries)
            # the cone projection hands back a PSD input itself
            assert (got is x) == (want is x)


class TestIdempotenceAndNonexpansiveness:
    SETS = None

    def make_sets(self, ctx):
        return [
            (HorizontalLine(ctx.mp.zero), "plane"),
            (HorizontalLine(height=ctx.mpf("0.5")), "plane"),
            (UnitCircle(), "plane"),
            (CurveGraph(get_curve("quad", ctx)), "plane"),
            (PsdCone(), "matrix"),
            (PsdBoundary(), "matrix"),
            (DiagOnes(), "matrix"),
            (EntryOne(), "matrix"),
        ]

    def test_idempotence(self, ctx):
        rng = random.Random(23)
        tol = ctx.pow10(-(ctx.decimal_digits - 15))
        for s, kind in self.make_sets(ctx):
            for _ in range(10):
                p = (
                    Point2.of(ctx, rng.uniform(-2, 2), rng.uniform(-2, 2))
                    if kind == "plane"
                    else sym_random(3, rng, ctx)
                )
                q = s.project(p, ctx)
                assert dist(s.project(q, ctx), q, ctx) <= tol * max(mpf_norm(q, ctx), ctx.mpf(1))

    def test_nonexpansive_on_convex_sets(self, ctx):
        rng = random.Random(29)
        slack = ctx.pow10(-100)
        convex = [
            (HorizontalLine(height=ctx.mpf("0.5")), "plane"),
            (DiagOnes(), "matrix"),
            (EntryOne(), "matrix"),
            (PsdCone(), "matrix"),
        ]
        for s, kind in convex:
            for _ in range(25):
                if kind == "plane":
                    p = Point2.of(ctx, rng.uniform(-3, 3), rng.uniform(-3, 3))
                    q = Point2.of(ctx, rng.uniform(-3, 3), rng.uniform(-3, 3))
                else:
                    p, q = sym_random(3, rng, ctx), sym_random(3, rng, ctx)
                assert dist(s.project(p, ctx), s.project(q, ctx), ctx) <= dist(p, q, ctx) + slack


class TestOptimalityOracle:
    """No sampled member of the target set is closer than the returned
    projection; membership generated with an independent numpy pipeline."""

    def to_np(self, m):
        return np.array([[float(v) for v in row] for row in m.entries])

    def np_member(self, target, x):
        if target == "psd":
            lam, q = np.linalg.eigh((x + x.T) / 2)
            return q @ np.diag(np.maximum(lam, 0.0)) @ q.T
        if target == "psd-boundary":
            lam, q = np.linalg.eigh((x + x.T) / 2)
            mu = np.maximum(lam, 0.0)
            mu[0] = 0.0
            return q @ np.diag(mu) @ q.T
        if target == "diag-ones":
            y = (x + x.T) / 2
            np.fill_diagonal(y, 1.0)
            return y
        y = (x + x.T) / 2
        y[0, 0] = 1.0
        return y

    @pytest.mark.parametrize("target", ["psd", "psd-boundary", "diag-ones", "entry11"])
    def test_projection_is_nearest(self, ctx, target):
        project = {
            "psd": project_psd,
            "psd-boundary": project_psd_boundary,
            "diag-ones": project_diag_ones,
            "entry11": project_entry11,
        }[target]
        rng = np.random.default_rng(101)
        mrng = random.Random(101)
        x = sym_random(3, mrng, ctx)
        ours = self.to_np(project(x, ctx))
        x_np = self.to_np(x)
        base_dist = np.linalg.norm(ours - x_np)
        for scale in (1e-3, 1e-2, 1e-1, 1.0):
            for _ in range(2500):
                d = rng.standard_normal((3, 3))
                candidate = self.np_member(target, ours + scale * d)
                assert np.linalg.norm(candidate - x_np) >= base_dist - 1e-9

