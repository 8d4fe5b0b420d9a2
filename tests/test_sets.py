import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasikit.analysis import sample_disk
from feasikit.numerics import Point2, PrecisionContext, Spectrum, SymMatrix, dist, norm
from feasikit.sets import (
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
)
from feasikit.theory import get_curve

from test_numerics import (
    DIGITS, differential_matrix, differential_point, mpf_eig_sym, mpf_reconstruct, point_bits, raw,
    sym_random,
)


def mat(ctx, rows):
    return SymMatrix.from_rows([[ctx.mpf(v) for v in row] for row in rows])


def assert_mat_close(ctx, got, expected_rows, tol):
    for i, row in enumerate(expected_rows):
        for j, v in enumerate(row):
            assert abs(got[i][j] - ctx.mpf(v)) <= tol, (i, j, got[i][j], v)


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
    once per Newton step and f again at each merged root; the oracle for
    ``project_graph``."""
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

    roots.sort()
    merged = [roots[0]]
    for t in roots[1:]:
        if abs(t - merged[-1]) > ctx.pow10(-(ctx.decimal_digits - 20)) * (1 + abs(t)):
            merged.append(t)

    def objective(t):
        dx = t - px
        dz = f(t) - pz
        return dx * dx + dz * dz

    best = min(merged, key=lambda t: (objective(t), t))
    return Point2(best, f(best))


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
    @given(
        seed=st.integers(0, 2**32 - 1),
        far=st.none() | st.tuples(*[st.floats(-3, 3)] * 2),
    )
    def test_project_graph_matches_separate_selector(self, ident, seed, far):
        # points in the 0.05 disk the graph problems sample from, or anywhere
        # with |x|, |z| <= 3 (scaled by 1 - 1/q for full-length mantissas)
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

    def test_curve_from_another_precision_rejected(self, ctx):
        p = Point2.of(ctx, "0.01", "0.02")
        with pytest.raises(ValueError, match="built at 40 digits, not 120"):
            project_graph(p, get_curve("quad", PrecisionContext(decimal_digits=40)), ctx)


class TestReflection:
    def test_mirror(self, ctx):
        axis = HorizontalLine(ctx.mp.zero)
        assert axis.reflect(Point2.of(ctx, 1, 3), ctx) == Point2.of(ctx, 1, -3)

    def test_fixed_on_set(self, ctx):
        line = HorizontalLine(height=ctx.mpf("0.5"))
        p = Point2.of(ctx, "2.5", "0.5")
        assert line.reflect(p, ctx) == p

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
        assert point_bits(HorizontalLine(h).reflect(p, ctx)) == point_bits(want)

    def test_line_rounds_an_x_it_cannot_keep(self, ctx):
        # x infinite, or longer than the working precision: 2x - x is not x
        long_x = ctx.mp.make_mpf(PrecisionContext(decimal_digits=200).mp.pi._mpf_)
        line = HorizontalLine(ctx.mpf("0.5"))
        for x in (ctx.mpf("inf"), long_x):
            p = Point2(x, ctx.mpf(3))
            got = line.reflect(p, ctx)
            assert point_bits(got) == point_bits(Point2(x * 2 - x, ctx.mpf(-2)))
            assert got.raw[0] != x._mpf_

    def test_circle_outside(self, ctx):
        r = UnitCircle().reflect(Point2.of(ctx, 2, 0), ctx)
        assert abs(r.x) <= ctx.pow10(-110) and abs(r.z) <= ctx.pow10(-110)

    def test_involution_on_affine_sets(self, ctx):
        rng = random.Random(3)
        line = HorizontalLine(height=ctx.mpf("0.5"))
        for _ in range(50):
            p = Point2.of(ctx, rng.uniform(-5, 5), rng.uniform(-5, 5))
            rr = line.reflect(line.reflect(p, ctx), ctx)
            assert dist(rr, p, ctx) <= ctx.pow10(-(ctx.decimal_digits - 15))
        for aff in (DiagOnes(), EntryOne()):
            for _ in range(20):
                x = sym_random(3, rng, ctx)
                rr = aff.reflect(aff.reflect(x, ctx), ctx)
                assert norm(rr - x, ctx) <= ctx.pow10(-(ctx.decimal_digits - 15))


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
        from feasikit.numerics import eig_sym

        x = SymMatrix.diag([2, 2], ctx)
        got = project_psd_boundary(x, ctx)
        spectrum = eig_sym(x, ctx)
        expected = spectrum.with_eigenvalues((ctx.mp.zero, spectrum.eigenvalues[1])).reconstruct()
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
    return mpf_reconstruct(Spectrum(clipped, spectrum.basis))


def mpf_project_psd_boundary(x, ctx):
    """``project_psd_boundary`` written with ``mpf`` objects; its oracle."""
    spectrum = mpf_eig_sym(x, ctx)
    if spectrum.eigenvalues[0] <= 0:
        mu = tuple(lam if lam > 0 else ctx.mp.zero for lam in spectrum.eigenvalues)
    else:
        mu = (ctx.mp.zero,) + spectrum.eigenvalues[1:]
    return mpf_reconstruct(Spectrum(mu, spectrum.basis))


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
    return x + SymMatrix.diag([n] * n, ctx) * ctx.pow10(scale_exp)


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
                assert dist(s.project(q, ctx), q, ctx) <= tol * max(norm(q, ctx), ctx.mpf(1))

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

