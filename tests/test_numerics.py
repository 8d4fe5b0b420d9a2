import contextlib
import copy
import io
import operator
import os
import pickle
import random
import re
import signal

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import (
    ComplexResult, fhalf, finf, fnan, fninf, fnone, fone, from_int, from_man_exp, ftwo, fzero,
    mpf_abs, mpf_add,
    mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow_int, mpf_rdiv_int, mpf_sqrt,
    mpf_sub, round_nearest,
)

from conftest import TWO_CPUS, examples, helper_allowed, needs_helper
from feasikit import cli, helper, numerics
from feasikit.numerics import (
    FeasikitError,
    NonConvergenceError,
    Point2,
    PrecisionContext,
    SingularMatrixError,
    Spectrum,
    SymMatrix,
    _le_product,
    _off_diagonal_sq,
    _raw_add,
    _raw_div,
    _raw_midpoint,
    _raw_mul,
    _raw_mul_pow2,
    _raw_reflect,
    _raw_sqrt,
    _raw_sub,
    _rotate,
    _rotation,
    _stop_by_exponents,
    dist,
    eig_sym,
    inner,
    norm,
    solve2x2,
)
from feasikit.sets import project_circle, project_psd


def sym_random(n, rng, ctx):
    u = [[ctx.mpf(rng.uniform(-1.0, 1.0)) for _ in range(n)] for _ in range(n)]
    return SymMatrix.from_rows(
        [[(u[i][j] + u[j][i]) / 2 for j in range(n)] for i in range(n)]
    )


class TestPrecisionContext:
    def test_defaults(self, ctx):
        assert ctx.decimal_digits == 120
        assert ctx.floor == ctx.pow10(-110)

    def test_only_the_precision_is_settable(self):
        for derived in ("mp", "floor", "eig_tol", "col_tol"):
            with pytest.raises(TypeError):
                PrecisionContext(decimal_digits=40, **{derived: None})

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            PrecisionContext(decimal_digits=20)

    def test_equal_by_precision(self):
        # sets._graph_levels and solvers._stop_levels are caches keyed on it
        a, b = PrecisionContext(120), PrecisionContext(120)
        assert a == b and hash(a) == hash(b)
        assert PrecisionContext(120) != PrecisionContext(40)

    def test_immutable(self):
        ctx = PrecisionContext(120)
        for name in ("decimal_digits", "mp", "floor"):
            with pytest.raises(AttributeError):
                setattr(ctx, name, None)
        assert ctx.decimal_digits == 120

    def test_copies_and_pickles_share_the_context(self):
        ctx = PrecisionContext(40)
        for again in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert again == ctx and again.mp is ctx.mp and again.floor is ctx.floor

    def test_no_global_state(self, ctx):
        other = PrecisionContext(decimal_digits=40)
        x = ctx.mp.sqrt(ctx.mpf(2))
        y = other.mp.sqrt(other.mpf(2))
        # contexts keep their own precision regardless of creation order
        assert ctx.to_str(x) != other.to_str(y)
        assert abs(x - ctx.mpf(other.to_str(y))) < ctx.pow10(-35)

    def test_one_mpmath_context_per_precision(self):
        a, b = PrecisionContext(decimal_digits=120), PrecisionContext(decimal_digits=120)
        assert a.mp is b.mp
        assert a.floor is b.floor
        low = PrecisionContext(decimal_digits=40)
        assert low.mp is not a.mp
        assert (low.mp.dps, a.mp.dps) == (40, 120)

    def test_scalar_string_round_trip(self, ctx):
        x = ctx.mp.sqrt(ctx.mpf(3)) / 7
        again = ctx.mpf(ctx.to_str(x))
        assert abs(x - again) <= ctx.pow10(-(ctx.decimal_digits - 3))


class TestPoint2:
    def test_arithmetic(self, ctx):
        p = Point2.of(ctx, 1, 2)
        q = Point2.of(ctx, 3, -1)
        assert (p + q) == Point2.of(ctx, 4, 1)
        assert (p - q) == Point2.of(ctx, -2, 3)
        assert p * ctx.mpf(2) == Point2.of(ctx, 2, 4)
        assert inner(p, q) == ctx.mpf(1)

    def test_views_hold_the_given_bits(self, ctx):
        x, z = ctx.mp.sqrt(ctx.mpf(2)), -ctx.mp.pi
        p = Point2(x, z)
        assert (p.x._mpf_, p.z._mpf_) == (x._mpf_, z._mpf_)
        assert p.raw == (x._mpf_, z._mpf_)
        assert p.x.context is ctx.mp and p.z.context is ctx.mp
        assert (-p).x._mpf_ == (-x)._mpf_ and (-p).z._mpf_ == (-z)._mpf_
        assert (copy.copy(p).raw[0], copy.deepcopy(p).raw[1]) == (x._mpf_, z._mpf_)

    def test_equality_by_value(self, ctx):
        low = PrecisionContext(decimal_digits=40)
        assert Point2.of(ctx, "0.5", 3) == Point2.of(low, "0.5", 3)
        assert hash(Point2.of(ctx, "0.5", 3)) == hash(Point2.of(low, "0.5", 3))
        assert Point2.of(ctx, "0.5", 3) != Point2.of(ctx, "0.5", -3)
        assert Point2.of(ctx, 1, 2) != (ctx.mpf(1), ctx.mpf(2))

    def test_coordinates_are_read_only(self, ctx):
        p = Point2.of(ctx, 1, 2)
        for name in ("x", "z"):
            with pytest.raises(AttributeError):
                setattr(p, name, ctx.mpf(5))
        assert p == Point2.of(ctx, 1, 2)

    def test_rounds_at_the_precision_of_x(self, ctx):
        # z from the 120-digit context keeps its bits in the point, and the
        # arithmetic rounds it at x's 40 digits
        low = PrecisionContext(decimal_digits=40)
        z = ctx.mpf(1) / 3
        p = Point2(low.mpf(2), z)
        assert p.z._mpf_ == z._mpf_
        assert (p * low.mpf(1)).z._mpf_ == low.mpf(z)._mpf_ != z._mpf_
        assert (p + Point2.of(low, 0, 0)).z._mpf_ == low.mpf(z)._mpf_
        prec = low.mp.prec
        zz = mpf_mul(z._mpf_, z._mpf_, prec, round_nearest)
        assert inner(p, p)._mpf_ == mpf_add(low.mpf(4)._mpf_, zz, prec, round_nearest)


def sample_vec(kind, seed, ctx):
    """A random Point2, or a random 3 x 3 SymMatrix, drawn from seed."""
    if kind == "point":
        return differential_point("random", seed, 0, ctx)
    return differential_matrix("random", 3, seed, 0, ctx)


class TestVec:
    """What Point2 and SymMatrix share through Vec."""

    @pytest.mark.parametrize("kind", ("point", "matrix"))
    def test_arithmetic_keeps_the_type(self, kind, ctx):
        a, b = sample_vec(kind, 1, ctx), sample_vec(kind, 2, ctx)
        s = ctx.mpf(1) / 3
        for got in (a + b, a - b, a * s, s * a, -a):
            assert type(got) is type(a)
            if kind == "matrix":
                assert got.n == a.n
                assert raw(got.entries) == raw(tuple(zip(*got.entries)))
        # only an mpf scales a vector
        for bad in (lambda: a * 2, lambda: 2 * a):
            with pytest.raises(TypeError):
                bad()

    def test_point_never_equals_matrix(self, ctx):
        # the matrices lead with the point's entries
        p = Point2.of(ctx, 1, 0)
        for m in (SymMatrix.diag([1], ctx), SymMatrix.diag([1, 0], ctx)):
            assert p != m and m != p
            assert not (p == m or m == p)
        assert SymMatrix.diag([1], ctx) != SymMatrix.diag([1, 0], ctx)


class TestSymMatrix:
    def test_rejects_asymmetric(self, ctx):
        with pytest.raises(ValueError):
            SymMatrix.from_rows([[ctx.mpf(1), ctx.mpf(2)], [ctx.mpf(3), ctx.mpf(4)]])

    def test_names_a_nan_entry(self, ctx):
        # nan equals nothing, so it would read as an asymmetry
        one, nan = ctx.mpf(1), ctx.mp.nan
        for rows, where in (([[one, nan], [nan, one]], "(0,1)"),
                            ([[one, one], [nan, one]], "(1,0)")):
            message = f"matrix entry {where} is nan, not finite"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SymMatrix.from_rows(rows)

    def test_rejects_non_square(self, ctx):
        with pytest.raises(ValueError):
            SymMatrix.from_rows([[ctx.mpf(1), ctx.mpf(2)]])

    def test_equality_by_value(self, ctx):
        # TestPoint2::test_equality_by_value for matrices
        low = PrecisionContext(decimal_digits=40)

        def build(c, z):
            return SymMatrix.from_rows([[c.mpf("0.5"), c.mpf(z)], [c.mpf(z), c.mpf(2)]])

        assert build(ctx, 3) == build(low, 3)
        assert hash(build(ctx, 3)) == hash(build(low, 3))
        assert build(ctx, 3) != build(ctx, -3)

    def test_arithmetic_on_int_entries(self, ctx):
        # an int matrix times an mpf becomes a matrix of mpf entries
        a = SymMatrix.from_rows([[2, -3], [-3, 1]])
        m = a * ctx.mpf(1)
        assert raw(m.entries) == raw([[ctx.mpf(2), ctx.mpf(-3)], [ctx.mpf(-3), ctx.mpf(1)]])
        assert raw((m + m).entries) == raw((a * ctx.mpf(2)).entries)

    def test_frobenius_inner(self, ctx):
        x = SymMatrix.diag([1, 2], ctx)
        y = SymMatrix.diag([3, 4], ctx)
        assert inner(x, y) == ctx.mpf(11)
        assert norm(x - y, ctx) == ctx.mp.sqrt(ctx.mpf(8))


class TestEig:
    def test_already_diagonal(self, ctx):
        s = eig_sym(SymMatrix.diag([2, -1], ctx), ctx)
        assert s.eigenvalues == (ctx.mpf(-1), ctx.mpf(2))
        # columns are the permuted identity
        assert s.basis == ((ctx.mpf(0), ctx.mpf(1)), (ctx.mpf(1), ctx.mpf(0)))

    def test_two_by_two_exchange(self, ctx):
        # characteristic polynomial of [[0,1],[1,0]] gives lambda = -1, 1
        # with eigenvectors (1,-1)/sqrt(2) and (1,1)/sqrt(2)
        x = SymMatrix.from_rows([[ctx.mpf(0), ctx.mpf(1)], [ctx.mpf(1), ctx.mpf(0)]])
        s = eig_sym(x, ctx)
        tol = 10 * ctx.floor
        assert abs(s.eigenvalues[0] + 1) <= tol
        assert abs(s.eigenvalues[1] - 1) <= tol
        inv_sqrt2 = 1 / ctx.mp.sqrt(ctx.mpf(2))
        expected = ((inv_sqrt2, inv_sqrt2), (-inv_sqrt2, inv_sqrt2))
        for i in range(2):
            for j in range(2):
                assert abs(s.basis[i][j] - expected[i][j]) <= tol

    def test_identity(self, ctx):
        identity = SymMatrix.diag([1, 1, 1], ctx)
        s = eig_sym(identity, ctx)
        assert s.eigenvalues == (ctx.mpf(1),) * 3
        assert s.basis == identity.entries

    def test_residuals_random(self, ctx):
        rng = random.Random(5)
        tol = 10 * ctx.floor
        for trial in range(30):
            n = rng.randint(1, 6)
            x = sym_random(n, rng, ctx)
            s = eig_sym(x, ctx)
            assert all(a <= b for a, b in zip(s.eigenvalues, s.eigenvalues[1:]))
            assert norm(s.reconstruct() - x, ctx) <= tol * max(norm(x, ctx), ctx.mpf(1))
            qtq = [
                [
                    sum(s.basis[k][i] * s.basis[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            ortho_sq = sum(
                (qtq[i][j] - (1 if i == j else 0)) ** 2
                for i in range(n)
                for j in range(n)
            )
            assert ctx.mp.sqrt(ortho_sq) <= tol

    def test_deterministic(self, ctx):
        rng = random.Random(9)
        x = sym_random(4, rng, ctx)
        s1 = eig_sym(x, ctx)
        s2 = eig_sym(x, ctx)
        assert s1.eigenvalues == s2.eigenvalues
        assert s1.basis == s2.basis

    def test_rejects_non_finite_entries(self, ctx):
        one, zero, inf, nan = ctx.mpf(1), ctx.mp.zero, ctx.mp.inf, ctx.mp.nan
        # an infinite goal once passed the first stop test, giving (1, 1);
        # a nan ran every sweep and reported a residual of 0.0
        for rows, entry in (([[one, inf], [inf, one]], "entry (0,1) is +inf"),
                            ([[nan, zero], [zero, one]], "entry (0,0) is nan")):
            x = SymMatrix.from_rows(rows)
            message = f"eig_sym: {entry}, not finite"
            with pytest.raises(FeasikitError, match=f"^{re.escape(message)}$"):
                eig_sym(x, ctx)
            with pytest.raises(FeasikitError, match="not finite"):
                project_psd(x, ctx)

    def test_psdb_stop_tests_are_decided_by_exponents(self, monkeypatch):
        # the eigensolves of one psdb-s1 LT run: at least 90% of the stop
        # tests are decided without rounding the off-diagonal mass
        tests, exact = [], []
        stop, off_sq = numerics._stop_by_exponents, numerics._off_diagonal_sq

        def count_stop(*args):
            tests.append(args[1])
            return stop(*args)

        def count_off_sq(*args):
            exact.append(args[1])
            return off_sq(*args)

        monkeypatch.setattr(numerics, "_stop_by_exponents", count_stop)
        monkeypatch.setattr(numerics, "_off_diagonal_sq", count_off_sq)
        argv = ["run", "--problem", "psdb-s1", "--method", "lt", "--dim", "3", "--tol", "1e-30",
                "--seed", "1", "--no-times"]
        with helper_allowed(False), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(tests) > 500 and set(tests) == {3}
        assert len(exact) <= len(tests) // 10


def mpf_eig_sym(X, ctx):
    """The Jacobi kernel written with ``mpf`` objects and operators; the
    oracle for the raw-tuple ``eig_sym``."""
    n = X.n
    one, zero = ctx.mp.one, ctx.mp.zero
    a = [list(row) for row in X.entries]
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]

    norm_x = ctx.mp.sqrt(sum(x * x for row in X.entries for x in row))
    if n == 1 or norm_x == 0:
        return _sorted_spectrum([a[i][i] for i in range(n)], v, n)

    off_goal_sq = (ctx.floor * norm_x) ** 2
    max_sweeps = 30 * n * n
    for _ in range(max_sweeps):
        off_sq = 2 * sum(
            a[p][q] * a[p][q] for p in range(n) for q in range(p + 1, n)
        )
        if off_sq <= off_goal_sq:
            return _sorted_spectrum([a[i][i] for i in range(n)], v, n)
        for p in range(n):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2 * apq)
                sign = -1 if tau < 0 else 1
                t = sign / (abs(tau) + ctx.mp.sqrt(1 + tau * tau))
                c = 1 / ctx.mp.sqrt(1 + t * t)
                s = t * c
                a[p][p] = a[p][p] - t * apq
                a[q][q] = a[q][q] + t * apq
                a[p][q] = a[q][p] = zero
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = a[p][i] = c * aip - s * aiq
                    a[i][q] = a[q][i] = s * aip + c * aiq
                for i in range(n):
                    vip, viq = v[i][p], v[i][q]
                    v[i][p] = c * vip - s * viq
                    v[i][q] = s * vip + c * viq
    raise NonConvergenceError("Jacobi sweeps exhausted")


def _sorted_spectrum(diag, v, n) -> Spectrum:
    perm = sorted(range(n), key=lambda k: diag[k])  # stable for ties
    cols = []
    for k in perm:
        col = [v[i][k] for i in range(n)]
        peak = 0
        for i in range(1, n):
            if abs(col[i]) > abs(col[peak]):
                peak = i
        if col[peak] < 0:
            col = [-x for x in col]
        cols.append(col)
    basis = tuple(tuple(cols[k][i] for k in range(n)) for i in range(n))
    return mpf_spectrum(tuple(diag[k] for k in perm), basis)


def mpf_spectrum(eigenvalues, basis) -> Spectrum:
    """The raw Spectrum of ``mpf`` eigenvalues and ``mpf`` basis rows."""
    return Spectrum(tuple(x._mpf_ for x in eigenvalues),
                    tuple(x._mpf_ for row in basis for x in row), basis[0][0].context)


def mpf_reconstruct(spectrum):
    """``Spectrum.reconstruct`` written with ``mpf`` operators; its oracle."""
    n = spectrum.n
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = sum(
                spectrum.basis[i][k] * spectrum.eigenvalues[k] * spectrum.basis[j][k]
                for k in range(n)
            )
            rows[i][j] = acc
            rows[j][i] = acc
    return SymMatrix(tuple(tuple(row) for row in rows))


def raw(rows):
    return tuple(tuple(x._mpf_ for x in row) for row in rows)


def spectrum_bits(s):
    return tuple(x._mpf_ for x in s.eigenvalues), raw(s.basis)


def differential_matrix(kind, n, seed, scale_exp, ctx):
    """A symmetric matrix of the given kind with entries drawn from
    ``seed`` and scaled by 10^scale_exp; they carry full-length mantissas,
    so that every rounding in the kernel matters."""
    rng = random.Random(seed)
    shrink = (1 - ctx.mpf(1) / 999983) * ctx.pow10(scale_exp)
    vals = [ctx.mpf(rng.uniform(-1.0, 1.0)) * shrink for _ in range(n * n + 1)]
    if kind == "zero":
        return SymMatrix.diag([0] * n, ctx)
    if kind == "diagonal":
        return SymMatrix.diag(vals[:n], ctx)
    if kind == "repeated":
        # c I + u u^T: eigenvalue c with multiplicity n - 1
        c, u = vals[0], vals[1:n + 1]
        return SymMatrix.from_rows(
            [[(c if i == j else 0) + u[i] * u[j] for j in range(n)] for i in range(n)]
        )
    if kind == "near-goal":
        # a diagonal matrix plus off-diagonal entries floor * 2^k times its
        # largest entry, k in [-2, 2]: the first stop test falls where the
        # exponents cannot decide it, and tau is large
        big = max(abs(x) for x in vals[:n]) * ctx.floor
        off = [x * big * 2 ** rng.randint(-2, 2) for x in vals[n:]]
        return SymMatrix.from_rows([[vals[i] if i == j else off[min(i, j) * n + max(i, j)]
                                     for j in range(n)] for i in range(n)])
    rows = [[vals[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "sparse":  # zero off-diagonal entries take the skip path
        rows = [[x if i == j or (i + j) % 2 else 0 * x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return SymMatrix.from_rows(rows)


class TestRawKernelsMatchMpf:
    @pytest.mark.oracle
    @given(
        n=st.sampled_from((3, 5, 2, 4, 1)),
        kind=st.sampled_from(("random", "sparse", "repeated", "diagonal", "zero", "near-goal")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from((120, 40, 200)),
    )
    @settings(max_examples=examples(200))
    def test_eig_sym_and_reconstruct(self, n, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        x = differential_matrix(kind, n, seed, scale_exp, ctx)
        got = eig_sym(x, ctx)
        assert spectrum_bits(got) == spectrum_bits(mpf_eig_sym(x, ctx))
        zero = ctx.mp.zero
        # the eigenvalue maps of project_psd and project_psd_boundary
        clipped = tuple(lam if lam > 0 else zero for lam in got.eigenvalues)
        for mu in (got.eigenvalues, clipped, (zero,) + got.eigenvalues[1:]):
            s = Spectrum(tuple(x._mpf_ for x in mu), got.raw_basis, got.mp)
            assert raw(s.reconstruct().entries) == raw(mpf_reconstruct(s).entries)

    def test_empty_reconstruct(self):
        assert Spectrum((), (), None).reconstruct() == SymMatrix(())


class TestEigHelper:
    """``eig_sym`` with its eigenvectors accumulated in the forked helper
    against ``stay_serial`` and the ``mpf`` oracle: the same bits, whatever
    happens to the helper."""

    @given(
        n=st.integers(1, 5),
        kind=st.sampled_from(("random", "sparse", "repeated", "diagonal", "zero")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from((120, 40, 200)),
    )
    @settings(max_examples=60)
    def test_helper_matches_serial_and_mpf(self, n, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        x = differential_matrix(kind, n, seed, scale_exp, ctx)
        with helper_allowed(True):
            got = spectrum_bits(eig_sym(x, ctx))
            # n == 1 and the zero matrix return before the first sweep,
            # and a 2x2 keeps its rotations
            if TWO_CPUS and n > 2 and kind != "zero":
                assert helper._helper is not None
        with helper_allowed(False):
            assert spectrum_bits(eig_sym(x, ctx)) == got
            assert helper._helper is None
        assert got == spectrum_bits(mpf_eig_sym(x, ctx))

    @needs_helper
    def test_killed_helper_is_reaped_and_replaced(self, monkeypatch):
        ctx = PrecisionContext(decimal_digits=120)
        x = differential_matrix("random", 5, 11, 0, ctx)
        want = spectrum_bits(mpf_eig_sym(x, ctx))
        real_ask, real_replay = helper._Helper.ask, numerics._rotated_identity
        sent, replays = [], []

        def ask(self, request, new=True):
            sent.append(new)
            if len(sent) == 3:  # the third sweep of the stream
                os.kill(self.pid, signal.SIGKILL)
                os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
            return real_ask(self, request, new)

        def replay(n, sweeps, prec):
            replays.append(sweeps)
            return real_replay(n, sweeps, prec)

        monkeypatch.setattr(numerics, "_rotated_identity", replay)
        with helper_allowed(True):
            assert spectrum_bits(eig_sym(x, ctx)) == want
            assert replays == []  # the helper's basis
            pid = helper._helper.pid
            monkeypatch.setattr(helper._Helper, "ask", ask)
            assert spectrum_bits(eig_sym(x, ctx)) == want
            assert sent == [True, False, False]
            assert len(replays) == 1 and len(replays[0]) > 3  # every sweep, here
            assert helper._helper is None
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
            assert spectrum_bits(eig_sym(x, ctx)) == want
            assert helper._helper is not None and helper._helper.pid != pid
            assert len(replays) == 1

    @pytest.mark.parametrize("n", [3, 5])
    def test_exhausted_sweeps_raise_the_serial_error(self, monkeypatch, n):
        ctx = PrecisionContext(decimal_digits=120)
        x = differential_matrix("random", n, 5, 0, ctx)
        monkeypatch.setattr(numerics, "_sweep_budget", lambda n: 2)
        errors = []
        for allowed in (False, True):
            with helper_allowed(allowed), pytest.raises(NonConvergenceError) as info:
                eig_sym(x, ctx)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("Jacobi sweeps exhausted (2) with off-diagonal residual ")


DIGITS = (40, 120, 200)


def odd_mantissa(draw, bits):
    """An odd mantissa of exactly ``bits`` bits (normalized mpf mantissas
    are odd)."""
    return draw(st.integers(2 ** (bits - 1), 2 ** bits - 1)) | 1


@st.composite
def sqrt_inputs(draw):
    """Raw nonnegative mpf tuples: random mantissas of 1-900 bits, exact
    squares, and powers of two, with odd and even exponents."""
    exp = draw(st.integers(-800, 800))
    kind = draw(st.sampled_from(("random", "square", "power")))
    if kind == "random":
        man = odd_mantissa(draw, draw(st.integers(1, 900)))
    elif kind == "square":
        man = odd_mantissa(draw, draw(st.integers(1, 450))) ** 2
        exp -= exp & 1  # an even exponent keeps it a square
    else:
        man = 1
    return (0, man, exp, man.bit_length())


class TestRawSqrt:
    """``_raw_sqrt`` against ``mpf_sqrt``, which it copies with
    ``math.isqrt`` for ``sqrtrem``."""

    @given(s=sqrt_inputs(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=400)
    def test_matches_mpf_sqrt(self, s, digits):
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        assert _raw_sqrt(s, prec) == mpf_sqrt(s, prec, round_nearest)

    def test_exact_squares_and_powers(self):
        for digits in DIGITS:
            prec = PrecisionContext(decimal_digits=digits).mp.prec
            for man in (1, 9, 3 ** 80, (2 ** 300 + 1) ** 2):
                for exp in (-7, -6, 0, 1, 2, 801):
                    s = (0, man, exp, man.bit_length())
                    assert _raw_sqrt(s, prec) == mpf_sqrt(s, prec, round_nearest), (man, exp)

    def test_zero_and_special_values(self):
        for s in (fzero, finf, fnan):
            assert _raw_sqrt(s, 402) == mpf_sqrt(s, 402, round_nearest)

    def test_negative_input_raises_as_mpf_sqrt(self):
        for s in ((1, 3, -4, 2), (1, 1, 0, 1), fninf):
            with pytest.raises(ComplexResult):
                mpf_sqrt(s, 402, round_nearest)
            with pytest.raises(ComplexResult):
                _raw_sqrt(s, 402)


def mpf_entrywise(a, b, op):
    """``op`` entry by entry with ``mpf`` operators, b a SymMatrix or a
    scalar: the oracle for SymMatrix's raw ``+``, ``-`` and ``*``."""
    rows_b = b.entries if isinstance(b, SymMatrix) else [[b] * a.n] * a.n
    return SymMatrix(tuple(tuple(op(x, y) for x, y in zip(ra, rb))
                           for ra, rb in zip(a.entries, rows_b)))


SPECIALS = (fzero, finf, fninf, fnan)


@st.composite
def raw_operand(draw, prec):
    """A raw mpf tuple: a random odd mantissa of up to prec bits, the
    mantissa 1, an all-ones mantissa of up to prec bits, one wider than
    prec (it rounds up to a power of two), or zero or a special value."""
    kind = draw(st.sampled_from(("random", "one", "ones", "wide", "special")))
    if kind == "special":
        return draw(st.sampled_from(SPECIALS))
    if kind == "one":
        man = 1
    elif kind == "ones":
        man = 2 ** draw(st.integers(1, prec)) - 1
    elif kind == "wide":
        man = 2 ** draw(st.integers(prec + 1, prec + 40)) - 1
    else:
        man = odd_mantissa(draw, draw(st.integers(1, prec)))
    return (draw(st.integers(0, 1)), man, draw(st.integers(-600, 600)), man.bit_length())


@st.composite
def raw_operands(draw):
    """(s, t, prec) at 40, 120 or 200 digits.  t may be s up to sign (exact
    cancellation), or sit at an exponent offset of 99-101 below or above
    s, or with its leading bit prec + 3 to prec + 5 bits below s's (the
    edges of ``mpf_add``'s perturbation rule)."""
    prec = PrecisionContext(decimal_digits=draw(st.sampled_from(DIGITS))).mp.prec
    s, t = draw(raw_operand(prec)), draw(raw_operand(prec))
    relation = draw(st.sampled_from(("free", "cancel", "offset", "gap")))
    if s[1] and t[1]:
        if relation == "cancel":
            t = (draw(st.integers(0, 1)),) + s[1:]
        elif relation == "offset":
            t = (t[0], t[1], s[2] - draw(st.sampled_from((99, 100, 101, -99, -100, -101))), t[3])
        elif relation == "gap":
            gap = prec + draw(st.sampled_from((3, 4, 5)))
            t = (t[0], t[1], s[2] + s[3] - gap - t[3], t[3])
    if draw(st.booleans()):
        s, t = t, s
    return s, t, prec


def outcome(f, *args):
    """f(*args), or the ZeroDivisionError it raises."""
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.oracle
class TestRawArith:
    """The raw primitives against the ``libmp`` functions they copy, and the
    reflection and midpoint kernels against the ``libmp`` calls of
    ``q * 2 - x`` and ``(s + t) * 0.5``."""

    @staticmethod
    def check(s, t, n, prec):
        rnd = round_nearest
        assert _raw_add(s, t, prec) == mpf_add(s, t, prec, rnd)
        assert _raw_sub(s, t, prec) == mpf_sub(s, t, prec, rnd)
        assert _raw_mul(s, t, prec) == mpf_mul(s, t, prec, rnd)
        assert _raw_mul(s, s, prec) == mpf_pow_int(s, 2, prec, rnd)
        # a product by an int, as SymMatrix's int entries take it
        assert _raw_mul(s, from_int(n), prec) == mpf_mul_int(s, n, prec, rnd)
        assert outcome(_raw_div, s, t, prec) == outcome(mpf_div, s, t, prec, rnd)
        # eig_sym's 1/t and -1/t
        assert outcome(_raw_div, fone, t, prec) == outcome(mpf_rdiv_int, 1, t, prec, rnd)
        assert outcome(_raw_div, fnone, t, prec) == outcome(mpf_rdiv_int, -1, t, prec, rnd)
        # every doubling in the kernels is _raw_mul_pow2(x, ftwo)
        assert _raw_mul_pow2(s, ftwo, prec) == mpf_mul_int(s, 2, prec, rnd)
        assert _raw_reflect(s, t, prec) == mpf_sub(mpf_mul_int(s, 2, prec, rnd), t, prec, rnd)
        # a reflection through itself
        assert _raw_reflect(s, s, prec) == mpf_sub(mpf_mul_int(s, 2, prec, rnd), s, prec, rnd)
        assert _raw_midpoint(s, t, prec) == mpf_mul(mpf_add(s, t, prec, rnd), fhalf, prec, rnd)

    @given(operands=raw_operands(),
           n=st.one_of(st.sampled_from((0, 1, -1, 2, -3)), st.integers(-2**80, 2**80)))
    @example(operands=((0, 2**500 - 1, 0, 500), fone, 402), n=-1)  # rounds up to 2^500
    @example(operands=((1, 3, 7, 2), (0, 1, -4, 1), 136), n=-7)  # divisor mantissa 1
    @settings(max_examples=600)
    def test_matches_libmp(self, operands, n):
        self.check(*operands[:2], n, operands[2])

    def test_edges(self):
        for digits in DIGITS:
            prec = PrecisionContext(decimal_digits=digits).mp.prec
            x = (0, 2 ** prec - 3, -prec, prec)  # leading bit at 2^-1
            tie = (0, 2 ** prec + 1, 0, prec + 1)  # halfway between two prec-bit values
            # prec + 40 bits, 2^-40 of an ulp below a tie once rounded to prec
            below_tie = (0, ((2 ** (prec - 1) + 1) << 40) + 2 ** 39 - 1, 0, prec + 40)
            # a quotient just above the tie between two even/odd neighbours:
            # only the sticky bit of the nonzero remainder rounds it up
            k, m = 2 ** (prec - 1) + 2, 2 ** 20 + 1
            n = (m * (2 * k + 1) + 1) // 2
            for s, t, ns in (
                (x, (1,) + x[1:], ()),  # exact cancellation
                # exponent offsets 100 and 101
                (x, (0, 5, -prec - 100, 3), ()), (x, (1, 5, -prec - 101, 3), ()),
                # leading bit prec + 3, 4 or 5 below tie's, at offsets over 100:
                # only the perturbation's sign decides the tie
                (tie, (1, 2 ** 200 + 1, -203, 201), ()), (tie, (1, 2 ** 200 + 1, -204, 201), ()),
                (tie, (1, 2 ** 200 + 1, -205, 201), ()),
                # offset 100 with the leading bit prec + 5 below, and offset 101
                # with it prec + 4 below, add exactly and round up; offset 101
                # and prec + 5 perturbs instead and rounds down
                (below_tie, (0, 2 ** 134 + 1, -100, 135), ()),
                (below_tie, (0, 2 ** 136 + 1, -101, 137), ()),
                (below_tie, (0, 2 ** 135 + 1, -101, 136), ()),
                (below_tie, (0, 3, 0, 2), ()),  # a dividend this wide takes 5 extra bits
                ((0, 2 ** (prec + 2) - 1, 0, prec + 2), fone, ()),  # all ones: up to a power of two
                (x, (1, 1, 9, 1), ()),  # divisor mantissa 1
                # 1 + 2^-prec doubled is a tie that rounds down to 2, but its
                # reflection through a nudge of 2^-(prec + 50) rounds up
                ((0, 2 ** prec + 1, -prec, prec + 1), (1, 1, -prec - 50, 1), ()),
                (from_man_exp(n, 0), (0, m, 0, 21), (n, -n)),  # sticky remainder
            ):
                for a, b in ((s, t), (t, s)):
                    for n_ in ns or (-3, 0, 1):
                        self.check(a, b, n_, prec)

    def test_zero_and_special_operands(self):
        x = (1, 12345, -20, 14)
        for s in SPECIALS + (x,):
            for t in SPECIALS + (x,):
                for n in (0, -2):
                    self.check(s, t, n, 402)

    def test_zero_and_finite_operands(self):
        # zero plus, minus or times a finite value of at most prec bits is
        # that value, its negation or zero; a wider one is rounded
        for digits in DIGITS:
            prec = PrecisionContext(decimal_digits=digits).mp.prec
            for man in (1, 12345, 2 ** prec - 1, 2 ** (prec + 1) - 1, 2 ** (prec + 7) + 1):
                for x in ((0, man, -20, man.bit_length()), (1, man, 7, man.bit_length())):
                    for s, t in ((fzero, x), (x, fzero), (fzero, fzero), (fzero, finf),
                                 (fninf, fzero), (fzero, fnan), (fnan, x)):
                        self.check(s, t, 3, prec)
                    if x[3] <= prec:
                        assert _raw_add(fzero, x, prec) == x == _raw_sub(x, fzero, prec)
                        assert _raw_sub(fzero, x, prec) == mpf_neg(x)
                        assert _raw_mul(fzero, x, prec) == fzero == _raw_mul(x, fzero, prec)


def four_products(c, s, x, y, prec):
    """``(c * x - s * y, s * x + c * y)`` through ``libmp``: the oracle for
    ``_rotate``."""
    rnd = round_nearest
    return (
        mpf_sub(mpf_mul(c, x, prec, rnd), mpf_mul(s, y, prec, rnd), prec, rnd),
        mpf_add(mpf_mul(s, x, prec, rnd), mpf_mul(c, y, prec, rnd), prec, rnd),
    )


class TestRotate:
    @given(
        data=st.data(),
        case=st.sampled_from(("free", "x zero", "y zero", "both zero", "c one")),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=400)
    def test_matches_four_products(self, data, case, digits):
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        c, s, x, y = (data.draw(raw_operand(prec)) for _ in range(4))
        if case in ("x zero", "both zero"):
            x = fzero
        if case in ("y zero", "both zero"):
            y = fzero
        if case == "c one":
            c = fone
        assert _rotate(c, s, x, y, prec) == four_products(c, s, x, y, prec)

    def test_shortcuts(self):
        # a Jacobi rotation's c and s, and entries of at most prec bits
        ctx = PrecisionContext()
        prec = ctx.mp.prec
        c, s = ctx.mpf("0.8")._mpf_, ctx.mpf("0.6")._mpf_
        x, y = (ctx.mp.sqrt(ctx.mpf(k))._mpf_ for k in (2, 3))
        tiny = ctx.pow10(-130)._mpf_
        for args in ((c, s, x, y), (c, s, fzero, y), (c, s, x, fzero), (c, s, fzero, fzero),
                     (fone, tiny, x, y), (fone, tiny, fzero, y), (c, s, finf, fzero),
                     (c, s, fzero, fnan), (fnan, s, x, y)):
            assert _rotate(*args, prec) == four_products(*args, prec)
        # c == 1 with an x wider than prec rounds x first, as c * x does:
        # x = 1 + 2^-prec is a tie that rounds to 1, but x + 2^-(prec + 50)
        # rounds up
        wide, nudge = (0, 2 ** prec + 1, -prec, prec + 1), (0, 1, -prec - 50, 1)
        want = four_products(fone, nudge, wide, fnone, prec)
        assert _rotate(fone, nudge, wide, fnone, prec) == want
        assert want[0] == fone != _raw_sub(wide, mpf_neg(nudge), prec)


def mpf_sub_points(a, b):
    """``a - b`` written with ``mpf`` operators: the oracle for the raw
    ``-`` of Point2 and SymMatrix."""
    if isinstance(a, Point2):
        return Point2(a.x - b.x, a.z - b.z)
    return mpf_entrywise(a, b, operator.sub)


def mpf_inner(a, b):
    """``inner`` written with ``mpf`` operators; its oracle."""
    if isinstance(a, Point2):
        return a.x * b.x + a.z * b.z
    return sum(x * y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


def mpf_norm(a, ctx):
    return ctx.mp.sqrt(mpf_inner(a, a))


def mpf_project_circle(p, ctx):
    """``sets.project_circle`` written with ``mpf`` operators; its oracle."""
    r = ctx.mp.sqrt(p.x * p.x + p.z * p.z)
    if r == 0:
        return Point2(ctx.mp.one, ctx.mp.zero)
    return Point2(p.x / r, p.z / r)


def point_bits(p):
    return p.x._mpf_, p.z._mpf_


def differential_point(kind, seed, scale_exp, ctx):
    """A plane point of the given kind, drawn from ``seed`` and scaled by
    10^scale_exp, with full-length mantissas."""
    if kind == "origin":
        return Point2(ctx.mp.zero, ctx.mp.zero)
    rng = random.Random(seed)
    shrink = (1 - ctx.mpf(1) / 999983) * ctx.pow10(scale_exp)
    x, z = (ctx.mpf(rng.uniform(-1.0, 1.0)) * shrink for _ in range(2))
    if kind == "axis":
        z = ctx.mp.zero
    return Point2(x, z)


class TestRawPlaneMatchesMpf:
    """The raw-tuple plane layer (Point2 arithmetic, ``inner``, ``norm``,
    ``dist``, ``project_circle``) against its ``mpf`` oracles above."""

    @given(
        kinds=st.tuples(*[st.sampled_from(("random", "axis", "origin"))] * 2),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=200)
    def test_point2(self, kinds, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        p = differential_point(kinds[0], seed, scale_exp, ctx)
        q = differential_point(kinds[1], seed + 1, -scale_exp, ctx)
        s = differential_point("random", seed + 2, 0, ctx).x
        assert point_bits(p + q) == point_bits(Point2(p.x + q.x, p.z + q.z))
        assert point_bits(p - q) == point_bits(mpf_sub_points(p, q))
        assert point_bits(p * s) == point_bits(Point2(p.x * s, p.z * s))
        assert point_bits(s * p) == point_bits(p * s)
        assert inner(p, q)._mpf_ == mpf_inner(p, q)._mpf_
        assert norm(p, ctx)._mpf_ == mpf_norm(p, ctx)._mpf_
        assert dist(p, q, ctx)._mpf_ == mpf_norm(mpf_sub_points(p, q), ctx)._mpf_
        assert point_bits(project_circle(p, ctx)) == point_bits(mpf_project_circle(p, ctx))

    def test_circle_selector_at_origin(self, ctx):
        origin = Point2(ctx.mp.zero, ctx.mp.zero)
        assert point_bits(project_circle(origin, ctx)) == point_bits(Point2.of(ctx, 1, 0))

    @given(
        n=st.sampled_from((3, 5, 2, 1, 4)),
        kind=st.sampled_from(("random", "sparse", "diagonal", "zero")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=100)
    def test_sym_matrix(self, n, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        a = differential_matrix(kind, n, seed, scale_exp, ctx)
        b = differential_matrix("random", n, seed + 1, -scale_exp, ctx)
        assert inner(a, b)._mpf_ == mpf_inner(a, b)._mpf_
        assert norm(a, ctx)._mpf_ == mpf_norm(a, ctx)._mpf_
        assert dist(a, b, ctx)._mpf_ == mpf_norm(mpf_sub_points(a, b), ctx)._mpf_

    @given(
        n=st.sampled_from((3, 5, 2, 1)),
        kinds=st.tuples(*[st.sampled_from(("random", "sparse", "diagonal", "zero"))] * 2),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=100)
    def test_sym_matrix_arithmetic(self, n, kinds, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        a = differential_matrix(kinds[0], n, seed, scale_exp, ctx)
        b = differential_matrix(kinds[1], n, seed + 1, -scale_exp, ctx)
        s = differential_point("random", seed + 2, 0, ctx).x
        assert raw((a + b).entries) == raw(mpf_entrywise(a, b, operator.add).entries)
        assert raw((a - b).entries) == raw(mpf_entrywise(a, b, operator.sub).entries)
        for scalar in (s, ctx.mp.zero):
            want = raw(mpf_entrywise(a, scalar, operator.mul).entries)
            assert raw((a * scalar).entries) == want
            assert raw((scalar * a).entries) == want

    @given(data=st.data(), digits=st.sampled_from(DIGITS))
    @settings(max_examples=200)
    def test_int_entries_times_mpf(self, data, digits):
        # a matrix of negative, zero and positive int entries times an
        # mpf is mpf_mul_int(s, k) entry by entry
        mp = PrecisionContext(decimal_digits=digits).mp
        s = data.draw(raw_operand(mp.prec))
        ints = st.one_of(st.sampled_from((0, 1, -1, 2, -3, 32)), st.integers(-2**80, 2**80))
        n = data.draw(st.integers(1, 3))
        upper = {(i, j): data.draw(ints) for i in range(n) for j in range(i, n)}
        a = SymMatrix([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
        assert (a * mp.make_mpf(s)).raw == tuple(mpf_mul_int(s, k, mp.prec, round_nearest)
                                                 for k in a.raw)


def mpf_solve2x2(A, b, ctx):
    """``solve2x2`` written with ``mpf`` operators; its oracle."""
    (a00, a01), (a10, a11) = A
    b0, b1 = b
    det = a00 * a11 - a01 * a10
    scale = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    if abs(det) <= ctx.floor * scale:
        raise SingularMatrixError(det)
    return (b0 * a11 - b1 * a01) / det, (a00 * b1 - a10 * b0) / det


def solve_mpf(A, b, ctx):
    """``solve2x2`` on the raw entries of an ``mpf`` system, boxed back."""
    return tuple(map(ctx.mp.make_mpf, solve2x2(raw(A), tuple(x._mpf_ for x in b), ctx)))


def solve_bits(solve, A, b, ctx):
    """The bits of the solution, or of the determinant a singular system
    reports."""
    try:
        return tuple(x._mpf_ for x in solve(A, b, ctx))
    except SingularMatrixError as err:
        return "singular", err.determinant._mpf_


def margin_system(rng, margin, scale_exp, ctx):
    """A system whose determinant has magnitude exp + bc exactly
    m_floor + 2M + margin, M the largest entry's.  a00 = a10 = +-s and
    a11 = a01 + w with s, a01 and w of 8, 30 and 20 bits, so every
    rounding of det = a00 * w is exact.  s and a01 lie just below 2^M, so
    the bound floor * ||A||_F^2 is close to 2^(m_floor + 2M + 2): at
    margin 2 these systems are singular at 40, 120 and 200 digits, at 3
    and 4 they are not."""
    floor = ctx.floor._mpf_
    big = scale_exp * 3 + rng.randint(-20, 20)  # M
    sign = rng.choice((1, -1))
    s = ctx.mp.make_mpf(from_man_exp(sign * (2 ** 8 - 1), big - 8))
    v = ctx.mp.make_mpf(from_man_exp(sign * rng.randint(2 ** 30 - 2 ** 24, 2 ** 30 - 1), big - 30))
    # |s * w| lies in [2^(M + m_w - 1), 2^(M + m_w)) for w >= 0.5078 * 2^m_w
    m_w = floor[2] + floor[3] + big + margin
    w_man = rng.randint(2 ** 19 + 2 ** 12, 2 ** 19 + 2 ** 17)
    w = ctx.mp.make_mpf(from_man_exp(rng.choice((1, -1)) * w_man, m_w - 20))
    return [[s, v], [s, v + w]]


class TestSolve2x2:
    @pytest.mark.oracle
    @given(
        kind=st.sampled_from(("random", "singular", "near-singular", "zero-row", "zero", "lt",
                              "margin-2", "margin-3", "margin-4")),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.sampled_from((0, -100, 20)),
        digits=st.sampled_from(DIGITS),
    )
    @settings(max_examples=examples(150))
    def test_matches_mpf(self, kind, seed, scale_exp, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        rng = random.Random(seed)
        shrink = (1 - ctx.mpf(1) / 999983) * ctx.pow10(scale_exp)
        v = [ctx.mpf(rng.uniform(-1.0, 1.0)) * shrink for _ in range(6)]
        rows = [[v[0], v[1]], [v[2], v[3]]]
        b = (v[4], v[5])
        if kind == "singular":
            rows[1] = [v[0] * 3, v[1] * 3]
        elif kind == "near-singular":
            rows[1] = [v[0] * 3, v[1] * 3 * (1 + ctx.floor * 2 ** rng.randint(-4, 4))]
        elif kind == "zero-row":
            rows[1] = [ctx.mp.zero, ctx.mp.zero]
        elif kind == "zero":
            rows = [[ctx.mp.zero] * 2] * 2
        elif kind == "lt":  # b = (a00, a11): the products det shares
            b = (rows[0][0], rows[1][1])
        elif kind.startswith("margin"):
            margin = int(kind[-1])
            rows = margin_system(rng, margin, scale_exp, ctx)
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            floor, big = ctx.floor._mpf_, max(x._mpf_[2] + x._mpf_[3] for r in rows for x in r)
            assert det._mpf_[2] + det._mpf_[3] == floor[2] + floor[3] + 2 * big + margin
            if rng.randint(0, 1):
                b = (rows[0][0], rows[1][1])
        assert solve_bits(solve_mpf, rows, b, ctx) == solve_bits(mpf_solve2x2, rows, b, ctx)

    def test_identity(self, ctx):
        i2 = ((ctx.mpf(1), ctx.mpf(0)), (ctx.mpf(0), ctx.mpf(1)))
        assert solve_mpf(i2, (ctx.mpf(3), ctx.mpf(4)), ctx) == (ctx.mpf(3), ctx.mpf(4))

    def test_lt_mu_system(self, ctx):
        # hand elimination; this is the mu-system of the worked LT example
        a = (
            (ctx.mpf("0.5"), ctx.mpf("0.75")),
            (ctx.mpf("0.25"), ctx.mpf("0.5")),
        )
        x0, x1 = solve_mpf(a, (ctx.mpf("0.5"), ctx.mpf("0.5")), ctx)
        assert abs(x0 + 2) <= ctx.pow10(-100)
        assert abs(x1 - 2) <= ctx.pow10(-100)

    def test_singular(self, ctx):
        a = ((ctx.mpf(1), ctx.mpf(1)), (ctx.mpf(1), ctx.mpf(1)))
        with pytest.raises(SingularMatrixError) as err:
            solve_mpf(a, (ctx.mpf(1), ctx.mpf(2)), ctx)
        assert err.value.determinant == 0

    def test_residuals_random(self, ctx):
        rng = random.Random(17)
        bound = ctx.pow10(-(ctx.decimal_digits - 15))
        checked = 0
        while checked < 1000:
            a = [[ctx.mpf(rng.uniform(-1.0, 1.0)) for _ in range(2)] for _ in range(2)]
            if abs(a[0][0] * a[1][1] - a[0][1] * a[1][0]) < ctx.mpf("0.05"):
                continue
            b = [ctx.mpf(rng.uniform(-1.0, 1.0)) for _ in range(2)]
            x0, x1 = solve_mpf(a, b, ctx)
            r0 = a[0][0] * x0 + a[0][1] * x1 - b[0]
            r1 = a[1][0] * x0 + a[1][1] * x1 - b[1]
            norm_a = ctx.mp.sqrt(sum(v * v for row in a for v in row))
            norm_x = ctx.mp.sqrt(x0 * x0 + x1 * x1)
            norm_b = ctx.mp.sqrt(b[0] * b[0] + b[1] * b[1])
            assert ctx.mp.sqrt(r0 * r0 + r1 * r1) <= bound * (
                norm_a * norm_x + norm_b
            )
            checked += 1


def magnitude(s):
    """exp + bc of a raw tuple: a nonzero value lies in [2^(m-1), 2^m)."""
    return s[2] + s[3]


@st.composite
def le_product_inputs(draw):
    """(x, a, b, c, prec) for ``_le_product``: finite factors of
    ``raw_operand``'s kinds, zero included (wide all-ones mantissas make
    products that round up to a power of two), and x at a magnitude margin
    of -2 to 3 over ma + mb + mc, exactly at the bound, or negative or
    zero."""
    prec = PrecisionContext(decimal_digits=draw(st.sampled_from(DIGITS))).mp.prec
    finite = raw_operand(prec).filter(lambda s: s[1] or s == fzero)
    a, b, c = draw(finite), draw(finite), draw(finite)
    bound = mpf_mul(mpf_mul(a, b, prec, round_nearest), c, prec, round_nearest)
    kind = draw(st.sampled_from(("margin", "bound", "negative", "zero")))
    if kind == "bound":
        x = bound
    elif kind == "zero":
        x = fzero
    else:
        man = odd_mantissa(draw, draw(st.integers(1, prec)))
        bc = man.bit_length()
        m = magnitude(a) + magnitude(b) + magnitude(c) + draw(st.integers(-2, 3))
        x = (int(kind == "negative"), man, m - bc, bc)
    return x, a, b, c, prec


@pytest.mark.oracle
class TestLeProduct:
    """``_le_product`` against the ``mpf_le`` of the rounded bound it
    replaces, at 40, 120 and 200 digits."""

    @given(inputs=le_product_inputs())
    @settings(max_examples=examples(300))
    def test_matches_mpf_le(self, inputs):
        x, a, b, c, prec = inputs
        bound = mpf_mul(mpf_mul(a, b, prec, round_nearest), c, prec, round_nearest)
        assert _le_product(x, a, b, c, prec) == mpf_le(x, bound)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_bound_rounded_up_to_a_power_of_two(self, digits):
        # each factor lies just below 2^(2 prec) and each product rounds up
        # to a power of two: the bound is 2^(ma + mb + mc) itself, which a
        # value at margin 1 can equal, and only margin 2 exceeds it
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        wide = (0, 2 ** (2 * prec) - 1, 0, 2 * prec)
        bound = mpf_mul(mpf_mul(wide, wide, prec, round_nearest), wide, prec, round_nearest)
        assert bound == (0, 1, 3 * magnitude(wide), 1)
        assert magnitude(bound) == 3 * magnitude(wide) + 1
        assert _le_product(bound, wide, wide, wide, prec)
        assert not _le_product((0, 1, bound[2] + 1, 1), wide, wide, wide, prec)
        assert not _le_product((0, 3, bound[2] - 1, 2), wide, wide, wide, prec)

    def test_zero_and_negative_x_and_zero_factors(self):
        prec = PrecisionContext(decimal_digits=120).mp.prec
        a = (0, 3, -5, 2)
        for x in (fzero, (1, 5, 400, 3)):
            assert _le_product(x, a, a, a, prec)
        for x in (fzero, (1, 5, 400, 3), (0, 1, -900, 1)):
            assert _le_product(x, a, fzero, a, prec) == mpf_le(x, fzero)


def raw_at(rng, m, prec, zero=True):
    """A raw value of magnitude m (exp + bc) and either sign, drawn from
    rng: a random odd mantissa of up to prec bits, the mantissa 1 or an
    all-ones mantissa, whose square rounds up to a power of two; or zero,
    where allowed."""
    kind = rng.choice(("random", "one", "ones", "zero") if zero else ("random", "one", "ones"))
    if kind == "zero":
        return fzero
    if kind == "one":
        man = 1
    elif kind == "ones":
        man = 2 ** rng.randint(1, prec) - 1
    else:
        man = rng.getrandbits(prec) >> rng.randint(0, prec - 1) | 1
    bc = man.bit_length()
    return rng.randint(0, 1), man, m - bc, bc


def mpf_goal_sq(x_raw, floor, prec):
    """eig_sym's stop goal ``(floor * sqrt(sum(x * x)))^2`` through
    ``libmp``."""
    rnd = round_nearest
    acc = None
    for x in x_raw:
        sq = mpf_mul(x, x, prec, rnd)
        acc = sq if acc is None else mpf_add(acc, sq, prec, rnd)
    off_goal = mpf_mul(floor, mpf_sqrt(acc, prec, rnd), prec, rnd)
    return mpf_mul(off_goal, off_goal, prec, rnd)


def stop_case(rng, n, prec, offset, floor):
    """(a, x_raw, g): an n x n matrix X whose largest entry has magnitude
    M_X, its other entries up to 8 below, and the rows a of a symmetric
    matrix whose off-diagonal entries lie at most 3 below the magnitude
    g + offset, g = m_floor + M_X; zeros among both."""
    mx = rng.randint(-400, 400)
    x_raw = [raw_at(rng, mx, prec, zero=False)]
    x_raw += [raw_at(rng, mx - rng.randint(0, 8), prec) for _ in range(n * n - 1)]
    g = magnitude(floor) + mx
    a = [[raw_at(rng, rng.randint(-20, 20), prec) for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            a[p][q] = a[q][p] = raw_at(rng, g + offset - rng.randint(0, 3), prec)
    return a, x_raw, g


@pytest.mark.oracle
class TestJacobiShortcuts:
    """The Jacobi sweep's stop test decided by exponents, and the closed
    forms of its rotation constants, against the roundings they skip, at
    40, 120 and 200 digits."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((2, 3, 5)),
           digits=st.sampled_from(DIGITS), offset=st.integers(-10, 8))
    @settings(max_examples=examples(300))
    def test_stop_decision_matches_exact(self, seed, n, digits, offset):
        # offsets from -10 to 8 span both edges of the band where the
        # exponents cannot decide
        ctx = PrecisionContext(decimal_digits=digits)
        prec, floor = ctx.mp.prec, ctx.floor._mpf_
        a, x_raw, g = stop_case(random.Random(seed), n, prec, offset, floor)
        got = _stop_by_exponents(a, n, g)
        assert got in (None, mpf_le(_off_diagonal_sq(a, n, prec), mpf_goal_sq(x_raw, floor, prec)))

    @pytest.mark.parametrize("digits", DIGITS)
    def test_stop_decision_edges(self, digits):
        # the least and the largest mass and norm of each magnitude: one
        # entry 2^(m-1), or every entry all ones, whose squares round up to
        # 2^(2m); at every offset across both edges of the band
        ctx = PrecisionContext(decimal_digits=digits)
        prec, floor = ctx.mp.prec, ctx.floor._mpf_
        ones = 2 ** prec - 1

        def fill(n, m, least, where):
            entry = (1, 1, m - 1, 1) if least else (1, ones, m - prec, prec)
            cells = [(i, j) for i in range(n) for j in range(n) if where(i, j)]
            return {cell: entry for cell in (cells[:1] if least else cells)}

        outcomes = set()
        for n in (2, 3, 5):
            for x_least in (True, False):
                x = fill(n, 7, x_least, lambda i, j: True)
                x_raw = [x.get((i, j), fzero) for i in range(n) for j in range(n)]
                g = magnitude(floor) + 7
                for a_least in (True, False):
                    for offset in range(-10, 9):
                        off = fill(n, g + offset, a_least, lambda i, j: i < j)
                        a = [[off.get((min(i, j), max(i, j)), fzero) if i != j else fzero
                              for j in range(n)] for i in range(n)]
                        got = _stop_by_exponents(a, n, g)
                        goal = mpf_goal_sq(x_raw, floor, prec)
                        want = mpf_le(_off_diagonal_sq(a, n, prec), goal)
                        assert got in (None, want), (n, x_least, a_least, offset)
                        outcomes.add(got)
            diagonal = [[fone if i == j else fzero for j in range(n)] for i in range(n)]
            assert _stop_by_exponents(diagonal, n, magnitude(floor)) is True
        assert outcomes == {True, False, None}

    @given(seed=st.integers(0, 2**32 - 1), digits=st.sampled_from(DIGITS),
           edge=st.integers(-4, 4))
    @settings(max_examples=examples(300))
    def test_closed_forms(self, seed, digits, edge):
        # 1 + x * x rounds to x * x once 2 m_x > prec + 4, and its root is
        # then |x|; it rounds to 1 once 2 m_x < -(prec + 2)
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        rnd, rng = round_nearest, random.Random(seed)
        for m in ((prec + 4) // 2 + edge, -(prec + 2) // 2 + edge):
            x = raw_at(rng, m, prec, zero=False)
            root = mpf_sqrt(mpf_add(mpf_mul(x, x, prec, rnd), fone, prec, rnd), prec, rnd)
            if 2 * m > prec + 4:
                assert root == mpf_abs(x)
            if 2 * m < -(prec + 2):
                assert root == fone and mpf_div(fone, root, prec, rnd) == fone
                assert mpf_mul(x, fone, prec, rnd) == x

    @given(seed=st.integers(0, 2**32 - 1), digits=st.sampled_from(DIGITS),
           offset=st.one_of(st.integers(-8, 8), st.integers(-600, 600)))
    @settings(max_examples=examples(300))
    def test_rotation_matches_full_expression(self, seed, digits, offset):
        # offsets of m_diff - m_apq near prec / 2 reach both guards' edges
        prec = PrecisionContext(decimal_digits=digits).mp.prec
        rnd, rng = round_nearest, random.Random(seed)
        m = rng.randint(-300, 300)
        apq = raw_at(rng, m, prec, zero=False)
        shift = offset + prec // 2 if abs(offset) <= 8 else offset
        diff = raw_at(rng, m + shift, prec)
        tau = mpf_div(diff, mpf_mul_int(apq, 2, prec, rnd), prec, rnd)
        root = mpf_sqrt(mpf_add(mpf_mul(tau, tau, prec, rnd), fone, prec, rnd), prec, rnd)
        t = mpf_div(fnone if mpf_lt(tau, fzero) else fone,
                    mpf_add(mpf_abs(tau), root, prec, rnd), prec, rnd)
        c = mpf_div(fone, mpf_sqrt(mpf_add(mpf_mul(t, t, prec, rnd), fone, prec, rnd), prec, rnd),
                    prec, rnd)
        assert _rotation(apq, diff, prec) == (t, c, mpf_mul(t, c, prec, rnd))


class TestPickle:
    @pytest.mark.parametrize("digits", DIGITS)
    def test_round_trip_keeps_value_bits_and_precision(self, digits):
        ctx = PrecisionContext(decimal_digits=digits)
        p = differential_point("random", 7, -100, ctx)
        m = differential_matrix("random", 3, 7, 20, ctx)
        back_p, back_m = pickle.loads(pickle.dumps((p, m)))
        assert back_p == p and back_m == m
        assert point_bits(back_p) == point_bits(p)
        assert raw(back_m.entries) == raw(m.entries) and back_m.n == 3
        # rebuilt on the shared context of the precision
        assert back_p.mp is back_m.mp is ctx.mp
        assert copy.deepcopy(m).mp is copy.copy(p).mp is ctx.mp
