"""Arbitrary-precision scalars, plane points, symmetric matrices and the
small dense linear algebra the iteration engines are built on.

Every operation is a pure function of its inputs and an explicit
:class:`PrecisionContext`; there is no global precision state.  Scalars are
``mpf`` values bound to the mpmath context of their precision, so
arithmetic on them is deterministic at the configured number of decimal
digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul,
    mpf_mul_int, mpf_pow_int, mpf_rdiv_int, mpf_sqrt, mpf_sub, round_nearest,
)


class FeasikitError(Exception):
    """Base class for all toolkit errors."""


class NonConvergenceError(FeasikitError):
    """An iterative kernel exhausted its budget without converging."""


class SingularMatrixError(FeasikitError):
    """2x2 system is singular relative to the arithmetic floor."""

    def __init__(self, determinant):
        self.determinant = determinant
        super().__init__(f"singular 2x2 system, det={determinant}")


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision plus the arithmetic floor derived from it.

    ``floor`` = 10^-(decimal_digits - 10) is the relative tolerance the
    kernels share: the off-diagonal residual at which the eigensolver
    stops, the threshold below which determinants / denominators count as
    degenerate (collinear), and the level below which errors and
    successive-iterate gaps are arithmetic noise.

    All contexts of one precision share one mpmath context and one floor
    (built once per process); nothing may set that context's ``dps`` or
    ``prec``.
    """

    decimal_digits: int = 120
    mp: MPContext = field(default=None, init=False, repr=False, compare=False)
    floor: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.decimal_digits < 30:
            raise ValueError(f"decimal_digits must be >= 30, got {self.decimal_digits}")
        mp, floor = _shared_context(self.decimal_digits)
        object.__setattr__(self, "mp", mp)
        object.__setattr__(self, "floor", floor)

    def mpf(self, value):
        """Convert ``value`` (int, float, str or mpf) to a scalar of this context."""
        return self.mp.mpf(value)

    def pow10(self, exponent: int):
        return self.mp.mpf(10) ** exponent

    def to_str(self, value) -> str:
        """Serialize a scalar as a decimal string at full working precision."""
        return self.mp.nstr(self.mp.mpf(value), self.decimal_digits)


@functools.lru_cache(maxsize=None)
def _shared_context(decimal_digits: int):
    """The mpmath context and floor of one precision, built on first use."""
    mp = MPContext()
    mp.dps = decimal_digits
    return mp, mp.mpf(10) ** (-(decimal_digits - 10))


def _prec_make(x):
    """The precision the ``mpf`` operators of x round to, and the maker of
    ``mpf`` values of x's context from raw tuples."""
    mp = x.context
    return mp.prec, mp.make_mpf


@dataclass(frozen=True)
class Point2:
    """A point (x, z) in the plane.

    ``+``, ``-`` and ``*`` (by an ``mpf`` or an ``int``) run on raw
    ``mpf._mpf_`` tuples at the precision of x's context, one ``libmp``
    call per coordinate, as the ``mpf`` operators would.
    """

    x: object
    z: object

    def __add__(self, other: "Point2") -> "Point2":
        prec, make = _prec_make(self.x)
        rnd = round_nearest
        return Point2(make(mpf_add(self.x._mpf_, other.x._mpf_, prec, rnd)),
                      make(mpf_add(self.z._mpf_, other.z._mpf_, prec, rnd)))

    def __sub__(self, other: "Point2") -> "Point2":
        prec, make = _prec_make(self.x)
        rnd = round_nearest
        return Point2(make(mpf_sub(self.x._mpf_, other.x._mpf_, prec, rnd)),
                      make(mpf_sub(self.z._mpf_, other.z._mpf_, prec, rnd)))

    def __mul__(self, scalar) -> "Point2":
        prec, make = _prec_make(self.x)
        rnd = round_nearest
        if isinstance(scalar, int):
            return Point2(make(mpf_mul_int(self.x._mpf_, scalar, prec, rnd)),
                          make(mpf_mul_int(self.z._mpf_, scalar, prec, rnd)))
        s = scalar._mpf_
        return Point2(make(mpf_mul(self.x._mpf_, s, prec, rnd)),
                      make(mpf_mul(self.z._mpf_, s, prec, rnd)))

    __rmul__ = __mul__

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.z)

    @staticmethod
    def of(ctx: PrecisionContext, x, z) -> "Point2":
        return Point2(ctx.mpf(x), ctx.mpf(z))


@dataclass(frozen=True)
class SymMatrix:
    """An n x n symmetric matrix; symmetry is checked on construction."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SymMatrix":
        return SymMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def diag(values: Sequence, ctx: PrecisionContext) -> "SymMatrix":
        zero = ctx.mp.zero
        vals = [ctx.mpf(v) for v in values]
        return SymMatrix(
            tuple(
                tuple(vals[i] if i == j else zero for j in range(len(vals)))
                for i in range(len(vals))
            )
        )

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __mul__(self, scalar) -> "SymMatrix":
        return SymMatrix(tuple(tuple(a * scalar for a in row) for row in self.entries))

    __rmul__ = __mul__

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(tuple(tuple(-a for a in row) for row in self.entries))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted ascending; column k of ``basis`` is the
    eigenvector for eigenvalue k, sign-fixed so that the first component of
    largest magnitude is positive.
    """

    eigenvalues: tuple
    basis: tuple

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> SymMatrix:
        """Q diag(lambda) Q^T, computed on the upper triangle and mirrored.

        Runs on raw ``mpf._mpf_`` tuples at the precision of the basis
        entries' context, one ``libmp`` call per ``mpf`` operation of
        ``sum(q[i][k] * lam[k] * q[j][k] for k)``, so the entries are bit
        for bit those of that expression.
        """
        n = self.n
        if not n:
            return SymMatrix(())
        mp = self.basis[0][0].context
        prec, rnd = mp.prec, round_nearest
        lam = [x._mpf_ for x in self.eigenvalues]
        q = [[x._mpf_ for x in row] for row in self.basis]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            scaled = [mpf_mul(q[i][k], lam[k], prec, rnd) for k in range(n)]
            for j in range(i, n):
                acc = mp.make_mpf(
                    _raw_sum((mpf_mul(scaled[k], q[j][k], prec, rnd) for k in range(n)), prec)
                )
                rows[i][j] = acc
                rows[j][i] = acc
        return SymMatrix(tuple(tuple(row) for row in rows))

    def with_eigenvalues(self, eigenvalues: Sequence) -> "Spectrum":
        return Spectrum(tuple(eigenvalues), self.basis)


def _raw_inner(a, b, prec, rnd=round_nearest):
    """``a.x * b.x + a.z * b.z`` on Point2, ``sum(x * y)`` over the entries
    row by row on SymMatrix; raw."""
    if isinstance(a, Point2):
        return mpf_add(mpf_mul(a.x._mpf_, b.x._mpf_, prec, rnd),
                       mpf_mul(a.z._mpf_, b.z._mpf_, prec, rnd), prec, rnd)
    return _raw_sum((mpf_mul(x._mpf_, y._mpf_, prec, rnd)
                     for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)), prec)


def inner(a, b):
    """Inner product: Euclidean on Point2, Frobenius on SymMatrix; raw, at
    the precision of a's context."""
    prec, make = _prec_make(a.x if isinstance(a, Point2) else a.entries[0][0])
    return make(_raw_inner(a, b, prec))


def _raw_norm(a, prec):
    """``sqrt(inner(a, a))``, raw."""
    return _raw_sqrt(_raw_inner(a, a, prec), prec)


def norm(a, ctx: PrecisionContext):
    """``sqrt(inner(a, a))``, raw, at the context's precision."""
    return ctx.mp.make_mpf(_raw_norm(a, ctx.mp.prec))


def dist(a, b, ctx: PrecisionContext):
    """``norm(a - b)``, raw, at the context's precision, without building
    ``a - b``."""
    prec, rnd = ctx.mp.prec, round_nearest
    if isinstance(a, Point2):
        dx = mpf_sub(a.x._mpf_, b.x._mpf_, prec, rnd)
        dz = mpf_sub(a.z._mpf_, b.z._mpf_, prec, rnd)
        sq = mpf_add(mpf_mul(dx, dx, prec, rnd), mpf_mul(dz, dz, prec, rnd), prec, rnd)
    else:
        diffs = (mpf_sub(x._mpf_, y._mpf_, prec, rnd)
                 for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))
        sq = _raw_sum((mpf_mul(d, d, prec, rnd) for d in diffs), prec)
    return ctx.mp.make_mpf(_raw_sqrt(sq, prec))


def _raw_sqrt(s, prec):
    """``mpf_sqrt(s, prec, round_nearest)`` with the integer square root
    taken by ``math.isqrt`` instead of mpmath's pure-Python ``sqrtrem``.

    The algorithm is ``mpf_sqrt``'s: scale the mantissa so that its root
    carries prec + 2 or more bits, take the floor root, and if the
    remainder is nonzero append a sticky 1 bit; rounding that to prec
    bits gives the correctly rounded root.  Both roots are the exact floor
    square root, so the bits agree.  Zero, the special values, negative
    input and the powers of four go to ``mpf_sqrt`` itself.
    """
    sign, man, exp, bc = s
    if sign or not man or (man == 1 and not exp & 1):
        return mpf_sqrt(s, prec, round_nearest)
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    scaled = man << shift
    man = math.isqrt(scaled)
    if man * man != scaled:
        man = (man << 1) + 1
        shift += 2
    return from_man_exp(man, (exp - shift) // 2, prec, round_nearest)


def _raw_sum(terms, prec, rnd=round_nearest):
    """``sum(terms)`` on raw mpf tuples: from zero, left to right."""
    acc = fzero
    for term in terms:
        acc = mpf_add(acc, term, prec, rnd)
    return acc


def _off_diagonal_sq(a, n, prec, rnd=round_nearest):
    """``2 * sum(a[p][q] * a[p][q] for p < q)``, raw."""
    squares = (mpf_mul(a[p][q], a[p][q], prec, rnd) for p in range(n) for q in range(p + 1, n))
    return mpf_mul_int(_raw_sum(squares, prec), 2, prec, rnd)


def _sqrt_one_plus_sq(x, prec, rnd=round_nearest):
    """``sqrt(1 + x * x)``, raw."""
    return _raw_sqrt(mpf_add(mpf_mul(x, x, prec, rnd), fone, prec, rnd), prec)


def _rotate(c, s, x, y, prec, rnd=round_nearest):
    """``(c * x - s * y, s * x + c * y)``, raw."""
    return (
        mpf_sub(mpf_mul(c, x, prec, rnd), mpf_mul(s, y, prec, rnd), prec, rnd),
        mpf_add(mpf_mul(s, x, prec, rnd), mpf_mul(c, y, prec, rnd), prec, rnd),
    )


def eig_sym(X: SymMatrix, ctx: PrecisionContext) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Deterministic: fixed row-major sweep order, threshold rules with exact
    comparisons, eigenvalues stably sorted ascending, eigenvector signs fixed
    by making each column's first largest-magnitude component positive.
    Raises :class:`NonConvergenceError` if the sweep budget (30*n^2) is
    exhausted, which for well-posed symmetric input does not happen.

    The sweeps run on raw ``mpf._mpf_`` tuples through ``mpmath.libmp`` at
    the context's precision, rounding to nearest; each call is the one the
    ``mpf`` operators would make, so the result is bit for bit that of the
    same algorithm written with ``mpf`` objects (pinned by a differential
    test against that version).
    """
    n = X.n
    prec, rnd = ctx.mp.prec, round_nearest
    a = [[x._mpf_ for x in row] for row in X.entries]
    v = [[fone if i == j else fzero for j in range(n)] for i in range(n)]

    norm_x = _raw_sqrt(
        _raw_sum((mpf_mul(x, x, prec, rnd) for row in a for x in row), prec), prec
    )
    if n == 1 or norm_x == fzero:
        return _wrapped_spectrum(a, v, n, ctx)

    # stop when the off-diagonal Frobenius mass is negligible relative to X
    off_goal_sq = mpf_pow_int(mpf_mul(ctx.floor._mpf_, norm_x, prec, rnd), 2, prec, rnd)
    max_sweeps = 30 * n * n
    for _ in range(max_sweeps):
        if mpf_le(_off_diagonal_sq(a, n, prec), off_goal_sq):
            return _wrapped_spectrum(a, v, n, ctx)
        for p in range(n):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == fzero:
                    continue
                diff = mpf_sub(a[q][q], a[p][p], prec, rnd)
                tau = mpf_div(diff, mpf_mul_int(apq, 2, prec, rnd), prec, rnd)
                sign = -1 if mpf_lt(tau, fzero) else 1
                denom = mpf_add(mpf_abs(tau, prec, rnd), _sqrt_one_plus_sq(tau, prec), prec, rnd)
                t = mpf_rdiv_int(sign, denom, prec, rnd)
                c = mpf_rdiv_int(1, _sqrt_one_plus_sq(t, prec), prec, rnd)
                s = mpf_mul(t, c, prec, rnd)
                t_apq = mpf_mul(t, apq, prec, rnd)
                a[p][p] = mpf_sub(a[p][p], t_apq, prec, rnd)
                a[q][q] = mpf_add(a[q][q], t_apq, prec, rnd)
                a[p][q] = a[q][p] = fzero
                for i in range(n):
                    if i == p or i == q:
                        continue
                    a[i][p], a[i][q] = _rotate(c, s, a[i][p], a[i][q], prec)
                    a[p][i], a[q][i] = a[i][p], a[i][q]
                for row in v:
                    row[p], row[q] = _rotate(c, s, row[p], row[q], prec)
    off = ctx.mp.make_mpf(_raw_sqrt(_off_diagonal_sq(a, n, prec), prec))
    raise NonConvergenceError(
        f"Jacobi sweeps exhausted ({max_sweeps}) with off-diagonal residual {off}"
    )


def _wrapped_spectrum(a, v, n, ctx: PrecisionContext) -> Spectrum:
    make = ctx.mp.make_mpf
    return _sorted_spectrum(
        [make(a[i][i]) for i in range(n)], [[make(x) for x in row] for row in v], n
    )


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
    return Spectrum(tuple(diag[k] for k in perm), basis)


def solve2x2(A: Sequence[Sequence], b: Sequence, ctx: PrecisionContext):
    """Solve a 2x2 linear system by Cramer's rule.

    Raises :class:`SingularMatrixError` when |det A| <= floor * ||A||_F^2
    (the determinant scales like the norm squared).
    """
    (a00, a01), (a10, a11) = A[0], A[1]
    b0, b1 = b[0], b[1]
    det = a00 * a11 - a01 * a10
    scale = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    if abs(det) <= ctx.floor * scale:
        raise SingularMatrixError(det)
    return (b0 * a11 - b1 * a01) / det, (a00 * b1 - a10 * b0) / det
