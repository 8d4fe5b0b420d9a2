"""Arbitrary-precision scalars, raw vectors (plane points and symmetric
matrices) and the small dense linear algebra the iteration engines are
built on.

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
from itertools import repeat
from typing import Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    fnone, fone, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_eq, mpf_gt, mpf_hash, mpf_le,
    mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_sqrt, round_nearest,
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


class Vec:
    """A vector of ``mpf`` values held raw: the base of :class:`Point2` and
    :class:`SymMatrix`.

    ``raw`` is a flat tuple of raw ``mpf._mpf_`` tuples and ``mp`` the
    mpmath context they belong to.  ``+``, ``-`` and ``*`` (by an ``mpf``
    or an ``int``) run entry by entry on ``raw`` at the precision of
    ``mp``, one raw call per entry, with the bits of the ``mpf`` operators,
    and return a vector of the same type; unary minus is exact.  ``==``
    compares two vectors of one type by value, and equal values hash
    equally whatever their precision.  Pickling and copying rebuild the
    vector on the shared context of its precision.
    """

    __slots__ = ("raw", "mp")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return len(self.raw) == len(other.raw) and all(map(mpf_eq, self.raw, other.raw))

    def __hash__(self):
        return hash(tuple(map(mpf_hash, self.raw)))

    def __reduce__(self):
        return _with_context, (type(self), self.mp.dps, self.raw)

    def __add__(self, other):
        mp = self.mp
        return _vec(type(self), tuple(map(_raw_add, self.raw, other.raw, repeat(mp.prec))), mp)

    def __sub__(self, other):
        mp = self.mp
        return _vec(type(self),
                    tuple(map(_raw_add, self.raw, other.raw, repeat(mp.prec), repeat(1))), mp)

    def __mul__(self, scalar):
        mp = self.mp
        if isinstance(scalar, int):
            raw = tuple(map(_raw_mul_int, self.raw, repeat(scalar), repeat(mp.prec)))
        elif mp is None:
            # int entries (see SymMatrix) times an mpf: mpf_mul_int(s, k)
            mp = scalar.context
            raw = tuple(map(_raw_mul_int, repeat(scalar._mpf_), self.raw, repeat(mp.prec)))
        else:
            raw = tuple(map(_raw_mul, self.raw, repeat(scalar._mpf_), repeat(mp.prec)))
        return _vec(type(self), raw, mp)

    __rmul__ = __mul__

    def __neg__(self):
        return _vec(type(self), tuple(map(mpf_neg, self.raw)), self.mp)


def _vec(cls, raw, mp):
    """The vector of type cls of the raw tuples raw in the mpmath context
    mp."""
    v = object.__new__(cls)
    v.raw = raw
    v.mp = mp
    return v


def _with_context(cls, decimal_digits, raw):
    """``_vec(cls, raw, mp)`` with mp the shared mpmath context of
    ``decimal_digits``: how a pickled or copied vector is rebuilt, since an
    mpmath context (and its ``mpf`` class) does not pickle."""
    return _vec(cls, raw, _shared_context(decimal_digits)[0])


class Point2(Vec):
    """A point (x, z) in the plane: a :class:`Vec` of length 2 in the
    context of x; ``x`` and ``z`` are read-only ``mpf`` views."""

    __slots__ = ()

    def __init__(self, x, z):
        self.raw = (x._mpf_, z._mpf_)
        self.mp = x.context

    @property
    def x(self):
        return self.mp.make_mpf(self.raw[0])

    @property
    def z(self):
        return self.mp.make_mpf(self.raw[1])

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, z={self.z!r})"

    @staticmethod
    def of(ctx: PrecisionContext, x, z) -> "Point2":
        return Point2(ctx.mpf(x), ctx.mpf(z))


class SymMatrix(Vec):
    """An n x n symmetric matrix; symmetry is checked on construction.

    A :class:`Vec` of length n^2, row-major, in the context of the first
    entry; ``entries`` (the rows) and ``m[i]`` (row i) are ``mpf`` views.
    A matrix of ``int`` entries holds them as they are, with ``mp`` None;
    all it can do is be multiplied by an ``mpf``, which gives the matrix of
    ``mpf`` entries of that scalar's context.
    """

    __slots__ = ()

    def __init__(self, entries):
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        flat = [x for row in entries for x in row]
        self.mp = getattr(flat[0], "context", None) if flat else None
        self.raw = tuple(x._mpf_ for x in flat) if self.mp is not None else tuple(flat)

    @property
    def n(self) -> int:
        return math.isqrt(len(self.raw))

    @property
    def entries(self) -> tuple:
        n, flat = self.n, tuple(map(self.mp.make_mpf, self.raw))
        return tuple(flat[i * n:(i + 1) * n] for i in range(n))

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self) -> str:
        return f"SymMatrix(entries={self.entries!r})"

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


class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted ascending; column k of ``basis`` is the
    eigenvector for eigenvalue k, sign-fixed so that the first component of
    largest magnitude is positive.  Both are ``mpf`` views of the raw
    tuples ``raw_eigenvalues`` and ``raw_basis`` (flat, row-major), held
    with ``mp``, the mpmath context of the basis.
    """

    __slots__ = ("raw_eigenvalues", "raw_basis", "mp")

    def __init__(self, eigenvalues: Sequence, basis: Sequence[Sequence]):
        self.raw_eigenvalues = tuple(x._mpf_ for x in eigenvalues)
        self.raw_basis = tuple(x._mpf_ for row in basis for x in row)
        self.mp = basis[0][0].context if basis else None

    @property
    def n(self) -> int:
        return len(self.raw_eigenvalues)

    @property
    def eigenvalues(self) -> tuple:
        return tuple(map(self.mp.make_mpf, self.raw_eigenvalues))

    @property
    def basis(self) -> tuple:
        n, q = self.n, tuple(map(self.mp.make_mpf, self.raw_basis))
        return tuple(q[i * n:(i + 1) * n] for i in range(n))

    def __repr__(self) -> str:
        return f"Spectrum(eigenvalues={self.eigenvalues!r}, basis={self.basis!r})"

    def reconstruct(self) -> SymMatrix:
        """Q diag(lambda) Q^T, computed on the upper triangle and mirrored.

        Runs on the raw tuples at the precision of ``mp``, one raw call per
        ``mpf`` operation of ``sum(q[i][k] * lam[k] * q[j][k] for k)``, so
        the entries are bit for bit those of that expression.
        """
        n = self.n
        if not n:
            return SymMatrix(())
        prec = self.mp.prec
        lam, q = self.raw_eigenvalues, self.raw_basis
        rows = [q[i * n:(i + 1) * n] for i in range(n)]
        out = [None] * (n * n)
        for i in range(n):
            scaled = [_raw_mul(x, y, prec) for x, y in zip(rows[i], lam)]
            for j in range(i, n):
                out[i * n + j] = out[j * n + i] = _raw_sum(
                    (_raw_mul(x, y, prec) for x, y in zip(scaled, rows[j])), prec)
        return _vec(SymMatrix, tuple(out), self.mp)

    def with_eigenvalues(self, eigenvalues: Sequence) -> "Spectrum":
        return _spectrum(tuple(x._mpf_ for x in eigenvalues), self.raw_basis, self.mp)


def _spectrum(raw_eigenvalues, raw_basis, mp) -> Spectrum:
    """The Spectrum of raw eigenvalues and a flat row-major raw basis in
    the mpmath context mp."""
    s = object.__new__(Spectrum)
    s.raw_eigenvalues = raw_eigenvalues
    s.raw_basis = raw_basis
    s.mp = mp
    return s


def _raw_inner(a, b, prec):
    """``sum(x * y)`` over the entries of two vectors, left to right from
    the first product; raw.  On Point2 that is ``a.x * b.x + a.z * b.z``."""
    return _raw_sum(map(_raw_mul, a.raw, b.raw, repeat(prec)), prec)


def inner(a, b):
    """Inner product: Euclidean on Point2, Frobenius on SymMatrix; raw, at
    the precision of a's context."""
    mp = a.mp
    return mp.make_mpf(_raw_inner(a, b, mp.prec))


def _raw_norm(a, prec):
    """``sqrt(inner(a, a))``, raw."""
    return _raw_sqrt(_raw_inner(a, a, prec), prec)


def norm(a, ctx: PrecisionContext):
    """``sqrt(inner(a, a))``, raw, at the context's precision."""
    return ctx.mp.make_mpf(_raw_norm(a, ctx.mp.prec))


def dist(a, b, ctx: PrecisionContext):
    """``norm(a - b)``, raw, at the context's precision, without building
    ``a - b``."""
    prec = ctx.mp.prec
    d = tuple(map(_raw_add, a.raw, b.raw, repeat(prec), repeat(1)))
    return ctx.mp.make_mpf(_raw_sqrt(_raw_sum(map(_raw_mul, d, d, repeat(prec)), prec), prec))


# Raw arithmetic.  ``_raw_add``, ``_raw_sub``, ``_raw_mul``,
# ``_raw_mul_int``, ``_raw_div`` and ``_raw_sqrt`` return
# the tuple that the ``libmp`` function of the same name returns at ``prec``
# rounding to nearest, bit for bit: each copies that function's algorithm
# step for step, but counts bits with ``int.bit_length`` and strips
# trailing zeros with ``man & -man``, where the pure-Python backend bisects
# a table and takes a ``math.log``.  Zero plus, minus or times a finite
# value is answered as ``libmp`` answers it; other zero and special operands
# go to the ``libmp`` function itself.  (``libmp``'s own attributes stay untouched:
# rebinding them would change mpmath for every caller in the process.)


def _round(sign, man, exp, prec):
    """``libmp.normalize(sign, man, exp, bc, prec, round_nearest)`` for
    man > 0: round to prec bits, ties to even, then strip trailing zeros."""
    bc = man.bit_length()
    n = bc - prec
    if n > 0:
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
        bc = prec
    if not man & 1:
        # a round-up to 2^prec also lands here
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
        bc = man.bit_length()
    return sign, man, exp, bc


def _raw_add(s, t, prec, _sub=0):
    """``mpf_add(s, t, prec, round_nearest)``; ``_sub=1`` negates t first."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= _sub
    if not sman or not tman:
        # zero and a finite value of at most prec bits: that value, which
        # is what mpf_add's normalize leaves of it
        if tman and s == fzero and tbc <= prec:
            return tsign, tman, texp, tbc
        if sman and t == fzero and sbc <= prec:
            return s
        return mpf_add(s, t, prec, round_nearest, _sub)
    offset = sexp - texp
    if offset > 0:
        # t lies wholly below s's rounding position: only perturb s
        if offset > 100 and sbc + sexp - tbc - texp > prec + 4:
            man = (sman << (prec + 4)) + (1 if tsign == ssign else -1)
            return _round(ssign, man, sexp - prec - 4, prec)
        man = sman << offset
        exp = texp
        if ssign == tsign:
            man += tman
        elif ssign:
            man = tman - man
        else:
            man -= tman
    elif offset < 0:
        if offset < -100 and tbc + texp - sbc - sexp > prec + 4:
            man = (tman << (prec + 4)) + (1 if ssign == tsign else -1)
            return _round(tsign, man, texp - prec - 4, prec)
        man = tman << -offset
        exp = sexp
        if ssign == tsign:
            man += sman
        elif tsign:
            man = sman - man
        else:
            man -= sman
    else:
        exp = texp
        if ssign == tsign:
            man = tman + sman
        elif ssign:
            man = tman - sman
        else:
            man = sman - tman
        if not man:
            return fzero
    if ssign == tsign:
        return _round(ssign, man, exp, prec)
    if man < 0:
        return _round(1, -man, exp, prec)
    return _round(0, man, exp, prec)


def _raw_sub(s, t, prec):
    """``mpf_sub(s, t, prec, round_nearest)``."""
    return _raw_add(s, t, prec, 1)


def _raw_mul(s, t, prec):
    """``mpf_mul(s, t, prec, round_nearest)``; also ``mpf_pow_int(s, 2, ...)``
    when t is s."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    man = sman * tman
    if not man:
        # zero times a finite value or zero; inf and nan have exponents
        if (sman or not sexp) and (tman or not texp):
            return fzero
        return mpf_mul(s, t, prec, round_nearest)
    return _round(ssign ^ tsign, man, sexp + texp, prec)


def _raw_mul_int(s, n, prec):
    """``mpf_mul_int(s, n, prec, round_nearest)``: s times the int n."""
    sign, man, exp, bc = s
    if not man or not n:
        return mpf_mul_int(s, n, prec, round_nearest)
    if n < 0:
        sign ^= 1
        n = -n
    return _round(sign, man * n, exp, prec)


def _raw_div(s, t, prec):
    """``mpf_div(s, t, prec, round_nearest)``: a quotient with at least
    prec + 5 bits, and a sticky 1 bit for a nonzero remainder."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        return mpf_div(s, t, prec, round_nearest)
    sign = ssign ^ tsign
    if tman == 1:
        return _round(sign, sman, sexp - texp, prec)
    extra = prec - sbc + tbc + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(sman << extra, tman)
    if rem:
        return _round(sign, (quot << 1) + 1, sexp - texp - extra - 1, prec)
    return _round(sign, quot, sexp - texp - extra, prec)


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
    return _round(0, man, (exp - shift) // 2, prec)


def _raw_sum(terms, prec):
    """``sum(terms)`` over an iterator of raw mpf tuples, left to right
    from the first term, which is returned as it is: every term must
    already be rounded to prec (the result is then that of a sum from
    zero)."""
    acc = next(terms, fzero)
    for term in terms:
        acc = _raw_add(acc, term, prec)
    return acc


def _off_diagonal_sq(a, n, prec):
    """``2 * sum(a[p][q] * a[p][q] for p < q)``, raw."""
    squares = (_raw_mul(a[p][q], a[p][q], prec) for p in range(n) for q in range(p + 1, n))
    return _raw_mul_int(_raw_sum(squares, prec), 2, prec)


def _sqrt_one_plus_sq(x, prec):
    """``sqrt(1 + x * x)``, raw."""
    return _raw_sqrt(_raw_add(_raw_mul(x, x, prec), fone, prec), prec)


def _rotate(c, s, x, y, prec):
    """``(c * x - s * y, s * x + c * y)``, raw, with the products rounded
    inline.  For finite nonzero c and s, a zero x or y drops the products
    it zeroes, and c == 1 keeps x and y of at most prec bits as they are:
    each shortcut gives the tuples of the full expression."""
    csign, cman, cexp, _ = c
    ssign, sman, sexp, _ = s
    xsign, xman, xexp, xbc = x
    ysign, yman, yexp, ybc = y
    if cman and sman:
        if xman and yman:
            sx = _round(ssign ^ xsign, sman * xman, sexp + xexp, prec)
            sy = _round(ssign ^ ysign, sman * yman, sexp + yexp, prec)
            if c == fone and xbc <= prec and ybc <= prec:
                return _raw_sub(x, sy, prec), _raw_add(sx, y, prec)
            cx = _round(csign ^ xsign, cman * xman, cexp + xexp, prec)
            cy = _round(csign ^ ysign, cman * yman, cexp + yexp, prec)
            return _raw_sub(cx, sy, prec), _raw_add(sx, cy, prec)
        if y == fzero:
            return _raw_mul(c, x, prec), _raw_mul(s, x, prec)
        if x == fzero:
            return mpf_neg(_raw_mul(s, y, prec)), _raw_mul(c, y, prec)
    return (
        _raw_sub(_raw_mul(c, x, prec), _raw_mul(s, y, prec), prec),
        _raw_add(_raw_mul(s, x, prec), _raw_mul(c, y, prec), prec),
    )


def eig_sym(X: SymMatrix, ctx: PrecisionContext) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Deterministic: fixed row-major sweep order, threshold rules with exact
    comparisons, eigenvalues stably sorted ascending, eigenvector signs fixed
    by making each column's first largest-magnitude component positive.
    Raises :class:`NonConvergenceError` if the sweep budget (30*n^2) is
    exhausted, which for well-posed symmetric input does not happen.

    The sweeps run on ``X.raw`` through the raw arithmetic above at the
    context's precision, rounding to nearest; each call gives the bits of
    the ``mpf`` operation it replaces, so the result is bit for bit that of
    the same algorithm written with ``mpf`` objects (pinned by a
    differential test against that version).
    """
    n = X.n
    prec, rnd = ctx.mp.prec, round_nearest
    a = [list(X.raw[i * n:(i + 1) * n]) for i in range(n)]
    v = [[fone if i == j else fzero for j in range(n)] for i in range(n)]

    norm_x = _raw_sqrt(_raw_sum((_raw_mul(x, x, prec) for x in X.raw), prec), prec)
    if n == 1 or norm_x == fzero:
        return _sorted_spectrum(a, v, n, ctx.mp)

    # stop when the off-diagonal Frobenius mass is negligible relative to X
    off_goal = _raw_mul(ctx.floor._mpf_, norm_x, prec)
    off_goal_sq = _raw_mul(off_goal, off_goal, prec)
    max_sweeps = 30 * n * n
    for _ in range(max_sweeps):
        if mpf_le(_off_diagonal_sq(a, n, prec), off_goal_sq):
            return _sorted_spectrum(a, v, n, ctx.mp)
        for p in range(n):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == fzero:
                    continue
                diff = _raw_sub(a[q][q], a[p][p], prec)
                tau = _raw_div(diff, _raw_mul_int(apq, 2, prec), prec)
                denom = _raw_add(mpf_abs(tau, prec, rnd), _sqrt_one_plus_sq(tau, prec), prec)
                t = _raw_div(fnone if mpf_lt(tau, fzero) else fone, denom, prec)
                c = _raw_div(fone, _sqrt_one_plus_sq(t, prec), prec)
                s = _raw_mul(t, c, prec)
                t_apq = _raw_mul(t, apq, prec)
                a[p][p] = _raw_sub(a[p][p], t_apq, prec)
                a[q][q] = _raw_add(a[q][q], t_apq, prec)
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


_by_value = functools.cmp_to_key(mpf_cmp)


def _sorted_spectrum(a, v, n, mp) -> Spectrum:
    """The Spectrum of the diagonal of a and the columns of v, raw: the
    eigenvalues sorted stably by value, each column negated if its first
    largest-magnitude component is negative."""
    diag = [a[i][i] for i in range(n)]
    perm = sorted(range(n), key=lambda k: _by_value(diag[k]))
    cols = []
    for k in perm:
        col = [row[k] for row in v]
        peak = 0
        for i in range(1, n):
            if mpf_gt(mpf_abs(col[i]), mpf_abs(col[peak])):
                peak = i
        if mpf_lt(col[peak], fzero):
            col = [mpf_neg(x) for x in col]
        cols.append(col)
    basis = tuple(col[i] for i in range(n) for col in cols)
    return _spectrum(tuple(diag[k] for k in perm), basis, mp)


def solve2x2(A: Sequence[Sequence], b: Sequence, ctx: PrecisionContext):
    """Solve a 2x2 linear system by Cramer's rule.

    Raises :class:`SingularMatrixError` when |det A| <= floor * ||A||_F^2
    (the determinant scales like the norm squared).  Runs on raw tuples at
    the context's precision, one raw call per ``mpf`` operation of
    ``det = a00 * a11 - a01 * a10``, ``(b0 * a11 - b1 * a01) / det`` and
    ``(a00 * b1 - a10 * b0) / det``.
    """
    prec, make = ctx.mp.prec, ctx.mp.make_mpf
    (a00, a01), (a10, a11) = ((x._mpf_ for x in row) for row in A)
    b0, b1 = b[0]._mpf_, b[1]._mpf_
    det = _raw_sub(_raw_mul(a00, a11, prec), _raw_mul(a01, a10, prec), prec)
    scale = _raw_sum((_raw_mul(x, x, prec) for x in (a00, a01, a10, a11)), prec)
    if mpf_le(mpf_abs(det, prec, round_nearest), _raw_mul(ctx.floor._mpf_, scale, prec)):
        raise SingularMatrixError(make(det))
    return (
        make(_raw_div(_raw_sub(_raw_mul(b0, a11, prec), _raw_mul(b1, a01, prec), prec), det, prec)),
        make(_raw_div(_raw_sub(_raw_mul(a00, b1, prec), _raw_mul(a10, b0, prec), prec), det, prec)),
    )
