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
from itertools import repeat
from typing import NamedTuple, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    fhalf, fnone, fone, from_int, ftwo, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_eq,
    mpf_hash, mpf_le, mpf_mul, mpf_neg, mpf_sqrt, round_nearest,
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


class Frozen:
    """Base of the immutable ``__slots__`` classes that check their
    arguments: ``__init__`` sets each slot once with ``object.__setattr__``.
    Equality, hash, repr, copies and pickles follow ``_fields``, the
    ``__init__`` arguments in order."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class PrecisionContext(Frozen):
    """Working precision plus the arithmetic floor derived from it.

    ``floor`` = 10^-(decimal_digits - 10) is the relative tolerance the
    kernels share: the off-diagonal residual at which the eigensolver
    stops, the threshold below which determinants / denominators count as
    degenerate (collinear), and the level below which errors and
    successive-iterate gaps are arithmetic noise.

    All contexts of one precision share one mpmath context and one floor
    (built once per process); nothing may set that context's ``dps`` or
    ``prec``.  Contexts of one precision are equal and hash equal.
    """

    __slots__ = ("decimal_digits", "mp", "floor")
    _fields = ("decimal_digits",)

    def __init__(self, decimal_digits: int = 120):
        if decimal_digits < 30:
            raise ValueError(f"decimal_digits must be >= 30, got {decimal_digits}")
        mp, floor = _shared_context(decimal_digits)
        object.__setattr__(self, "decimal_digits", decimal_digits)
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
    mpmath context they belong to; the engines compute on ``raw``.  The one
    operator, ``v * s`` by an ``mpf`` (any other operand is a
    ``TypeError``), has the bits of the ``mpf`` products; it and its
    ``int``-entry path stay for ``perfbench/test_harness.py``.  ``==``
    compares by value, so that ``p != q`` checks values, and equal values
    hash equally whatever their precision.  Pickling and copying rebuild
    the vector on the shared context of its precision.
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

    def __mul__(self, scalar):
        s = getattr(scalar, "_mpf_", None)
        if s is None:
            return NotImplemented
        mp = self.mp
        if mp is None:
            # int entries (see SymMatrix) times an mpf: mpf_mul_int(s, k)
            mp = scalar.context
            raw = tuple(map(_raw_mul, repeat(s), map(from_int, self.raw), repeat(mp.prec)))
        else:
            raw = tuple(map(_raw_mul, self.raw, repeat(s), repeat(mp.prec)))
        return _vec(type(self), raw, mp)


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
    entry; ``entries`` (the rows) are ``mpf`` views.
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
                x, y = entries[i][j], entries[j][i]
                if x != y:
                    if x != x or y != y:  # nan equals nothing, itself included
                        k = (i, j) if x != x else (j, i)
                        raise ValueError(f"matrix entry ({k[0]},{k[1]}) is nan, not finite")
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


class Spectrum(NamedTuple):
    """Eigendecomposition of a symmetric matrix, raw.

    ``raw_eigenvalues`` are sorted ascending; ``raw_basis`` is the
    eigenvector matrix, flat and row-major, whose column k is the
    eigenvector for eigenvalue k, sign-fixed so that the first component of
    largest magnitude is positive.  Both hold raw ``mpf._mpf_`` tuples of
    ``mp``, the mpmath context of the basis; ``eigenvalues`` and ``basis``
    are their ``mpf`` views.
    """

    raw_eigenvalues: tuple
    raw_basis: tuple
    mp: MPContext

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
                out[i * n + j] = out[j * n + i] = _raw_inner(scaled, rows[j], prec)
        return _vec(SymMatrix, tuple(out), self.mp)


def _raw_inner(a, b, prec):
    """``sum(x * y)`` over two sequences of raw entries, left to right
    from the first product, in one loop; the first product is kept as it
    is, which is the sum from zero, since it is already rounded.  On
    Point2 entries that is ``a.x * b.x + a.z * b.z``."""
    acc = None
    for x, y in zip(a, b):
        term = _raw_mul(x, y, prec)
        acc = term if acc is None else _raw_add(acc, term, prec)
    return fzero if acc is None else acc


def dist(a, b, ctx: PrecisionContext):
    """``|a - b|``, Euclidean or Frobenius, raw, at the context's precision,
    in one loop over the entries: each difference is squared and added to
    the sum of the squares before it, as ``_raw_inner`` adds its products."""
    prec = ctx.mp.prec
    acc = None
    for x, y in zip(a.raw, b.raw):
        d = _raw_add(x, y, prec, 1)
        d = _raw_mul(d, d, prec)
        acc = d if acc is None else _raw_add(acc, d, prec)
    return ctx.mp.make_mpf(_raw_sqrt(fzero if acc is None else acc, prec))


def _abs_le(x, bound):
    """``mpf_le(mpf_abs(x), bound)`` for a positive finite bound.  A
    nonzero x lies in [2^(m-1), 2^m) in magnitude, m = exp + bc, so
    unequal m decide the test; equal ones, zero and special values go to
    ``libmp``.  For any x but NaN, ``not _abs_le(x, bound)`` is
    ``mpf_gt(mpf_abs(x), bound)``."""
    _, man, exp, bc = x
    if man:
        m, mb = exp + bc, bound[2] + bound[3]
        if m != mb:
            return m < mb
    return mpf_le(mpf_abs(x), bound)


def _le_product(x, a, b, c, prec):
    """``mpf_le(x, mpf_mul(mpf_mul(a, b, prec), c, prec))`` for finite a,
    b and c.  A nonzero value of magnitude m = exp + bc lies below 2^m and
    rounding carries a product at most up to the next power of two, so
    the bound is at most 2^(ma + mb + mc) in magnitude.  A positive x with
    m_x > ma + mb + mc + 1 is at least twice that and exceeds it; other x
    meet the bound itself."""
    sign, man, exp, bc = x
    if man and not sign and exp + bc > a[2] + a[3] + b[2] + b[3] + c[2] + c[3] + 1:
        return False
    return mpf_le(x, _raw_mul(_raw_mul(a, b, prec), c, prec))


# Raw arithmetic.  ``_raw_add``, ``_raw_sub``, ``_raw_mul``, ``_raw_div``
# and ``_raw_sqrt`` return the tuple that the ``libmp`` function of the same
# name returns at ``prec`` rounding to nearest, bit for bit: each rounds
# the value that function rounds, once, but counts bits with
# ``int.bit_length`` and strips trailing zeros with ``man & -man``, where
# the pure-Python backend bisects a table and takes a ``math.log``.  A
# product by an int k is ``_raw_mul`` by ``from_int(k)``, as in
# ``mpf_mul_int``.  Zero plus, minus or times a finite value is answered as
# ``libmp`` answers it; other zero and special operands go to the ``libmp``
# function itself.  (``libmp``'s own attributes stay untouched: rebinding
# them would change mpmath for every caller in the process.)


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
    """``mpf_add(s, t, prec, round_nearest)``; ``_sub=1`` negates t first.
    Of ``mpf_add``'s two exponent orders one is computed: neither the exact
    sum nor the rule that a lower operand wholly below the rounding
    position only perturbs the upper one depends on the order.  Odd
    mantissas cancel exactly only at equal exponents, to ``fzero``."""
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
    if offset >= 0:
        if offset > 100 and sbc + sexp - tbc - texp > prec + 4:
            man, low, exp = sman << (prec + 4), 1, sexp - prec - 4
        else:
            man, low, exp = sman << offset, tman, texp
    else:
        if offset < -100 and tbc + texp - sbc - sexp > prec + 4:
            man, low, exp = tman << (prec + 4), 1, texp - prec - 4
        else:
            man, low, exp = tman << -offset, sman, sexp
        ssign, tsign = tsign, ssign
    # ssign is now the upper operand's sign, tsign the lower one's
    if ssign == tsign:
        man += low
    else:
        man -= low
        if man < 0:
            man, ssign = -man, tsign
        elif not man:
            return fzero
    return _round(ssign, man, exp, prec)


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


def _raw_mul_pow2(s, t, prec):
    """``_raw_mul(s, t, prec)``, adding exponents when t is a power of two
    (mantissa 1) and s is finite, nonzero and of at most prec bits: the
    product is exact and already normalized.  With t ``ftwo`` this is also
    ``mpf_mul_int(s, 2, prec)``: both round 2 * s once."""
    ssign, sman, sexp, sbc = s
    if t[1] == 1 and 0 < sbc <= prec:
        return ssign ^ t[0], sman, sexp + t[2], sbc
    return _raw_mul(s, t, prec)


def _raw_reflect(q, x, prec):
    """``mpf_sub(mpf_mul_int(q, 2, prec), x, prec)``, rounding to nearest:
    the reflection ``2 * q - x`` of x through q.  Through itself, a finite
    nonzero x of at most prec bits reflects to x exactly."""
    if q is x and 0 < x[3] <= prec:
        return x
    return _raw_add(_raw_mul_pow2(q, ftwo, prec), x, prec, 1)


def _raw_midpoint(s, t, prec):
    """``mpf_mul(mpf_add(s, t, prec), fhalf, prec)``, rounding to nearest:
    the sum is already rounded, so halving it only lowers its exponent."""
    return _raw_mul_pow2(_raw_add(s, t, prec), fhalf, prec)


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


def _off_diagonal_sq(a, n, prec):
    """``2 * sum(a[p][q] * a[p][q] for p < q)``, raw."""
    off = [a[p][q] for p in range(n) for q in range(p + 1, n)]
    return _raw_mul_pow2(_raw_inner(off, off, prec), ftwo, prec)


def _stop_by_exponents(a, n, g):
    """``mpf_le(_off_diagonal_sq(a, n, prec), goal)`` decided from
    exponents, or None where they cannot decide it.  goal is the rounded
    ``(floor * norm_x)^2`` of a finite nonzero n x n matrix X, and
    g = m_floor + M_X, M_X the largest magnitude exp + bc of an entry of X.

    A nonzero x lies in [2^(m-1), 2^m) in magnitude, so its rounded square
    lies in [2^(2m-2), 2^(2m)]: rounding to nearest does not pass the power
    of two above.  A rounded sum of k such nonnegative terms is at least
    its largest term, and, for k < 2^b, at most 2^(2m+b): k - 1 additions
    lift k * 2^(2m) by far less than the gap to 2^b * 2^(2m).  So with M the
    largest magnitude of a nonzero off-diagonal entry, K = n(n-1)/2 and the
    exact doubling, the mass lies in [2^(2M-1), 2^(2M+b+1)], b =
    K.bit_length().  Likewise norm_x lies in [2^(M_X-1), 2^(M_X+L)],
    L = n.bit_length() (n^2 < 4^L terms, then a root), the rounded
    floor * norm_x in [2^(g-2), 2^(g+L)] and goal in [2^(2g-4), 2^(2g+2L)].
    The mass is at most the goal when 2M + b + 1 <= 2g - 4 or every
    off-diagonal entry is zero, and above it when 2M - 1 > 2g + 2L."""
    mags = [x[2] + x[3] for p in range(n - 1) for x in a[p][p + 1:] if x[1]]
    if not mags:
        return True
    m = max(mags)
    if 2 * m + (n * (n - 1) // 2).bit_length() + 1 <= 2 * g - 4:
        return True
    if 2 * m - 1 > 2 * (g + n.bit_length()):
        return False
    return None


def _sqrt_one_plus_sq(x, prec):
    """``sqrt(1 + x * x)``, raw."""
    return _raw_sqrt(_raw_add(_raw_mul(x, x, prec), fone, prec), prec)


def _rotation(apq, diff, prec):
    """The raw (t, c, s) of the Jacobi rotation that zeroes apq, diff =
    a_qq - a_pp: ``tau = diff / (2 * apq)``, ``t = sign(tau) / (|tau| +
    sqrt(1 + tau * tau))``, ``c = 1 / sqrt(1 + t * t)`` and ``s = t * c``,
    each operation rounded once, with sign(0) = 1.

    tau and t are quotients of at most prec bits.  Two closed forms give
    the same tuples.  With m the magnitude exp + bc of a nonzero value, its
    rounded square is at least 2^(2m-2), so 1 lies below half its unit in
    the last place once 2m > prec + 2, and at most 2^(2m), below half of
    1's once 2m < -prec.  So when 2 m_tau > prec + 4, ``1 + tau * tau``
    rounds to ``tau * tau``, whose rounded square root is |tau| in radix 2
    (Boldo 2015, "Taking the square root of the square of a floating-point
    number"), and the denominator is 2|tau|, exactly.  When 2 m_t <
    -(prec + 2), ``1 + t * t`` rounds to 1, so c = 1 and s = t."""
    tau = _raw_div(diff, _raw_mul_pow2(apq, ftwo, prec), prec)
    sign, man, exp, bc = tau
    if 2 * (exp + bc) > prec + 4:
        denom = (0, man, exp + 1, bc)
    else:
        denom = _raw_add((0, man, exp, bc), _sqrt_one_plus_sq(tau, prec), prec)
    t = _raw_div(fnone if sign else fone, denom, prec)
    if 2 * (t[2] + t[3]) < -(prec + 2):
        return t, fone, t
    c = _raw_div(fone, _sqrt_one_plus_sq(t, prec), prec)
    return t, c, _raw_mul(t, c, prec)


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
    exhausted, which for well-posed symmetric input does not happen, and
    :class:`FeasikitError`, naming the entry, for an infinite or nan entry.

    The sweeps run on ``X.raw`` through the raw arithmetic above at the
    context's precision, rounding to nearest; each call gives the bits of
    the ``mpf`` operation it replaces, so the result is bit for bit that of
    the same algorithm written with ``mpf`` objects (pinned by a
    differential test against that version).  Before each sweep the
    off-diagonal mass ``2 * sum(a[p][q]^2 for p < q)`` is tested against
    the goal ``(floor * ||X||_F)^2``.  The exponents of the largest
    off-diagonal entry, of the floor and of the largest entry of X bound
    both sides to bands of powers of two (``_stop_by_exponents``); the mass
    and the goal are rounded only where the bands overlap, and the goal,
    with the norm of X, at most once per call, on first need.

    No sweep reads the eigenvectors, so they are accumulated apart from
    the sweeps: ``helper.jacobi_basis`` applies each sweep's rotations to
    the identity in a helper process where one can (see
    ``feasikit.helper``), or in this one.  Each row sees the same
    rotations in the same order either way.
    """
    n = X.n
    raw = X.raw
    bad = next((k for k, x in enumerate(raw) if not x[1] and x[2]), None)
    if bad is not None:
        entry = ctx.mp.make_mpf(raw[bad])
        raise FeasikitError(f"eig_sym: entry ({bad // n},{bad % n}) is {entry}, not finite")
    prec = ctx.mp.prec
    a = [list(raw[i * n:(i + 1) * n]) for i in range(n)]
    if n == 1 or not any(x[1] for x in raw):
        return _sorted_spectrum(a, _rotated_identity(n, (), prec), n, ctx.mp)

    from feasikit import helper  # loaded by the first eigensolve that sweeps

    v = helper.jacobi_basis(n, _jacobi_sweeps(a, n, raw, ctx), prec)
    return _sorted_spectrum(a, v, n, ctx.mp)


def _jacobi_sweeps(a, n, x_raw, ctx):
    """Sweep the rows a of the finite nonzero matrix of raw entries x_raw
    in place until its off-diagonal mass is negligible, yielding each
    sweep's rotations as (p, q, c, s) with raw c and s; raises
    :class:`NonConvergenceError` after ``_sweep_budget(n)`` sweeps."""
    prec = ctx.mp.prec
    floor = ctx.floor._mpf_
    g = floor[2] + floor[3] + max(x[2] + x[3] for x in x_raw if x[1])
    off_goal_sq = None
    max_sweeps = _sweep_budget(n)
    for _ in range(max_sweeps):
        # stop when the off-diagonal Frobenius mass is negligible relative to X
        done = _stop_by_exponents(a, n, g)
        if done is None:
            if off_goal_sq is None:
                off_goal = _raw_mul(floor, _raw_sqrt(_raw_inner(x_raw, x_raw, prec), prec), prec)
                off_goal_sq = _raw_mul(off_goal, off_goal, prec)
            done = mpf_le(_off_diagonal_sq(a, n, prec), off_goal_sq)
        if done:
            return
        rotations = []
        for p in range(n):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == fzero:
                    continue
                t, c, s = _rotation(apq, _raw_sub(a[q][q], a[p][p], prec), prec)
                t_apq = _raw_mul(t, apq, prec)
                a[p][p] = _raw_sub(a[p][p], t_apq, prec)
                a[q][q] = _raw_add(a[q][q], t_apq, prec)
                a[p][q] = a[q][p] = fzero
                for i in range(n):
                    if i == p or i == q:
                        continue
                    a[i][p], a[i][q] = _rotate(c, s, a[i][p], a[i][q], prec)
                    a[p][i], a[q][i] = a[i][p], a[i][q]
                rotations.append((p, q, c, s))
        yield rotations
    off = ctx.mp.make_mpf(_raw_sqrt(_off_diagonal_sq(a, n, prec), prec))
    raise NonConvergenceError(
        f"Jacobi sweeps exhausted ({max_sweeps}) with off-diagonal residual {off}"
    )


def _sweep_budget(n):
    """The number of Jacobi sweeps after which ``eig_sym`` gives up."""
    return 30 * n * n


def _rotated_identity(n, sweeps, prec):
    """The rows of the identity of order n with every sweep's rotations
    applied in order (``_rotate_rows``)."""
    v = [[fone if i == j else fzero for j in range(n)] for i in range(n)]
    for rotations in sweeps:
        _rotate_rows(v, rotations, prec)
    return v


def _rotate_rows(v, rotations, prec):
    """Apply the rotations (p, q, c, s) in order to the entries p and q of
    each row of v, in place.  A row's entries depend on that row alone, so
    row by row gives the bits of rotation by rotation."""
    for row in v:
        for p, q, c, s in rotations:
            row[p], row[q] = _rotate(c, s, row[p], row[q], prec)


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
        top = col[0]
        for x in col[1:]:
            # |x| > |top|; _abs_le decides unequal magnitudes by exponents
            if x[1] and (not top[1] or not _abs_le(x, mpf_abs(top))):
                top = x
        if top[0]:
            col = [mpf_neg(x) for x in col]
        cols.append(col)
    basis = tuple(col[i] for i in range(n) for col in cols)
    return Spectrum(tuple(diag[k] for k in perm), basis, mp)


def solve2x2(A: Sequence[Sequence], b: Sequence, ctx: PrecisionContext):
    """Solve a 2x2 linear system of raw entries by Cramer's rule; returns
    the raw solution.

    Raises :class:`SingularMatrixError`, with the determinant as an
    ``mpf``, when |det A| <= floor * ||A||_F^2 (the determinant scales like
    the norm squared; see ``_singular``).  Runs at the context's precision,
    one raw call per ``mpf`` operation of ``det = a00 * a11 - a01 * a10``,
    ``(b0 * a11 - b1 * a01) / det`` and ``(a00 * b1 - a10 * b0) / det``,
    except that a product the determinant and a numerator share
    (``b0 * a11`` when b0 is a00, ``a00 * b1`` when b1 is a11, as in the LT
    system) is rounded once.
    """
    prec = ctx.mp.prec
    (a00, a01), (a10, a11) = A
    b0, b1 = b
    diag = _raw_mul(a00, a11, prec)
    det = _raw_sub(diag, _raw_mul(a01, a10, prec), prec)
    if _singular(det, (a00, a01, a10, a11), ctx.floor._mpf_, prec):
        raise SingularMatrixError(ctx.mp.make_mpf(det))
    n0 = diag if b0 == a00 else _raw_mul(b0, a11, prec)
    n1 = diag if b1 == a11 else _raw_mul(a00, b1, prec)
    return (
        _raw_div(_raw_sub(n0, _raw_mul(b1, a01, prec), prec), det, prec),
        _raw_div(_raw_sub(n1, _raw_mul(a10, b0, prec), prec), det, prec),
    )


def _singular(det, entries, floor, prec):
    """``mpf_le(mpf_abs(det), mpf_mul(floor, _raw_inner(entries, entries)))``
    for finite entries.  With M the largest magnitude exp + bc of a nonzero
    entry, each rounded square is at most 2^(2M), their rounded sum at most
    2^(2M + 2) and the rounded bound at most 2^(m_floor + 2M + 2); a
    determinant with m_det > m_floor + 2M + 3 is at least twice that.  Any
    other determinant meets the bound itself."""
    _, man, exp, bc = det
    if man:
        # a finite nonzero det has finite entries, one of them nonzero
        m = max(t[2] + t[3] for t in entries if t[1])
        if exp + bc > floor[2] + floor[3] + 2 * m + 3:
            return False
    scale = _raw_inner(entries, entries, prec)
    return mpf_le(mpf_abs(det, prec, round_nearest), _raw_mul(floor, scale, prec))
