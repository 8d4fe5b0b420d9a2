"""Feasibility sets with projection selectors and reflections.

Plane sets: horizontal lines (the x-axis is the line at height 0), the
unit circle and graphs of analytic curves.  Matrix sets: the PSD cone, its boundary, and the affine
sets fixing the diagonal (all ones) or the (1,1) entry.  Projections are
single-valued selectors, so ``project(project(p)) == project(p)``;
reflections are ``R = 2 P - I``, taking and returning raw entries.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Callable, NamedTuple

from mpmath.ctx_mp import MPContext
from mpmath.libmp import fone, from_man_exp, fzero, mpf_abs, mpf_cmp, mpf_ge, mpf_gt, mpf_le

from feasikit.numerics import (
    FeasikitError,
    Frozen,
    Point2,
    PrecisionContext,
    SymMatrix,
    _abs_le,
    _raw_add,
    _raw_div,
    _raw_mul,
    _raw_mul_pow2,
    _raw_reflect,
    _raw_sqrt,
    _raw_sub,
    _vec,
    eig_sym,
)


class ProjectionError(FeasikitError):
    """A projection kernel failed to converge from every Newton start."""


class FeasibilitySet(ABC):
    """Abstract capability: project a point, of type ``vector``, onto the
    set, and reflect the raw entries of a point through it."""

    __slots__ = ()
    vector = None

    @abstractmethod
    def project(self, p, ctx: PrecisionContext):
        ...

    def raw_reflect(self, raw: tuple, ctx: PrecisionContext) -> tuple:
        """The raw entries of ``project(p) * 2 - p``, entry by entry at the
        context's precision, for the point p of raw entries ``raw``: p is
        built as a ``vector`` and projected, and each entry is reflected
        through the projection's (``_raw_reflect``)."""
        mp = ctx.mp
        q = self.project(_vec(self.vector, raw, mp), ctx)
        return tuple(map(_raw_reflect, q.raw, raw, repeat(mp.prec)))


# ---------------------------------------------------------------------------
# plane sets


class AnalyticCurve(NamedTuple):
    """An analytic function t -> f(t) with f(0) = 0 and f'(0) != 0.

    ``raw_jet(t)`` maps a raw ``mpf._mpf_`` tuple t to the raw tuples
    (f(t), f'(t), f''(t)), computed at the precision of the context that
    built the curve; ``jet(t)`` is the same map on ``mpf`` values of that
    context.  ``a`` caches f'(0).
    """

    raw_jet: Callable
    a: object
    mp: MPContext
    ident: str = ""

    @classmethod
    def checked(cls, jet, ctx: PrecisionContext, ident: str = "") -> "AnalyticCurve":
        f0, a, _ = (ctx.mp.make_mpf(x) for x in jet(fzero))
        if not (ctx.mp.isfinite(f0) and ctx.mp.isfinite(a)):
            raise ValueError(f"curve must be finite at the origin, f(0)={f0}, f'(0)={a}")
        if abs(f0) > ctx.pow10(-(ctx.decimal_digits - 5)):
            raise ValueError(f"curve must pass through the origin, f(0)={f0}")
        if abs(a) <= ctx.floor:
            raise ValueError(f"curve must not be tangent to the x-axis: |f'(0)| = {abs(a)} "
                             f"is at most the floor {ctx.floor}")
        return cls(raw_jet=jet, a=a, mp=ctx.mp, ident=ident)

    def jet(self, t):
        """(f(t), f'(t), f''(t)) as ``mpf`` values, with t rounded to the
        curve's context."""
        make = self.mp.make_mpf
        return tuple(make(x) for x in self.raw_jet(self.mp.mpf(t)._mpf_))


def project_circle(p: Point2, ctx: PrecisionContext) -> Point2:
    """Radial projection onto the unit circle; the selector at the origin
    (where the projection is set-valued) is (1, 0).

    Runs on raw ``mpf._mpf_`` tuples at the context's precision, one raw
    call per ``mpf`` operation of ``r = sqrt(x * x + z * z)``,
    ``(x / r, z / r)``."""
    mp = ctx.mp
    return _vec(Point2, _raw_circle_point(p.raw, mp.prec), mp)


def _raw_circle_point(raw, prec):
    """``project_circle`` on the raw entries (x, z): ``(x / r, z / r)``
    with ``r = sqrt(x * x + z * z)``, or (1, 0) where r is zero.  The two
    squares and their sum are ``_raw_inner(raw, raw)`` written out,
    without its loop."""
    x, z = raw
    r = _raw_sqrt(_raw_add(_raw_mul(x, x, prec), _raw_mul(z, z, prec), prec), prec)
    if r == fzero:
        return fone, fzero
    return _raw_div(x, r, prec), _raw_div(z, r, prec)


def project_graph(p: Point2, curve: AnalyticCurve, ctx: PrecisionContext) -> Point2:
    """Nearest-point selector onto the graph of the curve.

    Newton's method on the stationarity equation
    g(t) = (t - p.x) + (f(t) - p.z) f'(t) = 0, started from 33 equispaced
    points on [p.x - 2*D, p.x + 2*D] with D = 1 + |p.z|.  Among converged
    roots, the one of least squared distance wins; exact ties break toward
    smaller t.  The curve must come from a context of the same precision.

    The Newton steps run on raw ``mpf._mpf_`` tuples through
    ``curve.raw_jet`` and the raw arithmetic of ``numerics`` at the
    context's precision, rounding to nearest; each call gives the bits of
    the ``mpf`` operation it replaces, so the roots are bit for bit those
    of the same loop written with ``mpf`` objects (pinned by a
    differential test against that version).  The start
    ``lo + width * k / 32`` is one product by the exact k/32.  The product
    ``dz * f''`` shifts an exponent when f'' is a power of two
    (``_raw_mul_pow2``), and the residual and escape tests compare
    magnitudes (``_abs_le``; ``not _abs_le`` is ``|t| > escape`` but for a
    NaN t, which reaches no root either way); each gives the bits of the
    call it replaces.

    The starts share no state, so where a helper process can run (see
    ``feasikit.helper``) the caller claims them from 0 up and the helper
    from 32 down until the two meet; the union of the two root sets is
    the set of one loop over all 33, so the selected point is the same
    bit for bit.
    """
    if curve.mp.prec != ctx.mp.prec:
        raise ValueError(
            f"curve {curve.ident!r} was built at {curve.mp.dps} digits, not {ctx.decimal_digits}"
        )
    jet = curve.raw_jet
    prec = ctx.mp.prec
    px, pz = p.x, p.z
    span = 2 * (1 + abs(pz))
    lo = px - span
    width = 2 * span
    (rpx, rpz), rlo, rwidth = p.raw, lo._mpf_, width._mpf_
    res_tol, merge_tol = _graph_levels(ctx)
    escape = (abs(px) + span + 10)._mpf_
    from feasikit import helper  # loaded by the first graph projection or eigensolve

    roots = helper.graph_roots(jet, (rlo, rwidth, rpx, rpz, res_tol, escape, prec))
    if not roots:
        def show(v):
            return ctx.mp.nstr(v, 17)

        raise ProjectionError(
            f"graph projection of ({show(px)}, {show(pz)}): Newton failed from all 33 "
            f"starts on [{show(lo)}, {show(px + span)}]"
        )
    return _vec(Point2, _nearest_root(roots, p.raw, merge_tol, prec), ctx.mp)


# the raw fractions k/32 of the Newton starts, exact
_START_FRACTIONS = tuple(from_man_exp(k, -5) for k in range(33))


def _newton_roots(jet, starts, lo, width, px, pz, res_tol, escape, prec) -> set:
    """The roots (t, f(t)), without repeats, that ``project_graph``'s
    Newton steps reach from the starts ``lo + width * k / 32`` for k in
    ``starts``.  Every argument but the jet and the starts is a raw tuple
    or the precision."""
    roots = set()
    for k in starts:
        t = _raw_add(lo, _raw_mul(width, _START_FRACTIONS[k], prec), prec)
        for _ in range(200):
            ft, dft, ddft = jet(t)
            dz = _raw_sub(ft, pz, prec)
            gt = _raw_add(_raw_sub(t, px, prec), _raw_mul(dz, dft, prec), prec)
            if _abs_le(gt, res_tol):
                roots.add((t, ft))
                break
            # dft ** 2: mpf_pow_int(dft, 2) has the bits of dft * dft
            slope = _raw_add(_raw_add(_raw_mul(dft, dft, prec), fone, prec),
                             _raw_mul_pow2(dz, ddft, prec), prec)
            if slope == fzero:
                break
            t = _raw_sub(t, _raw_div(gt, slope, prec), prec)
            if not _abs_le(t, escape):
                break
    return roots


@functools.lru_cache(maxsize=None)
def _graph_levels(ctx: PrecisionContext):
    """``project_graph``'s residual tolerance 10^-(digits - 15) and root
    merge tolerance 10^-(digits - 20) as raw tuples, built once per
    precision."""
    return (ctx.pow10(-(ctx.decimal_digits - 15))._mpf_,
            ctx.pow10(-(ctx.decimal_digits - 20))._mpf_)


# raw roots (t, f(t)) in the order of ``mpf`` pairs: by t, then by f(t)
_by_root = functools.cmp_to_key(lambda a, b: mpf_cmp(a[0], b[0]) or mpf_cmp(a[1], b[1]))


def _nearest_root(roots, p, merge_tol, prec):
    """The raw root (t, f(t)) nearest the raw point p = (x, z).

    In ascending order of t, a root is merged into the last kept one,
    its head, when |t - head| <= merge_tol * (1 + |t|).  Among the heads
    the least (t - x)^2 + (f(t) - z)^2 wins, and on an exact tie the
    smaller t, which comes first.  Every raw call has the bits of the
    ``mpf`` operation of that formula."""
    px, pz = p
    best = head = None
    for t, ft in sorted(roots, key=_by_root):
        if head is not None and not mpf_gt(
                mpf_abs(_raw_sub(t, head, prec)),
                _raw_mul(merge_tol, _raw_add(mpf_abs(t), fone, prec), prec)):
            continue
        head = t
        dx = _raw_sub(t, px, prec)
        dz = _raw_sub(ft, pz, prec)
        objective = _raw_add(_raw_mul(dx, dx, prec), _raw_mul(dz, dz, prec), prec)
        if best is None or mpf_gt(least, objective):
            best, least = (t, ft), objective
    return best


class HorizontalLine(Frozen, FeasibilitySet):
    __slots__ = _fields = ("height",)

    def __init__(self, height):
        object.__setattr__(self, "height", height)

    def project(self, p: Point2, ctx: PrecisionContext) -> Point2:
        return _vec(Point2, (p.raw[0], self.height._mpf_), p.mp)

    def raw_reflect(self, raw: tuple, ctx: PrecisionContext) -> tuple:
        """``project(p) * 2 - p`` in closed form, ``(2 * x - x, 2 * h - z)``."""
        prec = ctx.mp.prec
        rx, rz = raw
        return _raw_reflect(rx, rx, prec), _raw_reflect(self.height._mpf_, rz, prec)


class UnitCircle(FeasibilitySet):
    def project(self, p: Point2, ctx: PrecisionContext) -> Point2:
        return project_circle(p, ctx)

    def raw_reflect(self, raw: tuple, ctx: PrecisionContext) -> tuple:
        """``project(p) * 2 - p`` without building the projection: the
        radial point of ``project_circle``, each entry doubled and less
        p's."""
        prec = ctx.mp.prec
        qx, qz = _raw_circle_point(raw, prec)
        rx, rz = raw
        return _raw_reflect(qx, rx, prec), _raw_reflect(qz, rz, prec)


class CurveGraph(Frozen, FeasibilitySet):
    __slots__ = _fields = ("curve",)
    vector = Point2

    def __init__(self, curve: AnalyticCurve):
        object.__setattr__(self, "curve", curve)

    def project(self, p: Point2, ctx: PrecisionContext) -> Point2:
        return project_graph(p, self.curve, ctx)


# ---------------------------------------------------------------------------
# matrix sets


def project_psd(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Eigenvalue-thresholding projection onto the PSD cone; x itself when
    its smallest eigenvalue is nonnegative."""
    spectrum = eig_sym(x, ctx)
    lam = spectrum.raw_eigenvalues
    if mpf_ge(lam[0], fzero):
        return x
    return spectrum._replace(raw_eigenvalues=_clip(lam)).reconstruct()


def project_psd_boundary(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Projection selector onto the PSD-cone boundary.

    With lambda_min <= 0 this is the usual cone projection; otherwise the
    smallest eigenvalue (first index, ascending order) is replaced by zero.
    """
    spectrum = eig_sym(x, ctx)
    lam = spectrum.raw_eigenvalues
    mu = _clip(lam) if mpf_le(lam[0], fzero) else (fzero,) + lam[1:]
    return spectrum._replace(raw_eigenvalues=mu).reconstruct()


def _clip(lam) -> tuple:
    """The raw eigenvalues lam with the negative ones set to zero."""
    return tuple(x if mpf_gt(x, fzero) else fzero for x in lam)


def project_diag_ones(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Fix the diagonal to 1; keep the off-diagonal entries."""
    n = x.n
    raw = list(x.raw)
    raw[::n + 1] = [fone] * n
    return _vec(SymMatrix, tuple(raw), ctx.mp)


def project_entry11(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Fix the (1,1) entry to 1; keep the rest."""
    return _vec(SymMatrix, (fone,) + x.raw[1:], ctx.mp)


class PsdCone(FeasibilitySet):
    vector = SymMatrix

    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_psd(x, ctx)


class PsdBoundary(FeasibilitySet):
    vector = SymMatrix

    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_psd_boundary(x, ctx)


class DiagOnes(FeasibilitySet):
    vector = SymMatrix

    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_diag_ones(x, ctx)


class EntryOne(FeasibilitySet):
    vector = SymMatrix

    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_entry11(x, ctx)

