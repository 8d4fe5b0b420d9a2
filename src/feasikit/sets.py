"""Feasibility sets with projection selectors and reflections.

Plane sets: horizontal lines (the x-axis is the line at height 0), the
unit circle and graphs of analytic curves.  Matrix sets: the PSD cone, its boundary, and the affine
sets fixing the diagonal (all ones) or the (1,1) entry.  Projections are
single-valued selectors, so ``project(project(p)) == project(p)``;
reflections are ``R = 2 P - I``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from feasikit.numerics import (
    FeasikitError,
    Point2,
    PrecisionContext,
    SymMatrix,
    eig_sym,
)


class ProjectionError(FeasikitError):
    """A projection kernel failed to converge from every Newton start."""


class FeasibilitySet(ABC):
    """Abstract capability: project a point onto the set."""

    @abstractmethod
    def project(self, p, ctx: PrecisionContext):
        ...

    def reflect(self, p, ctx: PrecisionContext):
        return self.project(p, ctx) * 2 - p


# ---------------------------------------------------------------------------
# plane sets


@dataclass(frozen=True)
class AnalyticCurve:
    """An analytic function t -> f(t) with f(0) = 0 and f'(0) != 0.

    ``jet(t)`` returns (f(t), f'(t), f''(t)) at full precision.  ``a``
    caches f'(0).
    """

    jet: Callable
    a: object
    ident: str = ""

    @classmethod
    def checked(cls, jet, ctx: PrecisionContext, ident: str = "") -> "AnalyticCurve":
        f0, a, _ = jet(ctx.mp.zero)
        if not (ctx.mp.isfinite(f0) and ctx.mp.isfinite(a)):
            raise ValueError(f"curve must be finite at the origin, f(0)={f0}, f'(0)={a}")
        if abs(f0) > ctx.pow10(-(ctx.decimal_digits - 5)):
            raise ValueError(f"curve must pass through the origin, f(0)={f0}")
        if abs(a) <= ctx.floor:
            raise ValueError("curve must not be tangent to the x-axis: f'(0) == 0")
        return cls(jet=jet, a=a, ident=ident)


def project_circle(p: Point2, ctx: PrecisionContext) -> Point2:
    """Radial projection onto the unit circle; the selector at the origin
    (where the projection is set-valued) is (1, 0)."""
    r = ctx.mp.sqrt(p.x * p.x + p.z * p.z)
    if r == 0:
        return Point2(ctx.mp.one, ctx.mp.zero)
    return Point2(p.x / r, p.z / r)


def project_graph(p: Point2, curve: AnalyticCurve, ctx: PrecisionContext) -> Point2:
    """Nearest-point selector onto the graph of the curve.

    Newton's method on the stationarity equation
    g(t) = (t - p.x) + (f(t) - p.z) f'(t) = 0, started from 33 equispaced
    points on [p.x - 2*D, p.x + 2*D] with D = 1 + |p.z|.  Among converged
    roots, the one of least squared distance wins; exact ties break toward
    smaller t.
    """
    jet = curve.jet
    px, pz = p.x, p.z
    res_tol = ctx.pow10(-(ctx.decimal_digits - 15))
    span = 2 * (1 + abs(pz))
    lo = px - span
    width = 2 * span
    escape = abs(px) + span + 10

    roots = []  # (t, f(t)) at each converged start
    for k in range(33):
        t = lo + width * k / 32
        for _ in range(200):
            ft, dft, ddft = jet(t)
            dz = ft - pz
            gt = (t - px) + dz * dft
            if abs(gt) <= res_tol:
                roots.append((t, ft))
                break
            slope = 1 + dft ** 2 + dz * ddft
            if slope == 0:
                break
            t = t - gt / slope
            if abs(t) > escape:
                break
    if not roots:
        raise ProjectionError(
            "graph projection: Newton failed from every start; widen the bracket"
        )

    roots.sort()
    merge_tol = ctx.pow10(-(ctx.decimal_digits - 20))
    merged = [roots[0]]
    for t, ft in roots[1:]:
        if abs(t - merged[-1][0]) > merge_tol * (1 + abs(t)):
            merged.append((t, ft))

    def objective_then_t(root):
        dx = root[0] - px
        dz = root[1] - pz
        return dx * dx + dz * dz, root[0]

    return Point2(*min(merged, key=objective_then_t))


@dataclass(frozen=True)
class HorizontalLine(FeasibilitySet):
    height: object

    def project(self, p: Point2, ctx: PrecisionContext) -> Point2:
        return Point2(p.x, self.height)


class UnitCircle(FeasibilitySet):
    def project(self, p: Point2, ctx: PrecisionContext) -> Point2:
        return project_circle(p, ctx)


@dataclass(frozen=True)
class CurveGraph(FeasibilitySet):
    curve: AnalyticCurve

    def project(self, p: Point2, ctx: PrecisionContext) -> Point2:
        return project_graph(p, self.curve, ctx)


# ---------------------------------------------------------------------------
# matrix sets


def project_psd(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Eigenvalue-thresholding projection onto the PSD cone."""
    spectrum = eig_sym(x, ctx)
    if spectrum.eigenvalues[0] >= 0:
        return x
    clipped = tuple(lam if lam > 0 else ctx.mp.zero for lam in spectrum.eigenvalues)
    return spectrum.with_eigenvalues(clipped).reconstruct()


def project_psd_boundary(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Projection selector onto the PSD-cone boundary.

    With lambda_min <= 0 this is the usual cone projection; otherwise the
    smallest eigenvalue (first index, ascending order) is replaced by zero.
    """
    spectrum = eig_sym(x, ctx)
    if spectrum.eigenvalues[0] <= 0:
        mu = tuple(lam if lam > 0 else ctx.mp.zero for lam in spectrum.eigenvalues)
    else:
        mu = (ctx.mp.zero,) + spectrum.eigenvalues[1:]
    return spectrum.with_eigenvalues(mu).reconstruct()


def project_diag_ones(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Fix the diagonal to 1; keep the off-diagonal entries."""
    rows = [list(row) for row in x.entries]
    for i in range(x.n):
        rows[i][i] = ctx.mp.one
    return SymMatrix.from_rows(rows)


def project_entry11(x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
    """Fix the (1,1) entry to 1; keep the rest."""
    rows = [list(row) for row in x.entries]
    rows[0][0] = ctx.mp.one
    return SymMatrix.from_rows(rows)


class PsdCone(FeasibilitySet):
    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_psd(x, ctx)


class PsdBoundary(FeasibilitySet):
    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_psd_boundary(x, ctx)


class DiagOnes(FeasibilitySet):
    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_diag_ones(x, ctx)


class EntryOne(FeasibilitySet):
    def project(self, x: SymMatrix, ctx: PrecisionContext) -> SymMatrix:
        return project_entry11(x, ctx)

