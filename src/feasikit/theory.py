"""Closed forms for the LT update on (x-axis, curve-graph) pairs, and
numerical probes for the limits that govern its local quadratic convergence.

The probes put a polar grid of points near the origin, evaluate each
closed-form combination against its predicted limit, and check an O(R)
error band whose constant is fitted from the two largest radii (no
universal constants are assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from feasikit.numerics import (
    FeasikitError,
    Point2,
    PrecisionContext,
    solve2x2,
)
from feasikit.sets import AnalyticCurve, CurveGraph, HorizontalLine
from feasikit.solvers import DrOperator, dr_step


class ZeroDerivativeError(FeasikitError):
    """f'(x) vanished where the closed form divides by it."""


class DegenerateDenominatorError(FeasikitError):
    """The closed-form denominator cancelled below the collinearity
    threshold; geometrically this is the collinear-iterates case."""


# ---------------------------------------------------------------------------
# reference curves


def get_curve(ident: str, ctx: PrecisionContext) -> AnalyticCurve:
    """Resolve a curve id: ``linear:<a>`` (slope a), ``quad`` (t + t^2),
    ``cubic`` (2t + t^3) or ``sin-shift`` (sin(t) + t).  Each curve is one
    jet t -> (f(t), f'(t), f''(t))."""
    if ident.startswith("linear:"):
        a = ctx.mpf(ident.split(":", 1)[1])
        if a == 0:
            raise ValueError("linear curve needs nonzero slope")
        jet = lambda t: (a * t, a, ctx.mp.zero)
    elif ident == "quad":
        two = ctx.mpf(2)
        jet = lambda t: (t + t * t, 1 + 2 * t, two)
    elif ident == "cubic":
        jet = lambda t: (2 * t + t**3, 2 + 3 * t * t, 6 * t)
    elif ident == "sin-shift":

        def jet(t):
            c, s = ctx.mp.cos_sin(t)
            return s + t, c + 1, -s

    else:
        raise ValueError(f"unknown curve id: {ident!r}")
    return AnalyticCurve.checked(jet, ctx, ident)


def graph_operator(curve: AnalyticCurve, ctx: PrecisionContext) -> DrOperator:
    """The DR operator of the x-axis (reflected first) and the curve's graph."""
    return DrOperator(first=HorizontalLine(ctx.mp.zero), second=CurveGraph(curve))


@dataclass(frozen=True)
class CurveTaylor:
    """Tail functions of the expansions f(t) = a t + t^2 b(t) and
    f'(t) = a + t c(t).

    Near t = 0 the division formulas cancel catastrophically, so below
    10^-(decimal_digits/2) the tails switch to their second-derivative
    limits b(0) = f''(0)/2 and c(0) = f''(0).
    """

    curve: AnalyticCurve
    a: object
    b: Callable
    c: Callable

    @classmethod
    def of(cls, curve: AnalyticCurve, ctx: PrecisionContext) -> "CurveTaylor":
        switch = ctx.pow10(-(ctx.decimal_digits // 2))
        half = ctx.mpf("0.5")

        def b(t):
            if abs(t) < switch:
                return curve.ddf(ctx.mp.zero) * half
            return (curve.f(t) - curve.a * t) / (t * t)

        def c(t):
            if abs(t) < switch:
                return curve.ddf(ctx.mp.zero)
            return (curve.df(t) - curve.a) / t

        return cls(curve=curve, a=curve.a, b=b, c=c)


# ---------------------------------------------------------------------------
# closed forms at w = T^2 y = (x, z)


def t_inverse(w: Point2, curve: AnalyticCurve) -> Point2:
    """Local inverse of the DR operator: (x + z f'(x), z - f(x))."""
    return Point2(w.x + w.z * curve.df(w.x), w.z - curve.f(w.x))


def lyapunov_grad(w: Point2, curve: AnalyticCurve) -> Point2:
    """Gradient (f(x)/f'(x), z) of the Lyapunov function of the DR dynamics."""
    d = curve.df(w.x)
    if d == 0:
        raise ZeroDerivativeError(f"f'({w.x}) = 0")
    return Point2(curve.f(w.x) / d, w.z)


def _h_parts(w: Point2, curve: AnalyticCurve):
    x, z = w.x, w.z
    fx = curve.f(x)
    dfx = curve.df(x)
    if dfx == 0:
        raise ZeroDerivativeError(f"f'({x}) = 0")
    x1 = x + z * dfx
    dfx1 = curve.df(x1)
    if dfx1 == 0:
        raise ZeroDerivativeError(f"f'({x1}) = 0")
    ratio1 = curve.f(x1) / dfx1
    return x, z, fx, dfx, ratio1


def h_coeff(w: Point2, curve: AnalyticCurve, ctx: PrecisionContext):
    """The coefficient h(x, z) with L_T y = w - h(x,z) * (f(x)/f'(x), z)."""
    x, z, fx, dfx, ratio1 = _h_parts(w, curve)
    num = (z - fx) * z * dfx + fx * ratio1
    d1 = -(fx * (z - fx)) / dfx
    d2 = z * ratio1
    den = d1 + d2
    scale = abs(d1) + abs(d2)
    if scale == 0 or abs(den) <= ctx.col_tol * scale:
        raise DegenerateDenominatorError(f"denominator {den} cancels at {w}")
    return num / den


def gamma_system(w: Point2, curve: AnalyticCurve, ctx: PrecisionContext):
    """Solve the 2x2 system tying the two expressions for the LT update;
    returns (gamma1, gamma2) with gamma1 = h(x, z)."""
    x, z, fx, dfx, ratio1 = _h_parts(w, curve)
    a_mat = ((-fx / dfx, ratio1), (-z, z - fx))
    rhs = (z * dfx, -fx)
    return solve2x2(a_mat, rhs, ctx)


def _lt_from_w(w: Point2, curve: AnalyticCurve, ctx: PrecisionContext) -> Point2:
    h = h_coeff(w, curve, ctx)
    dfx = curve.df(w.x)
    return Point2(w.x - h * curve.f(w.x) / dfx, w.z - h * w.z)


def lt_closed_form(
    y: Point2, t: DrOperator, curve: AnalyticCurve, ctx: PrecisionContext
) -> Point2:
    """The LT update computed from the closed form: w = T^2 y, then
    (w_x - h f(w_x)/f'(w_x), w_z - h w_z) with h = h(w)."""
    w = dr_step(t, dr_step(t, y, ctx), ctx)
    if w.x == 0 and w.z == 0:
        return w
    return _lt_from_w(w, curve, ctx)


def nu(theta, taylor: CurveTaylor, ctx: PrecisionContext):
    """The angular coefficient of the R^2 term of zeta1 - zeta2 - zeta3:
    a^2 sin(theta) (b(0) - c(0)) (a sin(theta) + 2 cos(theta))."""
    a = taylor.a
    b0 = taylor.b(ctx.mp.zero)
    c0 = taylor.c(ctx.mp.zero)
    s = ctx.mp.sin(theta)
    return a * a * s * (b0 - c0) * (a * s + 2 * ctx.mp.cos(theta))


def zeta_terms(r, theta, curve: AnalyticCurve, ctx: PrecisionContext):
    """(zeta1, zeta2, zeta3) at (x, z) = (R cos(theta), R sin(theta)):
    f(x+zf'(x)) f'(x),  z f'(x)^2 f'(x+zf'(x)),  f(x) f'(x+zf'(x))."""
    x = r * ctx.mp.cos(theta)
    z = r * ctx.mp.sin(theta)
    dfx = curve.df(x)
    x1 = x + z * dfx
    dfx1 = curve.df(x1)
    return (
        curve.f(x1) * dfx,
        z * dfx * dfx * dfx1,
        curve.f(x) * dfx1,
    )


def linear_rate(curve: AnalyticCurve, ctx: PrecisionContext):
    """Local linear rate of the DR iteration: 1/sqrt(1 + f'(0)^2)."""
    return 1 / ctx.mp.sqrt(1 + curve.a * curve.a)


# ---------------------------------------------------------------------------
# probe grids and reports


@dataclass(frozen=True)
class ProbeGrid:
    """Decreasing radii and pole-avoiding angles for the limit probes."""

    radii: tuple
    angles: tuple

    def __post_init__(self):
        if not self.radii or not all(r > 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if any(b >= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if not self.angles:
            raise ValueError("the probe grid needs at least one angle")

    @classmethod
    def default(
        cls,
        ctx: PrecisionContext,
        n_radii: int = 10,
        n_angles: int = 16,
        log10_r_max: int = -1,
        log10_r_min: int = -10,
    ) -> "ProbeGrid":
        if n_radii < 2:
            raise ValueError("need at least two radii to fit the error band")
        lmax = ctx.mpf(log10_r_max)
        lmin = ctx.mpf(log10_r_min)
        ten = ctx.mpf(10)
        radii = tuple(
            ten ** (lmax + (lmin - lmax) * k / (n_radii - 1)) for k in range(n_radii)
        )
        two_pi = 2 * ctx.mp.pi
        # offset keeps angles >= pi/(2 n) away from the axes where z or x vanish
        angles = tuple(two_pi * (2 * k + 1) / (2 * n_angles) for k in range(n_angles))
        return cls(radii=radii, angles=angles)


@dataclass(frozen=True)
class ProbeRow:
    r: object
    theta: object
    value: object
    target: object
    abs_err: object


@dataclass(frozen=True)
class ProbeReport:
    probe: str
    curve: str
    rows: tuple
    excluded: tuple
    max_violation: object
    passed: bool

    def to_csv(self, ctx: PrecisionContext) -> str:
        return _report_csv(
            ctx,
            [
                ("probe", self.probe),
                ("curve", self.curve),
                ("verdict", "pass" if self.passed else "fail"),
                ("max_violation", ctx.to_str(self.max_violation)),
            ],
            self.excluded,
            [
                (row.r, row.theta, ctx.to_str(row.value), ctx.to_str(row.target), ctx.to_str(row.abs_err))
                for row in self.rows
            ],
        )


@dataclass(frozen=True)
class RatioRow:
    r: object
    theta: object
    ratio: Optional[object]
    unbounded: bool


@dataclass(frozen=True)
class RatioReport:
    """Grid evaluation of ||T^2 y||^2 / ||L_T y||_1.

    ``m_est`` is the running minimum over finite ratios; ``passed`` holds
    when it is positive and the smallest-radius minimum has not collapsed
    below half the largest-radius minimum.  Points where the LT update is
    zero to working precision (exact one-step solves) are unbounded-good
    and excluded from the minimum.
    """

    curve: str
    rows: tuple
    excluded: tuple
    m_est: object
    passed: bool
    probe: str = "ratio"

    def to_csv(self, ctx: PrecisionContext) -> str:
        return _report_csv(
            ctx,
            [
                ("probe", self.probe),
                ("curve", self.curve),
                ("verdict", "pass" if self.passed else "fail"),
                ("m_est", ctx.to_str(self.m_est)),
            ],
            self.excluded,
            [
                (
                    row.r,
                    row.theta,
                    "inf" if row.unbounded else ctx.to_str(row.ratio),
                    "",
                    "",
                )
                for row in self.rows
            ],
        )


def _report_csv(ctx, meta, excluded, rows) -> str:
    lines = [f"# {key}: {value}" for key, value in meta]
    for r, theta, reason in excluded:
        lines.append(f"# excluded: R={ctx.to_str(r)} theta={ctx.to_str(theta)} ({reason})")
    lines.append("R,theta,value,target,abs_err")
    for r, theta, value, target, abs_err in rows:
        lines.append(f"{ctx.to_str(r)},{ctx.to_str(theta)},{value},{target},{abs_err}")
    return "\n".join(lines) + "\n"


def _banded_probe(probe_id, curve, grid, ctx, families) -> ProbeReport:
    """Shared probe driver over (evaluate(R, theta), target(theta)) pairs.

    Per pair and angle, an O(R) band constant is fitted from the two
    largest radii and asserted, with a 2x safety margin against
    non-monotone higher-order terms, on every radius.  Grid points where a
    denominator degenerates are skipped and reported."""
    abs_floor_unit = ctx.pow10(-(ctx.decimal_digits - 30))
    rows = []
    excluded = []
    max_violation = ctx.mpf(-1)
    passed = True
    for evaluate, target_of in families:
        for theta in grid.angles:
            target = target_of(theta)
            floor = abs_floor_unit * max(ctx.mp.one, abs(target))
            errs = []
            for r in grid.radii:
                try:
                    value = evaluate(r, theta)
                except (ZeroDerivativeError, DegenerateDenominatorError) as exc:
                    excluded.append((r, theta, str(exc)))
                    continue
                abs_err = abs(value - target)
                rows.append(ProbeRow(r, theta, value, target, abs_err))
                errs.append((r, abs_err))
            if len(errs) < 2:
                continue
            band_c = max(err / r for r, err in errs[:2])
            for r, err in errs:
                violation = err - (2 * band_c * r + floor)
                if violation > max_violation:
                    max_violation = violation
                if violation > 0:
                    passed = False
    return ProbeReport(
        probe=probe_id,
        curve=curve.ident,
        rows=tuple(rows),
        excluded=tuple(excluded),
        max_violation=max_violation,
        passed=passed,
    )


def probe_zeta_limit(
    grid: ProbeGrid, curve: AnalyticCurve, ctx: PrecisionContext
) -> ProbeReport:
    """Check (zeta1 - zeta2 - zeta3)/R^2 -> nu(theta) with an O(R) band."""
    taylor = CurveTaylor.of(curve, ctx)

    def evaluate(r, theta):
        z1, z2, z3 = zeta_terms(r, theta, curve, ctx)
        return (z1 - z2 - z3) / (r * r)

    return _banded_probe(
        "zeta", curve, grid, ctx, [(evaluate, lambda theta: nu(theta, taylor, ctx))]
    )


def probe_denominator_limit(
    grid: ProbeGrid, curve: AnalyticCurve, ctx: PrecisionContext
) -> ProbeReport:
    """Check the h-denominator scaling: D(R, theta)/R^2 -> a, and the
    common-denominator numerator (z zeta1 - (z - f(x)) zeta3)/R^2 -> a^3."""
    a = curve.a

    def denominator(r, theta):
        x = r * ctx.mp.cos(theta)
        z = r * ctx.mp.sin(theta)
        fx = curve.f(x)
        dfx = curve.df(x)
        if dfx == 0:
            raise ZeroDerivativeError(f"f'({x}) = 0")
        x1 = x + z * dfx
        dfx1 = curve.df(x1)
        if dfx1 == 0:
            raise ZeroDerivativeError(f"f'({x1}) = 0")
        return (z * curve.f(x1) / dfx1 - fx * (z - fx) / dfx) / (r * r)

    def numerator(r, theta):
        x = r * ctx.mp.cos(theta)
        z = r * ctx.mp.sin(theta)
        z1, _, z3 = zeta_terms(r, theta, curve, ctx)
        return (z * z1 - (z - curve.f(x)) * z3) / (r * r)

    return _banded_probe(
        "denominator",
        curve,
        grid,
        ctx,
        [(denominator, lambda theta: a), (numerator, lambda theta: a**3)],
    )


def probe_one_minus_h(
    grid: ProbeGrid, curve: AnalyticCurve, ctx: PrecisionContext
) -> ProbeReport:
    """Check (1 - h(x,z))/R -> (sin(theta) - a cos(theta)) nu(theta) / a^3
    pointwise in theta; the uniform bound is the supremum of this over
    theta."""
    taylor = CurveTaylor.of(curve, ctx)
    a = curve.a

    def evaluate(r, theta):
        w = Point2(r * ctx.mp.cos(theta), r * ctx.mp.sin(theta))
        return (1 - h_coeff(w, curve, ctx)) / r

    def target(theta):
        s = ctx.mp.sin(theta)
        return (s - a * ctx.mp.cos(theta)) * nu(theta, taylor, ctx) / a**3

    return _banded_probe("one-minus-h", curve, grid, ctx, [(evaluate, target)])


def probe_ratio(grid: ProbeGrid, curve: AnalyticCurve, ctx: PrecisionContext) -> RatioReport:
    """Evaluate ||T^2 y||^2 / (|L_T y|_1) for y on the grid, using the
    closed-form LT coordinates, and estimate the lower bound M."""
    t = graph_operator(curve, ctx)
    rows = []
    excluded = []
    finite = []
    minima = {}  # radius index -> min finite ratio
    for ri, r in enumerate(grid.radii):
        for theta in grid.angles:
            y = Point2(r * ctx.mp.cos(theta), r * ctx.mp.sin(theta))
            w = dr_step(t, dr_step(t, y, ctx), ctx)
            w_norm_sq = w.x * w.x + w.z * w.z
            try:
                lt = _lt_from_w(w, curve, ctx)
            except (ZeroDerivativeError, DegenerateDenominatorError) as exc:
                excluded.append((r, theta, str(exc)))
                continue
            one_norm = abs(lt.x) + abs(lt.z)
            # an LT update that is zero to working precision solved exactly
            noise = ctx.mp.sqrt(w_norm_sq) * ctx.pow10(-(ctx.decimal_digits - 20))
            if one_norm <= noise:
                rows.append(RatioRow(r, theta, None, True))
                continue
            ratio = w_norm_sq / one_norm
            rows.append(RatioRow(r, theta, ratio, False))
            finite.append(ratio)
            if ri not in minima or ratio < minima[ri]:
                minima[ri] = ratio
    if not finite:
        return RatioReport(
            curve=curve.ident,
            rows=tuple(rows),
            excluded=tuple(excluded),
            m_est=ctx.mp.inf,
            passed=True,
        )
    m_est = min(finite)
    order = sorted(minima)
    no_trend_to_zero = True
    if len(order) >= 2:
        first_min = minima[order[0]]
        last_min = minima[order[-1]]
        no_trend_to_zero = last_min >= first_min / 2
    return RatioReport(
        curve=curve.ident,
        rows=tuple(rows),
        excluded=tuple(excluded),
        m_est=m_est,
        passed=bool(m_est > 0 and no_trend_to_zero),
    )
