"""Closed forms for the LT update on (x-axis, curve-graph) pairs, and
numerical probes for the limits that govern its local quadratic convergence.

The probes put a polar grid of points near the origin, evaluate each
closed-form combination against its predicted limit, and check an O(R)
error band whose constant is fitted from the two largest radii (no
universal constants are assumed).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from mpmath.libmp import fone, from_int, fzero, mpf_cos_sin, mpf_neg, mpf_pow_int, round_nearest

from feasikit.numerics import (
    FeasikitError,
    Frozen,
    Point2,
    PrecisionContext,
    _raw_add,
    _raw_mul,
    _raw_mul_int,
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
    ``cubic`` (2t + t^3) or ``sin-shift`` (sin(t) + t).

    Each curve is one jet t -> (f(t), f'(t), f''(t)) on raw ``mpf._mpf_``
    tuples at the context's precision, rounding to nearest: a module-level
    function bound to its raw parameters with ``functools.partial``, which
    ``project_graph`` can send to its helper process.  Each raw call has
    the bits of the ``mpf`` operation in the comment that it replaces
    (``2 * t`` is ``_raw_mul_int(t, 2)``, ``1 + x`` is
    ``_raw_add(x, fone)``), so the jet is bit for bit that expression."""
    prec = ctx.mp.prec
    if ident.startswith("linear:"):
        slope = ident.split(":", 1)[1]
        try:
            a = ctx.mpf(slope)
        except ValueError:
            raise ValueError(f"linear curve needs a numeric slope, got {slope!r}") from None
        if a == 0:
            raise ValueError("linear curve needs nonzero slope")
        jet = functools.partial(_linear_jet, a._mpf_, prec)
    elif ident in _JETS:
        jet = functools.partial(_JETS[ident], prec)
    else:
        raise ValueError(f"unknown curve id: {ident!r}")
    return AnalyticCurve.checked(jet, ctx, ident)


_TWO = from_int(2)


def _linear_jet(a, prec, t):
    # (a * t, a, 0)
    return _raw_mul(a, t, prec), a, fzero


def _quad_jet(prec, t):
    # (t + t * t, 1 + 2 * t, 2); doubling a finite nonzero t of at most
    # prec bits only raises its exponent
    sign, man, exp, bc = t
    double = (sign, man, exp + 1, bc) if 0 < bc <= prec else _raw_mul_int(t, 2, prec)
    return _raw_add(t, _raw_mul(t, t, prec), prec), _raw_add(double, fone, prec), _TWO


def _cubic_jet(prec, t):
    # (2 * t + t**3, 2 + 3 * t * t, 6 * t)
    return (
        _raw_add(_raw_mul_int(t, 2, prec), mpf_pow_int(t, 3, prec, round_nearest), prec),
        _raw_add(_raw_mul(_raw_mul_int(t, 3, prec), t, prec), _TWO, prec),
        _raw_mul_int(t, 6, prec),
    )


def _sin_shift_jet(prec, t):
    # c, s = cos_sin(t); (s + t, c + 1, -s)
    c, s = mpf_cos_sin(t, prec, round_nearest)
    return _raw_add(s, t, prec), _raw_add(c, fone, prec), mpf_neg(s, prec, round_nearest)


_JETS = {"quad": _quad_jet, "cubic": _cubic_jet, "sin-shift": _sin_shift_jet}


def graph_operator(curve: AnalyticCurve, ctx: PrecisionContext) -> DrOperator:
    """The DR operator of the x-axis (reflected first) and the curve's graph."""
    return DrOperator(first=HorizontalLine(ctx.mp.zero), second=CurveGraph(curve))


# ---------------------------------------------------------------------------
# closed forms at w = T^2 y = (x, z); each calls the curve's jet once per
# abscissa


def _jets(x, z, curve: AnalyticCurve):
    """f and f' at x and at x1 = x + z f'(x): (f(x), f'(x), x1, f(x1), f'(x1))."""
    fx, dfx, _ = curve.jet(x)
    x1 = x + z * dfx
    fx1, dfx1, _ = curve.jet(x1)
    return fx, dfx, x1, fx1, dfx1


def _h_parts(x, z, curve: AnalyticCurve):
    """``_jets`` without x1, for the closed forms that divide by f'(x) and
    f'(x1): raises ZeroDerivativeError where either vanishes."""
    fx, dfx, x1, fx1, dfx1 = _jets(x, z, curve)
    if dfx == 0:
        raise ZeroDerivativeError(f"f'({x}) = 0")
    if dfx1 == 0:
        raise ZeroDerivativeError(f"f'({x1}) = 0")
    return fx, dfx, fx1, dfx1


def _h_with_parts(w: Point2, curve: AnalyticCurve, ctx: PrecisionContext):
    """h(x, z), with the f(x) and f'(x) it was built from."""
    z = w.z
    fx, dfx, fx1, dfx1 = _h_parts(w.x, z, curve)
    ratio1 = fx1 / dfx1
    num = (z - fx) * z * dfx + fx * ratio1
    d1 = -(fx * (z - fx)) / dfx
    d2 = z * ratio1
    den = d1 + d2
    scale = abs(d1) + abs(d2)
    if scale == 0 or abs(den) <= ctx.floor * scale:
        raise DegenerateDenominatorError(f"denominator {den} cancels at {w}")
    return num / den, fx, dfx


def h_coeff(w: Point2, curve: AnalyticCurve, ctx: PrecisionContext):
    """The coefficient h(x, z) with L_T y = w - h(x,z) * (f(x)/f'(x), z)."""
    return _h_with_parts(w, curve, ctx)[0]


def _lt_from_w(w: Point2, curve: AnalyticCurve, ctx: PrecisionContext) -> Point2:
    h, fx, dfx = _h_with_parts(w, curve, ctx)
    return Point2(w.x - h * fx / dfx, w.z - h * w.z)


def lt_closed_form(y: Point2, curve: AnalyticCurve, ctx: PrecisionContext) -> Point2:
    """The LT update computed from the closed form: w = T^2 y with T the
    curve's ``graph_operator``, then (w_x - h f(w_x)/f'(w_x), w_z - h w_z)
    with h = h(w)."""
    t = graph_operator(curve, ctx)
    w = dr_step(t, dr_step(t, y, ctx), ctx)
    if w.x == 0 and w.z == 0:
        return w
    return _lt_from_w(w, curve, ctx)


def nu(theta, curve: AnalyticCurve, ctx: PrecisionContext):
    """The angular coefficient of the R^2 term of zeta1 - zeta2 - zeta3:
    a^2 sin(theta) (b(0) - c(0)) (a sin(theta) + 2 cos(theta)), where
    b(0) = f''(0)/2 and c(0) = f''(0) are the limits at 0 of the tails of
    f(t) = a t + t^2 b(t) and f'(t) = a + t c(t)."""
    a = curve.a
    c0 = curve.jet(ctx.mp.zero)[2]
    b0 = c0 * ctx.mpf("0.5")
    s = ctx.mp.sin(theta)
    return a * a * s * (b0 - c0) * (a * s + 2 * ctx.mp.cos(theta))


def zeta_terms(r, theta, curve: AnalyticCurve, ctx: PrecisionContext):
    """(zeta1, zeta2, zeta3) at (x, z) = (R cos(theta), R sin(theta)):
    f(x+zf'(x)) f'(x),  z f'(x)^2 f'(x+zf'(x)),  f(x) f'(x+zf'(x))."""
    z = r * ctx.mp.sin(theta)
    fx, dfx, _, fx1, dfx1 = _jets(r * ctx.mp.cos(theta), z, curve)
    return fx1 * dfx, z * dfx * dfx * dfx1, fx * dfx1


def linear_rate(curve: AnalyticCurve, ctx: PrecisionContext):
    """Local linear rate of the DR iteration: 1/sqrt(1 + f'(0)^2)."""
    return 1 / ctx.mp.sqrt(1 + curve.a * curve.a)


# ---------------------------------------------------------------------------
# probe grids and reports


class ProbeGrid(Frozen):
    """Decreasing radii and pole-avoiding angles for the limit probes."""

    __slots__ = _fields = ("radii", "angles")

    def __init__(self, radii: tuple, angles: tuple):
        if not radii or not all(r > 0 for r in radii):
            raise ValueError("radii must be positive")
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if not angles:
            raise ValueError("the probe grid needs at least one angle")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)

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


class ProbeRow(NamedTuple):
    """One grid point.  Banded probes fill ``target`` and ``abs_err``; the
    ratio probe leaves them None, and ``value`` None marks an unbounded
    ratio."""

    r: object
    theta: object
    value: Optional[object]
    target: Optional[object] = None
    abs_err: Optional[object] = None


class ProbeReport(NamedTuple):
    """A probe's rows, the grid points it skipped and its verdict.

    Banded probes summarise by ``max_violation``, the worst excess over
    the O(R) band.  The ratio probe, a grid evaluation of
    ||T^2 y||^2 / ||L_T y||_1, summarises by ``m_est``, the minimum over
    finite ratios; it passes when that is positive and the
    smallest-radius minimum has not collapsed below half the
    largest-radius minimum.  Points where the LT update is zero to working
    precision (exact one-step solves) are unbounded-good and excluded from
    the minimum.
    """

    probe: str
    curve: str
    rows: tuple
    excluded: tuple
    passed: bool
    max_violation: object = None
    m_est: object = None

    def to_csv(self, ctx: PrecisionContext) -> str:
        if self.m_est is None:
            summary = ("max_violation", self.max_violation)
        else:
            summary = ("m_est", self.m_est)
        lines = [
            f"# probe: {self.probe}",
            f"# curve: {self.curve}",
            f"# verdict: {'pass' if self.passed else 'fail'}",
            f"# {summary[0]}: {ctx.to_str(summary[1])}",
        ]
        for r, theta, reason in self.excluded:
            lines.append(f"# excluded: R={ctx.to_str(r)} theta={ctx.to_str(theta)} ({reason})")
        lines.append("R,theta,value,target,abs_err")
        for row in self.rows:
            value = "inf" if row.value is None else ctx.to_str(row.value)
            target, abs_err = (
                ("", "") if row.target is None
                else (ctx.to_str(row.target), ctx.to_str(row.abs_err))
            )
            lines.append(f"{ctx.to_str(row.r)},{ctx.to_str(row.theta)},{value},{target},{abs_err}")
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
    def evaluate(r, theta):
        z1, z2, z3 = zeta_terms(r, theta, curve, ctx)
        return (z1 - z2 - z3) / (r * r)

    return _banded_probe(
        "zeta", curve, grid, ctx, [(evaluate, lambda theta: nu(theta, curve, ctx))]
    )


def probe_denominator_limit(
    grid: ProbeGrid, curve: AnalyticCurve, ctx: PrecisionContext
) -> ProbeReport:
    """Check the h-denominator scaling: D(R, theta)/R^2 -> a, and the
    common-denominator numerator (z zeta1 - (z - f(x)) zeta3)/R^2 -> a^3."""
    a = curve.a

    def denominator(r, theta):
        z = r * ctx.mp.sin(theta)
        fx, dfx, fx1, dfx1 = _h_parts(r * ctx.mp.cos(theta), z, curve)
        return (z * fx1 / dfx1 - fx * (z - fx) / dfx) / (r * r)

    def numerator(r, theta):
        z = r * ctx.mp.sin(theta)
        fx, dfx, _, fx1, dfx1 = _jets(r * ctx.mp.cos(theta), z, curve)
        z1, z3 = fx1 * dfx, fx * dfx1  # zeta1, zeta3
        return (z * z1 - (z - fx) * z3) / (r * r)

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
    a = curve.a

    def evaluate(r, theta):
        w = Point2(r * ctx.mp.cos(theta), r * ctx.mp.sin(theta))
        return (1 - h_coeff(w, curve, ctx)) / r

    def target(theta):
        s = ctx.mp.sin(theta)
        return (s - a * ctx.mp.cos(theta)) * nu(theta, curve, ctx) / a**3

    return _banded_probe("one-minus-h", curve, grid, ctx, [(evaluate, target)])


def probe_ratio(grid: ProbeGrid, curve: AnalyticCurve, ctx: PrecisionContext) -> ProbeReport:
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
                rows.append(ProbeRow(r, theta, None))
                continue
            ratio = w_norm_sq / one_norm
            rows.append(ProbeRow(r, theta, ratio))
            finite.append(ratio)
            if ri not in minima or ratio < minima[ri]:
                minima[ri] = ratio
    if finite:
        m_est = min(finite)
        order = sorted(minima)
        no_trend_to_zero = True
        if len(order) >= 2:
            first_min = minima[order[0]]
            last_min = minima[order[-1]]
            no_trend_to_zero = last_min >= first_min / 2
        passed = bool(m_est > 0 and no_trend_to_zero)
    else:
        m_est, passed = ctx.mp.inf, True
    return ProbeReport("ratio", curve.ident, tuple(rows), tuple(excluded), passed,
                       m_est=m_est)
