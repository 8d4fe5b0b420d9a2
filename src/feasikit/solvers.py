"""Iteration engines: Douglas-Rachford steps, the Lyapunov-surrogate (LT)
update, its projected variant (PLT), and a trace-recording driver.

The engines are generic over the point type: any ``numerics.Vec`` (a
``Point2`` or a ``SymMatrix``) works.
"""

from __future__ import annotations

import enum
import functools
import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath.libmp import fhalf, fzero, mpf_le, mpf_lt, to_str

from feasikit.numerics import (
    PrecisionContext,
    SingularMatrixError,
    _raw_inner,
    _raw_mul,
    _raw_sub,
    dist,
    solve2x2,
)
from feasikit.sets import FeasibilitySet


class Termination(enum.Enum):
    TOLERANCE = "tolerance"
    MAX_ITER = "max_iter"
    EXACT_ZERO = "exact_zero"
    STAGNATION = "stagnation"


@dataclass(frozen=True)
class StopRule:
    """Stopping parameters.  ``tol`` defaults to 10^-(decimal_digits - 20)
    when left as None (resolved against the run's context)."""

    tol: object = None
    max_iter: int = 200

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def resolved_tol(self, ctx: PrecisionContext):
        if self.tol is None:
            return ctx.pow10(-(ctx.decimal_digits - 20))
        tol = ctx.mpf(self.tol)
        if not tol > 0:
            raise ValueError("tol must be positive")
        return tol


@dataclass(frozen=True)
class DrOperator:
    """T = (I + R_second o R_first) / 2; ``first`` is reflected first."""

    first: FeasibilitySet
    second: FeasibilitySet


def dr_step(t: DrOperator, p, ctx: PrecisionContext):
    reflected = t.second.reflect(t.first.reflect(p, ctx), ctx)
    # halving is exact, so the unparsed raw 1/2 gives the same bits
    return (p + reflected) * ctx.mp.make_mpf(fhalf)


@dataclass(frozen=True)
class LtUpdateRecord:
    """One LT update: the two trial DR steps, the Gram data of the
    difference vectors, and the resulting point.

    In the non-collinear case ``result = v0 + mu1*u1 + mu2*u2`` is the
    unique point with ``<result - v1, v1 - v0> = <result - v2, v2 - v1> = 0``;
    otherwise (``collinear``) the update falls back to ``v1``.
    """

    v0: object
    v1: object
    v2: object
    u1: object
    u2: object
    eta: object
    mu1: Optional[object]
    mu2: Optional[object]
    result: object
    collinear: bool


def lt_step(t: DrOperator, p, ctx: PrecisionContext) -> LtUpdateRecord:
    """One Lyapunov-surrogate update seeded at p.

    The Gram terms run on raw tuples at the context's precision, one raw
    call per ``mpf`` operation of ``eta = nsq1 * nsq2 - g * g``, the
    collinearity test ``eta <= floor * nsq1 * nsq2`` and the 2x2 entries.
    """
    v0 = p
    v1 = dr_step(t, v0, ctx)
    v2 = dr_step(t, v1, ctx)
    u1 = v1 - v0
    u2 = v2 - v0
    prec, make = ctx.mp.prec, ctx.mp.make_mpf
    nsq1 = _raw_inner(u1, u1, prec)
    nsq2 = _raw_inner(u2, u2, prec)
    g = _raw_inner(u1, u2, prec)
    eta = make(_raw_sub(_raw_mul(nsq1, nsq2, prec), _raw_mul(g, g, prec), prec))

    def fallback():
        return LtUpdateRecord(v0, v1, v2, u1, u2, eta, None, None, v1, True)

    # relative collinearity test; eta == 0 exactly only in exact arithmetic
    if mpf_le(eta._mpf_, _raw_mul(_raw_mul(ctx.floor._mpf_, nsq1, prec), nsq2, prec)):
        return fallback()
    entries = (nsq1, g, _raw_sub(g, nsq1, prec), _raw_sub(nsq2, g, prec))
    a00, a01, a10, a11 = (make(x) for x in entries)
    try:
        mu1, mu2 = solve2x2(((a00, a01), (a10, a11)), (a00, a11), ctx)
    except SingularMatrixError:
        return fallback()
    result = v0 + u1 * mu1 + u2 * mu2
    return LtUpdateRecord(v0, v1, v2, u1, u2, eta, mu1, mu2, result, False)


def plt_step(t: DrOperator, affine: FeasibilitySet, p, ctx: PrecisionContext):
    """Projected LT: apply the LT update after projecting onto the affine set."""
    return lt_step(t, affine.project(p, ctx), ctx).result


METHODS = ("dr", "lt", "plt")
# steps without a new error minimum, near the floor, that count as stagnation
STAGNATION_WINDOW = 5


@dataclass(frozen=True)
class Trace:
    """Record of one run: every iterate, the distance to the reference
    point, per-step wall time (len(step_times) == len(iterates) - 1), and
    for an automatic reference the orbit's last successive-iterate distance
    (above the arithmetic floor: not converged; None for a given reference)."""

    method: str
    iterates: tuple
    errors: tuple
    step_times: tuple
    terminated_by: Termination
    reference_gap: Optional[object] = None

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1

    @property
    def solved(self) -> bool:
        return self.terminated_by in (Termination.TOLERANCE, Termination.EXACT_ZERO)

    @property
    def total_seconds(self) -> float:
        return sum(self.step_times)


def _advance(method: str, t: DrOperator, affine, p, ctx: PrecisionContext):
    if method == "dr":
        return dr_step(t, p, ctx)
    if method == "lt":
        return lt_step(t, p, ctx).result
    return plt_step(t, affine, p, ctx)


def _orbit(method: str, t: DrOperator, affine, p, ctx: PrecisionContext):
    """Yield (iterate, step seconds) for every successor of p, without end."""
    while True:
        t0 = time.perf_counter()
        p = _advance(method, t, affine, p, ctx)
        yield p, time.perf_counter() - t0


def run(
    method: str,
    t: DrOperator,
    p0,
    stop: StopRule,
    reference,
    ctx: PrecisionContext,
    affine: FeasibilitySet = None,
) -> Trace:
    """Iterate ``method`` from p0, recording distances to ``reference``.

    ``reference=None`` takes the last iterate of the orbit itself, advanced
    until successive iterates agree to the arithmetic floor ``ctx.floor``
    or for 2*max_iter steps; the trace is its prefix.

    Termination: error <= tol (tolerance); error exactly zero, or at the
    arithmetic floor after a one-step cliff that no quadratic sequence
    could produce (exact_zero); no new error minimum over the stagnation
    window while at the floor (stagnation); otherwise max_iter.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if method == "plt" and affine is None:
        raise ValueError("plt requires the affine set of the pair")

    # the stop tests compare raw mpf tuples
    tol = stop.resolved_tol(ctx)._mpf_
    floor = ctx.floor._mpf_
    cliff, near_floor = _stop_levels(ctx)

    steps = _orbit(method, t, affine, p0, ctx)
    gap = None
    if reference is None:
        kept, last = [], p0
        for p, seconds in itertools.islice(steps, 2 * stop.max_iter):
            kept.append((p, seconds))
            gap, last = dist(p, last, ctx), p
            if mpf_le(gap._mpf_, floor):
                break
        reference = kept[-1][0]
        # the reference is hit at error 0, so the loop below stops there
        steps = iter(kept)

    iterates = [p0]
    errors = [dist(p0, reference, ctx)]
    step_times = []
    if mpf_le(errors[0]._mpf_, tol):
        return Trace(method, tuple(iterates), tuple(errors), (), Termination.TOLERANCE, gap)

    terminated = Termination.MAX_ITER
    prev = errors[0]._mpf_
    for p, seconds in itertools.islice(steps, stop.max_iter):
        step_times.append(seconds)
        iterates.append(p)
        err = dist(p, reference, ctx)
        errors.append(err)
        e = err._mpf_
        if e == fzero or (mpf_le(e, floor) and mpf_lt(cliff, prev)):
            terminated = Termination.EXACT_ZERO
            break
        if mpf_le(e, tol):
            terminated = Termination.TOLERANCE
            break
        if len(errors) > STAGNATION_WINDOW and mpf_le(e, near_floor):
            if min(errors[-STAGNATION_WINDOW:]) >= min(errors[:-STAGNATION_WINDOW]):
                terminated = Termination.STAGNATION
                break
        prev = e
    return Trace(method, tuple(iterates), tuple(errors), tuple(step_times), terminated, gap)


@functools.lru_cache(maxsize=None)
def _stop_levels(ctx: PrecisionContext):
    """``run``'s cliff and near-floor levels as raw tuples, built once per
    precision: a drop from above the cliff to the floor is faster than
    quadratic, and stagnation is judged below the near-floor level."""
    return (ctx.pow10(-((ctx.decimal_digits - 10) // 4))._mpf_,
            ctx.pow10(-((ctx.decimal_digits - 10) // 2))._mpf_)


def trace_to_csv(
    trace: Trace,
    ctx: PrecisionContext,
    metadata: Sequence = (),
    include_times: bool = True,
) -> str:
    """Serialize a trace: '#'-prefixed metadata header block, then rows
    ``iter,error,step_seconds`` with errors as full-precision decimal
    strings.  ``include_times=False`` zeroes the timing column, giving
    byte-identical output for identical configurations."""
    lines = [f"# {key}: {value}" for key, value in metadata]
    lines.append("iter,error,step_seconds")
    for k, err in enumerate(trace.errors):
        if k == 0 or not include_times:
            seconds = "0"
        else:
            seconds = repr(trace.step_times[k - 1])
        # ctx.to_str without re-wrapping err, which is of ctx's context
        lines.append(f"{k},{to_str(err._mpf_, ctx.decimal_digits)},{seconds}")
    return "\n".join(lines) + "\n"
