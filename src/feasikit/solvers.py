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
from typing import NamedTuple, Optional, Sequence

from mpmath.libmp import fzero, to_str

from feasikit.numerics import (
    Frozen,
    PrecisionContext,
    SingularMatrixError,
    _abs_le,
    _le_product,
    _raw_add,
    _raw_inner,
    _raw_midpoint,
    _raw_mul,
    _raw_sub,
    _vec,
    dist,
    solve2x2,
)
from feasikit.sets import FeasibilitySet


class Termination(enum.Enum):
    TOLERANCE = "tolerance"
    MAX_ITER = "max_iter"
    EXACT_ZERO = "exact_zero"
    STAGNATION = "stagnation"


class StopRule(Frozen):
    """Stopping parameters.  ``tol`` defaults to 10^-(decimal_digits - 20)
    when left as None (resolved against the run's context)."""

    __slots__ = _fields = ("tol", "max_iter")

    def __init__(self, tol=None, max_iter: int = 200):
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_iter", max_iter)

    def resolved_tol(self, ctx: PrecisionContext):
        if self.tol is None:
            return ctx.pow10(-(ctx.decimal_digits - 20))
        try:
            tol = ctx.mpf(self.tol)
        except ValueError:
            raise ValueError(f"tol must be a number, got {self.tol!r}") from None
        if not (tol > 0 and ctx.mp.isfinite(tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        return tol


class DrOperator(NamedTuple):
    """T = (I + R_second o R_first) / 2; ``first`` is reflected first, and
    PLT projects onto it."""

    first: FeasibilitySet
    second: FeasibilitySet


def dr_step(t: DrOperator, p, ctx: PrecisionContext):
    """``(p + R_second(R_first(p))) * 0.5``, entry by entry at the
    context's precision.  The reflections take and return raw entries, so
    the step builds only its result."""
    raw = p.raw
    reflected = t.second.raw_reflect(t.first.raw_reflect(raw, ctx), ctx)
    mp = ctx.mp
    return _vec(type(p), tuple(map(_raw_midpoint, raw, reflected, itertools.repeat(mp.prec))), mp)


class LtUpdate(NamedTuple):
    """One LT update seeded at p, with ``v1 = T p``, ``v2 = T v1``,
    ``u1 = v1 - p`` and ``u2 = v2 - p``.

    In the non-collinear case ``result = p + mu1*u1 + mu2*u2`` is the
    unique point with ``<result - v1, v1 - p> = <result - v2, v2 - v1> = 0``;
    otherwise (``collinear``) the update falls back to ``v1``.
    """

    result: object
    collinear: bool


def lt_step(t: DrOperator, p, ctx: PrecisionContext) -> LtUpdate:
    """One Lyapunov-surrogate update seeded at p.

    Runs on raw tuples at the context's precision from the two DR steps to
    the result, one raw call per ``mpf`` operation of the differences,
    ``eta = nsq1 * nsq2 - g * g``, the 2x2 entries and
    ``p + u1 * mu1 + u2 * mu2``.  The collinearity test
    ``eta <= floor * nsq1 * nsq2`` is ``_le_product``, and ``solve2x2``
    takes the raw system and returns the raw mu1 and mu2.
    """
    v1 = dr_step(t, p, ctx)
    v2 = dr_step(t, v1, ctx)
    prec = ctx.mp.prec
    u1 = tuple(map(_raw_sub, v1.raw, p.raw, itertools.repeat(prec)))
    u2 = tuple(map(_raw_sub, v2.raw, p.raw, itertools.repeat(prec)))
    nsq1 = _raw_inner(u1, u1, prec)
    nsq2 = _raw_inner(u2, u2, prec)
    g = _raw_inner(u1, u2, prec)
    eta = _raw_sub(_raw_mul(nsq1, nsq2, prec), _raw_mul(g, g, prec), prec)
    # relative collinearity test; eta == 0 exactly only in exact arithmetic
    if _le_product(eta, ctx.floor._mpf_, nsq1, nsq2, prec):
        return LtUpdate(v1, True)
    a10, a11 = _raw_sub(g, nsq1, prec), _raw_sub(nsq2, g, prec)
    try:
        m1, m2 = solve2x2(((nsq1, g), (a10, a11)), (nsq1, a11), ctx)
    except SingularMatrixError:
        return LtUpdate(v1, True)
    raw = tuple(_raw_add(_raw_add(x, _raw_mul(a, m1, prec), prec), _raw_mul(b, m2, prec), prec)
                for x, a, b in zip(p.raw, u1, u2))
    return LtUpdate(_vec(type(p), raw, p.mp), False)


def plt_step(t: DrOperator, p, ctx: PrecisionContext):
    """Projected LT: apply the LT update after projecting onto ``t.first``."""
    return lt_step(t, t.first.project(p, ctx), ctx).result


METHODS = ("dr", "lt", "plt")
# steps without a new error minimum, near the floor, that count as stagnation
STAGNATION_WINDOW = 5


class Trace(NamedTuple):
    """Record of one run: the distances of p0 and each iterate to the
    reference point, per-step wall time (len(step_times) == len(errors) - 1),
    and for an automatic reference the orbit's last successive-iterate distance
    (above the arithmetic floor: not converged; None for a given reference)."""

    errors: tuple
    step_times: tuple
    terminated_by: Termination
    reference_gap: Optional[object] = None

    @property
    def iterations(self) -> int:
        return len(self.errors) - 1

    @property
    def solved(self) -> bool:
        return self.terminated_by in (Termination.TOLERANCE, Termination.EXACT_ZERO)


def _advance(method: str, t: DrOperator, p, ctx: PrecisionContext):
    if method == "dr":
        return dr_step(t, p, ctx)
    if method == "lt":
        return lt_step(t, p, ctx).result
    return plt_step(t, p, ctx)


def _orbit(method: str, t: DrOperator, p, ctx: PrecisionContext):
    """Yield (iterate, step seconds) for every successor of p, without end."""
    while True:
        t0 = time.perf_counter()
        p = _advance(method, t, p, ctx)
        yield p, time.perf_counter() - t0


def run(method: str, t: DrOperator, p0, stop: StopRule, reference,
        ctx: PrecisionContext) -> Trace:
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

    # the stop tests compare raw mpf tuples of nonnegative errors and
    # gaps by magnitude (``_abs_le``); ``not _abs_le`` is ``prev > cliff``:
    # it runs once the error is at the floor, and a NaN orbit stays NaN
    tol = stop.resolved_tol(ctx)._mpf_
    floor = ctx.floor._mpf_
    cliff, near_floor = _stop_levels(ctx)

    steps = _orbit(method, t, p0, ctx)
    gap = None
    if reference is None:
        kept, last = [], p0
        for p, seconds in itertools.islice(steps, 2 * stop.max_iter):
            kept.append((p, seconds))
            gap, last = dist(p, last, ctx), p
            if _abs_le(gap._mpf_, floor):
                break
        reference = kept[-1][0]
        # the reference is hit at error 0, so the loop below stops there
        steps = iter(kept)

    errors = [dist(p0, reference, ctx)]
    step_times = []
    if _abs_le(errors[0]._mpf_, tol):
        return Trace(tuple(errors), (), Termination.TOLERANCE, gap)

    terminated = Termination.MAX_ITER
    prev = errors[0]._mpf_
    for p, seconds in itertools.islice(steps, stop.max_iter):
        step_times.append(seconds)
        err = dist(p, reference, ctx)
        errors.append(err)
        e = err._mpf_
        if e == fzero or (_abs_le(e, floor) and not _abs_le(prev, cliff)):
            terminated = Termination.EXACT_ZERO
            break
        if _abs_le(e, tol):
            terminated = Termination.TOLERANCE
            break
        if len(errors) > STAGNATION_WINDOW and _abs_le(e, near_floor):
            if min(errors[-STAGNATION_WINDOW:]) >= min(errors[:-STAGNATION_WINDOW]):
                terminated = Termination.STAGNATION
                break
        prev = e
    return Trace(tuple(errors), tuple(step_times), terminated, gap)


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
