"""Convergence diagnostics and benchmark reductions: order / linear-rate
estimation from error traces, Dolan-More performance profiles, and seeded
trial generation."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Mapping, NamedTuple, Sequence

from mpmath.libmp import from_float, ftwo, mpf_cos_sin, round_nearest

from feasikit.numerics import (
    FeasikitError,
    Point2,
    PrecisionContext,
    SymMatrix,
    _raw_add,
    _raw_mul,
    _raw_mul_pow2,
    _raw_sqrt,
    _vec,
)


class InsufficientDataError(FeasikitError):
    """Too few usable error entries to fit an estimate."""


def _usable_pairs(errors, ctx: PrecisionContext):
    """Consecutive (e_n, e_{n+1}) pairs with both entries positive and above
    the arithmetic floor ``ctx.floor``; below it, traces flatline and
    corrupt the fit."""
    usable = [e is not None and e > ctx.floor for e in errors]
    return [
        (errors[i], errors[i + 1])
        for i in range(len(errors) - 1)
        if usable[i] and usable[i + 1]
    ]


class OrderEstimate(NamedTuple):
    """Fit of log e_{n+1} = q log e_n + log c over a tail window of pairs."""

    q: object
    c: object
    window: tuple
    residual: object


def estimate_order(errors, ctx: PrecisionContext) -> OrderEstimate:
    """Estimate the convergence order from an error sequence.

    Least-squares slope of log e_{n+1} against log e_n over the last
    4 usable pairs.
    """
    pairs = _usable_pairs(errors, ctx)
    if len(pairs) < 4:
        raise InsufficientDataError(
            f"need >= 4 usable error pairs above the precision floor, got {len(pairs)}"
        )
    used = pairs[-4:]
    xs = [ctx.mp.log(a) for a, _ in used]
    ys = [ctx.mp.log(b) for _, b in used]
    n = len(used)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise InsufficientDataError("error pairs are constant; no slope to fit")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    q = cov / var
    log_c = mean_y - q * mean_x
    residual = ctx.mp.sqrt(
        sum((y - q * x - log_c) ** 2 for x, y in zip(xs, ys)) / n
    )
    return OrderEstimate(
        q=q, c=ctx.mp.exp(log_c), window=(len(pairs) - len(used), len(pairs) - 1), residual=residual
    )


def estimate_linear_rate(errors, ctx: PrecisionContext):
    """Geometric mean of e_{n+1}/e_n over the usable tail (its last half,
    at least two pairs), which drops the pre-asymptotic transient."""
    pairs = _usable_pairs(errors, ctx)
    if len(pairs) < 2:
        raise InsufficientDataError(
            f"need >= 3 usable error entries, got {len(pairs) + 1 if pairs else 0}"
        )
    tail = pairs[-max(2, len(pairs) // 2):]
    log_sum = sum(ctx.mp.log(b / a) for a, b in tail)
    return ctx.mp.exp(log_sum / len(tail))


# ---------------------------------------------------------------------------
# performance profiles


class ProfileCurve(NamedTuple):
    """Step function rho(tau): fraction of problems solved within a factor
    tau of the best solver.  ``ratios`` holds the solver's finite
    performance ratios, sorted; failures count as +inf."""

    ratios: tuple
    n_problems: int
    n_failures: int

    def rho(self, tau) -> float:
        if self.n_problems == 0:
            return 0.0
        if math.isinf(tau):
            return (len(self.ratios) + self.n_failures) / self.n_problems
        return bisect_right(self.ratios, tau) / self.n_problems

    @property
    def breakpoints(self) -> tuple:
        return tuple(sorted(set(self.ratios)))


class ProfileResult(NamedTuple):
    curves: Mapping[str, ProfileCurve]
    excluded: tuple  # indices of problems every solver failed on


def performance_profile(costs: Mapping[str, Sequence[float]]) -> ProfileResult:
    """Dolan-More profiles from per-(solver, problem) costs.

    ``costs[solver][p]`` is the cost on problem p, with ``math.inf`` as the
    failure sentinel.  A cost equal to the best has ratio 1; where the best
    cost is 0, a positive cost counts as a failure.  Problems on which every
    solver failed are excluded and reported in the result.
    """
    solvers = list(costs)
    if len(solvers) < 2:
        raise ValueError("performance profiles need at least two solvers")
    lengths = {len(costs[s]) for s in solvers}
    if len(lengths) != 1:
        raise ValueError("all solvers must report the same number of problems")
    (n_total,) = lengths
    if n_total < 1:
        raise ValueError("performance profiles need at least one problem")

    excluded = []
    ratios = {s: [] for s in solvers}
    failures = {s: 0 for s in solvers}
    for p in range(n_total):
        best = min(costs[s][p] for s in solvers)
        if math.isinf(best):
            excluded.append(p)
            continue
        for s in solvers:
            c = costs[s][p]
            if c == best:
                ratios[s].append(1.0)
            elif math.isinf(c) or best == 0:
                failures[s] += 1
            else:
                ratios[s].append(c / best)
    n_included = n_total - len(excluded)
    curves = {
        s: ProfileCurve(
            ratios=tuple(sorted(ratios[s])),
            n_problems=n_included,
            n_failures=failures[s],
        )
        for s in solvers
    }
    return ProfileResult(curves=curves, excluded=tuple(excluded))


def profile_to_csv(result: ProfileResult, metadata: Sequence = ()) -> str:
    """CSV with one tau column and one rho_<solver> column per solver,
    evaluated at the union of all solvers' breakpoints."""
    solvers = list(result.curves)
    taus = sorted({tau for s in solvers for tau in result.curves[s].breakpoints})
    lines = [f"# {key}: {value}" for key, value in metadata]
    if result.excluded:
        lines.append(f"# excluded_problems: {' '.join(map(str, result.excluded))}")
    lines.append("tau," + ",".join(f"rho_{s}" for s in solvers))
    for tau in taus:
        rhos = ",".join(repr(result.curves[s].rho(tau)) for s in solvers)
        lines.append(f"{tau!r},{rhos}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trial generation


def sample_disk(
    center: Point2, radius, n: int, seed: int, ctx: PrecisionContext
) -> tuple:
    """n points uniform on the disk (polar sampling with the area-correct
    sqrt-radius transform), reproducible from the seed; the center is of
    ctx's precision."""
    radius = ctx.mpf(radius)
    if not radius > 0:
        raise ValueError("radius must be positive")
    rng = random.Random(seed)
    # raw, one call per mpf operation of center + Point2(r * cos, r * sin)
    # with r = radius * sqrt(mpf(u)) and phi = 2 * pi * mpf(v)
    prec, rad = ctx.mp.prec, radius._mpf_
    two_pi = _raw_mul_pow2(ctx.mp.pi._mpf_, ftwo, prec)
    cx, cz = center.raw
    points = []
    for _ in range(n):
        r = _raw_mul(rad, _raw_sqrt(from_float(rng.random()), prec), prec)
        phi = _raw_mul(two_pi, from_float(rng.random()), prec)
        # one series for both, each rounded as cos(phi) and sin(phi) are
        cos, sin = mpf_cos_sin(phi, prec, round_nearest)
        points.append(_vec(Point2, (_raw_add(cx, _raw_mul(r, cos, prec), prec),
                                    _raw_add(cz, _raw_mul(r, sin, prec), prec)), ctx.mp))
    return tuple(points)


def sample_sym(n_dim: int, count: int, seed: int, ctx: PrecisionContext) -> tuple:
    """Symmetric matrices (U + U^T)/2 with U entrywise uniform on [-1, 1]."""
    if n_dim < 2:
        raise ValueError("n_dim must be >= 2")
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        u = [[ctx.mpf(rng.uniform(-1.0, 1.0)) for _ in range(n_dim)] for _ in range(n_dim)]
        rows = [
            [(u[i][j] + u[j][i]) / 2 for j in range(n_dim)] for i in range(n_dim)
        ]
        points.append(SymMatrix.from_rows(rows))
    return tuple(points)
