"""Building blocks of the feasikit benchmark.

Everything here is independent of the workload table in ``run.py`` so the
unit tests in ``test_harness.py`` can exercise it directly:

- ``tail_percentile``: the latency tail rule;
- ``check_output``: the per-operation output validator;
- ``SpeedProbe``: the machine-speed calibration that turns wall time into
  reference time;
- ``Tracer`` / ``SpanStats`` / ``traced``: spans recorded around public
  feasikit functions, patched at the module attribute each caller
  resolves, and the per-layer reduction (calls and self time);
- ``environment``: the machine and toolchain facts every result carries.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import importlib
import math
import os
import platform
import sys
import time
from collections import Counter
from decimal import Decimal, InvalidOperation
from pathlib import Path

# ---------------------------------------------------------------------------
# latency percentiles

TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, level: float):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(level / 100 * n))
    return sorted_values[rank - 1]


def tail_percentile(values, cap: float = TAIL_LEVELS[-1]):
    """The highest level of ``TAIL_LEVELS`` (at most ``cap``) whose
    nearest-rank percentile has at least ten samples beyond it.

    Returns ``(level, value, beyond)``.  The cap pins the level a workload
    reports, so a faster program (more samples per run) does not move its
    tail to a higher percentile and read as a regression.
    """
    s = sorted(values)
    n = len(s)
    best = None
    for level in TAIL_LEVELS:
        if level > cap:
            break
        rank = max(1, math.ceil(level / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (level, s[rank - 1], n - rank)
    if best is None:
        raise ValueError(
            f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median"
        )
    return best


# ---------------------------------------------------------------------------
# output validation

ACCEPTED_TERMINATIONS = ("tolerance", "exact_zero")
CSV_HEADER = "iter,error,step_seconds"


def parse_trace_csv(text: str):
    """Split a ``feasikit run`` CSV into its ``# key: value`` metadata and
    its data rows (lists of strings)."""
    meta = {}
    rows = []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if not sep:
                raise ValueError(f"malformed metadata line: {line!r}")
            meta[key] = value
        elif line == CSV_HEADER:
            header_seen = True
        elif line:
            rows.append(line.split(","))
    if not header_seen:
        raise ValueError("missing CSV header")
    return meta, rows


def check_output(exit_code, text: str, expect=None):
    """Validate one ``feasikit run --no-times`` result.

    Returns None when it is correct, otherwise a one-line reason.  Correct
    means: exit code 0; ``# terminated_by`` is ``tolerance`` or
    ``exact_zero``; consecutive ``iter`` rows with a zeroed time column;
    the last error at most the ``# tol`` of the header; and every
    ``expect`` key (for example problem, method, seed) echoed unchanged in
    the header.
    """
    if exit_code != 0:
        return f"exit code {exit_code!r}"
    try:
        meta, rows = parse_trace_csv(text)
    except ValueError as exc:
        return str(exc)
    for key, value in (expect or {}).items():
        if meta.get(key) != str(value):
            return f"header {key}={meta.get(key)!r}, expected {value!r}"
    terminated = meta.get("terminated_by")
    if terminated not in ACCEPTED_TERMINATIONS:
        return f"terminated_by={terminated!r}"
    if not rows:
        return "no data rows"
    for k, row in enumerate(rows):
        if len(row) != 3 or row[0] != str(k) or row[2] != "0":
            return f"malformed row {k}: {','.join(row)!r}"
    try:
        tol = Decimal(meta["tol"])
        last = Decimal(rows[-1][1])
    except (KeyError, InvalidOperation):
        return "unparsable tol or error"
    if not last <= tol:
        return f"last error {rows[-1][1]} above tol {meta['tol']}"
    return None


def digest(texts) -> str:
    """sha256 over an ordered sequence of CSV texts."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# machine-speed calibration

# Reference speed is the speed at which one calibration kernel takes
# CAL_REF_MS wall ms (on the 2-core x86_64 machine of the first results it
# takes 0.9-1.5 ms).  Reference ms = wall ms * CAL_REF_MS / kernel ms nearby.
CAL_REF_MS = 1.0


class SpeedProbe:
    """Times a fixed 120-digit mpmath kernel, independent of feasikit,
    between operations, so wall times can be rescaled to reference speed.

    On a shared virtual machine the whole CPU runs up to 25% slower or
    faster for seconds at a time, which no statistic over one run removes.
    Dividing each operation's time by the mean kernel time within
    ``window_s`` of it cancels most of that drift (README.md has the
    numbers).  The kernel runs at most every ``interval_s`` seconds.
    """

    def __init__(self, interval_s: float = 0.1, window_s: float = 0.5,
                 clock=time.perf_counter):
        from mpmath.ctx_mp import MPContext

        self.mp = MPContext()
        self.mp.dps = 120
        self.x0 = self.mp.sqrt(2)
        self.interval_s = interval_s
        self.window_s = window_s
        self.clock = clock
        self.samples = []  # (start, kernel ms)
        self._last_end = None
        self.kernel()  # the first call warms mpmath's caches

    def kernel(self):
        mp = self.mp
        x, y = self.x0, mp.one
        for _ in range(40):
            y = (y * x + x) / (y + 1)
            x = mp.sqrt(x + y)
        return x

    def sample(self):
        t0 = self.clock()
        self.kernel()
        self._last_end = self.clock()
        self.samples.append((t0, (self._last_end - t0) * 1e3))

    def maybe_sample(self):
        if self._last_end is None or self.clock() - self._last_end >= self.interval_s:
            self.sample()

    def scales(self, intervals):
        """Reference ms per wall ms for each ``(start, end)`` interval:
        CAL_REF_MS over the mean kernel time of the samples that started
        within ``window_s`` of it (the last earlier sample if none did)."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, end in intervals:
            lo = bisect.bisect_left(starts, start - self.window_s)
            hi = bisect.bisect_right(starts, end + self.window_s)
            near = [ms for _, ms in self.samples[lo:hi]] or [self.samples[max(lo - 1, 0)][1]]
            out.append(CAL_REF_MS * len(near) / sum(near))
        return out


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Records spans ``[name, start, end, parent_index]`` in call order.

    Single-threaded: a stack of open spans gives each new span its parent.
    ``counters`` collects the outcome counts that observers read from
    return values.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn, label=None, observe=None):
        """``fn`` recording one span per call.  ``label(args)`` overrides
        the span name per call; ``observe(counters, args, result)`` runs
        after a call that returned."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name if label is None else label(args), 0.0, 0.0,
                    self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced_call

    def drain(self):
        """Hand over the recorded spans and start a new list.  Only valid
        between top-level calls."""
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Each span's duration minus the durations of its direct children.
    Spans of one thread never overlap, so the children's intervals are
    disjoint."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    return [(end - start) - child_s[i] for i, (name, start, end, parent) in enumerate(spans)]


class SpanStats:
    """Per-name calls and self time over batches of spans.

    ``under[(name, ancestor)]`` counts spans of
    ``name`` that have a span named ``ancestor`` on their parent chain,
    for the pairs listed in ``ancestry``.
    """

    def __init__(self, ancestry=()):
        self.calls = Counter()
        self.self_s = Counter()
        self.under = Counter()
        self.ancestry = tuple(ancestry)

    def add(self, spans) -> Counter:
        """Fold in the spans of one operation; returns that operation's
        self seconds by name."""
        own = Counter()
        for span, self_s in zip(spans, self_times(spans)):
            self.calls[span[0]] += 1
            own[span[0]] += self_s
        self.self_s.update(own)
        for name, ancestor in self.ancestry:
            for span in spans:
                if span[0] != name:
                    continue
                parent = span[3]
                while parent is not None:
                    if spans[parent][0] == ancestor:
                        self.under[(name, ancestor)] += 1
                        break
                    parent = spans[parent][3]
        return own


# Public feasikit functions, patched where their callers look them up:
# (module, attribute, span name).  ``cli`` imports ``run`` and
# ``trace_to_csv`` by name, ``DrOperator.step`` and the LT engines resolve
# ``dr_step``/``lt_step``/``solve2x2`` in ``solvers``, the set classes
# resolve their kernels in ``sets``, and ``Problem.sample`` goes through
# the ``analysis`` module attribute.
PATCHES = (
    ("feasikit.cli", "build_problem", "cli.build_problem"),
    ("feasikit.cli", "resolve_reference", "cli.resolve_reference"),
    ("feasikit.cli", "run", "solvers.run"),
    ("feasikit.cli", "trace_to_csv", "solvers.trace_to_csv"),
    ("feasikit.analysis", "sample_disk", "analysis.sample_disk"),
    ("feasikit.analysis", "sample_sym", "analysis.sample_sym"),
    ("feasikit.solvers", "dr_step", "solvers.dr_step"),
    ("feasikit.solvers", "lt_step", "solvers.lt_step"),
    ("feasikit.solvers", "solve2x2", "solvers.solve2x2"),
    ("feasikit.sets", "project_graph", "sets.project_graph"),
    ("feasikit.sets", "project_psd", "sets.project_psd"),
    ("feasikit.sets", "project_psd_boundary", "sets.project_psd_boundary"),
    ("feasikit.sets", "eig_sym", "numerics.eig_sym"),
)

LABELS = {"numerics.eig_sym": lambda args: f"numerics.eig_sym.n{args[0].n}"}

OBSERVERS = {
    "solvers.lt_step": lambda c, args, rec: c.update(
        {"solvers.lt_step.collinear": int(rec.collinear)}
    ),
    "sets.project_psd": lambda c, args, out: c.update(
        {"sets.project_psd.passthrough": int(out is args[0])}
    ),
    "solvers.run": lambda c, args, trace: c.update(
        {"solvers.run.iterations": trace.iterations}
    ),
}


@contextlib.contextmanager
def traced(tracer: Tracer, patches=PATCHES):
    """Install span wrappers for ``patches`` and restore the originals on
    exit.  A missing attribute is an error: a call site that moved would
    otherwise silently zero its layer."""
    saved = []
    try:
        for module_name, attr, name in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(
                name, original, LABELS.get(name), OBSERVERS.get(name)
            ))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# environment


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root``, read from ``.git`` without running
    git (which would search parent directories); "unknown" outside a git
    checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, digits: int, seed: int) -> dict:
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "digits": digits,
        "seed": seed,
        "git_commit": git_commit(root),
        "argv": sys.argv[1:],
    }
