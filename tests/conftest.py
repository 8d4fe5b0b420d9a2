import contextlib
import os

import hypothesis
import pytest

from feasikit import helper
from feasikit.numerics import Point2, PrecisionContext

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
# a deeper derandomized pass over the raw-kernel oracles:
# pytest --hypothesis-profile=deep (see .github/workflows/tests.yml)
hypothesis.settings.register_profile(
    "deep", max_examples=500, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def examples(n: int) -> int:
    """A test's own example count n, or the loaded profile's where that
    is larger (the deep profile)."""
    return max(n, hypothesis.settings.default.max_examples)


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext()


def point(ctx, x, z):
    """The plane point (x, z), each converted to a scalar of ctx."""
    return Point2(ctx.mpf(x), ctx.mpf(z))


# whether a process here may fork the helper of the graph projection and
# the eigensolver
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else False
needs_helper = pytest.mark.skipif(not TWO_CPUS, reason="the helper needs two CPUs")


@contextlib.contextmanager
def helper_allowed(allowed):
    """Graph projections and eigensolves in the block may use the helper
    (started on first use), or do all their work in this process."""
    owner = helper._owner
    if allowed:
        helper._owner = os.getpid()
    else:
        helper.stay_serial()
    try:
        yield
    finally:
        helper._owner = owner
