"""The graph projection's helper process.

``sets.project_graph`` runs its even Newton starts itself and sends the
odd ones to one long-lived child, forked on first use, which computes
them at the same time.  A request names the jet by module, function name
and bound arguments, so only a ``functools.partial`` of a module-level
function is sent; any other jet runs all 33 starts in the caller.
Requests and replies travel on two pipes as an 8-byte sequence number and
a marshal record of raw tuples.  If the helper cannot be started, reports
an error or dies, the caller runs all 33 starts itself, so the roots, the
exceptions and their order are those of one loop over the starts.

Only graph projections load this module, so plane and matrix runs neither
compile it nor fork.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import marshal
import os
import sys

from feasikit import sets

_ALL, _EVEN, _ODD = range(33), range(0, 33, 2), range(1, 33, 2)
_owner = os.getpid()  # the process that loaded this module; only it forks a helper
_helper = None  # this process's helper, or None


def stay_serial():
    """Drop this process's helper and never start another: every graph
    projection runs its 33 Newton starts itself.  The initializer of
    ``feasikit bench``'s pool workers, whatever their start method."""
    global _owner
    _drop_helper()
    _owner = None


def graph_roots(jet, args) -> set:
    """``sets._newton_roots`` from all 33 starts, with the odd ones run by
    the helper when this process has or may start one and the jet can be
    sent."""
    request = _request(jet, args)
    helper = None if request is None else _live_helper()
    if helper is None or not helper.ask(request):
        return sets._newton_roots(jet, _ALL, *args)
    try:
        roots = sets._newton_roots(jet, _EVEN, *args)
    except Exception:
        # rerun in start order for the first start's exception; the
        # unread reply is skipped by the next ``answer``
        return sets._newton_roots(jet, _ALL, *args)
    theirs = helper.answer()
    if theirs is None:
        return sets._newton_roots(jet, _ALL, *args)
    roots.update(theirs)
    return roots


def _request(jet, args):
    """The marshalled (module, name, bound arguments, args) that rebuild
    the jet in the helper, or None for a jet it cannot rebuild: one that
    is not a ``functools.partial`` of the function its module holds under
    that name, or whose arguments marshal cannot write."""
    if type(jet) is not functools.partial or jet.keywords:
        return None
    func = jet.func
    module, name = getattr(func, "__module__", None), getattr(func, "__qualname__", "")
    if getattr(sys.modules.get(module), name, None) is not func:
        return None
    try:
        return marshal.dumps((module, name, jet.args, args))
    except ValueError:
        return None


def _live_helper():
    """This process's helper, forked now if there is none yet and this
    process may fork one: it loaded this module, it has a single thread and
    at least two CPUs; or None."""
    global _helper
    if os.getpid() != _owner:
        return None
    threading = sys.modules.get("threading")
    if (_helper is None and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and (threading is None or threading.active_count() == 1)):
        try:
            _helper = _Helper()
        except OSError:
            pass
    return _helper


def _drop_helper():
    """Close the helper's pipes and, in the process that forked it, reap
    it; it leaves on end of file once its current request is done."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.close()


atexit.register(_drop_helper)


class _Helper:
    """A forked child running ``_serve``; ``ask`` sends it a request and
    ``answer`` reads the roots of the last one."""

    __slots__ = ("pid", "requests", "replies", "sent")

    def __init__(self):
        into, self.requests = os.pipe()
        replies, out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (into, self.requests, replies, out):
                os.close(fd)
            raise
        if pid == 0:
            try:
                os.close(self.requests)
                os.close(replies)
                _serve(into, out)
            finally:
                # never the parent's atexit handlers or buffered output
                os._exit(0)
        os.close(into)
        os.close(out)
        self.replies = os.fdopen(replies, "rb")
        self.pid, self.sent = pid, 0

    def ask(self, request) -> bool:
        """Send a request; False (and the helper dropped) if it is gone."""
        self.sent += 1
        try:
            _write(self.requests, self.sent.to_bytes(8, "little") + request)
        except OSError:
            _drop_helper()
            return False
        return True

    def answer(self):
        """The roots of the last request, skipping replies to earlier ones;
        None if the helper failed on it, or died (then it is dropped)."""
        try:
            while len(seq := self.replies.read(8)) == 8:
                roots = marshal.load(self.replies)
                if int.from_bytes(seq, "little") == self.sent:
                    return roots
        except (OSError, EOFError):
            pass
        _drop_helper()
        return None

    def close(self):
        os.close(self.requests)
        self.replies.close()
        if os.getpid() == _owner:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass


def _serve(into, out):
    """The helper's loop: for each request, its sequence number and the odd
    starts' roots, or None if they raised; returns at end of file."""
    requests = os.fdopen(into, "rb")
    while len(seq := requests.read(8)) == 8:
        module, name, bound, args = marshal.load(requests)
        try:
            jet = functools.partial(getattr(importlib.import_module(module), name), *bound)
            roots = sets._newton_roots(jet, _ODD, *args)
        except Exception:
            roots = None
        _write(out, seq + marshal.dumps(roots))


def _write(fd, data):
    while data:
        data = data[os.write(fd, data):]
