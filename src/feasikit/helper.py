"""The helper process of the graph projection and the eigensolver.

One long-lived child, forked on first use, works beside the caller on two
kinds of request:

- ``sets.project_graph``'s 33 Newton starts are shared through a table
  of 33 bytes that both processes map: the caller claims starts from 0
  up and the helper from 32 down, each marking a start before it runs
  it, until one meets the other's mark.  A request names the jet by
  module, function name and bound arguments, so only a
  ``functools.partial`` of a module-level function is sent; any other
  jet runs all 33 starts in the caller.
- ``numerics.eig_sym`` sends each Jacobi sweep's rotations as soon as the
  sweep is done.  The helper applies them to the identity while the
  caller sweeps on, and at the stop test the caller asks for the result.

Messages on both pipes are framed alike: an 8-byte sequence number, a
4-byte length and a marshal record of raw tuples.  If the helper cannot be
started, reports an error or dies, the caller does the helper's share
itself, so the results, the exceptions and their order are those of the
serial loops.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import marshal
import mmap
import os
import sys

from feasikit import numerics, sets

_ALL, _DOWN = range(33), range(32, -1, -1)
_CALLER, _HELPER = 1, 2  # the marks in the claim table; 0 is unclaimed
_UNCLAIMED = bytes(len(_ALL))
_GRAPH, _SWEEP, _BASIS = range(3)
_owner = os.getpid()  # the process that loaded this module; only it forks a helper
_helper = None  # this process's helper, or None


def stay_serial():
    """Drop this process's helper and never start another: graph
    projections and eigensolves run all their work here.  The initializer
    of ``feasikit bench``'s pool workers, whatever their start method."""
    global _owner
    _drop_helper()
    _owner = None


def graph_roots(jet, args) -> set:
    """``sets._newton_roots`` from all 33 starts, shared with the helper
    through its claim table when this process has or may start one and
    the jet can be sent."""
    request = _request(jet, args)
    helper = None if request is None else _live_helper()
    if helper is not None:
        helper.claims[:] = _UNCLAIMED  # before the helper reads the request
    if helper is None or not helper.ask(request):
        return sets._newton_roots(jet, _ALL, *args)
    try:
        roots = sets._newton_roots(jet, _claimed(helper.claims, _ALL, _CALLER, _HELPER), *args)
    except Exception:
        # rerun in start order for the first start's exception; the
        # unread reply is skipped by the next ``answer``
        return sets._newton_roots(jet, _ALL, *args)
    theirs = helper.answer()
    if theirs is None:
        return sets._newton_roots(jet, _ALL, *args)
    roots.update(theirs)
    return roots


def _claimed(claims, order, mine, theirs):
    """The starts of ``order`` before the first one marked ``theirs`` in
    ``claims``, each marked ``mine`` as it is yielded.  Each side stops
    only at the other's mark, so the caller (up from 0) and the helper
    (down from 32) cover every start between them, whatever order the
    marks reach the other process in; a race, or a mark left by a
    request that an exception cut off, can only run a start twice."""
    for k in order:
        if claims[k] == theirs:
            return
        claims[k] = mine
        yield k


def jacobi_basis(n, sweeps, prec):
    """``numerics._rotated_identity(n, sweeps, prec)``, with each sweep's
    rotations sent to the helper as the caller's iteration of ``sweeps``
    yields them, when this process has or may start one; the caller keeps
    them and applies them itself if the helper fails.  ``sweeps`` runs to
    its end here, so its exceptions reach the caller unchanged.  A 2x2
    matrix stays here: its one rotation per sweep costs less than the
    message."""
    helper = _live_helper() if n > 2 else None
    if helper is None:
        return numerics._rotated_identity(n, sweeps, prec)
    done = []
    for rotations in sweeps:
        if helper is not None and not helper.ask(
                marshal.dumps((_SWEEP, n, prec, rotations)), new=not done):
            helper = None
        done.append(rotations)
    if done and helper is not None and helper.ask(marshal.dumps((_BASIS,)), new=False):
        basis = helper.answer()
        if basis is not None:
            return basis
    return numerics._rotated_identity(n, done, prec)


def _request(jet, args):
    """The marshalled graph request (module, name, bound arguments, args)
    that rebuilds the jet in the helper, or None for a jet it cannot
    rebuild: one that is not a ``functools.partial`` of the function its
    module holds under that name, or whose arguments marshal cannot
    write."""
    if type(jet) is not functools.partial or jet.keywords:
        return None
    func = jet.func
    module, name = getattr(func, "__module__", None), getattr(func, "__qualname__", "")
    if getattr(sys.modules.get(module), name, None) is not func:
        return None
    try:
        return marshal.dumps((_GRAPH, module, name, jet.args, args))
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
    ``answer`` reads the reply to the last one."""

    __slots__ = ("pid", "requests", "replies", "sent", "claims")

    def __init__(self):
        self.claims = mmap.mmap(-1, len(_ALL))  # shared with the child
        into, self.requests = os.pipe()
        self.replies, out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (into, self.requests, self.replies, out):
                os.close(fd)
            self.claims.close()
            raise
        if pid == 0:
            try:
                os.close(self.requests)
                os.close(self.replies)
                _serve(into, out, self.claims)
            finally:
                # never the parent's atexit handlers or buffered output
                os._exit(0)
        os.close(into)
        os.close(out)
        self.pid, self.sent = pid, 0

    def ask(self, request, new=True) -> bool:
        """Send a marshalled request under a new sequence number, or under
        the last one's to continue its stream; False (and the helper
        dropped) if it is gone."""
        self.sent += new
        try:
            _send(self.requests, self.sent, request)
        except OSError:
            _drop_helper()
            return False
        return True

    def answer(self):
        """The reply to the last request, skipping replies to earlier ones;
        None if the helper failed on it, or died (then it is dropped)."""
        try:
            while (message := _receive(self.replies)) is not None:
                seq, reply = message
                if seq == self.sent:
                    return reply
        except OSError:
            pass
        _drop_helper()
        return None

    def close(self):
        os.close(self.requests)
        os.close(self.replies)
        self.claims.close()
        if os.getpid() == _owner:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass


def _serve(into, out, claims):
    """The helper's loop; returns at end of file.  A graph request is
    answered with the roots of the starts it claims from 32 down, or None
    if they raised.  The sweeps of one stream (one sequence number)
    rotate a basis that starts as the identity, and the stream's basis
    request is answered with it, or None if a rotation raised."""
    stream = basis = None
    while (message := _receive(into)) is not None:
        seq, (kind, *request) = message
        if kind == _SWEEP:
            n, prec, rotations = request
            if stream != seq:
                stream, basis = seq, numerics._rotated_identity(n, (), prec)
            try:
                if basis is not None:
                    numerics._rotate_rows(basis, rotations, prec)
            except Exception:
                basis = None
            continue
        if kind == _BASIS:
            reply = basis if stream == seq else None
        else:
            module, name, bound, args = request
            try:
                jet = functools.partial(getattr(importlib.import_module(module), name), *bound)
                reply = sets._newton_roots(jet, _claimed(claims, _DOWN, _HELPER, _CALLER), *args)
            except Exception:
                reply = None
        _send(out, seq, marshal.dumps(reply))


def _send(fd, seq, data):
    """Write one message: the sequence number, the length of the marshal
    record ``data`` and the record."""
    data = seq.to_bytes(8, "little") + len(data).to_bytes(4, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _receive(fd):
    """The next message on fd as (sequence number, value), or None at end
    of file."""
    head = _read(fd, 12)
    body = head and _read(fd, int.from_bytes(head[8:], "little"))
    if not body:
        return None
    return int.from_bytes(head[:8], "little"), marshal.loads(body)


def _read(fd, size):
    """``size`` bytes from fd, or b"" if it ends first."""
    data = os.read(fd, size)
    while data and len(data) < size:
        more = os.read(fd, size - len(data))
        if not more:
            return b""
        data += more
    return data
