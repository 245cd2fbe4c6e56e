"""Monadic sockets over the application-level TCP stack.

"A library (written in the monadic thread language) hides the ``sys_tcp``
call and provides the same high-level programming interfaces as standard
socket operations" (§4.8).  :class:`TcpSockets` is that library, and the
claim is literal: it answers to the same transport names as
:class:`~repro.runtime.io_api.NetIO` (``accept_many``/``read_pooled``/
``write_all_v``/``sendfile``/``shed``/``close``, plus the ``buffers``
pool), so ``ConnectionDriver(tcp_sockets, stack.listen(port), protocol)``
and ``WebServer(tcp_sockets, stack.listen(80), fs)`` differ from their
kernel-socket spelling in the first two arguments only — the "editing
one line of code", which the A4 ablation exercises.

What the library hides is no node of its own.  Each blocking operation
is a library system call (:func:`~repro.core.syscalls.sys_call`) whose
interpreter — ``_accept``, ``_connect``, ``_send``, ``_sendv``,
``_recv`` — parks the thread on the stack's ``(value, error)`` callback,
and ``listen`` and ``close`` complete inline as ``sys_nbio``.  Nothing is
registered on a scheduler: each operation names its stack (directly or
through the listener/connection), so several hosts' stacks share one
scheduler — the benchmarks run client and server hosts in one simulated
world.  An error the stack raises at call time is thrown in the calling
thread.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.do_notation import do
from ..core.monad import M, pure
from ..core.scheduler import Scheduler, TCB
from ..core.syscalls import sys_call, sys_catch, sys_nbio
from ..core.trace import Cont, SysThrow
from ..runtime.buffers import BufferPool
from ..runtime.io_api import copy_file_region
from .stack import TcpStack
from .tcb import TcpConn, TcpListener

__all__ = ["TcpSockets"]


def _park(sched: Scheduler, tcb: TCB, cont: Cont,
          start: Callable[..., Any], *args: Any) -> SysThrow | None:
    """Park ``tcb`` on ``start(*args, callback)``, a stack operation that
    answers ``callback(value, error)``; an error the stack raises at call
    time is the thread's instead."""
    tcb.state = "blocked"

    def resume(value: Any, error: BaseException | None) -> None:
        if error is not None:
            sched.resume_error(tcb, error)
        else:
            sched.resume_value(tcb, cont, value)

    try:
        start(*args, resume)
    except Exception as exc:
        tcb.state = "running"
        return SysThrow(exc)
    return None


def _accept(sched: Scheduler, tcb: TCB, listener: TcpListener, cont: Cont):
    return _park(sched, tcb, cont, listener.stack.accept, listener)


def _connect(sched: Scheduler, tcb: TCB, arg: tuple, cont: Cont):
    stack, remote_addr, remote_port = arg
    return _park(sched, tcb, cont, stack.connect, remote_addr, remote_port)


def _send(sched: Scheduler, tcb: TCB, arg: tuple, cont: Cont):
    conn, data = arg
    return _park(sched, tcb, cont, conn.stack.send, conn, data)


def _sendv(sched: Scheduler, tcb: TCB, arg: tuple, cont: Cont):
    conn, bufs = arg
    return _park(sched, tcb, cont, conn.stack.sendv, conn, bufs)


def _recv(sched: Scheduler, tcb: TCB, arg: tuple, cont: Cont):
    conn, nbytes = arg
    return _park(sched, tcb, cont, conn.stack.recv, conn, nbytes)


class TcpSockets:
    """Blocking-style socket operations as monadic computations."""

    def __init__(self, stack: TcpStack) -> None:
        self.stack = stack
        #: The transport's receive-buffer pool (``NetIO.buffers``' twin).
        self.buffers = BufferPool(name="app-tcp-recv")

    # ------------------------------------------------------------------
    # Monadic operations
    # ------------------------------------------------------------------
    def listen(self, port: int, backlog: int = 128) -> M:
        """Open a listening socket; resumes with the listener."""
        return sys_nbio(lambda: self.stack.listen(port, backlog))

    def accept(self, listener: TcpListener) -> M:
        """Block until a connection is established; resumes with it."""
        return sys_call(_accept, listener)

    def connect(self, remote_addr: str, remote_port: int) -> M:
        """Active open; resumes with the established connection."""
        return sys_call(_connect, (self.stack, remote_addr, remote_port))

    def accept_many(self, listener: TcpListener, limit: int = 64) -> M:
        """Resumes with a non-empty list of connections.  The stack has
        no kernel accept queue to drain: a batch is one connection."""
        return self.accept(listener).bind(lambda conn: pure([conn]))

    def write_all_v(self, conn: TcpConn, bufs) -> M:
        """Gathered send: every buffer in order, enqueued as iovec slices
        in the stack (no join); resumes with the total byte count."""
        return sys_call(_sendv, (conn, bufs))

    def send(self, conn: TcpConn, data: bytes) -> M:
        """Send all of ``data`` (flow-controlled); resumes with its length."""
        return sys_call(_send, (conn, data))

    def recv(self, conn: TcpConn, nbytes: int) -> M:
        """Receive up to ``nbytes``; resumes with ``b""`` at EOF."""
        return sys_call(_recv, (conn, nbytes))

    @do
    def read_pooled(self, conn: TcpConn, pool: BufferPool):
        """Receive into a buffer leased from ``pool``; resumes with
        ``(lease, count)`` (count 0 at EOF) and the caller releases the
        lease.  The stack delivers ``bytes``, so this is one copy."""
        data = yield self.recv(conn, pool.buffer_bytes)
        lease = pool.lease()
        lease.data[:len(data)] = data
        return lease, len(data)

    def sendfile(self, conn: TcpConn, file: Any, offset: int,
                 count: int) -> M:
        """Send a region of an open file (a ``FileBody``); resumes with
        the byte count.  No kernel to splice in: positional reads
        through the blocking pool, then ordinary sends."""
        return copy_file_region(
            lambda chunk: self.send(conn, chunk), file, offset, count
        )

    @do
    def recv_exact(self, conn: TcpConn, nbytes: int):
        """Receive exactly ``nbytes`` or raise ``ConnectionError``."""
        chunks = []
        remaining = nbytes
        while remaining > 0:
            data = yield self.recv(conn, remaining)
            if not data:
                raise ConnectionError(
                    f"EOF with {remaining} of {nbytes} bytes unread"
                )
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)

    def shed(self, conn: TcpConn, farewell: bytes = b"") -> M:
        """Best-effort farewell + close: a peer that vanished mid-shed
        must not kill the accept loop, and the connection closes on
        every path."""
        def swallow(_exc: BaseException) -> M:
            return pure(None)

        farewell_op = (
            sys_catch(self.send(conn, farewell), swallow)
            if farewell else pure(None)
        )
        return farewell_op.then(sys_catch(self.close(conn), swallow))

    def close(self, conn: TcpConn) -> M:
        """Orderly close (FIN after queued data)."""
        return sys_nbio(lambda: conn.stack.close(conn))
