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

``install_tcp`` registers the ``SYS_TCP`` handler on a scheduler.  The
handler is a shared dispatcher: each operation names its stack (directly
for ``listen``/``connect``, through the listener/connection object
otherwise), so several hosts' stacks can coexist on one scheduler — the
benchmarks run client and server hosts in one simulated world.
"""

from __future__ import annotations

from typing import Any

from ..core.do_notation import do
from ..core.exceptions import UnsupportedSyscallError
from ..core.monad import M, pure
from ..core.scheduler import Scheduler, TCB
from ..core.syscalls import sys_catch, sys_tcp
from ..core.trace import SysTcp, SysThrow, Thunk
from ..runtime.buffers import BufferPool
from ..runtime.io_api import copy_file_region
from .stack import TcpStack
from .tcb import TcpConn, TcpListener

__all__ = ["TcpSockets", "install_tcp", "handle_sys_tcp"]


def install_tcp(sched: Scheduler, stack: TcpStack) -> "TcpSockets":
    """Register the shared ``SYS_TCP`` dispatcher on ``sched`` and return
    the monadic socket API bound to ``stack``."""
    sched.register_syscall(SysTcp, handle_sys_tcp)
    return TcpSockets(stack)


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
        return sys_tcp("listen", self.stack, port, backlog)

    def accept(self, listener: TcpListener) -> M:
        """Block until a connection is established; resumes with it."""
        return sys_tcp("accept", listener)

    def connect(self, remote_addr: str, remote_port: int) -> M:
        """Active open; resumes with the established connection."""
        return sys_tcp("connect", self.stack, remote_addr, remote_port)

    def accept_many(self, listener: TcpListener, limit: int = 64) -> M:
        """Resumes with a non-empty list of connections.  The stack has
        no kernel accept queue to drain: a batch is one connection."""
        return self.accept(listener).bind(lambda conn: pure([conn]))

    def write_all_v(self, conn: TcpConn, bufs) -> M:
        """Gathered send: every buffer in order, enqueued as iovec slices
        in the stack (no join); resumes with the total byte count."""
        return sys_tcp("sendv", conn, bufs)

    def send(self, conn: TcpConn, data: bytes) -> M:
        """Send all of ``data`` (flow-controlled); resumes with its length."""
        return sys_tcp("send", conn, data)

    def recv(self, conn: TcpConn, nbytes: int) -> M:
        """Receive up to ``nbytes``; resumes with ``b""`` at EOF."""
        return sys_tcp("recv", conn, nbytes)

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

    @do
    def recv_until(self, conn: TcpConn, delimiter: bytes,
                   max_bytes: int = 65536):
        """Receive until ``delimiter``; resumes with ``(buffer, index)``."""
        buffer = bytearray()
        while True:
            index = buffer.find(delimiter)
            if index >= 0:
                return bytes(buffer), index
            if len(buffer) >= max_bytes:
                raise ValueError(
                    f"delimiter not found within {max_bytes} bytes"
                )
            data = yield self.recv(conn, 4096)
            if not data:
                raise ConnectionError("EOF before delimiter")
            buffer.extend(data)

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
        return sys_tcp("close", conn)

    def abort(self, conn: TcpConn) -> M:
        """Hard close (RST)."""
        return sys_tcp("abort", conn)


def handle_sys_tcp(sched: Scheduler, tcb: TCB, node: SysTcp) -> Thunk | None:
    """The shared ``SYS_TCP`` scheduler handler."""
    op = node.op
    cont = node.cont

    if op == "listen":
        stack, port, backlog = node.args
        listener = stack.listen(port, backlog)
        return lambda: cont(listener)

    if op == "close":
        (conn,) = node.args
        conn.stack.close(conn)
        return lambda: cont(None)

    if op == "abort":
        (conn,) = node.args
        conn.stack.abort(conn)
        return lambda: cont(None)

    # Blocking operations: park, resume from the stack's callback.
    tcb.state = "blocked"

    def resume(value: Any, error: BaseException | None) -> None:
        if error is not None:
            sched.resume_error(tcb, error)
        else:
            sched.resume_value(tcb, cont, value)

    if op == "accept":
        (listener,) = node.args
        listener.stack.accept(listener, resume)
    elif op == "connect":
        stack, remote_addr, remote_port = node.args
        stack.connect(remote_addr, remote_port, resume)
    elif op == "send":
        conn, data = node.args
        conn.stack.send(conn, data, resume)
    elif op == "sendv":
        conn, bufs = node.args
        conn.stack.sendv(conn, bufs, resume)
    elif op == "recv":
        conn, nbytes = node.args
        conn.stack.recv(conn, nbytes, resume)
    else:
        tcb.state = "running"
        exc = UnsupportedSyscallError(f"unknown sys_tcp op {op!r}")
        return lambda: SysThrow(exc)
    return None
