"""Blocking-style I/O wrappers over non-blocking calls + epoll.

This is the paper's Figure 10 pattern, as a library::

    sock_accept server_fd = do {
        new_fd <- sys_nbio (accept server_fd);
        if new_fd > 0 then return new_fd
        else do { sys_epoll_wait fd EPOLL_READ; sock_accept server_fd; }
    }

Every wrapper loops: try the non-blocking operation via ``sys_nbio``; on
``WOULD_BLOCK``, park with ``sys_epoll_wait`` until the descriptor is ready,
then retry.  The multithreaded programming style "makes it easy to hide the
non-blocking I/O semantics and provide higher level abstractions" — these
are those abstractions, shared by the simulated and live backends.  Each
operation is one ``@do`` generator method of :class:`NetIO`, defined once
under its public name.
"""

from __future__ import annotations

from typing import Any

from ..core.do_notation import do
from ..core.events import EVENT_READ, EVENT_WRITE
from ..core.monad import M
from ..core.syscalls import sys_blio, sys_epoll_wait, sys_nbio
from ..simos.errors import WOULD_BLOCK
from .buffers import BufferPool

__all__ = ["NetIO", "ConnectionClosed", "FileBody", "WRITEV_IOV_LIMIT",
           "SENDFILE_WINDOW", "copy_file_region"]


class ConnectionClosed(OSError):
    """The peer closed the stream mid-operation (unexpected EOF)."""


#: Buffers handed to one gathered-write syscall.  Linux's IOV_MAX is
#: 1024; staying far below it keeps per-call setup cheap and the partial
#: -write resume bookkeeping short.
WRITEV_IOV_LIMIT = 128

#: Bytes offered to one ``sendfile`` syscall.  The kernel may accept
#: less (socket buffer space); the monadic wrapper resumes mid-region.
#: Bounding the window keeps one slow peer from pinning the file region
#: bookkeeping and matches the kernel's own internal pipe-sized splices.
SENDFILE_WINDOW = 256 * 1024


class FileBody:
    """An open file region for zero-copy egress.

    Carries what both sendfile paths need and nothing else:

    * ``fileno()`` — whatever the backend's ``nb_sendfile`` consumes: an
      OS descriptor (live backend) or a :class:`~repro.simos.filesys
      .SimFile` (simulated backend).
    * ``pread(offset, nbytes)`` — the *plain blocking* userspace reader
      for the read+write fallback (called through ``sys_blio``) and for
      ``HttpResponse.encode()``-style materialization.
    * ``close()`` — plain code, idempotent, callable from a non-yielding
      ``finally`` (the same GeneratorExit discipline as buffer leases).

    ``offset``/``count`` delimit the region to send; Range handling
    narrows them after open.
    """

    __slots__ = ("offset", "count", "_fileno", "_pread", "_close", "closed")

    def __init__(self, fileno, count, offset=0, pread=None, close=None):
        self._fileno = fileno
        self.offset = offset
        self.count = count
        self._pread = pread
        self._close = close
        self.closed = False

    def fileno(self):
        """The backend-level file object/descriptor for ``nb_sendfile``."""
        return self._fileno

    def pread(self, offset: int, nbytes: int) -> bytes:
        """Blocking positional read (fallback path; route via sys_blio)."""
        if self._pread is None:
            raise OSError("file region has no userspace reader")
        return self._pread(offset, nbytes)

    def close(self) -> None:
        """Release the underlying file (plain code, idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._close is not None:
            self._close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"{self.offset}+{self.count}"
        return f"<FileBody {state}>"


def _unsent(bufs: list, count: int) -> list:
    """The tail of ``bufs`` still to write after the kernel accepted
    ``count`` bytes: fully-written (and empty) buffers dropped, the
    first partially-written one sliced so the retry starts mid-buffer.
    Empty when everything went."""
    for index, buf in enumerate(bufs):
        size = len(buf)
        if count < size:
            rest = list(bufs[index:])
            if count:
                rest[0] = memoryview(buf)[count:]
            return rest
        count -= size
    return []


@do
def copy_file_region(send, file, offset, count):
    """Send ``count`` bytes of ``file`` from ``offset`` through userspace:
    positional reads on the blocking pool, each chunk handed to
    ``send(chunk) -> M`` (which sends all of it).  The one copy loop
    under ``NetIO.sendfile``'s fallback and ``TcpSockets.sendfile``;
    resumes with the byte count.  EOF before ``count`` bytes is a
    framing error — the Content-Length is already on the wire."""
    sent = 0
    while sent < count:
        pos = offset + sent
        window = min(count - sent, SENDFILE_WINDOW)
        chunk = yield sys_blio(lambda: file.pread(pos, window))
        if not chunk:
            raise ConnectionClosed(
                f"file ended at {pos} with {count - sent} of {count} "
                f"bytes unsent"
            )
        yield send(chunk)
        sent += len(chunk)
    return sent


class NetIO:
    """Monadic, blocking-style I/O over a non-blocking backend.

    ``backend`` must provide ``nb_read``, ``nb_recv_into(fd, buf)``
    (fill a caller buffer in place), ``nb_write``, ``nb_accept``,
    ``nb_accept_batch(listener, limit)`` (drain the accept queue),
    ``nb_shed(fd, farewell)`` (the best-effort farewell + close of
    overload shedding), ``nb_connect`` and ``close`` with the
    ``WOULD_BLOCK`` convention.  Two ops are optional, for platforms
    that lack the syscall: ``nb_writev(fd, bufs)`` (a scatter-gather
    write; without it the vectored operations degrade to a join +
    ``nb_write``) and ``nb_sendfile(fd, file, offset, count)``
    (kernel-to-socket egress; without it ``sendfile`` reads through the
    blocking pool and writes).  A backend may set either to None to
    force its fallback.  All methods return
    :class:`~repro.core.monad.M` computations.
    """

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        #: The shared receive-buffer pool (``rt.buffers``): every server
        #: on this I/O surface leases ingress buffers from one free list,
        #: so a warm pool costs zero allocations per request.
        self.buffers = BufferPool()
        #: Regions sent through the userspace read+write fallback because
        #: the backend lacks ``nb_sendfile`` (bench evidence surface).
        self.sendfile_fallbacks = 0

    # ------------------------------------------------------------------
    # Public monadic operations
    # ------------------------------------------------------------------
    @do
    def read(self, fd: Any, nbytes: int):
        """Read up to ``nbytes``; blocks the thread (not the loop) until
        data is available.  Resumes with ``b""`` at EOF."""
        backend = self.backend
        while True:
            data = yield sys_nbio(lambda: backend.nb_read(fd, nbytes))
            if data is not WOULD_BLOCK:
                return data
            yield sys_epoll_wait(fd, EVENT_READ)

    @do
    def read_pooled(self, fd: Any, pool: Any):
        """Lease a buffer from ``pool`` and read into it; resumes with
        ``(lease, count)`` (count 0 at EOF).  The lease is *not* held
        while parked waiting for readiness, so idle connections pin no
        buffers; the caller owns the lease on resume and must
        ``release()`` it (plain code) when done with the bytes."""
        op = self.backend.nb_recv_into
        lease = pool.lease()
        try:
            while True:
                count = yield sys_nbio(lambda: op(fd, lease.data))
                if count is not WOULD_BLOCK:
                    return lease, count
                lease.release()
                yield sys_epoll_wait(fd, EVENT_READ)
                lease = pool.lease()
        except BaseException:
            # Error or abandonment mid-read (GeneratorExit at a yield):
            # the caller never sees the lease, so hand it back here —
            # release is plain code and idempotent.
            lease.release()
            raise

    @do
    def read_exact(self, fd: Any, nbytes: int):
        """Read exactly ``nbytes``; raises :class:`ConnectionClosed` on a
        short stream."""
        chunks = []
        remaining = nbytes
        while remaining > 0:
            data = yield self.read(fd, remaining)
            if not data:
                raise ConnectionClosed(
                    f"EOF with {remaining} of {nbytes} bytes unread"
                )
            chunks.append(data)
            remaining -= len(data)
        return b"".join(chunks)

    @do
    def write(self, fd: Any, data: bytes):
        """Write some of ``data``; resumes with the count accepted."""
        backend = self.backend
        while True:
            count = yield sys_nbio(lambda: backend.nb_write(fd, data))
            if count is not WOULD_BLOCK:
                return count
            yield sys_epoll_wait(fd, EVENT_WRITE)

    @do
    def write_all(self, fd: Any, data: bytes):
        """Write all of ``data``, blocking the thread as needed."""
        view = memoryview(data)
        offset = 0
        while offset < len(view):
            count = yield self.write(fd, bytes(view[offset:]))
            offset += count
        return len(view)

    @do
    def writev(self, fd: Any, bufs: list):
        """One gathered write of (a prefix of) ``bufs``; resumes with the
        byte count accepted.  One syscall on backends with scatter-gather
        (``sendmsg``); join + ``write`` elsewhere."""
        op = getattr(self.backend, "nb_writev", None)
        if op is None:
            count = yield self.write(
                fd, b"".join(bytes(buf) for buf in bufs)
            )
            return count
        while True:
            count = yield sys_nbio(lambda: op(fd, bufs))
            if count is not WOULD_BLOCK:
                return count
            yield sys_epoll_wait(fd, EVENT_WRITE)

    @do
    def write_all_v(self, fd: Any, bufs: list):
        """Write every buffer in ``bufs`` in order, resuming mid-iovec
        after partial writes; resumes with the total byte count.  The
        fast path never concatenates: a header+body response or a
        length-prefix+frame message is one ``sendmsg`` with zero
        intermediate copies.  A write the kernel takes whole costs one
        ``sendmsg`` issued right here and no per-buffer pass after it:
        only a short or would-block write walks ``bufs`` to find where
        to resume, in the :meth:`writev` loop."""
        total = sum(map(len, bufs))
        sent = 0
        op = getattr(self.backend, "nb_writev", None)
        if op is not None and total and len(bufs) <= WRITEV_IOV_LIMIT:
            count = yield sys_nbio(lambda: op(fd, bufs))
            if count is WOULD_BLOCK:
                yield sys_epoll_wait(fd, EVENT_WRITE)
            elif count == total:
                return total
            else:
                sent = count
        rest = _unsent(bufs, sent)
        while rest:
            count = yield self.writev(fd, rest[:WRITEV_IOV_LIMIT])
            sent += count
            if sent == total:
                break
            rest = _unsent(rest, count)
        return total

    def try_writev(self, fd: Any, bufs: list) -> list:
        """One gathered write of ``bufs`` right now — plain code, for a
        caller already on the loop (a timer action): the kernel takes
        what it can.  Returns the unsent tail (ready for
        :meth:`write_all_v`) — empty when everything went, all of
        ``bufs`` when the socket would block."""
        backend = self.backend
        window = bufs[:WRITEV_IOV_LIMIT]
        op = getattr(backend, "nb_writev", None)
        if op is not None:
            count = op(fd, window)
        else:
            count = backend.nb_write(fd, b"".join(window))
        if count is WOULD_BLOCK:
            return _unsent(bufs, 0)
        if count == sum(map(len, bufs)):
            return []
        return _unsent(bufs, count)

    def writev_nowait(self, fd: Any, bufs: list) -> M:
        """:meth:`try_writev` as a monadic operation that never parks.
        Lets a writer learn, for the price of the write it had to make
        anyway, whether finishing is about to park."""
        return sys_nbio(lambda: self.try_writev(fd, bufs))

    def sendfile(self, fd: Any, file: Any, offset: int, count: int) -> M:
        """Send ``count`` bytes of ``file`` from ``offset`` to ``fd``
        kernel-to-socket (zero userspace copies), resuming after partial
        sends; resumes with the byte count.  ``file`` is a
        :class:`FileBody` (or anything with ``fileno``/``pread``).
        Backends without ``nb_sendfile`` get a byte-identical
        read+write fallback (counted in ``sendfile_fallbacks``)."""
        if count < 0:
            raise ValueError("sendfile count must be >= 0")
        return self._sendfile(fd, file, offset, count)

    @do
    def _sendfile(self, fd, file, offset, count):
        # Windows of SENDFILE_WINDOW bytes, resuming after partial sends
        # (the kernel accepts what the socket buffer holds); EOF before
        # ``count`` bytes is a framing error — the Content-Length is
        # already on the wire.
        op = getattr(self.backend, "nb_sendfile", None)
        if op is None:
            # Platforms without ``os.sendfile``: byte-identical on the
            # wire, with the userspace copy the fast path avoids —
            # counted so benches can tell the paths apart.
            self.sendfile_fallbacks += 1
            total = yield copy_file_region(
                lambda chunk: self.write_all(fd, chunk), file, offset, count
            )
            return total
        sent = 0
        while sent < count:
            pos = offset + sent
            window = min(count - sent, SENDFILE_WINDOW)
            n = yield sys_nbio(lambda: op(fd, file, pos, window))
            if n is WOULD_BLOCK:
                yield sys_epoll_wait(fd, EVENT_WRITE)
                continue
            if not n:
                raise ConnectionClosed(
                    f"sendfile hit EOF at {pos} with "
                    f"{count - sent} of {count} bytes unsent"
                )
            sent += n
        return sent

    @do
    def accept(self, listener: Any):
        """Accept one connection, blocking the thread until one arrives."""
        backend = self.backend
        while True:
            conn = yield sys_nbio(lambda: backend.nb_accept(listener))
            if conn is not WOULD_BLOCK:
                return conn
            yield sys_epoll_wait(listener, EVENT_READ)

    def accept_many(self, listener: Any, limit: int = 64) -> M:
        """Accept a *batch*: drain the listen queue until empty or ``limit``
        connections, blocking the thread only when the queue is empty.
        Resumes with a non-empty list of connections."""
        if limit < 1:
            raise ValueError("accept batch limit must be >= 1")
        return self._accept_many(listener, limit)

    @do
    def _accept_many(self, listener, limit):
        # One event-loop turn drains the whole burst (up to ``limit``)
        # instead of paying a scheduler round-trip per connection.
        batch_op = self.backend.nb_accept_batch
        while True:
            batch = yield sys_nbio(lambda: batch_op(listener, limit))
            if batch:
                return batch
            yield sys_epoll_wait(listener, EVENT_READ)

    def shed(self, fd: Any, farewell: bytes = b"") -> M:
        """Best-effort farewell + clean close, for overload shedding.

        Never blocks the thread: one non-blocking attempt to send
        ``farewell`` (a pre-encoded response), then a close the peer
        sees as an orderly end of stream (the live backend also sends a
        FIN and drains what the peer already sent, so the close does
        not degrade into a reset)."""
        return sys_nbio(lambda: self.backend.nb_shed(fd, farewell))

    def connect(self, target: Any, label: str = "conn") -> M:
        """Connect to a listener/address; resumes with the stream end."""
        backend = self.backend

        @do
        def _connect():
            conn = yield sys_nbio(lambda: backend.nb_connect(target, label))
            if conn is WOULD_BLOCK:
                raise ConnectionRefusedError(f"backlog full for {target!r}")
            return conn

        return _connect()

    def close(self, fd: Any) -> M:
        """Close a descriptor."""
        return sys_nbio(lambda: self.backend.close(fd))
