"""The live runtime: monadic threads over the real operating system.

The real-OS kernel under the one event loop (:mod:`repro.runtime.loop`;
:class:`~repro.runtime.sim_runtime.SimRuntime` is the other kernel):
non-blocking sockets multiplexed through a persistent ``epoll`` interest
set, timers on the monotonic clock, and a thread pool for blocking
operations (§4.6).  Linux AIO has no portable Python binding, so
``sys_aio_read`` is routed through the blocking pool — the paper's own
fallback path for operations without an async interface.

The hot path follows §4.4's argument that the application-level scheduler
only beats one-thread-per-connection if the event loop itself stays cheap:
:class:`Poller` keeps every descriptor *persistently* registered and
issues ``epoll_ctl`` only when the combined interest mask widens.  The
canonical keep-alive cycle — park on ``EPOLLIN``, fire, handle a request,
park on ``EPOLLIN`` again — costs zero ``epoll_ctl`` calls after the first
registration, instead of an add/del pair per wait.  There is one poller on
every platform: where ``select.epoll`` is missing (macOS, the BSDs) the
same algorithm runs over :class:`_SelectorEpoll`, which gives
``selectors.DefaultSelector`` epoll's calls and semantics.

The poller counts ``ctl_adds``/``ctl_mods``/``ctl_dels`` so the no-rearm
property is testable, and ``polls``/``zero_timeout_polls`` so the loop's
own turn count is; per-shard loop overhead is observable through the
cluster stats protocol.

This kernel's two loop hooks: ``_collect`` drains the blocking pool's
completions, and ``_poll`` is one ``poller.poll`` — bounded by the next
deadline, or a 0.1 s (0.05 s with no descriptor waited on) cadence when
none is armed, since a pool job may still be in flight.  So deadlock is
not detected here: a runtime whose threads are all parked with nothing
armed idles until ``until()`` or ``idle_timeout`` ends the run.
"""

from __future__ import annotations

import errno
import os
import select
import selectors
import socket
import time
from collections import deque
# By name, at import: ``concurrent.futures`` loads its executors on first
# attribute access, so a shard forked from a master that never touched
# it would pay that import (~3 ms) on every start.
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..core.events import EVENT_READ, EVENT_WRITE
from ..core.scheduler import Scheduler, TCB
from ..core.trace import SysAioRead, SysBlio, SysEpollWait
from ..simos.errors import WOULD_BLOCK
from .io_api import ConnectionClosed
from .loop import Runtime

__all__ = ["LiveRuntime", "LiveBackend", "Poller", "make_listener"]

#: Threads in the blocking-I/O pool (§4.6): file opens, stats, fsyncs.
BLIO_WORKERS = 4

#: The one platform switch, read when a :class:`Poller` is built.
HAS_EPOLL = hasattr(select, "epoll")
HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: epoll's event bits: the Linux ABI, which ``select.POLL*`` shares.  The
#: poller speaks them over either multiplexer.
EPOLLIN, EPOLLPRI, EPOLLOUT, EPOLLERR, EPOLLHUP = 0x1, 0x2, 0x4, 0x8, 0x10


def make_listener(
    host: str = "127.0.0.1",
    port: int = 0,
    backlog: int = 1024,
    reuse_port: bool = False,
) -> socket.socket:
    """A non-blocking listening socket, independent of any runtime.

    ``reuse_port`` sets ``SO_REUSEPORT`` so several processes can each own
    a listener on the same port and let the kernel shard incoming
    connections between them (the cluster's shared-nothing accept path).
    Use ``port=0`` for an ephemeral port (read it back with
    ``listener.getsockname()``).
    """
    if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
        raise RuntimeError("SO_REUSEPORT unsupported on this platform")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    listener.bind((host, port))
    listener.listen(backlog)
    listener.setblocking(False)
    return listener


class LiveBackend:
    """Non-blocking wrappers over real sockets.

    ``fd`` objects are ``socket.socket`` instances in non-blocking mode.
    ``nb_connect`` takes an ``(host, port)`` address.  ``on_close`` lets the
    runtime drop poller bookkeeping before the descriptor number can be
    reused.
    """

    def __init__(self, on_close: Callable[[Any], None] | None = None) -> None:
        self.on_close = on_close
        # Egress syscall counters: ``send(2)`` vs ``sendmsg(2)`` issued
        # (WOULD_BLOCK attempts included — a failed attempt is still a
        # kernel crossing).  The hot-path bench divides these by the
        # response count to prove the gathered-write claim (header+body
        # = one syscall), the same way the pollers' ctl counters prove
        # the no-rearm claim.
        self.write_calls = 0
        self.writev_calls = 0
        #: Buffers carried by all sendmsg calls (gather ratio =
        #: writev_bufs / writev_calls).
        self.writev_bufs = 0
        # Ingress counters: ``recv`` allocates a fresh bytes per call,
        # ``recv_into`` fills a pooled buffer in place.  The hot-path
        # bench divides read_calls by the request count to prove the
        # zero-allocation ingress claim (warm pool → recv_into only).
        self.read_calls = 0
        self.recv_into_calls = 0
        # Static-egress counters: kernel-to-socket sends (zero userspace
        # copies) and the bytes they moved.
        self.sendfile_calls = 0
        self.sendfile_bytes = 0

    @property
    def write_syscalls(self) -> int:
        """Total egress syscalls (send + sendmsg)."""
        return self.write_calls + self.writev_calls

    def nb_read(self, fd: socket.socket, nbytes: int):
        self.read_calls += 1
        try:
            return fd.recv(nbytes)
        except (BlockingIOError, InterruptedError):
            return WOULD_BLOCK

    def nb_recv_into(self, fd: socket.socket, buf):
        """Fill ``buf`` in place (zero-allocation ingress).

        Returns the byte count (0 at EOF) or ``WOULD_BLOCK``.
        """
        self.recv_into_calls += 1
        try:
            return fd.recv_into(buf)
        except (BlockingIOError, InterruptedError):
            return WOULD_BLOCK

    def nb_write(self, fd: socket.socket, data: bytes):
        self.write_calls += 1
        try:
            return fd.send(data)
        except (BlockingIOError, InterruptedError):
            return WOULD_BLOCK

    def nb_writev(self, fd: socket.socket, bufs: list):
        """Scatter-gather write: the whole iovec in one ``sendmsg``.

        Returns the byte count accepted (possibly mid-buffer — the
        caller's ``write_all_v`` resumes mid-iovec), or ``WOULD_BLOCK``.
        """
        self.writev_calls += 1
        self.writev_bufs += len(bufs)
        try:
            return fd.sendmsg(bufs)
        except (BlockingIOError, InterruptedError):
            return WOULD_BLOCK

    def nb_sendfile(self, fd: socket.socket, file, offset: int, count: int):
        """Kernel-to-socket send of a file region: ``sendfile(2)``.

        ``file`` is a :class:`~repro.runtime.io_api.FileBody` (or any
        object whose ``fileno()`` is an OS descriptor).  Returns the
        byte count accepted (0 at file EOF) or ``WOULD_BLOCK``; the
        caller's ``NetIO.sendfile`` resumes mid-region.
        """
        self.sendfile_calls += 1
        try:
            n = os.sendfile(fd.fileno(), file.fileno(), offset, count)
        except (BlockingIOError, InterruptedError):
            return WOULD_BLOCK
        self.sendfile_bytes += n
        return n

    def nb_accept(self, listener: socket.socket):
        try:
            conn, _addr = listener.accept()
        except (BlockingIOError, InterruptedError):
            return WOULD_BLOCK
        conn.setblocking(False)
        return conn

    def nb_accept_batch(self, listener: socket.socket, limit: int) -> list:
        """Drain the accept queue: up to ``limit`` connections per call.

        Accept-until-EAGAIN is the batched accept path — one loop wakeup
        admits a whole burst instead of one connection per turn.  Returns
        the (possibly empty) batch; an empty batch means the caller should
        park on the listener.
        """
        conns = []
        while len(conns) < limit:
            try:
                conn, _addr = listener.accept()
            except (BlockingIOError, InterruptedError):
                break
            conn.setblocking(False)
            conns.append(conn)
        return conns

    #: Drain cap for shedding closes: enough to clear a buffered request,
    #: bounded so a peer still streaming (e.g. an oversized body being
    #: rejected) cannot spin the event loop inside one nb_shed call.
    SHED_DRAIN_LIMIT = 256 * 1024

    def nb_shed(self, fd: socket.socket, farewell: bytes) -> None:
        """Overload-shedding close: farewell, FIN, drain, close.

        ``shutdown(SHUT_WR)`` queues a FIN behind the farewell bytes, and
        draining whatever the peer already sent keeps ``close()`` from
        degrading into an RST (unread data in the receive queue resets the
        connection instead of closing it cleanly).  The drain is *bounded*:
        this runs synchronously on the event loop, so a peer that keeps
        sending must not head-of-line block every other connection — past
        the cap the close may RST, which is the correct outcome for a
        flooder.
        """
        try:
            if farewell:
                fd.send(farewell)
            fd.shutdown(socket.SHUT_WR)
            drained = 0
            while drained < self.SHED_DRAIN_LIMIT:
                data = fd.recv(4096)
                if not data:
                    break
                drained += len(data)
        except OSError:
            pass  # peer vanished or nothing buffered: close regardless
        self.close(fd)

    def nb_connect(self, address: tuple, label: str = "conn"):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        code = sock.connect_ex(address)
        if code not in (0, errno.EINPROGRESS):
            sock.close()
            raise OSError(code, os.strerror(code))
        return sock

    def close(self, fd: socket.socket) -> None:
        if self.on_close is not None:
            self.on_close(fd)
        fd.close()

    def now(self) -> float:
        return time.monotonic()


if not HAS_SENDMSG:  # pragma: no cover - platform without sendmsg
    # NetIO checks ``getattr(backend, "nb_writev", None)``: a None
    # attribute routes the vectored operations through the join+send
    # fallback instead.
    LiveBackend.nb_writev = None  # type: ignore[assignment]

if not hasattr(os, "sendfile"):  # pragma: no cover - platform without it
    # Same convention: None routes ``NetIO.sendfile`` through the
    # read+write fallback (byte-identical, one userspace copy).
    LiveBackend.nb_sendfile = None  # type: ignore[assignment]


class _FdEntry:
    """Per-fd poller bookkeeping: parked waiters + kernel interest state."""

    __slots__ = ("fd", "waiters", "registered")

    def __init__(self, fd: Any) -> None:
        self.fd = fd
        # (mask, tcb, cont) triples.
        self.waiters: list[tuple[int, TCB, Callable]] = []
        # The mask currently installed in the kernel interest set, or None
        # when the fd is not registered at all.
        self.registered: int | None = None

    def interest_mask(self) -> int:
        combined = 0
        for mask, _tcb, _cont in self.waiters:
            combined |= mask
        return combined


#: ``poll()`` resumption: (tcb, continuation, ready-event mask).
Resume = tuple[TCB, Callable, int]


class _SelectorEpoll:
    """``select.epoll`` where the platform has none: epoll's five calls
    over ``selectors.DefaultSelector`` (kqueue, devpoll, poll or select).

    It keeps epoll's semantics too.  Masks are epoll's bits; a 0 mask
    stays registered for nothing; one ``poll`` reports each descriptor
    once (kqueue reports read and write readiness as two events);
    registering a number again replaces its stale key — :class:`Poller`
    does so only once the old descriptor closed behind its back, which
    the kernel drops from an epoll set; unregistering or modifying an
    unknown number raises ``OSError``.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        # fileno -> selector events; 0 is registered for nothing.
        self._events: dict[int, int] = {}

    def register(self, fileno: int, mask: int) -> None:
        if fileno in self._events:
            self.unregister(fileno)
        self._events[fileno] = 0
        self.modify(fileno, mask)

    def modify(self, fileno: int, mask: int) -> None:
        old = self._events.get(fileno)
        if old is None:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        new = ((selectors.EVENT_READ if mask & (EPOLLIN | EPOLLPRI) else 0)
               | (selectors.EVENT_WRITE if mask & EPOLLOUT else 0))
        if old and new:
            self._selector.modify(fileno, new)
        elif old:
            self._selector.unregister(fileno)
        elif new:
            self._selector.register(fileno, new)
        self._events[fileno] = new

    def unregister(self, fileno: int) -> None:
        self.modify(fileno, 0)
        del self._events[fileno]

    def poll(self, timeout: float) -> list[tuple[int, int]]:
        ready: dict[int, int] = {}
        for key, events in self._selector.select(
                None if timeout < 0 else timeout):
            ready[key.fd] = ready.get(key.fd, 0) | (
                (EPOLLIN if events & selectors.EVENT_READ else 0)
                | (EPOLLOUT if events & selectors.EVENT_WRITE else 0))
        return list(ready.items())

    def close(self) -> None:
        self._selector.close()


class Poller:
    """Persistent ``epoll`` interest sets: ``epoll_ctl`` only on change.

    Registration is *sticky*: firing an event resumes the matching waiters
    but leaves the kernel mask armed, so a thread that re-parks with the
    same interest (the keep-alive read loop) costs zero syscalls.  A
    spurious fire — readiness nobody currently waits for — narrows the mask
    to the live interest, which prevents busy-wakeups from lingering
    ``EPOLLOUT``/readable-but-unclaimed descriptors.  Descriptors stay in
    the interest set (possibly with mask 0) until closed.

    The platform picks the multiplexer, not the algorithm: ``select.epoll``
    where it exists (:data:`HAS_EPOLL`), else :class:`_SelectorEpoll`.
    """

    def __init__(self) -> None:
        if HAS_EPOLL:
            self.name = "epoll"
            self._epoll = select.epoll()
        else:
            self.name = "selectors"
            self._epoll = _SelectorEpoll()
        self._entries: dict[int, _FdEntry] = {}  # keyed by fileno
        self._wake_fileno: int | None = None
        #: Set when ``poll`` saw the wake pipe readable; the runtime
        #: clears it when it drains the pipe.
        self.wake_ready = False
        # Maintained incrementally: the event loop reads it every
        # iteration, and walking all (persistently registered) entries
        # would reintroduce the O(active-fds) per-iteration cost this
        # poller exists to remove.
        self._waiter_count = 0
        #: Cumulative ``epoll_ctl`` traffic, for tests and loop stats.
        self.ctl_adds = 0
        self.ctl_mods = 0
        self.ctl_dels = 0
        #: ``poll`` calls made, and how many of them could not block.
        self.polls = 0
        self.zero_timeout_polls = 0

    # -- bookkeeping ---------------------------------------------------
    @property
    def ctl_calls(self) -> int:
        return self.ctl_adds + self.ctl_mods + self.ctl_dels

    @property
    def waiter_count(self) -> int:
        return self._waiter_count

    def register_wake(self, fd: Any) -> None:
        self._wake_fileno = fd.fileno()
        self._epoll.register(self._wake_fileno, EPOLLIN)

    # -- waiting -------------------------------------------------------
    def wait(self, fd: Any, mask: int, tcb: TCB, cont: Callable) -> None:
        fileno = fd.fileno()
        if fileno < 0:
            raise ValueError("epoll_wait on a closed descriptor")
        entry = self._entries.get(fileno)
        if entry is not None and entry.fd is not fd:
            # The old descriptor closed (the kernel dropped it from the
            # interest set on close) and its number was reused: start
            # over.  Waiters still parked on the dead descriptor can never
            # fire; drop them from the count.
            self._waiter_count -= len(entry.waiters)
            entry = None
        if entry is None:
            entry = _FdEntry(fd)
            self._entries[fileno] = entry
        entry.waiters.append((mask, tcb, cont))
        self._waiter_count += 1
        desired = entry.interest_mask()
        if entry.registered is None:
            self._epoll.register(fileno, _to_epoll_mask(desired))
            entry.registered = desired
            self.ctl_adds += 1
        elif desired & ~entry.registered:
            merged = entry.registered | desired
            self._epoll.modify(fileno, _to_epoll_mask(merged))
            entry.registered = merged
            self.ctl_mods += 1
        # else: already armed for everything we want — zero syscalls.

    # -- events --------------------------------------------------------
    def poll(self, timeout: float | None) -> list[Resume]:
        self.polls += 1
        if timeout == 0:
            self.zero_timeout_polls += 1
        try:
            events = self._epoll.poll(-1 if timeout is None else timeout)
        except InterruptedError:
            return []
        resumes: list[Resume] = []
        for fileno, epoll_mask in events:
            if fileno == self._wake_fileno:
                self.wake_ready = True  # the runtime drains the pipe
                continue
            entry = self._entries.get(fileno)
            if entry is None:
                # No bookkeeping for a live registration: drop it.
                try:
                    self._epoll.unregister(fileno)
                    self.ctl_dels += 1
                except OSError:
                    pass
                continue
            ready = _from_epoll_mask(epoll_mask)
            remaining: list[tuple[int, TCB, Callable]] = []
            resumed = False
            for want, tcb, cont in entry.waiters:
                hit = want & ready
                if hit:
                    resumes.append((tcb, cont, hit))
                    resumed = True
                else:
                    remaining.append((want, tcb, cont))
            self._waiter_count -= len(entry.waiters) - len(remaining)
            entry.waiters = remaining
            if resumed:
                continue  # sticky mask: the re-park fast path stays armed
            # Spurious fire — readiness nobody currently waits for.  On a
            # busy poll (timeout 0, scheduler mid-batch) the resumed thread
            # simply hasn't consumed its data yet: tolerate it, because
            # narrowing here would re-arm on the next park and forfeit the
            # zero-ctl cycle.  Only when the loop is about to *sleep* must
            # the mask narrow, or the unclaimed descriptor would turn the
            # sleep into a spin.
            if timeout == 0 and entry.registered:
                continue
            desired = entry.interest_mask()
            if entry.registered == 0 and not entry.waiters:
                # A mask-0 registration still reports ERR/HUP: drop it.
                try:
                    self._epoll.unregister(fileno)
                except OSError:
                    pass
                self.ctl_dels += 1
                del self._entries[fileno]
            elif desired != entry.registered:
                self._epoll.modify(fileno, _to_epoll_mask(desired))
                entry.registered = desired
                self.ctl_mods += 1
        return resumes

    # -- teardown ------------------------------------------------------
    def discard(self, fd: Any) -> list[tuple[TCB, Callable]]:
        """Forget ``fd`` (called just before it closes).

        Returns the waiters still parked on the descriptor so the caller
        can resume them with an error — a thread parked in
        ``sys_epoll_wait`` on an fd another thread closes (e.g. a mesh
        watchdog downing a wedged link) must be woken, not orphaned.
        """
        try:
            fileno = fd.fileno()
        except (OSError, ValueError):
            return []
        if fileno < 0:
            return []
        entry = self._entries.get(fileno)
        if entry is None or entry.fd is not fd:
            return []
        if entry.registered is not None:
            try:
                self._epoll.unregister(fileno)
                self.ctl_dels += 1
            except OSError:
                pass
        self._waiter_count -= len(entry.waiters)
        del self._entries[fileno]
        return [(tcb, cont) for _mask, tcb, cont in entry.waiters]

    def close(self) -> None:
        self._epoll.close()


class LiveRuntime(Runtime):
    """The one event loop over real-OS devices."""

    def __init__(self, uncaught: str | Callable = "raise") -> None:
        super().__init__(LiveBackend(on_close=self._discard_fd),
                         time.monotonic, uncaught)
        self.poller = Poller()
        self.pool = ThreadPoolExecutor(
            max_workers=BLIO_WORKERS, thread_name_prefix="blio"
        )
        # Completions from pool threads, drained on the main loop; the
        # self-pipe wakes a sleeping poll().
        # Pool-job outcomes: (tcb, cont, value, exc) — exc wins when set.
        self._completions: deque[
            tuple[TCB, Callable, Any, BaseException | None]
        ] = deque()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self.poller.register_wake(self._wake_recv)
        self.sched.register_syscall(SysEpollWait, self._handle_epoll_wait)
        self.sched.register_syscall(SysBlio, self._handle_blio)
        # AIO without a native interface: blocking pool (see module docs).
        self.sched.register_syscall(SysAioRead, self._handle_aio_read)

    def _discard_fd(self, fd: Any) -> None:
        """Drop poller state for a closing fd and wake its parked waiters.

        A thread can be parked in ``sys_epoll_wait`` on a descriptor some
        *other* thread closes — the mesh write watchdog downing a wedged
        link, a demux thread tearing down a failed connection.  The kernel
        silently drops a closed fd from the interest set, so without this
        resume the parked thread would block forever; instead it is woken
        with :class:`~repro.runtime.io_api.ConnectionClosed`, which the
        I/O wrappers surface as an ordinary monadic exception.
        """
        for tcb, _cont in self.poller.discard(fd):
            self.sched.resume_error(
                tcb,
                ConnectionClosed(
                    "descriptor closed while parked in epoll_wait"
                ),
            )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_epoll_wait(self, _sched: Scheduler, tcb: TCB, node: SysEpollWait):
        tcb.state = "blocked"
        self.poller.wait(node.fd, node.events, tcb, node.cont)
        return None

    def _submit_pool(self, tcb: TCB, action: Callable[[], Any], cont: Callable) -> None:
        """Run ``action`` on a pool thread; resume ``cont`` on the loop."""

        def job() -> None:
            # Record the raw outcome; the loop thread builds the resume
            # step via resume_value/resume_error when draining (no per-job
            # closure, and pool threads never touch trace machinery).
            try:
                value = action()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self._completions.append((tcb, cont, None, exc))
            else:
                self._completions.append((tcb, cont, value, None))
            try:
                self._wake_send.send(b"\0")
            except (BlockingIOError, InterruptedError):
                pass  # wake pipe already full: the loop will wake anyway
            except OSError:
                pass  # runtime already shut down mid-flight

        tcb.state = "blocked"
        self.pool.submit(job)

    def _handle_blio(self, _sched: Scheduler, tcb: TCB, node: SysBlio):
        self._submit_pool(tcb, node.action, node.cont)
        return None

    def _handle_aio_read(self, _sched: Scheduler, tcb: TCB, node: SysAioRead):
        path, offset, nbytes = node.fd, node.offset, node.nbytes

        def action() -> bytes:
            with open(path, "rb") as handle:
                handle.seek(offset)
                return handle.read(nbytes)

        self._submit_pool(tcb, action, node.cont)
        return None

    # ------------------------------------------------------------------
    # The loop hooks
    # ------------------------------------------------------------------
    def _collect(self) -> bool:
        poller = self.poller
        if poller.wake_ready:
            # Only when the poller saw the wake pipe readable: an
            # unconditional recv is a syscall and a BlockingIOError per
            # turn.  Every byte must go, completion queued or not — the
            # pipe is level-triggered and a leftover byte would turn the
            # next blocking poll into a spin.  A short read means empty.
            poller.wake_ready = False
            try:
                while len(self._wake_recv.recv(4096)) == 4096:
                    pass
            except (BlockingIOError, InterruptedError):
                pass
        progressed = False
        while self._completions:
            tcb, cont, value, exc = self._completions.popleft()
            if exc is not None:
                self.sched.resume_error(tcb, exc)
            else:
                self.sched.resume_value(tcb, cont, value)
            progressed = True
        return progressed

    def _poll(self, timeout: float | None) -> bool:
        if self._completions:
            timeout = 0.0
        elif timeout is None:
            timeout = 0.1 if self.poller.waiter_count else 0.05
        resumes = self.poller.poll(timeout)
        for tcb, cont, ready in resumes:
            self.sched.resume_value(tcb, cont, ready)
        return bool(resumes)

    def shutdown(self) -> None:
        """Release the poller, wake pipe, and pool threads."""
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.poller.close()
        self._wake_recv.close()
        self._wake_send.close()


def _to_epoll_mask(mask: int) -> int:
    epoll_mask = 0
    if mask & EVENT_READ:
        epoll_mask |= EPOLLIN
    if mask & EVENT_WRITE:
        epoll_mask |= EPOLLOUT
    return epoll_mask


def _from_epoll_mask(epoll_mask: int) -> int:
    ours = 0
    if epoll_mask & (EPOLLIN | EPOLLPRI):
        ours |= EVENT_READ
    if epoll_mask & EPOLLOUT:
        ours |= EVENT_WRITE
    if epoll_mask & (EPOLLERR | EPOLLHUP):
        # Error/hangup wakes both directions: the waiter's retry
        # observes the failure through its non-blocking call.
        ours |= EVENT_READ | EVENT_WRITE
    return ours
