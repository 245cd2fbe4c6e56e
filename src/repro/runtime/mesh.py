"""The shard-to-shard data-plane mesh: framed RPC between event loops.

Sharded-state workloads need shards to talk to each other — a key owned by
shard 2 must be readable through a connection the kernel hashed onto shard
0.  This module gives every shard a :class:`MeshNode`: a mesh *listener*
(one extra port per shard) plus lazily dialed, persistent client links to
every peer.  Everything is ordinary monadic code over :class:`~repro
.runtime.io_api.NetIO` — mesh descriptors sit in the same poller interest
set as client sockets, and mesh calls block only the calling CK thread,
never the event loop.  That is the paper's thesis applied to the control
*between* servers: cross-shard protocols written in blocking style over
the event-driven core.

Wire format (all integers big-endian)::

    frame    := length:u32  kind:u8  request_id:u64  body:bytes
    kind     := 0 request | 1 reply | 2 error-reply | 3 cast | 4 ping

Invariants the rest of the stack builds on:

* **Framing** — a frame is exactly ``length`` bytes after the length
  prefix, ``length`` covers the kind/request-id header, and no frame may
  exceed ``max_frame`` (a protocol violation downs the link, *before*
  any of the body is buffered).  Each connection has one buffered
  :class:`FrameReader`: it reads in large chunks, hands out every whole
  frame already buffered without a syscall, and after a short read —
  the socket is empty — parks on readability *before* reading again, so
  a frame costs one ``recv``, not a 4-byte read, a body read and an
  ``EAGAIN``.  Partial reads mid-frame are reassembled; EOF *between*
  frames is a clean close, EOF *inside* one is
  :class:`~repro.runtime.io_api.ConnectionClosed`.
* **Multiplexing** — each persistent link carries many in-flight calls,
  matched by ``request_id``; a per-link *demux* thread reads reply frames
  and fulfills the matching :class:`~repro.core.sync.MVar`.  On the
  server side the thread that reads a request runs its handler inline —
  a call between monadic functions is a direct call, so a request costs
  a thread only if it suspends.  A handler that parks keeps the reader's
  thread, and at the end of that turn the reading moves to a fresh one
  (``stats.handoffs``): a slow handler never blocks later frames, and
  ``max_inflight`` parked handlers per link is the cap past which the
  reader keeps its handler and stops pulling frames (backpressure).
  ``kind 3`` (*cast*) is one-way: the server runs the handler and sends
  no reply (used for read-repair patches and hint forwarding, where
  at-most-once delivery is acceptable).  ``kind 4`` (*ping*) is an empty
  keepalive frame both sides silently discard.
* **Batched egress** — senders never write the socket directly: each
  frame is *queued* on the connection's outbound queue (header and body
  as separate buffers — zero concatenation), and the first enqueue on an
  idle connection arms the flush as a deadline of "now" on the timer
  wheel (``timers.schedule(0, ...)``).  A server link's reader arms it
  before it runs a handler, so the reply usually finds it armed, and the
  action's first act is the hand-off check (while a ``_flusher`` thread
  owns the flush, the reader arms a zero-delay check of its own).  The
  runtime fires it once its ready queue is dry — every enqueuer of the
  turn, a thread forked or woken mid-turn included, is in the queue by
  then — and the action, in plain code on the loop, makes one gathered
  write per batch (at most :data:`FLUSH_MAX_FRAMES` frames — what one
  ``sendmsg`` can carry — and about :data:`FLUSH_MAX_BYTES`; an empty
  batch writes nothing), so N concurrent calls/casts/replies on one link
  cost one syscall, not N (one per 64 frames past that), and a frame
  costs no thread.  The action hands back an ``M`` — the wheel runs it
  on a thread of its own — only for what plain code cannot do: fill the
  flush boxes of casts and pings, write the batches beyond the first
  (frames queued meanwhile ride them), finish a partial write, read a
  link whose handler parked.  One
  flush owns a connection at a time (``out.flushing``) and the queue is
  FIFO, so frames never interleave or reorder; ``stats.flushes``/
  ``batched_flushes``/``max_frames_per_flush`` make the coalescing
  observable.  A *request* or *reply* is queued and forgotten — nobody
  parks until it is on the wire: a request's write failure reaches its
  caller through the link's pending reply box, a reply's has nobody to
  tell.  A *cast* or *ping* parks on a per-frame flush box until its
  batch is written, because there the completed write is the result
  (a failed cast must raise so the KV parks the hint locally; a ping's
  write is the wedge detector).
* **Timeout semantics** — every blocking edge has a bound, and every
  failure surfaces as a monadic exception in the *calling* thread, never
  a hang.  A call arms exactly one deadline on the node's shared
  :class:`~repro.runtime.timer_wheel.TimerWheel` (``call_timeout``: a
  heap entry, *no thread per call*) before it queues its frame, so the
  bound covers queue wait + flush + remote handling + reply; expiry
  raises :class:`MeshTimeout`.  A flush first makes one gathered write
  that cannot park; only when the kernel took less than the whole batch
  — the write is about to wait for the peer — does it arm a
  ``write_timeout`` watchdog on the wheel.  An unblocked link therefore
  costs zero watchdog timers; a flush that stalls past ``write_timeout``
  (the peer stopped reading) is downed by the wheel closing the
  connection — the runtime wakes the parked writer, and every waiter
  sees :class:`MeshPeerDown` (counted in ``stats.write_timeouts``).
  Whatever a flush's write raises, ``OSError`` or not, is that same
  link failure — a flush never ends with ``out.flushing`` still set.
  Link failures (dial refused, reset, EOF mid-call) raise
  :class:`MeshPeerDown` and fail every other call pending and every
  frame queued on the same link.
* **Keepalive** — with ``keepalive_interval`` set, a wheel tick pings
  every client link that sent nothing since the previous tick; the ping
  costs one (batched) frame on a healthy link, and on a wedged peer it
  arms the write watchdog *before* real traffic blocks on the corpse.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable

from collections import deque

from ..core.do_notation import do
from ..core.events import EVENT_READ
from ..core.monad import M, pure
from ..core.sync import Mutex, MVar
from ..core.syscalls import sys_epoll_wait, sys_fork, sys_throw
from ..core.thread import join_all, spawn
from .driver import CLOSE, ConnectionDriver
from .io_api import WRITEV_IOV_LIMIT, ConnectionClosed, NetIO
from .timer_wheel import TimerWheel

__all__ = [
    "MeshNode",
    "MeshError",
    "MeshTimeout",
    "MeshPeerDown",
    "MeshRemoteError",
    "MeshProtocolError",
    "FrameReader",
    "KIND_REQUEST",
    "KIND_REPLY",
    "KIND_ERROR",
    "KIND_CAST",
    "KIND_PING",
]

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!BQ")
_FRAME = struct.Struct("!IBQ")  # the two above, packed in one call

KIND_REQUEST = 0
KIND_REPLY = 1
KIND_ERROR = 2
#: One-way request: the server runs the handler but never replies.
KIND_CAST = 3
#: Keepalive probe: both sides discard it on receipt.  Its value is the
#: *write* — a wedged peer stalls the flush and trips the watchdog.
KIND_PING = 4

#: Frames above this are a protocol violation (memory bound per link).
DEFAULT_MAX_FRAME = 16 * 1024 * 1024

#: What a :class:`FrameReader` asks the kernel for per ``recv``: far more
#: than a typical frame, so one read drains the socket.
READ_CHUNK = 64 * 1024

#: Frames per gathered flush: a frame is at most two buffers (header,
#: body) and one ``sendmsg`` takes ``WRITEV_IOV_LIMIT``, so this is the
#: most one syscall can carry — a larger batch would only look like a
#: partial write and arm the write watchdog on a healthy link.
FLUSH_MAX_FRAMES = WRITEV_IOV_LIMIT // 2

#: Rough byte bound on one flush (a frame is never split across it — the
#: next flush picks it up), so one link's burst of large bodies does not
#: hold its flush through a single multi-megabyte write.
FLUSH_MAX_BYTES = 256 * 1024


class MeshError(OSError):
    """Base class for data-plane failures."""


class MeshTimeout(MeshError):
    """A call's per-peer timeout elapsed before a reply arrived."""


class MeshPeerDown(MeshError):
    """The peer link failed (dial refused, reset, or EOF mid-call)."""


class MeshRemoteError(MeshError):
    """The peer's handler raised; carries its message."""


class MeshProtocolError(MeshError):
    """Malformed or oversized frame on a mesh link."""


# ----------------------------------------------------------------------
# Framing (shared by both sides; also exercised directly by tests).
# ----------------------------------------------------------------------
def frame_header(kind: int, request_id: int, body_len: int) -> bytes:
    """The 13-byte length-prefix + kind + request-id header for a frame
    whose body is ``body_len`` bytes."""
    return _FRAME.pack(_HEAD.size + body_len, kind, request_id)


class FrameReader:
    """One connection's buffered frame reader (both sides of a link use
    it; so do hand-rolled test peers).

    ``recv()`` resumes with ``(kind, request_id, body)``, or ``None`` on
    a clean EOF *between* frames; it raises
    :class:`~repro.runtime.io_api.ConnectionClosed` on EOF mid-frame and
    :class:`MeshProtocolError` on a length prefix outside
    ``[header size, max_frame]`` — checked as soon as the four prefix
    bytes are in, before any of the body is accumulated, so the buffer
    never holds more than ``max_frame`` plus one read.
    """

    __slots__ = ("io", "fd", "max_frame", "_buf", "_drained")

    def __init__(self, io: NetIO, fd: Any,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.io = io
        self.fd = fd
        self.max_frame = max_frame
        self._buf = bytearray()
        #: The last read came back short, so the socket is empty: park on
        #: readability before reading again (readiness is level-triggered
        #: in both runtimes, and the live poller's sticky mask makes the
        #: park free) instead of paying a ``recv`` just to learn EAGAIN.
        self._drained = False

    @do
    def recv(self):
        buf = self._buf
        need = _LEN.size
        while True:
            if len(buf) >= _LEN.size:
                (length,) = _LEN.unpack_from(buf)
                if length < _HEAD.size:
                    raise MeshProtocolError(
                        f"frame shorter than its header: {length}"
                    )
                if length > self.max_frame:
                    raise MeshProtocolError(
                        f"frame of {length} bytes exceeds "
                        f"max_frame={self.max_frame}"
                    )
                need = _LEN.size + length
                if len(buf) >= need:
                    kind, request_id = _HEAD.unpack_from(buf, _LEN.size)
                    # One copy; the view must be gone before the resize.
                    with memoryview(buf) as view:
                        body = bytes(view[_FRAME.size:need])
                    del buf[:need]
                    return kind, request_id, body
            if self._drained:
                yield sys_epoll_wait(self.fd, EVENT_READ)
            want = max(READ_CHUNK, need - len(buf))
            data = yield self.io.read(self.fd, want)
            if not data:
                if buf:
                    raise ConnectionClosed(
                        f"EOF inside a frame ({len(buf)} of {need} bytes)"
                    )
                return None
            self._drained = len(data) < want
            buf += data


class _Timeout:
    """Sentinel delivered into a pending MVar by the timer thread."""

    __slots__ = ()


_TIMED_OUT = _Timeout()


class _Outbound:
    """Per-connection outbound frame queue + its flush state.

    ``queue`` entries are ``(bufs, flushed)``: the frame's buffers
    (header, body — never joined) and, for casts and pings only, an
    :class:`~repro.core.sync.MVar` the flush fills with ``None``
    (written) or an exception; requests and replies carry ``None`` —
    nobody waits for their write.  ``link`` is
    the owning client :class:`_PeerLink` for client connections (so a
    failed flush can down the link), ``None`` for inbound server
    connections (their reader tears them down).
    """

    __slots__ = ("conn", "queue", "flushing", "flusher", "link",
                 "inbound", "enqueued", "failed")

    def __init__(self, conn: Any, link: "_PeerLink | None" = None) -> None:
        self.conn = conn
        self.queue: deque[tuple[tuple[bytes, ...], MVar | None]] = deque()
        #: Whether a flush owns the queue — its trigger armed or its
        #: write in progress (at most one per connection; the first
        #: enqueue on an idle connection arms it).
        self.flushing = False
        #: Whether that flush is a ``_flusher`` thread (a partial write,
        #: casts' boxes, batches past the first) rather than a trigger
        #: armed for the end of this turn.
        self.flusher = False
        self.link = link
        #: The :class:`_Inbound` serving this connection (server side
        #: only): its flush trigger is also its hand-off check.
        self.inbound: _Inbound | None = None
        #: Frames ever enqueued — the keepalive tick compares this
        #: against its last mark to find idle links.
        self.enqueued = 0
        #: Set (to the failure) once a flush on this connection has
        #: failed: later enqueues raise immediately instead of queueing
        #: behind a flush that will never come.  Sticky — a downed link is re-dialed
        #: with a fresh ``_Outbound``, never resurrected.
        self.failed: MeshError | None = None

    def take_batch(self) -> tuple[int, list[bytes], list[MVar]]:
        """Pop the next batch off the queue (at most
        :data:`FLUSH_MAX_FRAMES` frames, about :data:`FLUSH_MAX_BYTES`):
        its frame count, its buffers in wire order, and the flush boxes
        of its casts and pings."""
        queue = self.queue
        frames = nbytes = 0
        bufs: list[bytes] = []
        boxes: list[MVar] = []
        while (queue and frames < FLUSH_MAX_FRAMES
                and nbytes < FLUSH_MAX_BYTES):
            frame, flushed = queue.popleft()
            frames += 1
            for buf in frame:
                bufs.append(buf)
                nbytes += len(buf)
            if flushed is not None:
                boxes.append(flushed)
        return frames, bufs, boxes


class _Inbound:
    """One accepted peer link: who reads it, and the handlers that kept
    their thread.

    The reader serves each request inline.  A handler that parks keeps
    the reader's thread; at the end of that turn the link's flush
    trigger (armed before the handler ran) moves the reading to a fresh
    thread, and ``generation`` tells the old reader it no longer reads.
    """

    __slots__ = ("out", "reader", "generation", "handling", "parked",
                 "ended")

    def __init__(self, conn: Any, reader: FrameReader) -> None:
        self.out = _Outbound(conn)
        self.out.inbound = self
        self.reader = reader
        #: Hand-offs so far; a reader whose generation is behind it has
        #: passed the reading on.
        self.generation = 0
        #: The current reader is inside a handler.
        self.handling = False
        #: Handlers that parked and kept their thread.
        self.parked = 0
        #: The session's verdict (or what ended the reading), once the
        #: reading has left the session thread.
        self.ended = MVar(name="mesh-session")


class _PeerLink:
    """One persistent client connection to a peer, with demux state."""

    __slots__ = ("peer", "conn", "out", "pending", "alive", "ka_mark")

    def __init__(self, peer: int, conn: Any) -> None:
        self.peer = peer
        self.conn = conn
        self.out = _Outbound(conn, link=self)
        #: request_id -> the MVar awaiting the reply (the caller owns
        #: its deadline: ``call`` cancels it however the call ends).
        self.pending: dict[int, MVar] = {}
        self.alive = True
        #: ``out.enqueued`` at the last keepalive tick (idle detection).
        self.ka_mark = 0


class MeshStats:
    """Data-plane counters, surfaced through cluster ``stats()``."""

    __slots__ = ("calls", "casts", "served", "handoffs", "timeouts",
                 "peer_failures", "write_timeouts", "frames_sent",
                 "frames_received", "flushes", "batched_flushes",
                 "max_frames_per_flush", "pings_sent")

    def __init__(self) -> None:
        #: Client-side calls issued (including failed ones).
        self.calls = 0
        #: Client-side one-way casts issued (including failed ones).
        self.casts = 0
        #: Requests this node's handler served for peers.
        self.served = 0
        #: Served requests whose handler parked: the reading moved to a
        #: fresh thread and the handler kept the reader's.
        self.handoffs = 0
        #: Calls that hit their per-peer timeout.
        self.timeouts = 0
        #: Link failures observed (dial refused, reset, EOF mid-call).
        self.peer_failures = 0
        #: Frame writes that stalled past ``write_timeout`` (wedged peer).
        self.write_timeouts = 0
        self.frames_sent = 0
        self.frames_received = 0
        #: Gathered writes issued by outbound-queue flushes.
        self.flushes = 0
        #: Flushes that carried more than one frame (coalescing engaged).
        self.batched_flushes = 0
        #: Largest frame count one flush ever carried.
        self.max_frames_per_flush = 0
        #: Keepalive probes written to idle links.
        self.pings_sent = 0

    #: What ``MeshNode.health()`` exports: every counter but
    #: ``handoffs``, which stays off the cluster snapshot's key set and
    #: is read from ``stats`` directly.
    EXPORTED = tuple(name for name in __slots__ if name != "handoffs")

    @property
    def frames_per_flush(self) -> float:
        """Mean egress batching ratio (1.0 = no coalescing happened)."""
        return self.frames_sent / self.flushes if self.flushes else 0.0


class _MeshDriver(ConnectionDriver):
    """The mesh's server side: the shared driver's accept loop, shutdown,
    close and abandonment rule, with a :class:`FrameReader` loop (one
    read per frame) as the session body in place of the pooled-ingress
    loop.  ``protocol`` is the :class:`MeshNode`."""

    def serve(self, conn: Any) -> M:
        return self.protocol._serve_peer(conn)


class MeshNode:
    """One shard's end of the data plane.

    ``peers`` maps shard index -> ``(host, port)`` of every shard's mesh
    listener (self included).  ``handler(body: bytes) -> M[bytes]`` serves
    inbound requests; set it before spawning :meth:`serve`.
    """

    def __init__(
        self,
        index: int,
        io: NetIO,
        listener: Any,
        peers: dict[int, tuple],
        timers: TimerWheel,
        handler: Callable[[bytes], M] | None = None,
        call_timeout: float = 5.0,
        write_timeout: float = 5.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        accept_batch: int = 16,
        max_inflight: int = 128,
        keepalive_interval: float | None = None,
    ) -> None:
        self.index = index
        self.io = io
        self.listener = listener
        self.peers = dict(peers)
        self.handler = handler
        self.call_timeout = call_timeout
        #: Bound on one flush write: past it the link is declared wedged
        #: (the peer stopped reading), closed, and every waiter fails
        #: with :class:`MeshPeerDown` instead of blocking forever.
        self.write_timeout = write_timeout
        self.max_frame = max_frame
        self.accept_batch = accept_batch
        #: Per-inbound-link cap on parked requests.  The reader serves
        #: each request inline and hands the reading to a fresh thread
        #: only when a handler parks; with ``max_inflight`` handlers
        #: parked, the next one that parks keeps the reading
        #: (backpressure: the link stops pulling frames), bounding
        #: thread/memory growth per link.
        self.max_inflight = max_inflight
        #: The runtime's deadline heap (``rt.timers``): call timeouts,
        #: write watchdogs and keepalive ticks are entries in it, fired
        #: by the runtime's loop.
        self.timers = timers
        #: Ping idle client links every this many seconds (None/0 = no
        #: keepalive).  See the module docs: the ping's *write* is the
        #: wedge detector.
        self.keepalive_interval = keepalive_interval
        self.stats = MeshStats()
        self._links: dict[int, _PeerLink] = {}
        self._dial_mutexes: dict[int, Mutex] = {}
        self._request_ids = itertools.count(1)
        self._driver = _MeshDriver(
            io,
            listener,
            self,
            accept_batch=accept_batch,
            name=f"mesh{index}",
        )

    @property
    def running(self) -> bool:
        return self._driver.running

    # ------------------------------------------------------------------
    # Health (the cluster snapshot reads this).
    # ------------------------------------------------------------------
    def connected_peers(self) -> int:
        return sum(1 for link in self._links.values() if link.alive)

    def health(self) -> dict:
        stats = self.stats
        return {
            "peers": len(self.peers),
            "connected_peers": self.connected_peers(),
            **{name: getattr(stats, name) for name in stats.EXPORTED},
        }

    # ------------------------------------------------------------------
    # Server side: accept peers, demux request frames, run the handler.
    # ------------------------------------------------------------------
    @do
    def serve(self):
        """The mesh accept loop (spawn as one thread per shard).

        The loop itself is the shared :class:`ConnectionDriver`; this
        node contributes only the frame protocol.  With
        ``keepalive_interval`` set, the first act is arming the
        keepalive tick on the timer wheel.
        """
        if self.keepalive_interval:
            yield self.timers.schedule(self.keepalive_interval,
                                       self._keepalive_tick)
        yield self._driver.main()

    def stop(self) -> None:
        self._driver.stop()

    def shed_payload(self) -> bytes:
        return b""  # no farewell frame: a shed peer just redials

    @do
    def _serve_peer(self, conn):
        # One inbound peer link, on the session thread.  Requests run
        # inline on whichever thread reads the link; a handler that
        # parks keeps its thread and the reading moves on (``_hand_off``).
        # If that happened here, the reader that meets the end of the
        # session — EOF or a protocol error — reports it through
        # ``ended``, so the driver still owns the close.
        inbound = _Inbound(conn, FrameReader(self.io, conn, self.max_frame))
        verdict = yield self._read_requests(inbound)
        if verdict is None:
            verdict = yield inbound.ended.take()
            if isinstance(verdict, BaseException):
                raise verdict
        return verdict

    @do
    def _read_requests(self, inbound):
        # The link's reader: read a frame, serve it inline.  Before the
        # handler runs, a deadline is armed for the end of this turn —
        # the reply's flush trigger, so an answer that is ready at once
        # costs no extra timer — and if the handler parked by then, the
        # trigger hands the reading to a fresh thread.  Replies go
        # through the connection's outbound queue, so replies to a
        # burst of requests leave as one gathered write.  Resumes with
        # the session's verdict, or ``None`` once this reader's handler
        # has returned after the reading moved on.
        generation = inbound.generation
        reader = inbound.reader
        out = inbound.out
        stats = self.stats
        while True:
            frame = yield reader.recv()
            if frame is None:
                return CLOSE  # peer closed cleanly
            stats.frames_received += 1
            kind, request_id, body = frame
            if kind == KIND_PING:
                continue  # keepalive probe: reading it is the point
            if kind not in (KIND_REQUEST, KIND_CAST):
                raise MeshProtocolError(
                    f"unexpected frame kind {kind} on server link"
                )
            inbound.handling = True
            if not out.flushing:
                out.flushing = True
                yield self.timers.schedule(0, lambda: self._flush(out))
            elif out.flusher:
                # A ``_flusher`` thread owns the flush, so no trigger
                # fires at the end of this turn: arm the check alone.
                yield self.timers.schedule(
                    0, lambda: self._hand_off(inbound)
                )
            yield self._serve_request(out, request_id, body,
                                      kind == KIND_CAST)
            if inbound.generation != generation:
                inbound.parked -= 1
                return None  # the reading moved on while this one parked
            inbound.handling = False

    def _hand_off(self, inbound) -> M | None:
        # End of a turn (the flush trigger's first act, plain code): a
        # reader still inside its handler has parked.  Below the cap the
        # handler keeps this thread and the reading moves to a fresh one
        # — the returned ``M``, which the wheel runs on a thread of its
        # own.  At the cap the reader keeps its handler: backpressure.
        if not inbound.handling or inbound.parked >= self.max_inflight:
            return None
        inbound.handling = False
        inbound.generation += 1
        inbound.parked += 1
        self.stats.handoffs += 1
        return self._read_on(inbound)

    @do
    def _read_on(self, inbound):
        # A successor reader.  The session thread owns the close, so the
        # end of the reading goes to it through ``ended``.
        try:
            verdict = yield self._read_requests(inbound)
        except Exception as exc:
            verdict = exc
        if verdict is not None:
            yield inbound.ended.put(verdict)

    @do
    def _serve_request(self, out, request_id, body, one_way):
        try:
            if self.handler is None:
                raise MeshError(f"shard {self.index} has no mesh handler")
            reply = yield self.handler(body)
            kind = KIND_REPLY
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            raise
        except BaseException as exc:
            # ANY handler failure becomes an error reply — including
            # OSError subclasses (every MeshError is one): the caller
            # must fail fast with MeshRemoteError, not sit out its
            # whole timeout waiting for a reply that never comes.
            reply = repr(exc).encode()
            kind = KIND_ERROR
        self.stats.served += 1
        if one_way:
            return  # a cast gets no reply, success or failure
        try:
            # Queued, not awaited: if the write fails the peer is gone
            # and its caller learns that on its own side.
            yield self._enqueue(out, kind, request_id, reply)
        except (ConnectionError, OSError):
            return  # the connection already failed: nothing to send

    # ------------------------------------------------------------------
    # Egress: per-connection outbound queues, one gathered flush each.
    # ------------------------------------------------------------------
    def _enqueue(self, out, kind, request_id, body, flushed=None) -> M:
        # Queue the frame (header and body stay separate buffers: the
        # flush's writev gathers them) and, on an idle connection, arm
        # the flush as a deadline of "now" — nothing parks here, and no
        # thread is made.  The loop fires it once the ready queue is dry,
        # so every enqueuer of this turn, forked or woken mid-turn
        # included, lands in the queue first — that is the
        # once-per-loop-turn batching.  ``flushed`` is the box a cast or
        # ping waits on.
        if out.failed is not None:
            # The connection's flush already failed: fail fast instead
            # of queueing behind a drain that has passed.
            return sys_throw(out.failed)
        if _HEAD.size + len(body) > self.max_frame:
            # The bound is checked where the bytes are made: written
            # whole, the frame would make the receiver's FrameReader
            # raise and take the link — and every other call pending on
            # it — down.  A request fails its own caller; a reply
            # becomes an error reply (its caller gets MeshRemoteError).
            refusal = MeshProtocolError(
                f"frame body of {len(body)} bytes exceeds "
                f"max_frame={self.max_frame}"
            )
            if kind not in (KIND_REPLY, KIND_ERROR):
                return sys_throw(refusal)
            kind, body = KIND_ERROR, repr(refusal).encode()
        header = frame_header(kind, request_id, len(body))
        out.queue.append(((header, body) if body else (header,), flushed))
        out.enqueued += 1
        if out.flushing:
            return pure(None)
        out.flushing = True
        return self.timers.schedule(0, lambda: self._flush(out))

    @do
    def _enqueue_flushed(self, out, kind, body):
        # Casts and pings: park until the frame's batch is on the wire,
        # and raise if it never got there.
        flushed = MVar(name="mesh-flushed")
        yield self._enqueue(out, kind, 0, body, flushed)
        outcome = yield flushed.take()
        if isinstance(outcome, BaseException):
            raise outcome

    def _count_flush(self, frames: int) -> None:
        stats = self.stats
        stats.flushes += 1
        stats.frames_sent += frames
        if frames > 1:
            stats.batched_flushes += 1
        if frames > stats.max_frames_per_flush:
            stats.max_frames_per_flush = frames

    def _flush(self, out):
        # The flush deadline's action — plain code, on the loop.  On an
        # inbound link it first checks for a hand-off (a handler that
        # parked this turn).  Then the one gathered write of a batch
        # that cannot park; an empty batch (the trigger a reader armed
        # for a cast or a parked handler) writes nothing.  On a healthy link carrying requests
        # and replies that is the whole flush; it returns an ``M``
        # (which ``fire_due`` gives a thread of its own) only for what
        # plain code cannot do.  Whatever the write raises is a failed
        # link, never a flush left ``flushing`` for good.
        successor = None
        if out.inbound is not None:
            successor = self._hand_off(out.inbound)
        more = self._write_batch(out)
        if successor is None:
            return more
        if more is None:
            return successor
        return sys_fork(successor, name="mesh-reader").then(more)

    def _write_batch(self, out) -> M | None:
        frames, bufs, boxes = out.take_batch()
        if not frames:
            out.flushing = False
            return None
        try:
            rest = self.io.try_writev(out.conn, bufs)
        except Exception as exc:
            return self._fail_outbound(out, boxes, exc, False)
        if rest or boxes or out.queue:
            out.flusher = True
            return self._flusher(out, frames, boxes, rest)
        self._count_flush(frames)
        out.flushing = False
        return None

    @do
    def _flusher(self, out, frames, boxes, rest):
        # The thread a flush needs only for what is left after the
        # action's write: ``rest`` of a partial write, the batch's flush
        # ``boxes``, and the batches still queued (each gets the same
        # non-parking write first).  A partial write means the rest is
        # about to wait for the peer, so it goes through a parking write
        # watched on the timer wheel: a stall past ``write_timeout``
        # means the peer stopped reading — the wheel closes the
        # connection, the runtime wakes this thread with an error, and
        # every queued frame fails with MeshPeerDown.
        watchdog = None
        try:
            while True:
                if rest:
                    if self.write_timeout:
                        watchdog = yield self.timers.schedule(
                            self.write_timeout, lambda: self._wedge(out)
                        )
                    yield self.io.write_all_v(out.conn, rest)
                    if watchdog is not None:
                        watchdog.cancel()
                        if watchdog.fired:
                            # The watchdog fired as the final write went
                            # through.  Its action runs on its own
                            # thread, so the close may still be a step
                            # away — fired means lost regardless.
                            yield self._fail_outbound(out, boxes, None, True)
                            return
                        watchdog = None
                self._count_flush(frames)
                for flushed in boxes:
                    yield flushed.try_put(None)
                if not out.queue:
                    return
                frames, bufs, boxes = out.take_batch()
                rest = yield self.io.writev_nowait(out.conn, bufs)
        except Exception as exc:
            stalled = watchdog is not None and watchdog.fired
            if watchdog is not None:
                watchdog.cancel()
            yield self._fail_outbound(out, boxes, exc, stalled)
        finally:
            # Plain code: safe under GeneratorExit (abandonment).
            out.flushing = out.flusher = False

    @do
    def _wedge(self, out):
        # Timer-wheel action: the flush on ``out`` stalled past
        # ``write_timeout``.  Closing the descriptor wakes the parked
        # flusher (the poller resumes orphaned waiters on close), which
        # then fails every queued frame.
        self.stats.write_timeouts += 1
        yield self.io.close(out.conn)

    def _fail_outbound(self, out, boxes, exc, stalled) -> M:
        # Fail the in-flight batch (``boxes``) and everything still
        # queued: casts and pings through their flush box, requests
        # through the link's pending reply boxes; down the owning client
        # link (a server connection is torn down by its reader instead).
        if stalled:
            failure: MeshError = MeshPeerDown(
                f"frame write stalled past write_timeout="
                f"{self.write_timeout}s (peer stopped reading)"
            )
        else:
            failure = MeshPeerDown(f"frame write failed: {exc!r}")
        # Latched here, in plain code, before any thread can run: a later
        # enqueue raises at once instead of queueing behind a drain that
        # already took the queue.
        out.failed = failure
        out.flushing = False
        boxes = [*boxes, *(flushed for _frame, flushed in out.queue
                           if flushed is not None)]
        out.queue.clear()
        return self._drain_failed(out.link, boxes, failure)

    @do
    def _drain_failed(self, link, boxes, failure):
        for flushed in boxes:
            yield flushed.try_put(failure)
        if link is not None:
            yield self._fail_link(link)

    # ------------------------------------------------------------------
    # Keepalive: ping idle client links from the timer wheel.
    # ------------------------------------------------------------------
    @do
    def _keepalive_tick(self):
        # Timer action: find links idle since the last tick, fork a
        # pinger per idle link (one wedged peer must not hold up the
        # pings to the others, or the re-arm), then re-arm.
        if not self._driver.running:
            return  # shutting down: stop re-arming
        for link in list(self._links.values()):
            if not link.alive:
                continue
            if link.out.enqueued == link.ka_mark:
                yield sys_fork(self._send_ping(link), name="mesh-ping")
            link.ka_mark = link.out.enqueued
        yield self.timers.schedule(self.keepalive_interval,
                                   self._keepalive_tick)

    @do
    def _send_ping(self, link):
        try:
            yield self._enqueue_flushed(link.out, KIND_PING, b"")
            self.stats.pings_sent += 1
            # The ping itself bumped ``enqueued``; resync the mark so
            # the probe does not read as link traffic (which would skip
            # every other tick and double the wedge-detection latency).
            link.ka_mark = link.out.enqueued
        except (ConnectionError, OSError):
            pass  # wedged/vanished: the failed flush downed the link

    # ------------------------------------------------------------------
    # Client side: lazily dialed links, multiplexed calls.
    # ------------------------------------------------------------------
    @do
    def call(self, peer: int, body: bytes, timeout: float | None = None):
        """RPC to ``peer``: resumes with the reply body.

        Raises :class:`MeshTimeout` after ``timeout`` (default: the
        node's ``call_timeout``), :class:`MeshPeerDown` if the link
        fails, :class:`MeshRemoteError` if the peer handler raised.
        A self-call short-circuits through the local handler.
        """
        self.stats.calls += 1
        if peer == self.index:
            if self.handler is None:
                raise MeshError(f"shard {self.index} has no mesh handler")
            reply = yield self.handler(body)
            return reply
        if peer not in self.peers:
            raise MeshError(f"unknown peer {peer}")
        if timeout is None:
            timeout = self.call_timeout
        link = self._links.get(peer)
        if link is None or not link.alive:
            link = yield self._link(peer)
        request_id = next(self._request_ids)
        box = MVar(name=f"mesh-call-{peer}-{request_id}")
        # The call's one timer: a heap entry on the shared wheel, not a
        # thread.  Armed before the frame is queued, it covers queue
        # wait + flush + remote handling + reply, and is cancelled (a
        # flag write) however the call ends.
        deadline = yield self.timers.schedule(
            timeout, lambda: box.try_put(_TIMED_OUT)
        )
        try:
            if not link.alive:
                # Died while the deadline was being armed (a scheduling
                # point): its failure drain never saw this call.
                raise MeshPeerDown(f"peer {peer} link failed during call")
            link.pending[request_id] = box
            try:
                yield self._enqueue(link.out, KIND_REQUEST, request_id, body)
            except MeshProtocolError:
                raise  # refused before it was queued: the link is fine
            except (ConnectionError, OSError) as exc:
                yield self._fail_link(link)
                raise MeshPeerDown(f"write to peer {peer} failed: {exc!r}")
            # The frame is queued, not yet written: a failed or stalled
            # flush downs the link, which fills this box with
            # MeshPeerDown like any other link failure.
            outcome = yield box.take()
        finally:
            link.pending.pop(request_id, None)
            deadline.cancel()
        if outcome is _TIMED_OUT:
            self.stats.timeouts += 1
            raise MeshTimeout(
                f"peer {peer} did not reply within {timeout}s"
            )
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    @do
    def cast(self, peer: int, body: bytes):
        """One-way message to ``peer``: the remote handler runs, but no
        reply frame ever crosses the wire (at-most-once delivery).

        Resumes with ``None`` once the frame is written; raises
        :class:`MeshPeerDown` if the link cannot be dialed or the write
        fails/stalls.  A self-cast runs the local handler inline.  Used
        where a lost message is repaired by a later pass anyway —
        read-repair patches, hint forwarding.
        """
        self.stats.casts += 1
        if peer == self.index:
            if self.handler is None:
                raise MeshError(f"shard {self.index} has no mesh handler")
            yield self.handler(body)
            return None
        if peer not in self.peers:
            raise MeshError(f"unknown peer {peer}")
        link = self._links.get(peer)
        if link is None or not link.alive:
            link = yield self._link(peer)
        try:
            yield self._enqueue_flushed(link.out, KIND_CAST, body)
        except MeshProtocolError:
            raise  # refused before it was queued: the link is fine
        except (ConnectionError, OSError) as exc:
            yield self._fail_link(link)
            raise MeshPeerDown(f"cast to peer {peer} failed: {exc!r}")
        return None

    @do
    def fan_out(
        self,
        bodies: dict[int, bytes],
        timeout: float | None = None,
    ):
        """Concurrent calls to several peers with a per-peer timeout.

        Resumes with ``{peer: reply-bytes | MeshError}`` — one dead or
        slow peer yields its exception *as a value* instead of failing
        the whole fan-out, so callers can merge partial results.
        """
        # The caller makes the last call itself (for one peer: the only
        # one) and spawns threads just for the others: each ``call`` can
        # park on a slow dial without delaying the rest, and a
        # single-peer fan-out costs no thread at all.
        if not bodies:
            return {}
        *others, mine = bodies.items()
        handles = []
        for peer, body in others:
            handle = yield spawn(self._call_or_error(peer, body, timeout),
                                 name=f"fanout-{peer}")
            handles.append(handle)
        own = yield self._call_or_error(*mine, timeout)
        results = yield join_all(handles)
        results.append(own)
        return dict(results)

    @do
    def _call_or_error(self, peer, body, timeout):
        # One leg of a fan-out: ``(peer, reply | MeshError)``.
        try:
            reply = yield self.call(peer, body, timeout)
            return peer, reply
        except MeshError as exc:
            return peer, exc

    # -- link management ----------------------------------------------
    @do
    def _link(self, peer):
        # Dial or redial (``call``/``cast`` take a live link themselves).
        mutex = self._dial_mutexes.setdefault(
            peer, Mutex(name=f"mesh-dial-{peer}")
        )
        yield mutex.acquire()
        try:
            link = self._links.get(peer)
            if link is not None and link.alive:
                return link
            try:
                conn = yield self.io.connect(
                    self.peers[peer], label=f"mesh-{peer}"
                )
            except (ConnectionError, OSError) as exc:
                self.stats.peer_failures += 1
                raise MeshPeerDown(f"dial to peer {peer} failed: {exc!r}")
            link = _PeerLink(peer, conn)
            self._links[peer] = link
            yield sys_fork(self._demux(link), name=f"mesh-demux-{peer}")
            return link
        finally:
            yield mutex.release()

    @do
    def _demux(self, link):
        # The link's reader: match reply frames to pending calls.  Any
        # failure (EOF, reset, protocol violation) downs the link and
        # fails every pending call so no caller hangs.
        reader = FrameReader(self.io, link.conn, self.max_frame)
        can_yield = True
        try:
            while link.alive:
                frame = yield reader.recv()
                if frame is None:
                    return
                self.stats.frames_received += 1
                kind, request_id, body = frame
                if kind == KIND_PING:
                    continue  # keepalive probe: discard
                if kind not in (KIND_REPLY, KIND_ERROR):
                    # Validate BEFORE popping: raising with the entry
                    # already popped would orphan the caller's box (the
                    # finally's _fail_link only fails boxes still in
                    # ``pending``) — a permanent hang.
                    raise MeshProtocolError(
                        f"unexpected frame kind {kind} on client link"
                    )
                box = link.pending.pop(request_id, None)
                if box is None:
                    continue  # reply raced a timeout: drop it
                if kind == KIND_REPLY:
                    yield box.try_put(body)
                else:
                    yield box.try_put(
                        MeshRemoteError(body.decode("utf-8", "replace"))
                    )
        except (ConnectionError, OSError):
            return
        except GeneratorExit:
            can_yield = False
            raise
        finally:
            if can_yield:
                yield self._fail_link(link)
                yield self.io.close(link.conn)
            else:
                # Abandonment: no scheduler remains to resume pending
                # callers, so only the plain bookkeeping runs.
                self._down_link(link)

    def _down_link(self, link: _PeerLink) -> tuple[MVar, ...]:
        """Mark a link dead and detach it (plain, non-yielding code).

        Returns the pending reply boxes so a monadic caller can fail
        them; the next :meth:`call` to this peer re-dials.
        """
        if link.alive:
            link.alive = False
            self.stats.peer_failures += 1
        if self._links.get(link.peer) is link:
            del self._links[link.peer]
        pending, link.pending = link.pending, {}
        return tuple(pending.values())

    @do
    def _fail_link(self, link):
        # ``try_put``: a box already holding its reply (or timeout
        # marker) keeps it; a parked taker is woken with the failure.
        boxes = self._down_link(link)
        failure = MeshPeerDown(f"peer {link.peer} link failed")
        for box in boxes:
            yield box.try_put(failure)
