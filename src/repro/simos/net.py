"""The simulated network: shaped byte streams and lossy packet links.

Two abstractions, for the two consumers in the paper:

* **Stream sockets** (:class:`StreamEnd`, :class:`Listener`,
  :class:`Network`) — the "kernel TCP" byte streams that the web-server
  experiment (Figure 19) runs over.  All connections in one direction share
  a :class:`LinkShaper`, which serializes bytes at link bandwidth — the
  100Mbps Ethernet between the paper's client and server machines.

* **Packet links** (:class:`PacketLink`) — unreliable datagram delivery
  with configurable loss, duplication, and reordering jitter.  This is the
  substrate *under* :mod:`repro.tcp`, the application-level TCP stack
  (§4.8): TCP's job is to build the reliable stream on top.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable

from ..core.events import EVENT_HUP, EVENT_READ, EVENT_WRITE
from .clock import VirtualClock
from .errors import BadFileError, BrokenPipeSimError, WOULD_BLOCK
from .params import SimParams
from .pollable import Pollable

__all__ = [
    "LinkShaper",
    "StreamEnd",
    "Listener",
    "Network",
    "PacketLink",
    "DuplexPacketLink",
]


class LinkShaper:
    """Serializes transmissions over a shared link at fixed bandwidth.

    Transmissions queue FIFO: each occupies the wire for ``size/bandwidth``
    seconds starting when the wire frees, then arrives ``latency`` later.
    """

    def __init__(
        self, clock: VirtualClock, bandwidth: float, latency: float
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        self.clock = clock
        self.bandwidth = bandwidth
        self.latency = latency
        self._next_free = 0.0
        self.bytes_carried = 0

    def transmit(self, nbytes: int, deliver: Callable[[], None]) -> float:
        """Schedule ``deliver`` at the arrival time; returns that time."""
        start = max(self.clock.now, self._next_free)
        self._next_free = start + nbytes / self.bandwidth
        arrival = self._next_free + self.latency
        self.bytes_carried += nbytes
        self.clock.schedule_at(arrival, deliver)
        return arrival


class StreamEnd(Pollable):
    """One end of a connected, reliable, shaped byte stream."""

    # Socket buffer: how many bytes may be queued at the receiver plus in
    # flight, per direction (kernel TCP window stand-in).
    WINDOW = 64 * 1024

    def __init__(self, clock: VirtualClock, shaper: LinkShaper, label: str) -> None:
        super().__init__()
        self.clock = clock
        self._shaper = shaper  # shaper for *outgoing* data
        self.label = label
        self.peer: "StreamEnd | None" = None
        self._recv = bytearray()
        self._inflight = 0
        self.closed = False
        self._peer_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------
    def poll(self) -> int:
        mask = 0
        if self._recv or self._peer_closed:
            mask |= EVENT_READ
        if self._peer_closed:
            mask |= EVENT_HUP
        if not self.closed and self._send_window() > 0:
            mask |= EVENT_WRITE
        return mask

    def _send_window(self) -> int:
        peer = self.peer
        if peer is None or peer.closed:
            return 0
        return StreamEnd.WINDOW - len(peer._recv) - self._inflight

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write(self, data: bytes):
        """Non-blocking send: bytes accepted (possibly partial) or
        ``WOULD_BLOCK`` when the window is closed."""
        if self.closed:
            raise BadFileError(f"write on closed stream {self.label}")
        if self.peer is None or self.peer.closed:
            raise BrokenPipeSimError(f"peer of {self.label} is closed")
        window = self._send_window()
        if window <= 0:
            return WOULD_BLOCK
        accept = min(len(data), window)
        chunk = bytes(data[:accept])
        self._inflight += accept
        self.bytes_sent += accept
        peer = self.peer
        self._shaper.transmit(accept, lambda: self._arrive(peer, chunk))
        return accept

    def _arrive(self, peer: "StreamEnd", chunk: bytes) -> None:
        self._inflight -= len(chunk)
        if peer.closed:
            return
        peer._recv.extend(chunk)
        peer.notify()
        # Window may have reopened for us (bytes left flight).
        self.notify()

    def read(self, nbytes: int):
        """Non-blocking receive: bytes, ``b""`` at orderly EOF, or
        ``WOULD_BLOCK``."""
        if self.closed:
            raise BadFileError(f"read on closed stream {self.label}")
        if not self._recv:
            if self._peer_closed:
                return b""
            return WOULD_BLOCK
        take = min(nbytes, len(self._recv))
        data = bytes(self._recv[:take])
        del self._recv[:take]
        self.bytes_received += take
        # Draining frees window for the peer.
        if self.peer is not None:
            self.peer.notify()
        return data

    def close(self) -> None:
        """Close this end: the peer sees EOF after in-flight data drains."""
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is not None and not peer.closed:
            # EOF travels behind any queued data (FIFO via the shaper).
            self._shaper.transmit(0, lambda: self._deliver_eof(peer))

    def _deliver_eof(self, peer: "StreamEnd") -> None:
        peer._peer_closed = True
        peer.notify()


class Listener(Pollable):
    """A passive stream socket with an accept queue."""

    def __init__(self, network: "Network", backlog: int = 1024) -> None:
        super().__init__()
        self.network = network
        self.backlog = backlog
        self._queue: deque[StreamEnd] = deque()
        self.closed = False
        self.total_accepted = 0

    def poll(self) -> int:
        return EVENT_READ if self._queue else 0

    def accept(self):
        """Pop one connected server-side end, or ``WOULD_BLOCK``."""
        if self.closed:
            raise BadFileError("accept on closed listener")
        if not self._queue:
            return WOULD_BLOCK
        self.total_accepted += 1
        return self._queue.popleft()

    def _enqueue(self, server_end: StreamEnd) -> bool:
        if self.closed or len(self._queue) >= self.backlog:
            return False
        self._queue.append(server_end)
        self.notify()
        return True

    def close(self) -> None:
        """Stop accepting; queued connections are dropped."""
        self.closed = True
        self._queue.clear()


class Network:
    """A client↔server network with one shared, shaped link per direction."""

    def __init__(self, clock: VirtualClock, params: SimParams) -> None:
        self.clock = clock
        self.params = params
        self.client_to_server = LinkShaper(
            clock, params.net_bandwidth, params.net_latency
        )
        self.server_to_client = LinkShaper(
            clock, params.net_bandwidth, params.net_latency
        )

    def listen(self, backlog: int = 1024) -> Listener:
        """Create a server listener."""
        return Listener(self, backlog)

    def connect(self, listener: Listener, label: str = "conn"):
        """Connect to ``listener``; returns the client-side end, or
        ``WOULD_BLOCK`` if the backlog is full.

        Connection setup latency is one round trip on the shared link.
        """
        client = StreamEnd(self.clock, self.client_to_server, f"{label}:client")
        server = StreamEnd(self.clock, self.server_to_client, f"{label}:server")
        client.peer = server
        server.peer = client
        if not listener._enqueue(server):
            return WOULD_BLOCK
        return client

    def socketpair(self, label: str = "pair") -> tuple[StreamEnd, StreamEnd]:
        """A directly connected pair (no listener), for tests."""
        a = StreamEnd(self.clock, self.client_to_server, f"{label}:a")
        b = StreamEnd(self.clock, self.server_to_client, f"{label}:b")
        a.peer = b
        b.peer = a
        return a, b


class PacketLink:
    """An unreliable, unidirectional datagram link.

    Packets carry any payload object; size is taken from its ``wire_size``
    attribute (or ``len``).  Loss, duplication, and reordering are driven
    by a seeded RNG for reproducibility.
    """

    def __init__(
        self,
        clock: VirtualClock,
        bandwidth: float,
        latency: float,
        loss: float = 0.0,
        duplicate: float = 0.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.shaper = LinkShaper(clock, bandwidth, latency)
        self.loss = loss
        self.duplicate = duplicate
        self.jitter = jitter
        self.rng = random.Random(seed)
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        #: Set by the receiving endpoint: callable(packet).
        self.on_deliver: Callable[[Any], None] | None = None

    def send(self, packet: Any) -> None:
        """Transmit ``packet`` toward the receiver."""
        self.sent += 1
        size = getattr(packet, "wire_size", None)
        if size is None:
            size = len(packet)
        if self.rng.random() < self.loss:
            self.dropped += 1
            # The wire time is still consumed (the frame was sent).
            self.shaper.transmit(size, _noop)
            return
        copies = 1
        if self.rng.random() < self.duplicate:
            copies = 2
            self.duplicated += 1
        for _copy in range(copies):
            extra = self.rng.random() * self.jitter if self.jitter else 0.0
            self._transmit(packet, size, extra)

    def _transmit(self, packet: Any, size: int, extra_delay: float) -> None:
        def deliver() -> None:
            if extra_delay > 0.0:
                self.clock.schedule(extra_delay, lambda: self._hand_off(packet))
            else:
                self._hand_off(packet)

        self.shaper.transmit(size, deliver)

    def _hand_off(self, packet: Any) -> None:
        self.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(packet)


class DuplexPacketLink:
    """Two :class:`PacketLink` halves with shared impairment settings."""

    def __init__(
        self,
        clock: VirtualClock,
        bandwidth: float,
        latency: float,
        loss: float = 0.0,
        duplicate: float = 0.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.a_to_b = PacketLink(
            clock, bandwidth, latency, loss, duplicate, jitter, seed
        )
        self.b_to_a = PacketLink(
            clock, bandwidth, latency, loss, duplicate, jitter, seed + 1
        )


def _noop() -> None:
    pass
