"""The TCP engine: demux, state machine, transmit pump, timers.

One :class:`TcpStack` is one host's TCP layer.  Incoming segments arrive
through :meth:`TcpStack.on_packet` (the paper's ``worker_tcp_input`` loop);
timers run on the shared virtual clock (``worker_tcp_timer``); outgoing
segments leave through a transmit function wired to a
:class:`~repro.simos.net.PacketLink`.

The implementation covers the feature set the paper's server needs —
three-way handshake, reliable bidirectional data with cumulative ACKs,
sliding windows with zero-window probing, Jacobson/Karels RTO with Karn's
rule, Reno congestion control with fast retransmit/recovery, orderly FIN
teardown with TIME_WAIT, and RST handling.  Urgent pointers are omitted;
the paper drops them too ("urgent pointers and active connection setup are
not needed").
"""

from __future__ import annotations

import random
from typing import Callable

from ..simos.clock import VirtualClock
from .packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    Segment,
    seq_add,
    seq_lt,
    seq_sub,
)
from .tcb import DATA_STATES, TcpConn, TcpListener
from .window import RecvWindow, SendWindow

__all__ = ["TcpParams", "TcpStack", "TcpError", "ConnectionReset",
           "ConnectionTimeout", "connect_stacks"]


class TcpError(OSError):
    """Base class for TCP-level errors surfaced to the application."""


class ConnectionReset(TcpError):
    """The peer sent RST (or the connection was aborted)."""


class ConnectionTimeout(TcpError):
    """Handshake or retransmission gave up."""


class TcpParams:
    """Stack tuning knobs."""

    def __init__(
        self,
        mss: int = 1460,
        recv_window: int = 64 * 1024,
        send_buffer: int = 64 * 1024,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        max_handshake_attempts: int = 6,
        max_retransmits: int = 12,
        time_wait: float = 1.0,
        persist_interval: float = 0.5,
        segment_cpu: float = 40.0e-6,
        delayed_ack: bool = False,
        ack_delay: float = 0.04,
        nagle: bool = False,
    ) -> None:
        self.mss = mss
        self.recv_window = recv_window
        self.send_buffer = send_buffer
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.max_handshake_attempts = max_handshake_attempts
        self.max_retransmits = max_retransmits
        self.time_wait = time_wait
        self.persist_interval = persist_interval
        #: CPU per segment sent or received: the NIC/interrupt path plus
        #: the application-level protocol processing (the paper reads
        #: packets through iptables queues — an extra copy per packet).
        #: Zero when the stack runs outside a CPU-accounted simulation.
        self.segment_cpu = segment_cpu
        #: RFC 1122 delayed ACKs: acknowledge every second full segment or
        #: after ``ack_delay``, piggybacking on outgoing data meanwhile.
        self.delayed_ack = delayed_ack
        self.ack_delay = ack_delay
        #: Nagle's algorithm: hold sub-MSS segments while data is in
        #: flight, coalescing small writes.
        self.nagle = nagle


class TcpStats:
    """Per-stack counters."""

    __slots__ = ("segments_sent", "segments_received", "bytes_sent",
                 "bytes_received", "retransmits", "rsts_sent",
                 "dup_acks_received", "fast_retransmits")

    def __init__(self) -> None:
        self.segments_sent = 0
        self.segments_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmits = 0
        self.rsts_sent = 0
        self.dup_acks_received = 0
        self.fast_retransmits = 0


def _sent_quietly(_count, _error) -> None:
    """Waiter callback for the non-final buffers of a gathered send:
    completion and teardown are both reported through the final one."""


class TcpStack:
    """One host's application-level TCP."""

    def __init__(
        self,
        clock: VirtualClock,
        local_addr: str,
        params: TcpParams | None = None,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.local_addr = local_addr
        self.params = params if params is not None else TcpParams()
        self.rng = random.Random(seed)
        self.listeners: dict[int, TcpListener] = {}
        self.connections: dict[tuple, TcpConn] = {}
        self.stats = TcpStats()
        self._ephemeral = 49152
        #: transmit(remote_addr, segment) — wired by ``connect_stacks`` or
        #: by the runtime adapter.
        self.transmit: Callable[[str, Segment], None] | None = None

    # ==================================================================
    # Application interface (callback level; the monadic layer wraps it)
    # ==================================================================
    def listen(self, port: int, backlog: int = 128) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self.listeners:
            raise TcpError(f"port {port} already listening")
        listener = TcpListener(self, port, backlog)
        self.listeners[port] = listener
        return listener

    def accept(self, listener: TcpListener, cb: Callable) -> None:
        """Deliver an established connection to ``cb(conn, error)``."""
        if listener.accept_queue:
            listener.total_accepted += 1
            cb(listener.accept_queue.popleft(), None)
        else:
            listener.accept_waiters.append(cb)

    def connect(
        self, remote_addr: str, remote_port: int, cb: Callable
    ) -> TcpConn:
        """Active open; ``cb(conn, error)`` fires on establishment."""
        port = self._alloc_port()
        conn = TcpConn(self, port, remote_addr, remote_port)
        conn.iss = self.rng.randrange(0, 1 << 32)
        conn.connect_cb = cb
        conn.state = "SYN_SENT"
        self.connections[conn.key] = conn
        self._send_syn(conn)
        return conn

    def send(self, conn: TcpConn, data: bytes, cb: Callable) -> None:
        """Queue ``data``; ``cb(total, error)`` fires once all of it is in
        the send buffer (flow-controlled against buffer space)."""
        if conn.error is not None:
            cb(None, conn.error)
            return
        if conn.app_closed or conn.state not in DATA_STATES:
            cb(None, TcpError(f"send in state {conn.state}"))
            return
        conn.send_waiters.append([data, 0, cb])
        self._drain_send_waiters(conn)
        self._pump(conn)

    def sendv(self, conn: TcpConn, bufs, cb: Callable) -> None:
        """Gathered send: queue every buffer in order; ``cb(total, error)``
        fires once all of them are in the send buffer.

        The buffers are enqueued as memoryview slices straight into the
        send window's iovec — never joined, never copied in the stack
        (segment payloads slice across buffer boundaries on the way
        out).  An error before the final buffer drains errors ``cb``
        exactly once, through the stack's usual waiter teardown.
        """
        if conn.error is not None:
            cb(None, conn.error)
            return
        if conn.app_closed or conn.state not in DATA_STATES:
            cb(None, TcpError(f"send in state {conn.state}"))
            return
        views = [memoryview(buf) for buf in bufs if len(buf)]
        if not views:
            cb(0, None)
            return
        total = sum(len(view) for view in views)
        for view in views[:-1]:
            conn.send_waiters.append([view, 0, _sent_quietly])

        def done(_count, error):
            cb(None if error is not None else total, error)

        conn.send_waiters.append([views[-1], 0, done])
        self._drain_send_waiters(conn)
        self._pump(conn)

    def recv(self, conn: TcpConn, nbytes: int, cb: Callable) -> None:
        """Deliver up to ``nbytes`` via ``cb(data, error)``; ``b""`` at
        orderly EOF."""
        if conn.rcv is not None and conn.rcv.available > 0:
            data = conn.rcv.read(nbytes)
            self._maybe_window_update(conn)
            cb(data, None)
            return
        if conn.error is not None:
            cb(None, conn.error)
            return
        if conn.fin_received or conn.state in ("CLOSED", "TIME_WAIT"):
            cb(b"", None)
            return
        conn.recv_waiters.append((nbytes, cb))

    def close(self, conn: TcpConn) -> None:
        """Orderly close: FIN after queued data drains."""
        if conn.app_closed or conn.state == "CLOSED":
            return
        conn.app_closed = True
        if conn.state in ("SYN_SENT", "SYN_RCVD"):
            self._destroy(conn, ConnectionReset("closed during handshake"))
            return
        self._pump(conn)

    def abort(self, conn: TcpConn) -> None:
        """Hard close: RST to the peer, error every waiter."""
        if conn.state != "CLOSED":
            self._emit(
                conn.remote_addr,
                Segment(conn.local_port, conn.remote_port,
                        conn.snd.snd_nxt if conn.snd else conn.iss,
                        0, FLAG_RST, 0),
            )
            self.stats.rsts_sent += 1
        self._destroy(conn, ConnectionReset("connection aborted"))

    # ==================================================================
    # Segment input (worker_tcp_input)
    # ==================================================================
    def on_packet(self, segment: Segment, src_addr: str) -> None:
        """Process one incoming segment from ``src_addr``."""
        self.stats.segments_received += 1
        if self.params.segment_cpu:
            self.clock.consume(self.params.segment_cpu)
        key = (segment.dst_port, src_addr, segment.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            self._segment_arrives(conn, segment)
            return
        listener = self.listeners.get(segment.dst_port)
        if listener is not None and segment.syn and not segment.is_ack:
            self._passive_open(listener, segment, src_addr)
            return
        if not segment.rst:
            # No socket: refuse.
            self._emit(
                src_addr,
                Segment(segment.dst_port, segment.src_port,
                        segment.ack, seq_add(segment.seq, segment.seg_len),
                        FLAG_RST | FLAG_ACK, 0),
            )
            self.stats.rsts_sent += 1

    # ------------------------------------------------------------------
    # Passive open
    # ------------------------------------------------------------------
    def _passive_open(
        self, listener: TcpListener, segment: Segment, src_addr: str
    ) -> None:
        if listener.closed or (
            len(listener.accept_queue) + listener.pending >= listener.backlog
        ):
            return  # drop: the client will retransmit its SYN
        listener.pending += 1
        conn = TcpConn(self, listener.port, src_addr, segment.src_port)
        conn.iss = self.rng.randrange(0, 1 << 32)
        conn.irs = segment.seq
        conn.parent_listener = listener
        conn.state = "SYN_RCVD"
        conn.rcv = RecvWindow(seq_add(segment.seq, 1), self.params.recv_window)
        self.connections[conn.key] = conn
        self._send_syn(conn, ack=True)

    def _send_syn(self, conn: TcpConn, ack: bool = False) -> None:
        conn.handshake_attempts += 1
        if conn.handshake_attempts > self.params.max_handshake_attempts:
            self._destroy(conn, ConnectionTimeout("handshake gave up"))
            return
        flags = FLAG_SYN | (FLAG_ACK if ack else 0)
        ack_num = conn.rcv.rcv_nxt if (ack and conn.rcv) else 0
        self._emit(
            conn.remote_addr,
            Segment(conn.local_port, conn.remote_port, conn.iss, ack_num,
                    flags, self.params.recv_window),
        )
        self._arm_retransmit(conn, conn.rtt.rto)
        conn.rtt.backoff()  # next attempt waits longer

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def _segment_arrives(self, conn: TcpConn, seg: Segment) -> None:
        if seg.rst:
            self._destroy(conn, ConnectionReset("RST from peer"))
            return

        state = conn.state
        if state == "SYN_SENT":
            self._syn_sent(conn, seg)
            return
        if state == "SYN_RCVD":
            if seg.syn:
                # Duplicate SYN: re-ACK it.
                self._send_syn(conn, ack=True)
                return
            if seg.is_ack and seg.ack == seq_add(conn.iss, 1):
                self._establish(conn)
                # Fall through: the ACK may carry data.
            else:
                return
        if conn.state not in DATA_STATES and conn.state not in (
            "CLOSING", "LAST_ACK", "TIME_WAIT"
        ):
            return

        # --- ACK processing -------------------------------------------
        if seg.is_ack and conn.snd is not None:
            self._process_ack(conn, seg)
        if conn.state == "CLOSED":
            return

        # --- data processing ------------------------------------------
        advanced = False
        if seg.payload and conn.rcv is not None:
            if conn.rcv.advertised > 0 or seq_lt(seg.seq, conn.rcv.rcv_nxt):
                before = conn.rcv.rcv_nxt
                advanced = conn.rcv.accept(seg.seq, seg.payload)
                self.stats.bytes_received += seq_sub(conn.rcv.rcv_nxt, before)
            # else: zero window — drop; the sender's probe will recover.

        # --- FIN processing -------------------------------------------
        fin_advanced = False
        if seg.fin and conn.rcv is not None:
            fin_seq = seq_add(seg.seq, len(seg.payload))
            if fin_seq == conn.rcv.rcv_nxt and not conn.fin_received:
                conn.fin_received = True
                conn.rcv.rcv_nxt = seq_add(conn.rcv.rcv_nxt, 1)
                fin_advanced = True
                self._on_fin_received(conn)

        if advanced:
            self._wake_receivers(conn)

        # --- ACK generation -------------------------------------------
        if seg.fin or fin_advanced or (seg.payload and not advanced):
            # FINs and out-of-order data (dup-ACK signal) ACK immediately.
            self._ack_now(conn)
        elif seg.payload and advanced:
            if self.params.delayed_ack:
                self._ack_delayed(conn)
            else:
                self._ack_now(conn)
        elif conn.rcv is not None and seg.seq != conn.rcv.rcv_nxt:
            # Out-of-window segment (e.g. a zero-window probe): re-ACK.
            self._ack_now(conn)

        self._pump(conn)

    def _syn_sent(self, conn: TcpConn, seg: Segment) -> None:
        if seg.syn and seg.is_ack:
            if seg.ack != seq_add(conn.iss, 1):
                return  # bogus
            conn.irs = seg.seq
            conn.rcv = RecvWindow(seq_add(seg.seq, 1), self.params.recv_window)
            self._establish(conn)
            if conn.snd is not None:
                conn.snd.peer_window = seg.window
            self._send_ack(conn)
            self._pump(conn)
        elif seg.syn:
            # Simultaneous open.
            conn.irs = seg.seq
            conn.rcv = RecvWindow(seq_add(seg.seq, 1), self.params.recv_window)
            conn.state = "SYN_RCVD"
            conn.handshake_attempts = 0
            self._send_syn(conn, ack=True)

    def _establish(self, conn: TcpConn) -> None:
        conn.state = "ESTABLISHED"
        conn.handshake_attempts = 0
        self._cancel_retransmit(conn)
        from .congestion import RenoCongestion

        conn.snd = SendWindow(seq_add(conn.iss, 1), self.params.mss)
        conn.congestion = RenoCongestion(self.params.mss)
        conn.last_advertised = self.params.recv_window
        if conn.connect_cb is not None:
            cb, conn.connect_cb = conn.connect_cb, None
            cb(conn, None)
        if conn.parent_listener is not None:
            listener = conn.parent_listener
            conn.parent_listener = None
            listener.pending -= 1
            if listener.accept_waiters:
                listener.total_accepted += 1
                listener.accept_waiters.popleft()(conn, None)
            else:
                listener.accept_queue.append(conn)
        self._drain_send_waiters(conn)

    def _process_ack(self, conn: TcpConn, seg: Segment) -> None:
        snd = conn.snd
        old_window = snd.peer_window
        if snd.ack_is_new(seg.ack):
            acked, rtt_sample = snd.mark_acked(seg.ack, self.clock.now)
            snd.peer_window = seg.window
            conn.handshake_attempts = 0  # forward progress: reset give-up
            if rtt_sample is not None:
                conn.rtt.sample(rtt_sample)
            conn.congestion.on_new_ack(acked, snd.flight_size)
            if conn.fin_sent and not conn.fin_acked and seq_lt(
                conn.fin_seq, seg.ack
            ):
                conn.fin_acked = True
                self._on_fin_acked(conn)
            if snd.flight_size == 0:
                self._cancel_retransmit(conn)
            else:
                self._arm_retransmit(conn, conn.rtt.rto, restart=True)
            self._drain_send_waiters(conn)
        elif seg.ack == snd.snd_una and snd.flight_size > 0 and not seg.payload:
            self.stats.dup_acks_received += 1
            snd.peer_window = seg.window
            if conn.congestion.on_dup_ack(snd.flight_size):
                self._fast_retransmit(conn)
        else:
            snd.peer_window = seg.window
        if old_window == 0 and snd.peer_window > 0:
            self._cancel_persist(conn)

    def _on_fin_received(self, conn: TcpConn) -> None:
        if conn.state == "ESTABLISHED":
            conn.state = "CLOSE_WAIT"
        elif conn.state == "FIN_WAIT_1":
            conn.state = "CLOSING" if not conn.fin_acked else "TIME_WAIT"
        elif conn.state == "FIN_WAIT_2":
            conn.state = "TIME_WAIT"
        if conn.state == "TIME_WAIT":
            self._enter_time_wait(conn)
        # EOF for blocked readers (after buffered data drains).
        self._wake_receivers(conn)

    def _on_fin_acked(self, conn: TcpConn) -> None:
        if conn.state == "FIN_WAIT_1":
            conn.state = "FIN_WAIT_2"
        elif conn.state == "CLOSING":
            conn.state = "TIME_WAIT"
            self._enter_time_wait(conn)
        elif conn.state == "LAST_ACK":
            self._destroy(conn, None)

    def _enter_time_wait(self, conn: TcpConn) -> None:
        self._cancel_retransmit(conn)
        if conn.time_wait_timer is None:
            conn.time_wait_timer = self.clock.schedule(
                self.params.time_wait, lambda: self._destroy(conn, None)
            )

    # ==================================================================
    # Transmit path
    # ==================================================================
    def _pump(self, conn: TcpConn) -> None:
        """Send whatever the windows currently allow, then FIN if due."""
        if conn.snd is None or conn.state not in DATA_STATES:
            return
        snd = conn.snd
        cong = conn.congestion
        sent_any = False
        while True:
            payload = snd.next_segment_payload(cong.window)
            if payload is None:
                break
            if (
                self.params.nagle
                and len(payload) < self.params.mss
                and snd.flight_size > 0
            ):
                # Nagle: hold the runt until outstanding data is ACKed
                # (the ACK re-enters _pump and releases it).
                break
            data = payload.to_bytes()  # the single wire-boundary copy
            seq = snd.mark_sent(len(data), self.clock.now)
            self._emit_data(conn, seq, data)
            sent_any = True
        if sent_any:
            self._arm_retransmit(conn, conn.rtt.rto)
        # Zero-window probing.
        if (
            snd.peer_window == 0
            and snd.unsent > 0
            and conn.persist_timer is None
        ):
            self._arm_persist(conn)
        # FIN once every queued byte is out and the app closed.
        if (
            conn.app_closed
            and not conn.fin_sent
            and snd.unsent == 0
            and not conn.send_waiters
        ):
            self._send_fin(conn)

    def _emit_data(self, conn: TcpConn, seq: int, data: bytes) -> None:
        # Data segments carry the current ACK: a pending delayed ACK rides
        # along for free.
        self._cancel_delack(conn)
        self.stats.bytes_sent += len(data)
        self._emit(
            conn.remote_addr,
            Segment(conn.local_port, conn.remote_port, seq,
                    conn.rcv.rcv_nxt, FLAG_ACK,
                    conn.rcv.advertised, data),
        )
        conn.last_advertised = conn.rcv.advertised

    def _send_fin(self, conn: TcpConn) -> None:
        conn.fin_sent = True
        conn.fin_seq = conn.snd.snd_nxt
        conn.snd.snd_nxt = seq_add(conn.snd.snd_nxt, 1)
        if conn.state == "ESTABLISHED":
            conn.state = "FIN_WAIT_1"
        elif conn.state == "CLOSE_WAIT":
            conn.state = "LAST_ACK"
        self._emit(
            conn.remote_addr,
            Segment(conn.local_port, conn.remote_port, conn.fin_seq,
                    conn.rcv.rcv_nxt, FLAG_FIN | FLAG_ACK,
                    conn.rcv.advertised),
        )
        self._arm_retransmit(conn, conn.rtt.rto)

    def _ack_now(self, conn: TcpConn) -> None:
        """Send an immediate ACK, clearing any pending delayed ACK."""
        self._cancel_delack(conn)
        self._send_ack(conn)

    def _ack_delayed(self, conn: TcpConn) -> None:
        """RFC 1122: ACK at least every second segment, else after delay."""
        conn.delack_segments += 1
        if conn.delack_segments >= 2:
            self._ack_now(conn)
            return
        if conn.delack_timer is None:
            conn.delack_timer = self.clock.schedule(
                self.params.ack_delay, lambda: self._on_delack_timeout(conn)
            )

    def _on_delack_timeout(self, conn: TcpConn) -> None:
        conn.delack_timer = None
        if conn.state != "CLOSED" and conn.delack_segments > 0:
            conn.delack_segments = 0
            self._send_ack(conn)

    def _cancel_delack(self, conn: TcpConn) -> None:
        conn.delack_segments = 0
        if conn.delack_timer is not None:
            conn.delack_timer.cancel()
            conn.delack_timer = None

    def _send_ack(self, conn: TcpConn) -> None:
        if conn.rcv is None:
            return
        self._emit(
            conn.remote_addr,
            Segment(conn.local_port, conn.remote_port,
                    conn.snd.snd_nxt if conn.snd else seq_add(conn.iss, 1),
                    conn.rcv.rcv_nxt, FLAG_ACK, conn.rcv.advertised),
        )
        conn.last_advertised = conn.rcv.advertised

    def _maybe_window_update(self, conn: TcpConn) -> None:
        """After an app read: reopen a window the peer saw as (near) zero."""
        if conn.rcv is None or conn.state == "CLOSED":
            return
        if (
            conn.last_advertised < self.params.mss
            and conn.rcv.advertised >= self.params.mss
        ):
            self._send_ack(conn)

    def _emit(self, remote_addr: str, segment: Segment) -> None:
        self.stats.segments_sent += 1
        if self.params.segment_cpu:
            self.clock.consume(self.params.segment_cpu)
        if self.transmit is None:
            raise TcpError("stack has no transmit function wired")
        self.transmit(remote_addr, segment)

    # ==================================================================
    # Timers (worker_tcp_timer)
    # ==================================================================
    def _arm_retransmit(
        self, conn: TcpConn, delay: float, restart: bool = False
    ) -> None:
        if conn.retransmit_timer is not None:
            if not restart:
                return
            conn.retransmit_timer.cancel()
        conn.retransmit_timer = self.clock.schedule(
            delay, lambda: self._on_retransmit_timeout(conn)
        )

    def _cancel_retransmit(self, conn: TcpConn) -> None:
        if conn.retransmit_timer is not None:
            conn.retransmit_timer.cancel()
            conn.retransmit_timer = None

    def _on_retransmit_timeout(self, conn: TcpConn) -> None:
        conn.retransmit_timer = None
        if conn.state in ("SYN_SENT", "SYN_RCVD"):
            self._send_syn(conn, ack=conn.state == "SYN_RCVD")
            return
        if conn.snd is None or conn.state == "CLOSED":
            return
        if conn.snd.flight_size == 0 and not (
            conn.fin_sent and not conn.fin_acked
        ):
            return  # stale timer
        conn.handshake_attempts += 1  # reused as a give-up counter
        if conn.handshake_attempts > self.params.max_retransmits:
            self._destroy(conn, ConnectionTimeout("too many retransmissions"))
            return
        self.stats.retransmits += 1
        conn.congestion.on_timeout(conn.snd.flight_size)
        conn.rtt.backoff()
        self._retransmit_head(conn)
        self._arm_retransmit(conn, conn.rtt.rto)

    def _fast_retransmit(self, conn: TcpConn) -> None:
        self.stats.fast_retransmits += 1
        self.stats.retransmits += 1
        self._retransmit_head(conn)
        self._arm_retransmit(conn, conn.rtt.rto, restart=True)

    def _retransmit_head(self, conn: TcpConn) -> None:
        payload = conn.snd.retransmit_payload()
        if payload is not None:
            data = payload.to_bytes()
            self._emit(
                conn.remote_addr,
                Segment(conn.local_port, conn.remote_port, conn.snd.snd_una,
                        conn.rcv.rcv_nxt, FLAG_ACK,
                        conn.rcv.advertised, data),
            )
        elif conn.fin_sent and not conn.fin_acked:
            self._emit(
                conn.remote_addr,
                Segment(conn.local_port, conn.remote_port, conn.fin_seq,
                        conn.rcv.rcv_nxt, FLAG_FIN | FLAG_ACK,
                        conn.rcv.advertised),
            )

    def _arm_persist(self, conn: TcpConn) -> None:
        conn.persist_timer = self.clock.schedule(
            max(conn.rtt.rto, self.params.persist_interval),
            lambda: self._on_persist_timeout(conn),
        )

    def _cancel_persist(self, conn: TcpConn) -> None:
        if conn.persist_timer is not None:
            conn.persist_timer.cancel()
            conn.persist_timer = None

    def _on_persist_timeout(self, conn: TcpConn) -> None:
        conn.persist_timer = None
        if conn.state == "CLOSED" or conn.snd is None:
            return
        if conn.snd.peer_window == 0 and conn.snd.unsent > 0:
            # Probe: a deliberately out-of-window segment; the peer ACKs
            # with its current window.
            self._emit(
                conn.remote_addr,
                Segment(conn.local_port, conn.remote_port,
                        seq_add(conn.snd.snd_una, -1 & 0xFFFFFFFF),
                        conn.rcv.rcv_nxt, FLAG_ACK, conn.rcv.advertised),
            )
            self._arm_persist(conn)
        elif conn.snd.unsent > 0:
            self._pump(conn)

    # ==================================================================
    # Application wakeups and teardown
    # ==================================================================
    def _wake_receivers(self, conn: TcpConn) -> None:
        while conn.recv_waiters and conn.readable_now:
            nbytes, cb = conn.recv_waiters.popleft()
            if conn.rcv is not None and conn.rcv.available > 0:
                data = conn.rcv.read(nbytes)
                self._maybe_window_update(conn)
                cb(data, None)
            elif conn.error is not None:
                cb(None, conn.error)
            else:  # FIN: orderly EOF
                cb(b"", None)

    def _drain_send_waiters(self, conn: TcpConn) -> None:
        if conn.snd is None or conn.state not in DATA_STATES:
            return
        while conn.send_waiters:
            entry = conn.send_waiters[0]
            data, offset, cb = entry
            space = self.params.send_buffer - len(conn.snd.buffer)
            if space <= 0:
                break
            take = min(space, len(data) - offset)
            conn.snd.enqueue(data[offset:offset + take])
            entry[1] = offset + take
            if entry[1] == len(data):
                conn.send_waiters.popleft()
                cb(len(data), None)
        self._pump(conn)

    def _destroy(self, conn: TcpConn, error: BaseException | None) -> None:
        if conn.state == "CLOSED":
            return
        conn.state = "CLOSED"
        conn.error = error
        if conn.parent_listener is not None:
            conn.parent_listener.pending -= 1
            conn.parent_listener = None
        self._cancel_retransmit(conn)
        self._cancel_persist(conn)
        self._cancel_delack(conn)
        if conn.time_wait_timer is not None:
            conn.time_wait_timer.cancel()
            conn.time_wait_timer = None
        self.connections.pop(conn.key, None)
        if conn.connect_cb is not None:
            cb, conn.connect_cb = conn.connect_cb, None
            cb(None, error or ConnectionReset("connection closed"))
        while conn.recv_waiters:
            _nbytes, cb = conn.recv_waiters.popleft()
            if error is not None:
                cb(None, error)
            else:
                cb(b"", None)
        while conn.send_waiters:
            _data, _offset, cb = conn.send_waiters.popleft()
            cb(None, error or ConnectionReset("connection closed"))

    # ------------------------------------------------------------------
    def _alloc_port(self) -> int:
        for _attempt in range(20000):
            port = self._ephemeral
            self._ephemeral += 1
            if self._ephemeral > 65535:
                self._ephemeral = 49152
            if not any(
                key[0] == port for key in self.connections
            ) and port not in self.listeners:
                return port
        raise TcpError("no free ephemeral ports")


def connect_stacks(stack_a: TcpStack, stack_b: TcpStack, duplex_link) -> None:
    """Wire two stacks over a :class:`~repro.simos.net.DuplexPacketLink`."""
    duplex_link.a_to_b.on_deliver = (
        lambda seg: stack_b.on_packet(seg, stack_a.local_addr)
    )
    duplex_link.b_to_a.on_deliver = (
        lambda seg: stack_a.on_packet(seg, stack_b.local_addr)
    )
    a_out, b_out = duplex_link.a_to_b, duplex_link.b_to_a

    def make_transmit(out_link, other_addr):
        def transmit(remote_addr: str, segment: Segment) -> None:
            if remote_addr != other_addr:
                raise TcpError(f"no route to {remote_addr!r}")
            out_link.send(segment)

        return transmit

    stack_a.transmit = make_transmit(a_out, stack_b.local_addr)
    stack_b.transmit = make_transmit(b_out, stack_a.local_addr)
