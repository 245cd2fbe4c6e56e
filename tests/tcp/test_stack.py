"""End-to-end TCP stack tests over simulated packet links."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simos.clock import VirtualClock
from repro.simos.net import DuplexPacketLink
from repro.tcp.stack import (
    ConnectionReset,
    ConnectionTimeout,
    TcpParams,
    TcpStack,
    connect_stacks,
)

BANDWIDTH = 12.5e6  # 100Mbps
LATENCY = 0.001


def make_pair(loss=0.0, duplicate=0.0, jitter=0.0, seed=0, params=None):
    """Two hosts wired by a (possibly lossy) duplex link."""
    clock = VirtualClock()
    link = DuplexPacketLink(
        clock, BANDWIDTH, LATENCY,
        loss=loss, duplicate=duplicate, jitter=jitter, seed=seed,
    )
    stack_a = TcpStack(clock, "hostA", params or TcpParams(), seed=1)
    stack_b = TcpStack(clock, "hostB", params or TcpParams(), seed=2)
    connect_stacks(stack_a, stack_b, link)
    return clock, stack_a, stack_b, link


class Sink:
    """Callback collector for the callback-level API."""

    def __init__(self):
        self.values = []
        self.errors = []

    def __call__(self, value, error):
        if error is not None:
            self.errors.append(error)
        else:
            self.values.append(value)


class TestHandshake:
    def test_three_way_handshake(self):
        clock, a, b, _link = make_pair()
        b.listen(80)
        connected = Sink()
        accepted = Sink()
        b.accept(b.listeners[80], accepted)
        a.connect("hostB", 80, connected)
        clock.run_until_idle()
        assert len(connected.values) == 1
        assert len(accepted.values) == 1
        assert connected.values[0].state == "ESTABLISHED"
        assert accepted.values[0].state == "ESTABLISHED"

    def test_connect_to_closed_port_resets(self):
        clock, a, _b, _link = make_pair()
        connected = Sink()
        a.connect("hostB", 9999, connected)
        clock.run_until_idle()
        assert len(connected.errors) == 1
        assert isinstance(connected.errors[0], ConnectionReset)

    def test_syn_loss_recovered_by_retransmission(self):
        clock, a, b, _link = make_pair(loss=0.9, seed=11)
        # With 90% loss the handshake may take several attempts but the
        # exponential-backoff retransmission eventually lands.
        b.listen(80)
        connected = Sink()
        b.accept(b.listeners[80], Sink())
        a.connect("hostB", 80, connected)
        clock.run_until_idle()
        assert connected.values or connected.errors  # terminated either way

    def test_handshake_gives_up_on_dead_link(self):
        clock, a, _b, _link = make_pair(loss=1.0)
        connected = Sink()
        a.connect("hostB", 80, connected)
        clock.run_until_idle()
        assert len(connected.errors) == 1
        assert isinstance(connected.errors[0], ConnectionTimeout)

    def test_backlog_limit_drops_excess_syns(self):
        clock, a, b, _link = make_pair()
        b.listen(80, backlog=1)
        sinks = [Sink() for _ in range(3)]
        for sink in sinks:
            a.connect("hostB", 80, sink)
        clock.run_until_idle()
        # Only one connection fits the backlog; the others time out after
        # SYN retries (the listener never accepts).
        established = sum(1 for s in sinks if s.values)
        assert established == 1


def run_for(clock, seconds):
    """Advance the calendar, but only ``seconds`` of virtual time — for
    scenarios that deliberately reach a steady retry loop (zero-window
    persist probes never stop while the receiver refuses to read)."""
    deadline = clock.now + seconds
    while True:
        when = clock.next_event_time()
        if when is None or when > deadline:
            return
        clock.advance()


def establish(clock, a, b, port=80):
    """Handshake helper: returns (client_conn, server_conn)."""
    if port not in b.listeners:
        b.listen(port)
    accepted = Sink()
    connected = Sink()
    b.accept(b.listeners[port], accepted)
    a.connect("hostB", port, connected)
    clock.run_until_idle()
    assert connected.values and accepted.values
    return connected.values[0], accepted.values[0]


class TestDataTransfer:
    def test_small_message(self):
        clock, a, b, _link = make_pair()
        client, server = establish(clock, a, b)
        got = Sink()
        b.recv(server, 100, got)
        a.send(client, b"hello tcp", Sink())
        clock.run_until_idle()
        assert got.values == [b"hello tcp"]

    def test_bidirectional(self):
        clock, a, b, _link = make_pair()
        client, server = establish(clock, a, b)
        to_server, to_client = Sink(), Sink()
        b.recv(server, 100, to_server)
        a.recv(client, 100, to_client)
        a.send(client, b"ping", Sink())
        b.send(server, b"pong", Sink())
        clock.run_until_idle()
        assert to_server.values == [b"ping"]
        assert to_client.values == [b"pong"]

    def test_large_transfer_segmented(self):
        clock, a, b, _link = make_pair()
        client, server = establish(clock, a, b)
        payload = bytes(range(256)) * 1024  # 256KB
        received = bytearray()

        def on_data(data, error):
            assert error is None
            if data:
                received.extend(data)
                b.recv(server, 65536, on_data)

        b.recv(server, 65536, on_data)
        a.send(client, payload, Sink())
        clock.run_until_idle()
        assert bytes(received) == payload
        assert a.stats.segments_sent > len(payload) // 1460

    def test_flow_control_blocks_sender(self):
        params = TcpParams(recv_window=4096, send_buffer=4096)
        clock, a, b, _link = make_pair(params=params)
        client, server = establish(clock, a, b)
        payload = b"z" * 50_000
        sent = Sink()
        a.send(client, payload, sent)
        run_for(clock, 30.0)
        # Receiver never reads: the sender must stall, not complete.
        assert not sent.values
        # Now drain the receiver; the send completes.
        received = bytearray()

        def drain(data, error):
            assert error is None
            if data:
                received.extend(data)
                if len(received) < len(payload):
                    b.recv(server, 8192, drain)

        b.recv(server, 8192, drain)
        clock.run_until_idle()
        assert sent.values == [len(payload)]
        assert bytes(received) == payload

    def test_zero_window_probe_recovers(self):
        """Even if the window-update ACK is lost, probes recover."""
        params = TcpParams(recv_window=2048, send_buffer=65536)
        clock, a, b, link = make_pair(params=params, loss=0.2, seed=5)
        client, server = establish(clock, a, b)
        payload = b"q" * 20_000
        sent = Sink()
        a.send(client, payload, sent)
        received = bytearray()

        def drain(data, error):
            assert error is None
            if data:
                received.extend(data)
                if len(received) < len(payload):
                    b.recv(server, 1024, drain)

        b.recv(server, 1024, drain)
        clock.run_until_idle()
        assert bytes(received) == payload


class TestTeardown:
    def test_orderly_close_delivers_eof(self):
        clock, a, b, _link = make_pair()
        client, server = establish(clock, a, b)
        got = Sink()
        a.send(client, b"bye", Sink())
        a.close(client)
        b.recv(server, 100, got)
        clock.run_until_idle()
        assert got.values == [b"bye"]
        eof = Sink()
        b.recv(server, 100, eof)
        clock.run_until_idle()
        assert eof.values == [b""]

    def test_both_sides_close_cleanly(self):
        clock, a, b, _link = make_pair()
        client, server = establish(clock, a, b)
        a.close(client)
        b.close(server)
        clock.run_until_idle()
        assert client.state == "CLOSED"
        assert server.state == "CLOSED"
        assert not a.connections and not b.connections

    def test_time_wait_holds_then_releases(self):
        params = TcpParams(time_wait=5.0)
        clock, a, b, _link = make_pair(params=params)
        client, server = establish(clock, a, b)
        a.close(client)
        clock.run_due()
        # Drive until both FINs exchange.
        for _ in range(200):
            if server.state == "CLOSE_WAIT":
                break
            clock.advance()
        b.close(server)
        for _ in range(200):
            if client.state == "TIME_WAIT":
                break
            clock.advance()
        assert client.state == "TIME_WAIT"
        clock.run_until_idle()
        assert client.state == "CLOSED"

    def test_abort_sends_rst(self):
        clock, a, b, _link = make_pair()
        client, server = establish(clock, a, b)
        waiting = Sink()
        b.recv(server, 100, waiting)
        a.abort(client)
        clock.run_until_idle()
        assert len(waiting.errors) == 1
        assert isinstance(waiting.errors[0], ConnectionReset)
        assert a.stats.rsts_sent == 1

    def test_send_after_close_errors(self):
        clock, a, b, _link = make_pair()
        client, _server = establish(clock, a, b)
        a.close(client)
        result = Sink()
        a.send(client, b"late", result)
        assert len(result.errors) == 1


class TestLossRecovery:
    def transfer(self, loss, duplicate=0.0, jitter=0.0, seed=0,
                 size=100_000):
        clock, a, b, _link = make_pair(
            loss=loss, duplicate=duplicate, jitter=jitter, seed=seed
        )
        client, server = establish(clock, a, b)
        payload = bytes((i * 7) % 256 for i in range(size))
        received = bytearray()
        finished = Sink()

        def drain(data, error):
            assert error is None
            if data:
                received.extend(data)
            if data and len(received) < len(payload):
                b.recv(server, 65536, drain)

        b.recv(server, 65536, drain)
        a.send(client, payload, finished)
        clock.run_until_idle()
        assert bytes(received) == payload
        return a.stats

    def test_clean_link_no_retransmits(self):
        stats = self.transfer(loss=0.0)
        assert stats.retransmits == 0

    def test_five_percent_loss_recovers(self):
        stats = self.transfer(loss=0.05, seed=3)
        assert stats.retransmits > 0

    def test_heavy_loss_recovers(self):
        self.transfer(loss=0.25, seed=9, size=30_000)

    def test_duplication_harmless(self):
        self.transfer(loss=0.0, duplicate=0.3, seed=4)

    def test_reordering_harmless(self):
        self.transfer(loss=0.0, jitter=0.01, seed=6)

    def test_fast_retransmit_used_under_mild_loss(self):
        stats = self.transfer(loss=0.03, seed=13, size=400_000)
        assert stats.fast_retransmits > 0


def deliver(loss, duplicate, jitter, seed, size):
    """Connect over a faulty link and send ``size`` bytes; returns how
    it ended, having asserted that ending's invariant.

    * ``"delivered"``: the receiver saw exactly the sent bytes, in order.
    * ``"server gave up"``: the server's bounded SYN-ACK retries ran out
      (like Linux's ``tcp_synack_retries``) because every ACK of the
      client's was lost.  The client is ESTABLISHED on a connection the
      server destroyed, so its first send draws an RST: the half-open
      client is reset, never left hanging.
    """
    clock, a, b, _link = make_pair(
        loss=loss, duplicate=duplicate, jitter=jitter, seed=seed
    )
    b.listen(80)
    accepted = Sink()
    connected = Sink()
    b.accept(b.listeners[80], accepted)
    a.connect("hostB", 80, connected)
    clock.run_until_idle()
    assert not connected.errors
    client = connected.values[0]
    payload = bytes((i * 31 + seed) % 256 for i in range(size))
    if not accepted.values:
        failed = Sink()
        a.recv(client, 8192, failed)
        a.send(client, payload, Sink())
        clock.run_until_idle()
        assert [type(e) for e in failed.errors] == [ConnectionReset]
        assert client.state == "CLOSED"
        return "server gave up"
    server = accepted.values[0]
    received = bytearray()

    def drain(data, error):
        assert error is None
        if data:
            received.extend(data)
            if len(received) < size:
                b.recv(server, 8192, drain)

    b.recv(server, 8192, drain)
    a.send(client, payload, Sink())
    clock.run_until_idle()
    assert bytes(received) == payload
    return "delivered"


#: Links on which the server gives up its handshake (about 0.5% of
#: handshakes at ``loss=0.25``).
SERVER_GAVE_UP = [
    dict(loss=0.25, duplicate=0.0, jitter=0.0, seed=31),
    dict(loss=0.25, duplicate=0.0, jitter=0.0078, seed=44),
    dict(loss=0.25, duplicate=0.0, jitter=0.0078, seed=398),
]


@pytest.mark.parametrize("link", SERVER_GAVE_UP)
def test_a_server_that_gave_up_resets_the_client(link):
    assert deliver(size=1000, **link) == "server gave up"


@settings(max_examples=12, deadline=None)
@given(
    loss=st.floats(0.0, 0.25),
    duplicate=st.floats(0.0, 0.2),
    jitter=st.floats(0.0, 0.01),
    seed=st.integers(0, 10_000),
    size=st.integers(1, 60_000),
)
@example(loss=0.25, duplicate=0.0, jitter=0.0, seed=31, size=1000)
@example(loss=0.25, duplicate=0.0, jitter=0.0078, seed=398, size=60_000)
@example(loss=0.25, duplicate=0.2, jitter=0.01, seed=9, size=60_000)
def test_reliable_delivery_property(loss, duplicate, jitter, seed, size):
    """THE TCP invariant: whatever the link does, the receiver sees
    exactly the sent bytes, in order — unless the server gave up its
    handshake after its bounded SYN-ACK retries, and then the half-open
    client is reset (see :func:`deliver`)."""
    deliver(loss, duplicate, jitter, seed, size)
