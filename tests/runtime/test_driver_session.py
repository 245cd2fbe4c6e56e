"""The connection session, owned by the driver.

Unit level drives :class:`~repro.runtime.driver.ConnectionDriver` with a
recording transport and a toy line protocol: who reads (the driver, through
``read_pooled``, releasing the lease before the protocol runs), who
closes (the driver: ``close`` or the drain-close ``shed``, exactly once)
and what abandonment does (no monadic close, no leaked lease).  Live
level checks what HTTP and the cache dialects build on it: requests that
completed before a malformed one are answered first.
"""

from __future__ import annotations

import gc

import pytest

from repro.app.kv import KvNode
from repro.cache import build_cache_frontend
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.syscalls import sys_sleep
from repro.cache.memcache import MemcacheProtocol
from repro.http.server import build_live_server
from repro.runtime.buffers import BufferPool
from repro.runtime.driver import CLOSE, DRAIN_CLOSE, ConnectionDriver
from repro.runtime.io_api import ConnectionClosed, FileBody
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.net import DuplexPacketLink
from repro.tcp.socket_api import TcpSockets
from repro.tcp.stack import TcpParams, TcpStack, connect_stacks
from tests.http.test_http11_features import _drive as drive


# ----------------------------------------------------------------------
# Unit level: a recording transport and a toy protocol.
# ----------------------------------------------------------------------
class RecordingTransport:
    """Scripted reads; records every close-side call."""

    def __init__(self, reads) -> None:
        self.reads = list(reads)
        self.buffers = BufferPool(buffer_bytes=64)
        self.calls: list[tuple] = []
        self.sent: list[bytes] = []

    def read_pooled(self, conn, pool):
        assert pool is self.buffers
        item = self.reads.pop(0) if self.reads else b""
        if isinstance(item, BaseException):
            @do
            def fail():
                yield pure(None)
                raise item
            return fail()
        # A lease must never be held while the protocol runs.
        assert pool.in_use == 0
        lease = pool.lease()
        lease.data[:len(item)] = item
        return pure((lease, len(item)))

    def write_all_v(self, conn, bufs):
        self.sent.append(b"".join(bufs))
        return pure(sum(map(len, bufs)))

    def close(self, conn):
        self.calls.append(("close", conn))
        return pure(None)

    def shed(self, conn, farewell=b""):
        self.calls.append(("shed", conn, farewell))
        return pure(None)


class LineError(ValueError):
    pass


class LineParser:
    def __init__(self) -> None:
        self.lines: list[bytes] = []

    def feed(self, data, count) -> None:
        for line in bytes(data[:count]).split(b"\n"):
            if line == b"BAD":
                raise LineError("bad line")
            if line:
                self.lines.append(line)


class LineProtocol:
    """Echoes lines; ``quit`` ends the session, ``boom`` is a bug."""

    parse_error = LineError

    def make_parser(self):
        return LineParser()

    def shed_payload(self) -> bytes:
        return b""

    @do
    def drain(self, io, conn, parser, bad):
        assert io.buffers.in_use == 0
        while parser.lines:
            line = parser.lines.pop(0)
            if line == b"boom":
                raise RuntimeError("protocol bug")
            yield io.write_all_v(conn, [line])
            if line == b"quit":
                return CLOSE
        if bad is not None:
            yield io.write_all_v(conn, [b"ERR"])
            return DRAIN_CLOSE


def run_session(reads):
    rt = SimRuntime(uncaught="store")
    io = RecordingTransport(reads)
    driver = ConnectionDriver(io, None, LineProtocol())
    rt.spawn(driver.handle_connection("c1"), name="session")
    rt.run()
    return rt, io


class TestSessionVerdicts:
    def test_eof_is_a_plain_close(self):
        _rt, io = run_session([b"a\nb\n", b"c\n", b""])
        assert io.sent == [b"a", b"b", b"c"]
        assert io.calls == [("close", "c1")]
        assert io.buffers.in_use == 0

    def test_protocol_close_verdict(self):
        _rt, io = run_session([b"a\nquit\nnever\n", b"unread"])
        assert io.sent == [b"a", b"quit"]
        assert io.calls == [("close", "c1")]

    def test_parse_error_answers_completed_lines_then_drain_closes(self):
        _rt, io = run_session([b"a\nb\nBAD\nc\n", b"unread"])
        # What completed before the break is served, then the error;
        # the close is the drain-close (shed), and only that.
        assert io.sent == [b"a", b"b", b"ERR"]
        assert io.calls == [("shed", "c1", b"")]
        assert io.buffers.in_use == 0

    def test_transport_error_closes_quietly(self):
        rt, io = run_session([b"a\n", ConnectionClosed("gone")])
        assert io.sent == [b"a"]
        assert io.calls == [("close", "c1")]
        assert not rt.sched.uncaught_errors

    def test_protocol_bug_still_closes_then_propagates(self):
        rt, io = run_session([b"boom\n"])
        assert io.calls == [("close", "c1")]
        assert any(isinstance(error, RuntimeError)
                   for _tcb, error in rt.sched.uncaught_errors)

    def test_abandonment_runs_no_monadic_close(self):
        io = RecordingTransport([])
        driver = ConnectionDriver(io, None, LineProtocol())
        gate = []

        def parked_read(conn, pool):
            @do
            def park():
                lease = pool.lease()
                try:
                    gate.append(True)
                    yield sys_sleep(3600.0)
                finally:
                    lease.release()
                return lease, 0
            return park()

        io.read_pooled = parked_read
        rt = SimRuntime(uncaught="store")
        rt.spawn(driver.handle_connection("c1"), name="session")
        rt.run(until=lambda: bool(gate))
        assert gate
        del rt  # drop the runtime mid-session: generators are closed
        gc.collect()
        assert io.calls == []
        assert io.buffers.in_use == 0


# ----------------------------------------------------------------------
# The transport contract is total: the app-level TCP stack too.
# ----------------------------------------------------------------------
def make_tcp_world(rt, loss=0.0, seed=3):
    """Server and client ``TcpSockets`` joined by one packet link."""
    clock = rt.kernel.clock
    link = DuplexPacketLink(clock, 12.5e6, 0.001, loss=loss, seed=seed)
    server_stack = TcpStack(clock, "server", TcpParams(), seed=1)
    client_stack = TcpStack(clock, "client", TcpParams(), seed=2)
    connect_stacks(client_stack, server_stack, link)
    return (TcpSockets(server_stack),
            TcpSockets(client_stack), link)


class TestAppTcpLayerIsTotal:
    def make_world(self):
        rt = SimRuntime(uncaught="store")
        ssock, csock, _link = make_tcp_world(rt)
        return rt, ssock, ssock.stack.listen(80), csock

    def test_recv_pooled_and_sendfile(self):
        rt, io, listener, csock = self.make_world()
        blob = bytes(range(256)) * 1200  # > one SENDFILE_WINDOW
        closed = []
        file = FileBody(
            None, len(blob),
            pread=lambda offset, nbytes: blob[offset:offset + nbytes],
            close=lambda: closed.append(True),
        )
        seen = []
        received = bytearray()

        @do
        def server():
            (conn,) = yield io.accept_many(listener, 8)
            lease, count = yield io.read_pooled(conn, io.buffers)
            seen.append(bytes(lease.data[:count]))
            lease.release()
            sent = yield io.sendfile(conn, file, 100, len(blob) - 100)
            seen.append(sent)
            yield io.close(conn)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.send(conn, b"send me the file")
            while True:
                data = yield csock.recv(conn, 65536)
                if not data:
                    break
                received.extend(data)
            yield csock.close(conn)

        rt.spawn(server(), name="server")
        rt.spawn(client(), name="client")
        rt.run()
        assert seen == [b"send me the file", len(blob) - 100]
        assert bytes(received) == blob[100:]
        assert io.buffers.in_use == 0

    def test_sendfile_of_a_truncated_file_is_a_transport_error(self):
        rt, io, listener, csock = self.make_world()
        file = FileBody(None, 4096, pread=lambda offset, nbytes: b"")
        errors = []

        @do
        def server():
            (conn,) = yield io.accept_many(listener, 8)
            try:
                yield io.sendfile(conn, file, 0, 4096)
            except ConnectionClosed as exc:
                errors.append(exc)
            yield io.close(conn)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.recv(conn, 65536)
            yield csock.close(conn)

        rt.spawn(server(), name="server")
        rt.spawn(client(), name="client")
        rt.run()
        assert len(errors) == 1


class TestOneDriverTwoTransports:
    """``ConnectionDriver(transport, listener, protocol)`` is the whole
    composition: no adapter between the driver and either transport."""

    #: A pipelined burst: 24 sets of ~1 KiB, one multi-key get, quit.
    BURST = b"".join(
        b"set k%d 0 0 %d\r\n%s\r\n" % (i, size, b"%c" % (97 + i) * size)
        for i, size in enumerate(range(1000, 1024))
    ) + b"get %s\r\nquit\r\n" % b" ".join(b"k%d" % i for i in range(24))

    def serve_burst(self, rt, io, listener, connect, send, recv):
        """A memcache driver on transport ``io``; the client pipelines
        :attr:`BURST` and reads to EOF.  Returns every reply byte."""
        driver = ConnectionDriver(io, listener,
                                  MemcacheProtocol(KvNode(0, 1)))
        replies = []

        @do
        def client():
            conn = yield connect()
            yield send(conn, self.BURST)
            collected = bytearray()
            while True:
                data = yield recv(conn, 65536)
                if not data:
                    break
                collected.extend(data)
            replies.append(bytes(collected))

        rt.spawn(driver.main(), name="cache")
        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(replies))
        assert not rt.sched.uncaught_errors
        return replies[0]

    def test_memcache_over_lossy_tcp_matches_kernel_streams(self):
        rt = SimRuntime(uncaught="store")
        listener = rt.kernel.net.listen()
        kernel = self.serve_burst(
            rt, rt.io, listener,
            lambda: rt.io.connect(listener), rt.io.write_all, rt.io.read,
        )
        assert kernel.count(b"STORED\r\n") == 24
        assert kernel.count(b"VALUE k") == 24 and kernel.endswith(b"END\r\n")

        rt = SimRuntime(uncaught="store")
        ssock, csock, link = make_tcp_world(rt, loss=0.05, seed=11)
        lossy = self.serve_burst(
            rt, ssock, ssock.stack.listen(11211),
            lambda: csock.connect("server", 11211), csock.send, csock.recv,
        )
        assert lossy == kernel
        assert link.a_to_b.dropped + link.b_to_a.dropped > 0
        assert ssock.buffers.in_use == 0


# ----------------------------------------------------------------------
# Live level: HTTP and memcache on the shared session.
# ----------------------------------------------------------------------
@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


class TestLiveSessions:
    @pytest.mark.parametrize("malformed", [
        b"NONSENSE\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding : chunked\r\n\r\n"
        b"0\r\n\r\n",
        b"POST /x HTTP/1.1\r\n Content-Length: 3\r\n\r\nabc",
    ])
    def test_http_answers_completed_requests_before_the_400(self, rt,
                                                            malformed):
        listener = make_listener()
        server = build_live_server(rt, listener, site={"a": b"AAA"})
        rt.spawn(server.main(), name="server")
        data = drive(
            rt, listener.getsockname()[1],
            b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n" + malformed
            + b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n",
        )
        server.stop()
        listener.close()
        first, _, rest = data.partition(b"AAA")
        assert first.startswith(b"HTTP/1.1 200 OK")
        assert rest.startswith(b"HTTP/1.1 400 ")
        # Nothing after the malformed request is served.
        assert data.count(b"HTTP/1.1 ") == 2
        assert server.stats.requests == 1
        assert server.stats.responses_err == 1
        assert server.stats.active == 0
        assert rt.buffers.in_use == 0

    def test_keep_alive_requests_share_one_ingress_buffer(self, rt):
        # Request/response in lock step on ONE live connection: every
        # ingress read leases from ``rt.buffers`` and the lease goes back
        # before the session parks, so the whole conversation costs one
        # pool allocation however long it runs.
        listener = make_listener()
        server = build_live_server(rt, listener, site={"a": b"AAA"})
        rt.spawn(server.main(), name="server")
        rounds, finished = 40, []

        @do
        def client():
            conn = yield rt.io.connect(listener.getsockname())
            for _ in range(rounds):
                yield rt.io.write_all(
                    conn, b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
                )
                data = b""
                while not data.endswith(b"AAA"):
                    data += yield rt.io.read(conn, 65536)
            yield rt.io.close(conn)
            finished.append(True)

        rt.spawn(client(), name="keep-alive-client")
        rt.run(until=lambda: bool(finished), idle_timeout=5.0)
        server.stop()
        listener.close()
        assert finished, "client never completed"
        assert server.stats.connections == 1
        assert server.stats.requests == rounds
        pool = rt.buffers.stats()
        assert pool["leases"] >= rounds
        assert pool["allocations"] == 1
        assert pool["in_use"] == 0

    def test_memcache_batch_before_a_parse_error_is_answered(self, rt):
        listener = make_listener()
        frontend = build_cache_frontend(rt, listener, KvNode(0, 1))
        rt.spawn(frontend.main(), name="cache")
        data = drive(
            rt, listener.getsockname()[1],
            b"set k 0 0 2 noreply\r\nhi\r\nget k\r\nset k 0 0 pony\r\n"
            b"get k\r\n",
        )
        frontend.stop()
        listener.close()
        assert data == (b"VALUE k 0 2\r\nhi\r\nEND\r\n"
                        b"CLIENT_ERROR bad command line format\r\n")
        stats = frontend.stats
        assert stats.commands == 2 and stats.errors == 1
        # The replies and the farewell left as one gathered write.
        assert stats.send_batches == 1
        assert stats.active == 0
