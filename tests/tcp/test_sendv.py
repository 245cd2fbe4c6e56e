"""Gathered sends through the application-level TCP stack.

``TcpSockets.write_all_v`` enqueues every buffer as memoryview slices into
the send window's iovec — never joined into one bytes object.  These
tests pin the ordering/parity guarantees at the monadic API, the
zero-copy enqueue at the stack level, and the HTTP server's use of it
for its header+body gathered writes.
"""

from __future__ import annotations

from repro.core.do_notation import do
from repro.http.server import WebServer
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.net import DuplexPacketLink
from repro.tcp.socket_api import TcpSockets
from repro.tcp.stack import TcpError, TcpParams, TcpStack, connect_stacks


def make_world(params: TcpParams | None = None):
    rt = SimRuntime(uncaught="store")
    clock = rt.kernel.clock
    link = DuplexPacketLink(clock, 12.5e6, 0.001, seed=3)
    server_stack = TcpStack(clock, "server", params or TcpParams(), seed=1)
    client_stack = TcpStack(clock, "client", params or TcpParams(), seed=2)
    connect_stacks(client_stack, server_stack, link)
    ssock = TcpSockets(server_stack)
    csock = TcpSockets(client_stack)
    return rt, ssock, csock


def _echo_server(rt, ssock, nbytes, received):
    @do
    def server():
        listener = yield ssock.listen(80)
        conn = yield ssock.accept(listener)
        data = yield ssock.recv_exact(conn, nbytes)
        received.append(data)
        yield ssock.close(conn)

    rt.spawn(server(), name="server")


class TestSendV:
    def test_buffers_arrive_in_order_uncorrupted(self):
        rt, ssock, csock = make_world()
        bufs = [b"alpha-", bytearray(b"beta-"), memoryview(b"gamma")]
        joined = b"alpha-beta-gamma"
        received: list[bytes] = []
        counts: list[int] = []
        _echo_server(rt, ssock, len(joined), received)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            count = yield csock.write_all_v(conn, bufs)
            counts.append(count)
            yield csock.close(conn)

        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(received))
        assert received == [joined]
        assert counts == [len(joined)]

    def test_empty_buffers_are_skipped(self):
        rt, ssock, csock = make_world()
        received: list[bytes] = []
        counts: list[int] = []
        _echo_server(rt, ssock, 2, received)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            count = yield csock.write_all_v(conn, [b"", b"a", b"", b"b", b""])
            counts.append(count)
            yield csock.close(conn)

        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(received))
        assert received == [b"ab"]
        assert counts == [2]

    def test_all_empty_resolves_zero_immediately(self):
        rt, _ssock, csock = make_world()
        counts: list[int] = []

        @do
        def client():
            conn = yield csock.connect("server", 80)
            count = yield csock.write_all_v(conn, [b"", b""])
            counts.append(count)
            yield csock.close(conn)

        @do
        def server():
            listener = yield _ssock.listen(80)
            conn = yield _ssock.accept(listener)
            yield _ssock.close(conn)

        rt.spawn(server(), name="server")
        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(counts))
        assert counts == [0]

    def test_burst_larger_than_send_buffer(self):
        # The gathered send must drain through a send buffer far smaller
        # than the total: iovec entries are consumed slice by slice as
        # window opens, byte-exact across buffer boundaries.
        params = TcpParams(send_buffer=2048, mss=536)
        rt, ssock, csock = make_world(params)
        bufs = [bytes([65 + (i % 26)]) * 777 for i in range(40)]  # ~30 KiB
        joined = b"".join(bufs)
        received: list[bytes] = []
        counts: list[int] = []
        _echo_server(rt, ssock, len(joined), received)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            count = yield csock.write_all_v(conn, bufs)
            counts.append(count)
            yield csock.close(conn)

        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(received))
        assert received == [joined]
        assert counts == [len(joined)]

    def test_sendv_on_closed_connection_errors(self):
        rt, ssock, csock = make_world()
        failures: list[BaseException] = []

        @do
        def server():
            listener = yield ssock.listen(80)
            conn = yield ssock.accept(listener)
            yield ssock.close(conn)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.close(conn)
            try:
                yield csock.write_all_v(conn, [b"too", b"late"])
            except TcpError as exc:
                failures.append(exc)

        rt.spawn(server(), name="server")
        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(failures))
        assert len(failures) == 1

    def test_enqueue_is_zero_copy(self):
        # With the window wedged shut (tiny send buffer), queued iovec
        # entries must still reference the caller's buffers — no join,
        # no intermediate bytes object.
        params = TcpParams(send_buffer=64, mss=536)
        rt, ssock, csock = make_world(params)
        conns = []

        @do
        def server():
            listener = yield ssock.listen(80)
            conn = yield ssock.accept(listener)
            conns.append(("server", conn))

        @do
        def client():
            conn = yield csock.connect("server", 80)
            conns.append(("client", conn))

        rt.spawn(server(), name="server")
        rt.spawn(client(), name="client")
        rt.run(until=lambda: len(conns) == 2)
        conn = dict(conns)["client"]
        big = [bytearray(b"x" * 4096), bytearray(b"y" * 4096)]
        results: list = []
        conn.stack.sendv(conn, big, lambda count, error: results.append(
            (count, error)))
        # Not yet drained: the window fits 64 bytes of 8192.
        assert not results
        queued = [entry[0].obj for entry in conn.send_waiters
                  if isinstance(entry[0], memoryview)]
        assert any(obj is buf for obj in queued for buf in big)


class TestHttpOverSendV:
    """The HTTP server's gathered header+body write rides
    ``TcpSockets.write_all_v`` — one stack call, zero joins."""

    def make_site_world(self):
        rt = SimRuntime(uncaught="store")
        rt.kernel.fs.create_file("index.html", 1200)
        clock = rt.kernel.clock
        link = DuplexPacketLink(clock, 12.5e6, 0.001, seed=3)
        server_stack = TcpStack(clock, "server", TcpParams(), seed=1)
        client_stack = TcpStack(clock, "client", TcpParams(), seed=2)
        connect_stacks(client_stack, server_stack, link)
        ssock = TcpSockets(server_stack)
        csock = TcpSockets(client_stack)
        server = WebServer(ssock, server_stack.listen(80), rt.kernel.fs)
        return rt, server, ssock, csock

    def test_response_uses_send_v(self):
        rt, server, ssock, csock = self.make_site_world()
        calls: list[int] = []
        original = ssock.write_all_v

        def counting_write_all_v(conn, bufs):
            calls.append(len(bufs))
            return original(conn, bufs)

        ssock.write_all_v = counting_write_all_v
        responses = []

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.send(conn, b"GET /index.html HTTP/1.0\r\n\r\n")
            collected = bytearray()
            while True:
                data = yield csock.recv(conn, 65536)
                if not data:
                    break
                collected.extend(data)
            responses.append(bytes(collected))
            yield csock.close(conn)

        rt.spawn(server.main(), name="server")
        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(responses))
        raw = responses[0]
        assert raw.startswith(b"HTTP/1.1 200")
        assert b"Content-Length: 1200" in raw
        # Header and body left as one gathered call (>= 2 iovecs).
        assert calls and max(calls) >= 2
