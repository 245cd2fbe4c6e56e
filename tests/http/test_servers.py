"""End-to-end web-server tests: monadic server (both transports) and
the Apache-like baseline."""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.http.baseline import ApacheLikeServer
from repro.http.server import WebServer
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.net import DuplexPacketLink
from repro.simos.nptl import KConnect, KRead, KWrite, NptlSim, run_sims
from repro.tcp.socket_api import TcpSockets
from repro.tcp.stack import TcpParams, TcpStack, connect_stacks


def make_site(rt, files):
    """Create files on the runtime's filesystem."""
    for name, size in files.items():
        rt.kernel.fs.create_file(name, size)


class TestKernelLayerServer:
    def make(self, files=None, cache_bytes=10 * 1024 * 1024):
        rt = SimRuntime(uncaught="store")
        make_site(rt, files or {"index.html": 300, "data.bin": 5000})
        server = WebServer(
            rt.io, rt.kernel.net.listen(), rt.kernel.fs,
            cache_bytes=cache_bytes,
        )
        return rt, server

    def run_request(self, rt, server, raw_request, reads=1):
        """Spawn the server, issue raw bytes, return response bytes."""
        responses = []

        @do
        def client():
            conn = yield rt.io.connect(server.listener)
            yield rt.io.write_all(conn, raw_request)
            collected = bytearray()
            while True:
                data = yield rt.io.read(conn, 65536)
                if not data:
                    break
                collected.extend(data)
                if reads == 1 and b"\r\n\r\n" in collected:
                    header_end = collected.find(b"\r\n\r\n")
                    header = bytes(collected[:header_end]).decode("latin-1")
                    length = 0
                    for line in header.split("\r\n")[1:]:
                        if line.lower().startswith("content-length:"):
                            length = int(line.split(":")[1])
                    if len(collected) >= header_end + 4 + length:
                        break
            responses.append(bytes(collected))
            yield rt.io.close(conn)

        rt.spawn(server.main(), name="server")
        rt.spawn(client(), name="client")
        rt.run(until=lambda: bool(responses))
        return responses[0]

    def test_get_serves_file_content(self):
        rt, server = self.make()
        raw = self.run_request(
            rt, server, b"GET /index.html HTTP/1.0\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        header, _, body = raw.partition(b"\r\n\r\n")
        assert b"Content-Length: 300" in header
        expected = rt.kernel.fs.open("index.html").content_at(0, 300)
        assert body[:300] == expected

    def test_404_for_missing_file(self):
        rt, server = self.make()
        raw = self.run_request(rt, server, b"GET /ghost.html HTTP/1.0\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 404")

    def test_405_for_post(self):
        rt, server = self.make()
        raw = self.run_request(
            rt, server,
            b"POST /index.html HTTP/1.0\r\nContent-Length: 2\r\n\r\nhi",
        )
        assert raw.startswith(b"HTTP/1.1 405")

    def test_400_for_garbage(self):
        rt, server = self.make()
        raw = self.run_request(rt, server, b"NOT A REQUEST\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400") or raw.startswith(b"HTTP/1.1 501")

    def test_head_sends_headers_only(self):
        rt, server = self.make()
        raw = self.run_request(rt, server, b"HEAD /data.bin HTTP/1.0\r\n\r\n")
        header, _, body = raw.partition(b"\r\n\r\n")
        assert b"Content-Length: 5000" in header
        assert body == b""

    def test_keep_alive_serves_multiple_requests(self):
        rt, server = self.make()
        raw = self.run_request(
            rt, server,
            b"GET /index.html HTTP/1.1\r\n\r\n"
            b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n",
            reads=2,
        )
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert server.stats.requests == 2

    def test_cache_hit_skips_disk(self):
        rt, server = self.make()
        self.run_request(rt, server, b"GET /data.bin HTTP/1.0\r\n\r\n")
        disk_after_first = rt.kernel.disk.stats.completed
        assert disk_after_first > 0
        # Same runtime, second client: served from the app cache.
        raw = self.run_request(rt, server, b"GET /data.bin HTTP/1.0\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 200")
        assert rt.kernel.disk.stats.completed == disk_after_first
        assert server.cache.hits >= 1

    def test_zero_cache_always_hits_disk(self):
        rt, server = self.make(cache_bytes=0)
        self.run_request(rt, server, b"GET /data.bin HTTP/1.0\r\n\r\n")
        first = rt.kernel.disk.stats.completed
        self.run_request(rt, server, b"GET /data.bin HTTP/1.0\r\n\r\n")
        assert rt.kernel.disk.stats.completed > first


class TestAppTcpLayerServer:
    """The same server code over the application-level TCP stack —
    the paper's 'editing one line of code'."""

    def make_world(self):
        rt = SimRuntime(uncaught="store")
        make_site(rt, {"index.html": 1200})
        clock = rt.kernel.clock
        link = DuplexPacketLink(clock, 12.5e6, 0.001, seed=3)
        server_stack = TcpStack(clock, "server", TcpParams(), seed=1)
        client_stack = TcpStack(clock, "client", TcpParams(), seed=2)
        connect_stacks(client_stack, server_stack, link)
        ssock = TcpSockets(server_stack)
        csock = TcpSockets(client_stack)
        server = WebServer(ssock, server_stack.listen(80), rt.kernel.fs)
        return rt, server, csock

    def test_get_over_app_tcp(self):
        rt, server, csock = self.make_world()
        responses = []

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.send(
                conn, b"GET /index.html HTTP/1.0\r\n\r\n"
            )
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
        assert raw.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Length: 1200" in raw

    def test_concurrent_clients_over_app_tcp(self):
        rt, server, csock = self.make_world()
        done = []

        @do
        def client(i):
            conn = yield csock.connect("server", 80)
            yield csock.send(conn, b"GET /index.html HTTP/1.0\r\n\r\n")
            collected = bytearray()
            while True:
                data = yield csock.recv(conn, 65536)
                if not data:
                    break
                collected.extend(data)
            assert collected.startswith(b"HTTP/1.1 200")
            done.append(i)
            yield csock.close(conn)

        rt.spawn(server.main(), name="server")
        for i in range(8):
            rt.spawn(client(i))
        rt.run(until=lambda: len(done) == 8)
        assert sorted(done) == list(range(8))


class TestApacheBaseline:
    def make(self, files=None, workers=4):
        rt = SimRuntime(uncaught="store")  # reuse its kernel only
        kernel = rt.kernel
        make_site(rt, files or {"index.html": 700})
        listener = kernel.net.listen()
        nptl = NptlSim(kernel)
        clients = NptlSim(kernel, charge_cpu=False)
        server = ApacheLikeServer(
            kernel, nptl, kernel.fs, listener, workers=workers
        )
        server.start()
        return kernel, nptl, clients, listener, server

    @staticmethod
    def client_gen(kernel, listener, raw_request, responses):
        conn = yield KConnect(listener)
        sent = 0
        while sent < len(raw_request):
            sent += yield KWrite(conn, raw_request[sent:])
        collected = bytearray()
        while True:
            data = yield KRead(conn, 65536)
            if not data:
                break
            collected.extend(data)
        responses.append(bytes(collected))
        conn.close()

    def test_serves_file(self):
        kernel, nptl, clients, listener, server = self.make()
        responses = []
        clients.spawn(self.client_gen(
            kernel, listener,
            b"GET /index.html HTTP/1.0\r\n\r\n", responses,
        ))

        run_sims(kernel, [nptl, clients], done=lambda: bool(responses))
        assert responses and responses[0].startswith(b"HTTP/1.1 200 OK")
        assert server.stats.responses_ok == 1

    def test_404(self):
        kernel, nptl, clients, listener, server = self.make()
        responses = []
        clients.spawn(self.client_gen(
            kernel, listener, b"GET /nope HTTP/1.0\r\n\r\n", responses,
        ))
        run_sims(kernel, [nptl, clients], done=lambda: bool(responses))
        assert responses and responses[0].startswith(b"HTTP/1.1 404")
