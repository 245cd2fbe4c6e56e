"""Full-vertical integration: HTTP over app-level TCP over lossy links,
concurrent mixed workloads, cancellation during I/O, failure injection."""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.exceptions import ThreadKilled
from repro.core.sync import Semaphore
from repro.core.syscalls import sys_aio_read, sys_blio, sys_fork, sys_sleep
from repro.http.message import HttpError
from repro.http.server import WebServer
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.net import DuplexPacketLink
from repro.tcp.socket_api import TcpSockets
from repro.tcp.stack import TcpParams, TcpStack, connect_stacks


def make_tcp_world(rt, loss=0.0, seed=0):
    clock = rt.kernel.clock
    link = DuplexPacketLink(
        clock, bandwidth=12.5e6, latency=0.001, loss=loss, seed=seed
    )
    server_stack = TcpStack(clock, "server", TcpParams(), seed=1)
    client_stack = TcpStack(clock, "client", TcpParams(), seed=2)
    connect_stacks(client_stack, server_stack, link)
    return TcpSockets(server_stack), TcpSockets(client_stack)


class TestHttpOverLossyTcp:
    """The complete paper stack: monadic HTTP server -> socket system
    calls -> TCP engine -> lossy packet link, with AIO disk reads
    underneath."""

    def fetch_over_tcp(self, loss, seed=11, n_clients=4):
        rt = SimRuntime(uncaught="store")
        rt.kernel.fs.create_file("page.html", 24_000)
        ssock, csock = make_tcp_world(rt, loss=loss, seed=seed)
        server = WebServer(ssock, ssock.stack.listen(80), rt.kernel.fs)
        rt.spawn(server.main(), name="server")
        bodies = []

        @do
        def client(i):
            conn = yield csock.connect("server", 80)
            yield csock.send(
                conn, b"GET /page.html HTTP/1.0\r\n\r\n"
            )
            collected = bytearray()
            while True:
                data = yield csock.recv(conn, 65536)
                if not data:
                    break
                collected.extend(data)
            bodies.append(bytes(collected))
            yield csock.close(conn)

        for i in range(n_clients):
            rt.spawn(client(i), name=f"client-{i}")
        rt.run(until=lambda: len(bodies) == n_clients)
        return rt, bodies

    def test_clean_link(self):
        rt, bodies = self.fetch_over_tcp(loss=0.0)
        expected = rt.kernel.fs.open("page.html").content_at(0, 24_000)
        for raw in bodies:
            header, _, body = raw.partition(b"\r\n\r\n")
            assert header.startswith(b"HTTP/1.1 200 OK")
            assert body == expected

    def test_five_percent_loss(self):
        rt, bodies = self.fetch_over_tcp(loss=0.05)
        expected = rt.kernel.fs.open("page.html").content_at(0, 24_000)
        for raw in bodies:
            _header, _, body = raw.partition(b"\r\n\r\n")
            assert body == expected

    def test_disk_cache_and_tcp_compose(self):
        rt, bodies = self.fetch_over_tcp(loss=0.02, n_clients=6)
        # At least one request was served from cache (same file).
        from_server_cache = [b for b in bodies if b]
        assert len(from_server_cache) == 6
        assert rt.kernel.disk.stats.completed >= 1


class TestMixedWorkload:
    """Disk AIO + pipes + timers + TCP, all interleaving on one runtime."""

    def test_everything_at_once(self):
        rt = SimRuntime(uncaught="store")
        rt.kernel.fs.create_file("blob", 256 * 1024)
        handle = rt.kernel.fs.open("blob")
        ssock, csock = make_tcp_world(rt, loss=0.01, seed=5)
        outcomes = {}

        @do
        def disk_reader():
            total = 0
            for i in range(16):
                data = yield sys_aio_read(handle, i * 4096, 4096)
                total += len(data)
            outcomes["disk"] = total

        @do
        def pipe_pair():
            r, w = rt.kernel.make_pipe()

            @do
            def writer():
                yield rt.io.write_all(w, b"p" * 20_000)

            yield sys_fork(writer())
            data = yield rt.io.read_exact(r, 20_000)
            outcomes["pipe"] = len(data)

        @do
        def timer_chain():
            ticks = 0
            for _ in range(10):
                yield sys_sleep(0.01)
                ticks += 1
            outcomes["timer"] = ticks

        @do
        def tcp_echo_server():
            listener = yield ssock.listen(7)
            conn = yield ssock.accept(listener)
            data = yield ssock.recv_exact(conn, 5000)
            yield ssock.send(conn, data)
            yield ssock.close(conn)

        @do
        def tcp_client():
            conn = yield csock.connect("server", 7)
            payload = bytes(i % 251 for i in range(5000))
            yield csock.send(conn, payload)
            echoed = yield csock.recv_exact(conn, 5000)
            outcomes["tcp"] = echoed == payload
            yield csock.close(conn)

        rt.spawn(disk_reader())
        rt.spawn(pipe_pair())
        rt.spawn(timer_chain())
        rt.spawn(tcp_echo_server())
        rt.spawn(tcp_client())
        rt.run(until=lambda: len(outcomes) == 4)
        assert outcomes == {
            "disk": 16 * 4096,
            "pipe": 20_000,
            "timer": 10,
            "tcp": True,
        }


class TestCancellation:
    def test_kill_thread_blocked_on_disk(self):
        rt = SimRuntime(uncaught="store")
        rt.kernel.fs.create_file("f", 64 * 1024)
        handle = rt.kernel.fs.open("f")
        cleanup = []

        @do
        def victim():
            try:
                while True:
                    yield sys_aio_read(handle, 0, 4096)
            finally:
                cleanup.append("ran")

        tcb = rt.spawn(victim())
        rt.run(until=lambda: rt.kernel.disk.stats.completed >= 2)
        rt.sched.kill(tcb)
        rt.run(until=lambda: tcb.state in ("done", "failed"))
        assert tcb.state == "failed"
        assert isinstance(tcb.error, ThreadKilled)
        assert cleanup == ["ran"]

    def test_kill_does_not_disturb_others(self):
        rt = SimRuntime(uncaught="store")
        survivors = []

        @do
        def victim():
            yield sys_sleep(100.0)

        @do
        def survivor(i):
            yield sys_sleep(0.5)
            survivors.append(i)

        victim_tcb = rt.spawn(victim())
        for i in range(5):
            rt.spawn(survivor(i))
        rt.sched.kill(victim_tcb)
        rt.run(until=lambda: len(survivors) == 5)
        assert sorted(survivors) == list(range(5))


class TestServerErrorPaths:
    def test_http_error_thread_isolated(self):
        """One client sending garbage must not affect another mid-flight."""
        rt = SimRuntime(uncaught="store")
        rt.kernel.fs.create_file("ok.html", 100)
        listener = rt.kernel.net.listen()
        server = WebServer(rt.io, listener, rt.kernel.fs)
        rt.spawn(server.main())
        results = {}

        @do
        def bad_client():
            conn = yield rt.io.connect(listener)
            yield rt.io.write_all(conn, b"\x00\x01GARBAGE\r\n\r\n")
            data = yield rt.io.read(conn, 4096)
            results["bad"] = bytes(data)
            yield rt.io.close(conn)

        @do
        def good_client():
            conn = yield rt.io.connect(listener)
            yield rt.io.write_all(conn, b"GET /ok.html HTTP/1.0\r\n\r\n")
            collected = bytearray()
            while True:
                data = yield rt.io.read(conn, 4096)
                if not data:
                    break
                collected.extend(data)
            results["good"] = bytes(collected)
            yield rt.io.close(conn)

        rt.spawn(bad_client())
        rt.spawn(good_client())
        rt.run(until=lambda: len(results) == 2)
        assert results["bad"].startswith(b"HTTP/1.1 4") or results[
            "bad"
        ].startswith(b"HTTP/1.1 5")
        assert results["good"].startswith(b"HTTP/1.1 200")

    def test_blio_failure_surfaces_as_http_500_path(self):
        """A blocking-pool failure propagates as a monadic exception that
        the per-client handler can turn into a response."""
        rt = SimRuntime(uncaught="store")

        @do
        def worker():
            try:
                yield sys_blio(lambda: (_ for _ in ()).throw(OSError("disk")))
            except OSError as exc:
                return f"handled {exc}"

        tcb = rt.spawn(worker())
        rt.run()
        assert tcb.result == "handled disk"

    def test_semaphore_bounds_concurrent_aio(self):
        """Resource-aware pattern: a semaphore capping in-flight disk I/O."""
        rt = SimRuntime()
        rt.kernel.fs.create_file("f", 10 * 1024 * 1024)
        handle = rt.kernel.fs.open("f")
        gate = Semaphore(4)
        done = []

        @do
        def reader(i):
            yield gate.acquire()
            try:
                yield sys_aio_read(handle, i * 4096, 4096)
            finally:
                yield gate.release()
            done.append(i)

        for i in range(32):
            rt.spawn(reader(i))
        rt.run()
        assert len(done) == 32
        assert rt.kernel.disk.stats.max_queue_depth <= 4
