"""Monadic threads speaking through the application-level TCP stack.

This is the paper's full vertical: ``@do`` threads -> library system
calls -> TCP engine -> lossy packet link -> peer stack -> callbacks ->
thread resumption.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.syscalls import sys_fork
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.net import DuplexPacketLink
from repro.tcp.socket_api import TcpSockets
from repro.tcp.stack import TcpError, TcpParams, TcpStack, connect_stacks


def make_world(loss=0.0, seed=0):
    """One runtime hosting two stacks (client host, server host)."""
    rt = SimRuntime()
    clock = rt.kernel.clock
    link = DuplexPacketLink(
        clock, bandwidth=12.5e6, latency=0.001, loss=loss, seed=seed
    )
    server_stack = TcpStack(clock, "server", TcpParams(), seed=1)
    client_stack = TcpStack(clock, "client", TcpParams(), seed=2)
    connect_stacks(client_stack, server_stack, link)
    server_sock = TcpSockets(server_stack)
    client_sock = TcpSockets(client_stack)
    return rt, server_sock, client_sock


class TestMonadicSockets:
    def test_echo_roundtrip(self):
        rt, ssock, csock = make_world()
        replies = []

        @do
        def server():
            listener = yield ssock.listen(80)
            conn = yield ssock.accept(listener)
            data = yield ssock.recv_exact(conn, 5)
            yield ssock.send(conn, data.upper())
            yield ssock.close(conn)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.send(conn, b"hello")
            reply = yield csock.recv_exact(conn, 5)
            replies.append(reply)
            yield csock.close(conn)

        rt.spawn(server())
        rt.spawn(client())
        rt.run(until=lambda: bool(replies))
        assert replies == [b"HELLO"]

    def test_many_concurrent_connections(self):
        rt, ssock, csock = make_world()
        done = []

        @do
        def handler(conn):
            data = yield ssock.recv_exact(conn, 8)
            yield ssock.send(conn, data[::-1])
            yield ssock.close(conn)

        @do
        def server():
            listener = yield ssock.listen(80, backlog=64)
            while True:
                conn = yield ssock.accept(listener)
                yield sys_fork(handler(conn))

        @do
        def client(i):
            conn = yield csock.connect("server", 80)
            msg = b"%07d!" % i
            yield csock.send(conn, msg)
            reply = yield csock.recv_exact(conn, 8)
            assert reply == msg[::-1]
            done.append(i)
            yield csock.close(conn)

        rt.spawn(server())
        count = 20
        for i in range(count):
            rt.spawn(client(i))
        rt.run(until=lambda: len(done) == count)
        assert sorted(done) == list(range(count))

    def test_bulk_transfer_over_lossy_link(self):
        rt, ssock, csock = make_world(loss=0.05, seed=7)
        payload = bytes((i * 13) % 256 for i in range(80_000))
        received = []

        @do
        def server():
            listener = yield ssock.listen(80)
            conn = yield ssock.accept(listener)
            data = yield ssock.recv_exact(conn, len(payload))
            received.append(data)
            yield ssock.close(conn)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            yield csock.send(conn, payload)
            yield csock.close(conn)

        rt.spawn(server())
        rt.spawn(client())
        rt.run(until=lambda: bool(received))
        assert received[0] == payload

    def test_connect_refused_raises_in_thread(self):
        rt, _ssock, csock = make_world()
        outcome = []

        @do
        def client():
            try:
                yield csock.connect("server", 12345)
            except OSError as exc:
                outcome.append(type(exc).__name__)

        rt.spawn(client())
        rt.run(until=lambda: bool(outcome))
        assert outcome == ["ConnectionReset"]

    def test_eof_recv_returns_empty(self):
        rt, ssock, csock = make_world()
        got = []

        @do
        def server():
            listener = yield ssock.listen(80)
            conn = yield ssock.accept(listener)
            yield ssock.close(conn)

        @do
        def client():
            conn = yield csock.connect("server", 80)
            data = yield csock.recv(conn, 100)
            got.append(data)
            yield csock.close(conn)

        rt.spawn(server())
        rt.spawn(client())
        rt.run(until=lambda: bool(got))
        assert got == [b""]


class TestCallTimeErrors:
    """An error the stack raises when called is thrown in the calling
    thread, where its ``except`` can catch it; ``rt.run`` returns."""

    def test_second_listen_on_a_port_raises_in_thread(self):
        rt, ssock, _csock = make_world()
        caught = []

        @do
        def server():
            yield ssock.listen(80)
            try:
                yield ssock.listen(80)
            except TcpError as exc:
                caught.append(str(exc))

        rt.spawn(server())
        rt.run()
        assert caught == ["port 80 already listening"]

    def test_connect_without_a_route_raises_in_thread(self):
        rt, _ssock, csock = make_world()
        caught = []

        @do
        def client():
            try:
                yield csock.connect("nowhere", 80)
            except TcpError as exc:
                caught.append(str(exc))

        rt.spawn(client())
        rt.run()
        assert caught == ["no route to 'nowhere'"]
