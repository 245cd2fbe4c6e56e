"""Batched accepts: one loop wakeup drains the whole listen queue (up to
the batch cap) instead of paying a scheduler round trip per connection."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.do_notation import do
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.sim_runtime import SimRuntime


@pytest.fixture
def rt():
    runtime = LiveRuntime()
    yield runtime
    runtime.shutdown()


def _preconnect(port: int, count: int) -> list[socket.socket]:
    """Blocking connects that complete against the backlog, before any
    accept runs — a ready-made burst in the kernel queue."""
    return [
        socket.create_connection(("127.0.0.1", port), timeout=5)
        for _ in range(count)
    ]


class TestLiveAcceptBatch:
    def test_burst_drained_in_one_batch(self, rt):
        listener = make_listener()
        port = listener.getsockname()[1]
        clients = _preconnect(port, 6)
        batches = []

        @do
        def acceptor():
            batch = yield rt.io.accept_many(listener, 16)
            batches.append(batch)
            for conn in batch:
                yield rt.io.close(conn)

        rt.spawn(acceptor())
        rt.run()
        listener.close()
        for sock in clients:
            sock.close()
        assert len(batches) == 1, "burst should drain in a single wakeup"
        assert len(batches[0]) == 6

    def test_batch_cap_is_respected(self, rt):
        listener = make_listener()
        port = listener.getsockname()[1]
        clients = _preconnect(port, 6)
        batches = []

        @do
        def acceptor():
            while sum(len(batch) for batch in batches) < 6:
                batch = yield rt.io.accept_many(listener, 4)
                batches.append(batch)
                for conn in batch:
                    yield rt.io.close(conn)

        rt.spawn(acceptor())
        rt.run()
        listener.close()
        for sock in clients:
            sock.close()
        assert [len(batch) for batch in batches] == [4, 2]

    def test_parks_on_empty_queue_then_wakes(self, rt):
        listener = make_listener()
        port = listener.getsockname()[1]
        batches = []

        @do
        def acceptor():
            batch = yield rt.io.accept_many(listener, 8)
            batches.append(batch)
            for conn in batch:
                yield rt.io.close(conn)

        def late_connect():
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            sock.close()

        rt.spawn(acceptor())
        timer = threading.Timer(0.05, late_connect)
        timer.start()
        rt.run(until=lambda: bool(batches), idle_timeout=5.0)
        timer.join()
        listener.close()
        assert len(batches) == 1
        assert len(batches[0]) == 1

    def test_limit_validation(self, rt):
        listener = make_listener()
        with pytest.raises(ValueError):
            rt.io.accept_many(listener, 0)
        listener.close()


class TestSimAcceptBatch:
    def test_generic_drain_over_sim_backend(self):
        """The simulated kernel drains its accept queue through the same
        backend op as the live one: ``nb_accept_batch``, inside one nbio
        step (NetIO has no per-backend fallback to take instead)."""
        rt = SimRuntime()
        listener = rt.kernel.net.listen()
        batches = []
        echoed = []
        drains = []
        native = rt.backend.nb_accept_batch

        def counting(listener, limit):
            drains.append(limit)
            return native(listener, limit)

        rt.backend.nb_accept_batch = counting

        @do
        def server():
            batch = yield rt.io.accept_many(listener, 8)
            batches.append(batch)
            for conn in batch:
                data = yield rt.io.read_exact(conn, 2)
                echoed.append(data)
                yield rt.io.close(conn)

        @do
        def client(tag):
            conn = yield rt.io.connect(listener)
            yield rt.io.write_all(conn, tag)

        rt.spawn(server())
        for index in range(3):
            rt.spawn(client(f"c{index}".encode()))
        rt.run()
        assert sum(len(batch) for batch in batches) == 3
        assert sorted(echoed) == [b"c0", b"c1", b"c2"]
        assert drains and set(drains) == {8}
