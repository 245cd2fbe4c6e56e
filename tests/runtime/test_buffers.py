"""The pooled receive-buffer subsystem: lease/release discipline.

Unit level exercises :class:`~repro.runtime.buffers.BufferPool` directly;
the monadic level drives :meth:`NetIO.read_pooled` against fake backends
to pin the leak-freedom claims — a lease is released on EOF, on
connection error, while parked for readiness (idle keep-alive pins zero
buffers), and under abandonment (``GeneratorExit``).
"""

from __future__ import annotations

import socket

from repro.core.do_notation import do
from repro.core.scheduler import run_threads
from repro.runtime.buffers import BufferPool
from repro.runtime.io_api import NetIO
from repro.runtime.live_runtime import LiveRuntime
from repro.simos.errors import WOULD_BLOCK


class TestBufferPool:
    def test_lease_allocates_then_reuses(self):
        pool = BufferPool(buffer_bytes=128)
        lease = pool.lease()
        assert len(lease.data) == 128
        lease.release()
        again = pool.lease()
        again.release()
        stats = pool.stats()
        assert stats["allocations"] == 1
        assert stats["leases"] == 2
        assert stats["reuses"] == 1
        assert stats["in_use"] == 0
        assert stats["pooled"] == 1

    def test_release_is_idempotent(self):
        pool = BufferPool(buffer_bytes=64)
        lease = pool.lease()
        lease.release()
        lease.release()
        assert pool.stats()["releases"] == 1
        assert pool.pooled == 1

    def test_data_detached_after_release(self):
        pool = BufferPool(buffer_bytes=64)
        lease = pool.lease()
        lease.release()
        assert lease.data is None  # use-after-release fails loudly

    def test_high_water_tracks_concurrent_leases(self):
        pool = BufferPool(buffer_bytes=32)
        leases = [pool.lease() for _ in range(5)]
        assert pool.stats()["high_water"] == 5
        for lease in leases:
            lease.release()
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["high_water"] == 5

    def test_free_list_is_bounded(self):
        pool = BufferPool(buffer_bytes=32, max_pooled=2)
        leases = [pool.lease() for _ in range(4)]
        for lease in leases:
            lease.release()
        stats = pool.stats()
        assert stats["pooled"] == 2
        assert stats["discarded"] == 2

    def test_release_with_exported_view(self):
        # ``del bytearray[:n]``-style invalidation aside, the real
        # hazard is returning a buffer to the pool while a memoryview
        # still pins it; release must drop tracked views first.
        pool = BufferPool(buffer_bytes=64)
        lease = pool.lease()
        view = lease.view(10)
        view[:3] = b"abc"
        lease.release()  # must not raise BufferError
        assert pool.pooled == 1

    def test_buffers_are_reused_not_reallocated(self):
        pool = BufferPool(buffer_bytes=64)
        lease = pool.lease()
        first = id(lease.data)
        lease.release()
        again = pool.lease()
        assert id(again.data) == first
        again.release()


class _RecvIntoBackend:
    """Feeds scripted results through ``nb_recv_into``; records how many
    syscalls ran and tolerates readiness parks."""

    def __init__(self, script):
        #: Each entry: bytes to deliver, WOULD_BLOCK, or an exception.
        self.script = list(script)
        self.recv_into_calls = 0
        self.waits = 0

    def nb_recv_into(self, fd, buf):
        self.recv_into_calls += 1
        item = self.script.pop(0)
        if isinstance(item, BaseException):
            raise item
        if item is WOULD_BLOCK:
            return WOULD_BLOCK
        buf[: len(item)] = item
        return len(item)

    def nb_epoll_wait(self, fd, events):
        self.waits += 1
        return True


def _run(comp):
    run_threads([comp])


class TestReadPooled:
    def test_recv_lands_in_leased_buffer(self):
        backend = _RecvIntoBackend([b"hello world"])
        io = NetIO(backend)
        pool = BufferPool(buffer_bytes=64)
        results = []

        @do
        def reader():
            lease, count = yield io.read_pooled("fd", pool)
            results.append(bytes(lease.data[:count]))
            lease.release()

        _run(reader())
        assert results == [b"hello world"]
        assert backend.recv_into_calls == 1
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["allocations"] == 1

    def test_lease_released_while_parked(self):
        # The whole point of lease-around-park: an idle connection
        # waiting for readiness holds NO buffer.  The fake backend
        # reports WOULD_BLOCK, the real fd stays unreadable, so the
        # reader parks on epoll — with zero buffers pinned.
        backend = _RecvIntoBackend([WOULD_BLOCK, b"late"])
        io = NetIO(backend)
        pool = BufferPool(buffer_bytes=64)
        rt = LiveRuntime(uncaught="store")
        left, right = socket.socketpair()
        right.setblocking(False)
        try:
            results = []

            @do
            def reader():
                lease, count = yield io.read_pooled(right, pool)
                results.append(bytes(lease.data[:count]))
                lease.release()

            rt.spawn(reader(), name="reader")
            rt.run(until=lambda: backend.recv_into_calls >= 1,
                   idle_timeout=5.0)
            # Parked for readiness now: the lease went back to the pool.
            assert not results
            assert pool.stats()["in_use"] == 0
            left.send(b"late")  # wake the park; the fake delivers
            rt.run(until=lambda: bool(results), idle_timeout=5.0)
            assert results == [b"late"]
            assert backend.recv_into_calls == 2
            assert pool.stats()["in_use"] == 0
            assert pool.stats()["leases"] == 2  # re-leased after the park
        finally:
            left.close()
            right.close()
            rt.shutdown()

    def test_lease_released_on_connection_error(self):
        backend = _RecvIntoBackend([ConnectionResetError("gone")])
        io = NetIO(backend)
        pool = BufferPool(buffer_bytes=64)
        failures = []

        @do
        def reader():
            try:
                yield io.read_pooled("fd", pool)
            except ConnectionResetError as exc:
                failures.append(exc)

        _run(reader())
        assert len(failures) == 1
        assert pool.stats()["in_use"] == 0
        assert pool.pooled == 1  # the buffer went back, not leaked

    def test_lease_released_on_base_exception(self):
        # The guard is ``except BaseException`` for a reason: whatever
        # tears through the read while the lease is held (GeneratorExit
        # under abandonment, KeyboardInterrupt, ...) must still return
        # the buffer to the pool — even when the scheduler propagates
        # it raw instead of delivering it monadically.
        class _Teardown(BaseException):
            pass

        backend = _RecvIntoBackend([_Teardown()])
        io = NetIO(backend)
        pool = BufferPool(buffer_bytes=64)
        failures = []

        @do
        def reader():
            try:
                yield io.read_pooled("fd", pool)
            except _Teardown as exc:
                failures.append(exc)

        _run(reader())
        assert len(failures) == 1
        assert pool.stats()["in_use"] == 0
        assert pool.pooled == 1

    def test_eof_returns_zero_count_with_live_lease(self):
        backend = _RecvIntoBackend([b""])
        io = NetIO(backend)
        pool = BufferPool(buffer_bytes=64)
        results = []

        @do
        def reader():
            lease, count = yield io.read_pooled("fd", pool)
            results.append(count)
            lease.release()

        _run(reader())
        assert results == [0]
        assert pool.stats()["in_use"] == 0
