"""The simulated runtime: device syscalls, I/O wrappers, cost accounting."""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.events import EVENT_READ, EVENT_WRITE
from repro.core.exceptions import DeadlockError
from repro.core.syscalls import (
    sys_aio_read,
    sys_blio,
    sys_epoll_wait,
    sys_fork,
    sys_now,
    sys_sleep,
)
from repro.runtime.io_api import ConnectionClosed
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.params import SimParams


class TestTimers:
    def test_sleep_advances_virtual_time(self):
        rt = SimRuntime()

        @do
        def sleeper():
            before = yield sys_now()
            yield sys_sleep(2.5)
            after = yield sys_now()
            return after - before

        tcb = rt.spawn(sleeper())
        rt.run()
        assert tcb.result >= 2.5

    def test_many_sleepers_ordered(self):
        rt = SimRuntime()
        log = []

        @do
        def sleeper(delay, tag):
            yield sys_sleep(delay)
            log.append(tag)

        rt.spawn(sleeper(0.3, "c"))
        rt.spawn(sleeper(0.1, "a"))
        rt.spawn(sleeper(0.2, "b"))
        rt.run()
        assert log == ["a", "b", "c"]

    def test_until_condition_stops_early(self):
        rt = SimRuntime()
        ticks = []

        @do
        def ticker():
            while True:
                yield sys_sleep(1.0)
                ticks.append(1)

        rt.spawn(ticker())
        rt.run(until=lambda: len(ticks) >= 3)
        assert len(ticks) == 3

    def test_deadlock_detected(self):
        rt = SimRuntime()

        @do
        def stuck():
            yield sys_epoll_wait(rt.kernel.make_pipe()[0], EVENT_READ)

        rt.spawn(stuck())
        with pytest.raises(DeadlockError):
            rt.run()


class TestEpollPath:
    def test_epoll_wait_wakes_on_write(self):
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()
        log = []

        @do
        def reader():
            mask = yield sys_epoll_wait(r, EVENT_READ)
            log.append(("ready", mask & EVENT_READ != 0))
            data = r.read(100)
            log.append(("data", data))

        @do
        def writer():
            yield sys_sleep(0.5)
            w.write(b"wake up")

        rt.spawn(reader())
        rt.spawn(writer())
        rt.run()
        assert log == [("ready", True), ("data", b"wake up")]

    def test_epoll_wait_on_a_readable_descriptor_resumes_at_once(self):
        # Readiness is level-triggered, as on the live pollers: the mesh
        # frame reader parks *before* reading when it believes the
        # socket is empty, so data that raced the park must wake it.
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()
        w.write(b"already here")
        log = []

        @do
        def reader():
            before = rt.kernel.clock.now
            mask = yield sys_epoll_wait(r, EVENT_READ)
            log.append((bool(mask & EVENT_READ), r.read(100)))
            # No timer, no writer: only the pending readiness woke us.
            assert rt.kernel.clock.now - before < 0.001

        rt.spawn(reader())
        rt.run()  # would raise DeadlockError if the wait parked for good
        assert log == [(True, b"already here")]

    def test_netio_read_write_roundtrip(self):
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()
        got = []

        @do
        def reader():
            data = yield rt.io.read_exact(r, 10)
            got.append(data)

        @do
        def writer():
            yield rt.io.write_all(w, b"0123456789")

        rt.spawn(reader())
        rt.spawn(writer())
        rt.run()
        assert got == [b"0123456789"]

    def test_netio_moves_more_than_buffer(self):
        """32KB through a 4KB pipe: the Figure 18 inner loop."""
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()
        message = b"m" * (32 * 1024)
        got = []

        @do
        def reader():
            data = yield rt.io.read_exact(r, len(message))
            got.append(data)

        @do
        def writer():
            yield rt.io.write_all(w, message)

        rt.spawn(reader())
        rt.spawn(writer())
        rt.run()
        assert got == [message]
        assert rt.stats()["epoll_registrations"] > 0

    def test_read_eof(self):
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()

        @do
        def reader():
            data = yield rt.io.read(r, 100)
            return data

        @do
        def closer():
            yield sys_sleep(0.1)
            w.close()

        tcb = rt.spawn(reader())
        rt.spawn(closer())
        rt.run()
        assert tcb.result == b""

    def test_read_exact_raises_on_short_stream(self):
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()

        @do
        def reader():
            try:
                yield rt.io.read_exact(r, 100)
            except ConnectionClosed:
                return "short"

        @do
        def writer():
            w.write(b"only five")
            w.close()
            yield sys_sleep(0)

        tcb = rt.spawn(reader())
        rt.spawn(writer())
        rt.run()
        assert tcb.result == "short"

    def test_accept_and_echo_over_sim_sockets(self):
        rt = SimRuntime()
        listener = rt.kernel.net.listen()
        results = []

        @do
        def server():
            conn = yield rt.io.accept(listener)
            data = yield rt.io.read_exact(conn, 5)
            yield rt.io.write_all(conn, data.upper())
            yield rt.io.close(conn)

        @do
        def client():
            conn = yield rt.io.connect(listener)
            yield rt.io.write_all(conn, b"hello")
            reply = yield rt.io.read_exact(conn, 5)
            results.append(reply)

        rt.spawn(server())
        rt.spawn(client())
        rt.run()
        assert results == [b"HELLO"]


class TestAioPath:
    def make_runtime_with_file(self, size=1024 * 1024):
        rt = SimRuntime()
        rt.kernel.fs.create_file("blob", size)
        return rt, rt.kernel.fs.open("blob")

    def test_aio_read_returns_data(self):
        rt, handle = self.make_runtime_with_file()

        @do
        def reader():
            data = yield sys_aio_read(handle, 4096, 4096)
            return data

        tcb = rt.spawn(reader())
        rt.run()
        assert tcb.result == handle.content_at(4096, 4096)
        assert rt.kernel.disk.stats.completed == 1

    def test_concurrent_aio_readers_share_disk(self):
        rt, handle = self.make_runtime_with_file()
        done = []

        @do
        def reader(i):
            data = yield sys_aio_read(handle, i * 4096, 4096)
            done.append((i, len(data)))

        for i in range(20):
            rt.spawn(reader(i))
        rt.run()
        assert sorted(i for i, _n in done) == list(range(20))
        assert all(n == 4096 for _i, n in done)
        assert rt.kernel.disk.stats.max_queue_depth >= 10

    def test_aio_read_eof(self):
        rt, handle = self.make_runtime_with_file(size=100)

        @do
        def reader():
            data = yield sys_aio_read(handle, 200, 10)
            return data

        tcb = rt.spawn(reader())
        rt.run()
        assert tcb.result == b""


class TestBlockingPool:
    def test_blio_runs_action_and_resumes(self):
        rt = SimRuntime()
        side_effects = []

        @do
        def worker():
            value = yield sys_blio(lambda: side_effects.append("ran") or 42)
            return value

        tcb = rt.spawn(worker())
        rt.run()
        assert tcb.result == 42
        assert side_effects == ["ran"]
        assert rt.pool.completed == 1

    def test_blio_takes_virtual_time(self):
        rt = SimRuntime()

        @do
        def worker():
            yield sys_blio(lambda: None)

        rt.spawn(worker())
        rt.run()
        assert rt.kernel.clock.now >= rt.params.t_blio_handoff

    def test_pool_limits_concurrency(self):
        rt = SimRuntime(blocking_pool_size=2)
        for _ in range(10):
            rt.spawn(sys_blio(lambda: None))
        rt.run()
        assert rt.pool.completed == 10
        # 10 ops through 2 workers: at least 5 serialized handoffs.
        assert rt.kernel.clock.now >= 5 * rt.params.t_blio_handoff


class TestCostAccounting:
    def test_cpu_time_accumulates(self):
        rt = SimRuntime()
        r, w = rt.kernel.make_pipe()

        @do
        def writer():
            yield rt.io.write_all(w, b"x" * 4096)

        rt.spawn(writer())
        rt.run()
        assert rt.kernel.clock.cpu_consumed > 0

    def test_monadic_thread_ram_accounting(self):
        rt = SimRuntime()

        @do
        def idle():
            yield sys_sleep(0.1)

        before = rt.kernel.ram_used
        rt.spawn(idle())
        assert rt.kernel.ram_used == before + rt.params.monadic_thread_bytes
        rt.run()
        assert rt.kernel.ram_used == before

    def test_stats_snapshot_keys(self):
        rt = SimRuntime()
        rt.spawn(sys_sleep(0.1))
        rt.run()
        stats = rt.stats()
        for key in ("now", "cpu_consumed", "total_syscalls", "disk_completed"):
            assert key in stats


class TestManyThreads:
    def test_thousand_idle_epoll_waiters_cost_nothing(self):
        """The Figure 18 architecture claim: idle connections are free."""
        rt = SimRuntime()
        pipes = [rt.kernel.make_pipe() for _ in range(1000)]

        @do
        def idler(r):
            yield sys_epoll_wait(r, EVENT_READ)

        for r, _w in pipes:
            rt.spawn(idler(r))

        @do
        def active():
            yield sys_sleep(1.0)
            return "done"

        tcb = rt.spawn(active())
        rt.run(until=lambda: tcb.state == "done")
        # All idle waiters still parked; the active thread finished.
        assert rt.epoll.interested == 1000
        cpu = rt.kernel.clock.cpu_consumed
        assert cpu < 0.01  # registrations only, microseconds' worth

    def test_fork_storm_completes(self):
        rt = SimRuntime()
        counter = []

        @do
        def child():
            yield sys_sleep(0.001)
            counter.append(1)

        @do
        def root():
            for _ in range(500):
                yield sys_fork(child())

        rt.spawn(root())
        rt.run()
        assert len(counter) == 500
