"""The outbound connection pool: leases, handoff, health, timeouts.

All tests run on the live runtime — the pool's connect watchdog and
dead-upstream detection depend on real non-blocking connect semantics
(``EINPROGRESS`` + ``SO_ERROR``), which the simulated stack does not
model.  A kernel listen backlog completes TCP handshakes without an
accept loop, so most tests need no server thread at all.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.do_notation import do
from repro.core.syscalls import sys_sleep
from repro.core.thread import join_all, spawn
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.pool import (
    ConnectionPool,
    PoolClosed,
    PoolTimeout,
    UpstreamDown,
)


@pytest.fixture
def rt():
    runtime = LiveRuntime()
    yield runtime
    runtime.shutdown()


def run(rt, comp, timeout=10.0):
    done = []

    @do
    def driver():
        yield comp
        done.append(True)

    rt.spawn(driver(), name="driver")
    rt.run(until=lambda: bool(done), idle_timeout=timeout)
    assert done, "driver did not finish"


def make_pool(rt, listener, **kwargs) -> ConnectionPool:
    kwargs.setdefault("probe_interval", 0.05)
    return ConnectionPool(
        rt.io, rt.timers, listener.getsockname(), **kwargs
    )


class TestLeasing:
    def test_release_idles_and_reacquire_reuses(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=2)
        seen = []

        @do
        def body():
            first = yield pool.acquire()
            yield pool.release(first)
            second = yield pool.acquire()
            seen.append(second is first)
            yield pool.release(second)
            yield pool.close()

        run(rt, body())
        listener.close()
        assert seen == [True]
        assert pool.dials == 1
        assert pool.reuses == 1
        assert pool.reuse_ratio == 0.5  # 1 of 2 leases reused

    def test_parked_acquire_gets_direct_handoff(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=1)
        order = []

        @do
        def holder():
            pc = yield pool.acquire()
            order.append("leased")
            yield sys_sleep(0.05)
            order.append("released")
            yield pool.release(pc)

        @do
        def waiter():
            yield sys_sleep(0.01)  # ensure the holder wins the slot
            pc = yield pool.acquire()
            order.append("handed")
            yield pool.release(pc)

        @do
        def body():
            handles = []
            for comp in (holder(), waiter()):
                handle = yield spawn(comp)
                handles.append(handle)
            yield join_all(handles)
            yield pool.close()

        run(rt, body())
        listener.close()
        assert order == ["leased", "released", "handed"]
        assert pool.dials == 1  # the waiter inherited the socket
        assert pool.handoffs == 1

    def test_exhaustion_parks_then_times_out_cleanly(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=1)
        outcome = []

        @do
        def body():
            pc = yield pool.acquire()  # hold the only slot
            try:
                yield pool.acquire(timeout=0.05)
            except PoolTimeout as exc:
                outcome.append(exc)
            yield pool.release(pc)
            yield pool.close()

        run(rt, body())
        listener.close()
        assert len(outcome) == 1
        assert pool.lease_timeouts == 1
        # The post-timeout pool is healthy: the held lease came back.
        assert pool.leased == 0
        assert pool.waiting == 0

    def test_discard_hands_waiter_a_fresh_dial(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=1)
        results = []

        @do
        def holder():
            pc = yield pool.acquire()
            yield sys_sleep(0.03)
            yield pool.release(pc, discard=True)  # judged broken

        @do
        def waiter():
            yield sys_sleep(0.01)
            pc = yield pool.acquire()
            results.append(pc)
            yield pool.release(pc)

        @do
        def body():
            handles = []
            for comp in (holder(), waiter()):
                handle = yield spawn(comp)
                handles.append(handle)
            yield join_all(handles)
            yield pool.close()

        run(rt, body())
        listener.close()
        assert len(results) == 1
        assert pool.dials == 2  # discard forced a fresh socket
        assert pool.discards == 1
        assert pool.reuses == 0


class TestHealth:
    def test_dead_upstream_latches_down_and_fails_fast(self, rt):
        # Reserve a port with no listener behind it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        pool = ConnectionPool(
            rt.io, rt.timers, address, size=2,
            connect_timeout=0.5, probe_interval=10.0,
        )
        errors = []

        @do
        def body():
            for _ in range(2):
                try:
                    yield pool.acquire()
                except UpstreamDown as exc:
                    errors.append(exc)
            yield pool.close()

        run(rt, body())
        assert len(errors) == 2
        assert pool.downs == 1
        assert pool.dials == 1  # the second acquire failed fast, no dial

    def test_reprobe_readmits_a_recovered_upstream(self, rt):
        placeholder = socket.socket()
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        pool = ConnectionPool(
            rt.io, rt.timers, address, size=2,
            connect_timeout=0.5, probe_interval=0.05,
        )
        stages = []
        revived = []

        @do
        def body():
            try:
                yield pool.acquire()
            except UpstreamDown:
                stages.append("down")
            # Bring the upstream back and wait for the probe to land.
            revived.append(make_listener(address[0], address[1]))
            for _ in range(100):
                if not pool.down:
                    break
                yield sys_sleep(0.02)
            stages.append("up" if not pool.down else "still-down")
            pc = yield pool.acquire()
            yield pool.release(pc)
            yield pool.close()

        run(rt, body())
        revived[0].close()
        assert stages == ["down", "up"]
        assert pool.readmissions == 1
        assert pool.probes >= 1

    def test_down_broadcast_fails_parked_waiters(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=1, probe_interval=10.0)
        failures = []

        @do
        def parked():
            yield sys_sleep(0.01)
            try:
                yield pool.acquire(timeout=5.0)
            except UpstreamDown as exc:
                failures.append(exc)

        @do
        def body():
            pc = yield pool.acquire()
            handle = yield spawn(parked())
            yield sys_sleep(0.05)  # let the waiter park
            yield pool._mark_down(OSError("injected"))
            yield handle.join()
            yield pool.release(pc)
            yield pool.close()

        run(rt, body())
        listener.close()
        assert len(failures) == 1
        assert pool.lease_timeouts == 0  # failed fast, not by timeout


class TestLifecycle:
    def test_idle_reaper_evicts_stale_connections(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=2, idle_timeout=0.05)

        @do
        def body():
            pc = yield pool.acquire()
            yield pool.release(pc)
            for _ in range(100):
                if pool.idle == 0:
                    break
                yield sys_sleep(0.02)
            yield pool.close()

        run(rt, body())
        listener.close()
        assert pool.evicted_idle == 1
        assert pool.idle == 0

    def test_close_fails_parked_waiters(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener, size=1)
        failures = []

        @do
        def parked():
            yield sys_sleep(0.01)
            try:
                yield pool.acquire(timeout=5.0)
            except PoolClosed as exc:
                failures.append(exc)

        @do
        def body():
            pc = yield pool.acquire()
            handle = yield spawn(parked())
            yield sys_sleep(0.05)
            yield pool.close()
            yield handle.join()
            yield pool.release(pc)  # late release after close: no error

        run(rt, body())
        listener.close()
        assert len(failures) == 1
        assert pool.closed

    def test_acquire_after_close_raises(self, rt):
        listener = make_listener()
        pool = make_pool(rt, listener)
        errors = []

        @do
        def body():
            yield pool.close()
            try:
                yield pool.acquire()
            except PoolClosed as exc:
                errors.append(exc)

        run(rt, body())
        listener.close()
        assert len(errors) == 1

    def test_no_timer_thread_per_lease(self, rt):
        # The PR-5 assertion, applied to leases: N acquire/release
        # cycles (each arming a lease or connect deadline on the wheel)
        # fork zero per-lease timer threads.
        names: list = []
        original = rt.sched._new_tcb

        def recording(name):
            names.append(name)
            return original(name)

        rt.sched._new_tcb = recording
        listener = make_listener()
        pool = make_pool(rt, listener, size=2)

        @do
        def body():
            for _ in range(20):
                pc = yield pool.acquire()
                yield pool.release(pc)
            yield pool.close()

        run(rt, body())
        listener.close()
        spawned = [name for name in names if name]
        assert not any("sweeper" in name for name in spawned)
        assert not any("watchdog" in name for name in spawned)
        assert not any("timer" in name or "sleeper" in name
                       for name in spawned)
