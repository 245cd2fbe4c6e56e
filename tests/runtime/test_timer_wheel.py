"""``rt.timers``: the runtime's one deadline heap, fired by its loop.

Most tests run on :class:`~repro.runtime.sim_runtime.SimRuntime` —
virtual time makes firing order and firing *time* deterministic.  The
live tests pin what only the real loop can show: the wall clock, and a
deadline armed while the loop is blocked in ``poll``.
"""

from __future__ import annotations

import socket
import threading
import time
import types

import pytest

from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.syscalls import sys_fork, sys_now, sys_sleep, sys_yield
from repro.runtime.live_runtime import LiveRuntime
from repro.runtime.mesh import MeshPeerDown
from repro.runtime.pool import PoolTimeout
from repro.runtime.sim_runtime import SimRuntime
from repro.runtime.timer_wheel import TimerWheel
from tests.http.test_client import make_client, start_upstream
from tests.runtime.test_mesh import make_pair
from tests.runtime.test_pool import make_listener, make_pool


@pytest.fixture
def rt():
    return SimRuntime()


@pytest.fixture
def live():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def run_sim(rt, comp) -> None:
    rt.spawn(comp, name="driver")
    rt.run()


def thread_names(rt) -> list:
    """Names of every thread created on ``rt`` from now on."""
    names: list = []
    original = rt.sched._new_tcb

    def recording(name):
        names.append(name)
        return original(name)

    rt.sched._new_tcb = recording
    return names


class TestFiring:
    def test_fires_in_deadline_order_not_insertion_order(self, rt):
        wheel = rt.timers
        assert isinstance(wheel, TimerWheel)
        fired: list[str] = []

        @do
        def driver():
            # Inserted late-first: deadline order must win.
            yield wheel.schedule(0.30, lambda: fired.append("late"))
            yield wheel.schedule(0.10, lambda: fired.append("early"))
            yield wheel.schedule(0.20, lambda: fired.append("middle"))

        run_sim(rt, driver())
        assert fired == ["early", "middle", "late"]

    def test_monadic_actions_run_on_their_own_thread(self, rt):
        wheel = rt.timers
        results: list[bytes] = []

        @do
        def monadic_action():
            value = yield pure(b"ran")
            yield sys_sleep(1.0)  # may block: it delays no other timer
            results.append(value)

        @do
        def driver():
            yield wheel.schedule(0.05, monadic_action)
            yield wheel.schedule(0.06, lambda: results.append(b"next"))

        names = thread_names(rt)
        run_sim(rt, driver())
        assert results == [b"next", b"ran"]
        assert wheel.fired == 3  # two timers and the action's own sleep
        assert names == ["driver", "timer-action"]

    def test_plain_callable_actions_are_fine_too(self, rt):
        wheel = rt.timers
        fired = []

        @do
        def driver():
            yield wheel.schedule(0.05, lambda: fired.append(True))

        names = thread_names(rt)
        run_sim(rt, driver())
        assert fired == [True]
        assert names == ["driver"]  # a plain action runs on the loop

    def test_action_error_is_contained(self, rt):
        # A broken action, plain or monadic, is counted and nothing
        # else: later timers fire, no thread dies uncaught.
        wheel = rt.timers
        fired = []

        def boom():
            raise RuntimeError("broken timer action")

        @do
        def monadic_boom():
            yield sys_yield()
            raise RuntimeError("broken monadic timer action")

        @do
        def driver():
            yield wheel.schedule(0.05, boom)
            yield wheel.schedule(0.06, monadic_boom)
            yield wheel.schedule(0.10, lambda: fired.append(True))

        run_sim(rt, driver())  # uncaught="raise": would abort the run
        assert fired == [True]
        assert wheel.action_errors == 2
        assert wheel.fired == 3

    def test_action_cancelling_a_timer_due_in_the_same_turn(self, rt):
        # Both deadlines pass in one turn; the first action cancels the
        # second: it must not run, and that is not an action error.
        wheel = rt.timers
        fired = []
        handles = []

        def first():
            fired.append("first")
            handles[1].cancel()

        @do
        def driver():
            for action in (first, lambda: fired.append("second")):
                handles.append((yield wheel.schedule(0.05, action)))
            assert handles[0].deadline == handles[1].deadline

        run_sim(rt, driver())
        assert fired == ["first"]
        assert (wheel.fired, wheel.cancelled, wheel.action_errors) == (1, 1, 0)
        assert wheel._dead == 0


class TestCancellation:
    def test_cancel_before_fire_suppresses_the_action(self, rt):
        wheel = rt.timers
        fired = []

        @do
        def driver():
            keep = yield wheel.schedule(0.10, lambda: fired.append("keep"))
            drop = yield wheel.schedule(0.05, lambda: fired.append("drop"))
            drop.cancel()
            assert keep is not drop

        run_sim(rt, driver())
        assert fired == ["keep"]
        assert wheel.cancelled == 1
        assert wheel.fired == 1

    def test_cancel_after_fire_is_a_noop(self, rt):
        wheel = rt.timers
        handles = []

        @do
        def driver():
            handle = yield wheel.schedule(0.01, lambda: None)
            handles.append(handle)

        run_sim(rt, driver())
        (handle,) = handles
        assert handle.fired
        handle.cancel()  # must not raise or un-fire
        assert wheel.fired == 1
        assert wheel.cancelled == 0

    def test_cancellation_ordering_interleaved(self, rt):
        # Cancel every other timer of a batch: exactly the survivors
        # fire, still in deadline order.
        wheel = rt.timers
        fired: list[int] = []

        @do
        def driver():
            handles = []
            for index in range(6):
                handle = yield wheel.schedule(
                    0.05 + index * 0.05,
                    (lambda i: lambda: fired.append(i))(index),
                )
                handles.append(handle)
            for index in (1, 3, 5):
                handles[index].cancel()

        run_sim(rt, driver())
        assert fired == [0, 2, 4]
        assert wheel.cancelled == 3


class TestSleeperLifecycle:
    """What sleeps toward the next deadline is the runtime's own loop
    (``poll``'s timeout, on both kernels): no thread is created to serve
    the heap, and none lingers once it drains."""

    def test_one_sleeper_serves_many_timers(self, rt):
        wheel = rt.timers
        count = 50

        @do
        def driver():
            for index in range(count):
                yield wheel.schedule(0.05 + index * 0.001, lambda: None)

        names = thread_names(rt)
        run_sim(rt, driver())
        assert wheel.scheduled == count
        assert wheel.fired == count
        assert names == ["driver"]
        assert wheel.armed == 0

    def test_sleeper_exits_when_idle_and_respawns_on_demand(self, rt):
        wheel = rt.timers
        stages = []

        @do
        def first():
            yield wheel.schedule(0.02, lambda: stages.append("a"))

        @do
        def second():
            yield wheel.schedule(0.02, lambda: stages.append("b"))

        rt.spawn(first(), name="first")
        rt.run()  # returns: the drained wheel keeps nothing alive
        assert stages == ["a"]
        assert wheel.armed == 0 and rt.sched.live_threads == 0
        rt.spawn(second(), name="second")
        rt.run()
        assert stages == ["a", "b"]

    def test_recurring_action_reschedules_on_the_same_sleeper(self, rt):
        wheel = rt.timers
        ticks = []

        @do
        def tick():
            ticks.append((yield sys_now()))
            if len(ticks) < 5:
                yield wheel.schedule(0.05, tick)

        @do
        def driver():
            yield wheel.schedule(0.05, tick)

        run_sim(rt, driver())
        assert ticks == pytest.approx(
            [0.05, 0.10, 0.15, 0.20, 0.25], abs=1e-3)
        assert wheel.fired == 5 and wheel.armed == 0


class TestEarliestDeadlineWake:
    def test_far_deadline_costs_one_wakeup_not_ticks(self, rt):
        # Nothing wakes for an armed far deadline until it is due.
        wheel = rt.timers
        fired = []
        midway = []

        @do
        def driver():
            yield wheel.schedule(10.0, lambda: fired.append(True))

        # A device completion half way there (not a timer: it must not
        # show in the wheel's own counters).
        rt.kernel.clock.schedule(
            5.0, lambda: midway.append((wheel.wakeups, wheel.armed)))
        run_sim(rt, driver())
        assert midway == [(0, 1)]
        assert fired == [True]
        assert wheel.wakeups == 1

    def test_earlier_schedule_retargets_a_parked_sleeper(self, rt):
        wheel = rt.timers
        fired: list[tuple[str, float]] = []

        def note(name):
            return lambda: fired.append((name, rt.kernel.clock.now))

        @do
        def driver():
            yield wheel.schedule(10.0, note("far"))
            # The loop is parked toward the far deadline when an
            # earlier one is armed.
            yield sys_sleep(0.01)
            yield wheel.schedule(0.05, note("near"))

        run_sim(rt, driver())
        assert [name for name, _at in fired] == ["near", "far"]
        assert [at for _name, at in fired] == pytest.approx(
            [0.06, 10.0], abs=1e-4)
        assert wheel.wakeups == 3  # the driver's sleep, near, far

    def test_deadline_earlier_than_a_near_sleep_fires_on_time(self, rt):
        # A 40 ms timer is armed when 5 ms deadlines arrive (the WAL's
        # group flush): PR 17's guarantee — each fires at its own
        # deadline, once — now with no helper thread behind it.
        wheel = rt.timers
        fired: list[tuple[str, float]] = []
        handles = []

        def note(name):
            return lambda: fired.append((name, rt.kernel.clock.now))

        @do
        def driver():
            handles.append((yield wheel.schedule(0.040, note("slow"))))
            yield sys_sleep(0.001)
            for name, delay in (("b", 0.005), ("a", 0.003), ("c", 0.009)):
                handles.append((yield wheel.schedule(delay, note(name))))

        names = thread_names(rt)
        run_sim(rt, driver())
        assert [name for name, _at in fired] == ["a", "b", "c", "slow"]
        # (virtual time also charges a few microseconds per syscall)
        assert [at for _name, at in fired] == pytest.approx(
            [0.004, 0.006, 0.010, 0.040], abs=1e-4)
        assert all(handle.fired for handle in handles)
        # (four timers and the driver's sleep: every entry run counts)
        assert wheel.fired == 5 and wheel.action_errors == 0
        assert names == ["driver"] and wheel.armed == 0

    def test_steady_flush_pattern_forks_no_thread_per_deadline(self):
        # Far keepalive armed -> 5 ms deadline -> fire, 1000 times (a
        # shard committing writes): a plain action costs no thread, a
        # monadic one exactly the thread it runs on.
        cycles = 1000

        @do
        def monadic_flush(fired):
            fired.append("flush")
            yield sys_yield()

        for kind, per_fire in (("plain", 0), ("monadic", 1)):
            rt = SimRuntime()
            wheel = rt.timers
            fired: list[str] = []
            action = ((lambda: fired.append("flush")) if kind == "plain"
                      else (lambda: monadic_flush(fired)))

            @do
            def driver():
                yield wheel.schedule(100.0, lambda: fired.append("far"))
                for _ in range(cycles):
                    yield wheel.schedule(0.005, action)
                    yield sys_sleep(0.010)

            names = thread_names(rt)
            run_sim(rt, driver())
            assert fired == ["flush"] * cycles + ["far"], kind
            assert names == ["driver"] + ["timer-action"] * (
                cycles * per_fire), kind

    def test_cancelled_far_entry_is_dropped_without_firing(self, rt):
        # A far entry cancelled while armed is discarded (lazy
        # cancellation) without ever running the action — and without
        # the clock ever travelling to its deadline.
        wheel = rt.timers
        fired: list[str] = []
        handles: list = []

        def cancel_far():
            fired.append("early")
            handles[0].cancel()

        @do
        def driver():
            far = yield wheel.schedule(10.0, lambda: fired.append("far"))
            handles.append(far)
            yield wheel.schedule(0.05, cancel_far)

        run_sim(rt, driver())
        assert fired == ["early"]
        assert wheel.cancelled == 1
        assert wheel.armed == 0
        assert rt.kernel.clock.now < 1.0


class TestOneHeap:
    def test_sleep_and_schedule_share_the_heap(self, rt):
        wheel = rt.timers
        order: list[str] = []
        armed = []

        @do
        def sleeper():
            yield sys_sleep(0.030)
            order.append("sleep")

        @do
        def driver():
            yield wheel.schedule(0.050, lambda: order.append("t50"))
            yield wheel.schedule(0.010, lambda: order.append("t10"))
            yield sys_fork(sleeper(), name="sleeper")
            yield sys_yield()  # the sleeper parks
            armed.append((wheel.armed, wheel.scheduled))

        run_sim(rt, driver())
        assert order == ["t10", "sleep", "t50"]
        # The sleeping thread is an entry (armed, then fired); it is
        # not a scheduled timer.
        assert armed == [(3, 2)]
        assert wheel.stats()["fired"] == 3
        assert wheel.stats()["scheduled"] == 2

    def test_schedule_is_not_a_system_call(self, rt):
        wheel = rt.timers
        cost = []

        @do
        def driver():
            before = rt.sched.stats()["total_syscalls"]
            for _ in range(1000):
                handle = yield wheel.schedule(5.0, lambda: None)
                handle.cancel()
            yield sys_yield()  # flush this batch's count
            cost.append(rt.sched.stats()["total_syscalls"] - before)

        run_sim(rt, driver())
        assert cost[0] <= 10  # >= 3000 when schedule read sys_now in a @do
        assert wheel.scheduled == wheel.cancelled == 1000

    def test_deadline_armed_while_the_loop_is_blocked_in_poll(self, live):
        # The loop is in poll() toward a 500 ms sleep when I/O wakes a
        # thread that arms a 5 ms deadline: the next poll is bounded by
        # it, and no thread is created to make that so.
        reader, writer = socket.socketpair()
        reader.setblocking(False)
        stamps = {}

        @do
        def long_sleep():
            yield sys_sleep(0.5)

        @do
        def on_byte():
            yield live.io.read(reader, 1)
            stamps["armed"] = time.monotonic()
            yield live.timers.schedule(
                0.005, lambda: stamps.setdefault("fired", time.monotonic()))

        live.spawn(long_sleep(), name="long-sleep")
        live.spawn(on_byte(), name="on-byte")
        names = thread_names(live)
        poke = threading.Timer(0.05, writer.send, (b"x",))
        poke.start()
        try:
            live.run(until=lambda: "fired" in stamps, idle_timeout=2.0)
        finally:
            poke.join(timeout=2.0)
            reader.close()
            writer.close()
        assert "fired" in stamps
        assert 0.005 <= stamps["fired"] - stamps["armed"] < 0.05
        assert names == []
        assert live.timers.armed == 1  # the long sleep, still parked


class TestCancelledTimersCostNothing:
    def test_cancel_drops_the_action_at_once(self, rt):
        # The closure (and the reply box / body it pins) must not live
        # until the deadline.
        wheel = rt.timers
        handles = []

        @do
        def driver():
            handle = yield wheel.schedule(5.0, lambda: None)
            handle.cancel()
            handles.append(handle)

        run_sim(rt, driver())
        assert handles[0].action is None
        assert handles[0].cancelled and not handles[0].fired

    def test_cancelled_counts_each_entry_once(self, rt):
        wheel = rt.timers

        @do
        def driver():
            handles = []
            for index in range(300):
                handles.append((yield wheel.schedule(5.0 + index, int)))
            for handle in handles:
                handle.cancel()
                handle.cancel()  # twice is a no-op
            # Rebuilds dropped entries early; the loop skips the rest.

        run_sim(rt, driver())
        assert wheel.stats()["cancelled"] == 300
        assert wheel.fired == 0
        assert wheel.armed == 0

    def test_schedule_then_cancel_keeps_the_heap_and_sleeper_bounded(
            self, rt):
        # The mesh-call pattern at rate: without rebuilds the heap would
        # hold every dead entry until its deadline (10k here).
        wheel = rt.timers
        peak = [0]

        @do
        def driver():
            for _ in range(10_000):
                handle = yield wheel.schedule(5.0, lambda: None)
                handle.cancel()
                peak[0] = max(peak[0], wheel.armed)

        names = thread_names(rt)
        run_sim(rt, driver())
        assert peak[0] <= 200
        assert wheel.stats()["cancelled"] == 10_000
        assert names == ["driver"]
        assert wheel.fired == 0 and wheel.wakeups == 0  # nothing came due
        assert rt.sched.stats()["total_syscalls"] <= 10

    def test_live_timers_fire_in_order_across_a_rebuild(self, rt):
        wheel = rt.timers
        fired: list[int] = []

        @do
        def driver():
            doomed = []
            for index in range(400):
                # Live timers interleaved 1:3 with ones about to die,
                # inserted out of deadline order.
                delay = 1.0 + ((index * 7) % 400) * 0.01
                handle = yield wheel.schedule(
                    delay, (lambda i: lambda: fired.append(i))(delay)
                )
                if index % 4:
                    doomed.append(handle)
            for handle in doomed:
                handle.cancel()
            assert wheel.armed < 400  # at least one rebuild happened

        run_sim(rt, driver())
        assert len(fired) == 100
        assert fired == sorted(fired)
        assert wheel.stats()["cancelled"] == 300
        assert wheel.fired == 100


class _FiredNotYetRun:
    """A wheel at the worst moment of the one race the contract has: the
    deadline passed (``fired`` reads True) and the action's thread has
    not taken its first step, so nothing the action does is visible.
    A deadline of "now" is no watchdog (the mesh's flush trigger): it
    goes to the real ``wheel`` and fires."""

    def __init__(self, wheel):
        self.wheel = wheel

    def schedule(self, delay, action):
        if delay == 0:
            return self.wheel.schedule(delay, action)
        return pure(types.SimpleNamespace(
            fired=True, cancelled=False, cancel=lambda: None))


class TestFiredMeansLost:
    def test_fired_is_set_before_a_monadic_action_takes_its_first_step(
            self, live):
        # The loop fires deadlines off a dry ready queue, so the race
        # needs two entries due in one turn: a sleeper's just ahead of
        # the watchdog's.  One busy turn lets both pass; the sleeper is
        # made ready first, so it runs between ``fired = True`` and the
        # action's thread.
        effect: list[str] = []
        seen = []

        @do
        def action():
            effect.append("ran")
            yield pure(None)

        @do
        def watcher(handle):
            yield sys_sleep(0.01)
            seen.append((handle.fired, list(effect)))

        @do
        def driver():
            handle = yield live.timers.schedule(0.02, action)
            yield sys_fork(watcher(handle), name="watcher")
            yield sys_yield()  # the watcher parks in its sleep
            time.sleep(0.04)  # the busy turn

        live.spawn(driver(), name="driver")
        live.run(until=lambda: bool(seen) and bool(effect),
                 idle_timeout=2.0)
        assert seen == [(True, [])]
        assert effect == ["ran"]

    def test_mesh_flush_that_finishes_after_its_watchdog_fired_downs_the_link(
            self, live):
        node_a, _node_b = make_pair(live)
        node_a.timers = _FiredNotYetRun(live.timers)
        outcome = []

        @do
        def caller():
            try:
                # Larger than the socket buffers: the first gathered
                # write is partial, so the rest goes out watched.
                yield node_a.call(1, b"x" * (4 * 1024 * 1024))
                outcome.append("replied")
            except MeshPeerDown:
                outcome.append("peer down")

        live.spawn(caller(), name="caller")
        live.run(until=lambda: bool(outcome), idle_timeout=10.0)
        assert outcome == ["peer down"]
        assert node_a.stats.peer_failures == 1

    def test_pool_connect_that_finishes_after_its_watchdog_fired_times_out(
            self, live):
        listener = make_listener()
        pool = make_pool(live, listener, size=1)
        pool.timers = _FiredNotYetRun(live.timers)
        outcome = []

        @do
        def body():
            try:
                yield pool.acquire()
                outcome.append("leased")
            except PoolTimeout:
                outcome.append("timeout")

        live.spawn(body(), name="body")
        live.run(until=lambda: bool(outcome), idle_timeout=5.0)
        listener.close()
        assert outcome == ["timeout"]
        assert pool.connect_timeouts == 1

    def test_http_exchange_that_finishes_after_its_deadline_fired_is_not_reused(
            self, live):
        listener, server = start_upstream(live)
        client = make_client(live, listener, pool_size=1)
        client.timers = _FiredNotYetRun(live.timers)  # the pool's is real
        results = []

        @do
        def body():
            results.append((yield client.get("/index.html")))

        live.spawn(body(), name="body")
        live.run(until=lambda: bool(results), idle_timeout=5.0)
        server.stop()
        listener.close()
        assert results[0].status == 200
        # The deadline's close is on its way: the socket must not go
        # back to the idle list for the next request to find.
        assert client.pool.idle == 0


class TestLiveSmoke:
    def test_fires_on_the_wall_clock(self, live):
        wheel = live.timers
        assert isinstance(wheel, TimerWheel)
        fired = []

        @do
        def driver():
            yield wheel.schedule(0.02, lambda: fired.append(True))

        live.spawn(driver(), name="driver")
        live.run(until=lambda: bool(fired), idle_timeout=5.0)
        assert fired == [True]

    def test_early_wake_beats_a_far_park_on_the_wall_clock(self, live):
        wheel = live.timers
        fired = []
        far_handles = []

        @do
        def driver():
            far = yield wheel.schedule(30.0, lambda: None)
            far_handles.append(far)
            yield wheel.schedule(0.02, lambda: fired.append(True))

        started = time.monotonic()
        live.spawn(driver(), name="driver")
        live.run(until=lambda: bool(fired), idle_timeout=5.0)
        # The near timer fires promptly even though a 30 s deadline
        # was armed first.
        assert fired == [True]
        assert time.monotonic() - started < 2.0
        far_handles[0].cancel()
