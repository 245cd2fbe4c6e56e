"""The shared timer wheel: one heap, one sleeper, free cancellation.

Most tests run on :class:`~repro.runtime.sim_runtime.SimRuntime` — the
wheel only uses ``sys_now``/``sys_sleep``/``sys_fork``, so virtual time
makes firing order and sleeper lifecycle deterministic.  One smoke test
runs on the live runtime to pin the wall-clock path.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.syscalls import sys_now, sys_sleep
from repro.runtime.live_runtime import LiveRuntime
from repro.runtime.sim_runtime import SimRuntime
from repro.runtime.timer_wheel import TimerWheel


def run_sim(comp) -> SimRuntime:
    rt = SimRuntime()
    rt.spawn(comp, name="driver")
    rt.run_all()
    return rt


class TestFiring:
    def test_fires_in_deadline_order_not_insertion_order(self):
        wheel = TimerWheel()
        fired: list[str] = []

        @do
        def driver():
            # Inserted late-first: deadline order must win.
            yield wheel.schedule(0.30, lambda: fired.append("late"))
            yield wheel.schedule(0.10, lambda: fired.append("early"))
            yield wheel.schedule(0.20, lambda: fired.append("middle"))

        run_sim(driver())
        assert fired == ["early", "middle", "late"]

    def test_monadic_actions_run_on_the_sleeper(self):
        wheel = TimerWheel()
        results: list[bytes] = []

        @do
        def monadic_action():
            value = yield pure(b"ran")
            results.append(value)

        @do
        def driver():
            yield wheel.schedule(0.05, monadic_action)

        run_sim(driver())
        assert results == [b"ran"]
        assert wheel.fired == 1

    def test_plain_callable_actions_are_fine_too(self):
        wheel = TimerWheel()
        fired = []

        @do
        def driver():
            yield wheel.schedule(0.05, lambda: fired.append(True))

        run_sim(driver())
        assert fired == [True]

    def test_action_error_is_contained(self):
        # A broken action must not kill the sleeper: later timers fire.
        wheel = TimerWheel()
        fired = []

        def boom():
            raise RuntimeError("broken timer action")

        @do
        def driver():
            yield wheel.schedule(0.05, boom)
            yield wheel.schedule(0.10, lambda: fired.append(True))

        run_sim(driver())
        assert fired == [True]
        assert wheel.action_errors == 1


class TestCancellation:
    def test_cancel_before_fire_suppresses_the_action(self):
        wheel = TimerWheel()
        fired = []

        @do
        def driver():
            keep = yield wheel.schedule(0.10, lambda: fired.append("keep"))
            drop = yield wheel.schedule(0.05, lambda: fired.append("drop"))
            drop.cancel()
            assert keep is not drop

        run_sim(driver())
        assert fired == ["keep"]
        assert wheel.cancelled == 1
        assert wheel.fired == 1

    def test_cancel_after_fire_is_a_noop(self):
        wheel = TimerWheel()
        handles = []

        @do
        def driver():
            handle = yield wheel.schedule(0.01, lambda: None)
            handles.append(handle)

        run_sim(driver())
        (handle,) = handles
        assert handle.fired
        handle.cancel()  # must not raise or un-fire
        assert wheel.fired == 1
        assert wheel.cancelled == 0

    def test_cancellation_ordering_interleaved(self):
        # Cancel every other timer of a batch: exactly the survivors
        # fire, still in deadline order.
        wheel = TimerWheel()
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

        run_sim(driver())
        assert fired == [0, 2, 4]
        assert wheel.cancelled == 3


class TestSleeperLifecycle:
    def test_one_sleeper_serves_many_timers(self):
        wheel = TimerWheel()
        count = 50

        @do
        def driver():
            for index in range(count):
                yield wheel.schedule(0.05 + index * 0.001, lambda: None)

        run_sim(driver())
        assert wheel.scheduled == count
        assert wheel.fired == count
        # The whole batch shared one sleeper thread: no thread per timer.
        assert wheel.sleeper_spawns == 1
        assert not wheel.running
        assert wheel.armed == 0

    def test_sleeper_exits_when_idle_and_respawns_on_demand(self):
        wheel = TimerWheel()
        stages = []

        @do
        def first():
            yield wheel.schedule(0.02, lambda: stages.append("a"))

        @do
        def second():
            yield wheel.schedule(0.02, lambda: stages.append("b"))

        rt = SimRuntime()
        rt.spawn(first(), name="first")
        rt.run_all()  # wheel drains, sleeper exits
        assert not wheel.running
        rt.spawn(second(), name="second")
        rt.run_all()
        assert stages == ["a", "b"]
        assert wheel.sleeper_spawns == 2

    def test_recurring_action_reschedules_on_the_same_sleeper(self):
        wheel = TimerWheel()
        ticks = []

        @do
        def tick():
            ticks.append(len(ticks))
            if len(ticks) < 5:
                yield wheel.schedule(0.05, tick)
            else:
                yield pure(None)

        @do
        def driver():
            yield wheel.schedule(0.05, tick)

        run_sim(driver())
        assert ticks == [0, 1, 2, 3, 4]
        assert wheel.sleeper_spawns == 1


class TestEarliestDeadlineWake:
    def test_far_deadline_costs_one_wakeup_not_ticks(self):
        # A single far deadline used to cost ~deadline/tick sleeper
        # wakeups; the wake channel sleeps exactly to it.
        wheel = TimerWheel()
        fired = []

        @do
        def driver():
            yield wheel.schedule(10.0, lambda: fired.append(True))

        run_sim(driver())
        assert fired == [True]
        assert wheel.wakeups == 1
        assert wheel.alarm_spawns == 1

    def test_earlier_schedule_retargets_a_parked_sleeper(self):
        wheel = TimerWheel()
        fired: list[str] = []

        @do
        def driver():
            yield wheel.schedule(10.0, lambda: fired.append("far"))
            # Let the sleeper park toward the far deadline, then arm an
            # earlier one: the wake channel must re-target it.
            yield sys_sleep(0.01)
            yield wheel.schedule(0.05, lambda: fired.append("near"))

        run_sim(driver())
        assert fired == ["near", "far"]
        # One wake per deadline plus the early re-target wake.
        assert wheel.wakeups <= 3

    def test_deadline_earlier_than_a_near_sleep_fires_on_time(self):
        # The sleeper is in an uninterruptible near sleep toward 40 ms
        # when 5 ms deadlines arrive (the WAL's group flush): they used
        # to fire at 40 ms.  Each fires at its own deadline, once.
        wheel = TimerWheel()
        fired: list[tuple[str, float]] = []
        handles = []

        def note(name):
            @do
            def action():
                fired.append((name, (yield sys_now())))
            return action

        @do
        def driver():
            handles.append((yield wheel.schedule(0.040, note("slow"))))
            yield sys_sleep(0.001)
            for name, delay in (("b", 0.005), ("a", 0.003), ("c", 0.009)):
                handles.append((yield wheel.schedule(delay, note(name))))

        run_sim(driver())
        assert [name for name, _at in fired] == ["a", "b", "c", "slow"]
        # (virtual time also charges a few microseconds per syscall)
        assert [at for _name, at in fired] == pytest.approx(
            [0.004, 0.006, 0.010, 0.040], abs=1e-4)
        assert all(handle.fired for handle in handles)
        assert wheel.fired == 4 and wheel.action_errors == 0
        assert wheel.early_spawns == 3 and wheel.sleeper_spawns == 1
        assert not wheel.running and wheel.armed == 0

    def test_steady_flush_pattern_forks_no_thread_per_deadline(self):
        # Far-parked sleeper -> 5 ms deadline -> fire -> re-park, 1000
        # times (a shard with a keepalive armed, committing writes): the
        # "no thread per timer" rule covers the early-deadline helper.
        wheel = TimerWheel()
        fired = []
        cycles = 1000

        @do
        def driver():
            yield wheel.schedule(100.0, lambda: fired.append("far"))
            for index in range(cycles):
                yield wheel.schedule(0.005, lambda: fired.append("flush"))
                yield sys_sleep(0.010)

        run_sim(driver())
        assert fired == ["flush"] * cycles + ["far"]
        assert wheel.sleeper_spawns == 1
        assert wheel.alarm_spawns + wheel.early_spawns <= 2

    def test_cancelled_far_entry_is_dropped_without_firing(self):
        # A far entry cancelled while armed is discarded at its deadline
        # (lazy cancellation) without ever running the action.
        wheel = TimerWheel()
        fired: list[str] = []
        handles: list = []

        @do
        def cancel_far():
            fired.append("early")
            handles[0].cancel()

        @do
        def driver():
            far = yield wheel.schedule(10.0, lambda: fired.append("far"))
            handles.append(far)
            yield wheel.schedule(0.05, cancel_far)

        run_sim(driver())
        assert fired == ["early"]
        assert wheel.cancelled == 1
        assert not wheel.running
        assert wheel.armed == 0


class TestCancelledTimersCostNothing:
    def test_cancel_drops_the_action_at_once(self):
        # The closure (and the reply box / body it pins) must not live
        # until the deadline.
        wheel = TimerWheel()
        handles = []

        @do
        def driver():
            handle = yield wheel.schedule(5.0, lambda: None)
            handle.cancel()
            handles.append(handle)

        run_sim(driver())
        assert handles[0].action is None
        assert handles[0].cancelled and not handles[0].fired

    def test_cancelled_counts_each_entry_once(self):
        wheel = TimerWheel()

        @do
        def driver():
            handles = []
            for index in range(300):
                handles.append((yield wheel.schedule(5.0 + index, int)))
            for handle in handles:
                handle.cancel()
                handle.cancel()  # twice is a no-op
            # Rebuilds dropped entries early; the sleeper pops the rest.

        run_sim(driver())
        assert wheel.stats()["cancelled"] == 300
        assert wheel.fired == 0
        assert wheel.armed == 0

    def test_schedule_then_cancel_keeps_the_heap_and_sleeper_bounded(self):
        # The mesh-call pattern at rate: without rebuilds the heap would
        # hold every dead entry until its deadline (10k here).
        wheel = TimerWheel()
        peak = [0]

        @do
        def driver():
            for _ in range(10_000):
                handle = yield wheel.schedule(5.0, lambda: None)
                handle.cancel()
                peak[0] = max(peak[0], wheel.armed)

        run_sim(driver())
        assert peak[0] <= 200
        assert wheel.stats()["cancelled"] == 10_000
        assert wheel.sleeper_spawns == 1  # no exit-and-respawn per timer
        assert wheel.wakeups <= 2         # nothing ever came due

    def test_rebuild_keeps_a_far_parked_sleepers_target(self):
        wheel = TimerWheel()
        seen = {}

        @do
        def driver():
            first = yield wheel.schedule(5.0, lambda: None)
            yield sys_sleep(0.01)  # the sleeper parks toward ``first``
            target = wheel._sleep_target
            assert target == first.deadline
            first.cancel()
            for _ in range(500):  # force several rebuilds
                handle = yield wheel.schedule(6.0, lambda: None)
                handle.cancel()
            seen["target"] = wheel._sleep_target
            seen["kept"] = any(entry[2] is first for entry in wheel._heap)
            seen["running"] = wheel.running

        run_sim(driver())
        assert seen == {"target": seen["target"], "kept": True,
                        "running": True}
        assert seen["target"] is not None
        assert wheel.sleeper_spawns == 1
        assert wheel.stats()["cancelled"] == 501
        assert wheel.armed == 0 and not wheel.running  # drained at the end

    def test_live_timers_fire_in_order_across_a_rebuild(self):
        wheel = TimerWheel()
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

        run_sim(driver())
        assert len(fired) == 100
        assert fired == sorted(fired)
        assert wheel.stats()["cancelled"] == 300
        assert wheel.fired == 100


class TestLiveSmoke:
    def test_fires_on_the_wall_clock(self):
        rt = LiveRuntime(uncaught="store")
        try:
            wheel = rt.timers
            assert isinstance(wheel, TimerWheel)
            fired = []

            @do
            def driver():
                yield wheel.schedule(0.02, lambda: fired.append(True))

            rt.spawn(driver(), name="driver")
            rt.run(until=lambda: bool(fired), idle_timeout=5.0)
            assert fired == [True]
        finally:
            rt.shutdown()

    def test_early_wake_beats_a_far_park_on_the_wall_clock(self):
        import time

        rt = LiveRuntime(uncaught="store")
        try:
            wheel = rt.timers
            fired = []
            far_handles = []

            @do
            def driver():
                far = yield wheel.schedule(30.0, lambda: None)
                far_handles.append(far)
                yield wheel.schedule(0.02, lambda: fired.append(True))

            started = time.monotonic()
            rt.spawn(driver(), name="driver")
            rt.run(until=lambda: bool(fired), idle_timeout=5.0)
            # The near timer fires promptly even though the sleeper was
            # (or was about to be) parked toward a 30 s deadline.
            assert fired == [True]
            assert time.monotonic() - started < 2.0
            far_handles[0].cancel()
        finally:
            rt.shutdown()
