"""Synchronization primitives: mutexes, MVars, channels, semaphores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.scheduler import Scheduler, run_threads
from repro.core.sync import (
    BoundedChannel,
    Channel,
    Mutex,
    MVar,
    RWLock,
    Semaphore,
    SyncError,
    WaitGroup,
)
from repro.core.syscalls import sys_nbio, sys_throw, sys_yield


class TestMutex:
    def test_acquire_release(self):
        mutex = Mutex()

        @do
        def worker():
            yield mutex.acquire()
            assert mutex.locked
            yield mutex.release()
            return "done"

        assert run_threads([worker()])[0].result == "done"
        assert not mutex.locked

    def test_mutual_exclusion(self):
        mutex = Mutex()
        active = {"count": 0, "max": 0}

        @do
        def worker():
            yield mutex.acquire()
            yield sys_nbio(lambda: active.__setitem__("count", active["count"] + 1))
            yield sys_nbio(
                lambda: active.__setitem__("max", max(active["max"], active["count"]))
            )
            yield sys_yield()  # try to let others interleave
            yield sys_yield()
            yield sys_nbio(lambda: active.__setitem__("count", active["count"] - 1))
            yield mutex.release()

        sched = Scheduler(batch_limit=1)
        for _ in range(10):
            sched.spawn(worker())
        sched.run()
        assert active["max"] == 1

    def test_fifo_handoff(self):
        mutex = Mutex()
        order = []

        @do
        def worker(i):
            yield mutex.acquire()
            order.append(i)
            yield mutex.release()

        @do
        def holder():
            yield mutex.acquire()
            for _ in range(5):
                yield sys_yield()
            yield mutex.release()

        sched = Scheduler(batch_limit=1)
        sched.spawn(holder())
        sched.step()  # holder takes the lock
        for i in range(5):
            sched.spawn(worker(i))
        sched.run()
        assert order == [0, 1, 2, 3, 4]

    def test_try_acquire(self):
        mutex = Mutex()

        @do
        def worker():
            first = yield mutex.try_acquire()
            second = yield mutex.try_acquire()
            yield mutex.release()
            third = yield mutex.try_acquire()
            yield mutex.release()
            return (first, second, third)

        assert run_threads([worker()])[0].result == (True, False, True)

    def test_release_unlocked_raises(self):
        mutex = Mutex()

        @do
        def worker():
            try:
                yield mutex.release()
            except SyncError:
                return "caught"

        assert run_threads([worker()])[0].result == "caught"

    def test_with_lock_releases_on_error(self):
        mutex = Mutex()

        @do
        def worker():
            try:
                yield mutex.with_lock(sys_throw(ValueError("inside")))
            except ValueError:
                pass
            return mutex.locked

        assert run_threads([worker()])[0].result is False


class TestMVar:
    def test_put_then_take(self):
        box = MVar()

        @do
        def worker():
            yield box.put(5)
            value = yield box.take()
            return value

        assert run_threads([worker()])[0].result == 5

    def test_initial_value(self):
        box = MVar(10)
        assert box.full

        @do
        def worker():
            value = yield box.take()
            return value

        assert run_threads([worker()])[0].result == 10
        assert not box.full

    def test_take_blocks_until_put(self):
        box = MVar()
        order = []

        @do
        def taker():
            order.append("taking")
            value = yield box.take()
            order.append(f"took {value}")

        @do
        def putter():
            order.append("putting")
            yield box.put("x")

        sched = Scheduler(batch_limit=1)
        sched.spawn(taker())
        sched.spawn(putter())
        sched.run()
        assert order == ["taking", "putting", "took x"]

    def test_put_blocks_while_full(self):
        box = MVar("first")
        order = []

        @do
        def putter():
            yield box.put("second")
            order.append("second put done")

        @do
        def taker():
            value = yield box.take()
            order.append(f"took {value}")

        sched = Scheduler(batch_limit=1)
        sched.spawn(putter())  # blocks: box full
        sched.run()
        assert order == []  # parked before completing the put
        sched.spawn(taker())
        sched.run()
        assert sorted(order) == ["second put done", "took first"]
        assert box.full  # putter's value landed

    def test_read_does_not_consume(self):
        box = MVar(3)

        @do
        def worker():
            a = yield box.read()
            b = yield box.read()
            c = yield box.take()
            return (a, b, c, box.full)

        assert run_threads([worker()])[0].result == (3, 3, 3, False)

    def test_read_wakes_with_put(self):
        box = MVar()
        seen = []

        @do
        def reader():
            value = yield box.read()
            seen.append(value)

        @do
        def putter():
            yield box.put(1)

        sched = Scheduler(batch_limit=1)
        sched.spawn(reader())
        sched.spawn(reader())
        sched.step()
        sched.step()
        sched.spawn(putter())
        sched.run()
        assert seen == [1, 1]
        assert box.full  # readers do not consume

    def test_try_take_try_put(self):
        box = MVar()

        @do
        def worker():
            empty = yield box.try_take()
            stored = yield box.try_put("v")
            refused = yield box.try_put("w")
            value = yield box.try_take()
            return (empty, stored, refused, value)

        assert run_threads([worker()])[0].result == (None, True, False, "v")

    def test_modify(self):
        box = MVar(10)

        @do
        def worker():
            new = yield box.modify(lambda x: x * 3)
            return new

        assert run_threads([worker()])[0].result == 30

    def test_failing_modify_puts_the_old_value_back(self):
        # As Haskell's modifyMVar_: the error reaches the caller, and the
        # box holds the old value again instead of stranding every taker.
        box = MVar(10)

        def boom(_old):
            raise ValueError("boom")

        @do
        def worker():
            try:
                yield box.modify(boom)
            except ValueError as exc:
                caught = str(exc)
            value = yield box.read()
            return caught, value

        assert run_threads([worker()])[0].result == ("boom", 10)

    def test_producer_consumer_pipeline(self):
        box = MVar()
        received = []

        @do
        def producer(n):
            for i in range(n):
                yield box.put(i)
            yield box.put(None)  # sentinel

        @do
        def consumer():
            while True:
                item = yield box.take()
                if item is None:
                    return
                received.append(item)

        sched = Scheduler(batch_limit=1)
        sched.spawn(producer(20))
        sched.spawn(consumer())
        sched.run()
        assert received == list(range(20))


class TestChannel:
    def test_write_read(self):
        chan = Channel()

        @do
        def worker():
            yield chan.write("a")
            yield chan.write("b")
            x = yield chan.read()
            y = yield chan.read()
            return x + y

        assert run_threads([worker()])[0].result == "ab"

    def test_read_blocks(self):
        chan = Channel()
        order = []

        @do
        def reader():
            value = yield chan.read()
            order.append(value)

        @do
        def writer():
            order.append("writing")
            yield chan.write(42)

        sched = Scheduler(batch_limit=1)
        sched.spawn(reader())
        sched.spawn(writer())
        sched.run()
        assert order == ["writing", 42]

    def test_try_read(self):
        chan = Channel()

        @do
        def worker():
            miss = yield chan.try_read()
            yield chan.write(1)
            hit = yield chan.try_read()
            return (miss, hit)

        assert run_threads([worker()])[0].result == ((False, None), (True, 1))

    def test_writes_never_block(self):
        chan = Channel()

        @do
        def worker():
            for i in range(1000):
                yield chan.write(i)
            return len(chan)

        assert run_threads([worker()])[0].result == 1000

    def test_fifo_across_readers(self):
        chan = Channel()
        got = []

        @do
        def reader():
            value = yield chan.read()
            got.append(value)

        @do
        def writer():
            for i in range(4):
                yield chan.write(i)

        sched = Scheduler(batch_limit=1)
        for _ in range(4):
            sched.spawn(reader())
        sched.run()  # all readers parked
        sched.spawn(writer())
        sched.run()
        assert sorted(got) == [0, 1, 2, 3]


class TestBoundedChannel:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedChannel(0)

    def test_writer_blocks_at_capacity(self):
        chan = BoundedChannel(2)
        order = []

        @do
        def writer():
            for i in range(4):
                yield chan.write(i)
                order.append(f"wrote {i}")

        @do
        def reader():
            for _ in range(4):
                value = yield chan.read()
                order.append(f"read {value}")

        sched = Scheduler(batch_limit=1)
        sched.spawn(writer())
        sched.run()  # writer parks once the buffer is full
        assert order == ["wrote 0", "wrote 1"]
        sched.spawn(reader())
        sched.run()
        assert order[-1] == "read 3"
        assert [o for o in order if o.startswith("read")] == [
            "read 0", "read 1", "read 2", "read 3",
        ]

    def test_preserves_fifo_under_contention(self):
        chan = BoundedChannel(1)
        got = []

        @do
        def writer(n):
            for i in range(n):
                yield chan.write(i)

        @do
        def reader(n):
            for _ in range(n):
                value = yield chan.read()
                got.append(value)

        sched = Scheduler(batch_limit=1)
        sched.spawn(writer(50))
        sched.spawn(reader(50))
        sched.run()
        assert got == list(range(50))


class TestSemaphore:
    def test_bounds_concurrency(self):
        sem = Semaphore(3)
        active = {"count": 0, "max": 0}

        @do
        def worker():
            yield sem.acquire()
            yield sys_nbio(lambda: active.__setitem__("count", active["count"] + 1))
            yield sys_nbio(
                lambda: active.__setitem__("max", max(active["max"], active["count"]))
            )
            yield sys_yield()
            yield sys_nbio(lambda: active.__setitem__("count", active["count"] - 1))
            yield sem.release()

        sched = Scheduler(batch_limit=1)
        for _ in range(10):
            sched.spawn(worker())
        sched.run()
        assert active["max"] == 3

    def test_with_permit_releases_on_error(self):
        sem = Semaphore(1)

        @do
        def worker():
            try:
                yield sem.with_permit(sys_throw(RuntimeError()))
            except RuntimeError:
                pass
            return sem.count

        assert run_threads([worker()])[0].result == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Semaphore(-1)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        active = {"readers": 0, "max_readers": 0}

        @do
        def reader():
            yield lock.acquire_read()
            yield sys_nbio(
                lambda: active.__setitem__("readers", active["readers"] + 1)
            )
            yield sys_nbio(
                lambda: active.__setitem__(
                    "max_readers", max(active["max_readers"], active["readers"])
                )
            )
            yield sys_yield()
            yield sys_nbio(
                lambda: active.__setitem__("readers", active["readers"] - 1)
            )
            yield lock.release_read()

        sched = Scheduler(batch_limit=1)
        for _ in range(5):
            sched.spawn(reader())
        sched.run()
        assert active["max_readers"] == 5

    def test_writer_excludes_readers(self):
        lock = RWLock()
        log = []

        @do
        def writer():
            yield lock.acquire_write()
            log.append("w-start")
            yield sys_yield()
            yield sys_yield()
            log.append("w-end")
            yield lock.release_write()

        @do
        def reader():
            yield lock.acquire_read()
            log.append("r")
            yield lock.release_read()

        sched = Scheduler(batch_limit=1)
        sched.spawn(writer())
        sched.step()  # writer holds
        sched.spawn(reader())
        sched.spawn(reader())
        sched.run()
        assert log == ["w-start", "w-end", "r", "r"]

    def test_writer_preference(self):
        lock = RWLock()
        log = []

        @do
        def reader(i):
            yield lock.acquire_read()
            log.append(f"r{i}")
            yield sys_yield()
            yield lock.release_read()

        @do
        def writer():
            yield lock.acquire_write()
            log.append("w")
            yield lock.release_write()

        sched = Scheduler(batch_limit=1)
        sched.spawn(reader(1))
        sched.step()  # reader 1 holds
        sched.spawn(writer())  # queued
        sched.spawn(reader(2))  # must wait behind the writer
        sched.run()
        assert log == ["r1", "w", "r2"]

    def test_release_without_hold_raises(self):
        lock = RWLock()

        @do
        def worker():
            caught = []
            try:
                yield lock.release_read()
            except SyncError:
                caught.append("read")
            try:
                yield lock.release_write()
            except SyncError:
                caught.append("write")
            return caught

        assert run_threads([worker()])[0].result == ["read", "write"]


class TestWaitGroup:
    def test_wait_for_workers(self):
        group = WaitGroup()
        done = []

        @do
        def worker(i):
            yield sys_yield()
            done.append(i)
            yield group.done()

        @do
        def waiter():
            yield group.add(3)
            for i in range(3):
                from repro.core.syscalls import sys_fork

                yield sys_fork(worker(i))
            yield group.wait()
            return sorted(done)

        assert run_threads([waiter()])[0].result == [0, 1, 2]

    def test_wait_on_zero_returns_immediately(self):
        group = WaitGroup()

        @do
        def worker():
            yield group.wait()
            return "fast"

        assert run_threads([worker()])[0].result == "fast"

    def test_negative_count_raises(self):
        group = WaitGroup()

        @do
        def worker():
            try:
                yield group.done()
            except SyncError:
                return "caught"

        assert run_threads([worker()])[0].result == "caught"

    def test_rejected_done_leaves_the_count_alone(self):
        # A ``done`` below zero is refused before it applies: the count
        # stays 0, so ``wait`` returns at once instead of parking forever.
        group = WaitGroup()

        @do
        def worker():
            try:
                yield group.done()
            except SyncError:
                pass
            yield group.wait()
            return group.count

        assert run_threads([worker()])[0].result == 0


@settings(max_examples=25)
@given(
    n_threads=st.integers(2, 8),
    increments=st.integers(1, 30),
    batch=st.integers(1, 16),
)
def test_mutex_protected_counter_is_exact(n_threads, increments, batch):
    """Property: counter increments under a mutex never race, for any
    thread count, increment count, and scheduler batch size."""
    mutex = Mutex()
    state = {"value": 0}

    @do
    def worker():
        for _ in range(increments):
            yield mutex.acquire()
            snapshot = state["value"]
            yield sys_yield()  # maximize interleaving danger
            yield sys_nbio(lambda s=snapshot: state.__setitem__("value", s + 1))
            yield mutex.release()

    sched = Scheduler(batch_limit=batch)
    for _ in range(n_threads):
        sched.spawn(worker())
    sched.run()
    assert state["value"] == n_threads * increments
