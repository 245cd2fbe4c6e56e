"""The live runtime: real sockets, real timers, the real blocking pool.

These tests exercise the paper's architecture against the actual OS —
the monadic server code is byte-identical to what runs on the simulator.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.do_notation import do
from repro.core.syscalls import (
    sys_blio,
    sys_fork,
    sys_now,
    sys_sleep,
    sys_yield,
)
from repro.core.sync import MVar
from repro.runtime import live_runtime
from repro.runtime.live_runtime import HAS_EPOLL, LiveRuntime, make_listener
from repro.runtime.loop import TURN_STEPS

POLLERS = ["epoll", "select"] if HAS_EPOLL else ["select"]


def _live(monkeypatch, poller):
    """A runtime whose poller runs over ``poller``'s multiplexer.  The
    platform picks it, so ``"select"`` is what a platform without epoll
    gets: the same poller over ``selectors``."""
    monkeypatch.setattr(live_runtime, "HAS_EPOLL", poller == "epoll")
    return LiveRuntime()


@pytest.fixture
def rt():
    runtime = LiveRuntime()
    yield runtime
    runtime.shutdown()


class TestTimers:
    def test_sleep_takes_real_time(self, rt):
        @do
        def sleeper():
            start = yield sys_now()
            yield sys_sleep(0.05)
            end = yield sys_now()
            return end - start

        tcb = rt.spawn(sleeper())
        rt.run()
        assert tcb.result >= 0.045

    def test_sleepers_wake_in_order(self, rt):
        log = []

        @do
        def sleeper(delay, tag):
            yield sys_sleep(delay)
            log.append(tag)

        rt.spawn(sleeper(0.06, "late"))
        rt.spawn(sleeper(0.02, "early"))
        rt.run()
        assert log == ["early", "late"]


class TestBlockingPool:
    def test_blio_runs_off_loop(self, rt):
        @do
        def worker():
            value = yield sys_blio(lambda: sum(range(1000)))
            return value

        tcb = rt.spawn(worker())
        rt.run()
        assert tcb.result == 499500

    def test_blio_sleep_does_not_stall_loop(self, rt):
        """A blocking sleep in the pool must not delay monadic timers."""
        log = []

        @do
        def blocker():
            yield sys_blio(lambda: time.sleep(0.2))
            log.append("blocker")

        @do
        def quick():
            yield sys_sleep(0.03)
            log.append("quick")

        rt.spawn(blocker())
        rt.spawn(quick())
        rt.run()
        assert log == ["quick", "blocker"]


class TestRealSockets:
    def test_echo_server_over_localhost(self, rt):
        listener = make_listener()
        port = listener.getsockname()[1]
        replies = []

        @do
        def handle_client(conn):
            data = yield rt.io.read(conn, 4096)
            while data:
                yield rt.io.write_all(conn, data)
                data = yield rt.io.read(conn, 4096)
            yield rt.io.close(conn)

        @do
        def server(n_clients):
            for _ in range(n_clients):
                conn = yield rt.io.accept(listener)
                yield sys_fork(handle_client(conn))

        @do
        def client(i):
            conn = yield rt.io.connect(("127.0.0.1", port))
            message = f"hello-{i}".encode()
            yield rt.io.write_all(conn, message)
            reply = yield rt.io.read_exact(conn, len(message))
            replies.append(reply)
            yield rt.io.close(conn)

        n = 5
        rt.spawn(server(n))
        for i in range(n):
            rt.spawn(client(i))
        rt.run(until=lambda: len(replies) == n, idle_timeout=5.0)
        listener.close()
        assert sorted(replies) == sorted(f"hello-{i}".encode() for i in range(n))

    def test_bulk_transfer(self, rt):
        listener = make_listener()
        port = listener.getsockname()[1]
        payload = b"x" * (256 * 1024)
        received = []

        @do
        def server():
            conn = yield rt.io.accept(listener)
            data = yield rt.io.read_exact(conn, len(payload))
            received.append(data)
            yield rt.io.close(conn)

        @do
        def client():
            conn = yield rt.io.connect(("127.0.0.1", port))
            yield rt.io.write_all(conn, payload)
            yield rt.io.close(conn)

        rt.spawn(server())
        rt.spawn(client())
        rt.run(until=lambda: bool(received), idle_timeout=5.0)
        listener.close()
        assert received == [payload]

    def test_many_concurrent_clients(self, rt):
        listener = make_listener()
        port = listener.getsockname()[1]
        done = []

        @do
        def handle_client(conn):
            data = yield rt.io.read(conn, 1024)
            yield rt.io.write_all(conn, data[::-1])
            yield rt.io.close(conn)

        @do
        def acceptor():
            while True:
                conn = yield rt.io.accept(listener)
                yield sys_fork(handle_client(conn))

        @do
        def client(i):
            conn = yield rt.io.connect(("127.0.0.1", port))
            msg = f"message-{i:03d}".encode()
            yield rt.io.write_all(conn, msg)
            reply = yield rt.io.read_exact(conn, len(msg))
            assert reply == msg[::-1]
            done.append(i)
            yield rt.io.close(conn)

        rt.spawn(acceptor())
        count = 30
        for i in range(count):
            rt.spawn(client(i))
        rt.run(until=lambda: len(done) == count, idle_timeout=10.0)
        listener.close()
        assert sorted(done) == list(range(count))


def _echo_beside_a_spinner(rt, rounds=20):
    """An echo server and its client share ``rt`` with a thread that
    never stops yielding; returns how many round trips completed."""
    listener = make_listener()
    port = listener.getsockname()[1]
    stop, echoed = [], []

    @do
    def spinner():
        while not stop:
            yield sys_yield()

    @do
    def server():
        conn = yield rt.io.accept(listener)
        while True:
            data = yield rt.io.read(conn, 4096)
            if not data:
                break
            yield rt.io.write_all(conn, data)
        yield rt.io.close(conn)

    @do
    def client():
        conn = yield rt.io.connect(("127.0.0.1", port))
        for index in range(rounds):
            message = b"round-%d" % index
            yield rt.io.write_all(conn, message)
            reply = yield rt.io.read_exact(conn, len(message))
            assert reply == message
            echoed.append(index)
        yield rt.io.close(conn)
        stop.append(True)

    rt.spawn(spinner(), name="spinner")
    rt.spawn(server(), name="echo")
    rt.spawn(client(), name="client")
    rt.run(until=lambda: bool(stop), idle_timeout=5.0)
    listener.close()
    return len(echoed)


class TestLoopTurn:
    """A turn runs the ready queue dry, then checks the devices once —
    and a turn is bounded, so a thread that is always ready cannot keep
    the loop from looking at I/O."""

    @pytest.mark.parametrize("poller", POLLERS)
    def test_spinning_thread_does_not_starve_io(self, poller, monkeypatch):
        rt = _live(monkeypatch, poller)
        try:
            assert _echo_beside_a_spinner(rt) == 20
        finally:
            rt.shutdown()

    @pytest.mark.parametrize("poller", POLLERS)
    def test_devices_are_checked_once_per_turn(self, poller, monkeypatch):
        # Ten threads ready at once are one turn: one poll, not ten.
        rt = _live(monkeypatch, poller)
        try:
            polls = _count_polls(rt)
            hops = 50

            @do
            def hopper():
                for _ in range(hops):
                    yield sys_yield()

            for _ in range(10):
                rt.spawn(hopper())
            rt.run()
            assert len(polls) <= hops + 5  # per turn, not per switch
        finally:
            rt.shutdown()

    @pytest.mark.parametrize("poller", POLLERS)
    def test_forks_and_wakeups_run_in_the_turn_that_made_them_ready(
            self, poller, monkeypatch):
        # A fork or an MVar hand-off used to land behind the turn's
        # snapshot and buy a turn (and an empty poll) each: 50 polls.
        hops = 50
        for build in (_fork_chain, _mvar_ping_pong):
            rt = _live(monkeypatch, poller)
            try:
                finished = build(rt, hops)
                rt.run()
                assert finished == [hops], build.__name__
                assert rt.poller.polls <= 3, build.__name__
            finally:
                rt.shutdown()

    @pytest.mark.parametrize("poller", POLLERS)
    def test_budget_exhausted_turn_polls_without_blocking(self, poller,
                                                          monkeypatch):
        # More ready work than one turn's budget: the loop still looks
        # at the devices between turns, and must not sleep there.
        rt = _live(monkeypatch, poller)
        try:
            polls = _count_polls(rt)
            finished = _fork_chain(rt, 2 * TURN_STEPS + 1)
            rt.run()
            assert finished == [2 * TURN_STEPS + 1]
            assert polls == [0, 0]  # one between turns; the third ends it
            assert rt.poller.polls == rt.poller.zero_timeout_polls == 2
        finally:
            rt.shutdown()

    @pytest.mark.parametrize("poller", POLLERS)
    def test_late_wake_byte_does_not_spin_the_loop(self, poller, monkeypatch):
        # A pool job queues its completion, then writes the wake byte;
        # the loop can drain the completion in between.  The byte that
        # arrives afterwards has no completion to announce, and must
        # still be drained — a level-triggered pipe left readable turns
        # every blocking poll into an immediate return.
        rt = _live(monkeypatch, poller)
        try:
            rt._wake_send.send(b"\0")
            polls = _count_polls(rt)

            @do
            def idler():
                yield sys_sleep(0.2)

            rt.spawn(idler())
            rt.run()
            assert len(polls) <= 10, f"{len(polls)} polls in an idle 0.2 s"
        finally:
            rt.shutdown()

    @pytest.mark.parametrize("poller", POLLERS)
    def test_pool_completions_still_wake_a_sleeping_loop(self, poller,
                                                         monkeypatch):
        rt = _live(monkeypatch, poller)
        try:
            polls = _count_polls(rt)

            @do
            def worker():
                for _ in range(5):
                    yield sys_blio(lambda: time.sleep(0.01))
                return "done"

            started = time.monotonic()
            tcb = rt.spawn(worker())
            rt.run()
            assert tcb.result == "done"
            # Woken by the pipe, not by the 50 ms idle poll timeout.
            assert time.monotonic() - started < 0.2
            assert len(polls) <= 30
        finally:
            rt.shutdown()


def _fork_chain(rt, length):
    """A thread that forks a thread that forks a thread...: one step
    each; the last appends ``length`` to the returned list."""
    finished: list = []

    @do
    def link(depth):
        if depth == length:
            finished.append(depth)
        else:
            yield sys_fork(link(depth + 1))

    rt.spawn(link(1))
    return finished


def _mvar_ping_pong(rt, hops):
    """Two threads hand a token back and forth through two MVars, each
    hop waking the parked taker; appends ``hops`` to the returned list."""
    ping, pong = MVar(name="ping"), MVar(name="pong")
    finished: list = []

    @do
    def server():
        for _ in range(hops // 2):
            yield ping.put("ball")
            yield pong.take()
        finished.append(hops)

    @do
    def returner():
        for _ in range(hops // 2):
            ball = yield ping.take()
            yield pong.put(ball)

    rt.spawn(returner())
    rt.spawn(server())
    return finished


def _count_polls(rt):
    polls: list = []
    poll = rt.poller.poll

    def counting(timeout):
        polls.append(timeout)
        return poll(timeout)

    rt.poller.poll = counting
    return polls
