"""The live runtime's one poller: a persistent epoll interest set, over
the kernel's epoll or, where the platform has none, over ``selectors``.

The property under test: the poller mutates the interest set only when
the combined waiter mask *widens* — the canonical park → fire → re-park
cycle of a keep-alive connection costs zero ``epoll_ctl`` calls after
first registration, whichever multiplexer is underneath.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time

import pytest

from repro.core.do_notation import do
from repro.core.events import EVENT_READ, EVENT_WRITE
from repro.core.syscalls import sys_fork
from repro.runtime import live_runtime
from repro.runtime.live_runtime import LiveRuntime, Poller, make_listener


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.setblocking(False)
    b.setblocking(False)
    yield a, b
    a.close()
    b.close()


def _without_epoll(monkeypatch):
    """Stand in for a platform that lacks ``select.epoll``."""
    monkeypatch.setattr(live_runtime, "HAS_EPOLL", False)


class TestEpollInterestSet:
    """The interest-set rules over the platform's multiplexer: the
    kernel's epoll where there is one."""

    def make(self):
        return Poller()

    def test_repark_same_mask_is_free(self, pair):
        """The keep-alive cycle: after the first registration, parking on
        the same mask again issues no epoll_ctl at all."""
        a, b = pair
        poller = self.make()
        try:
            tcb = object()
            poller.wait(a, EVENT_READ, tcb, lambda v: v)
            assert (poller.ctl_adds, poller.ctl_mods, poller.ctl_dels) == (
                1, 0, 0,
            )
            for cycle in range(10):
                b.send(b"x")
                resumes = poller.poll(1.0)
                assert len(resumes) == 1
                assert resumes[0][2] & EVENT_READ
                a.recv(16)  # consume, as the resumed thread would
                poller.wait(a, EVENT_READ, tcb, lambda v: v)
            # Ten full park/fire/re-park cycles later: still one ctl call.
            assert poller.ctl_calls == 1
        finally:
            poller.close()

    def test_mask_widening_is_one_modify(self, pair):
        a, b = pair
        poller = self.make()
        try:
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            poller.wait(a, EVENT_WRITE, object(), lambda v: v)
            assert (poller.ctl_adds, poller.ctl_mods) == (1, 1)
            # A further reader adds nothing: mask already covers READ.
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            assert (poller.ctl_adds, poller.ctl_mods) == (1, 1)
            # The socketpair end is writable: the write waiter fires.
            resumes = poller.poll(1.0)
            assert any(ready & EVENT_WRITE for _t, _c, ready in resumes)
        finally:
            poller.close()

    def test_spurious_fire_tolerated_while_busy(self, pair):
        """A busy poll (timeout 0: the scheduler still has work) tolerates
        unclaimed readiness without touching the interest set — the
        resumed thread simply hasn't consumed its data yet."""
        a, b = pair
        poller = self.make()
        try:
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            b.send(b"pending")
            assert len(poller.poll(1.0)) == 1  # waiter resumed, mask sticky
            ctl_before = poller.ctl_calls
            assert poller.poll(0.0) == []
            assert poller.poll(0.0) == []
            assert poller.ctl_calls == ctl_before
            # Re-parking on the still-armed mask stays free, and the
            # buffered data fires immediately.
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            assert poller.ctl_calls == ctl_before
            assert len(poller.poll(0.0)) == 1
        finally:
            poller.close()

    def test_spurious_fire_narrows_mask_before_sleeping(self, pair):
        """An *idle* poll (timeout > 0) must narrow the mask on a spurious
        fire, or the unclaimed descriptor would spin the sleep."""
        a, b = pair
        poller = self.make()
        try:
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            b.send(b"pending")
            assert len(poller.poll(1.0)) == 1
            # Nobody re-parked and the data is still unread: the idle-poll
            # fire is spurious and disarms the descriptor.
            assert poller.poll(0.01) == []
            assert poller.ctl_mods >= 1
            assert poller.poll(0.01) == []  # disarmed: silence, not a spin
        finally:
            poller.close()

    def test_discard_forgets_the_descriptor(self, pair):
        a, b = pair
        poller = self.make()
        try:
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            assert poller.waiter_count == 1
            poller.discard(a)
            assert poller.waiter_count == 0
            assert poller.ctl_dels == 1
            b.send(b"x")
            assert poller.poll(0.1) == []
        finally:
            poller.close()

    def test_error_hangup_wakes_both_directions(self, pair):
        a, b = pair
        poller = self.make()
        try:
            poller.wait(a, EVENT_READ, object(), lambda v: v)
            b.close()
            resumes = poller.poll(1.0)
            assert len(resumes) == 1
            assert resumes[0][2] & EVENT_READ
        finally:
            poller.close()


class TestSelectorInterestSet(TestEpollInterestSet):
    """The same rules, ctl counts included, on a platform without
    epoll: the poller runs over ``selectors.DefaultSelector``."""

    @pytest.fixture(autouse=True)
    def _selectors(self, monkeypatch):
        _without_epoll(monkeypatch)

    def test_the_platform_picks_the_multiplexer(self):
        poller = self.make()
        try:
            assert poller.name == "selectors"
        finally:
            poller.close()


class _SplitEvents(selectors.DefaultSelector):
    """Reports a descriptor's read and write readiness as two events, as
    kqueue does."""

    def select(self, timeout=None):
        return [
            (key, bit)
            for key, events in super().select(timeout)
            for bit in (selectors.EVENT_READ, selectors.EVENT_WRITE)
            if events & bit
        ]


class TestSplitEvents:
    def test_read_and_write_events_are_one_report(self, pair, monkeypatch):
        _without_epoll(monkeypatch)
        monkeypatch.setattr(selectors, "DefaultSelector", _SplitEvents)
        a, b = pair
        poller = Poller()
        try:
            reader, writer = object(), object()
            poller.wait(a, EVENT_READ, reader, lambda v: v)
            poller.wait(a, EVENT_WRITE, writer, lambda v: v)
            b.send(b"x")
            resumes = poller.poll(1.0)
            assert sorted((id(tcb), ready) for tcb, _c, ready in resumes) == (
                sorted([(id(reader), EVENT_READ), (id(writer), EVENT_WRITE)])
            )
            ctl = poller.ctl_calls
            for _cycle in range(3):
                # The reader re-parks on the sticky read+write mask; an
                # idle poll that fires it must not count the write half
                # as a spurious fire and narrow the descriptor away.
                poller.wait(a, EVENT_READ, reader, lambda v: v)
                resumes = poller.poll(1.0)
                assert [(tcb, ready) for tcb, _c, ready in resumes] == [
                    (reader, EVENT_READ)
                ]
            assert poller.ctl_calls == ctl
        finally:
            poller.close()


def _echo_roundtrips(rt: LiveRuntime, cycles: int, payload: bytes = b"ping"):
    """An echo server on ``rt`` driven by a blocking client thread for
    ``cycles`` request/response round trips.  Returns when done."""
    listener = make_listener()
    port = listener.getsockname()[1]
    finished = []

    @do
    def server():
        conn = yield rt.io.accept(listener)
        while True:
            data = yield rt.io.read(conn, 4096)
            if not data:
                break
            yield rt.io.write_all(conn, data)
        yield rt.io.close(conn)

    def client():
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        try:
            for cycle in range(cycles):
                sock.sendall(payload)
                got = b""
                while len(got) < len(payload):
                    got += sock.recv(4096)
                assert got == payload
                if cycle % 8 == 0:
                    time.sleep(0.002)  # force the server to park between
        finally:
            sock.close()
        finished.append(True)

    rt.spawn(server(), name="echo")
    driver = threading.Thread(target=client, daemon=True)
    driver.start()
    rt.run(until=lambda: bool(finished), idle_timeout=10.0)
    driver.join(timeout=10)
    listener.close()
    assert finished, "client thread never completed"


class TestRuntimeHotPath:
    def test_keepalive_cycles_do_not_rearm(self):
        """End to end: many echo round trips over one connection keep the
        epoll_ctl count flat (no per-wait re-registration)."""
        rt = LiveRuntime()
        try:
            assert isinstance(rt.poller, Poller)
            _echo_roundtrips(rt, cycles=50)
            # Budget: listener ADD + connection ADD + teardown DELs + a
            # handful of spurious-narrowing MODs.  Fifty cycles of
            # add/del-per-wait churn would exceed this many times over.
            assert rt.poller.ctl_calls <= 10, (
                f"epoll_ctl churn: adds={rt.poller.ctl_adds} "
                f"mods={rt.poller.ctl_mods} dels={rt.poller.ctl_dels}"
            )
        finally:
            rt.shutdown()


class TestSelectorFallback:
    def test_echo_roundtrips_on_fallback_loop(self, monkeypatch):
        _without_epoll(monkeypatch)
        rt = LiveRuntime()
        try:
            assert rt.poller.name == "selectors"
            _echo_roundtrips(rt, cycles=20)
            # The same sticky interest set: no per-wait re-registration.
            assert rt.poller.ctl_calls <= 10, (
                f"selector churn: adds={rt.poller.ctl_adds} "
                f"mods={rt.poller.ctl_mods} dels={rt.poller.ctl_dels}"
            )
        finally:
            rt.shutdown()

    def test_fallback_concurrent_clients(self, monkeypatch):
        _without_epoll(monkeypatch)
        rt = LiveRuntime()
        try:
            listener = make_listener()
            port = listener.getsockname()[1]
            done = []

            @do
            def handle(conn):
                data = yield rt.io.read(conn, 1024)
                yield rt.io.write_all(conn, data[::-1])
                yield rt.io.close(conn)

            @do
            def acceptor():
                while True:
                    batch = yield rt.io.accept_many(listener, 8)
                    for conn in batch:
                        yield sys_fork(handle(conn))

            @do
            def client(i):
                conn = yield rt.io.connect(("127.0.0.1", port))
                msg = f"fallback-{i}".encode()
                yield rt.io.write_all(conn, msg)
                reply = yield rt.io.read_exact(conn, len(msg))
                assert reply == msg[::-1]
                done.append(i)
                yield rt.io.close(conn)

            rt.spawn(acceptor())
            for i in range(10):
                rt.spawn(client(i))
            rt.run(until=lambda: len(done) == 10, idle_timeout=5.0)
            listener.close()
            assert sorted(done) == list(range(10))
        finally:
            rt.shutdown()


def _socket_numbered(fileno):
    """One end of a fresh socket pair, moved onto descriptor ``fileno``;
    returns ``(that end, its peer)``."""
    fresh, peer = socket.socketpair()
    if fresh.fileno() != fileno:  # the lowest free number, usually
        os.dup2(fresh.fileno(), fileno)
        fresh.close()
        fresh = socket.socket(fileno=fileno)
    fresh.setblocking(False)
    peer.setblocking(False)
    return fresh, peer


class TestReusedDescriptorNumber:
    @pytest.mark.parametrize("epoll", [True, False],
                             ids=["epoll", "selectors"])
    def test_parks_and_fires(self, epoll, monkeypatch):
        """A descriptor closed behind the poller's back (not through
        ``io.close``) while a thread is parked on it: a new socket that
        gets its number parks and fires like any other."""
        if not epoll:
            _without_epoll(monkeypatch)
        rt = LiveRuntime()
        first, first_peer = socket.socketpair()
        first.setblocking(False)
        stranded, got = [], []

        @do
        def reader(sock, into):
            into.append((yield rt.io.read(sock, 16)))

        try:
            rt.spawn(reader(first, stranded))
            rt.run(until=lambda: rt.poller.waiter_count == 1)
            number = first.fileno()
            first.close()
            reused, peer = _socket_numbered(number)
            try:
                rt.spawn(reader(reused, got))  # parks before the write
                rt.spawn(rt.io.write_all(peer, b"hello"))
                rt.run(until=lambda: bool(got), idle_timeout=2.0)
                assert got == [b"hello"]
                assert stranded == []
            finally:
                reused.close()
                peer.close()
        finally:
            first_peer.close()
            rt.shutdown()
