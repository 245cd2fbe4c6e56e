"""The live-runtime I/O pollers: persistent epoll interest sets and the
portable selectors fallback.

The tentpole property under test: the epoll poller mutates the kernel
interest set only when the combined waiter mask actually *changes* — the
canonical park → fire → re-park cycle of a keep-alive connection costs
zero ``epoll_ctl`` calls after first registration.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.do_notation import do
from repro.core.events import EVENT_READ, EVENT_WRITE
from repro.core.syscalls import sys_fork
from repro.runtime import live_runtime
from repro.runtime.live_runtime import (
    HAS_EPOLL,
    EpollPoller,
    LiveRuntime,
    SelectorPoller,
    make_poller,
)

needs_epoll = pytest.mark.skipif(not HAS_EPOLL, reason="platform lacks epoll")


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.setblocking(False)
    b.setblocking(False)
    yield a, b
    a.close()
    b.close()


@needs_epoll
class TestEpollInterestSet:
    def make(self):
        return EpollPoller()

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


def _without_epoll(monkeypatch):
    """Stand in for a platform that lacks ``select.epoll``."""
    monkeypatch.setattr(live_runtime, "HAS_EPOLL", False)


class TestMakePoller:
    def test_auto_prefers_epoll_where_available(self):
        poller = make_poller()
        try:
            assert poller.name == ("epoll" if HAS_EPOLL else "select")
        finally:
            poller.close()

    def test_explicit_select(self, monkeypatch):
        # The platform, not the caller, selects the fallback.
        _without_epoll(monkeypatch)
        poller = make_poller()
        try:
            assert isinstance(poller, SelectorPoller)
        finally:
            poller.close()

    def test_unknown_kind_rejected(self):
        # There is no kind to ask for: the platform decides.
        with pytest.raises(TypeError):
            make_poller("kqueue-someday")


def _echo_roundtrips(rt: LiveRuntime, cycles: int, payload: bytes = b"ping"):
    """An echo server on ``rt`` driven by a blocking client thread for
    ``cycles`` request/response round trips.  Returns when done."""
    listener = rt.make_listener()
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


@needs_epoll
class TestRuntimeHotPath:
    def test_keepalive_cycles_do_not_rearm(self):
        """End to end: many echo round trips over one connection keep the
        epoll_ctl count flat (no per-wait re-registration)."""
        rt = LiveRuntime()
        try:
            assert isinstance(rt.poller, EpollPoller)
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
            assert isinstance(rt.poller, SelectorPoller)
            assert rt.poller.name == "select"
            _echo_roundtrips(rt, cycles=20)
            # The fallback re-registers per wait: churn is expected — the
            # loop must simply work.
            assert rt.poller.ctl_calls > 0
        finally:
            rt.shutdown()

    def test_fallback_concurrent_clients(self, monkeypatch):
        _without_epoll(monkeypatch)
        rt = LiveRuntime()
        try:
            listener = rt.make_listener()
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
