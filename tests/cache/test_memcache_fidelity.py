"""Memcache fidelity: real ``flags`` round-trips and honored ``exptime``.

Wire level reuses the live-protocol harness (raw monadic client against
a :func:`build_cache_frontend`); expiry-arming mechanics run against a
fake timer wheel so the schedule/cancel/supersede choreography is
asserted without wall-clock sleeps — plus one real-wheel test that lets
a one-second expiry actually fire.
"""

from __future__ import annotations

import time
import zlib

import pytest

from repro.app.kv import KvNode
from repro.cache import build_cache_frontend
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.runtime.live_runtime import LiveRuntime, make_listener


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def _start(rt, store=None, **kwargs):
    listener = make_listener()
    node = store if store is not None else KvNode(0, 1)
    frontend = build_cache_frontend(rt, listener, node,
                                    protocol="memcache", **kwargs)
    rt.spawn(frontend.main(), name="cache-memcache")
    return frontend, node, listener.getsockname()[1]


def _drive(rt, port, payload, done=None):
    collected = bytearray()
    finished = []

    @do
    def client():
        conn = yield rt.io.connect(("127.0.0.1", port))
        yield rt.io.write_all(conn, payload)
        while done is None or not done(bytes(collected)):
            data = yield rt.io.read(conn, 65536)
            if not data:
                break
            collected.extend(data)
        finished.append(True)
        yield rt.io.close(conn)

    rt.spawn(client(), name="cache-raw-client")
    rt.run(until=lambda: bool(finished), idle_timeout=5.0)
    assert finished, "client never completed"
    return bytes(collected)


class _FakeHandle:
    def __init__(self, delay, action):
        self.delay = delay
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _FakeTimers:
    """Records ``schedule`` calls; tests fire the actions by hand."""

    def __init__(self):
        self.scheduled: list[_FakeHandle] = []

    def schedule(self, delay, action):
        handle = _FakeHandle(delay, action)
        self.scheduled.append(handle)
        return pure(handle)

    def live(self):
        return [h for h in self.scheduled if not h.cancelled]


class TestFlagsRoundTrip:
    def test_get_echoes_stored_flags(self, rt):
        _frontend, _node, port = _start(rt)
        payload = b"set k 42 0 5\r\nhello\r\nget k\r\n"
        expected = b"STORED\r\nVALUE k 42 5\r\nhello\r\nEND\r\n"
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected

    def test_gets_echoes_flags_beside_cas(self, rt):
        _frontend, _node, port = _start(rt)
        cas = zlib.crc32(b"hello")
        payload = b"set k 7 0 5\r\nhello\r\ngets k\r\n"
        expected = (b"STORED\r\nVALUE k 7 5 %d\r\nhello\r\nEND\r\n" % cas)
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected

    def test_reset_replaces_flags(self, rt):
        _frontend, _node, port = _start(rt)
        payload = (b"set k 9 0 1\r\nA\r\n"
                   b"set k 0 0 1\r\nB\r\n"
                   b"get k\r\n")
        expected = b"STORED\r\nSTORED\r\nVALUE k 0 1\r\nB\r\nEND\r\n"
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected

    def test_default_flags_store_no_metadata(self, rt):
        frontend, _node, port = _start(rt)
        payload = b"set k 0 0 1\r\nx\r\nget k\r\n"
        expected = b"STORED\r\nVALUE k 0 1\r\nx\r\nEND\r\n"
        _drive(rt, port, payload, done=lambda got: got == expected)
        assert frontend.protocol._meta == {}

    def test_delete_drops_metadata(self, rt):
        frontend, _node, port = _start(rt)
        payload = b"set k 3 0 1\r\nx\r\ndelete k\r\n"
        expected = b"STORED\r\nDELETED\r\n"
        _drive(rt, port, payload, done=lambda got: got == expected)
        assert frontend.protocol._meta == {}


class TestExptimeArming:
    def test_relative_exptime_arms_the_wheel(self, rt):
        timers = _FakeTimers()
        frontend, _node, port = _start(rt, timers=timers)
        payload = b"set k 0 300 1\r\nx\r\n"
        _drive(rt, port, payload, done=lambda got: got == b"STORED\r\n")
        assert [h.delay for h in timers.live()] == [300.0]
        flags, deadline = frontend.protocol._meta["k"]
        assert flags == 0 and deadline is not None

    def test_absolute_exptime_converts_to_delay(self, rt):
        timers = _FakeTimers()
        _frontend, _node, port = _start(rt, timers=timers)
        exptime = int(time.time()) + 120
        payload = b"set k 0 %d 1\r\nx\r\n" % exptime
        _drive(rt, port, payload, done=lambda got: got == b"STORED\r\n")
        (handle,) = timers.live()
        assert 115 < handle.delay <= 121

    def test_absolute_past_exptime_expires_immediately(self, rt):
        # Any exptime beyond 30 days is an absolute unix timestamp;
        # 2592001 is in 1970, so the value dies on arrival.
        timers = _FakeTimers()
        _frontend, node, port = _start(rt, timers=timers)
        payload = b"set k 0 2592001 1\r\nx\r\nget k\r\n"
        expected = b"STORED\r\nEND\r\n"
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected
        assert node.store == {}
        assert timers.scheduled == []  # nothing to arm: already dead

    def test_reset_cancels_pending_expiry(self, rt):
        timers = _FakeTimers()
        frontend, node, port = _start(rt, timers=timers)
        payload = b"set k 0 300 1\r\nA\r\nset k 0 0 1\r\nB\r\n"
        _drive(rt, port, payload,
               done=lambda got: got == b"STORED\r\nSTORED\r\n")
        assert timers.live() == []
        assert timers.scheduled[0].cancelled
        # A stale sweep firing anyway (cancel is lazy in the real
        # wheel) must stand down: the handle is no longer current.
        assert timers.scheduled[0].action() is None
        assert node.store == {"k": b"B"}

    def test_delete_cancels_pending_expiry(self, rt):
        timers = _FakeTimers()
        _frontend, _node, port = _start(rt, timers=timers)
        payload = b"set k 0 300 1\r\nA\r\ndelete k\r\n"
        _drive(rt, port, payload,
               done=lambda got: got == b"STORED\r\nDELETED\r\n")
        assert timers.live() == []

    def test_sweep_forks_the_store_delete(self, rt):
        timers = _FakeTimers()
        _frontend, node, port = _start(rt, timers=timers)
        payload = b"set k 0 300 1\r\nA\r\n"
        _drive(rt, port, payload, done=lambda got: got == b"STORED\r\n")
        (handle,) = timers.live()
        forked = handle.action()  # the deadline passes
        assert forked is not None  # a sys_fork of the delete

        @do
        def run_sweep():
            yield forked

        rt.spawn(run_sweep(), name="sweep")
        rt.run(until=lambda: "k" not in node.store, idle_timeout=5.0)
        assert node.store == {}

    def test_lazy_get_check_hides_expired_value(self, rt):
        # The wheel's sweep may lag its deadline (it never fires here at
        # all); a get past the deadline still reports a miss.
        timers = _FakeTimers()
        _frontend, node, port = _start(rt, timers=timers)
        _drive(rt, port, b"set k 0 1 1\r\nA\r\n",
               done=lambda got: got == b"STORED\r\n")
        deadline = _frontend.protocol._meta["k"][1]
        _frontend.protocol._meta["k"] = (0, deadline - 2.0)  # now past
        data = _drive(rt, port, b"get k\r\n",
                      done=lambda got: got == b"END\r\n")
        assert data == b"END\r\n"
        assert "k" in node.store  # only the reply hides it; sweep cleans

    def test_without_timers_exptime_is_ignored(self, rt):
        frontend, _node, port = _start(rt, timers=None)
        payload = b"set k 5 300 1\r\nx\r\nget k\r\n"
        expected = b"STORED\r\nVALUE k 5 1\r\nx\r\nEND\r\n"
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected
        assert frontend.protocol._meta == {"k": (5, None)}


class TestExptimeLive:
    def test_one_second_expiry_fires_through_the_real_wheel(self, rt):
        frontend, node, port = _start(rt)  # rt.timers rides along
        assert frontend.protocol.timers is rt.timers
        payload = b"set k 0 1 1\r\nx\r\nget k\r\n"
        expected = b"STORED\r\nVALUE k 0 1\r\nx\r\nEND\r\n"
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected  # alive inside the window
        rt.run(until=lambda: "k" not in node.store, idle_timeout=5.0)
        assert node.store == {}
        data = _drive(rt, port, b"get k\r\n",
                      done=lambda got: got == b"END\r\n")
        assert data == b"END\r\n"
