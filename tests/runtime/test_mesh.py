"""Mesh framing and data-plane edge cases, over real sockets.

Two :class:`MeshNode` ends run in one :class:`LiveRuntime` (both sets of
descriptors in one poller — the mesh is ordinary monadic I/O), plus raw
"fake peer" endpoints for the failure scenarios: partial reads mid-frame,
peer disconnect mid-call, timeouts, and fan-out with a dead peer.
"""

from __future__ import annotations

import socket as socket_mod
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import do_notation, thread
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.sync import MVar
from repro.core.syscalls import sys_sleep
from repro.core.trace import SysCall, SysFork
from repro.runtime import mesh as mesh_module
from repro.runtime.io_api import ConnectionClosed
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.mesh import (
    FLUSH_MAX_FRAMES,
    KIND_CAST,
    KIND_PING,
    KIND_REPLY,
    KIND_REQUEST,
    FrameReader,
    MeshNode,
    MeshPeerDown,
    MeshProtocolError,
    MeshRemoteError,
    MeshTimeout,
)
from repro.runtime.sim_runtime import SimRuntime
from repro.simos.pipe import make_pipe

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!BQ")


def frame_bytes(kind: int, request_id: int, body: bytes) -> bytes:
    payload = _HEAD.pack(kind, request_id) + body
    return _LEN.pack(len(payload)) + payload


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def echo_handler(body):
    return pure(b"echo:" + body)


def make_pair(rt, handler_a=echo_handler, handler_b=echo_handler, **kwargs):
    """Two mesh nodes, both served on one runtime."""
    listener_a = make_listener()
    listener_b = make_listener()
    peers = {
        0: ("127.0.0.1", listener_a.getsockname()[1]),
        1: ("127.0.0.1", listener_b.getsockname()[1]),
    }
    node_a = MeshNode(0, rt.io, listener_a, peers, rt.timers,
                      handler=handler_a, **kwargs)
    node_b = MeshNode(1, rt.io, listener_b, peers, rt.timers,
                      handler=handler_b, **kwargs)
    rt.spawn(node_a.serve(), name="mesh-a")
    rt.spawn(node_b.serve(), name="mesh-b")
    return node_a, node_b


class TestCalls:
    def test_round_trip_and_persistent_link(self, rt):
        node_a, node_b = make_pair(rt)
        replies = []

        @do
        def caller():
            first = yield node_a.call(1, b"one")
            second = yield node_a.call(1, b"two")
            replies.append((first, second))

        rt.spawn(caller())
        rt.run(until=lambda: bool(replies), idle_timeout=5.0)
        assert replies == [(b"echo:one", b"echo:two")]
        # Lazily dialed once, then reused: one persistent link.
        assert node_a.connected_peers() == 1
        assert node_a.stats.calls == 2
        assert node_b.stats.served == 2

    def test_cast_is_one_way(self, rt):
        # A cast runs the remote handler but sends no reply frame: the
        # server's served counter moves, the client's pending map never
        # grows, and a follow-up call on the same link still works.
        seen = []

        def recording(body):
            seen.append(body)
            return pure(b"ignored")

        node_a, node_b = make_pair(rt, handler_b=recording)
        done = []

        @do
        def caller():
            yield node_a.cast(1, b"fire-and-forget")
            reply = yield node_a.call(1, b"sync")
            done.append(reply)

        rt.spawn(caller())
        rt.run(until=lambda: bool(done), idle_timeout=5.0)
        assert seen == [b"fire-and-forget", b"sync"]
        assert done == [b"ignored"]
        assert node_a.stats.casts == 1
        assert node_b.stats.served == 2

    def test_self_call_short_circuits(self, rt):
        node_a, _node_b = make_pair(rt)
        replies = []

        @do
        def caller():
            reply = yield node_a.call(0, b"me")
            replies.append(reply)

        rt.spawn(caller())
        rt.run(until=lambda: bool(replies), idle_timeout=5.0)
        assert replies == [b"echo:me"]
        assert node_a.connected_peers() == 0  # no socket for self-calls

    def test_concurrent_calls_multiplex_one_link(self, rt):
        # Slow replies out of order: request ids must demultiplex them.
        @do
        def staggered(body):
            delay = 0.05 if body == b"0" else 0.005
            yield sys_sleep(delay)
            return b"r:" + body

        node_a, _node_b = make_pair(rt, handler_b=staggered)
        results = {}

        @do
        def caller(i):
            reply = yield node_a.call(1, str(i).encode())
            results[i] = reply

        count = 8
        for i in range(count):
            rt.spawn(caller(i))
        rt.run(until=lambda: len(results) == count, idle_timeout=5.0)
        assert results == {i: b"r:" + str(i).encode() for i in range(count)}
        assert node_a.connected_peers() == 1

    def test_missing_handler_fails_fast_not_timeout(self, rt):
        # A shard without a mesh handler (OSError-derived failure) must
        # answer with an error reply, not strand the caller until its
        # timeout.
        node_a, _node_b = make_pair(rt, handler_b=None)
        outcome = []

        @do
        def caller():
            try:
                yield node_a.call(1, b"x", timeout=10.0)
            except MeshRemoteError as exc:
                outcome.append(exc)

        started = time.monotonic()
        rt.spawn(caller())
        rt.run(until=lambda: bool(outcome), idle_timeout=10.0)
        assert "no mesh handler" in str(outcome[0])
        assert time.monotonic() - started < 5.0
        assert node_a.stats.timeouts == 0

    def test_remote_handler_error_surfaces(self, rt):
        @do
        def broken(body):
            yield sys_sleep(0)
            raise ValueError("kaboom")

        node_a, _node_b = make_pair(rt, handler_b=broken)
        outcome = []

        @do
        def caller():
            try:
                yield node_a.call(1, b"x")
            except MeshRemoteError as exc:
                outcome.append(exc)

        rt.spawn(caller())
        rt.run(until=lambda: bool(outcome), idle_timeout=5.0)
        assert "kaboom" in str(outcome[0])


class TestFramingEdges:
    def test_partial_reads_mid_frame_reassemble(self, rt):
        """A request dribbled one byte at a time parses identically."""
        node_a, _node_b = make_pair(rt)
        port = node_a.listener.getsockname()[1]
        raw = frame_bytes(KIND_REQUEST, 7, b"dribble")
        received = []

        @do
        def dribbler():
            conn = yield rt.io.connect(("127.0.0.1", port))
            for index in range(len(raw)):
                yield rt.io.write_all(conn, raw[index:index + 1])
                yield sys_sleep(0.001)
            reply = yield FrameReader(rt.io, conn).recv()
            received.append(reply)
            yield rt.io.close(conn)

        rt.spawn(dribbler())
        rt.run(until=lambda: bool(received), idle_timeout=10.0)
        assert received[0] == (KIND_REPLY, 7, b"echo:dribble")

    def test_oversized_frame_downs_the_link(self, rt):
        node_a, _node_b = make_pair(rt, max_frame=1024)
        port = node_a.listener.getsockname()[1]
        finished = []

        @do
        def attacker():
            conn = yield rt.io.connect(("127.0.0.1", port))
            # Announce a frame far beyond max_frame; the server must
            # close the link instead of buffering toward it.
            yield rt.io.write_all(conn, _LEN.pack(64 * 1024 * 1024))
            data = yield rt.io.read(conn, 4096)
            finished.append(data)
            yield rt.io.close(conn)

        rt.spawn(attacker())
        rt.run(until=lambda: bool(finished), idle_timeout=5.0)
        assert finished == [b""]  # EOF: link closed, nothing served
        assert node_a.stats.served == 0

    def test_oversized_reply_fails_its_call_not_the_link(self, rt):
        # The sender checks max_frame where the bytes are made: the big
        # reply becomes an error reply, and a second call pending on the
        # same link (parked in its handler meanwhile) still succeeds.
        @do
        def handler(body):
            if body == b"big":
                return b"x" * 4096
            yield sys_sleep(0.05)
            return b"echo:" + body

        node_a, _node_b = make_pair(rt, handler_b=handler, max_frame=1024)
        outcomes = {}

        @do
        def caller(body):
            try:
                outcomes[body] = yield node_a.call(1, body)
            except MeshRemoteError as exc:
                outcomes[body] = exc

        rt.spawn(caller(b"slow"))
        rt.spawn(caller(b"big"))
        rt.run(until=lambda: len(outcomes) == 2, idle_timeout=5.0)
        assert outcomes[b"slow"] == b"echo:slow"
        assert isinstance(outcomes[b"big"], MeshRemoteError)
        assert "max_frame=1024" in str(outcomes[b"big"])
        assert node_a.stats.peer_failures == 0
        assert node_a.connected_peers() == 1

    def test_oversized_request_fails_its_caller_not_the_link(self, rt):
        node_a, node_b = make_pair(rt, max_frame=1024)
        outcomes = []

        @do
        def caller():
            outcomes.append((yield node_a.call(1, b"warm")))
            for send in (node_a.call, node_a.cast):
                try:
                    yield send(1, b"x" * 4096)
                except MeshProtocolError as exc:
                    outcomes.append(exc)
            outcomes.append((yield node_a.call(1, b"after")))

        rt.spawn(caller())
        rt.run(until=lambda: len(outcomes) == 4, idle_timeout=5.0)
        assert outcomes[0] == b"echo:warm" and outcomes[3] == b"echo:after"
        assert all(isinstance(exc, MeshProtocolError)
                   for exc in outcomes[1:3])
        assert node_a.stats.peer_failures == 0
        assert node_b.stats.served == 2  # neither oversized frame left


def read_frames(chunks, max_frame=1 << 20, close=True):
    """Push ``chunks`` through a simulated pipe, one write per virtual
    millisecond, into a :class:`FrameReader`; returns the frames it
    handed out, how it ended (``None`` for a clean EOF, else the
    exception) and the reader."""
    rt = SimRuntime()
    r, w = make_pipe(capacity=1 << 20)
    reader = FrameReader(rt.io, r, max_frame)
    frames, ending = [], []

    @do
    def consume():
        try:
            while True:
                frame = yield reader.recv()
                if frame is None:
                    ending.append(None)
                    return
                frames.append(frame)
        except OSError as exc:
            ending.append(exc)

    @do
    def produce():
        for chunk in chunks:
            yield rt.io.write_all(w, chunk)
            yield sys_sleep(0.001)
        if close:
            yield rt.io.close(w)

    rt.spawn(consume(), name="consume")
    rt.spawn(produce(), name="produce")
    rt.run(until=lambda: bool(ending))
    return frames, ending[0], reader


_frames = st.lists(
    st.tuples(
        st.sampled_from([KIND_REQUEST, KIND_REPLY, KIND_CAST, KIND_PING]),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.binary(max_size=300),  # empty bodies (pings) included
    ),
    max_size=8,
)


class TestFrameReader:
    @settings(max_examples=60, deadline=None)
    @given(frames=_frames, cuts=st.lists(st.integers(0, 4000), max_size=12))
    def test_any_chunking_yields_the_same_frames(self, frames, cuts):
        stream = b"".join(frame_bytes(*frame) for frame in frames)
        edges = sorted({min(cut, len(stream)) for cut in cuts}
                       | {0, len(stream)})
        chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
        got, ending, reader = read_frames(chunks)
        assert got == frames
        assert ending is None  # EOF between frames is a clean close
        assert not reader._buf

    def test_frames_already_buffered_cost_no_read(self):
        rt = SimRuntime()
        r, w = make_pipe(capacity=1 << 16)
        w.write(b"".join(frame_bytes(KIND_CAST, i, b"x" * i)
                         for i in range(5)))
        reader = FrameReader(rt.io, r)
        got = []

        @do
        def consume():
            for _ in range(5):
                got.append((yield reader.recv()))

        rt.spawn(consume())
        rt.run()
        assert got == [(KIND_CAST, i, b"x" * i) for i in range(5)]
        assert rt.backend.read_calls == 1

    @pytest.mark.parametrize("length", [0, _HEAD.size - 1, (1 << 20) + 1,
                                        64 * 1024 * 1024])
    def test_bad_length_prefix_rejected_before_the_body(self, length):
        # The writer stays open and never sends a body: a reader that
        # tried to buffer toward ``length`` would wait forever.
        got, ending, reader = read_frames(
            [_LEN.pack(length) + b"tail"], close=False
        )
        assert got == []
        assert isinstance(ending, MeshProtocolError)
        assert len(reader._buf) <= _LEN.size + 4

    def test_eof_mid_frame_is_connection_closed(self):
        whole = frame_bytes(KIND_REQUEST, 1, b"complete")
        torn = frame_bytes(KIND_REQUEST, 2, b"never finished")[:-3]
        got, ending, _reader = read_frames([whole, torn])
        assert got == [(KIND_REQUEST, 1, b"complete")]
        assert isinstance(ending, ConnectionClosed)

    def test_eof_inside_the_length_prefix_is_connection_closed(self):
        got, ending, _reader = read_frames([b"\x00\x00"])
        assert got == []
        assert isinstance(ending, ConnectionClosed)


def fork_names(rt):
    """Names of every thread forked or spawned on ``rt`` from now on
    (the scheduler reads the hook once per batch: install it from
    outside the threads under test)."""
    names: list = []

    def record(_tcb, node):
        if isinstance(node, SysFork):
            names.append(node.name or "")
        elif isinstance(node, SysCall) and node.fn is thread._spawn:
            names.append(node.arg[1] or "")

    rt.sched.on_syscall = record
    return names


WRITE_TIMEOUT = 3.0  # unlike any other delay a test node arms


def armed_delays(rt):
    """The delay of every ``rt.timers.schedule`` from now on.  A flush
    trigger is 0, a call deadline ``call_timeout`` and a write watchdog
    ``write_timeout`` — ``timers.scheduled`` alone cannot tell them
    apart, so watchdog assertions give the node :data:`WRITE_TIMEOUT`
    and look for it here."""
    delays: list = []
    schedule = rt.timers.schedule

    def spy(delay, action):
        delays.append(delay)
        return schedule(delay, action)

    rt.timers.schedule = spy
    return delays


class TestCallBudget:
    def test_sequential_call_costs(self, rt):
        """The fast path's cost, from the program's own counters: a
        regression here fails in seconds, not after a benchmark set."""
        node_a, node_b = make_pair(rt, write_timeout=WRITE_TIMEOUT)
        warmed, done = [], []
        calls = 200

        @do
        def warm():
            yield node_a.call(1, b"warm")  # dial, spawn the demux
            warmed.append(True)

        @do
        def caller():
            for index in range(calls):
                yield node_a.call(1, b"seq-%d" % index)
            done.append(True)

        rt.spawn(warm())
        rt.run(until=lambda: bool(warmed), idle_timeout=5.0)

        def snapshot():
            return (rt.sched.stats()["total_switches"],
                    rt.sched.stats()["total_syscalls"],
                    rt.poller.polls,
                    rt.backend.read_calls,
                    rt.timers.stats()["scheduled"],
                    node_a.stats.frames_sent + node_b.stats.frames_sent)

        before = snapshot()
        delays = armed_delays(rt)
        names = fork_names(rt)
        rt.spawn(caller())
        rt.run(until=lambda: bool(done), idle_timeout=10.0)
        assert done
        switches, nodes, polls, reads, timers, frames = (
            (after - start) / calls
            for after, start in zip(snapshot(), before)
        )
        # 7 / 33 at PR 19: a frame no longer costs a forked flusher (a
        # TCB, a generator, three trace nodes, a switch), and a live
        # link is taken without entering ``_link``.  3 (reader, demux,
        # caller): the peer's reader serves the request itself.
        assert switches <= 3.1, f"{switches} context switches per call"
        # 6.0: a nested @do call costs no node, and a request that does
        # not park costs no thread.
        assert nodes <= 6.1, f"{nodes} trace nodes per call"
        # One blocking poll per frame: the request's flush and the
        # reply's each fire off a dry ready queue, and nothing forked or
        # woken mid-turn buys a turn of its own.
        assert polls == 2, f"{polls} polls per call"
        assert rt.poller.zero_timeout_polls <= 5
        assert reads <= 2.2, f"{reads} recv syscalls per call"
        # The call's deadline, and one flush trigger per frame.
        assert timers == 3, f"{timers} timers scheduled per call"
        assert frames == 2, f"{frames} frames per call"
        assert delays.count(0) == 2 * calls
        assert rt.timers.armed <= 200  # dead deadlines do not pile up
        assert WRITE_TIMEOUT not in delays  # zero watchdogs
        assert node_a.stats.write_timeouts == 0
        assert rt.timers.stats()["action_errors"] == 0
        assert "mesh-flush" not in names and "timer-action" not in names


def new_threads(rt):
    """Names of every thread created on ``rt`` from now on, however it
    was made (a fork, a spawn, a timer action's thread)."""
    names: list = []
    original = rt.sched._new_tcb

    def recording(name):
        names.append(name)
        return original(name)

    rt.sched._new_tcb = recording
    return names


def gated_handler(gates, parked):
    """A handler that parks a request whose body names a gate (an
    :class:`MVar`) until the gate is filled, and echoes any other."""
    @do
    def handler(body):
        gate = gates.get(body)
        if gate is not None:
            parked.append(body)
            yield gate.take()
        return b"echo:" + body
    return handler


def raw_peer(node, rcvbuf=None):
    """A blocking client socket connected to ``node``'s mesh listener
    (the connection completes in the kernel; the node accepts it on the
    next run)."""
    sock = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_RCVBUF, rcvbuf)
    sock.connect(("127.0.0.1", node.listener.getsockname()[1]))
    return sock


def read_reply_ids(rt, sock, count):
    """Read ``count`` reply frames off ``sock`` on ``rt``: their ids."""
    sock.setblocking(False)
    reader = FrameReader(rt.io, sock)
    ids = []

    @do
    def drain():
        while len(ids) < count:
            kind, request_id, _body = yield reader.recv()
            assert kind == KIND_REPLY
            ids.append(request_id)

    rt.spawn(drain(), name="drain")
    rt.run(until=lambda: len(ids) == count, idle_timeout=5.0)
    return ids


class TestHandOff:
    """A request runs on the thread that read it; only a handler that
    parks costs a thread (the reading moves on at the end of its turn)."""

    def test_a_handler_that_returns_at_once_forks_nothing(self, rt):
        node_a, node_b = make_pair(rt)
        replies = []

        @do
        def one_call(index):
            replies.append((yield node_a.call(1, b"%d" % index)))

        rt.spawn(one_call(0))
        rt.run(until=lambda: bool(replies), idle_timeout=5.0)
        for index in range(1, 9):
            rt.spawn(one_call(index), name=f"call-{index}")
        names = new_threads(rt)
        rt.run(until=lambda: len(replies) == 9, idle_timeout=5.0)
        assert sorted(replies) == sorted(b"echo:%d" % i for i in range(9))
        assert names == []
        assert node_b.stats.served == 9
        assert node_b.stats.handoffs == 0

    def test_a_parked_handler_hands_the_reading_on(self, rt):
        gates, parked = {b"slow": MVar(name="gate")}, []
        node_a, node_b = make_pair(
            rt, handler_b=gated_handler(gates, parked))
        replies = []

        @do
        def one_call(body):
            replies.append((yield node_a.call(1, body)))

        rt.spawn(one_call(b"slow"))
        rt.run(until=lambda: bool(parked), idle_timeout=5.0)
        rt.spawn(one_call(b"fast"))
        rt.run(until=lambda: bool(replies), idle_timeout=5.0)
        # The second request on the link was answered while the first
        # still held the thread that read it.
        assert replies == [b"echo:fast"]
        assert node_b.stats.handoffs == 1
        rt.spawn(gates[b"slow"].put(None))
        rt.run(until=lambda: len(replies) == 2, idle_timeout=5.0)
        assert replies == [b"echo:fast", b"echo:slow"]
        assert node_b.stats.served == 2
        assert node_b.stats.handoffs == 1

    @pytest.mark.parametrize("ending", ["eof", "bad_kind"])
    def test_a_successor_that_meets_the_end_ends_the_session(self, rt,
                                                             ending):
        # The session thread parked in its handler; the successor reader
        # meets EOF or a reply frame (not allowed on a server link).  The
        # driver still closes once the session thread's handler returns.
        gates, parked = {b"slow": MVar(name="gate")}, []
        node_a, _node_b = make_pair(
            rt, handler_a=gated_handler(gates, parked))
        driver = node_a._driver
        rt.run(until=lambda: True)  # the accept loops are parked
        idle_threads = rt.sched.live_threads
        sock = raw_peer(node_a)
        sock.sendall(frame_bytes(KIND_REQUEST, 1, b"slow"))
        rt.run(until=lambda: node_a.stats.handoffs == 1, idle_timeout=5.0)
        assert driver.stats.active == 1
        if ending == "eof":
            sock.shutdown(socket_mod.SHUT_WR)
        else:
            sock.sendall(frame_bytes(KIND_REPLY, 7, b"stray"))
        # The successor's end waits for the session thread, which still
        # owns the connection.
        rt.run(until=lambda: False, idle_timeout=0.1)
        assert driver.stats.active == 1
        rt.spawn(gates[b"slow"].put(None))
        rt.run(until=lambda: driver.stats.active == 0, idle_timeout=5.0)
        assert driver.stats.active == 0
        rt.run(until=lambda: rt.sched.live_threads <= idle_threads,
               idle_timeout=5.0)
        assert rt.sched.live_threads == idle_threads
        # The driver closed the connection (the reply, queued after the
        # session's end was known, has no one left to read it).
        sock.settimeout(5.0)
        assert sock.recv(64) == b""
        sock.close()

    def test_at_the_cap_the_parked_request_keeps_the_reading(self, rt):
        gates = {b"a": MVar(name="gate-a"), b"b": MVar(name="gate-b")}
        parked = []
        node_a, node_b = make_pair(
            rt, handler_b=gated_handler(gates, parked), max_inflight=1)
        replies = []

        @do
        def one_call(body):
            replies.append((yield node_a.call(1, body)))

        rt.spawn(one_call(b"a"))
        rt.run(until=lambda: parked == [b"a"], idle_timeout=5.0)
        rt.spawn(one_call(b"b"))
        rt.run(until=lambda: parked == [b"a", b"b"], idle_timeout=5.0)
        rt.spawn(one_call(b"c"))
        rt.run(until=lambda: False, idle_timeout=0.1)
        # "a" kept its thread; "b" is at the cap, so it keeps the reading
        # and "c" waits behind it.
        assert replies == []
        assert node_b.stats.handoffs == 1
        rt.spawn(gates[b"b"].put(None))
        rt.run(until=lambda: len(replies) == 2, idle_timeout=5.0)
        assert replies == [b"echo:b", b"echo:c"]
        rt.spawn(gates[b"a"].put(None))
        rt.run(until=lambda: len(replies) == 3, idle_timeout=5.0)
        assert replies[2] == b"echo:a"
        assert node_b.stats.handoffs == 1

    @pytest.mark.parametrize("together", [False, True])
    def test_a_handler_parked_behind_a_flusher_still_hands_off(self, rt,
                                                               together):
        # The first reply is too big for the peer's window, so a
        # ``_flusher`` thread owns the link's flush: no flush trigger
        # fires at the end of a later turn.  A handler that parks then
        # must still hand the reading on.  ``together``: both requests
        # arrive in one read, so the trigger that starts the partial
        # write is also the one that hands off.
        big = b"B" * (4 * 1024 * 1024)
        gates, parked = {b"slow": MVar(name="gate")}, []
        echo = gated_handler(gates, parked)
        node_a, _node_b = make_pair(
            rt, handler_a=lambda body: pure(big) if body == b"big"
            else echo(body), write_timeout=30.0)
        outs = []
        enqueue = node_a._enqueue

        def spy(out, *args, **kwargs):
            outs.append(out)
            return enqueue(out, *args, **kwargs)

        node_a._enqueue = spy
        sock = raw_peer(node_a, rcvbuf=4096)
        first, second = (frame_bytes(KIND_REQUEST, 1, b"big"),
                         frame_bytes(KIND_REQUEST, 2, b"slow"))
        if together:
            sock.sendall(first + second)
        else:
            sock.sendall(first)
            rt.run(until=lambda: bool(outs) and outs[0].flusher,
                   idle_timeout=5.0)
            sock.sendall(second)
        rt.run(until=lambda: bool(parked) and outs[0].flusher,
               idle_timeout=5.0)
        assert outs[0].flusher
        sock.sendall(frame_bytes(KIND_REQUEST, 3, b"fast"))
        rt.run(until=lambda: node_a.stats.served == 2, idle_timeout=5.0)
        assert node_a.stats.served == 2  # "big" and "fast"
        assert node_a.stats.handoffs == 1
        assert outs[0].flusher  # the first reply is still being written
        rt.spawn(gates[b"slow"].put(None))
        assert read_reply_ids(rt, sock, 3) == [1, 3, 2]
        sock.close()


class TestFanOutThreads:
    def test_single_peer_fan_out_spawns_no_thread(self, rt):
        node_a, _node_b = make_pair(rt)
        results = []

        names = fork_names(rt)

        @do
        def caller():
            results.append((yield node_a.fan_out({1: b"only"})))

        rt.spawn(caller())
        rt.run(until=lambda: bool(results), idle_timeout=5.0)
        assert results == [{1: b"echo:only"}]
        assert any("demux" in name for name in names)  # the hook is live
        assert not [name for name in names if "fanout" in name]

    def test_n_peer_fan_out_spawns_n_minus_one(self, rt):
        listeners = [make_listener() for _ in range(3)]
        peers = {i: ("127.0.0.1", l.getsockname()[1])
                 for i, l in enumerate(listeners)}
        nodes = [MeshNode(i, rt.io, l, peers, rt.timers,
                          handler=echo_handler)
                 for i, l in enumerate(listeners)]
        for node in nodes:
            rt.spawn(node.serve(), name=f"mesh-{node.index}")
        results = []
        names = fork_names(rt)

        @do
        def caller():
            results.append(
                (yield nodes[0].fan_out({1: b"one", 2: b"two"}))
            )

        rt.spawn(caller())
        rt.run(until=lambda: bool(results), idle_timeout=5.0)
        (merged,) = results
        assert merged == {1: b"echo:one", 2: b"echo:two"}
        assert list(merged) == [1, 2]  # result order follows ``bodies``
        assert [name for name in names if "fanout" in name] == ["fanout-1"]

    def test_fan_out_decorates_nothing_per_call(self, rt, monkeypatch):
        # Each leg is a method, not a ``@do`` closure defined per call:
        # a fan-out costs no ``do()`` (and no ``functools.update_wrapper``).
        listeners = [make_listener() for _ in range(3)]
        peers = {i: ("127.0.0.1", l.getsockname()[1])
                 for i, l in enumerate(listeners)}
        nodes = [MeshNode(i, rt.io, l, peers, rt.timers,
                          handler=echo_handler)
                 for i, l in enumerate(listeners)]
        for node in nodes:
            rt.spawn(node.serve(), name=f"mesh-{node.index}")
        results = []

        @do
        def caller():
            for _ in range(2):
                results.append(
                    (yield nodes[0].fan_out({1: b"one", 2: b"two"})))

        decorations = []
        original = do_notation.do

        def counting(genfunc):
            decorations.append(genfunc.__name__)
            return original(genfunc)

        # Patched where it is defined and where the mesh bound it.
        monkeypatch.setattr(do_notation, "do", counting)
        monkeypatch.setattr(mesh_module, "do", counting)
        rt.spawn(caller())
        rt.run(until=lambda: len(results) == 2, idle_timeout=5.0)
        assert results == [{1: b"echo:one", 2: b"echo:two"}] * 2
        assert decorations == []

    def test_empty_fan_out(self, rt):
        node_a, _node_b = make_pair(rt)
        results = []

        @do
        def caller():
            results.append((yield node_a.fan_out({})))

        rt.spawn(caller())
        rt.run(until=lambda: bool(results), idle_timeout=5.0)
        assert results == [{}]

    @pytest.mark.parametrize("bodies", [
        {0: b"self"},             # the caller-run call raises
        {0: b"self", 1: b"far"},  # the spawned call raises
    ])
    def test_non_mesh_error_propagates_either_way(self, rt, bodies):
        # A self-call short-circuits through the local handler, so its
        # ValueError is not a MeshError: fan_out must let it through
        # (only MeshError comes back as a value) whichever thread ran it.
        @do
        def broken(body):
            yield sys_sleep(0)
            raise ValueError("not a mesh failure")

        node_a, _node_b = make_pair(rt, handler_a=broken)
        outcome = []

        @do
        def caller():
            try:
                outcome.append((yield node_a.fan_out(bodies)))
            except ValueError as exc:
                outcome.append(exc)

        rt.spawn(caller())
        rt.run(until=lambda: bool(outcome), idle_timeout=5.0)
        assert isinstance(outcome[0], ValueError)


class TestFailureModes:
    def _fake_peer_node(self, rt, fake_behavior):
        """Node 0 whose peer 1 is a raw endpoint driven by the test."""
        listener = make_listener()
        fake = make_listener()
        peers = {
            0: ("127.0.0.1", listener.getsockname()[1]),
            1: ("127.0.0.1", fake.getsockname()[1]),
        }
        node = MeshNode(0, rt.io, listener, peers, rt.timers,
                        handler=echo_handler)
        rt.spawn(node.serve(), name="mesh-real")
        rt.spawn(fake_behavior(fake), name="mesh-fake")
        return node

    def test_peer_disconnect_mid_call_raises_not_hangs(self, rt):
        @do
        def reads_then_hangs_up(fake):
            conn = yield rt.io.accept(fake)
            yield rt.io.read(conn, 8)  # partial frame consumed
            yield rt.io.close(conn)    # then vanish before replying

        node = self._fake_peer_node(rt, reads_then_hangs_up)
        outcome = []

        @do
        def caller():
            try:
                yield node.call(1, b"doomed", timeout=10.0)
                outcome.append("reply")
            except MeshPeerDown as exc:
                outcome.append(exc)

        started = time.monotonic()
        rt.spawn(caller())
        rt.run(until=lambda: bool(outcome), idle_timeout=10.0)
        # Failure arrived via the demux EOF path, well before the 10s
        # timeout: a monadic exception, not a hang.
        assert isinstance(outcome[0], MeshPeerDown)
        assert time.monotonic() - started < 5.0
        assert node.stats.peer_failures >= 1

    def test_unresponsive_peer_times_out(self, rt):
        @do
        def accepts_but_never_replies(fake):
            conn = yield rt.io.accept(fake)
            while True:
                data = yield rt.io.read(conn, 4096)
                if not data:
                    break
            yield rt.io.close(conn)

        node = self._fake_peer_node(rt, accepts_but_never_replies)
        outcome = []

        @do
        def caller():
            try:
                yield node.call(1, b"slow", timeout=0.2)
            except MeshTimeout as exc:
                outcome.append(exc)

        rt.spawn(caller())
        rt.run(until=lambda: bool(outcome), idle_timeout=10.0)
        assert isinstance(outcome[0], MeshTimeout)
        assert node.stats.timeouts == 1

    def _choked_link_node(self, rt, peer_behavior, **kwargs):
        """Node 0 whose link to peer 1 has 4 KiB socket buffers at both
        ends, so a 1 MiB frame parks its flusher mid-write; peer 1 is
        ``peer_behavior(listener)``."""
        fake = socket_mod.socket(socket_mod.AF_INET,
                                 socket_mod.SOCK_STREAM)
        fake.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_RCVBUF, 4096)
        fake.bind(("127.0.0.1", 0))
        fake.listen(8)
        fake.setblocking(False)
        original_connect = rt.backend.nb_connect

        def small_buffer_connect(address, label="conn"):
            sock = original_connect(address, label)
            sock.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_SNDBUF,
                            4096)
            return sock

        rt.backend.nb_connect = small_buffer_connect
        listener = make_listener()
        peers = {
            0: ("127.0.0.1", listener.getsockname()[1]),
            1: fake.getsockname(),
        }
        node = MeshNode(0, rt.io, listener, peers, rt.timers,
                        handler=echo_handler, **kwargs)
        rt.spawn(node.serve(), name="mesh-real")
        rt.spawn(peer_behavior(fake), name="choked-peer")
        return node

    def _send(self, rt, node, how, outcome):
        body = b"w" * (1024 * 1024)

        @do
        def sender():
            try:
                if how == "cast":
                    yield node.cast(1, body)
                else:
                    yield node.call(1, body, timeout=30.0)
                outcome.append("sent")
            except MeshPeerDown as exc:
                outcome.append(exc)

        rt.spawn(sender(), name=f"sender-{how}")

    @pytest.mark.parametrize("how", ["cast", "call"])
    def test_link_dying_mid_flush_fails_cast_and_call(self, rt, how):
        # The peer hangs up while the frame is half written.  A cast
        # learns it through its flush box (the KV then parks the hint
        # locally); a call no longer waits for its flush, so it must
        # learn it through its reply box when the link goes down.
        @do
        def accepts_then_hangs_up(fake):
            conn = yield rt.io.accept(fake)
            yield sys_sleep(0.1)
            yield rt.io.close(conn)

        node = self._choked_link_node(rt, accepts_then_hangs_up)
        outcome = []
        started = time.monotonic()
        self._send(rt, node, how, outcome)
        rt.run(until=lambda: bool(outcome), idle_timeout=10.0)
        assert isinstance(outcome[0], MeshPeerDown)
        assert time.monotonic() - started < 4.0  # not the write_timeout
        assert node.stats.write_timeouts == 0
        assert node.stats.peer_failures >= 1
        assert node.connected_peers() == 0

    @pytest.mark.parametrize("how", ["call", "cast"])
    def test_wedged_peer_write_times_out_as_peer_down(self, rt, how):
        """A peer that accepts the link but stops *reading* (socket
        buffers fill, the writer parks on EPOLLOUT forever) must fail
        the writer with MeshPeerDown within write_timeout — the ROADMAP
        mesh-hardening item.  The watchdog is armed only because the
        first write came back partial; a call learns of the failure
        through its reply box, a cast through its flush box."""
        @do
        def accepts_but_never_reads(fake):
            conn = yield rt.io.accept(fake)
            while True:
                yield sys_sleep(0.5)
                _ = conn  # hold the connection open, read nothing

        node = self._choked_link_node(rt, accepts_but_never_reads,
                                      write_timeout=0.3)
        outcome = []
        started = time.monotonic()
        self._send(rt, node, how, outcome)
        rt.run(until=lambda: bool(outcome), idle_timeout=10.0)
        # The failure came from the write watchdog, well before the 30s
        # call timeout — the wedged link no longer wedges the writer.
        assert isinstance(outcome[0], MeshPeerDown)
        assert time.monotonic() - started < 5.0
        assert node.stats.write_timeouts == 1

    def test_any_exception_out_of_the_flush_write_downs_the_link(self, rt):
        # The flush's write runs as a plain timer action: an exception
        # the wheel merely counted would leave ``out.flushing`` set for
        # good — every later frame queued behind a flush that never
        # comes, every caller waiting out its ``call_timeout``.
        node_a, _node_b = make_pair(rt)
        outcomes = {}

        @do
        def attempt(how, send):
            try:
                outcomes[how] = yield send(1, b"x")
            except MeshPeerDown as exc:
                outcomes[how] = exc

        rt.spawn(attempt("warm", node_a.call))
        rt.run(until=lambda: "warm" in outcomes, idle_timeout=5.0)
        out = node_a._links[1].out
        write = rt.backend.nb_writev

        def broken(fd, bufs):
            if fd is out.conn:
                raise RuntimeError("not an OSError")
            return write(fd, bufs)

        rt.backend.nb_writev = broken
        started = time.monotonic()
        rt.spawn(attempt("call", node_a.call))
        rt.spawn(attempt("cast", node_a.cast))
        rt.run(until=lambda: len(outcomes) == 3, idle_timeout=10.0)
        assert time.monotonic() - started < 2.0  # not call_timeout
        assert isinstance(outcomes["call"], MeshPeerDown)
        assert isinstance(outcomes["cast"], MeshPeerDown)
        assert "not an OSError" in str(out.failed)
        assert not out.flushing and not out.queue
        assert rt.timers.stats()["action_errors"] == 0
        assert node_a.connected_peers() == 0
        # The connection is latched dead; the peer is not: a later call
        # dials a fresh link.
        rt.spawn(attempt("late", lambda peer, body: node_a._enqueue(
            out, KIND_REQUEST, 99, body)))
        rt.backend.nb_writev = write
        rt.spawn(attempt("redial", node_a.call))
        rt.run(until=lambda: len(outcomes) == 5, idle_timeout=5.0)
        assert outcomes["late"] is out.failed
        assert outcomes["redial"] == b"echo:x"

    def test_failed_reply_write_strands_nothing(self, rt):
        # A peer asks for big replies, never reads them, and hangs up.
        # Nobody waits for a reply's flush, so every request is served
        # although the first reply is still stuck in the socket (a
        # queued reply holds no ``max_inflight`` slot), and the failed
        # write has no one to tell: it must simply not leave a thread
        # parked or a counter stuck.
        big = b"r" * (512 * 1024)
        node_a, _node_b = make_pair(rt, handler_a=lambda body: pure(big),
                                    max_inflight=1)
        port = node_a.listener.getsockname()[1]
        hung_up = []

        @do
        def greedy_client():
            sock = socket_mod.socket(socket_mod.AF_INET,
                                     socket_mod.SOCK_STREAM)
            sock.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_RCVBUF,
                            4096)
            sock.setblocking(False)
            sock.connect_ex(("127.0.0.1", port))
            yield sys_sleep(0.02)
            for request_id in (1, 2, 3):
                yield rt.io.write_all(
                    sock, frame_bytes(KIND_REQUEST, request_id, b"more")
                )
                yield sys_sleep(0.02)
            yield sys_sleep(0.1)
            yield rt.io.close(sock)
            hung_up.append(True)

        idle_threads = rt.sched.live_threads
        rt.spawn(greedy_client(), name="greedy")
        rt.run(until=lambda: bool(hung_up), idle_timeout=5.0)
        rt.run(until=lambda: rt.sched.live_threads <= idle_threads,
               idle_timeout=5.0)
        assert node_a.stats.served == 3
        assert rt.sched.live_threads == idle_threads
        assert node_a.stats.write_timeouts == 0

    def test_fan_out_with_one_dead_peer_merges_partials(self, rt):
        # Peer 2's address is a closed port: dial is refused.
        dead = make_listener()
        dead_address = ("127.0.0.1", dead.getsockname()[1])
        dead.close()

        listener_a = make_listener()
        listener_b = make_listener()
        peers = {
            0: ("127.0.0.1", listener_a.getsockname()[1]),
            1: ("127.0.0.1", listener_b.getsockname()[1]),
            2: dead_address,
        }
        node_a = MeshNode(0, rt.io, listener_a, peers, rt.timers,
                          handler=echo_handler)
        node_b = MeshNode(1, rt.io, listener_b, peers, rt.timers,
                          handler=echo_handler)
        rt.spawn(node_a.serve(), name="mesh-a")
        rt.spawn(node_b.serve(), name="mesh-b")
        results = []

        @do
        def caller():
            merged = yield node_a.fan_out(
                {1: b"live", 2: b"dead"}, timeout=0.5
            )
            results.append(merged)

        started = time.monotonic()
        rt.spawn(caller())
        rt.run(until=lambda: bool(results), idle_timeout=10.0)
        merged = results[0]
        assert merged[1] == b"echo:live"
        # The dead peer is an exception *value*, not a lost fan-out.
        assert isinstance(merged[2], MeshPeerDown | MeshTimeout)
        assert time.monotonic() - started < 5.0


class TestBatchedEgress:
    def test_concurrent_casts_coalesce_into_one_flush(self, rt):
        # Eight casts fired in one scheduler turn must leave as (nearly)
        # one gathered write, not eight syscalls — the per-link outbound
        # queue is the point of the egress path.
        seen = []

        def recording(body):
            seen.append(body)
            return pure(b"")

        node_a, node_b = make_pair(rt, handler_b=recording)
        done = []

        @do
        def warm():
            # Dial the link first so the casts race only the flusher.
            yield node_a.call(1, b"warm")

        @do
        def one_cast(index):
            yield node_a.cast(1, b"cast-%d" % index)
            done.append(index)

        warmed = []

        @do
        def driver():
            yield warm()
            warmed.append(True)

        rt.spawn(driver())
        rt.run(until=lambda: bool(warmed), idle_timeout=5.0)
        for index in range(8):
            rt.spawn(one_cast(index), name=f"cast-{index}")
        # A cast resumes once *flushed*; wait for the receiver too.
        rt.run(until=lambda: len(done) == 8 and len(seen) == 9,
               idle_timeout=5.0)
        assert len(done) == 8
        assert sorted(seen[1:]) == sorted(
            b"cast-%d" % index for index in range(8)
        )
        stats = node_a.stats
        # 1 warm call + 8 casts = 9 frames, but far fewer flushes.
        assert stats.frames_sent == 9
        assert stats.flushes < 9
        assert stats.batched_flushes >= 1
        assert stats.max_frames_per_flush > 1
        assert stats.frames_per_flush > 1.0

    def test_concurrent_replies_coalesce_on_the_server_link(self, rt):
        # Many concurrent calls multiplexed on one link: the server's
        # replies ride the same outbound queue, so its flush counters
        # show batching too.
        node_a, node_b = make_pair(rt)
        replies = []

        @do
        def one_call(index):
            reply = yield node_a.call(1, b"req-%d" % index)
            replies.append(reply)

        for index in range(8):
            rt.spawn(one_call(index), name=f"call-{index}")
        rt.run(until=lambda: len(replies) == 8, idle_timeout=5.0)
        assert sorted(replies) == sorted(
            b"echo:req-%d" % index for index in range(8)
        )
        # Server-side replies batched (the handler is synchronous, so
        # the reader serves all eight within one loop turn).
        assert node_b.stats.frames_sent == 8
        assert node_b.stats.flushes < 8
        assert node_b.stats.batched_flushes >= 1

    def test_workers_woken_mid_turn_reply_in_one_gathered_write(self, rt):
        # Eight requests park on one MVar (each hands the reading on)
        # and pass it on as they wake, so each is made ready *during*
        # the turn.  The flush is a
        # deadline of "now", fired once the ready queue is dry: all
        # eight replies leave in one ``sendmsg``.  (A flusher thread
        # forked by the first reply ran mid-chain: two or more writes.)
        parked = []
        baton = MVar(name="baton")

        @do
        def gated(body):
            parked.append(body)
            token = yield baton.take()
            yield baton.put(token)  # wakes the next worker, mid-turn
            return b"r:" + body

        node_a, node_b = make_pair(rt, handler_b=gated)
        replies = []

        @do
        def one_call(index):
            replies.append((yield node_a.call(1, b"%d" % index)))

        for index in range(8):
            rt.spawn(one_call(index), name=f"call-{index}")
        rt.run(until=lambda: len(parked) == 8, idle_timeout=5.0)
        assert len(parked) == 8 and node_b.stats.frames_sent == 0
        writes = rt.backend.writev_calls
        rt.spawn(baton.put("go"), name="release")
        rt.run(until=lambda: len(replies) == 8, idle_timeout=5.0)
        assert sorted(replies) == sorted(b"r:%d" % i for i in range(8))
        assert rt.backend.writev_calls - writes == 1
        assert node_b.stats.flushes == 1
        assert node_b.stats.frames_sent == 8
        assert node_b.stats.max_frames_per_flush == 8

    def test_no_timer_thread_per_call(self, rt):
        # Call timeouts are heap entries the loop fires: N calls fork
        # zero sweeper/watchdog threads, nothing services the wheel, and
        # no timer fired, so no ``timer-action`` thread either.
        names: list = []
        original = rt.sched._new_tcb

        def recording(name):
            names.append(name)
            return original(name)

        rt.sched._new_tcb = recording
        node_a, _node_b = make_pair(rt)
        done = []

        @do
        def caller():
            for index in range(20):
                yield node_a.call(1, b"seq-%d" % index)
            done.append(True)

        rt.spawn(caller())
        rt.run(until=lambda: bool(done), idle_timeout=10.0)
        assert done
        spawned = [name for name in names if name]
        assert not any("sweeper" in name for name in spawned)
        assert not any("watchdog" in name for name in spawned)
        assert not any("timer" in name or "sleeper" in name
                       for name in spawned)
        assert node_a.timers.scheduled >= 20

    def test_flush_caps_split_oversized_batches(self, rt):
        # A burst larger than FLUSH_MAX_FRAMES is delivered whole and in
        # queue order, split across capped gathered writes.
        seen = []

        def recording(body):
            seen.append(body)
            return pure(b"")

        burst = FLUSH_MAX_FRAMES * 2 + 22
        # The reader serves each frame inline, in the order it read
        # them, so ``seen`` is the order the frames crossed the wire.
        node_a, _node_b = make_pair(rt, handler_b=recording)
        done = []

        @do
        def one_cast(index):
            yield node_a.cast(1, b"x%03d" % index)
            done.append(index)

        # Warm the link so the casts enqueue in spawn order instead of
        # queueing on the dial mutex.
        rt.spawn(one_cast(0))
        rt.run(until=lambda: len(seen) == 1, idle_timeout=5.0)
        for index in range(1, burst):
            rt.spawn(one_cast(index), name=f"cast-{index}")
        rt.run(until=lambda: len(done) == burst and len(seen) == burst,
               idle_timeout=5.0)
        assert seen == [b"x%03d" % index for index in range(burst)]
        assert FLUSH_MAX_FRAMES == 64
        assert 1 < node_a.stats.max_frames_per_flush <= FLUSH_MAX_FRAMES
        assert node_a.stats.flushes >= 4  # 1 warm + ceil(149 / 64)

    def test_one_flush_is_one_gathered_write(self, rt):
        # 200 concurrent casts x 6 rounds on one warm, healthy link: every
        # flush is exactly one ``sendmsg`` (a batch never exceeds what one
        # gathered write carries), so nothing looks like a partial write
        # and no write watchdog is ever armed.
        node_a, _node_b = make_pair(rt, handler_b=lambda body: pure(b""),
                                    write_timeout=WRITE_TIMEOUT)
        warmed = []

        @do
        def warm():
            yield node_a.call(1, b"warm")
            warmed.append(True)

        rt.spawn(warm())
        rt.run(until=lambda: bool(warmed), idle_timeout=5.0)
        flushes = node_a.stats.flushes
        writes = rt.backend.writev_calls
        delays = armed_delays(rt)
        done = []

        @do
        def one_cast(index):
            yield node_a.cast(1, b"burst-%d" % index)
            done.append(index)

        for round_ in range(6):
            for index in range(200):
                rt.spawn(one_cast(index), name=f"cast-{round_}-{index}")
            rt.run(until=lambda: len(done) == 200 * (round_ + 1),
                   idle_timeout=5.0)
        assert len(done) == 1200
        assert (node_a.stats.flushes - flushes
                == rt.backend.writev_calls - writes)
        # Nothing but flush triggers was armed, at most one a turn.
        assert set(delays) == {0} and len(delays) <= 1200 / 64
        assert node_a.stats.write_timeouts == 0
        assert node_a.stats.max_frames_per_flush <= FLUSH_MAX_FRAMES
        assert node_a.stats.max_frames_per_flush > 1


class TestKeepalive:
    def test_idle_link_gets_pinged_and_stays_usable(self, rt):
        node_a, node_b = make_pair(rt, keepalive_interval=0.05)
        first = []

        @do
        def opener():
            reply = yield node_a.call(1, b"open")
            first.append(reply)

        rt.spawn(opener())
        rt.run(until=lambda: bool(first), idle_timeout=5.0)
        # Let the link sit idle across several keepalive intervals.
        rt.run(until=lambda: node_a.stats.pings_sent >= 2,
               idle_timeout=5.0)
        assert node_a.stats.pings_sent >= 2
        assert node_a.connected_peers() == 1
        # Pings were read and discarded server-side: no served bump...
        assert node_b.stats.served == 1
        # ...and the link still carries real traffic afterwards.
        second = []

        @do
        def reuser():
            reply = yield node_a.call(1, b"again")
            second.append(reply)

        rt.spawn(reuser())
        rt.run(until=lambda: bool(second), idle_timeout=5.0)
        assert second == [b"echo:again"]

    def test_busy_link_is_not_pinged(self, rt):
        node_a, _node_b = make_pair(rt, keepalive_interval=0.05)
        stop = []

        @do
        def chatter():
            # Constant traffic: every keepalive tick sees fresh frames.
            while not stop:
                yield node_a.call(1, b"busy")

        rt.spawn(chatter())
        deadline = time.monotonic() + 0.4
        rt.run(until=lambda: time.monotonic() >= deadline,
               idle_timeout=5.0)
        stop.append(True)
        rt.run(until=lambda: True)
        assert node_a.stats.calls > 2
        assert node_a.stats.pings_sent == 0

    def test_enqueue_after_flush_failure_fails_fast(self, rt):
        # A connection whose flusher died latches the failure: a sender
        # racing the failure drain must get MeshPeerDown immediately,
        # not park forever behind a drain that already passed.
        node_a, _node_b = make_pair(rt)
        outcome = []

        @do
        def driver():
            yield node_a.call(1, b"open")
            link = node_a._links[1]
            link.out.failed = MeshPeerDown("flusher died mid-drain")
            try:
                yield node_a.cast(1, b"late frame")
            except MeshPeerDown as exc:
                outcome.append(exc)

        started = time.monotonic()
        rt.spawn(driver())
        rt.run(until=lambda: bool(outcome), idle_timeout=5.0)
        assert outcome and isinstance(outcome[0], MeshPeerDown)
        assert time.monotonic() - started < 2.0  # fast-fail, no hang


class TestSimFlush:
    def test_flush_fires_when_the_ready_queue_runs_dry_not_later(self):
        # A zero-delay heap entry fires once the ready queue runs dry,
        # in the one loop turn both kernels share: between a frame's
        # enqueue and its write only the CPU of the threads still
        # running passes, never idle time — and the run does not end in
        # DeadlockError with the frame still queued.
        rt = SimRuntime()
        listeners = {index: rt.kernel.net.listen() for index in range(2)}
        nodes = [MeshNode(index, rt.io, listeners[index], listeners,
                          rt.timers, handler=echo_handler)
                 for index in range(2)]
        for node in nodes:
            rt.spawn(node.serve(), name=f"mesh-{node.index}")
        clock = rt.kernel.clock
        enqueued, written, replies = [], [], []

        def stamping(log, fn):
            def stamped(*args, **kwargs):
                log.append(clock.now - clock.cpu_consumed)  # idle so far
                return fn(*args, **kwargs)
            return stamped

        for node in nodes:
            node._enqueue = stamping(enqueued, node._enqueue)
        rt.backend.nb_writev = stamping(written, rt.backend.nb_writev)

        @do
        def caller():
            for index in range(3):
                replies.append((yield nodes[0].call(1, b"%d" % index)))

        rt.spawn(caller(), name="caller")
        rt.run(until=lambda: len(replies) == 3)
        assert replies == [b"echo:0", b"echo:1", b"echo:2"]
        assert len(enqueued) == len(written) == 6
        assert written == pytest.approx(enqueued, abs=1e-9)
        assert enqueued[-1] > enqueued[0]  # the wire itself takes time
        assert rt.timers.stats()["action_errors"] == 0
        assert nodes[0].stats.flushes + nodes[1].stats.flushes == 6
