"""The batch plan in ``CacheProtocolBase.drain``, against serial execution.

The planner coalesces a run of reads into one ``store.mget`` and
overlaps key-disjoint keyed commands; its contract is that a client
cannot tell.  The reference is :class:`SerialDrain` — the loop ``drain``
used to be, strictly one command at a time — and the differential
property holds the reply byte stream, the close verdict, the counters
and the final store contents equal to it for generated command
sequences over a small key alphabet (so keys collide) in arbitrary
chunkings, for both dialects.  The directed cases name the plan itself,
read off a recording store: how many ``mget``s, which keys, what ran
concurrently.

Everything runs on a :class:`SimRuntime` with a scripted transport (no
sockets): the store parks every operation on the virtual clock, so
overlapped commands really interleave and finish out of order.
"""

from __future__ import annotations

import gc
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import MAX_OVERLAP, MAX_READ_KEYS
from repro.cache.memcache import MemcacheProtocol
from repro.cache.resp import RespProtocol
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.core.sync import MVar
from repro.core.syscalls import sys_sleep
from repro.runtime.buffers import BufferPool
from repro.runtime.driver import CLOSE, DRAIN_CLOSE, ConnectionDriver
from repro.runtime.sim_runtime import SimRuntime
from tests.runtime.test_driver_session import RecordingTransport
from tests.runtime.test_mesh import fork_names


class ScriptedTransport(RecordingTransport):
    """Each scripted chunk is one ingress read (EOF after the last), in
    buffers large enough for a whole pipelined burst."""

    def __init__(self, chunks) -> None:
        super().__init__(chunks)
        self.buffers = BufferPool(buffer_bytes=64 * 1024)

    @property
    def closed_by(self) -> list[str]:
        return [call[0] for call in self.calls]


class RecordingStore:
    """A dict behind the monadic store surface.

    Every operation parks on the virtual clock — longer for keys early
    in the alphabet, so overlapped writes finish in the *reverse* of
    their command order — and records what was asked and what was in
    flight at once.  Two writes to one key in flight together would be
    the planner's bug: it is asserted here, where it would happen.
    """

    def __init__(self, failing=()) -> None:
        self.data: dict[str, bytes] = {}
        self.mgets: list[list[str]] = []
        self.ops: list[tuple] = []
        self.writing: set[str] = set()
        self.max_writing = 0
        self.failing = set(failing)

    def extra_stats(self):
        return {"kv_keys": len(self.data)}

    def _park(self, key):
        return sys_sleep(0.001 * (1 + (255 - ord(key[0])) % 7))

    @do
    def mget(self, keys):
        self.mgets.append(list(keys))
        yield self._park(keys[0])
        if self.failing.intersection(keys):
            raise RuntimeError("owner down")
        return {key: self.data.get(key) for key in keys}

    @do
    def get(self, key, info=None):
        self.ops.append(("get", key))
        yield self._park(key)
        if key in self.failing:
            raise RuntimeError("owner down")
        value = self.data.get(key)
        return value is not None, value, False

    @do
    def _write(self, op, key, value):
        self.ops.append((op, key))
        assert key not in self.writing, f"two writes to {key!r} overlap"
        self.writing.add(key)
        self.max_writing = max(self.max_writing, len(self.writing))
        try:
            yield self._park(key)
            if key in self.failing:
                raise RuntimeError("owner down")
            existed = key in self.data
            if value is None:
                self.data.pop(key, None)
            else:
                self.data[key] = value
        finally:
            self.writing.discard(key)
        return existed, None, False

    def put(self, key, value, info=None):
        return self._write("put", key, value)

    def delete(self, key, info=None):
        return self._write("delete", key, None)


class SerialDrain:
    """The reference executor: ``drain`` as it was before the batch
    plan — pop a command, execute it, repeat."""

    @do
    def drain(self, io, conn, parser, bad):
        stats = self.stats
        out: list = []
        frames_before = stats.responses
        closing = False
        while True:
            command = parser.next_command()
            if command is None:
                break
            stats.commands += 1
            closing = yield self.execute(command, out)
            if closing:
                break
        if out:
            frames = stats.responses - frames_before
            stats.send_batches += 1
            if frames > 1:
                stats.pipelined_batches += 1
            if frames > stats.max_responses_per_batch:
                stats.max_responses_per_batch = frames
        if bad is not None and not closing:
            stats.errors += 1
            out.append(bad.reply)
        if out:
            yield io.write_all_v(conn, out)
            stats.bytes_sent += sum(len(buf) for buf in out)
        if closing:
            return CLOSE
        if bad is not None:
            return DRAIN_CLOSE


class SerialMemcache(SerialDrain, MemcacheProtocol):
    pass


class SerialResp(SerialDrain, RespProtocol):
    pass


def run_session(protocol_type, chunks, store=None):
    """One whole connection; returns ``(io, store, protocol)``."""
    store = store if store is not None else RecordingStore()
    rt = SimRuntime(uncaught="raise")
    io = ScriptedTransport(chunks)
    protocol = protocol_type(store)
    driver = ConnectionDriver(io, None, protocol)
    rt.spawn(driver.handle_connection("c1"), name="session")
    rt.run()
    assert io.buffers.in_use == 0
    return io, store, protocol


def observed(protocol_type, chunks):
    io, store, protocol = run_session(protocol_type, chunks)
    return {
        "replies": b"".join(io.sent),
        "closed_by": io.closed_by,
        "store": store.data,
        "stats": protocol.stats.as_dict(),
    }


# ----------------------------------------------------------------------
# Differential property: planned == serial, both dialects, any chunking.
# ----------------------------------------------------------------------
KEYS = st.sampled_from(["a", "b", "c", "d"])
VALUES = st.binary(min_size=0, max_size=6)
NOREPLY = st.sampled_from([b"", b" noreply"])


@st.composite
def memcache_command(draw):
    kind = draw(st.sampled_from(
        ["get", "get", "gets", "set", "set", "delete", "unsupported",
         "line-error", "version", "stats"]
    ))
    if kind in ("get", "gets"):
        keys = draw(st.lists(KEYS, min_size=1, max_size=3))
        return f"{kind} {' '.join(keys)}\r\n".encode()
    if kind == "set":
        value = draw(VALUES)
        return b"set %s %d 0 %d%s\r\n%s\r\n" % (
            draw(KEYS).encode(), draw(st.integers(0, 3)), len(value),
            draw(NOREPLY), value,
        )
    if kind == "delete":
        return b"delete %s%s\r\n" % (draw(KEYS).encode(), draw(NOREPLY))
    if kind == "unsupported":
        return draw(st.sampled_from(
            [b"incr a 1\r\n", b"touch b 0 noreply\r\n",
             b"add c 0 0 1\r\nx\r\n"]
        ))
    if kind == "line-error":
        return draw(st.sampled_from(
            [b"get\r\n", b"delete\r\n", b"\r\n", b"get bad\x01key\r\n"]
        ))
    return kind.encode() + b"\r\n"


def resp(*args: bytes) -> bytes:
    return b"*%d\r\n" % len(args) + b"".join(
        b"$%d\r\n%s\r\n" % (len(arg), arg) for arg in args
    )


@st.composite
def resp_command(draw):
    name = draw(st.sampled_from(
        [b"GET", b"GET", b"MGET", b"MGET", b"EXISTS", b"SET", b"SET",
         b"DEL", b"PING", b"mget", b"NOSUCH", b"arity"]
    ))
    if name == b"GET":
        return resp(name, draw(KEYS).encode())
    if name in (b"MGET", b"mget", b"EXISTS", b"DEL"):
        keys = draw(st.lists(KEYS, min_size=1, max_size=3))
        return resp(name, *(key.encode() for key in keys))
    if name == b"SET":
        return resp(name, draw(KEYS).encode(), draw(VALUES))
    if name == b"arity":
        return draw(st.sampled_from(
            [resp(b"GET"), resp(b"MGET"), resp(b"DEL"),
             resp(b"SET", b"a", b"1", b"EX", b"5"), b"PING\r\n"]
        ))
    return resp(name)


def sessions(command, endings):
    """Commands, maybe an ending (quit / a fatal parse error) somewhere
    with more commands after it, cut into arbitrary chunks."""
    @st.composite
    def build(draw):
        commands = draw(st.lists(command, min_size=1, max_size=12))
        ending = draw(st.one_of(st.none(), st.sampled_from(endings)))
        if ending is not None:
            commands.insert(
                draw(st.integers(0, len(commands))), ending
            )
        payload = b"".join(commands)
        cuts = sorted(draw(st.lists(
            st.integers(1, max(1, len(payload) - 1)), max_size=4
        )))
        edges = [0, *cuts, len(payload)]
        return [payload[lo:hi] for lo, hi in zip(edges, edges[1:])
                if hi > lo]
    return build()


class TestPlannedEqualsSerial:
    @settings(max_examples=150, deadline=None)
    @given(sessions(memcache_command(), [b"quit\r\n", b"bogus verb\r\n"]))
    def test_memcache(self, chunks):
        assert (observed(MemcacheProtocol, chunks)
                == observed(SerialMemcache, chunks))

    @settings(max_examples=150, deadline=None)
    @given(sessions(resp_command(), [resp(b"QUIT"), b"$oops\r\n"]))
    def test_resp(self, chunks):
        assert (observed(RespProtocol, chunks)
                == observed(SerialResp, chunks))


# ----------------------------------------------------------------------
# Directed: the plan itself, read off the recording store.
# ----------------------------------------------------------------------
def memcache_session(payload, store=None):
    io, store, protocol = run_session(MemcacheProtocol, [payload], store)
    return b"".join(io.sent), io, store, protocol


class TestReadsCoalesce:
    def test_eight_gets_are_one_mget_of_the_union(self):
        store = RecordingStore()
        store.data.update(a=b"A", b=b"B", c=b"C")
        payload = (b"get a b\r\nget b c\r\ngets a\r\nget ghost\r\n"
                   b"get c a\r\nget b\r\nget a a\r\nget c ghost\r\n")
        replies, io, store, protocol = memcache_session(payload, store)
        assert store.mgets == [["a", "b", "c", "ghost"]]
        assert replies.count(b"END\r\n") == 8
        assert replies.startswith(
            b"VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
            b"VALUE b 0 1\r\nB\r\nVALUE c 0 1\r\nC\r\nEND\r\n"
        )
        stats = protocol.stats
        assert (stats.commands, stats.responses) == (8, 8)
        # Hit/miss counters stay per command per key.
        assert (stats.get_hits, stats.get_misses) == (11, 2)
        assert len(io.sent) == 1 and stats.send_batches == 1

    def test_a_write_between_reads_splits_them_and_is_seen(self):
        payload = b"get a\r\nset a 0 0 3\r\nnew\r\nget a\r\n"
        replies, _io, store, _protocol = memcache_session(payload)
        assert store.mgets == [["a"], ["a"]]
        assert replies == (b"END\r\nSTORED\r\n"
                           b"VALUE a 0 3\r\nnew\r\nEND\r\n")

    def test_resp_mget_and_exists_coalesce_but_get_does_not(self):
        payload = (resp(b"MGET", b"a", b"b") + resp(b"EXISTS", b"b", b"c")
                   + resp(b"GET", b"a") + resp(b"MGET", b"c"))
        io, store, _protocol = run_session(RespProtocol, [payload])
        assert store.mgets == [["a", "b", "c"], ["c"]]
        assert ("get", "a") in store.ops  # the quorum read, untouched
        assert b"".join(io.sent) == (
            b"*2\r\n$-1\r\n$-1\r\n:0\r\n$-1\r\n*1\r\n$-1\r\n"
        )

    def test_more_keys_than_the_cap_split_instead_of_failing(self):
        count = MAX_READ_KEYS + 10
        payload = b"".join(b"get key-%d\r\n" % i for i in range(count))
        replies, _io, store, protocol = memcache_session(payload)
        assert [len(keys) for keys in store.mgets] == [MAX_READ_KEYS, 10]
        assert replies == b"END\r\n" * count
        assert protocol.stats.commands == count


class TestKeyedOverlap:
    def test_sets_to_one_key_never_overlap(self):
        # RecordingStore asserts it where it would happen; the last
        # write in command order wins.
        payload = b"set a 0 0 1\r\n1\r\nset a 0 0 1\r\n2\r\nget a\r\n"
        replies, _io, store, _protocol = memcache_session(payload)
        assert store.max_writing == 1
        assert store.data == {"a": b"2"}
        assert replies.endswith(b"VALUE a 0 1\r\n2\r\nEND\r\n")

    def test_sets_to_distinct_keys_overlap_and_reply_in_order(self):
        payload = (b"set a 0 0 1\r\n1\r\ndelete b\r\nset c 0 0 1\r\n3\r\n"
                   b"set d 0 0 1 noreply\r\n4\r\n")
        replies, _io, store, protocol = memcache_session(payload)
        assert store.max_writing == 4
        # "a" parks longest: its thread finishes last, replies first.
        assert replies == b"STORED\r\nNOT_FOUND\r\nSTORED\r\n"
        assert store.data == {"a": b"1", "c": b"3", "d": b"4"}
        assert (protocol.stats.commands, protocol.stats.sets) == (4, 3)

    def test_a_run_longer_than_the_cap_is_split_not_refused(self):
        count = MAX_OVERLAP + 3
        payload = b"".join(
            b"set key-%d 0 0 1\r\nx\r\n" % i for i in range(count)
        )
        replies, _io, store, _protocol = memcache_session(payload)
        assert store.max_writing == MAX_OVERLAP
        assert replies == b"STORED\r\n" * count
        assert len(store.data) == count

    def test_an_escaping_exception_surfaces_on_the_session(self):
        # A bug inside execute on a spawned thread: the session thread
        # re-raises it (the driver's close still runs) instead of the
        # scheduler's uncaught policy seeing a dead thread.
        class Buggy(MemcacheProtocol):
            def execute(self, command, out, values=None):
                if command[:2] == ("set", "a"):
                    @do
                    def bug():
                        yield pure(None)
                        raise ZeroDivisionError("bug in execute")
                    return bug()
                return super().execute(command, out, values)

        rt = SimRuntime(uncaught="store")
        io = ScriptedTransport([b"set a 0 0 1\r\n1\r\nset b 0 0 1\r\n2\r\n"])
        driver = ConnectionDriver(io, None, Buggy(RecordingStore()))
        rt.spawn(driver.handle_connection("c1"), name="session")
        rt.run()
        [(tcb, exc)] = rt.sched.uncaught_errors
        assert tcb.name == "session"
        assert isinstance(exc, ZeroDivisionError)
        assert io.sent == [] and io.closed_by == ["close"]


    def test_abandonment_issues_no_monadic_call(self, monkeypatch):
        # The runtime goes away with two overlapped sets parked in the
        # store: every generator is closed with GeneratorExit, and none
        # of them — session or spawned — may yield on the way out.
        class ParkedStore(RecordingStore):
            def _park(self, key):
                return MVar(name=f"never-{key}").take()

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        store = ParkedStore()
        rt = SimRuntime(uncaught="store")
        io = ScriptedTransport([b"set a 0 0 1\r\n1\r\nset b 0 0 1\r\n2\r\n"])
        driver = ConnectionDriver(io, None, MemcacheProtocol(store))
        rt.spawn(driver.handle_connection("c1"), name="session")
        rt.run(until=lambda: len(store.writing) == 2)
        assert store.writing == {"a", "b"}  # both parked, overlapped
        del rt, driver
        gc.collect()
        assert unraisable == []
        assert store.writing == set()  # the store's plain cleanup ran
        assert io.sent == [] and io.closed_by == []


class TestBarriersAndEndings:
    def test_quit_mid_batch_ends_execution_and_counting(self):
        payload = (b"get a\r\nget b\r\nquit\r\n"
                   b"set a 0 0 1\r\n1\r\nget a\r\n")
        replies, io, store, protocol = memcache_session(payload)
        assert replies == b"END\r\nEND\r\n"
        assert store.mgets == [["a", "b"]] and store.ops == []
        assert protocol.stats.commands == 3  # get, get, quit
        assert io.closed_by == ["close"]

    def test_parse_error_after_a_coalesced_run(self):
        payload = b"get a\r\nget b\r\nbogus verb\r\nget c\r\n"
        replies, io, store, protocol = memcache_session(payload)
        assert replies == b"END\r\nEND\r\nERROR\r\n"
        assert store.mgets == [["a", "b"]]
        assert len(io.sent) == 1  # replies and farewell: one write
        assert io.closed_by == ["shed"]  # drain-close
        assert protocol.stats.commands == 2

    @pytest.mark.parametrize("payload, spawned", [
        (b"get a\r\n", 0), (b"set a 0 0 1\r\n1\r\n", 0),
        (b"version\r\n", 0), (b"get a\r\nget b\r\nget c\r\n", 0),
        (b"delete a\r\ndelete b\r\ndelete c\r\n", 2),
    ])
    def test_only_overlap_spawns_and_the_last_runs_on_the_session(
            self, payload, spawned):
        rt = SimRuntime(uncaught="raise")
        names = fork_names(rt)
        io = ScriptedTransport([payload])
        driver = ConnectionDriver(io, None, MemcacheProtocol(RecordingStore()))
        rt.spawn(driver.handle_connection("c1"), name="session")
        rt.run()
        assert len(io.sent) == 1
        assert names.count("cache-overlap") == spawned


class TestFailureIsolation:
    def test_a_failed_coalesced_read_is_retried_per_command(self):
        store = RecordingStore(failing={"down"})
        store.data["up"] = b"U"
        payload = b"get up\r\nget down up\r\nget up\r\nversion\r\n"
        replies, io, store, protocol = memcache_session(payload, store)
        assert replies.startswith(
            b"VALUE up 0 1\r\nU\r\nEND\r\n"
            b"SERVER_ERROR RuntimeError: owner down\r\n"
            b"VALUE up 0 1\r\nU\r\nEND\r\n"
            b"VERSION "
        )
        assert store.mgets == [["up", "down"], ["up"], ["down", "up"],
                               ["up"]]
        assert protocol.stats.errors == 1
        assert io.closed_by == ["close"]  # EOF, not a hang-up

    def test_resp_neighbours_answer_their_own_outcome(self):
        store = RecordingStore(failing={"down"})
        store.data["up"] = b"U"
        payload = (resp(b"MGET", b"up") + resp(b"EXISTS", b"down")
                   + resp(b"SET", b"down", b"x") + resp(b"SET", b"up", b"V")
                   + resp(b"PING"))
        io, store, _protocol = run_session(RespProtocol, [payload],
                                              store)
        assert b"".join(io.sent) == (
            b"*1\r\n$1\r\nU\r\n"
            b"-ERR RuntimeError: owner down\r\n"
            b"-ERR RuntimeError: owner down\r\n"
            b"+OK\r\n+PONG\r\n"
        )
        assert store.data == {"up": b"V"}


def test_a_long_pipelined_batch_pops_in_linear_time():
    # next_command used to be list.pop(0): quadratic over the batch.
    from repro.cache.memcache import MemcacheParser

    parser = MemcacheParser()
    parser.feed(b"get k\r\n" * 50_000)
    popped = 0
    while parser.next_command() is not None:
        popped += 1
    assert popped == 50_000


@pytest.mark.parametrize("protocol_type", [MemcacheProtocol, RespProtocol])
def test_classify_never_touches_the_store(protocol_type):
    # The plan is made from the command alone: classify is plain code.
    protocol = protocol_type(store=None)
    parser = protocol.make_parser()
    parser.feed(b"get a b\r\n" if protocol_type is MemcacheProtocol
                else resp(b"MGET", b"a", b"b"))
    kind, keys = protocol.classify(parser.next_command())
    assert (kind, list(keys)) == ("read", ["a", "b"])
