"""The cache protocols end to end on one live runtime.

A monadic raw client drives real sockets against a
:func:`~repro.cache.frontend.build_cache_frontend` over a single-owner
:class:`~repro.app.kv.KvNode`; the egress-batching claims are asserted
through the backend's syscall counters, the same in-process method the
HTTP gathered-write tests use.
"""

from __future__ import annotations

import zlib

import pytest

from repro.app.kv import KvNode
from repro.cache import build_cache_frontend
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.runtime.live_runtime import HAS_SENDMSG, LiveRuntime, make_listener
from tests.app.test_kv_replication import make_world


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def _start(rt, protocol, store=None, **kwargs):
    listener = make_listener()
    node = store if store is not None else KvNode(0, 1)
    frontend = build_cache_frontend(rt, listener, node, protocol=protocol,
                                    **kwargs)
    rt.spawn(frontend.main(), name=f"cache-{protocol}")
    return frontend, node, listener.getsockname()[1]


def _drive(rt, port, payload, done=None, client_writes=None):
    """Send ``payload`` in one write; collect replies until ``done(bytes)``
    (or server close when ``done`` is None), then close."""
    collected = bytearray()
    finished = []

    @do
    def client():
        conn = yield rt.io.connect(("127.0.0.1", port))
        yield rt.io.write_all(conn, payload)
        if client_writes is not None:
            client_writes.append(1)
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


class ExplodingStore:
    """A store whose every operation fails monadically."""

    def get(self, key, info=None):
        return self._boom()

    put = delete = get

    def mget(self, keys):
        return self._boom()

    def extra_stats(self):
        return {}

    @do
    def _boom(self):
        yield pure(None)
        raise RuntimeError("store down")


class TestMemcacheLive:
    def test_pipelined_round_trip(self, rt):
        _frontend, _node, port = _start(rt, "memcache")
        cas = zlib.crc32(b"hello")
        payload = (
            b"set k 0 0 5\r\nhello\r\n"
            b"get k\r\n"
            b"gets k\r\n"
            b"delete k\r\n"
            b"get k\r\n"
        )
        expected = (
            b"STORED\r\n"
            b"VALUE k 0 5\r\nhello\r\nEND\r\n"
            + b"VALUE k 0 5 %d\r\nhello\r\nEND\r\n" % cas
            + b"DELETED\r\nEND\r\n"
        )
        data = _drive(rt, port, payload,
                      done=lambda got: got == expected)
        assert data == expected

    def test_multi_key_get_and_noreply(self, rt):
        _frontend, node, port = _start(rt, "memcache")
        payload = (
            b"set a 0 0 1 noreply\r\nA\r\n"
            b"set b 0 0 1 noreply\r\nB\r\n"
            b"get a b ghost\r\n"
        )
        expected = (
            b"VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
        )
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected
        assert node.store == {"a": b"A", "b": b"B"}

    @pytest.mark.skipif(not HAS_SENDMSG, reason="no sendmsg on this platform")
    def test_pipelined_batch_is_one_syscall(self, rt):
        frontend, node, port = _start(rt, "memcache")
        requests = 8
        for index in range(requests):
            node.store[f"key-{index}"] = b"v%d" % index
        payload = b"".join(
            b"get key-%d\r\n" % index for index in range(requests)
        )
        client_writes: list[int] = []
        before = rt.backend.write_syscalls
        data = _drive(
            rt, port, payload,
            done=lambda got: got.count(b"END\r\n") == requests,
            client_writes=client_writes,
        )
        assert data.count(b"END\r\n") == requests
        server_writes = (
            rt.backend.write_syscalls - before - len(client_writes)
        )
        # The whole pipelined burst arrives in one read, so all eight
        # replies leave as ONE gathered write.
        assert server_writes == 1
        stats = frontend.stats
        assert stats.send_batches == 1
        assert stats.responses == requests
        assert stats.pipelined_batches == 1
        assert stats.max_responses_per_batch == requests
        assert stats.responses / stats.send_batches > 1

    def test_stats_and_version(self, rt):
        _frontend, _node, port = _start(rt, "memcache")
        data = _drive(rt, port, b"version\r\n",
                      done=lambda got: got.endswith(b"\r\n"))
        assert data.startswith(b"VERSION ")
        data = _drive(rt, port, b"stats\r\n",
                      done=lambda got: got.endswith(b"END\r\n"))
        assert b"STAT kv_keys 0\r\n" in data
        assert b"STAT commands " in data

    def test_parse_error_answers_then_closes(self, rt):
        _frontend, _node, port = _start(rt, "memcache")
        # Unparseable byte count: reply in flight, then EOF (read to
        # close proves the drain-close happened).
        data = _drive(rt, port, b"set k 0 0 pony\r\n")
        assert data == b"CLIENT_ERROR bad command line format\r\n"

    def test_store_failure_is_server_error_not_hangup(self, rt):
        _frontend, _node, port = _start(rt, "memcache",
                                        store=ExplodingStore())
        payload = b"get k\r\nversion\r\n"
        data = _drive(
            rt, port, payload,
            done=lambda got: got.count(b"\r\n") >= 2,
        )
        assert data.startswith(b"SERVER_ERROR RuntimeError: store down\r\n")
        # The connection survived the store failure.
        assert b"VERSION " in data

    def test_one_owner_down_fails_only_the_gets_that_need_it(self, rt):
        # replication=1, shard 1 dead.  The coalesced read of the burst
        # fails as a whole, so each get is read on its own: the one
        # whose keys live here answers its value, its neighbours answer
        # in-band, and the connection survives.
        node = make_world(rt, 2, live={0}, replication=1)[0]
        here = next(f"k{i}" for i in range(99) if node.ring.owner(f"k{i}") == 0)
        gone = next(f"k{i}" for i in range(99) if node.ring.owner(f"k{i}") == 1)
        node.store[here] = b"H"
        _frontend, _node, port = _start(rt, "memcache", store=node)
        payload = (f"get {gone}\r\nget {here}\r\nget {here} {gone}\r\n"
                   "version\r\n").encode()
        data = _drive(rt, port, payload, done=lambda got: b"VERSION" in got)
        first, rest = data.split(b"\r\n", 1)
        assert first.startswith(b"SERVER_ERROR MeshPeerDown")
        assert rest.startswith(
            b"VALUE %s 0 1\r\nH\r\nEND\r\nSERVER_ERROR MeshPeerDown"
            % here.encode()
        )
        assert rest.count(b"\r\n") == 5  # value, END, error, VERSION

    def test_unsupported_storage_command_stays_framed(self, rt):
        _frontend, _node, port = _start(rt, "memcache")
        payload = b"add k 0 0 5\r\nhello\r\nversion\r\n"
        data = _drive(rt, port, payload,
                      done=lambda got: b"VERSION" in got)
        assert data.startswith(b"ERROR\r\nVERSION ")

    def test_quit_closes(self, rt):
        _frontend, _node, port = _start(rt, "memcache")
        data = _drive(rt, port, b"quit\r\n")
        assert data == b""

    def test_shed_payload_is_preencoded(self, rt):
        frontend, _node, _port = _start(rt, "memcache")
        assert frontend.protocol.shed_payload() == (
            b"SERVER_ERROR connection capacity reached\r\n"
        )


def resp(*args: bytes) -> bytes:
    return b"*%d\r\n" % len(args) + b"".join(
        b"$%d\r\n%s\r\n" % (len(arg), arg) for arg in args
    )


class TestRespLive:
    def test_pipelined_round_trip(self, rt):
        _frontend, _node, port = _start(rt, "resp")
        binary = b"\x00\r\n\xff"
        payload = (
            resp(b"PING")
            + resp(b"SET", b"alpha", b"hello")
            + resp(b"SET", b"bin", binary)
            + resp(b"GET", b"alpha")
            + resp(b"GET", b"bin")
            + resp(b"MGET", b"alpha", b"ghost", b"bin")
            + resp(b"EXISTS", b"alpha", b"ghost")
            + resp(b"DEL", b"alpha", b"ghost")
            + resp(b"GET", b"alpha")
        )
        expected = (
            b"+PONG\r\n"
            b"+OK\r\n"
            b"+OK\r\n"
            b"$5\r\nhello\r\n"
            + b"$%d\r\n%s\r\n" % (len(binary), binary)
            + b"*3\r\n$5\r\nhello\r\n$-1\r\n"
            + b"$%d\r\n%s\r\n" % (len(binary), binary)
            + b":1\r\n"
            b":1\r\n"
            b"$-1\r\n"
        )
        data = _drive(rt, port, payload, done=lambda got: got == expected)
        assert data == expected

    def test_inline_commands(self, rt):
        _frontend, _node, port = _start(rt, "resp")
        data = _drive(rt, port, b"PING\r\n",
                      done=lambda got: got == b"+PONG\r\n")
        assert data == b"+PONG\r\n"

    def test_handshake_chatter(self, rt):
        _frontend, _node, port = _start(rt, "resp")
        payload = (
            resp(b"CLIENT", b"SETINFO", b"lib-name", b"redis-py")
            + resp(b"SELECT", b"0")
            + resp(b"HELLO", b"3")
            + resp(b"PING")
        )
        data = _drive(rt, port, payload,
                      done=lambda got: got.endswith(b"+PONG\r\n"))
        assert data.startswith(b"+OK\r\n+OK\r\n-ERR unknown command")

    def test_set_options_refused(self, rt):
        _frontend, _node, port = _start(rt, "resp")
        payload = resp(b"SET", b"k", b"v", b"EX", b"60") + resp(b"PING")
        data = _drive(rt, port, payload,
                      done=lambda got: got.endswith(b"+PONG\r\n"))
        assert data.startswith(b"-ERR SET options are not supported\r\n")

    def test_store_failure_is_err_not_hangup(self, rt):
        _frontend, _node, port = _start(rt, "resp", store=ExplodingStore())
        payload = resp(b"GET", b"k") + resp(b"PING")
        data = _drive(rt, port, payload,
                      done=lambda got: got.endswith(b"+PONG\r\n"))
        assert data.startswith(b"-ERR RuntimeError: store down\r\n")

    def test_protocol_error_closes(self, rt):
        _frontend, _node, port = _start(rt, "resp")
        data = _drive(rt, port, b"*1\r\n:5\r\n")
        assert data.startswith(b"-ERR Protocol error")

    def test_quit_replies_then_closes(self, rt):
        _frontend, _node, port = _start(rt, "resp")
        data = _drive(rt, port, resp(b"QUIT") + resp(b"PING"))
        # +OK for QUIT, then close: the pipelined PING is never answered.
        assert data == b"+OK\r\n"

    @pytest.mark.skipif(not HAS_SENDMSG, reason="no sendmsg on this platform")
    def test_pipelined_batch_is_one_syscall(self, rt):
        frontend, node, port = _start(rt, "resp")
        requests = 10
        for index in range(requests):
            node.store[f"key-{index}"] = b"value"
        payload = b"".join(
            resp(b"GET", b"key-%d" % index) for index in range(requests)
        )
        client_writes: list[int] = []
        before = rt.backend.write_syscalls
        data = _drive(
            rt, port, payload,
            done=lambda got: got.count(b"$5\r\nvalue\r\n") == requests,
            client_writes=client_writes,
        )
        assert data == b"$5\r\nvalue\r\n" * requests
        server_writes = (
            rt.backend.write_syscalls - before - len(client_writes)
        )
        assert server_writes == 1
        assert frontend.stats.responses == requests
        assert frontend.stats.send_batches == 1
