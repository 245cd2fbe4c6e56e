"""The monadic HTTP client: the shared response parser + pooled requests.

Parser tests are sans-I/O (feed bytes, pop responses).  Client tests run
a real :class:`~repro.http.server.WebServer` upstream *inside the same
live runtime* — client and server are cooperative threads on one
scheduler, the paper's model end to end.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.thread import join_all, spawn
from repro.http.client import (
    HttpClient,
    RequestTimeout,
    ResponseParseError,
    ResponseParser,
    UpstreamProtocolError,
)
from repro.http.message import HttpError, HttpResponse
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.http.server import build_live_server
from tests.http.test_http11_features import _drive as drive


# ----------------------------------------------------------------------
# ResponseParser: sans-I/O.
# ----------------------------------------------------------------------
class TestResponseParser:
    def test_content_length_response(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            b"Content-Length: 5\r\n\r\nhello"
        )
        response = parser.next_response()
        assert response is not None
        assert response.status == 200
        assert response.reason == "OK"
        assert response.version == "HTTP/1.1"
        assert response.status_line == "HTTP/1.1 200 OK"
        assert response.header("content-TYPE") == "text/plain"
        assert response.body == b"hello"
        assert response.framed and response.keep_alive
        assert parser.idle

    def test_byte_at_a_time_feed(self):
        parser = ResponseParser()
        parser.expect("GET")
        raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone"
        for index in range(len(raw)):
            assert parser.next_response() is None
            parser.feed(raw[index:index + 1])
        response = parser.next_response()
        assert response.status == 404
        assert response.body == b"gone"

    def test_head_response_carries_no_body(self):
        # A HEAD response advertises Content-Length but sends no body
        # bytes; the expectation queue keeps the framing straight even
        # with a pipelined follow-up.
        parser = ResponseParser()
        parser.expect("HEAD")
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        )
        head = parser.next_response()
        get = parser.next_response()
        assert head.body == b""
        assert head.header("content-length") == "5000"
        assert get.body == b"ok"
        assert parser.idle

    def test_no_body_statuses(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 304 Not Modified\r\nLast-Modified: x\r\n\r\n"
            b"HTTP/1.1 204 No Content\r\n\r\n"
        )
        assert parser.next_response().status == 304
        assert parser.next_response().status == 204
        assert parser.idle

    def test_chunked_with_extensions_and_trailers(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5;name=value\r\nhello\r\n6 ; x\r\n world\r\n"
            b"0\r\nX-Checksum: abc\r\n\r\n"
        )
        response = parser.next_response()
        assert response.body == b"hello world"
        assert response.framed
        assert parser.idle

    def test_eof_delimited_body(self):
        # No Content-Length, no chunking: the body runs to close and the
        # connection is not reusable.
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(b"HTTP/1.0 200 OK\r\n\r\npart one")
        assert parser.next_response() is None
        parser.feed(b", part two")
        parser.eof()
        response = parser.next_response()
        assert response.body == b"part one, part two"
        assert not response.framed
        assert not response.keep_alive

    def test_interim_1xx_does_not_consume_the_expectation(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        )
        assert parser.next_response().status == 100
        assert parser.next_response().body == b"ok"

    def test_pipelined_leftovers_are_reported(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nasurplus"
        )
        assert parser.next_response().body == b"a"
        assert parser.buffered == len(b"surplus")
        assert not parser.idle
        assert parser.drain() == b"surplus"

    @pytest.mark.parametrize("raw", [
        b"NOT HTTP\r\n\r\n",
        b"HTTP/1.1 20 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
    ])
    def test_malformed_responses_raise(self, raw):
        parser = ResponseParser()
        parser.expect("GET")
        with pytest.raises(ResponseParseError):
            parser.feed(raw)
            parser.next_response()

    def test_transfer_encoding_with_content_length_raises(self):
        # Regression: TE silently won, so a peer could append bytes the
        # Content-Length reading hides and leave them on a pooled socket.
        parser = ResponseParser()
        parser.expect("GET")
        with pytest.raises(ResponseParseError):
            parser.feed(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                b"Content-Length: 3\r\n\r\n3\r\nabc\r\n0\r\n\r\n"
            )
        assert parser.next_response() is None

    def test_eof_mid_framed_body_raises(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhal")
        with pytest.raises(ResponseParseError):
            parser.eof()

    def test_bad_chunk_size_raises(self):
        parser = ResponseParser()
        parser.expect("GET")
        with pytest.raises(ResponseParseError):
            parser.feed(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"0x5\r\nhello\r\n"
            )

    def test_connection_close_defeats_keep_alive(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(
            b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n"
            b"Connection: close\r\n\r\n"
        )
        assert not parser.next_response().keep_alive

    def test_http10_defaults_to_close(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.feed(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n")
        assert not parser.next_response().keep_alive


# ----------------------------------------------------------------------
# HttpClient against a live in-runtime upstream.
# ----------------------------------------------------------------------
@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def run(rt, comp, timeout=10.0):
    done = []

    @do
    def driver():
        yield comp
        done.append(True)

    rt.spawn(driver(), name="test-driver")
    rt.run(until=lambda: bool(done), idle_timeout=timeout)
    assert done, "driver did not finish"


def start_upstream(rt, site=None, handler=None, name="upstream"):
    listener = make_listener()
    server = build_live_server(
        rt, listener,
        site=site if site is not None else {"index.html": b"hello world"},
        handler=handler, name=name,
    )
    rt.spawn(server.main(), name=name)
    return listener, server


def make_client(rt, listener, **kwargs) -> HttpClient:
    kwargs.setdefault("pool_size", 2)
    return HttpClient(rt.io, rt.timers, listener.getsockname(), **kwargs)


class TestHttpClient:
    def test_get_roundtrip(self, rt):
        listener, server = start_upstream(rt)
        client = make_client(rt, listener)
        results = []

        @do
        def body():
            response = yield client.get("/index.html")
            results.append(response)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        (response,) = results
        assert response.status == 200
        assert response.body == b"hello world"
        assert client.stats()["requests"] == 1

    def test_keep_alive_reuses_the_connection(self, rt):
        listener, server = start_upstream(rt)
        client = make_client(rt, listener, pool_size=1)
        bodies = []

        @do
        def body():
            for _ in range(5):
                response = yield client.get("/index.html")
                bodies.append(response.body)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert bodies == [b"hello world"] * 5
        assert client.pool.dials == 1  # one socket served all five
        assert client.pool.reuses == 4
        assert server.stats.connections == 1

    def test_head_and_error_statuses(self, rt):
        listener, server = start_upstream(rt)
        client = make_client(rt, listener)
        seen = []

        @do
        def body():
            head = yield client.head("/index.html")
            seen.append(("head", head.status, head.body,
                         head.header("content-length")))
            missing = yield client.get("/ghost")
            seen.append(("missing", missing.status))
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert seen[0] == ("head", 200, b"", str(len(b"hello world")))
        assert seen[1] == ("missing", 404)

    def test_chunked_upstream_response(self, rt):
        class Chunky:
            def respond(self, request):
                return pure_response(HttpResponse(
                    200, chunks=iter([b"alpha ", b"beta ", b"gamma"])
                ))

        listener, server = start_upstream(rt, handler=Chunky())
        client = make_client(rt, listener)
        results = []

        @do
        def body():
            response = yield client.get("/stream")
            results.append(response)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert results[0].body == b"alpha beta gamma"
        assert results[0].header("transfer-encoding") == "chunked"

    def test_5xx_from_a_handler_ends_the_session_and_says_so(self, rt):
        # The driver drain-closes after a handler's 5xx, so the reply
        # must carry ``Connection: close`` — otherwise a pooled client
        # files the dead socket as reusable.  A 4xx stays persistent.
        class Shard:
            def respond(self, request):
                if request.path == "/down":
                    raise HttpError(503, "quorum not met")
                if request.path == "/ghost":
                    raise HttpError(404, request.path)
                return pure_response(HttpResponse(200, body=b"ok"))

        listener, server = start_upstream(rt, handler=Shard())
        wire = drive(
            rt, listener.getsockname()[1],
            b"GET /ghost HTTP/1.1\r\n\r\nGET /down HTTP/1.1\r\n\r\n",
        )  # returns at EOF: the server hung up after the 503
        missing, _, down = wire.partition(b"HTTP/1.1 503 ")
        assert missing.startswith(b"HTTP/1.1 404 ")
        assert b"Connection: close\r\n" not in missing
        assert b"Connection: close\r\n" in down
        assert wire.count(b"HTTP/1.1 ") == 2

        client = make_client(rt, listener, pool_size=1)
        seen = []

        @do
        def body():
            for target in ("/ghost", "/down"):
                response = yield client.get(target)
                seen.append((response.status, response.keep_alive,
                             client.pool.discards))
            after = yield client.get("/index.html")
            seen.append((after.status, after.body))
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert seen == [(404, True, 0), (503, False, 1), (200, b"ok")]
        # The 404's socket was reused for the 503; the 503's was not.
        assert client.pool.dials == 2 and client.pool.reuses == 1
        assert client.retries == 0

    def test_pipeline_one_write_many_responses(self, rt):
        site = {"a": b"AA", "b": b"BBB", "c": b"C"}
        listener, server = start_upstream(rt, site=site)
        client = make_client(rt, listener, pool_size=1)
        results = []

        @do
        def body():
            responses = yield client.pipeline(
                [("GET", "/a"), ("HEAD", "/b"), ("GET", "/c")]
            )
            results.append(responses)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        (responses,) = results
        assert [r.body for r in responses] == [b"AA", b"", b"C"]
        assert responses[1].header("content-length") == "3"
        assert client.pool.dials == 1

    def test_request_deadline_surfaces_as_timeout(self, rt):
        class Stuck:
            def respond(self, request):
                return stuck_forever()

        listener, server = start_upstream(rt, handler=Stuck())
        client = make_client(rt, listener)
        errors = []

        @do
        def body():
            try:
                yield client.get("/slow", timeout=0.1)
            except RequestTimeout as exc:
                errors.append(exc)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert len(errors) == 1
        assert client.timeouts == 1
        # The timed-out socket was discarded, never parked for reuse.
        assert client.pool.idle == 0

    def test_stale_keepalive_connection_is_retried_once(self, rt):
        # An upstream that closes every connection after one response:
        # the second request on the pooled socket hits EOF with zero
        # bytes received and must transparently retry on a fresh dial.
        class OneShot:
            def respond(self, request):
                return pure_response(HttpResponse(
                    200, body=b"once", headers={"Connection": "close"}
                ))

        listener, server = start_upstream(rt, handler=OneShot())
        client = make_client(rt, listener, pool_size=1)
        bodies = []

        @do
        def body():
            for _ in range(3):
                response = yield client.get("/once")
                bodies.append(response.body)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert bodies == [b"once"] * 3
        # Connection: close is honored at release time, so each request
        # dialed fresh — no retries needed, no stale sockets reused.
        assert client.pool.dials == 3
        assert client.retries == 0

    def test_garbage_upstream_is_a_protocol_error(self, rt):
        # A raw TCP upstream speaking not-HTTP.
        address, finish = raw_upstream(b"SMTP READY\r\n\r\n")
        client = HttpClient(rt.io, rt.timers, address, pool_size=1)
        errors = []

        @do
        def body():
            try:
                yield client.get("/")
            except UpstreamProtocolError as exc:
                errors.append(exc)
            yield client.close()

        run(rt, body())
        finish()
        assert len(errors) == 1

    def test_ambiguous_framing_is_a_protocol_error_and_discards(self, rt):
        # Transfer-Encoding + Content-Length from the upstream: surfaced
        # as UpstreamProtocolError, and the connection (with whatever
        # the peer appended) never goes back on the shelf.
        address, finish = raw_upstream(AMBIGUOUS_RESPONSE)
        client = HttpClient(rt.io, rt.timers, address, pool_size=1)
        errors = []

        @do
        def body():
            try:
                yield client.get("/")
            except UpstreamProtocolError as exc:
                errors.append(exc)
            yield client.close()

        run(rt, body())
        finish()
        assert len(errors) == 1
        assert "Transfer-Encoding and Content-Length" in str(errors[0])
        assert client.pool.idle == 0
        assert client.pool.stats()["discards"] == 1

    def test_eof_delimited_response_is_returned_and_not_pooled(self, rt):
        # Regression: the response completed by the peer's close was
        # popped and dropped, so every HTTP/1.0-style body failed with
        # "EOF before response".
        address, finish = raw_upstream(
            b"HTTP/1.0 200 OK\r\nServer: old\r\n\r\nruns to the close",
            hold=False,
        )
        client = HttpClient(rt.io, rt.timers, address, pool_size=1)
        results = []

        @do
        def body():
            response = yield client.get("/")
            results.append(response)
            yield client.close()

        run(rt, body())
        finish()
        assert results[0].body == b"runs to the close"
        assert not results[0].framed
        assert client.pool.idle == 0

    def test_no_timer_thread_per_request(self, rt):
        # The PR-5 assertion at the client layer: every request arms a
        # deadline on the shared wheel, none forks a watchdog thread.
        names: list = []
        original = rt.sched._new_tcb

        def recording(name):
            names.append(name)
            return original(name)

        rt.sched._new_tcb = recording
        listener, server = start_upstream(rt)
        client = make_client(rt, listener, pool_size=1)

        @do
        def body():
            for _ in range(20):
                yield client.get("/index.html")
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        spawned = [name for name in names if name]
        assert not any("sweeper" in name for name in spawned)
        assert not any("watchdog" in name for name in spawned)
        assert not any("timer" in name or "sleeper" in name
                       for name in spawned)

    def test_concurrent_requests_share_the_pool(self, rt):
        listener, server = start_upstream(rt)
        client = make_client(rt, listener, pool_size=2)
        bodies = []

        @do
        def one(index):
            response = yield client.get("/index.html")
            bodies.append((index, response.body))

        @do
        def body():
            handles = []
            for index in range(10):
                handle = yield spawn(one(index), name=f"req-{index}")
                handles.append(handle)
            yield join_all(handles)
            yield client.close()

        run(rt, body())
        server.stop()
        listener.close()
        assert len(bodies) == 10
        assert all(body == b"hello world" for _, body in bodies)
        assert client.pool.dials <= 2  # bounded by the pool, not by load
        assert server.stats.connections <= 2


# -- a raw TCP upstream that answers one request with fixed bytes -------
AMBIGUOUS_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
    b"Content-Length: 3\r\n\r\n3\r\nabc\r\n0\r\n\r\n"
)


def raw_upstream(reply: bytes, hold: bool = True):
    """Returns ``(address, finish)``; the server thread answers the
    first request with ``reply`` and holds the socket open until
    ``finish()`` (``hold=False``: closes it right after the reply)."""
    import socket
    import threading

    gate = threading.Event()
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)

    def serve():
        conn, _ = listener.accept()
        conn.recv(65536)
        conn.sendall(reply)
        if hold:
            gate.wait(5.0)
        conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def finish():
        gate.set()
        thread.join(5.0)
        listener.close()

    return listener.getsockname(), finish


# -- tiny handler helpers ----------------------------------------------
def pure_response(response):
    from repro.core.monad import pure
    return pure(response)


@do
def stuck_forever():
    from repro.core.syscalls import sys_sleep
    while True:
        yield sys_sleep(3600.0)
