"""HTTP/1.1 completeness on the live path: bounded parser memory
(431/413), chunked transfer encoding, and If-Modified-Since/304 against a
real docroot."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.do_notation import do
from repro.core.monad import pure
from repro.http.message import (
    LAST_CHUNK,
    HttpResponse,
    encode_chunk,
    http_date,
    parse_http_date,
)
from repro.http.parser import HttpParseError, RequestParser
from repro.http.server import build_live_server
from repro.runtime.live_runtime import LiveRuntime, make_listener

BODY = b"<html>http11 features</html>"


# ----------------------------------------------------------------------
# Unit level: parser limits and message helpers.
# ----------------------------------------------------------------------
class TestParserLimits:
    def test_default_limits_accept_normal_requests(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        assert parser.next_request() is not None

    def test_configured_header_limit_rejects_with_431(self):
        parser = RequestParser(max_header_bytes=128)
        with pytest.raises(HttpParseError) as err:
            parser.feed(b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 256)
        assert err.value.status == 431

    def test_header_limit_applies_to_complete_blocks_too(self):
        # A whole oversized block in one feed() must not sneak through.
        parser = RequestParser(max_header_bytes=128)
        with pytest.raises(HttpParseError) as err:
            parser.feed(
                b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 256 + b"\r\n\r\n"
            )
        assert err.value.status == 431

    def test_dribbled_oversized_header_rejected_before_completion(self):
        parser = RequestParser(max_header_bytes=128)
        parser.feed(b"GET / HTTP/1.1\r\n")
        with pytest.raises(HttpParseError) as err:
            for _ in range(64):
                parser.feed(b"X-Padding: " + b"b" * 16 + b"\r\n")
        assert err.value.status == 431
        # The buffer never grew far past the limit: memory stays bounded.
        assert parser.buffered <= 128 + 32

    def test_configured_body_limit_rejects_with_413(self):
        parser = RequestParser(max_body_bytes=64)
        with pytest.raises(HttpParseError) as err:
            parser.feed(
                b"PUT /k HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
            )
        assert err.value.status == 413

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            RequestParser(max_header_bytes=1)
        with pytest.raises(ValueError):
            RequestParser(max_body_bytes=-1)


class TestMessageHelpers:
    def test_chunk_framing_round_trip(self):
        assert encode_chunk(b"alpha") == b"5\r\nalpha\r\n"
        assert encode_chunk(b"") == b""
        assert LAST_CHUNK == b"0\r\n\r\n"

    def test_http_date_round_trip(self):
        stamp = 1_700_000_000.0
        assert parse_http_date(http_date(stamp)) == stamp

    def test_parse_http_date_garbage_is_none(self):
        assert parse_http_date("") is None
        assert parse_http_date("not a date") is None

    def test_parse_http_date_asctime_is_gmt(self):
        # RFC 7231 obsolete asctime form parses tz-naive: it must be
        # read as GMT, never the server's local zone.
        imf = parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT")
        asctime = parse_http_date("Sun Nov  6 08:49:37 1994")
        assert imf is not None and asctime == imf

    def test_chunked_response_header_block(self):
        response = HttpResponse(200, chunks=[b"ab", b"c"])
        header = response.header_block().lower()
        assert b"transfer-encoding: chunked" in header
        assert b"content-length" not in header
        assert response.encode().endswith(
            b"2\r\nab\r\n1\r\nc\r\n0\r\n\r\n"
        )


# ----------------------------------------------------------------------
# Live path: a real server on real sockets.
# ----------------------------------------------------------------------
def _drive(rt, port, raw_request, until_idle=5.0):
    """Send raw bytes from a monadic client; collect until server closes."""
    collected = bytearray()
    finished = []

    @do
    def client():
        conn = yield rt.io.connect(("127.0.0.1", port))
        yield rt.io.write_all(conn, raw_request)
        while True:
            data = yield rt.io.read(conn, 65536)
            if not data:
                break
            collected.extend(data)
        finished.append(True)
        yield rt.io.close(conn)

    rt.spawn(client(), name="raw-client")
    rt.run(until=lambda: bool(finished), idle_timeout=until_idle)
    assert finished, "client never completed"
    return bytes(collected)


def _decode_chunked(framed: bytes) -> bytes:
    """Strict chunked-body decoder (asserts on malformed framing)."""
    body = bytearray()
    rest = framed
    while True:
        line, _, rest = rest.partition(b"\r\n")
        size = int(line, 16)
        if size == 0:
            assert rest == b"\r\n"
            return bytes(body)
        body.extend(rest[:size])
        assert rest[size:size + 2] == b"\r\n"
        rest = rest[size + 2:]


class _ChunkedHandler:
    """A protocol handler streaming a body of unknown length."""

    def respond(self, request):
        return pure(HttpResponse(
            200,
            headers={"Content-Type": "text/plain"},
            chunks=iter([b"alpha-", b"", b"beta-beta-", b"g"]),
        ))


@pytest.fixture
def live(tmp_path):
    rt = LiveRuntime(uncaught="store")
    (tmp_path / "index.html").write_bytes(BODY)
    servers = []

    def start(**kwargs):
        listener = make_listener()
        server = build_live_server(
            rt, listener, docroot=str(tmp_path), **kwargs
        )
        rt.spawn(server.main(), name="server")
        servers.append((server, listener))
        return server, listener.getsockname()[1]

    yield rt, start, tmp_path
    for server, listener in servers:
        server.stop()
        listener.close()
    rt.shutdown()


class TestLive431And413:
    def test_oversized_header_gets_431(self, live):
        rt, start, _root = live
        _server, port = start(max_header_bytes=256)
        raw = (b"GET /index.html HTTP/1.1\r\nX-Big: " + b"x" * 1024 +
               b"\r\n\r\n")
        data = _drive(rt, port, raw)
        assert data.startswith(b"HTTP/1.1 431 ")

    def test_oversized_body_gets_413(self, live):
        rt, start, _root = live
        _server, port = start(max_body_bytes=32)
        raw = (b"PUT /k HTTP/1.1\r\nContent-Length: 4096\r\n\r\n" +
               b"y" * 4096)
        data = _drive(rt, port, raw)
        assert data.startswith(b"HTTP/1.1 413 ")


class TestLiveChunked:
    def test_chunked_response_streams_and_terminates(self, live):
        rt, start, _root = live
        _server, port = start(handler=_ChunkedHandler())
        raw = b"GET /anything HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = _drive(rt, port, raw)
        head, _, framed = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"transfer-encoding: chunked" in head.lower()
        assert b"content-length" not in head.lower()
        assert _decode_chunked(framed) == b"alpha-beta-beta-g"

    def test_http10_request_gets_buffered_content_length(self, live):
        # Chunked framing is 1.1-only: a 1.0 client must receive the
        # same body buffered under a Content-Length instead.
        rt, start, _root = live
        _server, port = start(handler=_ChunkedHandler())
        raw = b"GET /anything HTTP/1.0\r\n\r\n"
        data = _drive(rt, port, raw)
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"transfer-encoding" not in head.lower()
        assert b"content-length: 17" in head.lower()
        assert body == b"alpha-beta-beta-g"

    def test_head_on_chunked_sends_no_body(self, live):
        rt, start, _root = live
        _server, port = start(handler=_ChunkedHandler())
        raw = b"HEAD /anything HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = _drive(rt, port, raw)
        head, _, rest = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert rest == b""


class TestLiveConditionalGet:
    def test_200_carries_last_modified(self, live):
        rt, start, root = live
        _server, port = start()
        raw = b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = _drive(rt, port, raw)
        assert data.startswith(b"HTTP/1.1 200 OK")
        assert b"Last-Modified: " in data
        sent = parse_http_date(
            data.split(b"Last-Modified: ")[1].split(b"\r\n")[0].decode()
        )
        mtime = os.path.getmtime(root / "index.html")
        assert sent is not None and abs(sent - mtime) < 2.0

    def test_if_modified_since_at_mtime_is_304(self, live):
        rt, start, root = live
        server, port = start()
        mtime = os.path.getmtime(root / "index.html")
        raw = (b"GET /index.html HTTP/1.1\r\n"
               b"If-Modified-Since: " + http_date(mtime).encode() +
               b"\r\nConnection: close\r\n\r\n")
        data = _drive(rt, port, raw)
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 304 Not Modified")
        assert body == b""
        # A 304 is a served response, not an error.
        assert server.stats.responses_ok == 1
        assert server.stats.responses_err == 0

    def test_stale_if_modified_since_serves_full_body(self, live):
        rt, start, root = live
        _server, port = start()
        mtime = os.path.getmtime(root / "index.html")
        stale = http_date(mtime - 3600)
        raw = (b"GET /index.html HTTP/1.1\r\n"
               b"If-Modified-Since: " + stale.encode() +
               b"\r\nConnection: close\r\n\r\n")
        data = _drive(rt, port, raw)
        assert data.startswith(b"HTTP/1.1 200 OK")
        assert data.endswith(BODY)

    def test_updated_file_invalidates_304_and_cache(self, live):
        rt, start, root = live
        # mtime_ttl=0: this test is about the *strict* validator path —
        # a change must be visible on the very next request, without
        # waiting out the probe cache's TTL window.
        server, port = start(mtime_ttl=0)
        # Warm the cache with v1.
        raw_plain = b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = _drive(rt, port, raw_plain)
        assert data.endswith(BODY)
        old_mtime = os.path.getmtime(root / "index.html")
        since = http_date(old_mtime).encode()
        # Rewrite the file into the future: the validator must now miss
        # AND the cached v1 body must not be served under the new
        # Last-Modified (cache invalidation by mtime).
        (root / "index.html").write_bytes(b"<html>version two</html>")
        future = time.time() + 10
        os.utime(root / "index.html", (future, future))
        raw = (b"GET /index.html HTTP/1.1\r\n"
               b"If-Modified-Since: " + since +
               b"\r\nConnection: close\r\n\r\n")
        data = _drive(rt, port, raw)
        assert data.startswith(b"HTTP/1.1 200 OK")
        assert data.endswith(b"<html>version two</html>")


class _CountingFs:
    """Wrap a filesystem to count mtime probes (the stat cost)."""

    def __init__(self, inner):
        self.inner = inner
        self.mtime_calls = 0

    def mtime(self, path):
        self.mtime_calls += 1
        return self.inner.mtime(path)

    def exists(self, path):
        return self.inner.exists(path)

    def open(self, path):
        return self.inner.open(path)


class TestMtimeProbeCache:
    def test_probe_cached_within_ttl(self, live):
        # Default short TTL: back-to-back requests for a hot file cost
        # one stat, not one per request (the conditional-GET stat-cost
        # fix: the blocking-pool hop is amortized over the TTL window).
        rt, start, _root = live
        server, port = start()
        counting = _CountingFs(server.protocol.handler.fs)
        server.protocol.handler.fs = counting
        raw = b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        for _ in range(3):
            data = _drive(rt, port, raw)
            assert data.startswith(b"HTTP/1.1 200 OK")
        assert counting.mtime_calls == 1

    def test_ttl_zero_probes_every_request(self, live):
        # mtime_ttl=0 keeps the strict pre-cache behavior: every request
        # revalidates against the real filesystem.
        rt, start, _root = live
        server, port = start(mtime_ttl=0)
        counting = _CountingFs(server.protocol.handler.fs)
        server.protocol.handler.fs = counting
        raw = b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        for _ in range(3):
            data = _drive(rt, port, raw)
            assert data.startswith(b"HTTP/1.1 200 OK")
        assert counting.mtime_calls == 3


class _BrokenHandler:
    """A handler with a bug: the protocol must contain it as a 500."""

    def respond(self, request):
        return pure(None).fmap(lambda _: {}["missing"])


class _ExplodingChunksHandler:
    """Chunks iterator that dies after the header is on the wire."""

    def __init__(self, chunks=None):
        self._chunks = chunks

    def respond(self, request):
        def default():
            yield b"first-"
            raise RuntimeError("stream source died")

        chunks = self._chunks if self._chunks is not None else default()
        return pure(HttpResponse(200, chunks=chunks))


class TestHandlerContainment:
    def test_chunk_stream_failure_closes_without_injection(self, live):
        # Once the 200 header and a chunk are out, an error response
        # would corrupt the chunk framing: the server must just hang up.
        rt, start, _root = live
        server, port = start(handler=_ExplodingChunksHandler())
        raw = b"GET /stream HTTP/1.1\r\n\r\n"  # keep-alive on purpose
        data = _drive(rt, port, raw)
        head, _, framed = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert framed.startswith(b"6\r\nfirst-\r\n")
        # No second status line injected mid-body, no terminal chunk:
        # the connection closed instead (EOF ended the client's read).
        assert data.count(b"HTTP/1.1") == 1
        assert not framed.endswith(b"0\r\n\r\n")
        assert server.stats.responses_err == 0

    def test_non_bytes_chunk_closes_without_injection(self, live):
        # encode_chunk raising (str chunk) after the header is sent must
        # take the same clean-hangup path as a dying iterator.
        rt, start, _root = live
        _server, port = start(
            handler=_ExplodingChunksHandler(iter([b"ok", "not-bytes"]))
        )
        raw = b"GET /stream HTTP/1.1\r\n\r\n"
        data = _drive(rt, port, raw)
        assert data.count(b"HTTP/1.1") == 1  # no injected error response
        assert b"2\r\nok\r\n" in data
        assert not data.endswith(b"0\r\n\r\n")

    def test_non_http_error_becomes_500(self, live):
        rt, start, _root = live
        server, port = start(handler=_BrokenHandler())
        raw = b"GET /boom HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = _drive(rt, port, raw)
        assert data.startswith(b"HTTP/1.1 500 ")
        assert server.stats.responses_err == 1
