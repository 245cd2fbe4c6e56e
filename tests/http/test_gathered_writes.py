"""The HTTP egress fast path: vectored responses and chunk coalescing.

Syscall claims are asserted through the live backend's egress counters
(``write_calls``/``writev_calls``) — the same in-process ctl-counter
method the poller tests use, since wall-clock deltas are meaningless on
a one-core CI box.  Byte-exactness under pipelining guards the
coalescing rewrite against torn or duplicated writes.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.monad import pure
from repro.http.message import HttpResponse
from repro.http.server import build_live_server
from repro.runtime.live_runtime import HAS_SENDMSG, LiveRuntime, make_listener

BODY = b"<html>gathered!</html>"


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def _start(rt, handler=None, **kwargs):
    listener = make_listener()
    server = build_live_server(
        rt, listener, site={"/index.html": BODY}, handler=handler, **kwargs
    )
    rt.spawn(server.main(), name="server")
    return server, listener.getsockname()[1]


def _drive(rt, port, raw_request, client_writes):
    """Monadic client: send ``raw_request``, collect until server close.

    Appends one entry to ``client_writes`` per write syscall the client
    itself issued, so callers can subtract client traffic from the
    backend's shared egress counters.
    """
    collected = bytearray()
    finished = []

    @do
    def client():
        conn = yield rt.io.connect(("127.0.0.1", port))
        yield rt.io.write_all(conn, raw_request)
        client_writes.append(1)
        while True:
            data = yield rt.io.read(conn, 65536)
            if not data:
                break
            collected.extend(data)
        finished.append(True)
        yield rt.io.close(conn)

    rt.spawn(client(), name="raw-client")
    rt.run(until=lambda: bool(finished), idle_timeout=5.0)
    assert finished, "client never completed"
    return bytes(collected)


def _decode_chunked(framed: bytes) -> bytes:
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


class _SmallChunksHandler:
    """A handful of tiny chunks: must coalesce under the watermark."""

    def respond(self, request):
        return pure(HttpResponse(
            200, chunks=iter([b"alpha-", b"beta-", b"gamma"])
        ))


@pytest.mark.skipif(not HAS_SENDMSG, reason="no sendmsg on this platform")
class TestOneSyscallPerResponse:
    def test_header_and_body_leave_as_one_sendmsg(self, rt):
        _server, port = _start(rt)
        client_writes: list[int] = []
        requests = 10
        raw = (
            b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n" * (requests - 1)
            + b"GET /index.html HTTP/1.1\r\nHost: x\r\n"
              b"Connection: close\r\n\r\n"
        )
        before_total = rt.backend.write_syscalls
        data = _drive(rt, port, raw, client_writes)
        assert data.count(b"HTTP/1.1 200 OK") == requests
        server_writes = (
            rt.backend.write_syscalls - before_total - len(client_writes)
        )
        # One gathered write per response: never a separate header send.
        assert server_writes == requests

    def test_small_chunked_response_is_one_syscall(self, rt):
        # Header + 3 framed chunks + terminal chunk, all under the
        # watermark: ONE sendmsg, with the trailer riding the final
        # data flush rather than paying its own write.
        _server, port = _start(rt, handler=_SmallChunksHandler())
        client_writes: list[int] = []
        raw = b"GET /s HTTP/1.1\r\nConnection: close\r\n\r\n"
        before_total = rt.backend.write_syscalls
        data = _drive(rt, port, raw, client_writes)
        head, _, framed = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert _decode_chunked(framed) == b"alpha-beta-gamma"
        server_writes = (
            rt.backend.write_syscalls - before_total - len(client_writes)
        )
        assert server_writes == 1

    def test_error_response_is_one_syscall(self, rt):
        _server, port = _start(rt)
        client_writes: list[int] = []
        raw = b"GET /missing.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        before_total = rt.backend.write_syscalls
        data = _drive(rt, port, raw, client_writes)
        assert data.startswith(b"HTTP/1.1 404 ")
        server_writes = (
            rt.backend.write_syscalls - before_total - len(client_writes)
        )
        assert server_writes == 1


class TestChunkCoalescing:
    def test_low_watermark_still_byte_exact(self, rt):
        # Watermark of 1: every chunk flushes individually (the old
        # behavior) — framing must be identical either way.
        _server, port = _start(rt, handler=_SmallChunksHandler(),
                               chunk_watermark=1)
        data = _drive(rt, port,
                      b"GET /s HTTP/1.1\r\nConnection: close\r\n\r\n", [])
        head, _, framed = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert _decode_chunked(framed) == b"alpha-beta-gamma"

    def test_watermark_splits_large_streams(self, rt):
        big = [b"x" * 4096] * 8  # 32 KiB body, 16 KiB watermark

        class Handler:
            def respond(self, request):
                return pure(HttpResponse(200, chunks=iter(big)))

        _server, port = _start(rt, handler=Handler())
        data = _drive(rt, port,
                      b"GET /big HTTP/1.1\r\nConnection: close\r\n\r\n", [])
        _head, _, framed = data.partition(b"\r\n\r\n")
        assert _decode_chunked(framed) == b"".join(big)

    def test_pipelined_chunked_responses_are_not_torn(self, rt):
        # Three pipelined requests against a chunked handler: the three
        # responses must arrive strictly framed, in order, each with
        # exactly one terminal chunk — no duplicate or torn writes from
        # the coalescing buffers.
        _server, port = _start(rt, handler=_SmallChunksHandler())
        raw = (
            b"GET /a HTTP/1.1\r\n\r\n"
            b"GET /b HTTP/1.1\r\n\r\n"
            b"GET /c HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        data = _drive(rt, port, raw, [])
        assert data.count(b"HTTP/1.1 200 OK") == 3
        # Exactly one terminal chunk per response (the pattern is
        # anchored on the preceding chunk's CRLF so the "/1.0" in the
        # Server header cannot false-match).
        assert data.count(b"\r\n0\r\n\r\n") == 3
        rest = data
        for _ in range(3):
            _head, _, rest = rest.partition(b"\r\n\r\n")
            terminal = rest.find(b"\r\n0\r\n\r\n")
            framed, rest = rest[:terminal + 7], rest[terminal + 7:]
            assert _decode_chunked(framed) == b"alpha-beta-gamma"
        assert rest == b""

    def test_head_request_sends_header_only(self, rt):
        _server, port = _start(rt, handler=_SmallChunksHandler())
        data = _drive(rt, port,
                      b"HEAD /s HTTP/1.1\r\nConnection: close\r\n\r\n", [])
        head, _, rest = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert rest == b""
