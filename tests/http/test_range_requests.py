"""HTTP Range conformance (single-range 206/416) on the live path.

Every case runs against both egress paths — sendfile (docroot default)
and the in-memory cache/AIO path (``sendfile=False``) — and asserts the
two produce byte-identical responses: the Range logic is shared, the
body transport is not.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.http.server import StaticFileHandler, build_live_server
from repro.runtime.io_api import SENDFILE_WINDOW
from repro.runtime.live_runtime import LiveRuntime, make_listener

def _payload() -> bytes:
    return b"".join(b"%03d-" % i for i in range(25))  # 100 bytes


@pytest.fixture
def live(tmp_path):
    rt = LiveRuntime(uncaught="store")
    (tmp_path / "data.txt").write_bytes(_payload())
    servers = []

    def start(**kwargs):
        listener = make_listener()
        server = build_live_server(
            rt, listener, docroot=str(tmp_path), **kwargs
        )
        rt.spawn(server.main(), name="server")
        servers.append((server, listener))
        return server, listener.getsockname()[1]

    yield rt, start
    for server, listener in servers:
        server.stop()
        listener.close()
    rt.shutdown()


def _drive(rt, port, raw_request, until_idle=5.0):
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


def _get(rt, port, range_header=None, method=b"GET"):
    raw = method + b" /data.txt HTTP/1.1\r\nConnection: close\r\n"
    if range_header is not None:
        raw += b"Range: " + range_header + b"\r\n"
    return _drive(rt, port, raw + b"\r\n")


def _split(response: bytes):
    head, _, body = response.partition(b"\r\n\r\n")
    headers = {}
    lines = head.split(b"\r\n")
    for line in lines[1:]:
        name, _, value = line.partition(b": ")
        headers[name.lower()] = value
    return lines[0], headers, body


class TestRangeConformance:
    # Each case: (range header or None, status, slice, content-range)
    CASES = [
        (None, b"200", (0, 100), None),
        (b"bytes=0-3", b"206", (0, 4), b"bytes 0-3/100"),
        (b"bytes=96-", b"206", (96, 100), b"bytes 96-99/100"),
        (b"bytes=-8", b"206", (92, 100), b"bytes 92-99/100"),
        # A suffix longer than the file selects the whole file (206).
        (b"bytes=-500", b"206", (0, 100), b"bytes 0-99/100"),
        # An end past EOF clamps to the final byte.
        (b"bytes=90-100000", b"206", (90, 100), b"bytes 90-99/100"),
        # Start past EOF: 416 with the total size advertised.
        (b"bytes=100-", b"416", None, b"bytes */100"),
        (b"bytes=500-600", b"416", None, b"bytes */100"),
        (b"bytes=-0", b"416", None, b"bytes */100"),
        # Ignorable per RFC 9110: multi-range and malformed serve 200.
        (b"bytes=0-1,3-4", b"200", (0, 100), None),
        (b"bytes=abc-def", b"200", (0, 100), None),
        (b"bytes=5-2", b"200", (0, 100), None),
        (b"items=0-3", b"200", (0, 100), None),
    ]

    @pytest.mark.parametrize("sendfile", [True, False],
                             ids=["sendfile", "memory"])
    @pytest.mark.parametrize("case", CASES,
                             ids=[str(c[0]) for c in CASES])
    def test_range_cases(self, live, sendfile, case):
        rt, start = live
        header, status, span, content_range = case
        _server, port = start(sendfile=sendfile)
        status_line, headers, body = _split(_get(rt, port, header))
        assert b" %s " % status in status_line
        if span is not None:
            expected = _payload()[span[0]:span[1]]
            assert body == expected
            assert headers[b"content-length"] == b"%d" % len(expected)
        else:
            assert body == b""
        if content_range is not None:
            assert headers[b"content-range"] == content_range
        else:
            assert b"content-range" not in headers

    def test_paths_are_byte_identical(self, live):
        rt, start = live
        _s1, port_sendfile = start(sendfile=True)
        _s2, port_memory = start(sendfile=False)
        for header in (None, b"bytes=10-19", b"bytes=-1", b"bytes=200-"):
            a = _get(rt, port_sendfile, header)
            b = _get(rt, port_memory, header)
            assert a == b, f"diverged for Range: {header!r}"

    def test_sendfile_path_skips_aio_and_cache(self, live):
        rt, start = live
        server, port = start()
        response = _get(rt, port, b"bytes=0-9")
        _status, _headers, body = _split(response)
        assert body == _payload()[:10]
        for header in (None, b"bytes=-8"):
            _get(rt, port, header)
        assert server.stats.aio_reads == 0
        # The file fits one SENDFILE_WINDOW: one sendfile(2) per GET.
        assert len(_payload()) <= SENDFILE_WINDOW
        assert rt.backend.sendfile_calls == 3
        assert rt.backend.sendfile_bytes == 10 + len(_payload()) + 8
        # Nothing got pulled into the application cache on this path.
        assert server.cache.get("data.txt") is None

    def test_head_with_range_sends_no_body(self, live):
        rt, start = live
        _server, port = start()
        status_line, headers, body = _split(
            _get(rt, port, b"bytes=0-9", method=b"HEAD")
        )
        assert b" 206 " in status_line
        assert headers[b"content-length"] == b"10"
        assert headers[b"content-range"] == b"bytes 0-9/100"
        assert body == b""

    def test_memory_path_ranges_cached_content(self, live):
        # Preloaded site entries stay on the memory path even when
        # sendfile is on; ranges must work there identically.
        rt, start = live
        server, port = start()
        server.cache.put("data.txt", _payload())
        status_line, headers, body = _split(_get(rt, port, b"bytes=4-7"))
        assert b" 206 " in status_line
        assert body == _payload()[4:8]
        assert rt.backend.sendfile_calls == 0


class TestParseRangeUnit:
    def test_handler_flag_off_without_fs_support(self):
        # EmptyFilesystem has no open_sendfile: auto-detect stays off
        # and forcing it on is refused (nothing to open).
        from repro.http.cache import FileCache
        from repro.http.server import EmptyFilesystem

        handler = StaticFileHandler(EmptyFilesystem(), FileCache(1024))
        assert handler.sendfile is False
        forced = StaticFileHandler(EmptyFilesystem(), FileCache(1024),
                                   sendfile=True)
        assert forced.sendfile is False
