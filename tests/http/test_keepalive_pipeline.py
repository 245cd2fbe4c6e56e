"""Keep-alive and pipelining through the monadic web server, on both
backends: the simulated kernel and the live runtime over real sockets.

The server code is byte-identical across the two (the paper's pitch); the
parametrized fixture swaps only the runtime, listener, and filesystem.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.http.server import (
    DocRootFilesystem,
    WebServer,
    build_live_server,
)
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.sim_runtime import SimRuntime

BODY = b"<html>" + b"k" * 250 + b"</html>"


class Driver:
    """One server on one runtime, plus a raw-bytes request driver."""

    def __init__(self, rt, server, connect_target, live):
        self.rt = rt
        self.server = server
        self.connect_target = connect_target
        self.live = live

    def exchange(self, raw_request: bytes, expected_responses: int,
                 chunk_delay: bool = False) -> bytes:
        """Send ``raw_request`` (possibly byte-dribbled), read until the
        server closes or ``expected_responses`` responses arrive."""
        rt = self.rt
        collected = bytearray()
        finished = []

        def have_all() -> bool:
            return _count_responses(bytes(collected)) >= expected_responses

        @do
        def client():
            conn = yield rt.io.connect(self.connect_target)
            if chunk_delay:
                for index in range(0, len(raw_request), 7):
                    yield rt.io.write_all(conn, raw_request[index:index + 7])
            else:
                yield rt.io.write_all(conn, raw_request)
            while True:
                data = yield rt.io.read(conn, 65536)
                if not data:
                    break
                collected.extend(data)
                if have_all():
                    break
            finished.append(True)
            yield rt.io.close(conn)

        rt.spawn(client(), name="raw-client")
        if self.live:
            rt.run(until=lambda: bool(finished), idle_timeout=5.0)
        else:
            rt.run(until=lambda: bool(finished))
        assert finished, "client never completed"
        return bytes(collected)


def _count_responses(data: bytes) -> int:
    """Complete HTTP responses at the head of ``data``."""
    count = 0
    while True:
        end = data.find(b"\r\n\r\n")
        if end < 0:
            return count
        head = data[:end]
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        total = end + 4 + length
        if len(data) < total:
            return count
        count += 1
        data = data[total:]


@pytest.fixture(params=["sim", "live"])
def driver(request, tmp_path):
    if request.param == "sim":
        rt = SimRuntime(uncaught="store")
        rt.kernel.fs.create_file("index.html", len(BODY))
        listener = rt.kernel.net.listen()
        server = WebServer(rt.io, listener, rt.kernel.fs)
        rt.spawn(server.main(), name="server")
        yield Driver(rt, server, listener, live=False)
        return
    rt = LiveRuntime(uncaught="store")
    (tmp_path / "index.html").write_bytes(BODY)
    listener = make_listener()
    port = listener.getsockname()[1]
    server = build_live_server(rt, listener, docroot=str(tmp_path))
    rt.spawn(server.main(), name="server")
    yield Driver(rt, server, ("127.0.0.1", port), live=True)
    server.stop()
    listener.close()
    rt.shutdown()


class TestKeepAlive:
    def test_multiple_requests_one_connection(self, driver):
        raw = (b"GET /index.html HTTP/1.1\r\n\r\n"
               b"GET /index.html HTTP/1.1\r\n\r\n"
               b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n")
        data = driver.exchange(raw, expected_responses=3)
        assert data.count(b"HTTP/1.1 200 OK") == 3
        assert driver.server.stats.requests == 3
        assert driver.server.stats.connections == 1

    def test_connection_close_honored(self, driver):
        raw = b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        # expected_responses high on purpose: the loop must end via EOF.
        data = driver.exchange(raw, expected_responses=2)
        assert _count_responses(data) == 1
        assert b"200 OK" in data

    def test_http10_defaults_to_close(self, driver):
        raw = b"GET /index.html HTTP/1.0\r\n\r\n"
        data = driver.exchange(raw, expected_responses=2)
        assert _count_responses(data) == 1

    def test_http10_keepalive_header_persists(self, driver):
        raw = (b"GET /index.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
               b"GET /index.html HTTP/1.0\r\n\r\n")
        data = driver.exchange(raw, expected_responses=2)
        assert _count_responses(data) == 2
        assert driver.server.stats.requests == 2


class TestPipelining:
    def test_pipelined_burst_answered_in_order(self, driver):
        burst = b"".join(
            b"GET /index.html HTTP/1.1\r\n\r\n" for _ in range(5)
        ) + b"GET /missing.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = driver.exchange(burst, expected_responses=6)
        assert data.count(b"HTTP/1.1 200 OK") == 5
        # The last pipelined response is the 404 — ordering preserved.
        assert data.rindex(b"HTTP/1.1 404") > data.rindex(b"HTTP/1.1 200")
        assert driver.server.stats.requests == 6

    def test_dribbled_bytes_parse_identically(self, driver):
        raw = (b"GET /index.html HTTP/1.1\r\n\r\n"
               b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n")
        data = driver.exchange(raw, expected_responses=2, chunk_delay=True)
        assert data.count(b"HTTP/1.1 200 OK") == 2
        assert driver.server.stats.requests == 2

    def test_body_bytes_correct_on_both_backends(self, driver):
        raw = b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = driver.exchange(raw, expected_responses=1)
        _, _, body = data.partition(b"\r\n\r\n")
        assert len(body) == len(BODY)
        if driver.live:
            # The live docroot serves the real file's real bytes.
            assert body == BODY


class TestDocRootContainment:
    def test_dotdot_traversal_is_nonexistent(self, tmp_path):
        root = tmp_path / "site"
        root.mkdir()
        (tmp_path / "secret.txt").write_bytes(b"outside")
        fs = DocRootFilesystem(str(root))
        assert not fs.exists("../secret.txt")
        with pytest.raises(FileNotFoundError):
            fs.open("../secret.txt")

    def test_symlink_escape_is_nonexistent(self, tmp_path):
        root = tmp_path / "site"
        root.mkdir()
        (tmp_path / "secret.txt").write_bytes(b"outside")
        (root / "leak").symlink_to(tmp_path / "secret.txt")
        fs = DocRootFilesystem(str(root))
        assert not fs.exists("leak")
        with pytest.raises(FileNotFoundError):
            fs.open("leak")

    def test_inside_symlink_and_plain_file_served(self, tmp_path):
        root = tmp_path / "site"
        root.mkdir()
        (root / "real.txt").write_bytes(b"inside")
        (root / "alias.txt").symlink_to(root / "real.txt")
        fs = DocRootFilesystem(str(root))
        assert fs.exists("real.txt")
        assert fs.exists("alias.txt")
        handle = fs.open("alias.txt")
        with open(handle, "rb") as real_file:
            assert real_file.read() == b"inside"
        handle.close()
