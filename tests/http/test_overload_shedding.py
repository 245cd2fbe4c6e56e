"""Overload control: per-server admission caps shed excess connections
with a clean 503 + close, while admitted connections keep serving."""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.syscalls import sys_sleep
from repro.http.server import build_live_server
from repro.runtime.live_runtime import LiveRuntime, make_listener

SITE = {"index.html": b"<html>capacity test</html>"}
REQUEST = b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n"


def _one_response(data: bytes) -> bytes | None:
    """The first complete HTTP response in ``data``, or None."""
    end = data.find(b"\r\n\r\n")
    if end < 0:
        return None
    length = 0
    for line in data[:end].split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    total = end + 4 + length
    return data[:total] if len(data) >= total else None


@pytest.fixture
def capped():
    rt = LiveRuntime(uncaught="store")
    listener = make_listener()
    server = build_live_server(
        rt, listener, site=SITE, max_connections=2, accept_batch=8
    )
    rt.spawn(server.main(), name="server")
    yield rt, server, listener.getsockname()[1]
    server.stop()
    listener.close()
    rt.shutdown()


class TestAdmissionCap:
    def test_excess_connections_get_503_and_close(self, capped):
        rt, server, port = capped
        results: dict[str, bytes] = {}
        eof: dict[str, bool] = {}
        shed_done: list[str] = []
        hold = {"release": False}

        @do
        def client(tag):
            conn = yield rt.io.connect(("127.0.0.1", port))
            yield rt.io.write_all(conn, REQUEST)
            data = bytearray()
            while _one_response(bytes(data)) is None:
                chunk = yield rt.io.read(conn, 65536)
                if not chunk:
                    break
                data.extend(chunk)
            results[tag] = bytes(data)
            if b"503" in bytes(data).split(b"\r\n", 1)[0]:
                # Shed: the server must also hang up on us.
                trailing = yield rt.io.read(conn, 4096)
                eof[tag] = trailing == b""
                yield rt.io.close(conn)
                shed_done.append(tag)
                return
            # Admitted: hold the connection open until released.
            while not hold["release"]:
                yield sys_sleep(0.005)
            yield rt.io.close(conn)

        for tag in ("a", "b", "c"):
            rt.spawn(client(tag))
        rt.run(
            until=lambda: len(results) == 3 and bool(shed_done),
            idle_timeout=5.0,
        )
        assert len(results) == 3
        assert shed_done

        statuses = sorted(
            response.split(b"\r\n", 1)[0] for response in results.values()
        )
        assert statuses.count(b"HTTP/1.1 200 OK") == 2
        assert statuses.count(b"HTTP/1.1 503 Service Unavailable") == 1
        shed_tag = next(
            tag for tag, response in results.items() if b"503" in response
        )
        assert eof[shed_tag], "shed connection must see a clean close"
        # The 503 names Connection: close.
        assert b"connection: close" in results[shed_tag].lower()

        assert server.stats.shed == 1
        assert server.stats.active == 2
        assert server.stats.connections == 2
        # Shed responses are not served requests.
        assert server.stats.requests == 2

        # Freeing a slot readmits: release the holders, then reconnect.
        hold["release"] = True
        rt.run(until=lambda: server.stats.active == 0, idle_timeout=5.0)
        assert server.stats.active == 0

        late: dict[str, bytes] = {}

        @do
        def late_client():
            conn = yield rt.io.connect(("127.0.0.1", port))
            yield rt.io.write_all(conn, REQUEST)
            data = bytearray()
            while _one_response(bytes(data)) is None:
                chunk = yield rt.io.read(conn, 65536)
                if not chunk:
                    break
                data.extend(chunk)
            late["response"] = bytes(data)
            yield rt.io.close(conn)

        rt.spawn(late_client())
        rt.run(until=lambda: bool(late), idle_timeout=5.0)
        assert late["response"].startswith(b"HTTP/1.1 200 OK")
        assert server.stats.shed == 1  # no new sheds

    def test_uncapped_server_never_sheds(self):
        rt = LiveRuntime(uncaught="store")
        listener = make_listener()
        server = build_live_server(rt, listener, site=SITE)
        try:
            assert server.max_connections is None
            done = []

            @do
            def client():
                conn = yield rt.io.connect(
                    ("127.0.0.1", listener.getsockname()[1])
                )
                yield rt.io.write_all(conn, REQUEST)
                data = bytearray()
                while _one_response(bytes(data)) is None:
                    chunk = yield rt.io.read(conn, 65536)
                    if not chunk:
                        break
                    data.extend(chunk)
                assert bytes(data).startswith(b"HTTP/1.1 200 OK")
                done.append(True)
                yield rt.io.close(conn)

            rt.spawn(server.main(), name="server")
            for _ in range(5):
                rt.spawn(client())
            rt.run(until=lambda: len(done) == 5, idle_timeout=5.0)
            assert len(done) == 5
            assert server.stats.shed == 0
            rt.run(until=lambda: server.stats.active == 0, idle_timeout=5.0)
            assert server.stats.active == 0
        finally:
            server.stop()
            listener.close()
            rt.shutdown()

    def test_cap_validation(self):
        rt = LiveRuntime()
        listener = make_listener()
        try:
            with pytest.raises(ValueError):
                build_live_server(rt, listener, site=SITE, max_connections=0)
            with pytest.raises(ValueError):
                build_live_server(rt, listener, site=SITE, accept_batch=0)
        finally:
            listener.close()
            rt.shutdown()
