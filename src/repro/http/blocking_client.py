"""A minimal blocking HTTP/1.1 client for drivers outside the runtimes.

Load generators, cluster tests, and demos measure the serving stack from
the *outside*, so they deliberately use plain blocking sockets rather than
monadic threads — a separate process/thread model from the system under
test.  Response parsing is NOT duplicated here: both entry points are
thin blocking wrappers over :class:`repro.http.client.ResponseParser`,
the one client-side response parser in the tree (the monadic
:class:`~repro.http.client.HttpClient` is the public client API; this
module exists for code that must not run inside the runtime under test).
"""

from __future__ import annotations

import socket

from ..blocking import BlockingConnection
from .client import ResponseParseError, ResponseParser, _encode_request

__all__ = ["BlockingHttpClient", "read_full_response"]


def _read_one(sock: socket.socket, buffer: bytearray, method: str):
    """Pump ``sock`` through a :class:`ResponseParser` until one complete
    response is out.  ``buffer`` carries keep-alive leftovers between
    calls; parse failures surface as :class:`ConnectionError` to keep
    this module's historical contract."""
    parser = ResponseParser()
    parser.expect(method)
    if buffer:
        parser.feed(bytes(buffer))
        del buffer[:]
    try:
        while True:
            response = parser.next_response()
            if response is not None:
                if response.status // 100 == 1:
                    continue  # interim response: keep reading
                break
            chunk = sock.recv(65536)
            if not chunk:
                parser.eof()
                response = parser.next_response()
                if response is None:
                    raise ConnectionError(
                        "EOF before end of response header"
                    )
                break
            parser.feed(chunk)
    except ResponseParseError as exc:
        raise ConnectionError(str(exc)) from exc
    buffer.extend(parser.drain())
    return response


def read_full_response(
    sock: socket.socket, buffer: bytearray, head_only: bool = False
) -> tuple[str, dict[str, str], bytes]:
    """One response with parsed headers and chunked-body support.

    Returns ``(status_line, headers, body)`` — headers lower-cased.
    ``head_only`` is for HEAD requests, whose responses advertise a
    Content-Length but carry no body bytes.
    """
    response = _read_one(sock, buffer, "HEAD" if head_only else "GET")
    return response.status_line, dict(response.headers), response.body


class BlockingHttpClient(BlockingConnection):
    """One keep-alive connection issuing GETs and reading full responses."""

    def get(self, path: str, close: bool = False) -> tuple[str, bytes]:
        """GET ``path``; returns ``(status_line, body)``."""
        status_line, _headers, body = self.request("GET", path, close=close)
        return status_line, body

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> tuple[str, dict[str, str], bytes]:
        """Any-method request; returns ``(status_line, headers, body)``.

        Handles chunked responses, so it drives the KV facade
        (PUT/DELETE/MGET/kv-stats) end to end.
        """
        headers = {"Connection": "close" if close else "keep-alive",
                   **(headers or {})}
        self.sock.sendall(b"".join(_encode_request(
            method, f"/{path.lstrip('/')}", self.host, headers, body
        )))
        return read_full_response(
            self.sock, self.buffer, head_only=(method == "HEAD")
        )
