"""The monadic HTTP/1.1 client: keep-alive, pooled, deadline-guarded.

This is the public *outbound* HTTP API, the client-side mirror of
:class:`~repro.http.server.WebServer`:

* :class:`ResponseParser` — the one client-side response parser: the
  framing machine it shares with the server's request parser
  (:mod:`repro.http.framing`) plus what only responses have — the
  no-body statuses (1xx/204/304 and HEAD replies, driven by an
  *expectation queue* of request methods so pipelined HEADs frame
  correctly) and read-until-EOF bodies.  The blocking test/load client
  (:mod:`repro.http.blocking_client`) is a thin wrapper over this same
  parser.
* :class:`HttpClient` — requests over a
  :class:`~repro.runtime.pool.ConnectionPool`.  Request egress is one
  gathered write (``write_all_v``: head + body, one ``sendmsg``); each
  request carries a deadline on the shared
  :class:`~repro.runtime.timer_wheel.TimerWheel` whose action *closes
  the pooled socket* — the runtime wakes the parked reader with
  ``ConnectionClosed``, surfaced as :class:`RequestTimeout` (the same
  close-to-wake idiom as mesh call timeouts).  A stale keep-alive
  connection (upstream closed it between requests) is retried once on a
  fresh dial, but only when zero response bytes arrived.
  :meth:`HttpClient.pipeline` issues a whole burst of requests as *one*
  vectored write and reads the responses back in order.

Per-connection parser state (with any buffered pipelined bytes) lives on
the pooled connection's ``session`` slot, so keep-alive reuse never
loses data.
"""

from __future__ import annotations

from typing import Any

from ..core.do_notation import do
from ..core.exceptions import ReproError
from ..core.monad import M
from ..runtime.io_api import ConnectionClosed
from ..runtime.pool import ConnectionPool, PoolError
from .framing import MessageParser

__all__ = [
    "HttpClient",
    "ClientResponse",
    "ResponseParser",
    "ResponseParseError",
    "HttpClientError",
    "RequestTimeout",
    "UpstreamProtocolError",
]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Statuses that never carry a body (RFC 9112 §6.3).
_NO_BODY_STATUSES = (204, 304)


class HttpClientError(ReproError):
    """Base class for client-side HTTP failures."""


class RequestTimeout(HttpClientError):
    """The per-request deadline fired before a complete response."""


class UpstreamProtocolError(HttpClientError):
    """The upstream spoke unparseable HTTP (wraps ResponseParseError)."""


class ResponseParseError(ValueError):
    """Malformed response framing from the upstream."""


class ClientResponse:
    """One parsed response.

    ``framed`` records whether the body had explicit framing
    (Content-Length / chunked / no-body-by-rule): an EOF-delimited body
    means the connection cannot be reused.
    """

    __slots__ = ("status", "reason", "version", "headers", "body",
                 "framed", "status_line")

    def __init__(self, status: int, reason: str, version: str,
                 headers: dict[str, str], status_line: str) -> None:
        self.status = status
        self.reason = reason
        self.version = version
        self.headers = headers  # lower-cased names
        self.body = b""
        self.framed = True
        self.status_line = status_line

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Connection persistence per HTTP/1.0 and 1.1 rules (framing
        permitting — see ``framed``)."""
        if not self.framed:
            return False
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClientResponse {self.status} {len(self.body)}B>"


class ResponseParser(MessageParser):
    """A streaming response parser for a single connection.

    Feed it arbitrary byte chunks; pop complete responses.  Call
    :meth:`expect` with the request method *before* the bytes of each
    response arrive (the client does this as it writes each request), so
    HEAD responses — which advertise a Content-Length but carry no body
    bytes — frame correctly even when pipelined.  Memory is bounded the
    same way as the request parser: oversized header blocks and bodies
    raise instead of buffering without limit.
    """

    def __init__(
        self,
        max_header_bytes: int = _MAX_HEADER_BYTES,
        max_body_bytes: int = _MAX_BODY_BYTES,
    ) -> None:
        super().__init__(max_header_bytes, max_body_bytes)
        self._expected: list[str] = []  # request methods, FIFO

    # -- public --------------------------------------------------------
    def expect(self, method: str) -> None:
        """Queue the request method whose response arrives next."""
        self._expected.append(method.upper())

    def eof(self) -> None:
        """The peer closed the stream.  Completes a read-until-EOF body;
        raises :class:`ResponseParseError` if a framed message was cut
        short; a clean close between messages is a no-op."""
        if self._mode == "eof":
            self._complete(b"".join(self._body_parts))
        elif self._pending is not None or self._buffer:
            raise ResponseParseError("EOF mid-response")

    def next_response(self) -> ClientResponse | None:
        """Pop the oldest complete response, if any."""
        if self._messages:
            return self._messages.pop(0)
        return None

    @property
    def idle(self) -> bool:
        """No partial message and no unconsumed bytes — the connection
        is safely reusable for the next request."""
        return (self._pending is None and not self._buffer
                and not self._messages)

    def drain(self) -> bytes:
        """Remove and return the unconsumed buffered bytes (used by the
        blocking wrapper to keep its caller-owned buffer in sync)."""
        data = bytes(self._buffer)
        del self._buffer[:]
        return data

    # -- what differs from a request -----------------------------------
    @staticmethod
    def _error(_status: int, detail: str) -> ResponseParseError:
        return ResponseParseError(detail)

    def _advance_headers(self) -> bool:
        if not self._expected:
            # No request is outstanding: leave the bytes buffered (they
            # are a pipelined response for a not-yet-issued expect(), or
            # surplus garbage the caller detects via ``idle``).
            return False
        return super()._advance_headers()

    def _start(self, line: str, headers: dict[str, str]) -> ClientResponse:
        parts = line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ResponseParseError(f"bad status line {line!r}")
        if not (len(parts[1]) == 3 and parts[1].isascii()
                and parts[1].isdigit()):
            raise ResponseParseError(f"bad status code {parts[1]!r}")
        reason = parts[2] if len(parts) == 3 else ""
        return ClientResponse(int(parts[1]), reason, parts[0], headers, line)

    def _frame(self, response: ClientResponse) -> None:
        # Informational (1xx): no body, and it does not consume the
        # expectation (``or`` short-circuits before the pop) — the final
        # response is still coming.
        if (response.status // 100 == 1
                or self._expected.pop(0) == "HEAD"
                or response.status in _NO_BODY_STATUSES):
            self._messages.append(response)
        else:
            super()._frame(response)

    def _unframed(self, response: ClientResponse) -> None:
        # No framing: the body runs to connection close (HTTP/1.0
        # style).  The connection is not reusable afterwards.
        response.framed = False
        self._begin_body(response, "eof")


# ----------------------------------------------------------------------
# The pooled client.
# ----------------------------------------------------------------------
def _encode_request(
    method: str,
    target: str,
    host: str,
    headers: dict[str, str] | None,
    body: bytes,
) -> list[bytes]:
    """The request as an iovec: [head] or [head, body] — one gathered
    write either way."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}"]
    lowered = {name.lower() for name in (headers or {})}
    if body and "content-length" not in lowered:
        lines.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return [head, body] if body else [head]


class HttpClient:
    """Keep-alive HTTP/1.1 requests over a bounded connection pool."""

    def __init__(
        self,
        io: Any,
        timers: Any,
        target: Any,
        *,
        host: str | None = None,
        pool_size: int = 8,
        request_timeout: float = 5.0,
        lease_timeout: float | None = None,
        connect_timeout: float = 2.0,
        idle_timeout: float | None = 30.0,
        probe_interval: float = 0.5,
        max_header_bytes: int = _MAX_HEADER_BYTES,
        max_body_bytes: int = _MAX_BODY_BYTES,
        name: str = "http-client",
    ) -> None:
        self.io = io
        self.timers = timers
        self.request_timeout = request_timeout
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self.name = name
        if host is None:
            host = (f"{target[0]}:{target[1]}"
                    if isinstance(target, tuple) else "upstream")
        self.host = host
        self.pool = ConnectionPool(
            io, timers, target,
            size=pool_size,
            lease_timeout=(request_timeout if lease_timeout is None
                           else lease_timeout),
            connect_timeout=connect_timeout,
            idle_timeout=idle_timeout,
            probe_interval=probe_interval,
            name=f"{name}-pool",
        )
        self.requests = 0
        self.retries = 0
        self.timeouts = 0

    # -- public --------------------------------------------------------
    def get(self, target: str, headers: dict[str, str] | None = None,
            timeout: float | None = None) -> M:
        """GET ``target``; resumes with a :class:`ClientResponse`."""
        return self.request("GET", target, b"", headers, timeout)

    def head(self, target: str, headers: dict[str, str] | None = None,
             timeout: float | None = None) -> M:
        """HEAD ``target``."""
        return self.request("HEAD", target, b"", headers, timeout)

    @do
    def request(self, method: str, target: str, body: bytes = b"",
                headers: dict[str, str] | None = None,
                timeout: float | None = None):
        """Any-method request; resumes with a :class:`ClientResponse`.

        Raises :class:`RequestTimeout` when the per-request deadline
        fires, :class:`UpstreamProtocolError` on unparseable responses,
        and the pool's errors (:class:`~repro.runtime.pool.UpstreamDown`,
        :class:`~repro.runtime.pool.PoolTimeout`, ...) unchanged.
        """
        timeout = self.request_timeout if timeout is None else timeout
        bufs = _encode_request(method, target, self.host, headers, body)
        self.requests += 1
        last_exc: BaseException | None = None
        for attempt in (0, 1):
            pc = yield self.pool.acquire()
            fresh = pc.session is None
            progress = {"rx": False}
            try:
                outcome = yield self._exchange(
                    pc, [method], bufs, timeout, progress
                )
            except GeneratorExit:
                self.pool.forfeit(pc)  # plain code: abandonment-safe
                raise
            except Exception as exc:
                yield self.pool.release(pc, discard=True)
                if (attempt == 0 and not fresh and not progress["rx"]
                        and isinstance(exc, (ConnectionClosed,
                                             ConnectionResetError,
                                             BrokenPipeError))):
                    # Stale keep-alive connection: the upstream closed
                    # it between requests.  Retry once, fresh.
                    self.retries += 1
                    last_exc = exc
                    continue
                raise self._mapped(exc, method, target)
            responses, reusable = outcome
            yield self.pool.release(pc, discard=not reusable)
            return responses[0]
        raise self._mapped(last_exc, method, target)  # pragma: no cover

    @do
    def pipeline(self, requests: list, timeout: float | None = None):
        """Issue several requests on one connection as **one** vectored
        write, then read the responses back in order.  Each element of
        ``requests`` is ``(method, target)`` or ``(method, target,
        body)`` or ``(method, target, body, headers)``.  Resumes with a
        list of :class:`ClientResponse`."""
        timeout = self.request_timeout if timeout is None else timeout
        methods = []
        bufs: list[bytes] = []
        for spec in requests:
            method, target = spec[0], spec[1]
            body = spec[2] if len(spec) > 2 else b""
            headers = spec[3] if len(spec) > 3 else None
            methods.append(method)
            bufs.extend(_encode_request(
                method, target, self.host, headers, body
            ))
        self.requests += len(requests)
        pc = yield self.pool.acquire()
        try:
            outcome = yield self._exchange(pc, methods, bufs, timeout,
                                           {"rx": False})
        except GeneratorExit:
            self.pool.forfeit(pc)
            raise
        except Exception as exc:
            yield self.pool.release(pc, discard=True)
            raise self._mapped(exc, methods[0] if methods else "?",
                               "pipeline")
        responses, reusable = outcome
        yield self.pool.release(pc, discard=not reusable)
        return responses

    def close(self) -> M:
        """Close the underlying pool."""
        return self.pool.close()

    def stats(self) -> dict:
        out = {
            "requests": self.requests,
            "retries": self.retries,
            "timeouts": self.timeouts,
        }
        for key, value in self.pool.stats().items():
            out[f"pool_{key}"] = value
        return out

    # -- internals -----------------------------------------------------
    @do
    def _exchange(self, pc, methods, bufs, timeout, progress):
        """Write the request bytes (one gathered write) and read
        ``len(methods)`` responses.  Returns ``(responses, reusable)``."""
        parser = pc.session
        if parser is None:
            parser = ResponseParser(self.max_header_bytes,
                                    self.max_body_bytes)
            pc.session = parser
        for method in methods:
            parser.expect(method)
        # The deadline action closes the pooled socket; the runtime
        # wakes the parked reader/writer with ConnectionClosed.
        deadline = yield self.timers.schedule(
            timeout, lambda: self.io.close(pc.fd)
        )
        try:
            yield self.io.write_all_v(pc.fd, bufs)
            responses: list[ClientResponse] = []
            while len(responses) < len(methods):
                response = parser.next_response()
                if response is not None:
                    if response.status // 100 != 1:  # skip 1xx interim
                        responses.append(response)
                    continue
                data = yield self.io.read(pc.fd, 65536)
                if data:
                    progress["rx"] = True
                    parser.feed(data)
                    continue
                parser.eof()
                response = parser.next_response()
                if response is None:
                    raise ConnectionClosed("EOF before response")
                responses.append(response)  # its body ran to the close
        except Exception as exc:
            deadline.cancel()
            if deadline.fired:
                self.timeouts += 1
                raise RequestTimeout(
                    f"{self.name}: no response within {timeout:.3f}s"
                ) from exc
            raise
        deadline.cancel()
        reusable = (not deadline.fired and parser.idle
                    and all(r.keep_alive for r in responses))
        return responses, reusable

    def _mapped(self, exc: BaseException, method: str,
                target: str) -> BaseException:
        if isinstance(exc, ResponseParseError):
            return UpstreamProtocolError(
                f"{self.name}: bad response to {method} {target}: {exc}"
            )
        if isinstance(exc, (HttpClientError, PoolError)):
            return exc
        if isinstance(exc, ConnectionClosed):
            return HttpClientError(
                f"{self.name}: connection lost during {method} {target}: "
                f"{exc}"
            )
        return exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpClient {self.name} -> {self.host}>"
