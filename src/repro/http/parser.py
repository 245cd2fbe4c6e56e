"""Incremental HTTP/1.x request parsing.

The parser is push-based: feed it arbitrary byte chunks (as they arrive
from a socket) and pop complete requests.  Splitting the input at any byte
boundary yields identical parses — a property test pins this down, since
network reads chunk unpredictably.

Message framing (header fields, strict Content-Length, the chunked
machine, the bounds) is :class:`~repro.http.framing.MessageParser`'s,
shared with the response parser; this module supplies the request line
and the request's error type.  Every framing ambiguity — both
Transfer-Encoding and Content-Length, duplicate framing headers,
whitespace around a field name — is rejected with 400, the classic
request-smuggling surface.
"""

from __future__ import annotations

from .framing import MessageParser
from .message import HttpRequest

__all__ = ["RequestParser", "HttpParseError"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1 * 1024 * 1024
_SUPPORTED_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS")


class HttpParseError(ValueError):
    """Malformed request; carries the HTTP status to answer with."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class RequestParser(MessageParser):
    """A streaming request parser for a single connection.

    Memory is bounded: a header block that exceeds ``max_header_bytes``
    without completing is rejected with 431 (Request Header Fields Too
    Large) *before* more bytes accumulate, and a declared body larger
    than ``max_body_bytes`` is rejected with 413 — a connection can never
    make the parser buffer unboundedly.  Chunked bodies enforce the same
    body bound cumulatively across chunks, and bound the trailer section
    by ``max_header_bytes``.
    """

    #: A repeated Host would change routing, not framing: same answer.
    _NO_DUPLICATES = MessageParser._NO_DUPLICATES + ("host",)
    _error = HttpParseError

    def __init__(
        self,
        max_header_bytes: int = _MAX_HEADER_BYTES,
        max_body_bytes: int = _MAX_BODY_BYTES,
    ) -> None:
        super().__init__(max_header_bytes, max_body_bytes)

    def next_request(self) -> HttpRequest | None:
        """Pop the oldest complete request, if any."""
        if self._messages:
            return self._messages.pop(0)
        return None

    def _start(self, line: str, headers: dict[str, str]) -> HttpRequest:
        parts = line.split(" ")
        if len(parts) != 3:
            raise HttpParseError(400, f"bad request line {line!r}")
        method, target, version = parts
        if method not in _SUPPORTED_METHODS:
            raise HttpParseError(501, f"method {method!r} not implemented")
        if not version.startswith("HTTP/1."):
            raise HttpParseError(400, f"unsupported version {version!r}")
        if not target or len(target) > 4096:
            raise HttpParseError(414, "bad request target")
        return HttpRequest(method, target, version, headers)
