"""HTTP/1.x request and response messages."""

from __future__ import annotations

from datetime import timezone
from email.utils import formatdate, parsedate_to_datetime
from typing import Any, Iterable

__all__ = ["HttpRequest", "HttpResponse", "HttpError", "REASON_PHRASES",
           "guess_content_type", "http_date", "parse_http_date",
           "encode_chunk", "LAST_CHUNK"]

REASON_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    206: "Partial Content",
    301: "Moved Permanently",
    304: "Not Modified",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    416: "Range Not Satisfiable",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_CONTENT_TYPES = {
    ".html": "text/html",
    ".htm": "text/html",
    ".txt": "text/plain",
    ".css": "text/css",
    ".js": "application/javascript",
    ".json": "application/json",
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".gif": "image/gif",
    ".bin": "application/octet-stream",
}


def http_date(timestamp: float) -> str:
    """An RFC 7231 IMF-fixdate for ``timestamp`` (epoch seconds)."""
    return formatdate(timestamp, usegmt=True)


def parse_http_date(value: str) -> float | None:
    """Epoch seconds for an HTTP date header, or ``None`` if unparseable."""
    if not value:
        return None
    try:
        parsed = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if parsed is None:  # pre-3.10 parsedate returns None on garbage
        return None
    if parsed.tzinfo is None:
        # asctime-form dates (RFC 7231 obsolete but MUST-accept) parse
        # naive; HTTP dates are always GMT — never the server's zone.
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


#: Terminal frame of a chunked body (zero-length chunk, no trailers).
LAST_CHUNK = b"0\r\n\r\n"


def encode_chunk(data: bytes) -> bytes:
    """One ``Transfer-Encoding: chunked`` frame for ``data``.

    Empty input encodes to ``b""`` (never the terminal chunk — emit
    :data:`LAST_CHUNK` explicitly at end of body).
    """
    if not data:
        return b""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def guess_content_type(path: str) -> str:
    """MIME type from the path suffix (octet-stream when unknown)."""
    dot = path.rfind(".")
    if dot >= 0:
        return _CONTENT_TYPES.get(path[dot:].lower(),
                                  "application/octet-stream")
    return "application/octet-stream"


class HttpError(Exception):
    """An error with an associated HTTP status code.

    The server's per-client thread raises these from anywhere in request
    handling; the catch frame at the top of the thread turns them into
    error responses — the paper's "I/O errors are handled gracefully using
    exceptions".
    """

    def __init__(self, status: int, detail: str = "") -> None:
        reason = REASON_PHRASES.get(status, "Error")
        super().__init__(f"{status} {reason}" + (f": {detail}" if detail else ""))
        self.status = status
        self.detail = detail


class HttpRequest:
    """A parsed request."""

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        version: str,
        headers: dict[str, str],
        body: bytes = b"",
    ) -> None:
        self.method = method
        self.target = target
        self.version = version
        # Header names are stored lower-cased.
        self.headers = headers
        self.body = body

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Connection persistence per HTTP/1.0 and 1.1 rules."""
        connection = self.header("connection").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"

    @property
    def path(self) -> str:
        """The target with any query string removed."""
        question = self.target.find("?")
        return self.target if question < 0 else self.target[:question]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpRequest {self.method} {self.target} {self.version}>"


class HttpResponse:
    """A response under construction.

    ``chunks`` switches the response to ``Transfer-Encoding: chunked``:
    set it to an iterable of byte strings (the body of unknown total
    length) and the serving protocol streams each element as one chunk,
    ignoring ``body``/``Content-Length``.

    ``file`` switches the response to sendfile egress: set it to a
    :class:`~repro.runtime.io_api.FileBody` (an open file region) and the
    serving protocol sends the header block from userspace but moves the
    body kernel-to-socket — the bytes never transit the application.
    ``body``/``chunks`` are ignored; the protocol closes the file on
    every exit path.
    """

    __slots__ = ("status", "headers", "body", "version", "chunks", "file")

    def __init__(
        self,
        status: int,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
        version: str = "HTTP/1.1",
        chunks: Iterable[bytes] | None = None,
        file: Any = None,
    ) -> None:
        self.status = status
        self.body = body
        self.headers = dict(headers) if headers else {}
        self.version = version
        self.chunks = chunks
        self.file = file

    def header_block(self, extra_length: int | None = None) -> bytes:
        """Serialize the status line and headers (plus Content-Length).

        ``extra_length`` overrides the body length for streamed responses
        where the body is sent separately.
        """
        reason = REASON_PHRASES.get(self.status, "Unknown")
        headers = self.headers
        chunked = self.chunks is not None
        # Unknown total length means chunked framing instead of a
        # Content-Length (the two are mutually exclusive).
        dropped = "Content-Length" if chunked else None
        # The caller's headers in their order, then the defaults it did
        # not set: read in place, the dict is never copied.
        block = f"{self.version} {self.status} {reason}\r\n"
        for name, value in headers.items():
            if name != dropped:
                block += f"{name}: {value}\r\n"
        if chunked:
            if "Transfer-Encoding" not in headers:
                block += "Transfer-Encoding: chunked\r\n"
        elif "Content-Length" not in headers:
            if extra_length is not None:
                length = extra_length
            elif self.file is not None:
                length = self.file.count
            else:
                length = len(self.body)
            block += f"Content-Length: {length}\r\n"
        if "Server" not in headers:
            block += "Server: repro-monadic/1.0\r\n"
        return (block + "\r\n").encode("latin-1")

    def encode(self) -> bytes:
        """Full response bytes (header block + body).

        Chunked responses serialize every chunk plus the terminal frame,
        and file responses materialize the body with ``pread`` — usable
        by tests and non-streaming paths; the serving protocol streams
        chunks incrementally / sendfiles the region instead.
        """
        if self.chunks is not None:
            framed = b"".join(encode_chunk(chunk) for chunk in self.chunks)
            return self.header_block() + framed + LAST_CHUNK
        if self.file is not None:
            file = self.file
            return self.header_block() + file.pread(file.offset, file.count)
        return self.header_block() + self.body

    @classmethod
    def for_error(cls, error: HttpError, keep_alive: bool = False) -> "HttpResponse":
        """A minimal HTML error page for ``error``."""
        reason = REASON_PHRASES.get(error.status, "Error")
        body = (
            f"<html><head><title>{error.status} {reason}</title></head>"
            f"<body><h1>{error.status} {reason}</h1></body></html>"
        ).encode()
        headers = {"Content-Type": "text/html"}
        if not keep_alive:
            headers["Connection"] = "close"
        return cls(error.status, body, headers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpResponse {self.status} {len(self.body)}B>"
