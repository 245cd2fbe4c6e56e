"""HTTP/1.1 message framing, stated once (RFC 9112 §2, §5–§7).

Requests and responses are framed by the same rules: a start line, a
block of header fields, then a body delimited by a validated
Content-Length or by the chunked transfer coding (size lines may carry
extensions; an optional trailer section follows the terminal chunk).
:class:`MessageParser` is that machine; :class:`~repro.http.parser
.RequestParser` and :class:`~repro.http.client.ResponseParser` supply
only what differs — the start line, the framing decision (which
messages carry a body at all, and what an unframed one means) and the
error type.

The parser is push-based: feed it arbitrary byte chunks (as they arrive
from a socket) and pop complete messages.  Splitting the input at any
byte boundary yields identical parses — property tests pin this down
for both parsers, since network reads chunk unpredictably.

Everything that lets two implementations disagree about where a message
ends is rejected rather than resolved: both Transfer-Encoding and
Content-Length, duplicate framing headers, length values that ``int()``
would quietly accept (``"+5"``, ``"1_0"``, non-ASCII digits), whitespace
between a field name and its colon, and obs-fold continuation lines —
the request-smuggling surface, decided in one place.
"""

from __future__ import annotations

from typing import Any

__all__ = ["MessageParser"]

_MAX_CHUNK_LINE_BYTES = 256


class MessageParser:
    """A streaming HTTP/1.x message parser for a single connection,
    bounded in memory by ``max_header_bytes`` (header block, trailer
    section) and ``max_body_bytes`` (declared or cumulative chunked
    body): what exceeds them is rejected before it is buffered.

    Subclasses provide ``_error(status, detail)`` (the exception to
    raise; ``status`` is the HTTP status a server would answer with:
    400/413/431/501), ``_start(line, headers)`` (parse the start line,
    build the message) and, where the rules differ from a request's,
    ``_frame``/``_unframed`` (the framing decision).
    """

    #: Fields whose repetition would change message framing; everything
    #: else comma-joins per RFC 9110 §5.2.
    _NO_DUPLICATES: tuple[str, ...] = ("content-length", "transfer-encoding")

    def __init__(self, max_header_bytes: int, max_body_bytes: int) -> None:
        if max_header_bytes < 64:
            raise ValueError("max_header_bytes must be >= 64")
        if max_body_bytes < 0:
            raise ValueError("max_body_bytes must be >= 0")
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        #: Bytes carried over *between* feeds (a message split across
        #: recvs).  On the common one-recv-per-message path this stays
        #: empty and the parser works directly over the caller's buffer.
        self._buffer = bytearray()
        self._messages: list = []
        self._pending: Any = None
        #: Body framing of the pending message: "length", "chunked" or
        #: "eof" (a response body that runs to connection close).
        self._mode: str | None = None
        self._body_needed = 0
        # Chunked-transfer state: "size" / "data" / "trailer".
        self._chunk_mode = "size"
        self._chunk_remaining = 0
        self._body_parts: list[bytes] = []
        self._body_total = 0
        self._trailer_bytes = 0
        # The cursor, valid only inside feed(): parse source, read
        # position, and end of valid data.
        self._src: bytes | bytearray | None = None
        self._pos = 0
        self._end = 0

    def feed(self, data, length: int | None = None) -> None:
        """Add received bytes; may complete any number of messages.

        ``data`` is ``bytes`` or ``bytearray``; ``length`` bounds the
        valid prefix (pooled ``recv_into`` buffers are larger than the
        bytes received — pass the backing buffer and the count, no
        slicing copy needed).  A ``memoryview`` is accepted for
        compatibility but materialized (views lack bounded ``find``).

        Zero-copy discipline: when no bytes are carried over from a
        previous feed (the common one-recv-per-message case), parsing
        runs *directly over the caller's buffer* with a cursor — no
        join, no intermediate buffer; only the message body (which must
        outlive the reusable buffer) is copied out.  Any unconsumed
        tail is copied into the carry-over buffer before returning, so
        the caller may reuse ``data`` immediately after feed().
        """
        if isinstance(data, memoryview):
            data = bytes(data if length is None else data[:length])
            length = None
        end = len(data) if length is None else length
        if self._buffer:
            # Carry-over path: join once, parse the joined bytes with
            # the same cursor machinery, compact once at the end.
            self._buffer.extend(memoryview(data)[:end])
            src: bytes | bytearray = self._buffer
            end = len(src)
            owned = True
        else:
            src = data
            owned = False
        self._src = src
        self._pos = 0
        self._end = end
        try:
            while self._advance():
                pass
        finally:
            pos = self._pos
            self._src = None
            if owned:
                del src[:pos]
            elif pos < end:
                self._buffer.extend(memoryview(data)[pos:end])

    @property
    def buffered(self) -> int:
        """Unconsumed bytes carried over between feeds (split messages
        and pipelined data)."""
        return len(self._buffer)

    def _unframed(self, message: Any) -> None:
        """Neither Transfer-Encoding nor Content-Length.  The request
        rule: there is no body."""
        self._messages.append(message)

    # ------------------------------------------------------------------
    def _extract(self, start: int, stop: int) -> bytes:
        """Copy ``src[start:stop]`` out as bytes (one copy, no joins)."""
        src = self._src
        if type(src) is bytes:
            return src[start:stop]
        return bytes(memoryview(src)[start:stop])

    def _advance(self) -> bool:
        if self._pending is None:
            return self._advance_headers()
        if self._mode == "length":
            return self._advance_body()
        if self._mode == "chunked":
            return self._advance_chunked()
        # "eof": everything that arrives belongs to the body.
        if self._pos < self._end:
            self._body_total += self._end - self._pos
            if self._body_total > self.max_body_bytes:
                raise self._error(413, "body too large")
            self._body_parts.append(self._extract(self._pos, self._end))
            self._pos = self._end
        return False

    def _complete(self, body: bytes) -> None:
        """The pending message's body is in: queue it."""
        message = self._pending
        message.body = body
        self._pending = None
        self._mode = None
        self._body_parts = []
        self._messages.append(message)

    def _advance_headers(self) -> bool:
        src, pos = self._src, self._pos
        end = src.find(b"\r\n\r\n", pos, self._end)
        if end < 0:
            if self._end - pos > self.max_header_bytes:
                raise self._error(431, "header block too large")
            return False
        if end - pos > self.max_header_bytes:
            # A complete block arriving in one feed() must obey the same
            # bound as one dribbled across many.
            raise self._error(431, "header block too large")
        block = self._extract(pos, end)
        self._pos = end + 4
        self._frame(self._parse_header_block(block))
        return True

    def _frame(self, message: Any) -> None:
        """Decide how the body of ``message`` is delimited."""
        encoding = message.headers.get("transfer-encoding")
        length = message.headers.get("content-length")
        if encoding is not None:
            if length is not None:
                # RFC 9112 §6.1: an ambiguous-framing message MUST be
                # treated as an error, never resolved silently.
                raise self._error(
                    400, "both Transfer-Encoding and Content-Length"
                )
            codings = [c.strip().lower()
                       for c in encoding.split(",") if c.strip()]
            if codings != ["chunked"]:
                raise self._error(
                    501, f"unsupported Transfer-Encoding {encoding!r}"
                )
            self._begin_body(message, "chunked")
            self._chunk_mode = "size"
            self._trailer_bytes = 0
        elif length is not None:
            needed = self._strict_content_length(length)
            if needed > self.max_body_bytes:
                raise self._error(413, "body too large")
            self._begin_body(message, "length")
            self._body_needed = needed
        else:
            self._unframed(message)

    def _begin_body(self, message: Any, mode: str) -> None:
        self._pending = message
        self._mode = mode
        self._body_total = 0

    def _strict_content_length(self, value: str) -> int:
        """Parse a Content-Length: ASCII digits only, no signs or
        separators.

        Bare ``int()`` accepts ``"+5"``, ``" 7 "``, ``"1_0"``, and
        non-ASCII digit runs like ``"١٢"`` — all of which an intermediary
        may read differently than we would, which is exactly the desync
        that enables request smuggling.  (``str.isdigit()`` alone is not
        enough: it is True for non-ASCII digits, hence the explicit
        ASCII check.)
        """
        if not value or not value.isascii() or not value.isdigit():
            raise self._error(400, f"bad Content-Length {value!r}")
        return int(value)

    def _advance_body(self) -> bool:
        pos = self._pos
        if self._end - pos < self._body_needed:
            return False
        # The one necessary copy: the body must outlive the (reusable)
        # receive buffer it arrived in.
        self._pos = pos + self._body_needed
        self._complete(self._extract(pos, self._pos))
        return True

    # -- chunked transfer coding ---------------------------------------
    def _advance_chunked(self) -> bool:
        """Run the chunked state machine as far as the buffer allows.

        Returns True when the pending message completed (so the caller
        loops and may start the next pipelined message), False when more
        bytes are needed.
        """
        src = self._src
        while True:
            pos = self._pos
            available = self._end - pos
            if self._chunk_mode == "size":
                line_end = src.find(b"\r\n", pos, self._end)
                if line_end < 0:
                    if available > _MAX_CHUNK_LINE_BYTES:
                        raise self._error(400, "chunk size line too long")
                    return False
                line = self._extract(pos, line_end)
                self._pos = line_end + 2
                # Chunk extensions (";name=value") are legal and ignored.
                size_text = line.split(b";", 1)[0].strip()
                size = self._parse_chunk_size(size_text)
                if self._body_total + size > self.max_body_bytes:
                    raise self._error(413, "chunked body too large")
                if size == 0:
                    self._chunk_mode = "trailer"
                else:
                    self._chunk_remaining = size
                    self._chunk_mode = "data"
            elif self._chunk_mode == "data":
                data_end = pos + self._chunk_remaining
                if available < self._chunk_remaining + 2:
                    return False
                if self._extract(data_end, data_end + 2) != b"\r\n":
                    raise self._error(400, "chunk not CRLF-terminated")
                self._body_parts.append(self._extract(pos, data_end))
                self._body_total += self._chunk_remaining
                self._pos = data_end + 2
                self._chunk_remaining = 0
                self._chunk_mode = "size"
            else:  # trailer section: zero or more fields, then CRLF
                line_end = src.find(b"\r\n", pos, self._end)
                if line_end < 0:
                    if available > self.max_header_bytes:
                        raise self._error(431, "trailer section too large")
                    return False
                line = self._extract(pos, line_end)
                self._pos = line_end + 2
                if not line:
                    self._complete(b"".join(self._body_parts))
                    return True
                if line.find(b":") <= 0:
                    raise self._error(400, f"bad trailer line {line!r}")
                self._trailer_bytes += len(line) + 2
                if self._trailer_bytes > self.max_header_bytes:
                    raise self._error(431, "trailer section too large")
                # Trailer fields are validated for shape and discarded.

    def _parse_chunk_size(self, size_text: bytes) -> int:
        # int(x, 16) accepts "0x5", "+5", and "1_0"; require bare hex.
        if not size_text or any(
            c not in b"0123456789abcdefABCDEF" for c in size_text
        ):
            raise self._error(400, f"bad chunk size {size_text!r}")
        return int(size_text, 16)

    def _parse_header_block(self, block: bytes) -> Any:
        lines = block.decode("latin-1").split("\r\n")
        headers: dict[str, str] = {}
        # Start line first, so its errors (501/414) win over a bad field.
        message = self._start(lines[0], headers)
        for line in lines[1:]:
            colon = line.find(":")
            if colon <= 0:
                raise self._error(400, f"bad header line {line!r}")
            name = line[:colon]
            if name != name.strip():
                # RFC 9112 §5.1/§5.2: whitespace before the colon, and a
                # line that starts with whitespace (obs-fold), are
                # rejected — stripping them would turn a field another
                # parser ignores into a framing header.
                raise self._error(
                    400, f"whitespace around field name in {line!r}"
                )
            name = name.lower()
            value = line[colon + 1:].strip()
            if name in headers:
                if name in self._NO_DUPLICATES:
                    raise self._error(400, f"duplicate {name} header")
                headers[name] = f"{headers[name]}, {value}"
            else:
                headers[name] = value
        return message
