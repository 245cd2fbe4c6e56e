"""The monadic HTTP serving stack (§5.2), in composable layers.

The architecture is the paper's: "the code for each client is written in a
'cheap', monad-based thread, while the entire application is an event-driven
program that uses asynchronous I/O mechanisms".  The stack is layered so
HTTP is one protocol among several rather than the hard-wired only one:

* :class:`~repro.runtime.driver.ConnectionDriver` (runtime layer) owns the
  accept/admission/shed loop and each connection's session — it reads
  and it closes — protocol-agnostically;
* :class:`HttpProtocol` implements the driver's protocol contract: parse
  requests, dispatch to a pluggable request *handler*, frame responses
  (Content-Length or chunked), map :class:`~repro.http.message.HttpError`
  to error responses — "I/O errors are handled gracefully using
  exceptions";
* :class:`StaticFileHandler` is the paper's application: file opens through
  the blocking pool (``sys_blio``), content read with AIO
  (``sys_aio_read``) into the application's own 100MB cache, conditional
  GET (``If-Modified-Since``/304) and single-range requests (206/416)
  against real filesystems; on filesystems exposing ``open_sendfile``
  (real docroots) the body instead moves kernel-to-socket via
  ``sendfile`` — zero userspace copies, no cache residency; other
  applications (``repro.app.kv``) plug in the same way;
* the transport is whatever the server is handed: ``rt.io``
  (:class:`~repro.runtime.io_api.NetIO` — simulated kernel streams or
  real sockets) or :class:`~repro.tcp.socket_api.TcpSockets` (the
  application-level TCP stack).  ``WebServer(rt.io, kernel.net.listen(),
  fs)`` against ``WebServer(tcp_sockets, stack.listen(80), fs)`` is the
  paper's "editing one line of code".

:class:`WebServer` is the driver configured with HTTP: it builds the
stats, the handler and the protocol, and is the
:class:`~repro.runtime.driver.ConnectionDriver` they run on.
"""

from __future__ import annotations

import os
from typing import Any

from ..core.do_notation import do
from ..core.syscalls import sys_aio_read, sys_blio, sys_now
from ..runtime.driver import CLOSE, DRAIN_CLOSE, ConnectionDriver
from ..runtime.io_api import FileBody
from ..simos.filesys import SimFileSystem
from .cache import FileCache
from .message import (
    LAST_CHUNK,
    HttpError,
    HttpRequest,
    HttpResponse,
    encode_chunk,
    guess_content_type,
    http_date,
    parse_http_date,
)
from .parser import HttpParseError, RequestParser

__all__ = ["WebServer", "ServerStats", "HttpProtocol", "StaticFileHandler",
           "DocRootFilesystem", "EmptyFilesystem", "build_live_server"]

#: Bytes asked of one AIO read while loading a file into the cache.
READ_CHUNK = 64 * 1024


class ServerStats:
    """Counters the benchmarks report.

    One object is shared across the layers: the connection driver mutates
    ``connections``/``active``/``shed``, the HTTP protocol mutates
    ``requests``/``responses_*``/``bytes_sent``, and the static-file
    handler mutates ``aio_reads`` — so dashboards keep one surface.
    """

    __slots__ = ("connections", "requests", "responses_ok", "responses_err",
                 "bytes_sent", "aio_reads", "active", "shed")

    def __init__(self) -> None:
        self.connections = 0
        self.requests = 0
        self.responses_ok = 0
        self.responses_err = 0
        self.bytes_sent = 0
        self.aio_reads = 0
        #: Currently admitted (open) client connections.
        self.active = 0
        #: Connections refused at the accept queue under the admission cap.
        self.shed = 0


#: :meth:`StaticFileHandler._parse_range` result for a syntactically valid
#: Range that selects no bytes: answer 416 rather than serving anything.
_UNSATISFIABLE = -1


class StaticFileHandler:
    """The paper's application: static files through cache + AIO.

    Implements the :class:`HttpProtocol` handler contract —
    ``respond(request) -> M[HttpResponse]`` — raising
    :class:`~repro.http.message.HttpError` for every failure path.
    Conditional GET: when the filesystem exposes ``mtime(path)`` (real
    docroots do), responses carry ``Last-Modified`` and an
    ``If-Modified-Since`` at or after it answers 304 with no body.
    Single-range requests answer 206 with a ``Content-Range``; a
    syntactically valid but unsatisfiable range answers 416 with
    ``bytes */size``; multi-range and malformed headers are ignored (the
    full 200, as RFC 9110 permits).

    When the filesystem exposes ``open_sendfile(path)`` (real docroots)
    and ``sendfile`` is enabled (the default exactly then), uncached
    files are served as open-file regions: the protocol moves the body
    kernel-to-socket with ``sendfile`` — no AIO reads, no cache
    residency, zero userspace body copies.  Preloaded site entries (and
    anything already cached) still serve from memory.

    The mtime *probe* is real (possibly slow) filesystem I/O through the
    blocking pool — one pool hop per request.  ``mtime_ttl`` bounds that
    cost: probes are cached for that many seconds (default 250 ms), so a
    hot file costs one stat per TTL window instead of one per request,
    trading sub-second staleness of the validator for removing the
    per-request pool hop.  ``mtime_ttl=0`` disables the cache and keeps
    the strict probe-every-request behavior.
    """

    def __init__(
        self,
        fs: SimFileSystem,
        cache: FileCache,
        stats: ServerStats | None = None,
        mtime_ttl: float = 0.25,
        sendfile: bool | None = None,
    ) -> None:
        self.fs = fs
        self.cache = cache
        self.stats = stats if stats is not None else ServerStats()
        self.mtime_ttl = mtime_ttl
        # Sendfile egress: on exactly when the filesystem can hand out
        # open-file regions (real docroots) and the caller did not
        # switch it off; the in-memory site/cache path is unaffected
        # either way.
        self._open_sendfile = getattr(fs, "open_sendfile", None)
        self.sendfile = self._open_sendfile is not None and (
            sendfile is None or bool(sendfile)
        )
        #: Short-TTL probe cache: ``path -> (mtime, fresh_until)``.
        self._mtime_probes: dict[str, tuple[float | None, float]] = {}
        #: mtime each cached entry was loaded at: a changed file on disk
        #: must invalidate the cache, or revalidation would pin a stale
        #: body under a fresh Last-Modified forever.
        self._cached_mtimes: dict[str, float] = {}

    #: Sweep threshold for the validator dict (see ``_load``).
    _MTIME_SWEEP = 4096

    @do
    def respond(self, request: HttpRequest):
        if request.method not in ("GET", "HEAD"):
            raise HttpError(405, request.method)
        path = request.path.lstrip("/")
        mtime = None
        if getattr(self.fs, "mtime", None) is not None:
            mtime = yield self._probe_mtime(path)
        if mtime is not None:
            since = parse_http_date(request.header("if-modified-since"))
            # HTTP dates have one-second resolution: compare whole seconds.
            if since is not None and int(mtime) <= int(since):
                return HttpResponse(
                    304, headers={"Last-Modified": http_date(mtime)}
                )
        if self.sendfile and not self.cache.contains(path):
            response = yield self._respond_sendfile(request, path, mtime)
            if response is not None:
                return response
        # A cache hit is plain code; only a miss (or a body older than
        # the file on disk) pays the nested call.
        content = self.cache.get(path)
        if content is None or (
            mtime is not None and self._cached_mtimes.get(path) != mtime
        ):
            content = yield self._load(path, mtime)
        status, headers, start, stop = self._entity(
            request, mtime, len(content)
        )
        return HttpResponse(status, body=content[start:stop],
                            headers=headers)

    def _entity(self, request, mtime, size):
        """Frame a ``size``-byte file for ``request``, whichever way the
        body will travel: ``(status, headers, start, stop)`` — 200 with
        the whole span, 206 with the satisfiable single range and its
        ``Content-Range``, or 416 with ``bytes */size`` and an empty
        span."""
        headers = {"Content-Type": guess_content_type(request.path)}
        if mtime is not None:
            headers["Last-Modified"] = http_date(mtime)
        span = self._parse_range(request.header("range"), size)
        if span is None:
            return 200, headers, 0, size
        if span == _UNSATISFIABLE:
            headers["Content-Range"] = f"bytes */{size}"
            return 416, headers, 0, 0
        start, stop = span
        headers["Content-Range"] = f"bytes {start}-{stop - 1}/{size}"
        return 206, headers, start, stop

    @do
    def _respond_sendfile(self, request, path, mtime):
        """Serve ``path`` as an open-file region (kernel-to-socket).

        Resumes with a response whose ``file`` is set (the protocol
        sends it with ``sendfile`` and closes it on every exit path), or
        ``None`` when the file does not exist — the caller falls through
        to the cache/AIO path, which raises the 404.
        """
        def open_file():
            try:
                return self._open_sendfile(path)
            except (FileNotFoundError, OSError):
                return None

        # The open + fstat are real filesystem I/O: blocking pool, like
        # every other file operation (§4.6).
        file = yield sys_blio(open_file)
        if file is None:
            return None
        # Plain code from here to the return: no yield means no
        # abandonment window in which the open fd could leak.
        status, headers, start, stop = self._entity(
            request, mtime, file.count
        )
        if status == 416:
            file.close()
            return HttpResponse(416, headers=headers)
        file.offset = start
        file.count = stop - start
        return HttpResponse(status, headers=headers, file=file)

    @staticmethod
    def _parse_range(value: str, size: int):
        """Interpret a ``Range`` header against a ``size``-byte body.

        Returns ``None`` to serve the whole body — absent, malformed, or
        multi-range headers are all ignorable per RFC 9110 §14.2 (a 200
        with the full representation is always a correct answer) —
        ``(start, stop)`` half-open for a satisfiable single range, or
        :data:`_UNSATISFIABLE` for a syntactically valid range that
        selects nothing (the caller answers 416 with ``bytes */size``).
        """
        if not value or not value.startswith("bytes="):
            return None
        spec = value[len("bytes="):].strip()
        if not spec or "," in spec:
            return None
        start_text, dash, end_text = spec.partition("-")
        if not dash:
            return None
        start_text = start_text.strip()
        end_text = end_text.strip()
        if start_text:
            if not (start_text.isascii() and start_text.isdigit()):
                return None
            start = int(start_text)
            if end_text:
                if not (end_text.isascii() and end_text.isdigit()):
                    return None
                if int(end_text) < start:
                    return None
                end = int(end_text)
            else:
                end = size - 1
            if start >= size:
                return _UNSATISFIABLE
            return start, min(end, size - 1) + 1
        # Suffix form ``bytes=-N``: the final N bytes.
        if not (end_text.isascii() and end_text.isdigit()):
            return None
        suffix = int(end_text)
        if suffix == 0:
            return _UNSATISFIABLE
        return max(0, size - suffix), size

    @do
    def _probe_mtime(self, path):
        # The stat is real (possibly slow) filesystem I/O: route it
        # through the blocking pool like every other file operation
        # (§4.6), never inline on the event loop — and within
        # ``mtime_ttl``, don't repeat it at all.  Called only when the
        # filesystem has an ``mtime``.
        probe = self.fs.mtime
        now = None
        if self.mtime_ttl > 0:
            now = yield sys_now()
            cached = self._mtime_probes.get(path)
            if cached is not None and now < cached[1]:
                return cached[0]

        def stat() -> float | None:
            try:
                return probe(path)
            except OSError:
                return None

        mtime = yield sys_blio(stat)
        if self.mtime_ttl > 0:
            if len(self._mtime_probes) > self._MTIME_SWEEP:
                # Drop expired probes so the dict stays proportional to
                # the hot set, not to every path ever requested.
                self._mtime_probes = {
                    probed: entry
                    for probed, entry in self._mtime_probes.items()
                    if now < entry[1]
                }
            self._mtime_probes[path] = (mtime, now + self.mtime_ttl)
        return mtime

    @do
    def _load(self, path, mtime=None):
        # The miss path of ``respond``, which already looked in the cache
        # (one hit or miss counted per request).
        if not self.fs.exists(path):
            raise HttpError(404, path)
        # Open through the blocking pool (§4.6), read via AIO (§4.5).
        handle = yield sys_blio(lambda: self.fs.open(path))
        try:
            chunks = []
            offset = 0
            while True:
                chunk = yield sys_aio_read(handle, offset, READ_CHUNK)
                self.stats.aio_reads += 1
                if not chunk:
                    break
                chunks.append(chunk)
                offset += len(chunk)
        finally:
            yield sys_blio(handle.close)
        content = b"".join(chunks)
        self.cache.put(path, content)
        if mtime is not None:
            self._cached_mtimes[path] = mtime
            if len(self._cached_mtimes) > self._MTIME_SWEEP:
                # The byte-capped FileCache evicts bodies silently; drop
                # validators whose body is gone so this dict stays
                # proportional to the cache, not to every path ever seen.
                self._cached_mtimes = {
                    cached: stamp
                    for cached, stamp in self._cached_mtimes.items()
                    if self.cache.contains(cached)
                }
        return content


class _ResponseAborted(Exception):
    """A response failed after part of it was already on the wire.

    At that point the stream framing is unrecoverable: sending an error
    response would inject header bytes into the middle of a body, so the
    only safe move is to close the connection.
    """


class HttpProtocol:
    """HTTP/1.x as one pluggable application protocol.

    Implements the :class:`~repro.runtime.driver.ConnectionDriver`
    protocol contract (bytes in → replies out; the driver reads and
    closes).  Request handling is delegated to ``handler``
    (``respond(request) -> M[HttpResponse]``); this class owns parsing,
    keep-alive/pipelining, response framing (Content-Length or chunked
    transfer encoding for responses of unknown length), and the
    exception-to-error-response mapping.
    """

    #: Chunked-response coalescing watermark: framed chunks buffer until
    #: at least this many bytes are pending, then leave as one gathered
    #: write.  The terminal chunk always rides the final data flush.
    #: Deliberate tradeoff: a *long-lived incremental* stream (progress
    #: events, long-poll) is withheld until the watermark fills — such
    #: handlers should run with ``chunk_watermark=1`` (every chunk
    #: flushes as produced, the pre-coalescing behavior); the default
    #: optimizes the common short-stream case (one response, one
    #: syscall).
    DEFAULT_CHUNK_WATERMARK = 16 * 1024

    parse_error = HttpParseError

    def __init__(
        self,
        handler: Any,
        stats: ServerStats | None = None,
        max_header_bytes: int | None = None,
        max_body_bytes: int | None = None,
        chunk_watermark: int | None = None,
    ) -> None:
        self.handler = handler
        self.stats = stats if stats is not None else ServerStats()
        self.chunk_watermark = (
            self.DEFAULT_CHUNK_WATERMARK if chunk_watermark is None
            else max(1, chunk_watermark)
        )
        self._parser_kwargs: dict[str, int] = {}
        if max_header_bytes is not None:
            self._parser_kwargs["max_header_bytes"] = max_header_bytes
        if max_body_bytes is not None:
            self._parser_kwargs["max_body_bytes"] = max_body_bytes
        # Validate limits now, not on the first connection.
        self.make_parser()

    def make_parser(self) -> RequestParser:
        return RequestParser(**self._parser_kwargs)

    def shed_payload(self) -> bytes:
        """The driver's overload farewell: a pre-encoded 503."""
        return HttpResponse.for_error(
            HttpError(503, "connection capacity reached"), keep_alive=False
        ).encode()

    @do
    def drain(self, io, conn, parser, bad):
        """Answer every request the bytes so far completed, in order;
        then the parse error ``bad``, if the stream broke after them."""
        stats = self.stats
        while True:
            request = parser.next_request()
            if request is None:
                break
            stats.requests += 1
            keep_alive = request.keep_alive
            try:
                yield self._respond(io, conn, request)
                stats.responses_ok += 1
            except _ResponseAborted:
                return CLOSE  # framing desynced mid-body: just hang up
            except HttpError as error:
                # A 5xx ends the session: say so (``Connection: close``),
                # or a pooled client files the dead socket as reusable.
                fatal = error.status >= 500
                yield self._send_error(io, conn, error,
                                       keep_alive and not fatal)
                if fatal:
                    return DRAIN_CLOSE
            except (ConnectionError, OSError):
                raise  # transport failure: the driver hangs up
            except Exception as error:
                # A buggy handler must be contained as a 500, not
                # tear the connection down with no response (this
                # layer owns exception-to-error-response mapping for
                # *pluggable* handlers, not just well-behaved ones).
                yield self._send_error(
                    io, conn, HttpError(500, type(error).__name__),
                    keep_alive=False,
                )
                return DRAIN_CLOSE
            if not keep_alive:
                return CLOSE
        if bad is not None:
            # Malformed request (431/413/400...): answer, then the
            # fatal drain-close.
            yield self._send_error(
                io, conn, HttpError(bad.status, bad.detail),
                keep_alive=False,
            )
            return DRAIN_CLOSE

    @do
    def _respond(self, io, conn, request):
        response = yield self.handler.respond(request)
        response.headers.setdefault(
            "Connection", "keep-alive" if request.keep_alive else "close"
        )
        if getattr(response, "file", None) is not None:
            yield self._send_file(io, conn, request, response)
            return
        if response.chunks is not None and request.version != "HTTP/1.1":
            # Chunked framing is an HTTP/1.1 construct; a 1.0 client
            # would read the chunk-size lines as body bytes.  Nothing is
            # on the wire yet, so buffering into a Content-Length body
            # is still safe (a failing iterator takes the 500 path).
            response.body = b"".join(response.chunks)
            response.chunks = None
        if response.chunks is not None:
            yield self._send_chunked(io, conn, request, response)
            return
        header = response.header_block()
        if request.method == "HEAD":
            yield io.write_all_v(conn, [header])
            self.stats.bytes_sent += len(header)
            return
        # Header + body as one gathered write: one syscall, and the two
        # buffers are never concatenated in the application.
        if response.body:
            bufs = [header, response.body]
        else:
            bufs = [header]
        yield io.write_all_v(conn, bufs)
        self.stats.bytes_sent += len(header) + len(response.body)

    @do
    def _send_file(self, io, conn, request, response):
        """Send a file-region response: header from userspace, body
        through the transport's ``sendfile`` (kernel-to-socket where
        there is a kernel; it never transits this class either way).

        The open file is closed on every exit path — close is plain
        code, so the ``finally`` is safe even under abandonment
        (GeneratorExit).
        """
        file = response.file
        try:
            header = response.header_block()
            yield io.write_all_v(conn, [header])
            self.stats.bytes_sent += len(header)
            if request.method == "HEAD" or file.count == 0:
                return
            sent = yield io.sendfile(conn, file, file.offset, file.count)
            self.stats.bytes_sent += sent
        finally:
            file.close()

    @do
    def _send_chunked(self, io, conn, request, response):
        # Unknown total length: frame each element as one chunk, but
        # coalesce the wire writes — the header and framed chunks buffer
        # until ``chunk_watermark`` bytes are pending, then leave as one
        # gathered write.  A small chunked response (the common KV-stats
        # case) is therefore ONE syscall: header + every chunk + the
        # terminal chunk, which always rides the final data flush
        # instead of paying its own write.
        header = response.header_block()
        if request.method == "HEAD":
            yield io.write_all_v(conn, [header])
            self.stats.bytes_sent += len(header)
            return
        pending: list[bytes] = [header]
        pending_bytes = len(header)
        chunks = iter(response.chunks)
        while True:
            try:
                chunk = next(chunks)
                framed = encode_chunk(chunk)  # a non-bytes chunk raises
            except StopIteration:
                break
            except Exception as exc:
                # The 200 header is committed (and possibly partly on
                # the wire): flush what the stream produced, then hang
                # up — an error response here would corrupt the chunk
                # framing mid-body.
                if pending:
                    yield io.write_all_v(conn, pending)
                    self.stats.bytes_sent += pending_bytes
                raise _ResponseAborted(repr(exc)) from exc
            if framed:
                pending.append(framed)
                pending_bytes += len(framed)
            if pending_bytes >= self.chunk_watermark:
                bufs, pending, pending_bytes = pending, [], 0
                yield io.write_all_v(conn, bufs)
                self.stats.bytes_sent += sum(len(buf) for buf in bufs)
        pending.append(LAST_CHUNK)
        yield io.write_all_v(conn, pending)
        self.stats.bytes_sent += pending_bytes + len(LAST_CHUNK)

    @do
    def _send_error(self, io, conn, error, keep_alive):
        response = HttpResponse.for_error(error, keep_alive)
        header = response.header_block()
        yield io.write_all_v(conn, [header, response.body])
        self.stats.responses_err += 1
        self.stats.bytes_sent += len(header) + len(response.body)


class WebServer(ConnectionDriver):
    """The HTTP server: a connection driver whose protocol is
    :class:`HttpProtocol` over a request handler.

    With the default ``handler`` this is the paper's static-file server;
    pass any object with ``respond(request) -> M[HttpResponse]`` to serve
    a different application (e.g. the KV store's HTTP facade) through the
    same driver and protocol.  ``io`` is the transport (``rt.io`` or a
    ``TcpSockets``) and ``listener`` what it listens on; ``accept_batch``
    caps how many connections one wakeup drains, ``max_connections`` is
    the admission cap (503 beyond it), ``max_header_bytes``/
    ``max_body_bytes`` bound per-connection parser memory (431/413),
    ``mtime_ttl`` bounds the conditional-GET stat cost (0 probes every
    request), ``chunk_watermark`` is the framed-chunk bytes buffered
    before a chunked response flushes, and ``sendfile`` switches the
    static handler's kernel-to-socket egress off (default: on exactly
    when ``fs`` can hand out real fds).
    """

    def __init__(
        self,
        io: Any,
        listener: Any,
        fs: SimFileSystem,
        cache_bytes: int = 100 * 1024 * 1024,
        name: str = "webserver",
        accept_batch: int = 64,
        max_connections: int | None = None,
        handler: Any = None,
        max_header_bytes: int | None = None,
        max_body_bytes: int | None = None,
        mtime_ttl: float = 0.25,
        chunk_watermark: int | None = None,
        sendfile: bool | None = None,
    ) -> None:
        self.cache = FileCache(cache_bytes)
        stats = ServerStats()
        if handler is None:
            handler = StaticFileHandler(
                fs, self.cache, stats=stats,
                mtime_ttl=mtime_ttl, sendfile=sendfile,
            )
        protocol = HttpProtocol(
            handler,
            stats=stats,
            max_header_bytes=max_header_bytes,
            max_body_bytes=max_body_bytes,
            chunk_watermark=chunk_watermark,
        )
        super().__init__(
            io,
            listener,
            protocol,
            accept_batch=accept_batch,
            max_connections=max_connections,
            stats=stats,
            name=name,
        )


# ----------------------------------------------------------------------
# Live serving: real files and a reusable construction entry point.
# ----------------------------------------------------------------------
class _DocRootHandle(str):
    """An open-file handle for the real filesystem: just the path.

    The live runtime's AIO handlers open the file per operation (the
    paper's fallback path for AIO without a native interface), so the
    handle needs no kernel state — only a ``close`` to satisfy the
    server's ``finally`` block.
    """

    __slots__ = ()

    def close(self) -> None:
        pass


class DocRootFilesystem:
    """A real directory presented through the server's filesystem surface.

    Paths are resolved under ``root``; anything escaping it — ``..``
    traversal or a symlink pointing outside — is treated as nonexistent,
    so the server answers 404 rather than leaking files.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.realpath(root)

    def _resolve(self, path: str) -> str | None:
        full = os.path.realpath(os.path.join(self.root, path.lstrip("/")))
        if full != self.root and not full.startswith(self.root + os.sep):
            return None
        return full

    def exists(self, path: str) -> bool:
        full = self._resolve(path)
        return full is not None and os.path.isfile(full)

    def open(self, path: str) -> _DocRootHandle:
        full = self._resolve(path)
        if full is None or not os.path.isfile(full):
            raise FileNotFoundError(path)
        return _DocRootHandle(full)

    def mtime(self, path: str) -> float | None:
        """Last-modified time (epoch seconds), or None if nonexistent.

        Drives conditional GET: the static handler emits ``Last-Modified``
        and answers ``If-Modified-Since`` with 304 from this value.
        """
        full = self._resolve(path)
        if full is None or not os.path.isfile(full):
            return None
        return os.path.getmtime(full)

    def open_sendfile(self, path: str) -> FileBody:
        """Open ``path`` as a real fd wrapped for kernel-to-socket egress.

        The returned :class:`~repro.runtime.io_api.FileBody` spans the
        whole file; callers narrow ``offset``/``count`` for ranges and
        must ``close()`` it (idempotent plain code).
        """
        full = self._resolve(path)
        if full is None or not os.path.isfile(full):
            raise FileNotFoundError(path)
        fd = os.open(full, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
        except OSError:
            os.close(fd)
            raise
        return FileBody(
            fd, size,
            pread=lambda offset, nbytes: os.pread(fd, nbytes, offset),
            close=lambda: os.close(fd),
        )


class EmptyFilesystem:
    """No files at all — for servers whose site lives in the cache (or
    whose handler serves no files, like the KV facade)."""

    def exists(self, path: str) -> bool:
        return False

    def open(self, path: str):
        raise FileNotFoundError(path)


def build_live_server(
    rt: Any,
    listener: Any,
    site: dict[str, bytes] | None = None,
    docroot: str | None = None,
    **server_kwargs: Any,
) -> WebServer:
    """Construct a :class:`WebServer` serving real sockets on ``rt``.

    This is the entry point cluster shards and examples parameterize: an
    existing listener (possibly one ``SO_REUSEPORT`` member of a shared
    port), plus content from a real ``docroot`` directory and/or an
    in-memory ``site`` mapping preloaded into the application cache.
    Extra keyword arguments reach :class:`WebServer` (admission caps,
    parser limits, ``handler``...).  Ingress reads lease their buffers
    from the runtime's shared pool (``rt.buffers``).
    """
    fs: Any = DocRootFilesystem(docroot) if docroot else EmptyFilesystem()
    server = WebServer(rt.io, listener, fs, **server_kwargs)
    for path, content in (site or {}).items():
        server.cache.put(path.lstrip("/"), content)
    return server
