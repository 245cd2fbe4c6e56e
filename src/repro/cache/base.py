"""Shared machinery for the cache wire protocols (memcache text, RESP).

Both protocols are the same shape: a push-based byte-boundary-safe
parser turns ingress bytes into commands, each command executes against
a key-value store (duck-typed: ``get``/``put``/``delete``/``mget``
returning :class:`~repro.core.monad.M`, i.e. a :class:`~repro.app.kv
.KvNode`), and every reply produced by one ingress read leaves as **one**
gathered write — a pipelined batch of N commands costs one egress
syscall, the same fast path PR-5 built for HTTP responses.

The session mirrors :class:`~repro.http.server.HttpProtocol` on the
shared :class:`~repro.runtime.driver.ConnectionDriver` (which reads and
closes): store-level failures become in-band error replies on a
connection that stays up; parse-level failures are fatal (the stream may
be desynced, so the only safe move is an error line and a drain-close).
"""

from __future__ import annotations

from typing import Any

from ..core.do_notation import do
from ..core.monad import M
from ..runtime.driver import CLOSE, DRAIN_CLOSE

__all__ = ["CacheStats", "CacheParseError", "CacheParser",
           "CacheProtocolBase"]


class CacheParseError(ValueError):
    """Unrecoverable wire-level error; carries the farewell reply.

    Raised by the parsers only when the stream can no longer be framed
    (bad data-chunk terminator, unbounded line, oversized value) — the
    protocol answers with ``reply`` and drain-closes.  Recoverable
    mistakes (unknown command, bad key) never raise; they surface as
    error *commands* the executor answers in-band.
    """

    def __init__(self, reply: bytes, detail: str = "") -> None:
        super().__init__(detail or reply.decode("latin-1").strip())
        self.reply = reply


class CacheParser:
    """The push-parser shell both dialects share: feed bytes, pop
    commands.  Subclasses implement ``_advance() -> bool`` over
    ``_buffer``, appending to ``_commands``."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._commands: list = []

    def feed(self, data, length: int | None = None) -> None:
        """Add received bytes; ``length`` bounds the valid prefix (pooled
        receive buffers are larger than the bytes received)."""
        if length is None:
            self._buffer.extend(data)
        else:
            self._buffer.extend(memoryview(data)[:length])
        while self._advance():
            pass

    def next_command(self) -> Any:
        if self._commands:
            return self._commands.pop(0)
        return None

    @property
    def buffered(self) -> int:
        return len(self._buffer)


class CacheStats:
    """One counter surface shared by the driver and the protocol.

    The first three fields satisfy the :class:`~repro.runtime.driver
    .ConnectionDriver` stats contract; the rest are protocol-level.
    ``send_batches`` vs ``responses`` is the egress-batching evidence:
    ``responses / send_batches > 1`` means pipelined replies are riding
    shared gathered writes rather than paying a syscall each.
    """

    __slots__ = (
        "connections", "active", "shed",
        "commands", "responses", "errors", "bytes_sent",
        "send_batches", "pipelined_batches", "max_responses_per_batch",
        "get_hits", "get_misses", "sets", "deletes",
    )

    def __init__(self) -> None:
        self.connections = 0
        self.active = 0
        self.shed = 0
        #: Commands parsed and executed (including error replies).
        self.commands = 0
        #: Reply frames produced (a multi-key ``get`` is one frame).
        self.responses = 0
        #: In-band error replies (connection survived).
        self.errors = 0
        self.bytes_sent = 0
        #: Gathered writes issued (one per ingress read with replies).
        self.send_batches = 0
        #: Batches that carried more than one reply frame.
        self.pipelined_batches = 0
        self.max_responses_per_batch = 0
        self.get_hits = 0
        self.get_misses = 0
        self.sets = 0
        self.deletes = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class CacheProtocolBase:
    """The common reply loop; subclasses supply parser and executor.

    Subclass contract:

    ``make_parser()``
        A fresh per-connection parser with ``feed(bytes)`` (may raise
        :class:`CacheParseError`) and ``next_command()``.
    ``execute(command, out) -> M[bool]``
        Run one command against ``self.store``, appending reply buffers
        to ``out``; resolve to True to close the connection (quit).
        Must bump ``stats.responses`` once per reply frame appended.
    ``shed_payload() -> bytes``
        The driver's admission-cap farewell.
    """

    parse_error = CacheParseError

    def __init__(self, store: Any, stats: CacheStats | None = None) -> None:
        self.store = store
        self.stats = stats if stats is not None else CacheStats()

    # -- subclass hooks ------------------------------------------------
    def make_parser(self) -> Any:
        raise NotImplementedError

    def execute(self, command: Any, out: list) -> M:
        raise NotImplementedError

    def shed_payload(self) -> bytes:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @do
    def drain(self, layer, conn, parser, bad):
        """Execute everything this read completed; all replies (and the
        farewell for a parse error ``bad``) leave as one gathered write."""
        stats = self.stats
        out: list = []
        frames_before = stats.responses
        closing = False
        while True:
            command = parser.next_command()
            if command is None:
                break
            stats.commands += 1
            closing = yield self.execute(command, out)
            if closing:
                break
        if out:
            frames = stats.responses - frames_before
            stats.send_batches += 1
            if frames > 1:
                stats.pipelined_batches += 1
            if frames > stats.max_responses_per_batch:
                stats.max_responses_per_batch = frames
        if bad is not None and not closing:
            stats.errors += 1
            out.append(bad.reply)
        if out:
            yield layer.send_v(conn, out)
            stats.bytes_sent += sum(len(buf) for buf in out)
        if closing:
            return CLOSE  # quit: whatever followed it is not ours
        if bad is not None:
            # Drain-close: unread pipelined bytes would turn a straight
            # close into an RST that eats the reply.
            return DRAIN_CLOSE

    # -- shared executor helpers ---------------------------------------
    @staticmethod
    def _describe(exc: BaseException) -> str:
        text = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        return text.replace("\r", " ").replace("\n", " ")
