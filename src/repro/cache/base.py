"""Shared machinery for the cache wire protocols (memcache text, RESP).

Both protocols are the same shape: a push-based byte-boundary-safe
parser turns ingress bytes into commands, each command executes against
a key-value store (duck-typed: ``get``/``put``/``delete``/``mget``
returning :class:`~repro.core.monad.M`, i.e. a :class:`~repro.app.kv
.KvNode`), and every reply produced by one ingress read leaves as **one**
gathered write — a pipelined batch of N commands costs one egress
syscall, the same fast path PR-5 built for HTTP responses.

**The batch is planned, not just executed.**  One ingress read hands
:meth:`CacheProtocolBase.drain` a whole pipelined burst, and a
request's cost in this stack is counted in mesh round trips, so
``drain`` splits the burst into maximal *runs* of same-class commands
(each dialect's :meth:`~CacheProtocolBase.classify` names the class and
the keys) and spends one round per run instead of one per command:

* a run of consecutive :data:`READ` commands costs **one**
  ``store.mget`` over the de-duplicated union of their keys (first-seen
  order, at most :data:`MAX_READ_KEYS`); each command then formats its
  own reply from that one result.  ``store.mget`` is called here and
  nowhere else in the package;
* a run of consecutive :data:`KEYED` commands whose key sets are
  pairwise disjoint (at most :data:`MAX_OVERLAP`) executes
  concurrently, each command on its own monadic thread into its own
  reply list, the last one on the session thread;
* a :data:`BARRIER` (anything that is neither) runs alone.

A class change, a repeated key, a barrier or a cap ends a run, so the
guarantees are those of strictly serial execution: replies leave in
command order, two commands that touch the same key never overlap or
reorder (``set k`` then ``get k`` in one burst reads the new value),
and a single command is simply the run-of-one case of the same loop.
What is *not* promised, and never was: an order between this
connection's commands on different keys as seen by *other* connections.

The session mirrors :class:`~repro.http.server.HttpProtocol` on the
shared :class:`~repro.runtime.driver.ConnectionDriver` (which reads and
closes): store-level failures become in-band error replies on a
connection that stays up; parse-level failures are fatal (the stream may
be desynced, so the only safe move is an error line and a drain-close).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from ..core.do_notation import do
from ..core.monad import M
from ..core.thread import join_all, spawn
from ..runtime.driver import CLOSE, DRAIN_CLOSE

__all__ = ["CacheStats", "CacheParseError", "CacheParser",
           "CacheProtocolBase", "READ", "KEYED", "BARRIER",
           "MAX_READ_KEYS", "MAX_OVERLAP"]

#: Command classes (what :meth:`CacheProtocolBase.classify` answers).
#: READ: served from one ``store.mget`` of its keys, coalesces with its
#: neighbours.  KEYED: touches exactly its keys through any other store
#: op, overlaps with key-disjoint neighbours.  BARRIER: runs alone.
READ = "read"
KEYED = "keyed"
BARRIER = "barrier"

#: Most distinct keys one coalesced read carries.  256 keys of at most
#: 250 bytes keep the ``mget`` *request* a mesh peer receives under one
#: 64 KiB ``FrameReader`` read; the reply is bounded where its bytes are
#: made (``MeshNode._enqueue`` refuses a frame above ``max_frame``, and
#: a refused coalesced read falls back to one read per command).
MAX_READ_KEYS = 256

#: Most keyed commands of one burst in flight at once: one monadic
#: thread and up to ``replication`` mesh frames each.  16 keeps a
#: connection's burst well under the mesh's per-link ``max_inflight``
#: (128 parked handlers), so one pipelining client cannot push a peer's
#: reader to the cap, where a parked handler keeps the reading and the
#: link stops pulling frames.
MAX_OVERLAP = 16


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
        self._commands: deque = deque()

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
            return self._commands.popleft()
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
    ``classify(command) -> (class, keys)``
        Plain code: :data:`READ`, :data:`KEYED` or :data:`BARRIER`, and
        the store keys the command touches (empty for a barrier).  This
        is all the batch plan in :meth:`drain` knows about a dialect.
    ``execute(command, out, values=None) -> M[bool]``
        Run one command against ``self.store``, appending reply buffers
        to ``out``; resolve to True to close the connection (quit).
        Must bump ``stats.responses`` once per reply frame appended.
        ``values`` is what :meth:`drain` already read for a READ
        command — ``{key: value-or-None}``, or the exception the read
        raised; without it the command reads its own keys through
        :meth:`_read`.  Only a barrier may resolve to True.
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

    def classify(self, command: Any) -> tuple[str, Any]:
        raise NotImplementedError

    def execute(self, command: Any, out: list, values: Any = None) -> M:
        raise NotImplementedError

    def shed_payload(self) -> bytes:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @do
    def drain(self, io, conn, parser, bad):
        """Execute everything this read completed, one store round per
        run (module docstring); all replies (and the farewell for a
        parse error ``bad``) leave as one gathered write."""
        stats = self.stats
        out: list = []
        frames_before = stats.responses
        closing = False
        for kind, run, union in self._runs(parser):
            stats.commands += len(run)
            if kind == READ:
                values = yield self._read(list(union))
                if len(run) > 1 and isinstance(values, Exception):
                    # Failure isolation no worse than serial: every
                    # command reads its own keys, answers its own outcome.
                    values = None
                for command in run:
                    yield self.execute(command, out, values)
                continue
            # Keyed and key-disjoint (or a barrier, alone): every command
            # but the last on a thread of its own, into its own replies.
            outs: list[list] = [[] for _ in run]
            handles = []
            for command, own in zip(run[:-1], outs):
                handle = yield spawn(self._contained(command, own),
                                     name="cache-overlap")
                handles.append(handle)
            last = yield self._contained(run[-1], outs[-1])
            outcomes = yield join_all(handles)
            outcomes.append(last)
            for own, outcome in zip(outs, outcomes):
                if isinstance(outcome, Exception):
                    raise outcome  # the first in command order, as serial
                out += own
            closing = last  # only a barrier, alone in its run, closes
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
            sent = yield io.write_all_v(conn, out)
            stats.bytes_sent += sent
        if closing:
            return CLOSE  # quit: whatever followed it is not ours
        if bad is not None:
            # Drain-close: unread pipelined bytes would turn a straight
            # close into an RST that eats the reply.
            return DRAIN_CLOSE

    def _runs(self, parser) -> Iterator[tuple[str, list, dict]]:
        """Split what ``parser`` holds into maximal runs: ``(class,
        commands, union of their keys in first-seen order)``.

        Plain generator, popping lazily: the command that ended a run
        is held to start the next, and nothing is popped past a barrier
        until the caller comes back for more — after ``quit`` it never
        does, so what followed is neither executed nor counted.
        """
        held = None
        while True:
            if held is None:
                command = parser.next_command()
                if command is None:
                    return
                held = (command, *self.classify(command))
            command, kind, keys = held
            held = None
            run = [command]
            union = dict.fromkeys(keys)
            while kind != BARRIER:
                command = parser.next_command()
                if command is None:
                    break
                next_kind, keys = self.classify(command)
                if next_kind != kind:
                    joins = False
                elif kind == READ:
                    fresh = set(keys) - union.keys()
                    joins = len(union) + len(fresh) <= MAX_READ_KEYS
                else:
                    joins = (len(run) < MAX_OVERLAP
                             and union.keys().isdisjoint(keys))
                if not joins:
                    held = (command, next_kind, keys)
                    break
                run.append(command)
                union.update(dict.fromkeys(keys))
            yield kind, run, union

    @do
    def _read(self, keys):
        """The package's one ``store.mget``.  A store failure resumes as
        a *value* (the exception): the command it belongs to answers it
        in-band and the connection stays up."""
        try:
            values = yield self.store.mget(keys)
        except Exception as exc:
            return exc
        return values

    @do
    def _contained(self, command, out):
        """``execute`` with an escaping exception resumed as a value, so
        one raised on a spawned thread reaches the session thread (which
        re-raises it in command order) instead of the scheduler's
        uncaught policy.  No cleanup clause: an abandoned thread
        (``GeneratorExit``) must not issue a monadic call."""
        try:
            closing = yield self.execute(command, out)
        except Exception as exc:
            return exc
        return closing

    # -- shared executor helpers ---------------------------------------
    @staticmethod
    def _describe(exc: BaseException) -> str:
        text = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        return text.replace("\r", " ").replace("\n", " ")
