"""The memcache text protocol as a pluggable connection-driver protocol.

Speaks the classic memcached ASCII protocol — ``get``/``gets`` (multi-
key), ``set``, ``delete``, ``stats``, ``version``, ``quit``, with
``noreply`` — over any monadic KV store, so an off-the-shelf memcache
client can talk to the replicated cluster: any shard answers any key via
the store's owner routing.

For the batch plan in :meth:`~repro.cache.base.CacheProtocolBase.drain`
``get``/``gets`` are *reads* (consecutive ones share one store ``mget``
and each formats its reply — flags, lazy expiry, cas token, hit/miss
counters — from that one result), ``set``/``delete`` are *keyed*
(key-disjoint neighbours overlap), and everything else — ``stats``,
``version``, ``quit``, unsupported and line-error tuples — is a barrier.

Fidelity notes (documented, deliberate):

* ``flags`` are stored (shard-locally, beside the raw value bytes the
  HTTP and RESP facades share) and echoed back on ``get`` — a client
  that serializes via flags round-trips them through this front-end.
  The metadata is per-protocol-instance, not replicated: a key written
  through one shard's memcache listener and read through another's
  echoes flags ``0``.
* ``exptime`` is honored through the runtime's shared timer wheel
  (``timers=``): the classic wire convention — values up to 30 days
  are relative seconds, larger ones absolute unix timestamps, ``0``
  never expires — arms one timer per expiring key, and a ``get``
  racing the sweep checks the deadline lazily so an expired value is
  never served.  Without a wheel, ``exptime`` degrades to the old
  accepted-and-ignored behavior.
* ``gets`` needs a cas token that changes with the value; it is derived
  as CRC32 of the value bytes (``cas`` itself is not implemented, so
  the token is informational).
* Storage commands other than ``set`` (``add``/``replace``/``append``/
  ``prepend``/``cas``) have check-and-set semantics the replicated
  store does not promise; their data block is consumed (keeping the
  stream framed) and the reply is ``ERROR``.
"""

from __future__ import annotations

import time
import zlib

from ..core.do_notation import do
from ..core.syscalls import sys_now
from .base import (BARRIER, KEYED, READ, CacheParseError, CacheParser,
                   CacheProtocolBase, CacheStats)

__all__ = ["MemcacheParser", "MemcacheProtocol"]

_MAX_LINE_BYTES = 8 * 1024
_MAX_KEY_BYTES = 250
_MAX_VALUE_BYTES = 1 * 1024 * 1024

#: Commands framed as <command line> + <data block>.
_STORAGE = (b"set", b"add", b"replace", b"append", b"prepend", b"cas")
#: Line-only commands safely answered with ERROR when unimplemented.
_LINE_ONLY_UNSUPPORTED = (b"incr", b"decr", b"touch", b"flush_all",
                          b"verbosity", b"gat", b"gats")

_ERROR = b"ERROR\r\n"


#: The protocol's key alphabet: printable ASCII, no whitespace.
_KEY_ALPHABET = bytes(range(0x21, 0x7F))


def _digits(field: bytes) -> bool:
    # bytes.isdigit: ASCII digits only, and False when empty.
    return field.isdigit()


def _valid_key(key: bytes) -> bool:
    # One C-level pass: deleting the alphabet must leave nothing.
    return (0 < len(key) <= _MAX_KEY_BYTES
            and not key.translate(None, _KEY_ALPHABET))


class MemcacheParser(CacheParser):
    """Push parser: feed bytes, pop command tuples.

    Byte-boundary safe (the property test feeds every split).  Commands
    come out as tuples tagged by kind::

        ("get", [key, ...], with_cas)
        ("set", key, flags, exptime, noreply, value)
        ("delete", key, noreply)
        ("stats",) / ("version",) / ("quit",)
        ("unsupported", name, noreply)   # framed-safe, answer ERROR
        ("error", reply_bytes)           # recoverable line-level mistake

    Keys are decoded to ``str`` (validated printable ASCII) so they hit
    the same store keyspace as the HTTP facade.  Only errors that desync
    the stream raise :class:`CacheParseError`; a mistake confined to one
    fully-consumed command becomes an ``("error", ...)`` tuple.
    """

    def __init__(self, max_value_bytes: int = _MAX_VALUE_BYTES) -> None:
        super().__init__()
        self.max_value_bytes = max_value_bytes
        #: When mid data-block: (command-or-None, error-reply, size, noreply)
        self._pending: tuple | None = None

    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        if self._pending is not None:
            return self._advance_data()
        return self._advance_line()

    def _advance_line(self) -> bool:
        line_end = self._buffer.find(b"\r\n")
        if line_end < 0:
            if len(self._buffer) > _MAX_LINE_BYTES:
                raise CacheParseError(
                    b"CLIENT_ERROR command line too long\r\n"
                )
            return False
        line = bytes(self._buffer[:line_end])
        del self._buffer[:line_end + 2]
        parts = line.split()
        if not parts:
            self._commands.append(("error", _ERROR))
            return True
        name = parts[0]
        if name in _STORAGE:
            self._begin_storage(name, parts)
        elif name in (b"get", b"gets"):
            self._parse_get(name, parts)
        elif name == b"delete":
            self._parse_delete(parts)
        elif name == b"stats":
            self._commands.append(("stats",))
        elif name == b"version":
            self._commands.append(("version",))
        elif name == b"quit":
            self._commands.append(("quit",))
        elif name in _LINE_ONLY_UNSUPPORTED:
            noreply = parts[-1] == b"noreply"
            self._commands.append(
                ("unsupported", name.decode("ascii"), noreply)
            )
        else:
            # Unknown verb: no way to know whether a data block follows.
            # Replying ERROR and hoping is how desyncs start; hang up.
            raise CacheParseError(_ERROR, f"unknown command {name!r}")
        return True

    def _parse_get(self, name: bytes, parts: list[bytes]) -> None:
        keys = parts[1:]
        if not keys:
            self._commands.append(("error", _ERROR))
            return
        if not all(_valid_key(key) for key in keys):
            self._commands.append(("error", b"CLIENT_ERROR bad key\r\n"))
            return
        self._commands.append(
            ("get", [key.decode("ascii") for key in keys], name == b"gets")
        )

    def _parse_delete(self, parts: list[bytes]) -> None:
        noreply = parts[-1] == b"noreply"
        args = parts[1:-1] if noreply else parts[1:]
        # Tolerate the legacy numeric delay argument ("delete key 0").
        if len(args) == 2 and _digits(args[1]):
            args = args[:1]
        if len(args) != 1 or not _valid_key(args[0]):
            self._commands.append(("error", b"CLIENT_ERROR bad delete\r\n"))
            return
        self._commands.append(("delete", args[0].decode("ascii"), noreply))

    def _begin_storage(self, name: bytes, parts: list[bytes]) -> None:
        noreply = parts[-1] == b"noreply"
        fields = parts[:-1] if noreply else parts
        want = 6 if name == b"cas" else 5  # name key flags exptime bytes [cas]
        if len(fields) != want or not _digits(fields[4]):
            # The data-block length is unknowable: the stream cannot be
            # re-framed, so this one is fatal.
            raise CacheParseError(
                b"CLIENT_ERROR bad command line format\r\n"
            )
        size = int(fields[4])
        if size > self.max_value_bytes:
            raise CacheParseError(
                b"SERVER_ERROR object too large for cache\r\n"
            )
        key, flags, exptime = fields[1], fields[2], fields[3]
        command = None
        error = None
        if not _valid_key(key):
            error = b"CLIENT_ERROR bad key\r\n"
        elif name != b"set":
            command = ("unsupported", name.decode("ascii"), noreply)
        elif not _digits(flags) or not _digits(exptime):
            error = b"CLIENT_ERROR bad command line format\r\n"
        else:
            command = ("set", key.decode("ascii"), int(flags),
                       int(exptime), noreply)
        self._pending = (command, error, size, noreply)

    def _advance_data(self) -> bool:
        command, error, size, noreply = self._pending
        if len(self._buffer) < size + 2:
            return False
        if bytes(self._buffer[size:size + 2]) != b"\r\n":
            raise CacheParseError(b"CLIENT_ERROR bad data chunk\r\n")
        value = bytes(self._buffer[:size])
        del self._buffer[:size + 2]
        self._pending = None
        if error is not None:
            # The mistake was confined to one consumed command: report
            # in-band (unless noreply) and keep the connection.
            if not noreply:
                self._commands.append(("error", error))
        elif command[0] == "set":
            self._commands.append(command + (value,))
        else:
            self._commands.append(command)
        return True


#: The memcached wire convention: an exptime beyond 30 days is an
#: absolute unix timestamp, not a relative offset.
_RELATIVE_EXPTIME_MAX = 60 * 60 * 24 * 30


class MemcacheProtocol(CacheProtocolBase):
    """Executor: memcache commands against the monadic store.

    ``timers`` (a :class:`~repro.runtime.timer_wheel.TimerWheel`)
    enables ``exptime``: each expiring set arms one wheel entry whose
    action forks a best-effort store delete; re-set and delete cancel
    it.  Key metadata (flags, expiry deadline) lives in a shard-local
    dict bounded to keys that *have* non-default metadata — a set with
    flags 0 and no expiry stores nothing extra.
    """

    def __init__(self, store, stats: CacheStats | None = None,
                 max_value_bytes: int = _MAX_VALUE_BYTES,
                 timers=None) -> None:
        super().__init__(store, stats)
        self.max_value_bytes = max_value_bytes
        self.timers = timers
        #: key -> (flags, deadline_or_None); deadline is on the
        #: runtime clock (``sys_now``), checked lazily on get.
        self._meta: dict[str, tuple[int, float | None]] = {}
        #: key -> armed TimerHandle for the pending expiry sweep.
        self._expiry: dict[str, object] = {}

    def make_parser(self) -> MemcacheParser:
        return MemcacheParser(max_value_bytes=self.max_value_bytes)

    def shed_payload(self) -> bytes:
        return b"SERVER_ERROR connection capacity reached\r\n"

    def classify(self, command):
        kind = command[0]
        if kind == "get":
            return READ, command[1]
        if kind in ("set", "delete"):
            return KEYED, (command[1],)
        return BARRIER, ()

    @do
    def execute(self, command, out, values=None):
        stats = self.stats
        kind = command[0]
        if kind == "get":
            _, keys, with_cas = command
            if values is None:
                values = yield self._read(keys)
            if isinstance(values, Exception):
                self._server_error(out, values)
                return False
            now = None
            for key in keys:
                value = values.get(key)
                flags = 0
                if value is not None:
                    meta = self._meta.get(key)
                    if meta is not None:
                        flags, deadline = meta
                        if deadline is not None:
                            # Lazy expiry: a get racing the wheel's
                            # sweep must not serve a dead value.
                            if now is None:
                                now = yield sys_now()
                            if now >= deadline:
                                value = None
                if value is None:
                    stats.get_misses += 1
                    continue
                stats.get_hits += 1
                encoded = key.encode("ascii")
                if with_cas:
                    head = b"VALUE %s %d %d %d\r\n" % (
                        encoded, flags, len(value), zlib.crc32(value)
                    )
                else:
                    head = b"VALUE %s %d %d\r\n" % (
                        encoded, flags, len(value)
                    )
                out += [head, value, b"\r\n"]
            out.append(b"END\r\n")
            stats.responses += 1
            return False
        if kind == "set":
            _, key, flags, exptime, noreply, value = command
            try:
                yield self.store.put(key, value)
            except Exception as exc:
                if not noreply:
                    self._server_error(out, exc)
                return False
            stats.sets += 1
            yield self._remember_meta(key, flags, exptime)
            if not noreply:
                out.append(b"STORED\r\n")
                stats.responses += 1
            return False
        if kind == "delete":
            _, key, noreply = command
            self._forget_meta(key)
            try:
                deleted, _value, _proxied = yield self.store.delete(key)
            except Exception as exc:
                if not noreply:
                    self._server_error(out, exc)
                return False
            if deleted:
                stats.deletes += 1
            if not noreply:
                out.append(b"DELETED\r\n" if deleted else b"NOT_FOUND\r\n")
                stats.responses += 1
            return False
        if kind == "stats":
            counters = dict(self.store.extra_stats())
            counters.update(stats.as_dict())
            for name, value in sorted(counters.items()):
                out.append(b"STAT %s %d\r\n" % (name.encode("ascii"), value))
            out.append(b"END\r\n")
            stats.responses += 1
            return False
        if kind == "version":
            out.append(b"VERSION repro-kv/0.6\r\n")
            stats.responses += 1
            return False
        if kind == "quit":
            return True
        if kind == "unsupported":
            _, _name, noreply = command
            if not noreply:
                out.append(_ERROR)
                stats.responses += 1
                stats.errors += 1
            return False
        # ("error", reply): recoverable line-level mistake.
        out.append(command[1])
        stats.responses += 1
        stats.errors += 1
        return False

    # -- key metadata (flags + expiry) ---------------------------------
    def _forget_meta(self, key: str) -> None:
        """Plain code: drop metadata and disarm any pending expiry."""
        handle = self._expiry.pop(key, None)
        if handle is not None:
            handle.cancel()
        self._meta.pop(key, None)

    @do
    def _remember_meta(self, key, flags, exptime):
        """Record a set's flags and arm its expiry, superseding any
        previous metadata for the key."""
        self._forget_meta(key)
        if exptime <= 0 or self.timers is None:
            # No expiry (or no wheel: exptime degrades to "never", the
            # documented fallback).  Keep the dict bounded to keys with
            # non-default metadata.
            if flags:
                self._meta[key] = (flags, None)
            return
        delay = (float(exptime) if exptime <= _RELATIVE_EXPTIME_MAX
                 else exptime - time.time())
        if delay <= 0:
            # An absolute exptime already in the past: memcached treats
            # the value as immediately expired.
            yield self._expire(key)
            return
        now = yield sys_now()
        self._meta[key] = (flags, now + delay)
        armed: list = []

        def sweep():
            # ``armed`` fills right after schedule() resumes; a sweep
            # racing that window, or one superseded by a later
            # set/delete, must stand down.
            if not armed or self._expiry.get(key) is not armed[0]:
                return None
            self._forget_meta(key)
            # The delete may route to the key's owner over the mesh;
            # a monadic action runs on its own thread.
            return self._expire(key)

        handle = yield self.timers.schedule(delay, sweep)
        armed.append(handle)
        self._expiry[key] = handle

    @do
    def _expire(self, key):
        # Best-effort: the lazy deadline check on get already hides the
        # value, so a failed sweep (owner down, mesh hiccup) only costs
        # memory until the next successful write/delete.
        try:
            yield self.store.delete(key)
        except Exception:
            pass

    def _server_error(self, out, exc: BaseException) -> None:
        out.append(b"SERVER_ERROR " + self._describe(exc).encode("ascii",
                   "replace") + b"\r\n")
        self.stats.responses += 1
        self.stats.errors += 1
