"""Redis RESP2 as a pluggable connection-driver protocol.

Enough of the Redis serialization protocol for off-the-shelf clients to
use the replicated KV as a cache tier: ``GET``/``SET``/``DEL``/``MGET``/
``EXISTS``/``PING``/``ECHO``, plus the handshake chatter real clients
emit (``SELECT``, ``CLIENT ...`` → ``+OK``; anything else → a normal
``-ERR unknown command`` that redis-cli and redis-py tolerate and fall
back from, e.g. ``HELLO`` → RESP2, ``COMMAND DOCS`` → no docs).

Commands arrive as RESP arrays of bulk strings (``*N`` then ``$len``
payloads) or as inline whitespace-split lines; replies use the full
RESP2 surface (simple strings, errors, integers, bulk, nil, arrays).
Keys decode via UTF-8 with surrogateescape: any byte key is stable and
self-consistent, and UTF-8 keys interoperate with the HTTP facade.

For the batch plan in :meth:`~repro.cache.base.CacheProtocolBase.drain`
``MGET``/``EXISTS`` are *reads* (consecutive ones share one store
``mget``), ``GET``/``SET``/``DEL`` are *keyed* (key-disjoint
neighbours overlap), and everything else is a barrier.  ``GET`` is
deliberately not a read: it is the all-replica read with read-repair
(``KvNode.get``) where ``MGET`` is the one-replica read, and coalescing
one into the other would silently change its consistency.
"""

from __future__ import annotations

from ..core.do_notation import do
from .base import (BARRIER, KEYED, READ, CacheParseError, CacheParser,
                   CacheProtocolBase, CacheStats)

__all__ = ["RespParser", "RespProtocol"]

_MAX_LINE_BYTES = 8 * 1024
_MAX_BULK_BYTES = 1 * 1024 * 1024
_MAX_ELEMENTS = 1024

NIL = b"$-1\r\n"
OK = b"+OK\r\n"


def _err(message: str) -> bytes:
    clean = message.replace("\r", " ").replace("\n", " ")
    return f"-ERR {clean}\r\n".encode("utf-8", "replace")


def _bulk(value: bytes) -> list[bytes]:
    return [b"$%d\r\n" % len(value), value, b"\r\n"]


def _decode_int(field: bytes, *, signed: bool = False) -> int | None:
    body = field[1:] if signed and field[:1] == b"-" else field
    if not body.isdigit():  # ASCII digits only; False when empty
        return None
    return int(field)


class RespParser(CacheParser):
    """Push parser: feed bytes, pop commands as ``list[bytes]``.

    Byte-boundary safe.  Every wire-level mistake is fatal (RESP has no
    in-band resync point): the protocol answers with the carried reply
    and closes, which is also what a real Redis does for protocol
    errors.
    """

    def __init__(self, max_bulk_bytes: int = _MAX_BULK_BYTES) -> None:
        super().__init__()
        self.max_bulk_bytes = max_bulk_bytes
        self._expected = 0          # elements outstanding in the array
        self._items: list[bytes] = []
        self._bulk_len = -1         # payload length mid-bulk, else -1

    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        if self._bulk_len >= 0:
            return self._advance_bulk_data()
        line = self._take_line()
        if line is None:
            return False
        if self._expected:
            return self._advance_bulk_header(line)
        return self._advance_start(line)

    def _take_line(self) -> bytes | None:
        line_end = self._buffer.find(b"\r\n")
        if line_end < 0:
            if len(self._buffer) > _MAX_LINE_BYTES:
                raise CacheParseError(
                    _err("Protocol error: too big inline request")
                )
            return None
        line = bytes(self._buffer[:line_end])
        del self._buffer[:line_end + 2]
        return line

    def _advance_start(self, line: bytes) -> bool:
        if line[:1] == b"*":
            count = _decode_int(line[1:], signed=True)
            if count is None or count > _MAX_ELEMENTS:
                raise CacheParseError(
                    _err("Protocol error: invalid multibulk length")
                )
            if count > 0:
                self._expected = count
                self._items = []
            # "*0" and "*-1" are empty commands: ignored, like empty
            # inline lines.
            return True
        if line[:1] in (b"$", b"+", b"-", b":"):
            raise CacheParseError(
                _err(f"Protocol error: unexpected {chr(line[0])!r}")
            )
        # Inline command: whitespace-split; empty lines are ignored.
        items = line.split()
        if items:
            self._commands.append(items)
        return True

    def _advance_bulk_header(self, line: bytes) -> bool:
        if line[:1] != b"$":
            raise CacheParseError(
                _err("Protocol error: expected '$', got "
                     f"{chr(line[0]) if line else 'empty'!r}")
            )
        length = _decode_int(line[1:])
        if length is None or length > self.max_bulk_bytes:
            raise CacheParseError(
                _err("Protocol error: invalid bulk length")
            )
        self._bulk_len = length
        return True

    def _advance_bulk_data(self) -> bool:
        need = self._bulk_len + 2
        if len(self._buffer) < need:
            return False
        if bytes(self._buffer[self._bulk_len:need]) != b"\r\n":
            raise CacheParseError(
                _err("Protocol error: bulk not CRLF-terminated")
            )
        self._items.append(bytes(self._buffer[:self._bulk_len]))
        del self._buffer[:need]
        self._bulk_len = -1
        self._expected -= 1
        if self._expected == 0:
            self._commands.append(self._items)
            self._items = []
        return True


class RespProtocol(CacheProtocolBase):
    """Executor: RESP commands against the monadic store."""

    def __init__(self, store, stats: CacheStats | None = None,
                 max_bulk_bytes: int = _MAX_BULK_BYTES) -> None:
        super().__init__(store, stats)
        self.max_bulk_bytes = max_bulk_bytes

    def make_parser(self) -> RespParser:
        return RespParser(max_bulk_bytes=self.max_bulk_bytes)

    def shed_payload(self) -> bytes:
        return _err("connection capacity reached")

    @staticmethod
    def _key(raw: bytes) -> str:
        return raw.decode("utf-8", "surrogateescape")

    def classify(self, command):
        name = command[0].upper()
        count = len(command) - 1
        if name in (b"MGET", b"EXISTS") and count:
            return READ, [self._key(raw) for raw in command[1:]]
        if (name == b"GET" and count == 1) or (name == b"SET" and count == 2):
            return KEYED, (self._key(command[1]),)
        if name == b"DEL" and count:
            return KEYED, [self._key(raw) for raw in command[1:]]
        # No store access: PING, chatter, QUIT, unknown, wrong arity.
        return BARRIER, ()

    @do
    def execute(self, command, out, values=None):
        stats = self.stats
        name = command[0].upper()
        args = command[1:]
        try:
            if name == b"PING":
                if len(args) > 1:
                    self._reply(out, _err(
                        "wrong number of arguments for 'ping' command"))
                elif args:
                    self._reply_bufs(out, _bulk(args[0]))
                else:
                    self._reply(out, b"+PONG\r\n")
                return False
            if name == b"ECHO":
                if len(args) != 1:
                    self._reply(out, _err(
                        "wrong number of arguments for 'echo' command"))
                else:
                    self._reply_bufs(out, _bulk(args[0]))
                return False
            if name == b"GET":
                if len(args) != 1:
                    self._reply(out, _err(
                        "wrong number of arguments for 'get' command"))
                    return False
                found, value, _proxied = yield self.store.get(
                    self._key(args[0])
                )
                if found:
                    stats.get_hits += 1
                    self._reply_bufs(out, _bulk(value))
                else:
                    stats.get_misses += 1
                    self._reply(out, NIL)
                return False
            if name == b"SET":
                if len(args) != 2:
                    # EX/PX/NX/XX change semantics the store does not
                    # promise (no expiry, no atomic conditions): refuse
                    # loudly rather than silently drop them.
                    self._reply(out, _err("SET options are not supported"))
                    return False
                yield self.store.put(self._key(args[0]), args[1])
                stats.sets += 1
                self._reply(out, OK)
                return False
            if name == b"DEL":
                if not args:
                    self._reply(out, _err(
                        "wrong number of arguments for 'del' command"))
                    return False
                removed = 0
                for raw in args:
                    deleted, _value, _proxied = yield self.store.delete(
                        self._key(raw)
                    )
                    removed += bool(deleted)
                stats.deletes += removed
                self._reply(out, b":%d\r\n" % removed)
                return False
            if name in (b"MGET", b"EXISTS"):
                if not args:
                    self._reply(out, _err(
                        f"wrong number of arguments for "
                        f"'{name.decode().lower()}' command"))
                    return False
                keys = [self._key(raw) for raw in args]
                if values is None:
                    values = yield self._read(keys)
                if isinstance(values, Exception):
                    raise values
                if name == b"EXISTS":
                    present = sum(values.get(key) is not None for key in keys)
                    self._reply(out, b":%d\r\n" % present)
                    return False
                bufs = [b"*%d\r\n" % len(keys)]
                for key in keys:
                    value = values.get(key)
                    if value is None:
                        stats.get_misses += 1
                        bufs.append(NIL)
                    else:
                        stats.get_hits += 1
                        bufs.extend(_bulk(value))
                self._reply_bufs(out, bufs)
                return False
            if name in (b"SELECT", b"CLIENT", b"RESET"):
                # Handshake chatter from real clients: acknowledge.
                self._reply(out, OK)
                return False
            if name == b"QUIT":
                self._reply(out, OK)
                return True
            self._reply(out, _err(
                f"unknown command {command[0].decode('utf-8', 'replace')!r}"
            ))
            return False
        except Exception as exc:
            self._reply(out, _err(self._describe(exc)))
            return False

    def _reply(self, out: list, buf: bytes) -> None:
        out.append(buf)
        self.stats.responses += 1
        if buf[:1] == b"-":
            self.stats.errors += 1

    def _reply_bufs(self, out: list, bufs: list) -> None:
        out.extend(bufs)
        self.stats.responses += 1
