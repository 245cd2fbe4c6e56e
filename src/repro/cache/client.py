"""Blocking memcache and RESP clients for drivers outside the runtimes.

The counterpart of :mod:`repro.http.blocking_client`: load generators,
cluster tests, CI smoke scripts, and demos measure the cache front-end
from the *outside* over plain blocking sockets.  Both clients speak the
real wire protocols — they work against memcached / Redis too, which is
the point: the front-end is checked with a client that has no knowledge
of the server's internals.

Both clients expose an explicit *pipeline* surface (send a burst of
commands in one write, then read every reply) because the egress-
batching claims are about pipelined batches.
"""

from __future__ import annotations

from ..blocking import BlockingConnection

__all__ = ["BlockingMemcacheClient", "BlockingRespClient", "RespError"]


class BlockingMemcacheClient(BlockingConnection):
    """One keep-alive connection speaking the memcache text protocol."""

    def set(self, key: str, value: bytes, flags: int = 0,
            exptime: int = 0, noreply: bool = False) -> bool:
        tail = b" noreply" if noreply else b""
        self.sock.sendall(
            b"set %s %d %d %d%s\r\n%s\r\n"
            % (key.encode(), flags, exptime, len(value), tail, value)
        )
        if noreply:
            return True
        return self._read_line() == b"STORED"

    def get(self, key: str) -> bytes | None:
        return self.get_many([key]).get(key)

    def get_many(self, keys: list[str]) -> dict[str, bytes]:
        self.sock.sendall(
            b"get " + b" ".join(key.encode() for key in keys) + b"\r\n"
        )
        return self._read_values()

    def gets(self, key: str) -> tuple[bytes | None, int | None]:
        """Value and cas token (None, None on miss)."""
        self.sock.sendall(b"gets " + key.encode() + b"\r\n")
        values = self._read_values(want_cas=True)
        return values.get(key, (None, None))

    def delete(self, key: str, noreply: bool = False) -> bool:
        tail = b" noreply" if noreply else b""
        self.sock.sendall(b"delete " + key.encode() + tail + b"\r\n")
        if noreply:
            return True
        return self._read_line() == b"DELETED"

    def version(self) -> str:
        self.sock.sendall(b"version\r\n")
        line = self._read_line()
        if not line.startswith(b"VERSION "):
            raise ConnectionError(f"bad version reply {line!r}")
        return line[len(b"VERSION "):].decode()

    def stats(self) -> dict[str, int]:
        self.sock.sendall(b"stats\r\n")
        counters: dict[str, int] = {}
        while True:
            line = self._read_line()
            if line == b"END":
                return counters
            _stat, name, value = line.split(b" ", 2)
            counters[name.decode()] = int(value)

    def pipeline_get(self, batches: list[list[str]]) -> list[dict[str, bytes]]:
        """Send one ``get`` per batch in a single write, then read every
        reply — the pipelined multi-key load shape."""
        burst = b"".join(
            b"get " + b" ".join(key.encode() for key in keys) + b"\r\n"
            for keys in batches
        )
        self.sock.sendall(burst)
        return [self._read_values() for _ in batches]

    def pipeline_set(self, items: list[tuple[str, bytes]]) -> int:
        """Pipelined sets; returns how many answered STORED."""
        burst = b"".join(
            b"set %s 0 0 %d\r\n%s\r\n" % (key.encode(), len(value), value)
            for key, value in items
        )
        self.sock.sendall(burst)
        return sum(self._read_line() == b"STORED" for _ in items)

    def _read_values(self, want_cas: bool = False) -> dict:
        values: dict = {}
        while True:
            line = self._read_line()
            if line == b"END":
                return values
            if not line.startswith(b"VALUE "):
                raise ConnectionError(f"bad get reply {line!r}")
            fields = line.split()
            key = fields[1].decode()
            size = int(fields[3])
            value = self._read_exact(size)
            self._read_exact(2)  # trailing CRLF
            if want_cas:
                values[key] = (value, int(fields[4]) if len(fields) > 4
                               else None)
            else:
                values[key] = value


class RespError(Exception):
    """An ``-ERR ...`` reply, surfaced like redis clients do."""


class BlockingRespClient(BlockingConnection):
    """One keep-alive connection speaking RESP2."""

    @staticmethod
    def encode_command(*args: bytes | str | int) -> bytes:
        parts = [b"*%d\r\n" % len(args)]
        for arg in args:
            if isinstance(arg, str):
                arg = arg.encode("utf-8", "surrogateescape")
            elif isinstance(arg, int):
                arg = b"%d" % arg
            parts.append(b"$%d\r\n%s\r\n" % (len(arg), arg))
        return b"".join(parts)

    def execute(self, *args):
        """One command, one reply (simple strings come back as ``str``,
        bulks as ``bytes``, nil as ``None``; errors raise)."""
        self.sock.sendall(self.encode_command(*args))
        return self._read_reply()

    def pipeline(self, commands: list[tuple]) -> list:
        """Send every command in one write, then read every reply.
        Error replies come back as :class:`RespError` instances."""
        self.sock.sendall(
            b"".join(self.encode_command(*command) for command in commands)
        )
        replies = []
        for _ in commands:
            try:
                replies.append(self._read_reply())
            except RespError as exc:
                replies.append(exc)
        return replies

    def _read_reply(self):
        line = self._read_line()
        kind, rest = line[:1], line[1:]
        if kind == b"+":
            return rest.decode()
        if kind == b"-":
            raise RespError(rest.decode())
        if kind == b":":
            return int(rest)
        if kind == b"$":
            length = int(rest)
            if length < 0:
                return None
            value = self._read_exact(length)
            self._read_exact(2)
            return value
        if kind == b"*":
            count = int(rest)
            if count < 0:
                return None
            return [self._read_reply() for _ in range(count)]
        raise ConnectionError(f"bad RESP reply {line!r}")
