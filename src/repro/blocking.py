"""One blocking keep-alive socket with a buffered reader.

Load generators, cluster tests, CI smoke scripts and demos measure the
serving stack from the *outside*, so they deliberately use plain
blocking sockets rather than monadic threads — a separate process/thread
model from the system under test.  The HTTP client
(:mod:`repro.http.blocking_client`) and the memcache/RESP clients
(:mod:`repro.cache.client`) are this connection plus their wire format.
"""

from __future__ import annotations

import socket

__all__ = ["BlockingConnection"]


class BlockingConnection:
    """``sock`` plus ``buffer``, the bytes received but not yet consumed
    (keep-alive and pipelined leftovers)."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 5.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.host = host
        self.buffer = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer.extend(chunk)

    def _read_line(self) -> bytes:
        while True:
            line_end = self.buffer.find(b"\r\n")
            if line_end >= 0:
                break
            self._fill()
        line = bytes(self.buffer[:line_end])
        del self.buffer[:line_end + 2]
        return line

    def _read_exact(self, nbytes: int) -> bytes:
        while len(self.buffer) < nbytes:
            self._fill()
        data = bytes(self.buffer[:nbytes])
        del self.buffer[:nbytes]
        return data

    def close(self) -> None:
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
