"""The closed-loop load generator: one process, one thread, two
non-blocking keep-alive connections on a ``selectors`` loop.

A connection sends its next request only once its previous response is
complete *and verified*, so a slow server receives less load — the
honest model for keep-alive callers that each wait for their reply.
Two generator threads were measured slower than one thread multiplexing
both connections (GIL hand-offs), so there is exactly one.

After every verified op the generator also executes :func:`probe`, a
fixed piece of server-like Python, and adds up the CPU time it took.
The box's speed moves by tens of percent within seconds; the probe
samples it at the very moments the servers run, and ``run.py`` uses the
mean probe cost of a round to express that round's times at the speed of
a nominal machine.
"""

from __future__ import annotations

import dataclasses
import selectors
import socket
import time
from time import thread_time_ns
from typing import Any, Callable

#: A response that has not completed within this many seconds is a
#: failed (timed-out) op; the run aborts because the stream is desynced.
OP_TIMEOUT_S = 10.0


_PROBE_KEYS = [b"key-%05d" % i for i in range(4096)]
_PROBE_INDEX = {key: i for i, key in enumerate(_PROBE_KEYS)}


def probe(n: int) -> int:
    """CPU nanoseconds one fixed unit of work takes right now.

    The work is what the servers spend their time on — splitting a
    request, a dictionary lookup under a key that changes with ``n``,
    formatting a response head — so whatever slows them (a busy sibling
    hyperthread, a polluted cache) slows it in proportion.  Thread CPU
    time, not wall time: a preemption inside the probe is not counted.
    """
    start = thread_time_ns()
    request = (b"GET /kv/" + _PROBE_KEYS[(n * 2654435761) & 4095]
               + b" HTTP/1.1\r\nHost: bench\r\nAccept: */*\r\n\r\n")
    lines = request.split(b"\r\n")
    target = lines[0].split(b" ")[1]
    headers = {line.split(b": ")[0].lower(): line for line in lines[1:3]}
    found = _PROBE_INDEX.get(target[4:])
    _reply = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % found
              + headers[b"host"])
    return thread_time_ns() - start


class OpFailed(Exception):
    """An op came back wrong, late, or not at all."""


class Op:
    """One request and what a correct response to it looks like.

    ``check(buf, op)`` returns ``None`` while the response is incomplete,
    else whether it is byte-for-byte what the seed implies.
    """

    __slots__ = ("request", "check", "status", "body")

    def __init__(self, request: bytes, check: Callable, status: Any,
                 body: bytes) -> None:
        self.request = request
        self.check = check
        self.status = status
        self.body = body


def check_http(buf: bytes, op: Op) -> bool | None:
    """HTTP/1.1 response: status line prefix and exact body; nothing may
    follow the body (a closed loop never has a second reply in flight)."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    at = buf.find(b"Content-Length: ", 0, head_end)
    if at < 0:
        return False
    length = int(buf[at + 16:buf.find(b"\r\n", at)])
    total = head_end + 4 + length
    if len(buf) < total:
        return None
    return (len(buf) == total and buf.startswith(op.status)
            and buf[head_end + 4:] == op.body)


def check_exact(buf: bytes, op: Op) -> bool | None:
    """Memcache burst: the whole reply stream is known in advance."""
    if len(buf) < len(op.body):
        return None
    return buf == op.body


def http_get(path: str, body: bytes) -> Op:
    request = f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
    return Op(request, check_http, b"HTTP/1.1 200 ", body)


def http_put(path: str, value: bytes) -> Op:
    request = (f"PUT {path} HTTP/1.1\r\nHost: bench\r\n"
               f"Content-Length: {len(value)}\r\n\r\n").encode() + value
    return Op(request, check_http, (b"HTTP/1.1 201 ", b"HTTP/1.1 204 "), b"")


class Client:
    """One keep-alive connection and its in-flight op."""

    __slots__ = ("sock", "index", "op", "sent_ns", "buf", "seq")

    def __init__(self, sock: socket.socket, index: int) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.index = index
        self.op: Op | None = None
        self.sent_ns = 0
        self.buf = b""
        #: Ops this client has issued over its lifetime (workloads derive
        #: the next request from it).
        self.seq = 0


@dataclasses.dataclass
class Window:
    """What one timed window of driving produced."""

    ops: int
    elapsed_s: float
    latencies_ns: list[int]
    recvs: int
    gen_cpu_s: float
    #: Sum of the per-op :func:`probe` readings (one per op).
    probe_ns: int


class Generator:
    """Drives a fixed set of clients; counts every op it attempts."""

    def __init__(self, clients: list[Client]) -> None:
        self.clients = clients
        self.attempted = 0
        self.failed = 0
        self.selector = selectors.DefaultSelector()
        for client in clients:
            self.selector.register(client.sock, selectors.EVENT_READ, client)

    def close(self) -> None:
        self.selector.close()
        for client in self.clients:
            client.sock.close()

    def _send(self, client: Client, op: Op) -> None:
        client.op = op
        client.buf = b""
        client.seq += 1
        self.attempted += 1
        client.sent_ns = time.perf_counter_ns()
        # Requests are far smaller than the socket buffer and the
        # previous response was fully read: a short write means trouble.
        if client.sock.send(op.request) != len(op.request):
            self.failed += 1
            raise OpFailed(f"short write on client {client.index}")

    def drive(self, next_op: Callable[[Client], Op | None],
              seconds: float | None = None) -> Window:
        """Run the closed loop until ``seconds`` elapsed (then let the
        in-flight ops finish) or, without a limit, until ``next_op``
        returns ``None`` for every client."""
        latencies: list[int] = []
        recvs = 0
        busy = 0
        probe_ns = 0
        cpu_start = time.process_time_ns()
        start_ns = time.perf_counter_ns()
        stop_ns = None if seconds is None else start_ns + int(seconds * 1e9)
        end_ns = start_ns
        for client in self.clients:
            op = next_op(client)
            if op is not None:
                self._send(client, op)
                busy += 1
        select = self.selector.select
        while busy:
            events = select(1.0)
            if not events:
                now = time.perf_counter_ns()
                for client in self.clients:
                    if (client.op is not None and
                            now - client.sent_ns > OP_TIMEOUT_S * 1e9):
                        self.failed += 1
                        raise OpFailed(
                            f"client {client.index} timed out after "
                            f"{OP_TIMEOUT_S}s")
                continue
            for key, _mask in events:
                client = key.data
                data = client.sock.recv(262144)
                recvs += 1
                if not data:
                    self.failed += 1
                    raise OpFailed(
                        f"server closed client {client.index} mid-op")
                buf = client.buf + data if client.buf else data
                op = client.op
                verdict = op.check(buf, op)
                if verdict is None:
                    client.buf = buf
                    continue
                end_ns = time.perf_counter_ns()
                if not verdict:
                    self.failed += 1
                    raise OpFailed(
                        f"client {client.index} got a wrong response to "
                        f"{op.request[:60]!r}: {buf[:120]!r}")
                latencies.append(end_ns - client.sent_ns)
                probe_ns += probe(self.attempted)
                client.op = None
                if stop_ns is None or end_ns < stop_ns:
                    op = next_op(client)
                    if op is not None:
                        self._send(client, op)
                        continue
                busy -= 1
        return Window(
            ops=len(latencies),
            elapsed_s=(end_ns - start_ns) / 1e9,
            latencies_ns=latencies,
            recvs=recvs,
            gen_cpu_s=(time.process_time_ns() - cpu_start) / 1e9,
            probe_ns=probe_ns,
        )
