"""File transfer over the application-level TCP stack, on a lossy link.

The paper's §4.8 argument made runnable: TCP implemented *inside the
application* as monadic threads + event loops, here moving a file across a
simulated link that drops, duplicates, and reorders packets.  The transfer
completes exactly despite the impairments; the stack's counters show the
recovery machinery (retransmissions, fast retransmits) doing the work.

Run with::

    python examples/tcp_file_transfer.py
"""

from __future__ import annotations

from repro import do, sys_aio_read, sys_blio
from repro.runtime import SimRuntime
from repro.simos.net import DuplexPacketLink
from repro.tcp import TcpParams, TcpSockets, TcpStack
from repro.tcp.stack import connect_stacks

FILE_NAME = "dataset.bin"
FILE_BYTES = 512 * 1024
CHUNK = 64 * 1024
LOSS = 0.03          # 3% packet loss
DUPLICATES = 0.05
JITTER = 0.004       # up to 4ms reordering jitter


def build_world():
    """A runtime hosting two TCP stacks joined by an impaired link."""
    rt = SimRuntime(uncaught="store")
    rt.kernel.fs.create_file(FILE_NAME, FILE_BYTES)
    clock = rt.kernel.clock
    link = DuplexPacketLink(
        clock, bandwidth=12.5e6, latency=0.002,
        loss=LOSS, duplicate=DUPLICATES, jitter=JITTER, seed=2024,
    )
    sender_stack = TcpStack(clock, "sender", TcpParams(), seed=1)
    receiver_stack = TcpStack(clock, "receiver", TcpParams(), seed=2)
    connect_stacks(sender_stack, receiver_stack, link)
    send_sock = TcpSockets(sender_stack)
    recv_sock = TcpSockets(receiver_stack)
    return rt, send_sock, recv_sock, sender_stack


def main() -> None:
    rt, send_sock, recv_sock, sender_stack = build_world()
    received = []

    @do
    def receiver():
        listener = yield recv_sock.listen(9000)
        conn = yield recv_sock.accept(listener)
        # Length-prefixed protocol: 8-byte size, then the payload.
        header = yield recv_sock.recv_exact(conn, 8)
        size = int.from_bytes(header, "big")
        payload = yield recv_sock.recv_exact(conn, size)
        received.append(payload)
        yield recv_sock.close(conn)

    @do
    def sender():
        # Read the file via AIO (the disk model), then stream it.
        handle = yield sys_blio(lambda: rt.kernel.fs.open(FILE_NAME))
        chunks = []
        offset = 0
        while True:
            chunk = yield sys_aio_read(handle, offset, CHUNK)
            if not chunk:
                break
            chunks.append(chunk)
            offset += len(chunk)
        payload = b"".join(chunks)

        conn = yield send_sock.connect("receiver", 9000)
        yield send_sock.send(conn, len(payload).to_bytes(8, "big"))
        yield send_sock.send(conn, payload)
        yield send_sock.close(conn)
        return len(payload)

    rt.spawn(receiver(), name="receiver")
    sender_tcb = rt.spawn(sender(), name="sender")
    rt.run(until=lambda: bool(received))

    expected = rt.kernel.fs.open(FILE_NAME).content_at(0, FILE_BYTES)
    payload = received[0]
    stats = sender_stack.stats
    print(f"link impairments : {LOSS:.0%} loss, {DUPLICATES:.0%} duplicates, "
          f"{JITTER * 1000:.0f}ms jitter")
    print(f"transferred      : {len(payload):,} bytes "
          f"in {rt.kernel.clock.now:.2f} virtual seconds")
    print(f"segments sent    : {stats.segments_sent}")
    print(f"retransmissions  : {stats.retransmits} "
          f"(fast retransmits: {stats.fast_retransmits})")
    print(f"integrity        : {'exact match' if payload == expected else 'CORRUPT'}")
    assert payload == expected
    assert sender_tcb.result == FILE_BYTES
    print("tcp file transfer OK")


if __name__ == "__main__":
    main()
