"""A real echo server on real sockets — the live backend.

The paper's pitch is per-client threads over an event-driven core; this is
that architecture on the actual OS: non-blocking sockets multiplexed with
``select``/``epoll``, one monadic thread per connection.

Run with::

    python examples/echo_server_live.py

It starts the server on an ephemeral localhost port, drives a handful of
concurrent clients against it (also monadic threads, same runtime), prints
the transcript, and exits.  Point ``nc 127.0.0.1 <port>`` at it instead by
passing ``--serve`` to run until interrupted.
"""

from __future__ import annotations

import sys

from repro import do, sys_fork
from repro.runtime import LiveRuntime, make_listener


def make_server(rt: LiveRuntime, listener):
    """The accept loop: one forked thread per connection."""

    @do
    def handle_client(conn, peer):
        # Blocking style, ordinary control flow — this thread suspends at
        # each I/O call while thousands of others make progress.
        while True:
            data = yield rt.io.read(conn, 4096)
            if not data:
                break
            yield rt.io.write_all(conn, data)
        yield rt.io.close(conn)

    @do
    def acceptor():
        while True:
            conn = yield rt.io.accept(listener)
            peer = conn.getpeername()
            yield sys_fork(handle_client(conn, peer), name=f"client-{peer}")

    return acceptor()


@do
def demo_client(rt: LiveRuntime, port: int, ident: int, transcript: list):
    conn = yield rt.io.connect(("127.0.0.1", port))
    for round_number in range(3):
        message = f"hello {ident}/{round_number}".encode()
        yield rt.io.write_all(conn, message)
        reply = yield rt.io.read_exact(conn, len(message))
        assert reply == message
        transcript.append(reply.decode())
    yield rt.io.close(conn)


def main() -> None:
    serve_forever = "--serve" in sys.argv
    rt = LiveRuntime()
    listener = make_listener()
    port = listener.getsockname()[1]
    print(f"echo server listening on 127.0.0.1:{port}")
    rt.spawn(make_server(rt, listener), name="acceptor")

    if serve_forever:
        try:
            rt.run()
        except KeyboardInterrupt:
            pass
        finally:
            rt.shutdown()
        return

    transcript: list[str] = []
    n_clients = 8
    for ident in range(n_clients):
        rt.spawn(demo_client(rt, port, ident, transcript), name=f"c{ident}")
    rt.run(until=lambda: len(transcript) == 3 * n_clients, idle_timeout=10.0)
    rt.shutdown()
    listener.close()

    print(f"{len(transcript)} echoed messages from {n_clients} concurrent "
          "clients, e.g.:")
    for line in sorted(transcript)[:5]:
        print(f"  {line}")
    assert len(transcript) == 3 * n_clients
    print("echo server demo OK")


if __name__ == "__main__":
    main()
