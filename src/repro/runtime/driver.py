"""The reusable monadic connection driver.

The paper's web server (§5.2) hard-wires one application protocol (HTTP)
into its accept loop.  This module factors the loop out: a
:class:`ConnectionDriver` owns everything *below* the application protocol
— accept batching, admission control with overload shedding, per-connection
thread spawning, live-connection accounting, shutdown — and delegates
everything *above* the transport to a pluggable protocol object.  HTTP
becomes one protocol among several (the KV service's mesh frames are
another), which is exactly the "protocols among threads" composition the
related work argues needs first-class treatment.

The driver owns an admitted connection **from accept to close**.  Who
does what:

* **Who reads** — the driver.  :meth:`ConnectionDriver.serve` is the one
  ingress loop: ``io.read_pooled`` into a leased reusable buffer →
  ``parser.feed(buffer, count)`` in place → lease released (plain code,
  before anything can yield, so a parked connection pins no buffer) →
  ``protocol.drain`` serves what the bytes completed → repeat.  The one
  protocol that reads for itself is the mesh (its ``FrameReader`` pays
  one read per frame): ``MeshNode``'s driver overrides ``serve`` and
  inherits everything else.
* **Who closes** — the driver, always.  A session ends with a verdict:
  :data:`CLOSE` (plain close: EOF, ``Connection: close``, ``quit``, a
  vanished peer) or :data:`DRAIN_CLOSE` (the protocol just answered a
  fatal error and unread request bytes may remain — a straight close
  would degrade to an RST that destroys the reply in flight, so the
  driver closes through ``io.shed``).  Protocols never close.
* **Where the abandonment rule lives** — :meth:`ConnectionDriver
  .handle_connection`, and only there.  When a shutdown or a benchmark drops the
  runtime mid-session the interpreter closes the thread's generators
  with ``GeneratorExit``; nothing will resume them, so a monadic close
  cannot run and the session must not yield on that path.  Protocol
  code needs no guard: its cleanup is plain code (lease and file
  releases) or does not happen.

The protocol contract is "bytes in → replies out":

``protocol.make_parser() -> parser``
    Fresh per-connection state.  ``parser.feed(buffer, count)`` is plain
    code over the first ``count`` bytes of a buffer that is reused right
    after it returns: the parser copies out whatever it keeps.
``protocol.parse_error``
    The exception type ``feed`` raises once the stream can no longer be
    framed.  The driver stops reading and hands it to ``drain``.
``protocol.drain(io, conn, parser, bad) -> M[verdict]``
    Serve everything the bytes so far completed, in order, writing
    replies through ``io``; then, if ``bad`` (the parse error) is not
    ``None``, answer it and resolve to :data:`DRAIN_CLOSE`.  Resolve to
    ``None`` to keep reading, :data:`CLOSE` to end the session.
    Transport errors just propagate: the driver treats them as a
    vanished peer.
``protocol.shed_payload() -> bytes``
    A pre-encoded farewell for connections refused under the admission
    cap (e.g. an HTTP 503).  May return ``b""`` for silent sheds.

The transport contract: ``io`` is the transport itself —
:class:`~repro.runtime.io_api.NetIO` (``rt.io``: simulated kernel
streams or real sockets) or :class:`~repro.tcp.socket_api.TcpSockets`
(the application-level TCP stack) — and ``listener`` is whatever that
transport listens on (``kernel.net.listen()``, ``make_listener()``,
``stack.listen(port)``).  Both implement ``accept_many``/
``read_pooled``/``write_all_v``/``sendfile``/``shed``/``close``, each
returning :class:`~repro.core.monad.M` (``write_all_v`` resumes with
the byte count it wrote), and own a receive-buffer pool ``buffers``; the
driver calls the first, second and last two, the protocols the middle
two, nothing probes, and moving a server from one transport to the other
is the first constructor argument (§4.8's "editing one line of code").

Invariants the layers above rely on:

* **One thread per admitted connection** — the driver forks exactly one
  monadic thread per admitted connection; ``stats.active`` is
  incremented before the fork and decremented in a non-yielding
  ``finally`` (correct even under abandonment), so
  ``active <= max_connections`` always holds.
* **Shedding never blocks the accept loop** — a connection refused at
  the cap gets the farewell + close through ``io.shed``, which is
  best-effort and bounded; a flooding peer cannot head-of-line block
  accepts.
* **Shutdown is cooperative** — ``stop()`` only stops *accepting*;
  in-flight sessions run to completion (the cluster's drain window
  bounds how long that is allowed to take).  A listener torn down during
  shutdown is a clean exit, not an error.
* **Protocol neutrality** — the driver moves bytes but never interprets
  them; HTTP, the cache dialects and the mesh's frame protocol run on
  the same driver, differing only in the protocol object.
"""

from __future__ import annotations

from typing import Any

from ..core.do_notation import do
from ..core.syscalls import sys_fork

__all__ = ["ConnectionDriver", "DriverStats", "CLOSE", "DRAIN_CLOSE"]

#: Session verdicts (see the module docstring): how the driver closes.
CLOSE = "close"
DRAIN_CLOSE = "drain-close"


class DriverStats:
    """Transport-level counters: what the driver itself can observe."""

    __slots__ = ("connections", "active", "shed")

    def __init__(self) -> None:
        #: Connections admitted over the server's lifetime.
        self.connections = 0
        #: Currently admitted (open) client connections.
        self.active = 0
        #: Connections refused at the accept queue under the admission cap.
        self.shed = 0


class ConnectionDriver:
    """Accept/admission/shed loop and per-connection session, parameterized
    by an application protocol.

    The driver is the server's root thread: it accepts bursts of
    connections, sheds the excess above ``max_connections`` with the
    protocol's farewell payload, and forks one monadic thread per admitted
    connection that reads, feeds the protocol's parser, lets the protocol
    answer, and closes.
    """

    def __init__(
        self,
        io: Any,
        listener: Any,
        protocol: Any,
        accept_batch: int = 64,
        max_connections: int | None = None,
        stats: Any = None,
        name: str = "server",
    ) -> None:
        if accept_batch < 1:
            raise ValueError("accept_batch must be >= 1")
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 (or None)")
        self.io = io
        self.listener = listener
        self.protocol = protocol
        self.accept_batch = accept_batch
        self.max_connections = max_connections
        #: Any object with ``connections``/``active``/``shed`` attributes
        #: (the HTTP layer shares one stats object across driver and
        #: protocol so existing dashboards see one surface).
        self.stats = stats if stats is not None else DriverStats()
        self.name = name
        self.running = True
        self._shed_payload = protocol.shed_payload()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop accepting new connections (current ones finish)."""
        self.running = False

    # ------------------------------------------------------------------
    @do
    def main(self):
        """The root thread: accept loop spawning per-connection threads."""
        io = self.io
        stats = self.stats
        while self.running:
            try:
                conns = yield io.accept_many(self.listener,
                                             self.accept_batch)
            except (OSError, ValueError):
                if self.running:
                    raise
                return  # listener torn down during shutdown
            for conn in conns:
                if not self.running:
                    yield io.close(conn)
                    continue
                if (self.max_connections is not None
                        and stats.active >= self.max_connections):
                    # Admission control: answer with the protocol's
                    # farewell and hang up, without spawning a thread.
                    stats.shed += 1
                    yield io.shed(conn, self._shed_payload)
                    continue
                stats.connections += 1
                stats.active += 1
                yield sys_fork(self._admitted(conn), name="client")

    @do
    def _admitted(self, conn):
        # ``active`` pairs with the admission in ``main``; the plain
        # (non-yielding) decrement is safe even under GeneratorExit.
        try:
            yield self.handle_connection(conn)
        finally:
            self.stats.active -= 1

    @do
    def handle_connection(self, conn):
        """One admitted session, from the first read to the close (also
        the direct-drive entry for tests: it does not touch the
        admission counters)."""
        io = self.io
        verdict = CLOSE
        abandoned = False
        try:
            verdict = yield self.serve(conn)
        except (ConnectionError, OSError):
            pass  # peer vanished: nothing to say to it
        except GeneratorExit:
            # Abandoned mid-session: nothing will resume this thread, so
            # the monadic close below cannot run (module docstring).
            abandoned = True
            raise
        finally:
            if not abandoned:
                if verdict is DRAIN_CLOSE:
                    yield io.shed(conn, b"")
                else:
                    yield io.close(conn)

    @do
    def serve(self, conn):
        """The session body: the one pooled-ingress loop.  Resumes with
        the verdict (:data:`CLOSE` or :data:`DRAIN_CLOSE`)."""
        io = self.io
        protocol = self.protocol
        parser = protocol.make_parser()
        bad = None
        while True:
            lease, count = yield io.read_pooled(conn, io.buffers)
            try:
                if not count:
                    return CLOSE  # peer closed
                parser.feed(lease.data, count)
            except protocol.parse_error as error:
                bad = error
            finally:
                # Plain code, before anything below can yield: the bytes
                # the parser keeps are its own copies.
                lease.release()
            verdict = yield protocol.drain(io, conn, parser, bad)
            if verdict is not None:
                return verdict
