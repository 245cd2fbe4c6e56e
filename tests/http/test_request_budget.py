"""What one keep-alive GET costs the server, from the program's own
counters — the ``http_static`` workload's path (1 KiB in-memory page,
one connection, request/response in lock step), where per-request
overhead is undiluted.  A regression here fails in a second, not after a
benchmark set.  The client is a blocking socket on its own OS thread, so
every trace node and syscall counted belongs to the server.
"""

from __future__ import annotations

import threading

import pytest

from repro.http.blocking_client import BlockingHttpClient
from repro.http.server import build_live_server
from repro.runtime.live_runtime import HAS_SENDMSG, LiveRuntime, make_listener

PAGE = b"x" * 1024
REQUESTS = 200


@pytest.mark.skipif(not HAS_SENDMSG, reason="no sendmsg on this platform")
class TestRequestBudget:
    def test_keep_alive_get_costs(self):
        rt = LiveRuntime(uncaught="store")
        listener = make_listener()
        server = build_live_server(rt, listener, site={"page": PAGE})
        rt.spawn(server.main(), name="server")
        client = BlockingHttpClient(listener.getsockname()[1])
        bodies: list[bytes] = []

        def fetch(count):
            def work():
                fetched = [client.get("/page")[1] for _ in range(count)]
                bodies.extend(fetched)
            thread = threading.Thread(target=work, daemon=True)
            before = len(bodies)
            thread.start()
            rt.run(until=lambda: len(bodies) == before + count,
                   idle_timeout=10.0)
            thread.join(timeout=5.0)
            assert not thread.is_alive()

        def snapshot():
            backend = rt.backend
            return (rt.sched.stats()["total_syscalls"],
                    backend.recv_into_calls, backend.writev_calls,
                    backend.write_calls, backend.read_calls)

        try:
            fetch(1)  # accept, fork the session, allocate the one buffer
            before = snapshot()
            fetch(REQUESTS)
            nodes, recvs, sendmsgs, sends, reads = (
                (after - start) / REQUESTS
                for after, start in zip(snapshot(), before)
            )
        finally:
            client.close()
            server.stop()
            listener.close()
            rt.shutdown()
        assert bodies == [PAGE] * (REQUESTS + 1)
        assert sendmsgs == 1, f"{sendmsgs} sendmsg syscalls per request"
        assert sends == 0 and reads == 0
        # One recv_into carries the request.  A second is the probe
        # that finds the socket empty and parks — paid only when the
        # client is slower than the session's way back to the read
        # (timing, not design), at a recv_into and two trace nodes
        # (``sys_nbio`` + ``sys_epoll_wait``) apiece.
        parks = recvs - 1
        assert 0 <= parks <= 1, f"{recvs} recv_into syscalls per request"
        # A node is a system call: the recv_into and the sendmsg (a
        # nested @do call costs none).
        nodes -= 2 * parks
        assert nodes <= 2.1, f"{nodes} trace nodes per request"
        assert server.stats.connections == 1
        assert rt.buffers.stats()["allocations"] == 1
