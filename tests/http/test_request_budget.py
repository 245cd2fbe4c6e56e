"""What one keep-alive GET costs the server, from the program's own
counters — the ``http_static`` workload's path (1 KiB in-memory page,
one connection, request/response in lock step), where per-request
overhead is undiluted.  A regression here fails in a second, not after a
benchmark set.  The client is a blocking socket on its own OS thread, so
every trace node, ``@do`` frame and syscall counted belongs to the
server.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.do_notation import DoCall
from repro.http.blocking_client import BlockingHttpClient
from repro.http.server import build_live_server
from repro.runtime.live_runtime import HAS_SENDMSG, LiveRuntime, make_listener

PAGE = b"x" * 1024
REQUESTS = 200


def measure_keep_alive_gets(monkeypatch):
    """Serve ``REQUESTS`` keep-alive GETs after a warm-up one; returns
    the per-request counts and the server's state after the run."""
    rt = LiveRuntime(uncaught="store")
    listener = make_listener()
    server = build_live_server(rt, listener, site={"page": PAGE})
    rt.spawn(server.main(), name="server")
    client = BlockingHttpClient(listener.getsockname()[1])
    bodies: list[bytes] = []

    # Every ``@do`` call is one DoCall: count them as they are made.
    frames = [0]
    init = DoCall.__init__

    def counting_init(call, genfunc, args, kwargs):
        frames[0] += 1
        init(call, genfunc, args, kwargs)

    monkeypatch.setattr(DoCall, "__init__", counting_init)

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

    names = ("nodes", "frames", "recvs", "sendmsgs", "sends", "reads")

    def snapshot():
        backend = rt.backend
        return (rt.sched.stats()["total_syscalls"], frames[0],
                backend.recv_into_calls, backend.writev_calls,
                backend.write_calls, backend.read_calls)

    try:
        fetch(1)  # accept, fork the session, allocate the one buffer
        before = snapshot()
        fetch(REQUESTS)
        per_request = {
            name: (after - start) / REQUESTS
            for name, after, start in zip(names, snapshot(), before)
        }
    finally:
        client.close()
        server.stop()
        listener.close()
        rt.shutdown()
    assert bodies == [PAGE] * (REQUESTS + 1)
    # One recv_into carries the request.  A second is the probe that
    # finds the socket empty and parks — paid only when the client is
    # slower than the session's way back to the read (timing, not
    # design), at a recv_into, two trace nodes (``sys_nbio`` +
    # ``sys_epoll_wait``) and no frame apiece.
    per_request["parks"] = parks = per_request["recvs"] - 1
    assert 0 <= parks <= 1, f"{per_request['recvs']} recv_into per request"
    return per_request, server, rt


@pytest.mark.skipif(not HAS_SENDMSG, reason="no sendmsg on this platform")
class TestRequestBudget:
    def test_keep_alive_get_costs(self, monkeypatch):
        costs, server, rt = measure_keep_alive_gets(monkeypatch)
        assert costs["sendmsgs"] == 1, f"{costs['sendmsgs']} sendmsg per request"
        assert costs["sends"] == 0 and costs["reads"] == 0
        # A node is a system call: the recv_into and the sendmsg (a
        # nested @do call costs none).
        nodes = costs["nodes"] - 2 * costs["parks"]
        assert nodes <= 2.1, f"{nodes} trace nodes per request"
        assert server.stats.connections == 1
        assert rt.buffers.stats()["allocations"] == 1


@pytest.mark.skipif(not HAS_SENDMSG, reason="no sendmsg on this platform")
class TestFrameBudget:
    def test_keep_alive_get_opens_five_frames(self, monkeypatch):
        # The session's read_pooled, drain, _respond, the handler's
        # respond and write_all_v.  A cache hit, a filesystem without
        # mtime and a write the kernel takes whole open no frame of
        # their own; a nested call costs no trace node either way.
        costs, _server, _rt = measure_keep_alive_gets(monkeypatch)
        assert costs["frames"] <= 5, f"{costs['frames']} @do frames per request"
        nodes = costs["nodes"] - 2 * costs["parks"]
        assert nodes <= 2.1, f"{nodes} trace nodes per request"
