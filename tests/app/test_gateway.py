"""Gateway acceptance tests: routing, coalescing, failover, reuse.

Everything runs inside one live runtime: the upstream servers, the
gateway, and the driving clients are all cooperative monadic threads on
the same scheduler — end-to-end over real sockets, no OS threads.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.app.gateway import ResponseCache, build_gateway
from repro.core.do_notation import do
from repro.core.syscalls import sys_sleep
from repro.core.thread import join_all, spawn
from repro.http.client import HttpClient
from repro.http.message import HttpResponse
from repro.http.server import build_live_server
from repro.runtime.live_runtime import LiveRuntime, make_listener
from tests.http.test_client import AMBIGUOUS_RESPONSE, raw_upstream


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def run(rt, comp, timeout=15.0):
    done = []

    @do
    def driver():
        yield comp
        done.append(True)

    rt.spawn(driver(), name="test-driver")
    rt.run(until=lambda: bool(done), idle_timeout=timeout)
    assert done, "driver did not finish"


class CountingHandler:
    """An upstream application that counts respond() calls and can be
    slow on selected paths."""

    def __init__(self, body: bytes = b"payload", delay: float = 0.0,
                 slow_prefix: str = "/") -> None:
        self.body = body
        self.delay = delay
        self.slow_prefix = slow_prefix
        self.calls = 0

    def respond(self, request):
        return self._respond(request)

    @do
    def _respond(self, request):
        self.calls += 1
        if self.delay and request.path.startswith(self.slow_prefix):
            yield sys_sleep(self.delay)
        return HttpResponse(
            200, body=self.body, headers={"Content-Type": "text/plain"}
        )


def start_upstream(rt, handler=None, site=None, name="upstream"):
    listener = make_listener()
    server = build_live_server(
        rt, listener,
        site=site if site is not None else {"data": b"from-upstream"},
        handler=handler, name=name,
    )
    rt.spawn(server.main(), name=name)
    return listener, server


def start_gateway(rt, routes, name="gateway", **kwargs):
    listener = make_listener()
    kwargs.setdefault("probe_interval", 0.05)
    server = build_gateway(rt, listener, routes, name=name, **kwargs)
    rt.spawn(server.main(), name=name)
    return listener, server


def front_client(rt, listener, **kwargs) -> HttpClient:
    kwargs.setdefault("pool_size", 4)
    return HttpClient(rt.io, rt.timers, listener.getsockname(),
                      name="front", **kwargs)


class TestRouting:
    def test_proxies_a_get_end_to_end(self, rt):
        up_listener, upstream = start_upstream(
            rt, site={"data.txt": b"from-upstream"}
        )
        gw_listener, gateway = start_gateway(
            rt, [{"prefix": "/", "upstreams": [up_listener.getsockname()]}]
        )
        client = front_client(rt, gw_listener)
        results = []

        @do
        def body():
            response = yield client.get("/data.txt")
            results.append(response)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        (response,) = results
        assert response.status == 200
        assert response.body == b"from-upstream"
        assert response.header("content-type").startswith("text/plain")
        stats = gateway.extra_stats()
        assert stats["gw_requests"] == 1
        assert stats["gw_upstream_requests"] == 1

    def test_longest_prefix_wins_and_unrouted_is_404(self, rt):
        a_listener, a_server = start_upstream(
            rt, site={"v": b"generic"}, name="up-a"
        )
        b_listener, b_server = start_upstream(
            rt, site={"api/v": b"specific"}, name="up-b"
        )
        gw_listener, gateway = start_gateway(rt, [
            {"prefix": "/api", "upstreams": [b_listener.getsockname()]},
            {"prefix": "/", "upstreams": [a_listener.getsockname()]},
        ])
        client = front_client(rt, gw_listener)
        seen = []

        @do
        def body():
            api = yield client.get("/api/v")
            seen.append(api.body)
            root = yield client.get("/v")
            seen.append(root.body)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        for server in (a_server, b_server, gateway):
            server.stop()
        for listener in (a_listener, b_listener, gw_listener):
            listener.close()
        assert seen == [b"specific", b"generic"]

    def test_unrouted_path_is_404(self, rt):
        up_listener, upstream = start_upstream(rt)
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/api", "upstreams": [up_listener.getsockname()]}],
        )
        client = front_client(rt, gw_listener)
        statuses = []

        @do
        def body():
            response = yield client.get("/elsewhere")
            statuses.append(response.status)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        assert statuses == [404]
        assert gateway.extra_stats()["gw_not_found"] == 1


class TestPoolExhaustion:
    def test_exhausted_pool_parks_then_times_out_cleanly(self, rt):
        handler = CountingHandler(delay=1.0, slow_prefix="/slow")
        up_listener, upstream = start_upstream(rt, handler=handler)
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/", "upstreams": [up_listener.getsockname()]}],
            pool_size=1, request_timeout=0.25, cache_ttl=0.0,
        )
        client = front_client(rt, gw_listener, pool_size=3,
                              request_timeout=5.0)
        statuses = []

        @do
        def one(index):
            # Distinct paths so coalescing cannot merge the requests.
            response = yield client.get(f"/slow/{index}")
            statuses.append(response.status)

        @do
        def body():
            handles = []
            for index in range(3):
                handle = yield spawn(one(index), name=f"req-{index}")
                handles.append(handle)
                if index == 0:
                    yield sys_sleep(0.02)  # the first request leases
            yield join_all(handles)
            # The gateway survived the pile-up: a fast path still works.
            ok = yield client.get("/fast")
            statuses.append(ok.status)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        assert statuses[:3] == [504, 504, 504]
        assert statuses[3] == 200
        pool = gateway.gateway.routes[0].clients[0].pool
        assert pool.lease_timeouts >= 1  # at least one waiter parked out
        assert pool.waiting == 0  # nothing left stranded


class TestUpstreamHealth:
    def test_down_upstream_is_502_then_readmitted_after_reprobe(self, rt):
        # Reserve a port, then leave it closed: the upstream is "down".
        placeholder = socket.socket()
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        gw_listener, gateway = start_gateway(
            rt, [{"prefix": "/", "upstreams": [address]}],
            connect_timeout=0.3, probe_interval=0.05, cache_ttl=0.0,
        )
        client = front_client(rt, gw_listener)
        stages = []
        revived = []

        @do
        def body():
            first = yield client.get("/data")
            stages.append(("dead", first.status))
            assert gateway.extra_stats()["gw_upstreams_down"] == 1
            # Revive the upstream on the same port; the pool's re-probe
            # must readmit it without any gateway restart.
            listener = make_listener(address[0], address[1])
            revived.append(listener)
            server = build_live_server(
                rt, listener, site={"data": b"back"}, name="revived"
            )
            revived.append(server)
            yield spawn(server.main(), name="revived")
            pool = gateway.gateway.routes[0].clients[0].pool
            for _ in range(200):
                if not pool.down:
                    break
                yield sys_sleep(0.02)
            second = yield client.get("/data")
            stages.append(("revived", second.status, second.body))
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        gateway.stop()
        if len(revived) > 1:
            revived[1].stop()
        if revived:
            revived[0].close()
        gw_listener.close()
        assert stages[0] == ("dead", 502)
        assert stages[1] == ("revived", 200, b"back")
        pool = gateway.gateway.routes[0].clients[0].pool
        assert pool.downs == 1
        assert pool.readmissions == 1
        assert gateway.extra_stats()["gw_upstreams_down"] == 0

    def test_ambiguous_upstream_framing_is_502(self, rt):
        # An upstream answering with both Transfer-Encoding and
        # Content-Length is not relayed (the gateway would be choosing
        # which reading its own clients get): 502, and the upstream
        # connection is discarded with whatever the peer appended.
        address, finish = raw_upstream(AMBIGUOUS_RESPONSE + b"trailing junk")
        gw_listener, gateway = start_gateway(
            rt, [{"prefix": "/", "upstreams": [address]}], cache_ttl=0.0,
        )
        client = front_client(rt, gw_listener)
        results = []

        @do
        def body():
            response = yield client.get("/data")
            results.append(response)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        finish()
        gateway.stop()
        gw_listener.close()
        assert results[0].status == 502
        pool = gateway.gateway.routes[0].clients[0].pool
        assert pool.idle == 0 and pool.discards == 1
        assert gateway.extra_stats()["gw_bad_gateway"] == 1

    def test_failover_masks_one_dead_upstream(self, rt):
        up_listener, upstream = start_upstream(rt)
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        dead_address = dead.getsockname()
        dead.close()
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/", "upstreams": [
                dead_address, up_listener.getsockname(),
            ]}],
            connect_timeout=0.3, cache_ttl=0.0,
        )
        client = front_client(rt, gw_listener)
        bodies = []

        @do
        def body():
            for _ in range(4):
                response = yield client.get("/data")
                bodies.append((response.status, response.body))
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        assert bodies == [(200, b"from-upstream")] * 4
        stats = gateway.extra_stats()
        assert stats["gw_failovers"] >= 1
        assert stats["gw_bad_gateway"] == 0


class TestCoalescing:
    def test_fifty_concurrent_gets_cost_one_upstream_request(self, rt):
        handler = CountingHandler(body=b"expensive", delay=0.25)
        up_listener, upstream = start_upstream(rt, handler=handler)
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/", "upstreams": [up_listener.getsockname()]}],
            cache_ttl=0.0,  # isolate coalescing from the cache
        )
        client = front_client(rt, gw_listener, pool_size=50,
                              request_timeout=10.0)
        bodies = []

        @do
        def one():
            response = yield client.get("/hot")
            bodies.append(response.body)

        @do
        def body():
            handles = []
            for index in range(50):
                handle = yield spawn(one(), name=f"dup-{index}")
                handles.append(handle)
            yield join_all(handles)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        assert bodies == [b"expensive"] * 50
        assert handler.calls == 1  # one upstream fetch for all fifty
        stats = gateway.extra_stats()
        assert stats["gw_requests"] == 50
        assert stats["gw_upstream_requests"] == 1
        assert stats["gw_coalesced"] == 49
        assert stats["gw_inflight"] == 0  # the flight table drained

    def test_cache_serves_repeat_gets_within_ttl(self, rt):
        handler = CountingHandler(body=b"cacheable")
        up_listener, upstream = start_upstream(rt, handler=handler)
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/", "upstreams": [up_listener.getsockname()]}],
            cache_ttl=10.0,
        )
        client = front_client(rt, gw_listener)
        bodies = []

        @do
        def body():
            for _ in range(3):
                response = yield client.get("/page")
                bodies.append(response.body)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        assert bodies == [b"cacheable"] * 3
        assert handler.calls == 1
        stats = gateway.extra_stats()
        assert stats["gw_cache_hits"] == 2
        assert stats["gw_upstream_requests"] == 1


class TestKeepAliveReuse:
    def test_upstream_connections_are_reused_across_requests(self, rt):
        up_listener, upstream = start_upstream(rt)
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/", "upstreams": [up_listener.getsockname()]}],
            pool_size=2, cache_ttl=0.0,
        )
        client = front_client(rt, gw_listener)
        count = 20
        statuses = []

        @do
        def body():
            for _ in range(count):
                response = yield client.get("/data")
                statuses.append(response.status)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        upstream.stop()
        gateway.stop()
        up_listener.close()
        gw_listener.close()
        assert statuses == [200] * count
        # The upstream's own accept counter is the ground truth: the
        # gateway ran twenty requests over at most two sockets.
        assert upstream.stats.connections <= 2
        stats = gateway.extra_stats()
        assert stats["gw_pool_dials"] <= 2
        assert stats["gw_pool_reuses"] / stats["gw_pool_leases"] >= 0.9


class TestFanout:
    def test_fanout_merges_and_tolerates_partial_failure(self, rt):
        a_listener, a_server = start_upstream(
            rt, site={"all": b"alpha"}, name="up-a"
        )
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        dead_address = dead.getsockname()
        dead.close()
        gw_listener, gateway = start_gateway(
            rt,
            [{"prefix": "/", "policy": "fanout", "upstreams": [
                a_listener.getsockname(), dead_address,
            ]}],
            connect_timeout=0.3, cache_ttl=0.0,
        )
        client = front_client(rt, gw_listener)
        results = []

        @do
        def body():
            response = yield client.get("/all")
            results.append(response)
            yield client.close()
            yield gateway.gateway.close()

        run(rt, body())
        a_server.stop()
        gateway.stop()
        a_listener.close()
        gw_listener.close()
        (response,) = results
        assert response.status == 200
        merged = json.loads(response.body)
        assert merged["ok"] == 1
        assert merged["failed"] == 1
        entries = {entry["upstream"]: entry for entry in merged["results"]}
        assert entries[0]["body"] == "alpha"
        assert "error" in entries[1]
        assert gateway.extra_stats()["gw_fanouts"] == 1


class TestResponseCacheUnit:
    def test_ttl_expiry_and_byte_cap(self):
        cache = ResponseCache(capacity_bytes=10, ttl=1.0)
        big = HttpResponse(200, body=b"x" * 11)
        assert not cache.put("/big", big, now=0.0)
        assert cache.put("/a", HttpResponse(200, body=b"aaaa"), now=0.0)
        assert cache.put("/b", HttpResponse(200, body=b"bbbb"), now=0.0)
        assert cache.get("/a", now=0.5).body == b"aaaa"
        # /c (4 bytes) forces an eviction of the LRU entry (/b).
        assert cache.put("/c", HttpResponse(200, body=b"cccc"), now=0.5)
        assert cache.get("/b", now=0.5) is None
        assert cache.evictions == 1
        # Everything expires past the TTL.
        assert cache.get("/a", now=2.0) is None
        assert cache.expirations == 1
