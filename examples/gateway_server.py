"""An API gateway in front of a static cluster — the outbound stack, live.

Two clusters run side by side: an upstream static-file cluster, and a
gateway cluster (``repro.app.gateway``) routing ``/`` at it.  Each
gateway shard keeps a bounded :class:`~repro.runtime.pool.ConnectionPool`
of keep-alive connections to the upstream (leases and request deadlines
are entries on the shard's shared timer wheel — no timer threads), and
duplicate in-flight GETs coalesce: N concurrent misses on one path cost
ONE upstream fetch, with every waiter handed a copy of the response.

Run with::

    python examples/gateway_server.py             # demo: proxy, pool, burst
    python examples/gateway_server.py --serve     # run until Ctrl-C
    python examples/gateway_server.py --serve --duration 10   # self-stop
    python examples/gateway_server.py --shards 4  # more gateway shards

``--duration`` is an internal deadline (seconds): serving stops cleanly
on its own, so CI and scripts need no external ``timeout`` wrapper.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.api import ClusterServer, build_gateway, build_server
from repro.http.blocking_client import BlockingHttpClient

SITE = {f"page-{index}.html": f"<html>page {index}</html>".encode()
        for index in range(16)}
SITE["hot.html"] = b"<html>" + b"h" * 1024 + b"</html>"


def upstream_factory(ctx):
    return build_server(ctx=ctx, site=SITE)


def make_gateway_factory(upstream_port: int):
    def gateway_factory(ctx):
        return build_gateway(
            ctx=ctx,
            routes=[{
                "prefix": "/",
                "upstreams": [("127.0.0.1", upstream_port)],
            }],
            pool_size=4,
            cache_ttl=0.25,
        )
    return gateway_factory


def main() -> None:
    shards = 2
    if "--shards" in sys.argv:
        shards = int(sys.argv[sys.argv.index("--shards") + 1])
    duration = None
    if "--duration" in sys.argv:
        duration = float(sys.argv[sys.argv.index("--duration") + 1])

    upstream = ClusterServer(upstream_factory, shards=2)
    upstream.start()
    gateway = ClusterServer(make_gateway_factory(upstream.port),
                            shards=shards)
    gateway.start()
    print(f"{shards} gateway shards on http://127.0.0.1:{gateway.port} "
          f"proxying 2 upstream shards on 127.0.0.1:{upstream.port} "
          f"(gateway pids {gateway.worker_pids()})")

    def gw_stats() -> dict:
        return gateway.stats()["aggregate"].get("app", {})

    if "--serve" in sys.argv:
        deadline = None if duration is None else time.monotonic() + duration
        try:
            while deadline is None or time.monotonic() < deadline:
                remaining = (2.0 if deadline is None
                             else min(2.0, max(0.0,
                                               deadline - time.monotonic())))
                time.sleep(remaining)
                app = gw_stats()
                leases = app.get("gw_pool_leases", 0)
                reuses = app.get("gw_pool_reuses", 0)
                print(f"  requests={app.get('gw_requests', 0)} "
                      f"upstream={app.get('gw_upstream_requests', 0)} "
                      f"coalesced={app.get('gw_coalesced', 0)} "
                      f"cache_hits={app.get('gw_cache_hits', 0)} "
                      f"dials={app.get('gw_pool_dials', 0)} "
                      f"reuse={reuses / leases if leases else 0.0:.3f} "
                      f"failovers={app.get('gw_failovers', 0)}")
            print(f"duration {duration:.0f}s elapsed; stopping")
        except KeyboardInterrupt:
            pass
        finally:
            gateway.stop()
            upstream.stop()
        return

    # Demo 1 — proxying + the response cache: repeated GETs of one path
    # through one connection; only the first reaches the upstream.
    client = BlockingHttpClient(gateway.port)
    for _ in range(8):
        status, body = client.get("hot.html")
        assert status.endswith("200 OK"), status
        assert body == SITE["hot.html"]
    app = gw_stats()
    print(f"8 GETs of one hot path: {app.get('gw_cache_hits', 0)} served "
          f"from the gateway response cache")

    # Demo 2 — the connection pool: 16 distinct paths all miss the
    # cache, so each is an upstream fetch — over a handful of pooled
    # keep-alive connections, not 16 dials.
    for index in range(16):
        status, body = client.get(f"page-{index}.html")
        assert status.endswith("200 OK"), status
        assert body == SITE[f"page-{index}.html"]
    client.close()
    app = gw_stats()
    leases = app.get("gw_pool_leases", 0)
    reuses = app.get("gw_pool_reuses", 0)
    print(f"16 distinct paths: {app.get('gw_upstream_requests', 0)} "
          f"upstream fetches over {app.get('gw_pool_dials', 0)} dialed "
          f"connections (reuse ratio "
          f"{reuses / leases if leases else 0.0:.3f})")
    assert app.get("gw_bad_gateway", 0) == 0
    assert reuses > 0, "pooled connections were never reused"

    # Demo 3 — coalescing: a burst of concurrent GETs on one cold path.
    # The first to miss becomes the leader and fetches; the rest park on
    # the in-flight entry and share the one response.
    barrier = threading.Barrier(16)
    statuses: list[str] = []

    def burst():
        with BlockingHttpClient(gateway.port) as c:
            barrier.wait(timeout=10)
            status, body = c.get("page-0.html")
            assert body == SITE["page-0.html"]
            statuses.append(status)

    time.sleep(0.3)  # let demo 2's cache entry for page-0 expire
    threads = [threading.Thread(target=burst) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=15)
    assert len(statuses) == 16
    assert all(status.endswith("200 OK") for status in statuses)
    app = gw_stats()
    print(f"16-thread burst on one path: coalesced="
          f"{app.get('gw_coalesced', 0)}, cache_hits="
          f"{app.get('gw_cache_hits', 0)} (concurrent misses share one "
          f"upstream fetch; the rest hit the fresh cache entry)")

    gateway.stop()
    upstream.stop()
    print("gateway demo OK")


if __name__ == "__main__":
    main()
