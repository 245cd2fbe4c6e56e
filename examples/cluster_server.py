"""Multi-process sharded serving — the live runtime across cores.

The paper's §4.4 scales the hybrid model by running several ``worker_main``
event loops.  This demo runs that idea at the process level: N shard
processes, each a full ``LiveRuntime`` event loop serving HTTP on its own
``SO_REUSEPORT`` listener bound to one shared port.  The kernel hashes
connections across shards; the master aggregates stats over control pipes
and respawns any shard that dies.

Run with::

    python examples/cluster_server.py             # demo: serve, load, stats
    python examples/cluster_server.py --serve     # run until Ctrl-C
    python examples/cluster_server.py --serve --duration 10   # self-stop
    python examples/cluster_server.py --shards 4  # more shards

``--duration`` is an internal deadline (seconds): serving stops cleanly on
its own, so CI and scripts need no external ``timeout`` wrapper.
"""

from __future__ import annotations

import sys
import time

from repro.api import ClusterServer, build_server
from repro.http.blocking_client import BlockingHttpClient

SITE = {
    "index.html": b"<html><body><h1>sharded monadic threads</h1></body></html>",
    "data.bin": bytes(range(256)) * 64,
}


def app_factory(ctx):
    """One shard's application: a static site preloaded into the cache."""
    return build_server(ctx=ctx, site=SITE)


def fetch(port: int, path: str, client: BlockingHttpClient | None = None):
    """One keep-alive GET over a plain blocking socket."""
    if client is None:
        client = BlockingHttpClient(port)
    status, body = client.get(path)
    return status, body, client


def main() -> None:
    shards = 2
    if "--shards" in sys.argv:
        shards = int(sys.argv[sys.argv.index("--shards") + 1])
    duration = None
    if "--duration" in sys.argv:
        duration = float(sys.argv[sys.argv.index("--duration") + 1])

    cluster = ClusterServer(app_factory, shards=shards)
    cluster.start()
    print(f"{shards} shards serving http://127.0.0.1:{cluster.port} "
          f"(pids {cluster.worker_pids()})")

    if "--serve" in sys.argv:
        deadline = None if duration is None else time.monotonic() + duration
        try:
            while deadline is None or time.monotonic() < deadline:
                remaining = (2.0 if deadline is None
                             else min(2.0, max(0.0,
                                               deadline - time.monotonic())))
                time.sleep(remaining)
                aggregate = cluster.stats()["aggregate"]
                print(f"  conns={aggregate['accepted']} "
                      f"requests={aggregate['requests']} "
                      f"respawns={cluster.respawns}")
            print(f"duration {duration:.0f}s elapsed; stopping")
        except KeyboardInterrupt:
            pass
        finally:
            cluster.stop()
        return

    # Demo load: a handful of keep-alive clients, a few requests each.
    connections = []
    for _ in range(12):
        status, body, client = fetch(cluster.port, "index.html")
        assert status.endswith("200 OK"), status
        assert body == SITE["index.html"]
        connections.append(client)
    for client in connections:
        status, body, _ = fetch(cluster.port, "data.bin", client)
        assert status.endswith("200 OK"), status
        assert body == SITE["data.bin"]

    stats = cluster.stats()
    print(f"aggregate: {stats['aggregate']}")
    for worker in stats["workers"]:
        if worker:
            print(f"  shard {worker['index']} (pid {worker['pid']}): "
                  f"accepted={worker['accepted']} "
                  f"requests={worker['requests']}")
    accepted = [w["accepted"] for w in stats["workers"] if w]
    print(f"kernel spread {sum(accepted)} connections over {len(accepted)} "
          "shards (SO_REUSEPORT hashing)")

    for client in connections:
        client.close()
    cluster.stop()
    assert stats["aggregate"]["requests"] == 24
    print("cluster demo OK")


if __name__ == "__main__":
    main()
