"""The replicated KV cluster spoken to over cache wire protocols.

The same four-shard replicated cluster as ``kv_server.py``, with a second
``SO_REUSEPORT`` front door: every shard also accepts the memcache text
protocol (or Redis RESP2 with ``--protocol resp``) on a shared cache
port.  Any off-the-shelf client can point at it — keys are routed to
their ring owners exactly as HTTP ops are, so one connection (pinned to
whichever shard the kernel picked) answers every key.

The demo drives a *pipelined* burst — many commands in one write — and
reads back the server's egress counters to show the replies leaving in
gathered batches (more than one response frame per ``sendmsg``), the
PR-5 hot path speaking a new dialect.

Run with::

    python examples/cache_server.py                   # memcache demo
    python examples/cache_server.py --protocol resp   # RESP2 demo
    python examples/cache_server.py --serve --duration 10   # self-stop

``--duration`` is an internal deadline (seconds): serving stops cleanly
on its own, so CI and scripts need no external ``timeout`` wrapper.
"""

from __future__ import annotations

import sys
import time

from repro.api import ClusterServer, build_kv
from repro.cache.client import BlockingMemcacheClient, BlockingRespClient
from repro.http.blocking_client import BlockingHttpClient


def app_factory(ctx):
    """One shard's application: replication, quorum, durability and the
    cache port all arrive from the cluster configuration."""
    return build_kv(ctx=ctx)


def main() -> None:
    shards = 4
    if "--shards" in sys.argv:
        shards = int(sys.argv[sys.argv.index("--shards") + 1])
    duration = None
    if "--duration" in sys.argv:
        duration = float(sys.argv[sys.argv.index("--duration") + 1])
    protocol = "memcache"
    if "--protocol" in sys.argv:
        protocol = sys.argv[sys.argv.index("--protocol") + 1]
        assert protocol in ("memcache", "resp"), protocol

    cluster = ClusterServer(
        app_factory, shards=shards, mesh=True,
        replication=min(2, shards), write_quorum=1,
        cache_port=0, cache_protocol=protocol,
    )
    cluster.start()
    print(f"{shards} KV shards: http://127.0.0.1:{cluster.port} + "
          f"{protocol} on port {cluster.cache_port} "
          f"(pids {cluster.worker_pids()})")

    if "--serve" in sys.argv:
        deadline = None if duration is None else time.monotonic() + duration
        try:
            while deadline is None or time.monotonic() < deadline:
                remaining = (2.0 if deadline is None
                             else min(2.0, max(0.0,
                                               deadline - time.monotonic())))
                time.sleep(remaining)
                app = cluster.stats()["aggregate"].get("app", {})
                print(f"  cache_connections={app.get('cache_connections', 0)} "
                      f"commands={app.get('cache_commands', 0)} "
                      f"responses={app.get('cache_responses', 0)} "
                      f"send_batches={app.get('cache_send_batches', 0)} "
                      f"hits={app.get('cache_get_hits', 0)} "
                      f"misses={app.get('cache_get_misses', 0)}")
            print(f"duration {duration:.0f}s elapsed; stopping")
        except KeyboardInterrupt:
            pass
        finally:
            cluster.stop()
        return

    keys = {f"user:{i}": f"value-{i}".encode() for i in range(16)}

    if protocol == "memcache":
        with BlockingMemcacheClient(cluster.cache_port) as client:
            # Pipelined writes: sixteen sets leave the client in ONE
            # write; the sixteen STORED replies come back batched.
            stored = client.pipeline_set(sorted(keys.items()))
            assert stored == len(keys), f"only {stored} stored"
            print(f"pipelined {len(keys)} sets in one write "
                  f"({stored} STORED)")
            # Pipelined multi-key reads over the one pinned connection:
            # every key answers, whichever shard owns it.
            names = sorted(keys)
            batches = [names[i:i + 4] for i in range(0, len(names), 4)]
            replies = client.pipeline_get(batches)
            got = {key: value for values in replies
                   for key, value in values.items()}
            assert got == keys, "pipelined multi-get lost keys"
            print(f"pipelined {len(batches)} multi-key gets: "
                  f"{len(got)}/{len(keys)} keys via one connection")
            counters = client.stats()
            print(f"  server: version {client.version()}, "
                  f"kv_keys={counters['kv_keys']}, "
                  f"responses={counters['responses']} in "
                  f"send_batches={counters['send_batches']}")
    else:
        with BlockingRespClient(cluster.cache_port) as client:
            assert client.execute("PING") == "PONG"
            replies = client.pipeline(
                [("SET", key, value) for key, value in sorted(keys.items())]
            )
            assert replies == ["OK"] * len(keys), replies
            print(f"pipelined {len(keys)} SETs in one write (all +OK)")
            names = sorted(keys)
            values = client.execute("MGET", *names)
            assert values == [keys[key] for key in names]
            print(f"MGET answered {len(values)}/{len(keys)} keys "
                  f"via one connection")

    # Interop: the cache dialects and the HTTP facade share one store.
    with BlockingHttpClient(cluster.port) as http:
        status, _headers, body = http.request("GET", "/kv/user:0")
        assert status.endswith("200 OK"), status
        assert body == keys["user:0"]
    print("HTTP facade read a cache-written key (one store, two dialects)")

    app = cluster.stats()["aggregate"].get("app", {})
    responses = app.get("cache_responses", 0)
    batches = app.get("cache_send_batches", 0)
    assert batches > 0 and responses / batches > 1, (
        f"pipelined replies did not batch ({responses} responses in "
        f"{batches} writes)"
    )
    print(f"egress batching: {responses} response frames in {batches} "
          f"gathered writes ({responses / batches:.1f} per syscall)")
    cluster.stop()
    print(f"cache cluster demo OK ({protocol})")


if __name__ == "__main__":
    main()
