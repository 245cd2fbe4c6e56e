"""A sharded KV cluster — consistent hashing + shard-to-shard mesh, live.

Four shard processes serve one ``SO_REUSEPORT`` port.  Keys are placed on
shards by a consistent-hash ring; each shard holds a persistent mesh link
to every peer, so *any* shard answers *any* key: ops on keys it owns run
locally, the rest are proxied to the owner over the data plane.  Multi-key
ops fan out and merge: ``/mget`` reads each key by the same rule as
``GET`` (this shard's copy, else one fixed peer's), ``/kv-stats`` asks
every shard.

With ``--replication N`` every key lives on its N ring successors:
writes fan out to all replicas (``--quorum`` acks required to succeed,
hinted handoff parks writes for downed replicas).  A read goes to one
replica once the landing shard has caught up (one anti-entropy exchange
with each peer since it started); a shard that has not, or whose chosen
peer is dead, reads every replica and read-repairs stale ones.  Kill a
shard mid-serve and every key stays readable; the master respawns it,
the parked hints replay, and anti-entropy (one digest exchange per peer
each second) heals what no hint covers — a replica diverged without a
restart serves its stale copy until that round.  Watch the ``hints``
and ``anti_entropy`` counters in ``--serve`` mode, or follow the
kill-a-shard walkthrough in ``benchmarks/README.md``.

With ``--wal-dir PATH`` every shard keeps a write-ahead log under that
root and acks writes only after a group-commit fsync.  The demo then ends
with a durability drill: one shard is killed with a real ``SIGKILL``
(nothing graceful — the process just stops existing), respawned, and the
recovery counters are printed — the respawned shard found its log and
replayed it, so every previously acked key reads back.

Run with::

    python examples/kv_server.py              # demo: write, read, stats
    python examples/kv_server.py --serve      # run until Ctrl-C
    python examples/kv_server.py --serve --duration 10   # self-stop
    python examples/kv_server.py --shards 8   # more shards
    python examples/kv_server.py --replication 2         # replicated
    python examples/kv_server.py --replication 3 --quorum 2
    python examples/kv_server.py --wal-dir /tmp/kv-wal   # durable

``--duration`` is an internal deadline (seconds): serving stops cleanly on
its own, so CI and scripts need no external ``timeout`` wrapper.
"""

from __future__ import annotations

import base64
import json
import os
import signal
import sys
import time

from repro.api import ClusterServer, build_kv
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
    replication = 1
    if "--replication" in sys.argv:
        replication = int(sys.argv[sys.argv.index("--replication") + 1])
        # The store clamps to the shard count; mirror that here so the
        # printed banner and the demo's assertions match reality.
        replication = max(1, min(replication, shards))
    quorum = 1
    if "--quorum" in sys.argv:
        quorum = int(sys.argv[sys.argv.index("--quorum") + 1])
        quorum = max(1, min(quorum, replication))
    wal_dir = None
    if "--wal-dir" in sys.argv:
        wal_dir = sys.argv[sys.argv.index("--wal-dir") + 1]

    cluster = ClusterServer(app_factory, shards=shards, mesh=True,
                            replication=replication, write_quorum=quorum,
                            wal_dir=wal_dir)
    cluster.start()
    print(f"{shards} KV shards serving http://127.0.0.1:{cluster.port} "
          f"(replication={replication}, write_quorum={quorum}, "
          + (f"wal_dir={wal_dir}, " if wal_dir else "")
          + f"pids {cluster.worker_pids()}, mesh ports "
          f"{cluster.config.mesh_ports})")

    if "--serve" in sys.argv:
        deadline = None if duration is None else time.monotonic() + duration
        try:
            while deadline is None or time.monotonic() < deadline:
                remaining = (2.0 if deadline is None
                             else min(2.0, max(0.0,
                                               deadline - time.monotonic())))
                time.sleep(remaining)
                aggregate = cluster.stats()["aggregate"]
                kv = aggregate.get("app", {})
                mesh = aggregate.get("mesh", {})
                line = (f"  requests={aggregate['requests']} "
                        f"keys={kv.get('kv_keys', 0)} "
                        f"owned={kv.get('kv_owned_ops', 0)} "
                        f"proxied={kv.get('kv_proxied_ops', 0)} "
                        f"mesh_calls={mesh.get('calls', 0)}")
                if replication > 1:
                    line += (
                        f" replica_writes={kv.get('kv_replica_writes', 0)}"
                        f" repairs={kv.get('kv_read_repairs', 0)}"
                        f" hints={kv.get('kv_hints_pending', 0)}"
                        f" replayed={kv.get('kv_hints_replayed', 0)}"
                        f" anti_entropy_applied="
                        f"{kv.get('kv_anti_entropy_applied', 0)}"
                    )
                if wal_dir:
                    line += (
                        f" wal_fsyncs={kv.get('wal_fsyncs', 0)}"
                        f" wal_records={kv.get('wal_appends', 0)}"
                        f" wal_group_max={kv.get('wal_group_max', 0)}"
                    )
                print(line)
            print(f"duration {duration:.0f}s elapsed; stopping")
        except KeyboardInterrupt:
            pass
        finally:
            cluster.stop()
        return

    # Demo: write and read keys through one connection (pinned to one
    # shard by the kernel — proxying still reaches every owner).
    client = BlockingHttpClient(cluster.port)
    keys = {f"user:{i}": f"value-{i}".encode() for i in range(16)}
    sources = {"local": 0, "proxied": 0}
    full_acks = 0
    for key, value in keys.items():
        status, headers, _ = client.request("PUT", f"/kv/{key}", value)
        assert status.split()[1] in ("201", "204"), status
        full_acks += (headers.get("x-kv-replicas")
                      == f"{replication}/{replication}")
    if replication > 1:
        print(f"{full_acks}/{len(keys)} writes acked by all "
              f"{replication} replicas (X-Kv-Replicas)")
    for key, value in keys.items():
        status, headers, body = client.request("GET", f"/kv/{key}")
        assert status.endswith("200 OK"), status
        assert body == value
        sources[headers["x-kv-source"]] += 1
    print(f"read {len(keys)} keys through one shard: "
          f"{sources['local']} local, {sources['proxied']} proxied "
          "(every shard answers any key)")

    # Cross-shard multi-get, merged by the coordinating shard.
    spec = ",".join(keys)
    status, _headers, body = client.request("GET", f"/mget?keys={spec}")
    assert status.endswith("200 OK"), status
    values = json.loads(body)["values"]
    assert all(
        base64.b64decode(values[key]) == value
        for key, value in keys.items()
    )
    print(f"mget merged {len(values)} keys across shards")

    # Cluster-wide stats, streamed with chunked transfer encoding.
    status, headers, body = client.request("GET", "/kv-stats")
    assert headers.get("transfer-encoding") == "chunked"
    for line in body.splitlines():
        entry = json.loads(line)
        print(f"  shard {entry['index']}: keys={entry['keys']} "
              f"owned={entry['owned_ops']} proxied={entry['proxied_ops']} "
              f"mesh_served={entry['mesh_served_ops']}")
    client.close()

    aggregate = cluster.stats()["aggregate"]
    # Summed across shards, each key appears once per replica.
    assert aggregate["app"]["kv_keys"] == len(keys) * replication
    assert aggregate["app"]["kv_proxied_ops"] > 0, "no op crossed the mesh"

    if wal_dir:
        # The durability drill: every ack above waited for a WAL group
        # commit, so a shard can vanish without warning and come back
        # with its state.  SIGKILL delivers no handler, no drain.
        kv = aggregate["app"]
        print(f"wal: {kv.get('wal_appends', 0)} records, "
              f"{kv.get('wal_fsyncs', 0)} fsyncs "
              f"(largest group {kv.get('wal_group_max', 0)})")
        victim = 1
        os.kill(cluster.worker_pids()[victim], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while (cluster.worker_pids()[victim] is not None
               and time.monotonic() < deadline):
            time.sleep(0.02)
        cluster.poll()  # respawn; the new shard replays its log
        deadline = time.monotonic() + 15.0
        kv = {}
        while time.monotonic() < deadline:
            kv = cluster.stats()["aggregate"].get("app", {})
            if (kv.get("wal_replayed_records", 0) > 0
                    and kv.get("kv_hints_pending", 1) == 0):
                break
            time.sleep(0.1)
        print(f"shard {victim} killed (SIGKILL) and respawned: "
              f"replayed {kv.get('wal_replayed_records', 0)} log "
              f"record(s) + {kv.get('wal_replayed_snapshot_keys', 0)} "
              f"snapshot key(s), truncated "
              f"{kv.get('wal_torn_bytes_truncated', 0)} torn byte(s), "
              f"hints pending {kv.get('kv_hints_pending', 0)}")
        assert kv.get("wal_replayed_records", 0) > 0, (
            "respawned shard replayed nothing — is wal_dir writable?"
        )
        reader = BlockingHttpClient(cluster.port)
        for key, value in keys.items():
            status, _headers, body = reader.request("GET", f"/kv/{key}")
            assert status.endswith("200 OK") and body == value, (
                f"acked key {key} lost across SIGKILL"
            )
        reader.close()
        print(f"all {len(keys)} acked keys readable after kill -9")

    cluster.stop()
    print("kv cluster demo OK")


if __name__ == "__main__":
    main()
