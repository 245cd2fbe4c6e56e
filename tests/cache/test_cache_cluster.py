"""Acceptance: off-the-shelf-compatible clients against a replicated
4-shard cluster through the cache front-ends.

The blocking clients speak the real wire protocols (they would work
against memcached / Redis), every shard joins one SO_REUSEPORT cache
port, and owner routing means a single connection — pinned to whichever
shard the kernel picked — answers keys owned by *every* shard.  The
egress-batching acceptance (>1 response frame per gathered write on
pipelined batches) is read back through the control-plane counters.
"""

from __future__ import annotations

import time

import pytest

from repro.api import ClusterServer, build_kv
from repro.app.kv import HashRing
from repro.cache.client import (
    BlockingMemcacheClient,
    BlockingRespClient,
    RespError,
)
from repro.http.blocking_client import BlockingHttpClient

SHARDS = 4


def kv_factory(ctx):
    return build_kv(ctx=ctx)


def keys_owned_by_every_shard(count_per_shard: int = 4) -> dict[int, list[str]]:
    """Deterministic keys per owning shard, via the same ring the nodes
    build (same shard count, same vnode default)."""
    ring = HashRing(SHARDS)
    owned: dict[int, list[str]] = {index: [] for index in range(SHARDS)}
    index = 0
    while any(len(keys) < count_per_shard for keys in owned.values()):
        key = f"spread:{index}"
        owner = ring.owner(key)
        if len(owned[owner]) < count_per_shard:
            owned[owner].append(key)
        index += 1
    return owned


class TestMemcacheCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        server = ClusterServer(
            kv_factory, shards=SHARDS, mesh=True,
            replication=2, write_quorum=1,
            cache_port=0, cache_protocol="memcache", grace=0.1,
        )
        server.start()
        yield server
        server.stop()

    def test_every_shard_answers_any_key(self, cluster):
        owned = keys_owned_by_every_shard()
        all_keys = [key for keys in owned.values() for key in keys]
        with BlockingMemcacheClient(cluster.cache_port) as client:
            # One connection lands on ONE shard; storing and reading
            # keys owned by all four proves owner routing under the
            # memcache dialect.
            for key in all_keys:
                assert client.set(key, f"value-{key}".encode())
            for key in all_keys:
                assert client.get(key) == f"value-{key}".encode()
            values = client.get_many(all_keys)
            assert set(values) == set(all_keys)
        # Fresh connections (any shard) see the same data.
        for _ in range(3):
            with BlockingMemcacheClient(cluster.cache_port) as client:
                values = client.get_many(all_keys)
                assert values == {
                    key: f"value-{key}".encode() for key in all_keys
                }

    def test_pipelined_set_get_delete_and_cas(self, cluster):
        with BlockingMemcacheClient(cluster.cache_port) as client:
            assert client.pipeline_set(
                [(f"pipe:{i}", b"v%d" % i) for i in range(16)]
            ) == 16
            batches = [[f"pipe:{i}" for i in range(j, j + 4)]
                       for j in range(0, 16, 4)]
            replies = client.pipeline_get(batches)
            assert len(replies) == 4
            for j, values in zip(range(0, 16, 4), replies):
                assert values == {
                    f"pipe:{i}": b"v%d" % i for i in range(j, j + 4)
                }
            value, cas = client.gets("pipe:0")
            assert value == b"v0" and isinstance(cas, int)
            assert client.delete("pipe:0")
            assert client.get("pipe:0") is None
            assert not client.delete("pipe:0")

    def test_interop_with_http_facade(self, cluster):
        # One store, two dialects: memcache writes, HTTP reads (and the
        # other way around).
        with BlockingMemcacheClient(cluster.cache_port) as cache:
            assert cache.set("interop:mc", b"from-memcache")
            with BlockingHttpClient(cluster.port) as http:
                status, _, body = http.request("GET", "/kv/interop:mc")
                assert status.endswith("200 OK")
                assert body == b"from-memcache"
                status, _, _ = http.request("PUT", "/kv/interop:http",
                                            b"from-http")
                assert status.split()[1] in ("201", "204")
            assert cache.get("interop:http") == b"from-http"

    def test_batching_counters_visible_in_cluster_stats(self, cluster):
        with BlockingMemcacheClient(cluster.cache_port) as client:
            client.pipeline_set([(f"ctr:{i}", b"x") for i in range(8)])
            client.pipeline_get([[f"ctr:{i}"] for i in range(8)])
        stats = cluster.stats()
        aggregate = stats["aggregate"]["app"]
        assert aggregate["cache_commands"] > 0
        assert aggregate["cache_send_batches"] > 0
        # The acceptance criterion: pipelined batches mean more than one
        # response frame per gathered egress write.
        assert (aggregate["cache_responses"]
                / aggregate["cache_send_batches"]) > 1
        assert aggregate["cache_pipelined_batches"] > 0
        assert aggregate["cache_max_responses_per_batch"] > 1
        assert stats["aggregate"]["workers_reporting"] == SHARDS


class TestRespCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        server = ClusterServer(
            kv_factory, shards=SHARDS, mesh=True,
            replication=2, write_quorum=1,
            cache_port=0, cache_protocol="resp", grace=0.1,
        )
        server.start()
        yield server
        server.stop()

    def test_every_shard_answers_any_key(self, cluster):
        owned = keys_owned_by_every_shard()
        all_keys = [key for keys in owned.values() for key in keys]
        with BlockingRespClient(cluster.cache_port) as client:
            assert client.execute("PING") == "PONG"
            for key in all_keys:
                assert client.execute("SET", key, f"v-{key}") == "OK"
            values = client.execute("MGET", *all_keys)
            assert values == [f"v-{key}".encode() for key in all_keys]
            assert client.execute("DEL", all_keys[0]) == 1
            assert client.execute("GET", all_keys[0]) is None

    def test_pipelined_mixed_commands(self, cluster):
        with BlockingRespClient(cluster.cache_port) as client:
            replies = client.pipeline(
                [("SET", "p:a", "1"), ("SET", "p:b", "2"),
                 ("MGET", "p:a", "p:b", "p:ghost"),
                 ("EXISTS", "p:a", "p:ghost"),
                 ("UNKNOWNCMD",), ("PING",)]
            )
            assert replies[0] == "OK" and replies[1] == "OK"
            assert replies[2] == [b"1", b"2", None]
            assert replies[3] == 1
            assert isinstance(replies[4], RespError)
            assert replies[5] == "PONG"

    def test_interop_with_http_facade(self, cluster):
        with BlockingRespClient(cluster.cache_port) as cache:
            assert cache.execute("SET", "interop:resp", b"from-resp") == "OK"
            with BlockingHttpClient(cluster.port) as http:
                status, _, body = http.request("GET", "/kv/interop:resp")
                assert status.endswith("200 OK")
                assert body == b"from-resp"


class TestBurstBudget:
    """What one pipelined burst costs, from the program's own counters
    (like ``tests/runtime/test_mesh.py::TestCallBudget``): the batch
    plan regressing fails here in seconds, not after a
    ``--workload cache_pipeline`` run."""

    @pytest.fixture(scope="class")
    def cluster(self):
        server = ClusterServer(
            kv_factory, shards=3, mesh=True, replication=2, write_quorum=1,
            cache_port=0, cache_protocol="memcache", grace=0.1,
        )
        server.start()
        yield server
        server.stop()

    @staticmethod
    def counters(cluster):
        workers = cluster.stats()["workers"]
        return {
            "calls": sum(w["mesh"]["calls"] for w in workers),
            "batches": sum(w["app"]["cache_send_batches"] for w in workers),
            "commands": sum(w["app"]["cache_commands"] for w in workers),
            "max_frames": max(w["mesh"]["max_frames_per_flush"]
                              for w in workers),
        }

    def test_set_burst_overlaps_and_get_burst_is_one_round(self, cluster):
        keys = [f"burst:{i}" for i in range(32)]
        with BlockingMemcacheClient(cluster.cache_port) as client:
            before = self.counters(cluster)
            assert before["max_frames"] <= 1
            # 8 sets to distinct keys in one write: their replica
            # writes are in flight together, so frames to one peer
            # share a flush.  Serial execution never batches here.
            assert client.pipeline_set(
                [(key, key.encode()) for key in keys[:8]]
            ) == 8
            after_sets = self.counters(cluster)
            assert after_sets["max_frames"] > 1
            assert after_sets["batches"] - before["batches"] == 1
            client.pipeline_set([(key, key.encode()) for key in keys[8:]])

            before = self.counters(cluster)
            replies = client.pipeline_get(
                [keys[j:j + 4] for j in range(0, 32, 4)]
            )
            after = self.counters(cluster)
        assert replies == [
            {key: key.encode() for key in keys[j:j + 4]}
            for j in range(0, 32, 4)
        ]
        # 32 keys on 3 shards, replication 2: the landing shard reads
        # every key it holds, and both other shards hold every key it
        # lacks, so the rest is one mget to one fixed peer.
        assert after["calls"] - before["calls"] == 1
        assert after["batches"] - before["batches"] == 1
        assert after["commands"] - before["commands"] == 8


class TestGracefulStop:
    def test_a_replicated_cluster_stops_inside_its_drain_window(self):
        # Every shard stops at once, and each pushes the keys it holds to
        # their other replica.  A peer's mesh keeps serving through its
        # own drain window, so no push waits out the 5 s mesh call
        # timeout, and the window ends on its own deadlines.
        server = ClusterServer(
            kv_factory, shards=3, mesh=True, replication=2, write_quorum=1,
            cache_port=0, cache_protocol="memcache", grace=0.1,
        )
        server.start()
        try:
            with BlockingMemcacheClient(server.cache_port) as client:
                assert client.pipeline_set(
                    [(f"stop:{i}", b"v%d" % i) for i in range(40)]
                ) == 40
        finally:
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 1.5, f"stop() took {elapsed:.2f} s"
