"""The sharded KV service: ring placement, mesh proxying, fan-out merges,
and the full 4-shard cluster serving KV traffic where every shard answers
any key."""

from __future__ import annotations

import base64
import collections
import functools
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterServer
from repro.app import kv
from repro.app.kv import HashRing, KvHttpHandler, KvNode, KvQuorumError
from repro.app.record import decode_run, is_run
from repro.core.do_notation import do
from repro.core.scheduler import Scheduler
from repro.http.blocking_client import BlockingHttpClient
from repro.http.message import HttpError, HttpRequest
from repro.runtime.live_runtime import LiveRuntime
from repro.runtime.mesh import MeshError

from .test_kv_replication import _drive_error, kv_factory, make_world


# ----------------------------------------------------------------------
# The ring.
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        first = HashRing(4)
        second = HashRing(4)
        keys = [f"key-{i}" for i in range(200)]
        assert [first.owner(k) for k in keys] == [
            second.owner(k) for k in keys
        ]

    def test_every_shard_owns_some_keys(self):
        ring = HashRing(4)
        owners = collections.Counter(
            ring.owner(f"key-{i}") for i in range(1000)
        )
        assert sorted(owners) == [0, 1, 2, 3]
        # Consistent hashing with 64 vnodes: no shard is starved.
        assert min(owners.values()) > 50

    def test_growing_the_ring_moves_few_keys(self):
        # The consistent-hashing property: adding a shard remaps roughly
        # 1/n of the keys, not all of them.
        small = HashRing(4)
        large = HashRing(5)
        keys = [f"key-{i}" for i in range(1000)]
        moved = sum(
            1 for k in keys if small.owner(k) != large.owner(k)
        )
        assert 0 < moved < 500

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


def _placement_digest(shards: int, replication: int) -> str:
    ring = HashRing(shards, replication=replication)
    placement = bytes(shard for i in range(1024)
                      for shard in ring.replicas(f"key-{i:04d}"))
    return hashlib.sha256(placement).hexdigest()


class TestPlacementMemo:
    """``replicas``/``owner`` answer from a memo over per-point lists;
    ``successors`` walks the ring afresh and is the reference."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_memo_agrees_with_the_walk(self, shards, replication):
        ring = HashRing(shards, replication=replication)
        keys = [f"key-{i}" for i in range(2000)]
        for _pass in range(2):  # cold, then from the memo
            for key in keys:
                assert ring.replicas(key) == ring.successors(
                    key, replication)
                assert ring.owner(key) == ring.successors(key, 1)[0]

    @given(st.text(), st.integers(1, 5), st.integers(1, 3))
    def test_any_text_key(self, key, shards, replication):
        # st.text() includes lone surrogates ("surrogatepass" hashing).
        ring = HashRing(shards, replication=replication)
        assert ring.replicas(key) == ring.successors(key, replication)
        assert ring.owner(key) == ring.successors(key, 1)[0]

    def test_a_repeated_key_is_not_hashed_again(self, monkeypatch):
        ring = HashRing(3, replication=2)
        first = ring.replicas("alpha")
        calls = []
        point = ring._point
        monkeypatch.setattr(ring, "_point",
                            lambda key: calls.append(key) or point(key))
        for _ in range(10):
            assert ring.replicas("alpha") is first
            assert ring.owner("alpha") == first[0]
        assert calls == []

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(kv, "RING_MEMO_KEYS", 64)
        ring = HashRing(3, replication=2)
        for i in range(64 + 100):
            ring.replicas(f"key-{i}")
            assert len(ring._memo) <= 64
        assert ring.replicas("key-0") == ring.successors("key-0", 2)

    def test_a_long_key_is_placed_but_not_kept(self):
        ring = HashRing(3, replication=2)
        ring.replicas("alpha")
        for key in ("k" * 65536, "\U0001F600" * 251):
            assert ring.replicas(key) == ring.successors(key, 2)
            assert ring.owner(key) == ring.successors(key, 1)[0]
            assert len(ring._memo) == 1
        edge = "k" * kv.RING_MEMO_KEY_CHARS
        assert ring.replicas(edge) == ring.successors(edge, 2)
        assert edge in ring._memo

    def test_no_key_moved(self):
        # Placement of key-0000..key-1023 as the ring computed it before
        # the memo: the memo is a cache, never a re-hash.
        assert _placement_digest(3, 2) == (
            "32d59d223f91ea01e91f607a80e5045ad480c3adb8ff751d101e9f99633f6b45")
        assert _placement_digest(5, 3) == (
            "81892c7bbaf54ed08b717e38b8b373f677f3c68141a077d71d7c9259c8d36580")
        assert _placement_digest(4, 1) == (
            "d5454009c6b1e7e828646eb9ccc1bbafbe308fcc694bea137b7f9fd26f7d6676")


# ----------------------------------------------------------------------
# The mget plan: which replica each key is read from.
# ----------------------------------------------------------------------
class _RecordingMesh:
    """Serves each fan-out leg through the target node's own mesh
    handler (so a misrouted key fails loudly) and records ``{peer:
    keys}`` of the runs in each call."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.calls: list[dict[int, list[str]]] = []

    @do
    def fan_out(self, bodies):
        self.calls.append({peer: [record[2] for record in decode_run(body)]
                           for peer, body in bodies.items() if is_run(body)})
        replies = {}
        for peer, body in bodies.items():
            replies[peer] = yield self.nodes[peer]._handle_mesh(body)
        return replies


def _value(key):
    return b"v:" + key.encode()


@functools.cache
def _routing_world(shards, replication):
    nodes = {}
    for index in range(shards):
        nodes[index] = KvNode(index, shards, mesh=_RecordingMesh(nodes),
                              replication=replication)
    return nodes


def _plan(shards, replication, batches):
    """Every shard runs an ``mget`` of every batch; each key is stored
    on exactly its replicas.  Returns ``{shard: [(merged, calls)]}``,
    one entry per batch."""
    nodes = _routing_world(shards, replication)
    for key in {key for batch in batches for key in batch}:
        for replica in nodes[0].replicas(key):
            nodes[replica]._apply_versioned(key, (1, 0), _value(key))
    sched = Scheduler()
    plans = {index: [] for index in nodes}

    @do
    def main():
        for node in nodes.values():
            # The plan of a caught-up shard (one anti-entropy round each).
            yield node.anti_entropy()
        for index, node in nodes.items():
            for batch in batches:
                before = len(node.mesh.calls)
                merged = yield node.mget(batch)
                plans[index].append((merged, node.mesh.calls[before:]))

    sched.spawn(main())
    sched.run()
    return plans


_KEY = st.one_of(
    st.integers(0, 2047).map(lambda n: f"key-{n}"),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_BATCH = st.lists(_KEY, max_size=24)
_GRID = pytest.mark.parametrize("shards,replication", [
    (shards, replication)
    for shards in range(1, 6) for replication in range(1, 4)])


def _targets(calls):
    return {key: peer for call in calls
            for peer, keys in call.items() for key in keys}


class TestMgetRouting:
    """``KvNode.mget`` reads each key from one replica, by a rule of
    (shard, key) alone: its own copy, else the holder first in the
    shard's fixed peer order."""

    @_GRID
    @settings(max_examples=10, deadline=None)
    @given(batch=_BATCH)
    def test_every_key_is_read_from_one_of_its_replicas(
            self, shards, replication, batch):
        ring = HashRing(shards, replication=replication)
        for index, [(merged, calls)] in _plan(
                shards, replication, [batch]).items():
            assert merged == {key: _value(key) for key in batch}
            asked = [key for call in calls
                     for keys in call.values() for key in keys]
            assert len(asked) == len(set(asked))
            for key, peer in _targets(calls).items():
                assert peer != index and peer in ring.replicas(key)
                # The first holder in this shard's fixed peer order.
                assert peer == min(ring.replicas(key),
                                   key=lambda p: (p - index) % shards)

    @_GRID
    @settings(max_examples=10, deadline=None)
    @given(batch=_BATCH)
    def test_a_key_this_shard_holds_costs_no_call(
            self, shards, replication, batch):
        ring = HashRing(shards, replication=replication)
        for index, [(_merged, calls)] in _plan(
                shards, replication, [batch]).items():
            remote = {key for key in batch
                      if index not in ring.replicas(key)}
            assert set(_targets(calls)) == remote
            assert len(calls) == (1 if remote else 0)

    @_GRID
    @settings(max_examples=10, deadline=None)
    @given(first=_BATCH, second=_BATCH)
    def test_a_keys_target_is_the_same_in_every_batch(
            self, shards, replication, first, second):
        alone = [[key] for key in first + second]
        for plans in _plan(shards, replication,
                           [first, second, *alone]).values():
            seen: dict[str, int] = {}
            for _merged, calls in plans:
                for key, peer in _targets(calls).items():
                    assert seen.setdefault(key, peer) == peer

    @pytest.mark.parametrize("shards", range(1, 6))
    @settings(max_examples=10, deadline=None)
    @given(batch=_BATCH)
    def test_replication_one_groups_like_the_owner(self, shards, batch):
        ring = HashRing(shards)
        for index, [(_merged, calls)] in _plan(shards, 1, [batch]).items():
            assert _targets(calls) == {
                key: ring.owner(key) for key in batch
                if ring.owner(key) != index}

    @settings(max_examples=100, deadline=None)
    @given(batch=_BATCH)
    def test_three_shards_at_replication_two_make_at_most_one_call(
            self, batch):
        for [(_merged, calls)] in _plan(3, 2, [batch]).values():
            assert sum(len(call) for call in calls) <= 1


# ----------------------------------------------------------------------
# A single node without a mesh: every key local.
# ----------------------------------------------------------------------
class TestSoloNode:
    def run_op(self, comp):
        rt = LiveRuntime(uncaught="store")
        try:
            results = []

            @do
            def main():
                value = yield comp
                results.append(value)

            rt.spawn(main())
            rt.run(until=lambda: bool(results), idle_timeout=5.0)
            return results[0]
        finally:
            rt.shutdown()

    def test_put_get_delete_roundtrip(self):
        node = KvNode(0, 1)
        created, _, proxied = self.run_op(node.put("a", b"1"))
        assert created and not proxied
        found, value, proxied = self.run_op(node.get("a"))
        assert (found, value, proxied) == (True, b"1", False)
        deleted, _, _ = self.run_op(node.delete("a"))
        assert deleted
        found, value, _ = self.run_op(node.get("a"))
        assert (found, value) == (False, None)
        assert node.proxied_ops == 0
        assert node.owned_ops == 4

    def test_mget_all_local(self):
        node = KvNode(0, 1)
        self.run_op(node.put("a", b"1"))
        self.run_op(node.put("b", b"2"))
        merged = self.run_op(node.mget(["a", "b", "ghost"]))
        assert merged == {"a": b"1", "b": b"2", "ghost": None}


# ----------------------------------------------------------------------
# Two nodes over a real mesh in one runtime: proxying and fan-out, at
# replication=1 (the N=1 case of the versioned read/write path).
# ----------------------------------------------------------------------
class TestMeshedNodes:
    @pytest.fixture
    def rt(self):
        runtime = LiveRuntime(uncaught="store")
        yield runtime
        runtime.shutdown()

    @pytest.fixture
    def world(self, rt):
        return rt, make_world(rt, 2, replication=1)

    def drive(self, rt, comp):
        results = []

        @do
        def main():
            value = yield comp
            results.append(value)

        rt.spawn(main())
        rt.run(until=lambda: bool(results), idle_timeout=5.0)
        assert results, "operation never completed"
        return results[0]

    def _key_owned_by(self, nodes, owner, start=0):
        index = start
        while True:
            key = f"key-{index}"
            if nodes[0].ring.owner(key) == owner:
                return key
            index += 1

    def test_non_owner_proxies_to_owner(self, world):
        rt, nodes = world
        key = self._key_owned_by(nodes, owner=1)
        # Write through the NON-owner: must land in the owner's store.
        created, _, proxied = self.drive(rt, nodes[0].put(key, b"remote"))
        assert created and proxied
        assert key in nodes[1].store
        assert key not in nodes[0].store
        # The owner holds the coordinator's version stamp; the
        # coordinator, holding no replica, keeps none.
        assert nodes[1].versions[key] == (nodes[0].clock, 0)
        assert key not in nodes[0].versions
        found, value, proxied = self.drive(rt, nodes[0].get(key))
        assert (found, value, proxied) == (True, b"remote", True)
        # Reading through the owner is local.
        found, value, proxied = self.drive(rt, nodes[1].get(key))
        assert (found, value, proxied) == (True, b"remote", False)
        info = {}
        deleted, _, proxied = self.drive(rt, nodes[0].delete(key, info))
        assert deleted and proxied
        assert (info["acked"], info["replicas"]) == (1, 1)
        assert key not in nodes[1].store
        assert nodes[1].versions[key] == (nodes[0].clock, 0)  # tombstone
        found, value, _ = self.drive(rt, nodes[0].get(key))
        assert (found, value) == (False, None)
        assert (nodes[0].proxied_ops, nodes[0].owned_ops) == (4, 0)
        # The owner's side of a proxied op counts as mesh-served only.
        assert (nodes[1].mesh_served_ops, nodes[1].owned_ops) == (4, 1)

    def test_owner_down_fails_writes_on_quorum_and_reads_on_mesh(self, rt):
        nodes = make_world(rt, 2, live={0}, replication=1)
        node = nodes[0]
        key = self._key_owned_by(nodes, owner=1)
        _, exc = _drive_error(rt, node.put(key, b"v"), MeshError)
        assert isinstance(exc, KvQuorumError)
        assert "0/1" in str(exc)
        assert node.quorum_failures == 1
        assert node.hints_pending == 0  # nobody acked: nowhere to park
        _, exc = _drive_error(rt, node.get(key), MeshError)
        assert not isinstance(exc, KvQuorumError)
        # Through the HTTP facade: 503 for the write, 502/504 for the read.
        handler = KvHttpHandler(node)
        target = f"/kv/{key}"
        _, exc = _drive_error(rt, handler.respond(
            HttpRequest("PUT", target, "HTTP/1.1", {}, b"v")
        ), HttpError)
        assert exc.status == 503
        _, exc = _drive_error(rt, handler.respond(
            HttpRequest("GET", target, "HTTP/1.1", {})
        ), HttpError)
        assert exc.status in (502, 504)

    def test_mget_spans_both_shards(self, world):
        rt, nodes = world
        key_a = self._key_owned_by(nodes, owner=0)
        key_b = self._key_owned_by(nodes, owner=1)
        self.drive(rt, nodes[0].put(key_a, b"va"))
        self.drive(rt, nodes[0].put(key_b, b"vb"))
        merged = self.drive(rt, nodes[1].mget([key_a, key_b, "ghost-x"]))
        assert merged[key_a] == b"va"
        assert merged[key_b] == b"vb"
        assert merged["ghost-x"] is None

    def test_mget_fetches_and_counts_a_repeated_key_once(self, world):
        rt, nodes = world
        key_a = self._key_owned_by(nodes, owner=0)
        key_b = self._key_owned_by(nodes, owner=1)
        self.drive(rt, nodes[0].put(key_a, b"va"))
        self.drive(rt, nodes[0].put(key_b, b"vb"))
        before = [(n.owned_ops, n.proxied_ops) for n in nodes]
        merged = self.drive(
            rt, nodes[0].mget([key_a, key_b, key_a, key_b, key_b])
        )
        assert merged == {key_a: b"va", key_b: b"vb"}
        after = [(n.owned_ops, n.proxied_ops) for n in nodes]
        # One local read and one proxied key on the caller; the owner
        # of key_b served that key once.
        assert after[0] == (before[0][0] + 1, before[0][1] + 1)
        assert after[1] == (before[1][0] + 1, before[1][1])

    def test_stats_all_reports_both_shards(self, world):
        rt, nodes = world
        key_b = self._key_owned_by(nodes, owner=1)
        self.drive(rt, nodes[0].put(key_b, b"x"))
        stats = self.drive(rt, nodes[0].stats_all())
        assert [entry["index"] for entry in stats] == [0, 1]
        assert stats[1]["keys"] == 1
        assert stats[1]["mesh_served_ops"] == 1


# ----------------------------------------------------------------------
# The acceptance scenario: a 4-shard cluster, every shard answers any key.
# ----------------------------------------------------------------------
class TestKvCluster:
    @pytest.fixture(scope="class")
    def cluster(self):
        server = ClusterServer(
            kv_factory, shards=4, mesh=True, grace=0.1
        )
        server.start()
        yield server
        server.stop()

    def test_every_shard_answers_any_key(self, cluster):
        keys = {f"user:{i}": f"value-{i}".encode() for i in range(32)}
        # Populate over several connections (the kernel spreads them over
        # shards; proxying routes each key to its owner).
        writer = BlockingHttpClient(cluster.port)
        put_proxied = 0
        for key, value in keys.items():
            status, headers, _ = writer.request("PUT", f"/kv/{key}", value)
            assert status.split()[1] in ("201", "204"), status
            assert headers["x-kv-source"] in ("local", "proxied")
            put_proxied += headers["x-kv-source"] == "proxied"
        writer.close()

        sources = collections.Counter()
        reads = 0
        # Many fresh connections: land on multiple shards, read all keys.
        for _round in range(4):
            client = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                status, headers, body = client.request("GET", f"/kv/{key}")
                assert status.endswith("200 OK"), (key, status)
                assert body == value
                sources[headers["x-kv-source"]] += 1
                reads += 1
            client.close()
        # 4 shards, 4 connections, 32 keys: both paths must be exercised.
        assert sources["local"] > 0
        assert sources["proxied"] > 0
        assert sources["local"] + sources["proxied"] == reads

        # Server-side accounting agrees: the owned/proxied split is
        # visible per shard through the control-plane stats.
        stats = cluster.stats()
        assert stats["aggregate"]["workers_reporting"] == 4
        per_shard = [w["app"] for w in stats["workers"] if w]
        assert len(per_shard) == 4
        assert all("kv_owned_ops" in entry for entry in per_shard)
        aggregate = stats["aggregate"]["app"]
        assert aggregate["kv_proxied_ops"] == sources["proxied"] + put_proxied
        assert aggregate["kv_keys"] == len(keys)
        mesh_aggregate = stats["aggregate"]["mesh"]
        assert mesh_aggregate["calls"] >= aggregate["kv_proxied_ops"]
        assert mesh_aggregate["served"] > 0
        assert mesh_aggregate["timeouts"] == 0

    def test_mget_merges_across_all_shards(self, cluster):
        keys = {f"mget:{i}": f"m-{i}".encode() for i in range(16)}
        client = BlockingHttpClient(cluster.port)
        for key, value in keys.items():
            client.request("PUT", f"/kv/{key}", value)
        spec = ",".join(list(keys) + ["mget:ghost"])
        status, _headers, body = client.request("GET", f"/mget?keys={spec}")
        assert status.endswith("200 OK")
        values = json.loads(body)["values"]
        for key, value in keys.items():
            assert base64.b64decode(values[key]) == value
        assert values["mget:ghost"] is None
        # The coordinating shard cannot own all 16 keys: the merge spans
        # shards (all four owners appear with 64 vnodes and 16 keys).
        owners = {HashRing(4).owner(key) for key in keys}
        assert len(owners) > 1
        client.close()

    def test_mget_addresses_the_keys_single_key_routes_store(self, cluster):
        # `/mget` splits on literal commas and decodes each key once, as
        # `/kv/<key>` does: an encoded `%`, an encoded comma and a `+`
        # name the same key on both routes.
        stored = {"%2541": "%41", "a%2Cb": "a,b", "x+y": "x+y"}
        client = BlockingHttpClient(cluster.port)
        for encoded, key in stored.items():
            client.request("PUT", f"/kv/{encoded}", key.encode())
        spec = ",".join(stored)
        status, _headers, body = client.request("GET", f"/mget?keys={spec}")
        assert status.endswith("200 OK")
        assert json.loads(body)["values"] == {
            key: base64.b64encode(key.encode()).decode()
            for key in stored.values()
        }
        client.close()

    def test_kv_stats_streams_chunked_per_shard(self, cluster):
        client = BlockingHttpClient(cluster.port)
        status, headers, body = client.request("GET", "/kv-stats")
        assert status.endswith("200 OK")
        assert headers.get("transfer-encoding") == "chunked"
        lines = [json.loads(line) for line in body.splitlines()]
        assert [entry.get("index") for entry in lines] == [0, 1, 2, 3]
        assert all("keys" in entry for entry in lines)
        client.close()

    def test_delete_and_missing_key_semantics(self, cluster):
        client = BlockingHttpClient(cluster.port)
        client.request("PUT", "/kv/doomed", b"bye")
        status, headers, _ = client.request("DELETE", "/kv/doomed")
        assert status.split()[1] == "204"
        status, _, _ = client.request("GET", "/kv/doomed")
        assert status.split()[1] == "404"
        status, _, _ = client.request("DELETE", "/kv/doomed")
        assert status.split()[1] == "404"
        status, _, _ = client.request("GET", "/unknown-route")
        assert status.split()[1] == "404"
        client.close()

    def test_put_then_overwrite_statuses(self, cluster):
        client = BlockingHttpClient(cluster.port)
        status, _, _ = client.request("PUT", "/kv/fresh-key", b"v1")
        assert status.split()[1] == "201"
        status, _, _ = client.request("PUT", "/kv/fresh-key", b"v2")
        assert status.split()[1] == "204"
        status, _, body = client.request("GET", "/kv/fresh-key")
        assert body == b"v2"
        client.close()


class TestKvSoloCluster:
    def test_single_shard_without_mesh_serves_kv(self):
        cluster = ClusterServer(kv_factory, shards=1, grace=0.1)
        cluster.start()
        try:
            client = BlockingHttpClient(cluster.port)
            status, headers, _ = client.request("PUT", "/kv/solo", b"one")
            assert status.split()[1] == "201"
            assert headers["x-kv-source"] == "local"
            status, _, body = client.request("GET", "/kv/solo")
            assert body == b"one"
            # HEAD advertises the length but carries no body — and must
            # not desync the keep-alive connection for the next request.
            status, headers, body = client.request("HEAD", "/kv/solo")
            assert status.endswith("200 OK")
            assert headers["content-length"] == "3"
            assert body == b""
            status, _, body = client.request("GET", "/kv/solo")
            assert body == b"one"
            stats = cluster.stats()
            assert stats["aggregate"]["app"]["kv_keys"] == 1
            assert "mesh" not in stats["workers"][0]
            client.close()
        finally:
            cluster.stop()
