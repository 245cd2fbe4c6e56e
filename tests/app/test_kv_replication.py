"""Replicated KV: N-successor placement, quorum writes, read-repair,
hinted handoff, and the replicated cluster surviving a killed shard and a
rolling reload."""

from __future__ import annotations

import base64
import collections
import json
import os
import signal
import time

import pytest

from repro.api import ClusterServer, build_kv
from repro.app.kv import HashRing, KvHttpHandler, KvNode, KvQuorumError
from repro.app.record import MGET, decode_run, encode, encode_run
from repro.app.wal import ShardWal, WalError
from repro.cache.client import BlockingMemcacheClient
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.http.blocking_client import BlockingHttpClient
from repro.http.message import HttpError, HttpRequest
from repro.http.server import HttpProtocol
from repro.runtime.driver import ConnectionDriver
from repro.runtime.live_runtime import LiveRuntime, make_listener
from repro.runtime.mesh import MeshNode, MeshProtocolError, MeshRemoteError

from tests.app.test_wal import _broken_sync, _FakeTimers
from tests.runtime.test_driver_session import RecordingTransport
from tests.runtime.test_mesh import fork_names


def kv_factory(ctx):
    return build_kv(ctx=ctx)


# ----------------------------------------------------------------------
# Preference lists on the ring.
# ----------------------------------------------------------------------
class TestSuccessors:
    def test_primary_first_and_distinct(self):
        ring = HashRing(4, replication=3)
        for i in range(200):
            key = f"key-{i}"
            replicas = ring.successors(key, 3)
            assert replicas[0] == ring.owner(key)
            assert len(replicas) == len(set(replicas)) == 3

    def test_deterministic_across_instances(self):
        first = HashRing(5, replication=2)
        second = HashRing(5, replication=2)
        keys = [f"key-{i}" for i in range(200)]
        assert [first.replicas(k) for k in keys] == [
            second.replicas(k) for k in keys
        ]

    def test_replication_clamped_to_shard_count(self):
        ring = HashRing(2, replication=5)
        assert ring.replication == 2
        assert len(ring.successors("x", 5)) == 2

    def test_replica_load_is_spread(self):
        ring = HashRing(4, replication=2)
        holders = collections.Counter()
        for i in range(1000):
            for shard in ring.replicas(f"key-{i}"):
                holders[shard] += 1
        assert sorted(holders) == [0, 1, 2, 3]
        assert min(holders.values()) > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(2, replication=0)


# ----------------------------------------------------------------------
# Replicated nodes over a real mesh in one runtime.
# ----------------------------------------------------------------------
def _drive(rt, comp, idle=5.0):
    results = []

    @do
    def main():
        value = yield comp
        results.append(value)

    rt.spawn(main())
    rt.run(until=lambda: bool(results), idle_timeout=idle)
    assert results, "operation never completed"
    return results[0]


def _drive_error(rt, comp, exc_type, idle=5.0):
    outcome = []

    @do
    def main():
        try:
            value = yield comp
            outcome.append(("value", value))
        except exc_type as exc:
            outcome.append(("error", exc))

    rt.spawn(main())
    rt.run(until=lambda: bool(outcome), idle_timeout=idle)
    assert outcome, "operation never completed"
    return outcome[0]


def _key_with_replicas(ring, wanted, start=0):
    """A key whose preference list is exactly ``wanted`` (ordered)."""
    index = start
    while True:
        key = f"rkey-{index}"
        if ring.replicas(key) == list(wanted):
            return key
        index += 1


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


def make_world(rt, count, live=None, replication=2, write_quorum=1,
               wals=None):
    """``count`` mesh peers, of which only ``live`` actually serve.

    A non-live peer's address is a closed port: dials fail fast, which
    models a crashed shard.  ``wals`` (optional) is one ``ShardWal`` per
    slot.  Returns the KvNode list (None for dead slots).
    """
    live = set(range(count)) if live is None else set(live)
    listeners = {}
    peers = {}
    for i in range(count):
        listener = make_listener()
        address = ("127.0.0.1", listener.getsockname()[1])
        peers[i] = address
        if i in live:
            listeners[i] = listener
        else:
            listener.close()  # dead shard: connection refused
    nodes: list[KvNode | None] = []
    for i in range(count):
        if i not in live:
            nodes.append(None)
            continue
        mesh = MeshNode(i, rt.io, listeners[i], peers, rt.timers,
                        call_timeout=2.0)
        node = KvNode(i, count, mesh=mesh, replication=replication,
                      write_quorum=write_quorum,
                      wal=wals[i] if wals else None)
        rt.spawn(mesh.serve(), name=f"mesh-{i}")
        nodes.append(node)
    return nodes


class TestReplicatedWrites:
    def test_write_lands_on_every_replica(self, rt):
        nodes = make_world(rt, 3, replication=2)
        key = _key_with_replicas(nodes[0].ring, (1, 2))
        info = {}
        created, _, proxied = _drive(rt, nodes[0].put(key, b"v1", info))
        assert created and proxied  # node 0 holds no replica of this key
        assert info["acked"] == 2 and info["replicas"] == 2
        assert nodes[1].store[key] == b"v1"
        assert nodes[2].store[key] == b"v1"
        assert key not in nodes[0].store
        # Overwrite through a replica: version advances, not created.
        created, _, proxied = _drive(rt, nodes[1].put(key, b"v2"))
        assert not created and not proxied
        assert nodes[2].store[key] == b"v2"
        assert nodes[1].versions[key] > (0, 0)

    def test_quorum_met_with_one_dead_replica(self, rt):
        # W=1 (the default): a write with one dead replica succeeds and
        # parks a hint for the dead peer.
        nodes = make_world(rt, 3, live={0, 1}, replication=2)
        ring = nodes[0].ring
        key = _key_with_replicas(ring, (1, 2))  # replica 2 is dead
        info = {}
        created, _, _ = _drive(rt, nodes[0].put(key, b"v", info))
        assert created
        assert info["acked"] == 1 and info["replicas"] == 2
        assert nodes[1].store[key] == b"v"
        # The hint parked on the live successor (node 1 acked the write
        # and the coordinator holds no replica).
        deadline = time.monotonic() + 2.0
        while (nodes[1].hints_pending == 0
               and time.monotonic() < deadline):
            rt.run(until=lambda: False, idle_timeout=0.05)
        assert nodes[1].hints_pending == 1
        assert key in nodes[1].hints[2]

    def test_quorum_failure_is_monadic_exception(self, rt):
        # W=2 with one dead replica: the write must fail loudly.
        nodes = make_world(rt, 3, live={0, 1}, replication=2,
                           write_quorum=2)
        key = _key_with_replicas(nodes[0].ring, (1, 2))
        kind, exc = _drive_error(rt, nodes[0].put(key, b"v"),
                                 KvQuorumError)
        assert kind == "error"
        assert "1/2" in str(exc)
        assert nodes[0].quorum_failures == 1
        # The acked replica keeps the write (sloppy, documented).
        assert nodes[1].store[key] == b"v"

    def test_lagging_coordinator_clock_cannot_lose_a_write(self, rt):
        # A coordinator that holds no replica never applies writes, so
        # its lamport clock can lag far behind a key's counter.  Its
        # stamp would be rejected as stale by every replica — the write
        # must be re-stamped and land, not be reported as acked while
        # the old value survives.
        nodes = make_world(rt, 3, replication=2)
        key = _key_with_replicas(nodes[0].ring, (1, 2))
        # Drive the key's version counter well past node 0's clock.
        for round_no in range(5):
            _drive(rt, nodes[1].put(key, f"v{round_no}".encode()))
        assert nodes[1].versions[key][0] > nodes[0].clock
        info = {}
        created, _, _ = _drive(rt, nodes[0].put(key, b"winner", info))
        assert not created
        assert info["acked"] == 2
        assert nodes[1].store[key] == b"winner"
        assert nodes[2].store[key] == b"winner"
        found, value, _ = _drive(rt, nodes[0].get(key))
        assert (found, value) == (True, b"winner")
        # The coordinator's clock caught up past the merged counter.
        assert nodes[0].clock >= nodes[1].versions[key][0]

    def test_delete_replicates_a_tombstone(self, rt):
        nodes = make_world(rt, 2, replication=2)
        key = "tomb-key"
        _drive(rt, nodes[0].put(key, b"v"))
        deleted, _, _ = _drive(rt, nodes[1].delete(key))
        assert deleted
        assert key not in nodes[0].store and key not in nodes[1].store
        # The tombstone version survives: a stale live copy cannot win.
        assert key in nodes[0].versions and key in nodes[1].versions
        found, value, _ = _drive(rt, nodes[0].get(key))
        assert (found, value) == (False, None)


class TestReadFallbackAndRepair:
    def test_read_falls_back_past_a_dead_primary(self, rt):
        nodes = make_world(rt, 3, live={0, 1}, replication=2)
        # Primary (node 2) is dead; the successor (node 1) acked.
        key = _key_with_replicas(nodes[0].ring, (2, 1))
        _drive(rt, nodes[0].put(key, b"survives"))
        info = {}
        found, value, _ = _drive(rt, nodes[0].get(key, info))
        assert (found, value) == (True, b"survives")
        assert info["consulted"] == 1 and info["replicas"] == 2
        assert info["served_by"] == 1

    # Each divergence below is planted on two keys: a read through a
    # shard that has not caught up (every shard, before its first
    # anti-entropy round) heals the first, one anti-entropy round the
    # second.
    def test_read_repair_patches_stale_replica(self, rt):
        nodes = make_world(rt, 2, replication=2)
        key, healed = "repair-key", "repair-key-ae"
        for each in (key, healed):
            _drive(rt, nodes[0].put(each, b"old"))
            # Simulate node 1 missing an overwrite (it was down for it):
            # node 0 holds a newer version locally.
            version = (nodes[0].clock + 1, 0)
            nodes[0].clock += 1
            nodes[0]._apply_versioned(each, version, b"new")
            assert nodes[1].store[each] == b"old"
        # A read through the *stale* node returns the newest version and
        # repairs the stale copy (itself, in this case) synchronously.
        assert not nodes[1].caught_up
        found, value, _ = _drive(rt, nodes[1].get(key))
        assert (found, value) == (True, b"new")
        assert nodes[1].store[key] == b"new"
        assert nodes[1].read_repairs == 1
        # One round through the stale node pulls the newest version.
        assert _drive(rt, nodes[1].anti_entropy()) == 1
        assert nodes[1].store[healed] == nodes[0].store[healed] == b"new"
        assert nodes[1].versions[healed] == nodes[0].versions[healed]

    def test_read_repair_patches_remote_missing_replica(self, rt):
        nodes = make_world(rt, 2, replication=2)
        key, healed = "missing-key", "missing-key-ae"
        # Writes applied only on node 0 (simulating node 1 down for it).
        version = (1, 0)
        nodes[0].clock = 1
        for each in (key, healed):
            nodes[0]._apply_versioned(each, version, b"val")
        assert not nodes[0].caught_up
        found, value, _ = _drive(rt, nodes[0].get(key))
        assert (found, value) == (True, b"val")
        # The repair is an async one-way cast: run until it lands.
        rt.run(until=lambda: key in nodes[1].store, idle_timeout=2.0)
        assert nodes[1].store[key] == b"val"
        assert nodes[1].versions[key] == version
        # One round through the node that holds it pushes the copy.
        assert healed not in nodes[1].store
        _drive(rt, nodes[0].anti_entropy())
        assert nodes[1].store[healed] == b"val"
        assert nodes[1].versions[healed] == version

    def test_tombstone_wins_read_repair(self, rt):
        nodes = make_world(rt, 2, replication=2)
        key, healed = "zombie-key", "zombie-key-ae"
        for each in (key, healed):
            _drive(rt, nodes[0].put(each, b"v"))
            # Node 0 saw the delete, node 1 missed it.
            version = (nodes[0].clock + 1, 0)
            nodes[0].clock += 1
            nodes[0]._apply_versioned(each, version, None)
            assert nodes[1].store[each] == b"v"
        assert not nodes[1].caught_up
        found, _value, _ = _drive(rt, nodes[1].get(key))
        assert not found  # the newer tombstone wins over the live copy
        assert key not in nodes[1].store
        # One round: the tombstone beats the live copy there too.
        assert _drive(rt, nodes[1].anti_entropy()) == 1
        assert healed not in nodes[1].store
        assert nodes[1].versions[healed] == nodes[0].versions[healed]


class TestHintedHandoff:
    def test_hints_replay_when_the_peer_comes_back(self, rt):
        # Peer 1 starts dead; writes park hints; then a real node binds
        # the same address and replay drains the hints into it.
        nodes = make_world(rt, 2, live={0}, replication=2)
        node0 = nodes[0]
        keys = {}
        for i in range(64):
            key = f"handoff-{i}"
            if node0.ring.replicas(key) != [0, 1]:
                continue
            keys[key] = f"v-{i}".encode()
            if len(keys) == 4:
                break
        for key, value in keys.items():
            _drive(rt, node0.put(key, value))
        assert node0.hints_pending == len(keys)
        assert node0.hints_queued == len(keys)
        # Resurrect peer 1 on its advertised address.
        host, port = node0.mesh.peers[1]
        listener = make_listener(host, port)
        mesh1 = MeshNode(1, rt.io, listener, dict(node0.mesh.peers),
                         rt.timers, call_timeout=2.0)
        node1 = KvNode(1, 2, mesh=mesh1, replication=2)
        rt.spawn(mesh1.serve(), name="mesh-1-revived")
        replayed = _drive(rt, node0.replay_hints(1))
        assert replayed == len(keys)
        assert node0.hints_pending == 0
        assert node0.hints_replayed == len(keys)
        for key, value in keys.items():
            assert node1.store[key] == value

    def test_replay_keeps_hints_for_a_still_dead_peer(self, rt):
        nodes = make_world(rt, 2, live={0}, replication=2)
        node0 = nodes[0]
        key = _key_with_replicas(node0.ring, (0, 1))
        _drive(rt, node0.put(key, b"v"))
        assert node0.hints_pending == 1
        replayed = _drive(rt, node0.replay_hints(1))
        assert replayed == 0
        assert node0.hints_pending == 1  # kept for the next attempt


# ----------------------------------------------------------------------
# The durable write: the coordinator's log append overlaps the fan-out.
# Flush deadlines are fired by hand (``_FakeTimers``): no wall clock.
# ----------------------------------------------------------------------
def _run_firing(rt, timers, done, idle=5.0):
    """Run until ``done()``, firing every flush deadline once armed."""
    fired = [0] * len(timers)

    def step():
        for slot, wheel in enumerate(timers):
            for handle in wheel.scheduled[fired[slot]:]:
                wheel.fire(rt, handle)
            fired[slot] = len(wheel.scheduled)
        return done()

    rt.run(until=step, idle_timeout=idle)


class TestOverlappedDurableWrite:
    def _world(self, rt, tmp_path, count=2, live=None, write_quorum=2):
        timers = [_FakeTimers() for _ in range(count)]
        wals = [ShardWal(str(tmp_path / f"shard-{i}"), timers=timers[i])
                for i in range(count)]
        nodes = make_world(rt, count, live=live, replication=count,
                           write_quorum=write_quorum, wals=wals)
        return nodes, wals, timers

    def test_one_commit_wait_on_the_critical_path(self, rt, tmp_path):
        nodes, wals, timers = self._world(rt, tmp_path)
        acked, info = [], {}

        @do
        def putter():
            acked.append((yield nodes[0].put("k", b"v", info)))

        rt.spawn(putter())
        # The r_write frame reaches the replica while the coordinator's
        # own flush deadline is still unfired (the parent sent it only
        # after the local flush had landed).
        rt.run(until=lambda: bool(wals[1]._pending), idle_timeout=2.0)
        assert len(wals[1]._pending) == 1
        assert len(wals[0]._pending) == 1 and wals[0].fsyncs == 0
        # Both commits are in flight together, each under the one
        # deadline its log armed: sequential commit waits per op = 1.
        assert [len(wheel.scheduled) for wheel in timers] == [1, 1]

        # The replica's flush lands and its reply returns: the fan-out
        # joins, and only then does the coordinator wait on its barrier.
        timers[1].fire(rt, timers[1].scheduled[0])
        rt.run(until=lambda: bool(wals[0]._barrier.takers),
               idle_timeout=5.0)
        assert len(wals[0]._barrier.takers) == 1
        assert wals[1].fsyncs == 1 and wals[0].fsyncs == 0
        assert not nodes[0].mesh._links[1].pending
        assert not acked  # ack-after-commit: the local record is not durable

        timers[0].fire(rt, timers[0].scheduled[0])
        rt.run(until=lambda: bool(acked), idle_timeout=5.0)
        assert acked == [(True, None, False)]
        assert info["acked"] == 2
        assert [wal.fsyncs for wal in wals] == [1, 1]
        assert [wal.appends for wal in wals] == [1, 1]
        assert [len(wheel.scheduled) for wheel in timers] == [1, 1]
        for wal in wals:
            wal.close()

    def test_local_flush_failure_surfaces_after_the_join(self, rt,
                                                         tmp_path):
        # Three replicas, so the fan-out runs one leg on a thread of its
        # own and one on the coordinator's.
        nodes, wals, timers = self._world(rt, tmp_path, count=3)
        spawned = fork_names(rt)
        exited = []
        rt.sched.add_exit_watcher(lambda tcb: exited.append(tcb.name))
        wals[0]._sync = _broken_sync
        outcome = []

        def legs(names):
            return sum(1 for name in names
                       if name and name.startswith("fanout-"))

        @do
        def putter():
            try:
                outcome.append((yield nodes[0].put("k", b"v")))
            except WalError as exc:
                # Raised only after the fan-out joined: both replies are
                # in (each replica's record already fsynced), no call is
                # pending, and the leg's thread has finished.
                outcome.append((
                    exc, [wal.fsyncs for wal in wals[1:]],
                    [len(link.pending)
                     for link in nodes[0].mesh._links.values()],
                    legs(spawned), legs(exited),
                ))

        rt.spawn(putter())
        _run_firing(rt, timers, lambda: bool(outcome))
        exc, replica_fsyncs, pending_calls, forked, finished = outcome[0]
        assert isinstance(exc, WalError)
        assert replica_fsyncs == [1, 1] and pending_calls == [0, 0]
        assert forked == finished == 1
        assert wals[0].flush_failures == 1 and wals[0].fsyncs == 0
        # One-sided: failed ⇏ absent.  The healthy replicas hold the
        # write durably; recovering a replica's log brings it back.
        assert nodes[1].store["k"] == nodes[2].store["k"] == b"v"
        wals[1].close()
        recovered = KvNode(0, 1, wal=ShardWal(wals[1].directory))
        assert recovered.store["k"] == b"v"
        recovered.wal.close()
        # Nothing else is left behind: no hint, no leased buffer.
        assert nodes[0].hints_pending == 0
        assert rt.buffers.in_use == 0
        wals[0].close()
        wals[2].close()

    def test_remote_failure_with_a_durable_local_write(self, rt, tmp_path):
        # The other order: the remote leg fails (MeshPeerDown comes back
        # as a value), the local flush succeeds — the local ack counts,
        # the hint is parked *and logged*, and W=2 answers 503.
        nodes, wals, timers = self._world(rt, tmp_path, live={0})
        key = _key_with_replicas(nodes[0].ring, (0, 1))
        handler = KvHttpHandler(nodes[0])
        outcome = []

        @do
        def putter():
            try:
                yield handler.respond(HttpRequest(
                    "PUT", f"/kv/{key}", "HTTP/1.1", {}, b"v"))
            except HttpError as exc:
                outcome.append(exc)

        rt.spawn(putter())
        _run_firing(rt, timers[:1], lambda: bool(outcome))
        assert outcome[0].status == 503
        assert "write quorum not met" in outcome[0].detail
        assert "1/2" in outcome[0].detail
        assert nodes[0].store[key] == b"v"
        assert nodes[0].hints_pending == 1 and key in nodes[0].hints[1]
        assert wals[0].appends == 2 and wals[0].fsyncs == 2
        wals[0].close()

    def test_failed_local_flush_answers_503_then_recovers(self, rt,
                                                          tmp_path):
        # A coordinator whose own group flush fails used to answer
        # ``500 WalError`` through HttpProtocol's buggy-handler branch.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "solo"), timers=timers)
        protocol = HttpProtocol(KvHttpHandler(KvNode(0, 1, wal=wal)))

        def put(value):
            io = RecordingTransport([
                b"PUT /kv/k HTTP/1.1\r\nContent-Length: 4\r\n\r\n" + value,
            ])
            driver = ConnectionDriver(io, None, protocol)
            rt.spawn(driver.handle_connection("conn"), name="session")
            _run_firing(rt, [timers], lambda: bool(io.calls))
            return b"".join(io.sent)

        wal._sync = _broken_sync
        answer = put(b"lost")
        assert answer.startswith(b"HTTP/1.1 503 "), answer
        wal._sync = os.fsync
        # 204 while the failed write stays visible (failed ⇏ absent),
        # 201 once apply-on-commit staging lands.
        assert put(b"kept").split()[1] in (b"201", b"204")
        assert wal.flush_failures == 1 and wal.fsyncs == 1
        wal.close()


# ----------------------------------------------------------------------
# Replies the codec refuses: a peer failure, never a handler bug, and a
# short mget reply never reads as "those keys are absent".
# ----------------------------------------------------------------------
def _garbage(_body):
    return pure(b"\xffnot a record")


def _drops_last_key(body):
    asked = [record[2] for record in decode_run(body)]
    return pure(encode_run([encode(MGET, key, value=b"v")
                            for key in asked[:-1]]))


class TestUnreadableReplies:
    def _world(self, rt, handler, **world):
        """Shards 0 and 1; shard 1 answers every request with
        ``handler``.  Resumes with the nodes and two keys shard 1 owns."""
        nodes = make_world(rt, 2, **world)
        nodes[1].mesh.handler = handler
        keys = [key for key in (f"bad-{i}" for i in range(64))
                if nodes[0].ring.owner(key) == 1][:2]
        return nodes, keys

    def _answer(self, rt, node, target):
        io = RecordingTransport(
            [f"GET {target} HTTP/1.1\r\n\r\n".encode()])
        driver = ConnectionDriver(io, None,
                                  HttpProtocol(KvHttpHandler(node)))
        rt.spawn(driver.handle_connection("conn"), name="session")
        rt.run(until=lambda: bool(io.sent), idle_timeout=5.0)
        return b"".join(io.sent)

    def test_garbage_reply_is_a_protocol_error_and_answers_502(self, rt):
        nodes, keys = self._world(rt, _garbage, replication=1)
        kind, exc = _drive_error(rt, nodes[0].get(keys[0]), MeshProtocolError)
        assert kind == "error" and "peer 1" in str(exc)
        kind, exc = _drive_error(rt, nodes[0].mget(keys), MeshProtocolError)
        assert kind == "error"
        for target in (f"/kv/{keys[0]}", f"/mget?keys={','.join(keys)}"):
            answer = self._answer(rt, nodes[0], target)
            assert answer.startswith(b"HTTP/1.1 502 "), answer
        # For that call only: the frame was well-formed, the link is up
        # and serves the next call once the peer makes sense again.
        link = nodes[0].mesh._links[1]
        assert link.alive
        nodes[1].mesh.handler = nodes[1]._handle_mesh
        assert _drive(rt, nodes[0].mget(keys)) == dict.fromkeys(keys)
        assert nodes[0].mesh._links[1] is link

    def test_short_mget_reply_is_not_a_miss(self, rt):
        nodes, keys = self._world(rt, _drops_last_key, replication=1)
        kind, exc = _drive_error(rt, nodes[0].mget(keys), MeshProtocolError)
        assert kind == "error" and "does not cover" in str(exc)
        answer = self._answer(rt, nodes[0], f"/mget?keys={','.join(keys)}")
        assert answer.startswith(b"HTTP/1.1 502 "), answer

    def test_a_misrouted_read_is_refused_not_a_miss(self, rt, monkeypatch):
        # A coordinator whose placement disagrees with its peers' (a
        # routing bug) asks shard 2 for a key only shard 1 holds.  Shard
        # 2 refuses the GET record and the MGET run, so both reads fail
        # instead of answering "absent".
        nodes = make_world(rt, 3, replication=1)
        key = next(key for key in (f"m{i}" for i in range(100))
                   if nodes[0].ring.owner(key) == 1)
        _drive(rt, nodes[0].put(key, b"v"))
        monkeypatch.setattr(nodes[0].ring, "replicas", lambda _key: [2])
        for read in (nodes[0].get(key), nodes[0].mget([key])):
            kind, exc = _drive_error(rt, read, MeshRemoteError)
            assert kind == "error" and "holds no replica" in str(exc)
        assert nodes[1].store[key] == b"v"

    def test_unreadable_replica_is_a_failed_replica(self, rt):
        # Under replication it is one more way for a replica to fail:
        # reads fall back to the copy that answers, a write counts no
        # ack from it and parks a hint.
        nodes, _keys = self._world(rt, _garbage, replication=2,
                                   write_quorum=2)
        nodes[0]._apply_versioned("k", (1, 0), b"local")
        nodes[0].clock = 1
        info = {}
        assert _drive(rt, nodes[0].get("k", info)) == (True, b"local", False)
        assert info["consulted"] == 1
        assert _drive(rt, nodes[0].mget(["k"])) == {"k": b"local"}
        kind, exc = _drive_error(rt, nodes[0].put("k", b"new"),
                                 KvQuorumError)
        assert kind == "error" and "1/2" in str(exc)
        assert "MeshProtocolError" in str(exc)
        assert nodes[0].hints[1]["k"] == ((2, 0), b"new")


# ----------------------------------------------------------------------
# The data path is records end to end: no JSON, no base64.
# ----------------------------------------------------------------------
class TestNoJsonOnTheDataPath:
    def test_get_mget_and_durable_put_call_neither_json_nor_base64(
        self, rt, tmp_path, monkeypatch
    ):
        calls = collections.Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[f"{module.__name__}.{name}"] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((json, "dumps"), (json, "loads"),
                             (base64, "b64encode"), (base64, "b64decode")):
            spy(module, name)
        wals = [ShardWal(str(tmp_path / f"shard-{i}"), flush_interval=0.001,
                         timers=rt.timers)
                for i in range(3)]
        nodes = make_world(rt, 3, replication=2, write_quorum=2, wals=wals)
        ring = nodes[0].ring
        # One key per primary owner; "far" has both replicas remote.
        keys = [_key_with_replicas(ring, wanted)
                for wanted in ((0, 1), (1, 2), (2, 0))]
        far = keys[1]
        values = {key: bytes(range(256)) + key.encode() for key in keys}
        for key, value in values.items():
            info = {}
            assert _drive(rt, nodes[0].put(key, value, info))[0]
            assert info["acked"] == 2
        assert [wal.appends for wal in wals] == [2, 2, 2]
        for node in nodes:
            # Digests match: one call per peer, nothing applied.
            assert _drive(rt, node.anti_entropy()) == 0
        assert all(node.caught_up for node in nodes)
        info = {}
        assert _drive(rt, nodes[0].get(far, info)) == (True, values[far],
                                                       True)
        # Caught up: one replica read, one call.
        assert info["consulted"] == 1
        before = nodes[0].mesh.stats.calls
        assert _drive(rt, nodes[0].mget(keys + ["nowhere"])) == {
            **values, "nowhere": None}
        # Shard 0 holds a replica of two keys and reads them locally;
        # the rest (both replicas remote) go to one peer in one call.
        assert nodes[0].mesh.stats.calls - before == 1
        assert calls == collections.Counter()
        # The spies are live: the public JSON surface still goes through.
        answer = []

        @do
        def http_mget():
            response = yield KvHttpHandler(nodes[0]).respond(HttpRequest(
                "GET", f"/mget?keys={far}", "HTTP/1.1", {}, b""))
            answer.append(response.body)

        rt.spawn(http_mget())
        rt.run(until=lambda: bool(answer), idle_timeout=5.0)
        assert calls == {"json.dumps": 1, "base64.b64encode": 1}
        assert json.loads(answer[0]) == {"values": {
            far: base64.b64encode(values[far]).decode()}}
        for wal in wals:
            wal.close()


# ----------------------------------------------------------------------
# The acceptance scenario: a replicated cluster under faults.
# ----------------------------------------------------------------------
class TestReplicatedCluster:
    def _put(self, client, key, value):
        status, headers, _ = client.request("PUT", f"/kv/{key}", value)
        assert status.split()[1] in ("201", "204"), status
        return headers

    def _aggregate_app(self, cluster):
        return cluster.stats()["aggregate"].get("app", {})

    def test_kill_one_shard_every_key_readable_then_handoff_drains(self):
        cluster = ClusterServer(
            kv_factory, shards=4, mesh=True, replication=2,
            respawn=False, grace=0.5,
        )
        cluster.start()
        try:
            keys = {f"acc:{i}": f"value-{i}".encode() for i in range(24)}
            client = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                headers = self._put(client, key, value)
                assert headers["x-kv-replicas"] == "2/2"
            client.close()

            victim = 1
            cluster.crash_worker(victim)
            deadline = time.monotonic() + 5.0
            while (cluster.worker_pids()[victim] is not None
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert cluster.worker_pids()[victim] is None

            # Every key still readable with a shard down (reads fall
            # back to the surviving replica).
            reader = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                status, _headers, body = reader.request("GET", f"/kv/{key}")
                assert status.endswith("200 OK"), (key, status)
                assert body == value
            # Writes during the outage succeed on the surviving replica
            # and park hints for the dead one.
            updated = {key: value + b"+2" for key, value in keys.items()}
            for key, value in updated.items():
                headers = self._put(reader, key, value)
                assert headers["x-kv-replicas"] in ("1/2", "2/2")
            reader.close()
            app = self._aggregate_app(cluster)
            assert app.get("kv_hints_queued", 0) > 0
            assert app.get("kv_hints_pending", 0) > 0

            # Respawn the dead shard (the monitor path, driven manually
            # because respawn=False keeps the outage deterministic); the
            # master broadcasts peer_up and handoff drains.
            cluster.poll()
            assert cluster.worker_pids()[victim] is not None
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                app = self._aggregate_app(cluster)
                if (app.get("kv_hints_pending", 1) == 0
                        and app.get("kv_hints_replayed", 0) > 0):
                    break
                time.sleep(0.1)
            assert app.get("kv_hints_pending", 1) == 0, app
            assert app.get("kv_hints_replayed", 0) > 0
            assert app.get("kv_replica_writes", 0) > 0

            # And the cluster serves every updated value.
            check = BlockingHttpClient(cluster.port)
            for key, value in updated.items():
                status, _headers, body = check.request("GET", f"/kv/{key}")
                assert status.endswith("200 OK"), (key, status)
                assert body == value
            check.close()
        finally:
            cluster.stop()

    def test_sigkill_one_shard_mid_burst_recovers_acked_writes(
        self, tmp_path
    ):
        # The durability drill: a real SIGKILL (not the cooperative
        # crash command — no drain, no graceful anything) lands in the
        # middle of a write burst.  After respawn, every write that was
        # *acked* must be readable: the dead shard replays its
        # write-ahead log (store + parked hints), and the survivors'
        # hinted handoff drains to zero.
        cluster = ClusterServer(
            kv_factory, shards=4, mesh=True, replication=2,
            respawn=False, grace=0.5, wal_dir=str(tmp_path / "wal"),
        )
        cluster.start()
        try:
            acked: dict[str, bytes] = {}
            client = BlockingHttpClient(cluster.port)
            for i in range(30):
                key, value = f"burst:{i}", f"pre-{i}".encode()
                self._put(client, key, value)
                acked[key] = value
            client.close()

            victim = 2
            pid = cluster.worker_pids()[victim]
            assert pid is not None
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (cluster.worker_pids()[victim] is not None
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert cluster.worker_pids()[victim] is None

            # The burst continues through the outage: acks come from
            # the surviving replicas, hints park for the dead shard.
            survivor = BlockingHttpClient(cluster.port)
            for i in range(30, 60):
                key, value = f"burst:{i}", f"mid-{i}".encode()
                status, headers, _ = survivor.request(
                    "PUT", f"/kv/{key}", value
                )
                if status.split()[1] in ("201", "204"):
                    acked[key] = value
                    assert headers["x-kv-replicas"] in ("1/2", "2/2")
            survivor.close()
            assert len(acked) > 30  # the outage did not stop the burst

            cluster.poll()  # manual respawn (respawn=False above)
            assert cluster.worker_pids()[victim] is not None
            deadline = time.monotonic() + 15.0
            app: dict = {}
            while time.monotonic() < deadline:
                app = self._aggregate_app(cluster)
                if (app.get("kv_hints_pending", 1) == 0
                        and app.get("wal_replayed_records", 0) > 0):
                    break
                time.sleep(0.1)
            # The respawned shard came back from its log, not empty.
            assert app.get("wal_replayed_records", 0) > 0, app
            assert app.get("kv_hints_pending", 1) == 0, app
            assert app.get("wal_fsyncs", 0) > 0
            # Group commit engaged: strictly fewer fsyncs than appends.
            assert app.get("wal_fsyncs") < app.get("wal_appends", 0)

            check = BlockingHttpClient(cluster.port)
            for key, value in acked.items():
                status, _headers, body = check.request("GET", f"/kv/{key}")
                assert status.endswith("200 OK"), (key, status)
                assert body == value
            check.close()
        finally:
            cluster.stop()

    def test_sigkill_unreplicated_shard_recovers_from_log_alone(
        self, tmp_path
    ):
        # replication=1: the killed shard held the *only* copy of its
        # keys, so every recovered read below is proof the WAL replay
        # works — there is no replica to lean on.
        cluster = ClusterServer(
            kv_factory, shards=2, mesh=True, replication=1,
            respawn=False, grace=0.5, wal_dir=str(tmp_path / "wal"),
        )
        cluster.start()
        try:
            keys = {f"solo:{i}": f"only-{i}".encode() for i in range(20)}
            client = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                self._put(client, key, value)
            client.close()

            victim = 1
            pid = cluster.worker_pids()[victim]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (cluster.worker_pids()[victim] is not None
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            cluster.poll()
            assert cluster.worker_pids()[victim] is not None

            check = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                status, _headers, body = check.request("GET", f"/kv/{key}")
                assert status.endswith("200 OK"), (key, status)
                assert body == value
            check.close()
            app = self._aggregate_app(cluster)
            assert app.get("wal_replayed_records", 0) > 0
        finally:
            cluster.stop()

    @staticmethod
    def _through_every_shard(cluster, read, counter):
        """Call ``read()`` — which opens a fresh connection — until every
        shard has accepted one (``counter(worker)`` counts a shard's
        accepted connections); the kernel picks the shard."""
        reached: set[int] = set()
        for _attempt in range(64):
            before = [counter(w) for w in cluster.stats()["workers"]]
            read()
            after = [counter(w) for w in cluster.stats()["workers"]]
            reached |= {index for index, (old, new)
                        in enumerate(zip(before, after)) if new > old}
            if len(reached) == len(before):
                break
        assert reached == set(range(len(before)))

    def test_rolling_reload_loses_no_keys(self):
        # Every shard drains its store to the key's other replicas on
        # graceful stop, so a full rolling reload — every shard restarts
        # empty, one at a time — never drops the last live copy.  A
        # restarted shard reads every replica until it has caught up, so
        # a multi-key read through it finds every key too.
        cluster = ClusterServer(
            kv_factory, shards=2, mesh=True, replication=2,
            respawn=False, grace=0.5, cache_port=0,
            cache_protocol="memcache",
        )
        cluster.start()
        try:
            keys = {f"roll:{i}": f"r-{i}".encode() for i in range(12)}
            client = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                self._put(client, key, value)
            client.close()

            old_pids = cluster.worker_pids()
            new_pids = cluster.reload(timeout=10.0)
            assert set(new_pids).isdisjoint(set(old_pids))

            # Multi-key reads first: a single-key read repairs on the way.
            encoded = {key: base64.b64encode(value).decode()
                       for key, value in keys.items()}

            def http_mget():
                with BlockingHttpClient(cluster.port) as client:
                    status, _headers, body = client.request(
                        "GET", f"/mget?keys={','.join(keys)}")
                assert status.endswith("200 OK"), status
                assert json.loads(body)["values"] == encoded

            def memcache_get():
                with BlockingMemcacheClient(cluster.cache_port) as client:
                    assert client.get_many(list(keys)) == keys

            self._through_every_shard(cluster, http_mget,
                                      lambda w: w["accepted"])
            self._through_every_shard(
                cluster, memcache_get,
                lambda w: w["app"]["cache_connections"])

            check = BlockingHttpClient(cluster.port)
            for key, value in keys.items():
                status, _headers, body = check.request("GET", f"/kv/{key}")
                assert status.endswith("200 OK"), (key, status)
                assert body == value
            check.close()
        finally:
            cluster.stop()

    def test_a_clean_start_fails_no_mesh_call(self):
        # The master starts shards in index order, so a shard's first
        # anti-entropy round dials only the peers already serving; each
        # later shard dials it in its own first round.  Once every shard
        # has run a round, a healthy start has failed no call.
        cluster = ClusterServer(
            kv_factory, shards=3, mesh=True, replication=2,
            respawn=False, grace=0.2,
        )
        cluster.start()
        try:
            deadline = time.monotonic() + 5.0
            while True:
                stats = cluster.stats()
                rounds = [worker["app"]["kv_anti_entropy_rounds"]
                          for worker in stats["workers"]]
                if min(rounds) >= 1:
                    break
                assert time.monotonic() < deadline, rounds
                time.sleep(0.02)
            assert stats["aggregate"]["mesh"]["peer_failures"] == 0
        finally:
            cluster.stop()

    def test_kv_stats_reports_replication_fields(self):
        cluster = ClusterServer(
            kv_factory, shards=2, mesh=True, replication=2, grace=0.2,
        )
        cluster.start()
        try:
            import json as json_mod
            client = BlockingHttpClient(cluster.port)
            self._put(client, "stats-key", b"x")
            status, headers, body = client.request("GET", "/kv-stats")
            assert status.endswith("200 OK")
            assert headers.get("transfer-encoding") == "chunked"
            lines = [json_mod.loads(line) for line in body.splitlines()]
            assert [entry["index"] for entry in lines] == [0, 1]
            for entry in lines:
                assert entry["replication"] == 2
                assert entry["write_quorum"] == 1
                for field in ("read_repairs", "hints_queued",
                              "hints_replayed", "hints_pending",
                              "replica_writes"):
                    assert field in entry
            # Both replicas hold the key.
            assert sum(entry["keys"] for entry in lines) == 2
            client.close()
        finally:
            cluster.stop()
