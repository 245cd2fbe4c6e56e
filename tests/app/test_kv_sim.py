"""The replicated KV on virtual time: no sockets, no sleeps, no wall clock.

Three :class:`MeshNode` + :class:`KvNode` shards stand inside one
:class:`SimRuntime`; a peer's address is its ``kernel.net.listen()``
listener, so the mesh dials, frames and times out on the simulated
network and the virtual clock.  Everything a run does is a function of
the program, so two runs end at the same instant after the same number
of system calls — the seed of ROADMAP item 2 (deterministic simulation
of the distributed layers).
"""

from __future__ import annotations

import random

from repro.app.kv import HashRing, KvNode, KvQuorumError, _stamp_hash
from repro.app.record import CLOCK, MGET, decode, decode_run, encode, is_run
from repro.core.do_notation import do
from repro.runtime.mesh import MeshNode, MeshRemoteError
from repro.runtime.sim_runtime import SimRuntime

SHARDS = 3


def start_shard(rt, index, listeners):
    mesh = MeshNode(index, rt.io, listeners[index], listeners, rt.timers)
    node = KvNode(index, SHARDS, mesh=mesh, replication=2, write_quorum=2)
    rt.spawn(mesh.serve(), name=f"mesh-{index}")
    return node


@do
def catch_up(nodes):
    """One anti-entropy round on every node: each finishes an exchange
    with every peer, so every node has caught up."""
    for node in nodes.values():
        yield node.anti_entropy()
    assert all(node.caught_up for node in nodes.values())


def restart_empty(nodes, index):
    """Shard ``index`` restarts without a log: a fresh, empty node that
    has not caught up, behind the same mesh address."""
    nodes[index] = KvNode(index, SHARDS, mesh=nodes[index].mesh,
                          replication=2, write_quorum=2)
    return nodes[index]


def run_program(program, down=()):
    """Stand the cluster (shards in ``down`` refuse dials: their listener
    is closed and nothing serves it), run ``program(rt, nodes,
    listeners)`` to completion and return ``(rt, nodes, result)``."""
    rt = SimRuntime()
    listeners = {index: rt.kernel.net.listen() for index in range(SHARDS)}
    nodes = {}
    for index in range(SHARDS):
        if index in down:
            listeners[index].close()
        else:
            nodes[index] = start_shard(rt, index, listeners)
    done = []

    @do
    def main():
        done.append((yield program(rt, nodes, listeners)))

    rt.spawn(main(), name="program")
    rt.run(until=lambda: bool(done))
    return rt, nodes, done[0]


@do
def put_get_mget(_rt, nodes, _listeners):
    first, second = nodes[0].replicas("alpha")
    outsider = next(i for i in range(SHARDS) if i not in (first, second))
    created = yield nodes[first].put("alpha", b"1")
    through_replica = yield nodes[second].get("alpha")
    through_outsider = yield nodes[outsider].get("alpha")
    merged = yield nodes[outsider].mget(["alpha", "beta"])
    return created, through_replica, through_outsider, merged


def test_put_get_mget_across_three_shards():
    _rt, nodes, result = run_program(put_get_mget)
    created, through_replica, through_outsider, merged = result
    assert created == (True, None, False)
    assert through_replica == (True, b"1", False)
    assert through_outsider == (True, b"1", True)
    assert merged == {"alpha": b"1", "beta": None}
    holders = sorted(i for i, node in nodes.items() if "alpha" in node.store)
    assert holders == sorted(nodes[0].replicas("alpha"))


def test_the_same_program_ends_at_the_same_instant():
    first, _, first_result = run_program(put_get_mget)
    second, _, second_result = run_program(put_get_mget)
    assert first_result == second_result
    assert first.kernel.clock.now == second.kernel.clock.now > 0.0
    assert first.sched.total_syscalls == second.sched.total_syscalls


def test_refused_dial_parks_a_hint_that_replay_drains():
    # Shard 2 is down: every dial to it is refused.  A write it should
    # hold a replica of fails its quorum loudly, but the live replica
    # keeps the value and parks a hint; once the shard is back at a new
    # address, ``replay_hints`` delivers it.
    ring = HashRing(SHARDS, replication=2)
    key = next(f"k{n}" for n in range(100) if 2 in ring.replicas(f"k{n}"))
    live = next(i for i in ring.replicas(key) if i != 2)

    @do
    def program(rt, nodes, listeners):
        try:
            yield nodes[live].put(key, b"v")
            failed = None
        except KvQuorumError as exc:
            failed = exc
        pending = nodes[live].hints_pending
        # Respawn: a fresh listener, learned by the live shards.
        listeners[2] = rt.kernel.net.listen()
        for node in nodes.values():
            node.mesh.peers[2] = listeners[2]
        nodes[2] = start_shard(rt, 2, listeners)
        replayed = yield nodes[live].replay_hints(2)
        return failed, pending, replayed

    _rt, nodes, (failed, pending, replayed) = run_program(program, down={2})
    assert isinstance(failed, KvQuorumError)
    assert (pending, replayed) == (1, 1)
    assert nodes[live].hints_pending == 0
    assert nodes[live].mesh.stats.peer_failures >= 1
    assert nodes[2].store[key] == nodes[live].store[key] == b"v"


def test_a_get_costs_what_the_mesh_path_costs():
    # Virtual time makes the per-GET interpreter cost exact.  Caught up,
    # a replica reads its own copy and an outsider makes one call.  The
    # peer's reader serves each request on its own thread (the KV's GET
    # never parks), so a remote leg costs no thread there.
    gets = 20

    @do
    def program(rt, nodes, _listeners):
        yield catch_up(nodes)
        first, second = nodes[0].replicas("alpha")
        outsider = next(i for i in range(SHARDS) if i not in (first, second))
        yield nodes[first].put("alpha", b"1")
        costs = {}
        for path, via in (("replica", second), ("outsider", outsider)):
            yield nodes[via].get("alpha")  # dial the links first
            before = rt.sched.stats()
            for _ in range(gets):
                yield nodes[via].get("alpha")
            after = rt.sched.stats()
            costs[path] = tuple(
                (after[key] - before[key]) / gets
                for key in ("total_switches", "total_syscalls"))
        return costs

    _rt, nodes, costs = run_program(program)
    # (switches, trace nodes) per GET; (3, 6) and (8, 17) when every GET
    # read both replicas, (4, 10) and (10, 25) when every request also
    # forked a thread of its own.
    assert costs == {"replica": (0.0, 0.0), "outsider": (3.0, 6.0)}
    assert sum(node.mesh.stats.handoffs for node in nodes.values()) == 0


def _keys_of_every_primary(ring):
    """One key per primary shard, 0 to ``SHARDS - 1``."""
    keys = {}
    for n in range(1000):
        keys.setdefault(ring.owner(f"m{n}"), f"m{n}")
    return [keys[shard] for shard in range(SHARDS)]


def test_an_mget_over_every_shard_costs_one_call():
    # The coordinator reads the keys it holds a replica of locally and
    # the rest from one fixed peer: one mesh call, whatever the batch.
    keys = _keys_of_every_primary(HashRing(SHARDS, replication=2))
    mgets = 20

    @do
    def program(rt, nodes, _listeners):
        yield catch_up(nodes)
        for key in keys:
            yield nodes[0].put(key, key.encode())
        yield nodes[0].mget(keys)  # dial the links first
        calls = sum(node.mesh.stats.calls for node in nodes.values())
        before = rt.sched.stats()
        for _ in range(mgets):
            merged = yield nodes[0].mget(keys)
        after = rt.sched.stats()
        calls = (sum(node.mesh.stats.calls for node in nodes.values())
                 - calls) / mgets
        return merged, calls, tuple(
            (after[key] - before[key]) / mgets
            for key in ("total_switches", "total_syscalls"))

    _rt, _nodes, (merged, calls, cost) = run_program(program)
    assert merged == {key: key.encode() for key in keys}
    # (switches, trace nodes) per mget: what a GET through a replica
    # costs.  Grouped by primary owner it was two calls, (8, 17).
    assert calls == 1.0
    assert cost == (3.0, 6.0)


def test_an_mget_whose_chosen_peer_is_down_reads_every_replica():
    # Shard 0 lacks a key whose replicas are shards 1 and 2, and its
    # fixed peer order picks shard 1.  With shard 1 refusing dials, the
    # key falls back to the per-key read, which shard 2 answers with the
    # newest value.
    ring = HashRing(SHARDS, replication=2)
    remote = next(f"k{n}" for n in range(1000)
                  if ring.replicas(f"k{n}") in ([1, 2], [2, 1]))
    local = next(f"k{n}" for n in range(1000)
                 if ring.replicas(f"k{n}") in ([0, 2], [2, 0]))

    @do
    def program(_rt, nodes, _listeners):
        for value in (b"old", b"new"):
            for key in (remote, local):
                try:
                    yield nodes[2].put(key, value)
                except KvQuorumError:
                    pass  # shard 1 is down: 2 and 0 keep the write
        merged = yield nodes[0].mget([remote, local])
        return merged

    _rt, nodes, merged = run_program(program, down={1})
    assert merged == {remote: b"new", local: b"new"}
    assert nodes[0].mesh.stats.peer_failures >= 1


class TestReadRule:
    """``get`` reads by ``mget``'s rule, with the same fallback."""

    def test_a_get_whose_chosen_peer_is_down_reads_every_replica(self):
        # ``get``'s twin of the test above: the key's replicas are
        # shards 1 and 2, shard 1 refuses dials, and shard 2 answers the
        # newest value.
        ring = HashRing(SHARDS, replication=2)
        remote = next(f"k{n}" for n in range(1000)
                      if ring.replicas(f"k{n}") in ([1, 2], [2, 1]))
        local = next(f"k{n}" for n in range(1000)
                     if ring.replicas(f"k{n}") in ([0, 2], [2, 0]))

        @do
        def program(_rt, nodes, _listeners):
            for value in (b"old", b"new"):
                for key in (remote, local):
                    try:
                        yield nodes[2].put(key, value)
                    except KvQuorumError:
                        pass  # shard 1 is down: 2 and 0 keep the write
            read = {}
            for key in (remote, local):
                found, value, _proxied = yield nodes[0].get(key)
                read[key] = value if found else None
            return read

        _rt, nodes, read = run_program(program, down={1})
        assert read == {remote: b"new", local: b"new"}
        assert nodes[0].mesh.stats.peer_failures >= 1

    def test_a_caught_up_get_falls_back_when_its_chosen_peer_fails(self):
        # Caught up, shard 0 reads a key it lacks from shard 1 alone.
        # Once shard 1's handler fails, the read goes to every replica
        # and shard 2 answers.
        ring = HashRing(SHARDS, replication=2)
        key = next(f"k{n}" for n in range(1000)
                   if ring.replicas(f"k{n}") in ([1, 2], [2, 1]))

        def failing(_body):
            raise RuntimeError("replica fault")

        @do
        def program(_rt, nodes, _listeners):
            yield catch_up(nodes)
            yield nodes[2].put(key, b"v")
            one, every = {}, {}
            yield nodes[0].get(key, one)
            nodes[1].mesh.handler = failing
            read = yield nodes[0].get(key, every)
            return one, every, read

        _rt, _nodes, (one, every, read) = run_program(program)
        assert (one["consulted"], one["served_by"]) == (1, 1)
        assert read == (True, b"v", True)
        assert (every["consulted"], every["served_by"]) == (1, 2)


def _held_and_lacked(node):
    """A key ``node`` holds a replica of, and one it reads from a peer."""
    held = next(f"h{n}" for n in range(1000)
                if node.index in node.replicas(f"h{n}"))
    lacked = next(f"l{n}" for n in range(1000)
                  if node.index not in node.replicas(f"l{n}"))
    return held, lacked


class TestCatchUp:
    """A shard reads one replica only once it has caught up: one
    anti-entropy exchange with every peer since it started."""

    def test_a_shard_restarted_empty_reads_the_newest_until_caught_up(self):
        @do
        def program(_rt, nodes, _listeners):
            yield catch_up(nodes)
            node = nodes[1]
            held, lacked = _held_and_lacked(node)
            keys = [held, lacked, "ghost"]
            for key in (held, lacked):
                yield nodes[0].put(key, key.encode())
            node = restart_empty(nodes, 1)
            before = {}
            info = {}
            before["get"] = yield node.get(held, info)
            before["consulted"] = info["consulted"]
            before["mget"] = yield node.mget(keys)
            yield node.anti_entropy()
            calls = node.mesh.stats.calls
            after = {}
            info = {}
            after["get"] = yield node.get(held, info)
            after["consulted"] = info["consulted"]
            after["held_calls"] = node.mesh.stats.calls - calls
            after["mget"] = yield node.mget(keys)
            after["mget_calls"] = node.mesh.stats.calls - calls
            return held, lacked, before, after

        _rt, nodes, (held, lacked, before, after) = run_program(program)
        newest = {held: held.encode(), lacked: lacked.encode(),
                  "ghost": None}
        # Before: every replica read, the newest value, the empty copy
        # repaired on the way.
        assert before == {"get": (True, held.encode(), False),
                          "consulted": 2, "mget": newest}
        # After: its own copy for the key it holds, one call for the
        # rest.
        assert nodes[1].caught_up
        assert after == {"get": (True, held.encode(), False),
                         "consulted": 1, "held_calls": 0, "mget": newest,
                         "mget_calls": 1}
        assert nodes[1].anti_entropy_rounds == 1

    def test_a_shard_not_caught_up_refuses_a_one_replica_read(self):
        ring = HashRing(SHARDS, replication=2)
        # Shard 0 lacks the key and reads it from shard 1 first.
        key = next(f"r{n}" for n in range(1000)
                   if ring.replicas(f"r{n}") in ([1, 2], [2, 1]))

        @do
        def program(_rt, nodes, _listeners):
            yield catch_up(nodes)
            yield nodes[2].put(key, b"v")
            restart_empty(nodes, 1)
            try:
                yield nodes[0].mesh.call(1, encode(MGET, key))
                refused = None
            except MeshRemoteError as exc:
                refused = exc
            info = {}
            read = yield nodes[0].get(key, info)
            merged = yield nodes[0].mget([key])
            return refused, read, info, merged

        _rt, nodes, (refused, read, info, merged) = run_program(program)
        assert "has not caught up" in str(refused)
        # The coordinator fell back to every replica: the newest value,
        # and the empty copy on shard 1 repaired.
        assert read == (True, b"v", True)
        assert info["consulted"] == 2 and info["served_by"] == 2
        assert merged == {key: b"v"}
        assert nodes[1].store[key] == b"v"


class TestAntiEntropy:
    def test_a_round_without_divergence_is_one_call_per_peer(self):
        replies = []

        @do
        def program(_rt, nodes, _listeners):
            yield catch_up(nodes)
            for n in range(20):
                yield nodes[n % SHARDS].put(f"s{n}", b"x")
            for node in nodes.values():
                handler = node.mesh.handler

                @do
                def recording(body, handler=handler):
                    reply = yield handler(body)
                    if not is_run(body) and decode(body)[0] == CLOCK:
                        replies.append(decode_run(reply))
                    return reply

                node.mesh.handler = recording
            calls = nodes[0].mesh.stats.calls
            applied = yield nodes[0].anti_entropy()
            return applied, nodes[0].mesh.stats.calls - calls

        _rt, nodes, (applied, calls) = run_program(program)
        assert (applied, calls) == (0, SHARDS - 1)
        # Each peer answered an empty run: no WRITE record crossed.
        assert replies == [[]] * (SHARDS - 1)
        assert sum(node.anti_entropy_applied for node in nodes.values()) == 0

    def test_a_planted_divergence_converges_within_one_round(self):
        ring = HashRing(SHARDS, replication=2)
        pair = [key for key in (f"d{n}" for n in range(1000))
                if sorted(ring.replicas(key)) == [0, 1]][:3]
        newer_on_0, newer_on_1, deleted_on_1 = pair

        @do
        def program(_rt, nodes, _listeners):
            yield catch_up(nodes)
            for key in pair:
                yield nodes[2].put(key, b"old")
            # Writes no hint covers: applied on one replica only.
            nodes[0]._apply_versioned(newer_on_0, (100, 0), b"new")
            nodes[1]._apply_versioned(newer_on_1, (100, 1), b"new")
            nodes[1]._apply_versioned(deleted_on_1, (100, 1), None)
            return (yield nodes[0].anti_entropy())

        _rt, nodes, applied = run_program(program)
        assert applied == 2  # pulled from shard 1; the rest was pushed
        for node in (nodes[0], nodes[1]):
            assert node.store[newer_on_0] == node.store[newer_on_1] == b"new"
            assert deleted_on_1 not in node.store  # the tombstone won
            assert node.versions[deleted_on_1] == (100, 1)
        assert nodes[0].digests == nodes[1].digests
        assert nodes[1].anti_entropy_applied == 1

    def test_digests_equal_a_from_scratch_xor_after_random_writes(self):
        # Each key's digest share is kept, not recomputed: after random
        # overwrites, tombstones, writes planted on one replica only and
        # one anti-entropy round, every arc's digest must still be the
        # XOR over what the shard holds.
        rng = random.Random(1807)
        keys = [f"r{n}" for n in range(48)]

        @do
        def program(_rt, nodes, _listeners):
            yield catch_up(nodes)
            for step in range(400):
                key = rng.choice(keys)
                node = nodes[rng.randrange(SHARDS)]
                roll = rng.random()
                if roll < 0.5:
                    yield node.put(key, b"v%d" % step)
                elif roll < 0.7:
                    yield node.delete(key)
                else:
                    # No hint covers it: applied on one replica only.
                    holder = nodes[rng.choice(node.replicas(key))]
                    value = None if roll < 0.8 else b"planted%d" % step
                    holder._apply_versioned(
                        key, (holder.clock + 1, holder.index), value)
            applied = 0
            for node in nodes.values():
                applied += yield node.anti_entropy()
            return applied

        _rt, nodes, applied = run_program(program)
        assert applied > 0  # the round had divergence to heal
        for node in nodes.values():
            scratch = [0] * node.ring.arcs
            for key, version in node.versions.items():
                scratch[node.ring.arc(key)] ^= _stamp_hash(key, version)
            assert node.digests == scratch, node.index
