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

from repro.app.kv import HashRing, KvNode, KvQuorumError
from repro.core.do_notation import do
from repro.runtime.mesh import MeshNode
from repro.runtime.sim_runtime import SimRuntime

SHARDS = 3


def start_shard(rt, index, listeners):
    mesh = MeshNode(index, rt.io, listeners[index], listeners, rt.timers)
    node = KvNode(index, SHARDS, mesh=mesh, replication=2, write_quorum=2)
    rt.spawn(mesh.serve(), name=f"mesh-{index}")
    return node


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
    # Virtual time makes the per-GET interpreter cost exact.  Through a
    # replica a GET makes one remote call, through an outsider a fan-out
    # to both replicas.  The peer's reader serves each request on its
    # own thread (the KV's GET never parks), so a remote leg costs no
    # thread there.
    gets = 20

    @do
    def program(rt, nodes, _listeners):
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
    # (switches, trace nodes) per GET; (4, 10) and (10, 25) when every
    # request forked a thread of its own.
    assert costs == {"replica": (3.0, 6.0), "outsider": (8.0, 17.0)}
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
