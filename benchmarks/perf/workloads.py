"""The four pinned workloads: cluster shape, seeded ops, verification.

Every request is a byte string derived from ``--seed`` (key order and
value bytes; key *names* are fixed so ring placement, and with it the
local/remote coordinator mix, is identical on every seed).  The program
under test sees only those bytes.
"""

from __future__ import annotations

import random
from typing import Any

import shard
from loadgen import Client, Op, check_exact, http_get, http_put

KEYS = 1024
#: Length of the pre-drawn key-order / burst tables each client cycles.
TABLE = 4096


def _key(index: int) -> str:
    return f"key-{index:04d}"


class Workload:
    """Base: what the harness needs to know about one workload."""

    name = ""
    shards = 3
    #: Which SO_REUSEPORT group the measured clients connect to.
    cache_clients = False
    #: Server-side ops the cluster counts per client op (cross-check).
    server_ops_per_op = 1
    #: Keys one op touches (0: the workload never reaches the store).
    keys_per_op = 0
    #: Payload bytes one op asks the store to keep (writes only).
    write_bytes = 0

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = random.Random(seed)
        self.keys = 64 if quick else KEYS

    def cluster_kwargs(self, scratch: str) -> dict:
        """``ClusterConfig`` overrides (``scratch`` is a fresh directory)."""
        return {}

    def factory(self, trace_path: str | None):
        return shard.kv_factory(trace_path)

    def populate_ops(self, client: int) -> list[Op]:
        """Ops client ``client`` issues, closed loop, during set-up."""
        return []

    def next_op(self, client: Client) -> Op:
        raise NotImplementedError

    def server_ops(self, aggregate: dict) -> int:
        """The cluster's own count of the ops clients issue."""
        return aggregate["requests"]

    def final_ops(self, client: int) -> list[Op]:
        """Read-back ops verified after the last round."""
        return []


class HttpStatic(Workload):
    name = "http_static"
    shards = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.body = self.rng.randbytes(1024)
        self.op = http_get(shard.STATIC_BODY_PATH, self.body)

    def factory(self, trace_path):
        return shard.static_factory(self.body, trace_path)

    def next_op(self, client):
        return self.op


class _KvWorkload(Workload):
    value_bytes = 512
    write_quorum = 1
    keys_per_op = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.values = [self.rng.randbytes(self.value_bytes)
                       for _ in range(self.keys)]
        self.order = [self.rng.randrange(self.keys) for _ in range(TABLE)]

    def cluster_kwargs(self, scratch):
        return dict(mesh=True, replication=2, write_quorum=self.write_quorum)

    def _pick(self, client: Client) -> int:
        """Next key index for this client: both walk the same seeded
        table, half a table apart."""
        return self.order[(client.seq + client.index * (TABLE // 2)) % TABLE]


class KvRead(_KvWorkload):
    name = "kv_read"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.gets = [http_get(f"/kv/{_key(i)}", self.values[i])
                     for i in range(self.keys)]

    def populate_ops(self, client):
        return [http_put(f"/kv/{_key(i)}", self.values[i])
                for i in range(client, self.keys, 2)]

    def next_op(self, client):
        return self.gets[self._pick(client)]


class KvWriteDurable(_KvWorkload):
    name = "kv_write_durable"
    write_quorum = 2
    write_bytes = _KvWorkload.value_bytes

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.filler = self.rng.randbytes(4096)
        #: key index -> last value whose PUT was acknowledged.
        self.acked: dict[int, bytes] = {}
        #: client index -> (key index, value) of its unsettled PUT.
        self.pending: dict[int, tuple[int, bytes]] = {}

    def cluster_kwargs(self, scratch):
        # The flush policy is part of the workload: stated and fixed.
        return dict(super().cluster_kwargs(scratch), wal_dir=scratch,
                    wal_flush_interval=0.005, wal_group_max=128)

    def next_op(self, client):
        # Client c only writes keys of its own parity: one sequential
        # writer per key makes "the last acked value" well defined.
        index = (self._pick(client) & ~1) | client.index
        head = b"%s#%08d#" % (_key(index).encode(), client.seq)
        start = (index * 31 + client.seq) % (len(self.filler) - 512)
        value = head + self.filler[start:start + self.value_bytes - len(head)]
        # Being asked for a next op means this client's previous PUT was
        # verified: it is acknowledged.
        if client.index in self.pending:
            done, acked = self.pending[client.index]
            self.acked[done] = acked
        self.pending[client.index] = (index, value)
        return http_put(f"/kv/{_key(index)}", value)

    def final_ops(self, client):
        # Client c reads back what the *other* client wrote, so every
        # value crosses to a shard other than the one that coordinated it.
        # ``drive`` only returns after verified responses, so whatever
        # is still pending was acknowledged too.
        for index, value in self.pending.values():
            self.acked[index] = value
        self.pending.clear()
        return [http_get(f"/kv/{_key(index)}", value)
                for index, value in sorted(self.acked.items())
                if index % 2 != client]


class CachePipeline(_KvWorkload):
    name = "cache_pipeline"
    cache_clients = True
    value_bytes = 256
    gets_per_burst = 8
    keys_per_get = 4
    server_ops_per_op = gets_per_burst
    keys_per_op = gets_per_burst * keys_per_get

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.bursts = [self._burst() for _ in range(256)]

    def cluster_kwargs(self, scratch):
        return dict(super().cluster_kwargs(scratch), cache_port=0,
                    cache_protocol="memcache")

    def _burst(self) -> Op:
        request, reply = [], []
        for _ in range(self.gets_per_burst):
            picked = self.rng.sample(range(self.keys), self.keys_per_get)
            request.append("get " + " ".join(map(_key, picked)) + "\r\n")
            for index in picked:
                reply.append(b"VALUE %s 0 %d\r\n%s\r\n" % (
                    _key(index).encode(), self.value_bytes,
                    self.values[index]))
            reply.append(b"END\r\n")
        return Op("".join(request).encode(), check_exact, None,
                  b"".join(reply))

    def populate_ops(self, client):
        mine = range(client, self.keys, 2)
        ops = []
        for at in range(0, len(mine), 8):
            batch = mine[at:at + 8]
            request = b"".join(
                b"set %s 0 0 %d\r\n%s\r\n" % (
                    _key(i).encode(), self.value_bytes, self.values[i])
                for i in batch)
            ops.append(Op(request, check_exact, None,
                          b"STORED\r\n" * len(batch)))
        return ops

    def next_op(self, client):
        return self.bursts[
            (client.seq + client.index * 128) % len(self.bursts)]

    def server_ops(self, aggregate):
        return aggregate["app"]["cache_commands"]


WORKLOADS: dict[str, Any] = {
    cls.name: cls
    for cls in (HttpStatic, KvRead, KvWriteDurable, CachePipeline)
}
