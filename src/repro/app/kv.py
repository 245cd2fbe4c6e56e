"""A sharded, replicated in-memory KV store over the mesh.

Keys map to shards through a consistent-hash ring (deterministic across
processes, so every shard computes the same placement).  Any shard can
answer any key.

Ring / replication rules (the invariants the service is built on):

* a key's **preference list** is its first ``replication`` *distinct*
  shards clockwise from the key's ring point (:meth:`HashRing.successors`);
  element 0 is the *primary*.  Every shard computes the same list.
* every write is stamped with a **per-key lamport-ish version** — a
  ``(counter, coordinator)`` pair.  Each node keeps one logical clock,
  bumped past every counter it observes, so versions from different
  coordinators totally order (ties broken by coordinator index) and a
  replica applies a write only if its version is *newer* than what it
  holds (last-write-wins).  Deletes are versioned tombstones: the version
  survives in the node's version map after the value is dropped, so a
  stale live value cannot resurrect a deleted key through read-repair
  or anti-entropy.
* **writes fan out** to the whole preference list concurrently — a
  coordinator that holds a replica appends its own log record, runs the
  fan-out, and waits for its own commit only after the fan-out joined,
  so a durable write costs one commit wait, not two; the op
  succeeds once ``write_quorum`` replicas acked (a partial failure below
  the quorum surfaces as :class:`KvQuorumError`, a monadic exception).
  Each *failed* replica gets **hinted handoff**: the versioned write is
  parked on a live successor (the coordinator when it is itself a
  replica, else the first replica that acked) and replayed when the peer
  comes back — triggered by the cluster control protocol's ``peer_up``
  event after a respawn/reload, and by a periodic hint pump as backstop.
* **a** ``get`` **and an** ``mget`` **read each key from one replica**,
  chosen by a rule of (shard, key) alone: this shard's own copy when it
  holds one, else the holder first in its fixed peer order
  ``(peer - index) % shards``, in one call.  A write returns only after
  every leg of its fan-out joined, so every replica that was up holds
  every acked write and one replica answers as well as the primary did.
  The rule holds only on a shard that has **caught up**: every shard
  starts not caught up (first start, respawn or reload) and catches up
  once it has finished one anti-entropy exchange with every peer it
  shares ring arcs with.  Until then it reads every replica, and it
  refuses a one-replica read with an error reply.  That **newest-of-N**
  read is also the fallback when the chosen peer fails or refuses: it
  consults the whole preference list, returns the newest version seen,
  and **read-repairs** any answering replica that was stale or missing
  over one-way mesh casts.  A shard refuses a mesh read of a key it
  holds no replica of (an error reply, never a miss).
* **anti-entropy heals replicas**: each shard keeps one digest per ring
  arc (an XOR of a 64-bit hash of every ``(key, version)`` it holds
  there) and, once per pump tick, sends its peers the digests of the
  arcs they share — one call per peer.  For an arc whose digests differ
  the two sides swap the ``(key, version, value)`` records of that arc
  and each applies only newer versions, tombstones included, logged like
  any write.  A replica that diverged without a restart (a hint lost
  with its holder's memory, a lost read-repair patch) serves its stale
  copy until the next round.
* on a graceful stop each shard **drains**: it pushes every key it holds
  to the key's other replicas, so a rolling ``reload()`` never drops the
  last live copy of a key.

``replication=1`` (the default) is the N=1 case of the same paths, not a
second implementation: the preference list is ``[owner]``, a non-owner
coordinates a one-peer fan-out, no two shards share an arc (so every
shard is caught up from the start), and with ``mesh=None`` the single
shard owns every key and no op leaves the process.

The HTTP facade serves the store through the layered stack
(:class:`~repro.runtime.driver.ConnectionDriver` →
:class:`~repro.http.server.HttpProtocol` → :class:`KvHttpHandler`):

* ``GET/PUT/DELETE /kv/<key>`` — single-key ops; responses carry
  ``X-Kv-Source: local|proxied`` (did the landing shard hold a replica?)
  and ``X-Kv-Replicas: acked/replicas`` (how many replicas answered: a
  one-replica read says ``1/2`` at replication 2);
* ``GET /mget?keys=a,b,c`` — the cross-shard multi-get, as JSON;
* ``GET /kv-stats`` — the cluster-wide stats fan-out, streamed with
  chunked transfer encoding (one JSON line per shard, including the
  replication/read-repair/handoff counters).

The mesh wire format is the binary record of :mod:`repro.app.record`:
a body is one record or, for ``mget`` and anti-entropy, a counted run
of them, and a ``WRITE`` or ``HINT`` body is byte for byte what the
receiving shard appends to its log.  A reply the codec refuses — or an
``mget`` reply that does not cover exactly the keys asked for — is that
call's :class:`~repro.runtime.mesh.MeshProtocolError`: a failed peer,
never a handler bug or a silent miss.  JSON stays on the public HTTP surface
(``/mget``, ``/kv-stats`` and the blob a ``STATS`` reply carries).
Nothing is negotiated: peers from a build before the record codec answer
each other with error replies, so upgrade across it with the cluster
drained (and ``wal_dir`` empty, see :mod:`repro.app.wal`).

**Durability** (optional, per shard): constructed with a
:class:`~repro.app.wal.ShardWal`, every state change — versioned
applies and parked hints — is appended to the
shard's write-ahead log and **acked only after the group commit lands**
(writers park on the log's flush barrier; one ``fsync`` wakes many).
On start the node replays the snapshot plus the committed log prefix,
so a ``kill -9`` loses nothing that was acked.  Hint *removals* are not
logged: a replayed hint is a versioned write the target already holds,
so re-replaying it after a crash is an idempotent no-op.

The in-memory apply happens *before* the commit parks, so a write whose
group flush fails is not acked (the client sees the failure) yet may
stay visible to readers and be made durable by a later snapshot — the
standard write-ambiguity of a last-write-wins store, the same as a
write that reached only a subset of its replicas before erroring.  The
guarantee is one-sided: an acked write is never lost (acked ⇒ durable on
every replica counted toward the quorum); a failed write is not
guaranteed lost (failed ⇏ absent).  The failure order of the overlapped
write is specified: if the coordinator's *own* flush fails, the op
raises :class:`~repro.app.wal.WalError` (HTTP 503) only after the
fan-out joined — a healthy remote replica holds the write durably, no
mesh call or fan-out thread is left behind, and no hint is parked; if a
*remote* leg fails (its error comes back as a value) and the local
flush succeeds, the local ack counts, a hint is parked and logged, and
the op fails with :class:`KvQuorumError` only below ``write_quorum``.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import json
import os
import struct
from typing import Any, Iterable
from urllib.parse import unquote, urlsplit

from ..core.do_notation import do
from ..core.monad import M, pure
from ..core.syscalls import sys_fork
from ..http.message import HttpError, HttpRequest, HttpResponse
from ..http.server import EmptyFilesystem, WebServer
from ..runtime.mesh import (MeshError, MeshNode, MeshProtocolError,
                            MeshTimeout)
from .record import (APPLIED, CLOCK, EXISTED, GET, HINT, MGET, STATS, WRITE,
                     RecordError, decode, decode_run, encode, encode_run,
                     is_run)
from .wal import ShardWal, WalError

__all__ = ["HashRing", "KvNode", "KvHttpHandler", "KvQuorumError",
           "build_kv_app"]

#: Seconds between hint-pump firings (the backstop behind ``peer_up``).
HINT_REPLAY_INTERVAL = 1.0

#: Keys a :class:`HashRing` remembers the placement of before its memo
#: starts over.  A memory bound, not a tuned value: the memo only pays
#: when keys repeat within this many lookups.
RING_MEMO_KEYS = 16 * 1024

#: Longest key (in characters) the memo keeps alive; a longer key is
#: placed by the same lookup but not remembered.  Memcache's key limit.
#: With :data:`RING_MEMO_KEYS` this bounds the memo at the cap: ~0.4 MiB
#: of table plus the key strings it keeps alive — ~1.3 MiB in all for
#: short ASCII keys (``key-00042``), ~5 MiB for 250-character ASCII keys
#: and ~17 MiB at worst (250-character keys holding a character outside
#: the BMP, so stored at 4 bytes each).  The preference lists are shared.
RING_MEMO_KEY_CHARS = 250

#: The counters ``local_stats`` reports bare and ``extra_stats`` with a
#: ``kv_`` prefix (``keys`` is computed beside them).
_COUNTERS = ("owned_ops", "proxied_ops", "mesh_served_ops",
             "replica_writes", "read_repairs", "hints_queued",
             "hints_replayed", "hints_pending", "quorum_failures",
             "anti_entropy_rounds", "anti_entropy_applied")

_STAMP = struct.Struct("<QI")


class KvQuorumError(MeshError):
    """A replicated write was acked by fewer than ``write_quorum``
    replicas (the acked subset keeps the write; hints are parked for the
    rest, but the client must treat the op as failed)."""


class HashRing:
    """A consistent-hash ring: ``vnodes`` points per shard.

    Hashing is :mod:`hashlib`-based so the placement is identical in every
    shard process (builtin ``hash`` is salted per process).
    ``replication`` is the default preference-list length served by
    :meth:`replicas` (clamped to the shard count).

    :meth:`replicas` (and :meth:`owner`, its element 0) is memoised: the
    preference list of every ring point is built once, at construction,
    and a key seen before costs one ``dict.get`` instead of an md5 and a
    bisect.  The memo starts over at :data:`RING_MEMO_KEYS` keys and
    never keeps a key longer than :data:`RING_MEMO_KEY_CHARS`.  The
    lists it returns are shared by every key landing on the same ring
    point, so a caller must never mutate one (the call sites in this
    module only test membership, iterate and index).
    :meth:`successors` walks the ring afresh and is the reference.
    """

    def __init__(self, shards: int, vnodes: int = 64,
                 replication: int = 1) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.shards = shards
        self.vnodes = vnodes
        self.replication = min(replication, shards)
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                digest = hashlib.md5(
                    f"shard{shard}#{vnode}".encode()
                ).digest()
                points.append(
                    (int.from_bytes(digest[:8], "big"), shard)
                )
        points.sort()
        self._hashes = [point for point, _shard in points]
        self._owners = [shard for _point, shard in points]
        #: ``_lists[i]``: the preference list of a key whose point falls
        #: just before ring point ``i``.
        self._lists = [self._walk(start, self.replication)
                       for start in range(len(points))]
        #: key -> the index of its arc (its preference list in ``_lists``).
        self._memo: dict[str, int] = {}

    def _point(self, key: str) -> int:
        digest = hashlib.md5(key.encode("utf-8", "surrogatepass")).digest()
        return int.from_bytes(digest[:8], "big")

    def _walk(self, start: int, count: int) -> list[int]:
        """The first ``count`` distinct shards clockwise from ring point
        ``start`` (capped at the shard count)."""
        total = len(self._owners)
        want = min(count, self.shards)
        found: list[int] = []
        seen: set[int] = set()
        for step in range(total):
            shard = self._owners[(start + step) % total]
            if shard not in seen:
                seen.add(shard)
                found.append(shard)
                if len(found) == want:
                    break
        return found

    def owner(self, key: str) -> int:
        """The shard owning ``key`` (clockwise successor on the ring)."""
        return self.replicas(key)[0]

    def successors(self, key: str, count: int) -> list[int]:
        """The first ``count`` *distinct* shards clockwise from ``key``'s
        ring point — the key's preference list; element 0 is the primary
        owner.  Capped at the shard count."""
        return self._walk(bisect.bisect_right(self._hashes, self._point(key)),
                          count)

    def replicas(self, key: str) -> list[int]:
        """``key``'s preference list at the ring's replication factor
        (shared: do not mutate it)."""
        arc = self._memo.get(key)
        if arc is None:
            arc = self.arc(key)
        return self._lists[arc]

    def arc(self, key: str) -> int:
        """The ring arc ``key`` falls on: the keys between two adjacent
        ring points, which share one preference list.  Arcs are numbered
        ``0 .. arcs - 1``, the same in every shard."""
        found = self._memo.get(key)
        if found is None:
            found = (bisect.bisect_right(self._hashes, self._point(key))
                     % len(self._lists))
            if len(key) <= RING_MEMO_KEY_CHARS:
                if len(self._memo) >= RING_MEMO_KEYS:
                    self._memo.clear()
                self._memo[key] = found
        return found

    @property
    def arcs(self) -> int:
        return len(self._lists)

    def shared_arcs(self, index: int) -> dict[int, list[int]]:
        """``{peer: arcs}``: every other shard that holds a replica of
        some arc shard ``index`` holds, with those arcs (empty at
        ``replication=1``)."""
        shared: dict[int, list[int]] = {}
        for arc, holders in enumerate(self._lists):
            if index in holders:
                for peer in holders:
                    if peer != index:
                        shared.setdefault(peer, []).append(arc)
        return shared


def _newer(a, b) -> bool:
    """Version comparison; ``None`` (never written) loses to any stamp."""
    if a is None:
        return False
    if b is None:
        return True
    return a > b


def _stamp_hash(key: str, version: tuple[int, int]) -> int:
    """A 64-bit hash of ``(key, version)``: what a key adds to its arc's
    anti-entropy digest (XOR, so the digest ignores order)."""
    raw = key.encode("utf-8", "surrogatepass") + _STAMP.pack(*version)
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(),
                          "little")


def _answers(replies, peers, failures, decoder=decode):
    """``(peer, decoded reply)`` for each of ``peers`` that answered a
    fan-out.  A failed peer lands in ``failures`` instead, and so does
    one whose bytes the codec refuses: a :class:`MeshProtocolError` for
    that call only (the frame was well-formed, so the link stays up)."""
    for peer in peers:
        reply = replies.get(peer)
        if isinstance(reply, bytes):
            try:
                yield peer, decoder(reply)
                continue
            except RecordError as exc:
                reply = MeshProtocolError(
                    f"peer {peer}: unreadable reply: {exc}")
        failures[peer] = reply


class KvNode:
    """One shard's view of the sharded store: local state + mesh client.

    With ``mesh=None`` (single-process serving, ``shards=1``) the node
    owns every key.  Every key lives on its ``replication`` ring
    successors and every op runs the versioned read/write paths (see the
    module docstring for the invariants).
    """

    def __init__(
        self,
        index: int,
        shards: int,
        mesh: MeshNode | None = None,
        replication: int = 1,
        write_quorum: int = 1,
        wal: ShardWal | None = None,
    ) -> None:
        if mesh is None and shards != 1:
            raise ValueError("a KvNode without a mesh is the only shard")
        self.index = index
        self.shards = shards
        self.replication = max(1, min(replication, shards))
        self.write_quorum = max(1, min(write_quorum, self.replication))
        self.ring = HashRing(shards, replication=self.replication)
        self.mesh = mesh
        self.store: dict[str, bytes] = {}
        #: Per-key version stamps: ``key -> (counter, coordinator)``.
        #: Tombstones live here (key stamped but absent from ``store``).
        self.versions: dict[str, tuple[int, int]] = {}
        #: This node's lamport-ish clock: bumped past every counter seen.
        self.clock = 0
        #: Parked hinted-handoff writes:
        #: ``target shard -> {key: (version, value-or-None)}``.
        self.hints: dict[int, dict[str, tuple[tuple[int, int],
                                              bytes | None]]] = {}
        self.pump_running = False
        #: Single-key ops executed against the local store (this shard
        #: holds a replica of the key), whether over HTTP or the mesh.
        self.owned_ops = 0
        #: Single-key ops this shard coordinated without holding a
        #: replica (forwarded over the mesh).
        self.proxied_ops = 0
        #: Requests this shard served for peers (the mesh-inbound side).
        self.mesh_served_ops = 0
        #: Replica writes applied for remote coordinators (r_write ops).
        self.replica_writes = 0
        #: Stale/missing replicas this node patched during reads.
        self.read_repairs = 0
        #: Hinted writes parked here (for any downed target).
        self.hints_queued = 0
        #: Parked hints successfully replayed to their target.
        self.hints_replayed = 0
        #: Replicated writes that failed their write quorum.
        self.quorum_failures = 0
        #: Per ring arc: XOR of :func:`_stamp_hash` over every key this
        #: shard holds a version of on that arc (tombstones included);
        #: kept only while some peer shares an arc with this shard.
        self.digests = [0] * self.ring.arcs
        #: Each key's current share of its arc's digest (its
        #: :func:`_stamp_hash`), so an overwrite hashes only the new stamp.
        self._stamps: dict[str, int] = {}
        #: ``{peer: arcs}`` this shard exchanges digests over.
        self._shared = self.ring.shared_arcs(index)
        #: Peers this shard has not finished an anti-entropy exchange
        #: with since it started.  Empty means *caught up*: only then
        #: does it read one replica and serve one-replica reads.
        self._unsynced = set(self._shared)
        self._syncing = False
        #: Anti-entropy rounds this shard ran (one call per peer each).
        self.anti_entropy_rounds = 0
        #: Versions anti-entropy applied here (pulled or pushed to it).
        self.anti_entropy_applied = 0
        #: Optional per-shard write-ahead log: every ack waits for its
        #: group commit, and construction replays the durable state.
        self.wal = wal
        if wal is not None:
            wal.state_fn = self._wal_state
            self._recover()
        if mesh is not None:
            mesh.handler = self._handle_mesh

    # ------------------------------------------------------------------
    # Local primitives (a replica's side of every op).
    # ------------------------------------------------------------------
    def _local_get(self, key: str) -> bytes | None:
        return self.store.get(key)

    def _apply_versioned(
        self, key: str, version, value: bytes | None
    ) -> tuple[bool, bool]:
        """Apply a versioned write if it is newer than what we hold.

        Returns ``(applied, existed)`` where ``existed`` is whether a
        live value was present *before* the apply (drives the HTTP
        201-created / 404-delete semantics).  ``value=None`` is a
        tombstone: the value is dropped but the version stamp stays, so
        an older live copy can never win against the delete.
        """
        existed = key in self.store
        current = self.versions.get(key)
        if current is not None and current >= version:
            # Rejected as stale — but still *observe* the newer counter
            # (lamport's rule), so this node's next stamp beats it.
            self.clock = max(self.clock, current[0])
            return False, existed
        self.versions[key] = version
        self.clock = max(self.clock, version[0])
        if self._shared:
            stamp = _stamp_hash(key, version)
            self.digests[self.ring.arc(key)] ^= (
                stamp ^ self._stamps.get(key, 0))
            self._stamps[key] = stamp
        if value is None:
            self.store.pop(key, None)
        else:
            self.store[key] = value
        return True, existed

    # ------------------------------------------------------------------
    # Durability: the write-ahead log (commit before ack, replay on
    # start).  Helpers resume with 0 and log nothing when no WAL is
    # configured, so call sites stay unconditional.
    # ------------------------------------------------------------------
    def _wal_commit(self, payload: bytes) -> M:
        if self.wal is None:
            return pure(0)
        return self.wal.commit(payload)

    def _wal_state(self) -> list[bytes]:
        """Full state for a WAL snapshot (compaction), as the records
        the log itself would hold: the clock, one ``WRITE`` per stamped
        key (tombstones included), one ``HINT`` per parked write."""
        records = [encode(CLOCK, version=(self.clock, self.index))]
        for key, version in self.versions.items():
            records.append(encode(WRITE, key, version, self.store.get(key)))
        for target, bucket in self.hints.items():
            for key, (version, value) in bucket.items():
                records.append(encode(HINT, key, version, value, target))
        return records

    def _recover(self) -> None:
        """Rebuild state from the WAL: the snapshot's records, then every
        committed log record, through one apply path (plain code, runs
        once at construction)."""
        for source, payload in self.wal.recover():
            try:
                op, flags, key, version, value, target = decode(payload)
                if op not in (WRITE, HINT, CLOCK) or version is None:
                    raise RecordError(
                        f"op {op} (flags {flags:#x}) is not a WAL record "
                        f"kind")
            except RecordError as exc:
                # A log from another build: skipping the record would
                # lose an acked write without a word.
                self.wal.close()
                raise WalError(
                    f"shard {self.index}: {source}: {exc}") from None
            if op == WRITE:
                self._apply_versioned(key, version, value)
            elif op == HINT:
                self._queue_hint(target, key, version, value)
            else:
                self.clock = max(self.clock, version[0])

    @property
    def hints_pending(self) -> int:
        return sum(len(bucket) for bucket in self.hints.values())

    def _counters(self, prefix: str = "") -> dict:
        counters = {prefix + "keys": len(self.store)}
        for name in _COUNTERS:
            counters[prefix + name] = getattr(self, name)
        return counters

    def local_stats(self) -> dict:
        stats = {
            "index": self.index,
            "replication": self.replication,
            "write_quorum": self.write_quorum,
            **self._counters(),
            "clock": self.clock,
        }
        if self.wal is not None:
            stats["wal"] = self.wal.stats()
        return stats

    def extra_stats(self) -> dict:
        """Numeric app counters for the cluster control snapshot."""
        stats = self._counters("kv_")
        if self.wal is not None:
            # wal_appends / wal_fsyncs / wal_group_* / wal_replayed_*:
            # summed cluster-wide except wal_group_max (a high-water
            # gauge the master merges as max).
            stats.update(self.wal.stats())
        return stats

    # ------------------------------------------------------------------
    # Sharded operations (any shard, any key).
    # ------------------------------------------------------------------
    def owner(self, key: str) -> int:
        return self.ring.owner(key)

    def replicas(self, key: str) -> list[int]:
        return self.ring.replicas(key)

    @do
    def put(self, key: str, value: bytes, info: dict | None = None):
        """Resumes with ``(created, None, proxied)``."""
        existed, is_local = yield self._replicated_write(key, value, info)
        return not existed, None, not is_local

    @do
    def delete(self, key: str, info: dict | None = None):
        """Resumes with ``(deleted, None, proxied)``."""
        existed, is_local = yield self._replicated_write(key, None, info)
        return existed, None, not is_local

    # ------------------------------------------------------------------
    # The write path: fan out, quorum, hinted handoff.
    # ------------------------------------------------------------------
    @do
    def _replicated_write(self, key, value, info):
        """Stamp, fan out to the preference list, enforce the quorum.

        Resumes with ``(existed_anywhere, coordinator_is_replica)``;
        raises :class:`KvQuorumError` below ``write_quorum`` acks.

        A coordinator whose clock lags the key's current counter (it
        never applied the earlier writes — a non-replica shard, or a
        freshly respawned one) would stamp a version the replicas
        reject as stale.  Replica replies therefore carry the replica's
        clock; the coordinator merges them, and if any replica rejected
        the stamp it re-stamps (now guaranteed newer) and repeats the
        round once — so an acknowledged write is never silently lost to
        a stale stamp.
        """
        replicas = self.ring.replicas(key)
        is_local = self.index in replicas
        if is_local:
            self.owned_ops += 1
        else:
            self.proxied_ops += 1
        (version, acked, existed_any, rejected, failures,
         acked_remote) = yield self._write_round(
            key, value, replicas, is_local
        )
        if rejected:
            # Clocks merged above: the fresh stamp beats whatever the
            # rejecting replica held.  ``existed`` from the first round
            # stays authoritative (it reflects the pre-write state).
            (version, acked, _existed_retry, _rejected, failures,
             acked_remote) = yield self._write_round(
                key, value, replicas, is_local
            )
        if failures and acked > 0:
            # Hinted handoff: park the write for each downed replica on
            # a live successor — this node when it holds a replica, else
            # the first replica that acked (the hint then sits next to a
            # durable copy of the data).
            for peer in failures:
                yield self._park_hint(peer, key, version, value,
                                      is_local, acked_remote)
        if info is not None:
            info.update(replicas=len(replicas), acked=acked,
                        hinted=len(failures) if acked else 0,
                        version=version)
        if acked < self.write_quorum:
            self.quorum_failures += 1
            detail = ", ".join(
                f"peer {peer}: {exc!r}" for peer, exc in failures.items()
            )
            raise KvQuorumError(
                f"write to {key!r} acked by {acked}/{len(replicas)} "
                f"replicas (write_quorum={self.write_quorum}): {detail}"
            )
        return existed_any, is_local

    @do
    def _write_round(self, key, value, replicas, is_local):
        """One stamped fan-out to the preference list.

        Resumes with ``(version, acked, existed_any, rejected, failures,
        acked_remote)``; merges every reply's clock into this node's.
        """
        self.clock += 1
        version = (self.clock, self.index)
        acked = 0
        rejected = False
        existed_any = False
        barrier = None
        # One encoding: the mesh body each replica receives is the
        # record it (and this node) appends to its log.
        body = encode(WRITE, key, version, value)
        if is_local:
            applied, existed = self._apply_versioned(key, version, value)
            if applied and self.wal is not None:
                # The record joins the WAL batch now; the wait for its
                # group flush comes after the fan-out below has joined,
                # so the local commit and the replicas' overlap.
                barrier = yield self.wal.append(body)
            existed_any = existed_any or existed
            rejected = rejected or not applied
            acked += 1
        remote = [peer for peer in replicas if peer != self.index]
        failures: dict[int, BaseException | None] = {}
        acked_remote: list[int] = []
        if remote:
            replies = yield self.mesh.fan_out(
                {peer: body for peer in remote}
            )
            for peer, (_op, flags, _key, stamp, _value, _target) in _answers(
                    replies, remote, failures):
                if stamp is not None:
                    self.clock = max(self.clock, stamp[0])
                existed_any = existed_any or bool(flags & EXISTED)
                rejected = rejected or not flags & APPLIED
                acked += 1
                acked_remote.append(peer)
        if barrier is not None:
            # Ack-after-commit: the local replica's ack counts only once
            # the versioned apply is fsync-durable.  The apply itself
            # already happened: if the flush fails, the write errors to
            # the client (WalError, raised here — after the join, so no
            # call or reply box is left behind) but may remain visible:
            # see the module docstring's durability caveat.
            yield self.wal.wait(barrier)
        return version, acked, existed_any, rejected, failures, acked_remote

    @do
    def _park_hint(self, target, key, version, value, is_local,
                   acked_remote):
        body = encode(HINT, key, version, value, target)
        if not is_local and acked_remote:
            try:
                yield self.mesh.cast(acked_remote[0], body)
                return None
            except MeshError:
                # The acked replica went down between the write and the
                # hint forward: park here as the live node of last resort.
                pass
        if self._queue_hint(target, key, version, value):
            # Hints persist in the same log: a parked handoff must
            # survive this node crashing before it replays.
            yield self._wal_commit(body)
        return None

    def _queue_hint(self, target, key, version, value) -> bool:
        bucket = self.hints.setdefault(target, {})
        old = bucket.get(key)
        if old is None or _newer(version, old[0]):
            bucket[key] = (version, value)
            # Counted only when something was actually parked/updated,
            # so queued - replayed tracks the real backlog.
            self.hints_queued += 1
            return True
        return False

    # ------------------------------------------------------------------
    # The read path: one replica once caught up, else newest of all.
    # ------------------------------------------------------------------
    def _read_peer(self, replicas: list[int]) -> int:
        """The holder first in this shard's fixed peer order
        ``(peer - index) % shards``: where a key it lacks is read."""
        index, shards = self.index, self.shards
        return min(replicas, key=lambda peer: (peer - index) % shards)

    @property
    def caught_up(self) -> bool:
        """Has this shard finished an anti-entropy exchange with every
        peer it shares ring arcs with since it started?"""
        return not self._unsynced

    @do
    def get(self, key: str, info: dict | None = None):
        """Resumes with ``(found, value, proxied)``.

        A caught-up shard reads one replica: its own copy when it holds
        one, else one call to :meth:`_read_peer`.  A shard that has not
        caught up, or whose chosen peer fails or refuses, reads every
        replica instead (:meth:`_read_newest`).  ``info`` (optional
        dict) is filled with replication detail:
        ``replicas``/``consulted``/``repaired``/``served_by``.
        """
        replicas = self.ring.replicas(key)
        is_local = self.index in replicas
        if is_local:
            self.owned_ops += 1
        else:
            self.proxied_ops += 1
        if not self._unsynced:
            served_by = self.index
            if is_local:
                value = self.store.get(key)
            else:
                served_by = self._read_peer(replicas)
                try:
                    reply = yield self.mesh.call(served_by,
                                                 encode(MGET, key))
                    try:
                        value = decode(reply)[4]
                    except RecordError as exc:
                        raise MeshProtocolError(
                            f"peer {served_by}: unreadable reply: {exc}"
                        ) from None
                except MeshError:
                    if self.replication <= 1:
                        raise
                    served_by = None
            if served_by is not None:
                if info is not None:
                    info.update(replicas=len(replicas), consulted=1,
                                acked=1, repaired=0, served_by=served_by)
                return value is not None, value, not is_local
        value = yield self._read_newest(key, replicas, info)
        return value is not None, value, not is_local

    @do
    def _read_newest(self, key, replicas, info):
        """Read every replica of ``key``; resume with the newest value
        (``None`` for a miss or a tombstone) and read-repair every
        answering replica that was stale or missing."""
        #: replica -> (version-or-None, live-value-or-None)
        answers: dict[int, tuple[tuple[int, int] | None, bytes | None]] = {}
        failures: dict[int, BaseException | None] = {}
        if self.index in replicas:
            answers[self.index] = (self.versions.get(key),
                                   self._local_get(key))
        remote = [peer for peer in replicas if peer != self.index]
        if remote:
            body = encode(GET, key)
            replies = yield self.mesh.fan_out(
                {peer: body for peer in remote}
            )
            for peer, (_op, _flags, _key, version, value, _target) in _answers(
                    replies, remote, failures):
                if version is not None:
                    # Reads observe versions too: keep the clock ahead
                    # of every counter this node has seen.
                    self.clock = max(self.clock, version[0])
                answers[peer] = (version, value)
        if not answers:
            # Primary down AND every fallback successor down.
            failure = failures.get(replicas[0])
            if isinstance(failure, MeshError):
                raise failure
            raise MeshTimeout(
                f"all {len(replicas)} replicas of {key!r} unreachable"
            )
        # Newest version wins; the primary's answer wins ties, so the
        # fallback order is the ring's preference order.
        best_peer: int | None = None
        best_version: tuple[int, int] | None = None
        best_value: bytes | None = None
        for peer in replicas:
            if peer not in answers:
                continue
            version, value = answers[peer]
            if best_peer is None or _newer(version, best_version):
                best_peer, best_version, best_value = peer, version, value
        repaired = 0
        if best_version is not None:
            for peer in replicas:
                if peer == best_peer or peer not in answers:
                    continue
                version, _stale = answers[peer]
                if _newer(best_version, version):
                    yield self._repair(peer, key, best_version, best_value)
                    repaired += 1
        if info is not None:
            info.update(replicas=len(replicas), consulted=len(answers),
                        acked=len(answers), repaired=repaired,
                        served_by=best_peer)
        return best_value

    @do
    def _repair(self, peer, key, version, value):
        """Patch one stale/missing replica with the newest versioned
        value.  Remote repairs are fire-and-forget one-way casts — a
        lost patch is healed by the next anti-entropy round."""
        self.read_repairs += 1
        body = encode(WRITE, key, version, value)
        if peer == self.index:
            applied, _existed = self._apply_versioned(key, version, value)
            if applied:
                yield self._wal_commit(body)
            return None
        yield sys_fork(self._cast_quietly(peer, body),
                       name="kv-read-repair")
        return None

    @do
    def _cast_quietly(self, peer, body):
        try:
            yield self.mesh.cast(peer, body)
        except MeshError:
            pass  # replica went down again: anti-entropy heals it

    # ------------------------------------------------------------------
    # Hinted handoff: replay parked writes when their target returns.
    # ------------------------------------------------------------------
    @do
    def replay_hints(self, peer: int | None = None):
        """Replay parked writes to ``peer`` (or every hinted target).

        Resumes with the number of hints drained.  A target that is
        still down keeps its remaining hints for the next attempt.  The
        cluster control protocol calls this (via the app's
        ``on_peer_up`` hook) when a shard respawns or reloads; the
        periodic :meth:`pump_tick` is the backstop.
        """
        if self.mesh is None:
            return 0
        targets = [peer] if peer is not None else list(self.hints)
        replayed = 0
        for target in targets:
            bucket = self.hints.get(target)
            while bucket:
                key, (version, value) = next(iter(bucket.items()))
                try:
                    yield self.mesh.call(
                        target, encode(WRITE, key, version, value))
                except MeshError:
                    break  # still down: keep the rest for the next pass
                current = bucket.get(key)
                if current is not None and current[0] == version:
                    del bucket[key]
                self.hints_replayed += 1
                replayed += 1
            if not bucket:
                self.hints.pop(target, None)
        return replayed

    @do
    def pump_tick(self, timers: Any):
        """One timer-wheel firing of the hint pump: fork a replay if
        hints are parked and an anti-entropy round (neither may stretch
        the pump's period), then re-arm.  Stops re-arming once
        ``pump_running`` is cleared."""
        if not self.pump_running:
            return
        if self.hints:
            yield sys_fork(self._replay_quietly(), name="kv-hint-replay")
        yield sys_fork(self.anti_entropy_quietly(), name="kv-anti-entropy")
        yield timers.schedule(HINT_REPLAY_INTERVAL,
                              lambda: self.pump_tick(timers))

    @do
    def _replay_quietly(self):
        try:
            yield self.replay_hints()
        except MeshError:
            pass  # target still down: the next tick retries

    # ------------------------------------------------------------------
    # Anti-entropy: per-arc digests, then the keys of the arcs that differ.
    # ------------------------------------------------------------------
    @do
    def anti_entropy(self, peers: Iterable[int] | None = None):
        """One anti-entropy round with every peer this shard shares ring
        arcs with (those of them in ``peers``, when given), all at once.
        Resumes with the number of versions it applied here.

        Each peer gets one call: a ``CLOCK`` record carrying this
        shard's digests of the arcs the two share (:meth:`_digests`).  A
        peer whose digests all match answers an empty run — one call, no
        ``WRITE`` record, and each side counts the exchange as finished.
        Else it answers its own digests, then the ``WRITE`` record of
        every key it holds on an arc that differs; this shard applies the
        newer versions and pushes back, in one more call, the keys it
        holds newer than the peer's.  A peer that answered is one this
        shard has caught up with; a failed one is retried next round.
        """
        shared = self._shared
        if peers is not None:
            shared = [peer for peer in peers if peer in shared]
        if self.mesh is None or self._syncing or not shared:
            return 0
        self._syncing = True
        try:
            sent = {peer: self._digests(peer) for peer in shared}
            replies = yield self.mesh.fan_out({
                peer: encode(CLOCK, value=digests, target=self.index)
                for peer, digests in sent.items()})
            applied = 0
            failures: dict[int, BaseException | None] = {}
            pushes = {}
            for peer, reply in _answers(replies, shared, failures,
                                        decode_run):
                try:
                    differ, theirs = self._differences(peer, sent[peer],
                                                       reply)
                except RecordError as exc:
                    failures[peer] = exc
                    continue
                applied += yield self._apply_run(theirs)
                self._unsynced.discard(peer)
                newer = self._records_newer_than(differ, theirs)
                if newer:
                    pushes[peer] = encode_run(newer)
            if pushes:
                # Best effort: a lost push is found again next round.
                yield self.mesh.fan_out(pushes)
            self.anti_entropy_rounds += 1
            return applied
        finally:
            self._syncing = False

    @do
    def anti_entropy_quietly(self, peers: Iterable[int] | None = None):
        try:
            yield self.anti_entropy(peers)
        except (MeshError, WalError):
            pass  # the next pump tick runs another round

    def _digests(self, peer: int) -> bytes:
        """This shard's digests of the arcs it shares with ``peer``, as
        little-endian ``u64``s in ring order (the order both sides list
        those arcs in)."""
        digests = self.digests
        arcs = self._shared[peer]
        return struct.pack(f"<{len(arcs)}Q", *[digests[arc] for arc in arcs])

    def _differing(self, peer: int, first: bytes, second: bytes) -> set[int]:
        """The arcs shared with ``peer`` whose two digests differ."""
        arcs = self._shared[peer]
        if not len(first) == len(second) == 8 * len(arcs):
            raise RecordError(f"peer {peer}: not the digests of the "
                              f"{len(arcs)} arcs shared")
        layout = f"<{len(arcs)}Q"
        return {arc for arc, a, b in zip(arcs, struct.unpack(layout, first),
                                         struct.unpack(layout, second))
                if a != b}

    def _differences(self, peer, sent, reply):
        """``(arcs that differ, the peer's WRITE records on them)`` from
        a digest reply; anything else in it is refused."""
        if not reply:
            return set(), []
        op, _flags, _key, _version, digests, sender = reply[0]
        if op != CLOCK or sender != peer:
            raise RecordError(f"peer {peer}: not a digest reply")
        differ = self._differing(peer, sent, digests or b"")
        theirs = reply[1:]
        for op, _flags, key, version, _value, _target in theirs:
            if (op != WRITE or version is None
                    or self.ring.arc(key) not in differ):
                raise RecordError(
                    f"peer {peer}: a record off the arcs that differ")
        return differ, theirs

    def _records_newer_than(self, differ, theirs) -> list[bytes]:
        """This shard's ``WRITE`` record of every key on the arcs in
        ``differ`` whose version beats the one in ``theirs``."""
        if not differ:
            return []
        known = {key: version
                 for _op, _flags, key, version, _value, _arc in theirs}
        arc = self.ring.arc
        return [encode(WRITE, key, version, self.store.get(key))
                for key, version in self.versions.items()
                if arc(key) in differ and _newer(version, known.get(key))]

    def _digest_reply(self, sender: int, digests: bytes) -> bytes:
        """The served side of a digest exchange (see :meth:`anti_entropy`).
        Matching digests finish the exchange here too."""
        if sender not in self._shared:
            raise RecordError(
                f"shard {self.index} shares no ring arc with {sender}")
        ours = self._digests(sender)
        differ = self._differing(sender, digests, ours)
        if not differ:
            self._unsynced.discard(sender)
            return encode_run([])
        arc = self.ring.arc
        return encode_run(
            [encode(CLOCK, value=ours, target=self.index)]
            + [encode(WRITE, key, version, self.store.get(key))
               for key, version in self.versions.items()
               if arc(key) in differ])

    @do
    def _apply_run(self, records):
        """Apply every ``WRITE`` record newer than what this shard
        holds, log them, and resume once they are durable with how many
        applied."""
        barriers = []
        applied = 0
        for _op, _flags, key, version, value, _target in records:
            if self._apply_versioned(key, version, value)[0]:
                applied += 1
                if self.wal is not None:
                    barriers.append((yield self.wal.append(
                        encode(WRITE, key, version, value))))
        for barrier in dict.fromkeys(barriers):
            yield self.wal.wait(barrier)
        self.anti_entropy_applied += applied
        return applied

    @do
    def drain_to_replicas(self):
        """Graceful-stop handoff: push every locally held key to its
        other replicas (and flush parked hints), so a rolling restart
        never holds the last live copy of a key when it exits.  Resumes
        with the number of pushes that succeeded."""
        if self.mesh is None or self.replication <= 1:
            return 0
        pushed = 0
        for key in list(self.store):
            version = self.versions.get(key)
            value = self.store.get(key)
            if version is None or value is None:
                continue
            body = encode(WRITE, key, version, value)
            for peer in self.ring.replicas(key):
                if peer == self.index:
                    continue
                try:
                    yield self.mesh.call(peer, body)
                    pushed += 1
                except MeshError:
                    continue  # best effort: we are shutting down
        try:
            yield self.replay_hints()
        except MeshError:
            pass
        return pushed

    # ------------------------------------------------------------------
    # Multi-key operations.
    # ------------------------------------------------------------------
    @do
    def mget(self, keys):
        """Cross-shard multi-get; resumes with ``{key: value-or-None}``.

        The read rule of :meth:`get`, batched: each key is read from one
        replica, chosen by a rule that depends only on (this shard,
        key): a key this shard holds a replica of reads locally, any
        other key from :meth:`_read_peer`.  One connection's reads of a
        key therefore always hit the same replica, and every remote
        group is one mesh call, all peers queried concurrently.  With
        ``replication=1`` that is the key's owner.  Under replication a
        shard that has not caught up reads every key through every
        replica (:meth:`_read_newest`), and so does a failed or refusing
        peer's group; without replication the failure surfaces as
        :class:`~repro.runtime.mesh.MeshError` — partial silence must
        not read as "those keys are absent".

        A key named twice is fetched and counted once:
        ``owned_ops``/``proxied_ops`` count distinct keys.
        """
        merged: dict[str, bytes | None] = {}
        #: Keys read through every replica instead of one.
        newest: list[str] = []
        if self._unsynced:
            newest = list(dict.fromkeys(keys))
        else:
            index = self.index
            by_peer: dict[int, list[str]] = {}
            for key in dict.fromkeys(keys):
                replicas = self.ring.replicas(key)
                if index in replicas:
                    self.owned_ops += 1
                    merged[key] = self._local_get(key)
                else:
                    by_peer.setdefault(self._read_peer(replicas),
                                       []).append(key)
            if by_peer:
                replies = yield self.mesh.fan_out({
                    peer: encode_run([encode(MGET, key) for key in group])
                    for peer, group in by_peer.items()
                })
                failures: dict[int, BaseException | None] = {}
                for peer, reply in _answers(replies, by_peer, failures,
                                            decode_run):
                    answered = {key: value for _op, _flags, key, _version,
                                value, _target in reply}
                    if list(answered) != by_peer[peer]:
                        failures[peer] = MeshProtocolError(
                            f"peer {peer}: mget reply does not cover the "
                            f"{len(by_peer[peer])} keys asked for")
                        continue
                    self.proxied_ops += len(answered)
                    merged.update(answered)
                for peer, failure in failures.items():
                    if self.replication <= 1:
                        raise failure
                    newest += by_peer[peer]
        for key in newest:
            replicas = self.ring.replicas(key)
            if self.index in replicas:
                self.owned_ops += 1
            else:
                self.proxied_ops += 1
            merged[key] = yield self._read_newest(key, replicas, None)
        return merged

    @do
    def stats_all(self):
        """Every shard's local stats (self included), index-ordered where
        possible; unreachable shards report an ``error`` entry instead of
        silently vanishing from the merge."""
        results = [self.local_stats()]
        if self.mesh is None:
            return results
        peers = [peer for peer in self.mesh.peers if peer != self.index]
        if peers:
            body = encode(STATS)
            replies = yield self.mesh.fan_out(
                {peer: body for peer in peers}
            )
            failures: dict[int, BaseException | None] = {}
            for peer, (_op, _flags, _key, _version, blob, _target) in _answers(
                    replies, peers, failures):
                try:
                    # The cold health path: its payload stays a JSON blob.
                    results.append(json.loads(blob or b""))
                except ValueError as exc:
                    failures[peer] = exc
            results += [{"index": peer, "error": repr(exc)}
                        for peer, exc in failures.items()]
        results.sort(key=lambda entry: entry.get("index", -1))
        return results

    # ------------------------------------------------------------------
    # The mesh-inbound side: execute an op we hold a replica of.
    # ------------------------------------------------------------------
    def _require_replica(self, key: str) -> None:
        """A read routed to a shard holding no replica of ``key`` is a
        routing bug: refuse it, so it can never read as "absent"."""
        if self.index not in self.ring.replicas(key):
            raise RecordError(
                f"shard {self.index} holds no replica of {key!r}")

    def _require_caught_up(self) -> None:
        """A one-replica read of a shard that has not caught up could
        answer from a store missing newer writes: refuse it, so the
        coordinator reads every replica instead."""
        if self._unsynced:
            raise MeshError(f"shard {self.index} has not caught up")

    @do
    def _handle_mesh(self, body: bytes):
        if is_run(body):
            asked = decode_run(body)
            if asked and asked[0][0] == WRITE:
                # An anti-entropy push: apply what is newer, durably.
                for op, _flags, key, version, _value, _target in asked:
                    if op != WRITE or version is None:
                        raise RecordError(f"op {op} in a pushed run")
                    self._require_replica(key)
                yield self._apply_run(asked)
                return encode_run([])
            self._require_caught_up()
            self.mesh_served_ops += 1
            for record in asked:
                self._require_replica(record[2])
            self.owned_ops += len(asked)
            return encode_run([
                encode(MGET, key, None, self.store.get(key))
                for _op, _flags, key, _version, _value, _target in asked])
        op, _flags, key, version, value, target = decode(body)
        if op == STATS:
            # Health polling is not a data op: don't inflate counters.
            return encode(STATS, value=_json(self.local_stats()))
        if op == CLOCK:
            # Nor is anti-entropy: it counts its own rounds.
            return self._digest_reply(target, value or b"")
        self.mesh_served_ops += 1
        if op == MGET:
            # The one-replica read of one key.
            self._require_replica(key)
            self._require_caught_up()
            return encode(MGET, value=self.store.get(key))
        if op == GET:
            # The newest-of-N read: answered caught up or not.
            self._require_replica(key)
            return encode(GET, version=self.versions.get(key),
                          value=self._local_get(key))
        if version is None:
            raise RecordError(f"mesh op {op} without a version stamp")
        if op == WRITE:
            self.replica_writes += 1
            applied, existed = self._apply_versioned(key, version, value)
            if applied:
                # The mesh reply *is* the replica's ack: hold it until
                # the versioned apply rides a group commit to disk.
                yield self._wal_commit(body)
            # The stamp carries this node's clock, so a lagging
            # coordinator can merge it and re-stamp.
            return encode(WRITE, version=(self.clock, self.index),
                          flags=APPLIED * applied | EXISTED * existed)
        if op == HINT:
            # A coordinator without a replica forwarded a hint here (we
            # acked the write, so the data sits next to the hint).
            if self._queue_hint(target, key, version, value):
                yield self._wal_commit(body)
            return encode(HINT)
        raise RecordError(f"not a kv mesh op: {op}")


def _json(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode()


class KvHttpHandler:
    """The store's HTTP facade: a :class:`~repro.http.server.HttpProtocol`
    request handler."""

    def __init__(self, node: KvNode) -> None:
        self.node = node

    @do
    def respond(self, request: HttpRequest):
        path = request.path
        try:
            if path.startswith("/kv/"):
                response = yield self._single_key(request, path)
                return response
            if path == "/mget":
                response = yield self._mget(request)
                return response
            if path == "/kv-stats":
                response = yield self._stats(request)
                return response
        except KvQuorumError as exc:
            raise HttpError(503, f"write quorum not met: {exc}")
        except WalError as exc:
            raise HttpError(503, f"write not durable: {exc}")
        except MeshTimeout as exc:
            raise HttpError(504, f"owner shard timed out: {exc}")
        except MeshError as exc:
            raise HttpError(502, f"owner shard unreachable: {exc}")
        raise HttpError(404, path)

    @do
    def _single_key(self, request, path):
        key = unquote(path[len("/kv/"):])
        if not key:
            raise HttpError(404, path)
        node = self.node
        info: dict = {}
        if request.method in ("GET", "HEAD"):
            found, value, proxied = yield node.get(key, info)
            if not found:
                raise HttpError(404, key)
            return self._reply(
                200, proxied, body=value,
                content_type="application/octet-stream", info=info,
            )
        if request.method in ("PUT", "POST"):
            created, _value, proxied = yield node.put(
                key, request.body, info
            )
            return self._reply(201 if created else 204, proxied, info=info)
        if request.method == "DELETE":
            deleted, _value, proxied = yield node.delete(key, info)
            if not deleted:
                raise HttpError(404, key)
            return self._reply(204, proxied, info=info)
        raise HttpError(405, request.method)

    @do
    def _mget(self, request):
        # Split on literal commas first; decode each key once, as `/kv/` does.
        fields = urlsplit(request.target).query.split("&")
        specs = [f[len("keys="):] for f in fields if f.startswith("keys=")]
        keys = [unquote(k) for spec in specs for k in spec.split(",") if k]
        if not keys:
            raise HttpError(400, "mget needs ?keys=a,b,c")
        values = yield self.node.mget(keys)
        body = _json({
            "values": {
                key: None if value is None
                else base64.b64encode(value).decode()
                for key, value in values.items()
            }
        })
        return HttpResponse(
            200, body=body, headers={"Content-Type": "application/json"}
        )

    @do
    def _stats(self, _request):
        shards = yield self.node.stats_all()
        # Length unknown until every shard answered: stream it chunked,
        # one JSON line per shard.
        lines = [_json(entry) + b"\n" for entry in shards]
        return HttpResponse(
            200,
            headers={"Content-Type": "application/json-lines"},
            chunks=iter(lines),
        )

    @staticmethod
    def _reply(status, proxied, body=b"", content_type=None, info=None):
        headers = {"X-Kv-Source": "proxied" if proxied else "local"}
        if info:
            acked = info.get("acked", info.get("consulted", 1))
            headers["X-Kv-Replicas"] = f"{acked}/{info.get('replicas', 1)}"
        if content_type is not None:
            headers["Content-Type"] = content_type
        return HttpResponse(status, body=body, headers=headers)


def build_kv_app(
    rt: Any,
    listener: Any,
    mesh: MeshNode | None = None,
    replication: int = 1,
    write_quorum: int = 1,
    cache_listener: Any = None,
    cache_protocol: str = "memcache",
    wal_dir: str | None = None,
    wal_flush_interval: float = 0.005,
    wal_group_max: int = 128,
    peers_up: Iterable[int] | None = None,
    **server_kwargs: Any,
) -> WebServer:
    """One shard's KV application on the layered stack.

    With a mesh, shard identity and the shard count come from the mesh's
    address map; without one this is a single-owner store (every key
    local).  ``replication`` puts every key on that many ring successors;
    ``write_quorum`` is the minimum replica acks for a write to succeed.
    A replicated app also wires the background machinery: a first
    anti-entropy round forked when the shard starts — with the peers in
    ``peers_up`` when given (a cluster names the shards already serving;
    one that starts later dials this one in its own first round), else
    with every peer — a pump (recurring
    ticks on ``rt.timers``, the runtime's shared
    :class:`~repro.runtime.timer_wheel.TimerWheel`, which also carries
    the WAL's group-flush deadline — no thread of its own) that replays
    parked hints and runs an anti-entropy round each tick, an
    ``on_peer_up`` hook for the cluster control protocol, and a
    graceful-stop ``drain``.  Extra keyword arguments
    reach :class:`WebServer` (admission caps, parser limits...).  The
    ring places each shard at :class:`HashRing`'s default point count.

    ``cache_listener`` mounts a second wire protocol over the same node:
    a :mod:`repro.cache` front-end (``cache_protocol`` picks the dialect,
    ``"memcache"`` or ``"resp"``; its port takes every connection) whose
    accept loop forks next to the HTTP one — one store, two dialects,
    same owner routing.

    ``wal_dir`` turns on durability: the shard appends every state
    change to ``<wal_dir>/shard-<index>`` and acks only after the group
    commit (see :mod:`repro.app.wal`), replaying the snapshot + log on
    start.  ``wal_flush_interval``/``wal_group_max`` tune the commit
    deadline and the batch watermark.
    """
    index, shards = (0, 1) if mesh is None else (mesh.index, len(mesh.peers))
    wal = None
    if wal_dir is not None:
        wal = ShardWal(
            os.path.join(wal_dir, f"shard-{index}"),
            flush_interval=wal_flush_interval,
            group_max=wal_group_max,
            timers=rt.timers,
        )
    node = KvNode(index, shards, mesh=mesh, replication=replication,
                  write_quorum=write_quorum, wal=wal)
    server = WebServer(
        rt.io,
        listener,
        EmptyFilesystem(),
        handler=KvHttpHandler(node),
        name="kv",
        **server_kwargs,
    )
    server.kv = node
    server.mesh = mesh
    server.wal = wal
    server.extra_stats = node.extra_stats
    if mesh is not None and node.replication > 1:
        driver_main = server.main

        @do
        def main_with_pump():
            node.pump_running = True
            # The first anti-entropy round runs beside the driver, so it
            # never delays the shard's ready report; the pump retries.
            yield sys_fork(node.anti_entropy_quietly(peers_up),
                           name="kv-catch-up")
            yield rt.timers.schedule(
                HINT_REPLAY_INTERVAL,
                lambda: node.pump_tick(rt.timers),
            )
            yield driver_main()

        base_stop = server.stop

        def stop() -> None:
            node.pump_running = False
            base_stop()

        server.main = main_with_pump
        server.stop = stop
        server.on_peer_up = node.replay_hints
        server.drain = node.drain_to_replicas
    if cache_listener is not None:
        # Imported here: repro.cache is the protocol layer over *any*
        # store; only this app-level wiring couples it to the KV node.
        from ..cache.frontend import build_cache_frontend

        frontend = build_cache_frontend(
            rt, cache_listener, node, protocol=cache_protocol,
        )
        app_main = server.main

        @do
        def main_with_cache():
            yield sys_fork(frontend.main(), name=f"kv-{frontend.name}")
            yield app_main()

        app_stop = server.stop
        app_extra = server.extra_stats

        def stop_with_cache() -> None:
            frontend.stop()
            app_stop()

        def extra_stats() -> dict:
            merged = dict(app_extra())
            for name, value in frontend.stats.as_dict().items():
                merged[f"cache_{name}"] = value
            return merged

        server.main = main_with_cache
        server.stop = stop_with_cache
        server.extra_stats = extra_stats
        server.cache_frontend = frontend
    return server
