"""The per-shard write-ahead log: framing, group commit, crash points.

Three layers of attack, per the durability discipline (NFork-style —
a durability claim is only as good as its fault harness):

* **Framing / recovery basics** — CRC round trips, tombstones, hints
  persisted in the same log, snapshot+compaction replacing replay.
* **Crash-point property sweep** — a scripted write burst is recorded,
  then the log is truncated at *every byte* around each record edge
  (plus seeded random mid-record points) and replayed: exactly the
  committed prefix comes back, never a partial record.
* **Group-commit semantics** — against a fake timer wheel (the
  schedule/fire choreography runs by hand, no wall-clock sleeps):
  N parked writers ack on one fsync; a writer arriving mid-fsync rides
  the next batch; a flush failure surfaces as a monadic exception to
  every parked writer.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import zlib

import pytest

from repro.app.kv import KvNode
from repro.app.record import GET, HINT, WRITE, decode, encode
from repro.app.wal import ShardWal, WalError, frame_record, read_frames
from repro.core.do_notation import do
from repro.core.monad import pure
from repro.runtime.live_runtime import LiveRuntime


ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


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


def _spawn_commits(rt, wal, records):
    """Spawn one committing writer per record; returns the done-list."""
    done = []

    @do
    def writer(record):
        acked = yield wal.commit(record)
        done.append(acked)

    for record in records:
        rt.spawn(writer(record), name="wal-writer")
    return done


def _broken_sync(fd):
    raise OSError("simulated disk failure")


def _w(key, version=(1, 0), value=b""):
    """One ``w`` log record, as the KV node encodes it."""
    return encode(WRITE, key, version, value)


def _payloads(replayed):
    return [payload for _path, payload in replayed]


def _from_snapshot(replayed):
    return [payload for path, payload in replayed
            if path.endswith("snapshot.wal")]


class _FakeHandle:
    def __init__(self, delay, action):
        self.delay = delay
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _FakeTimers:
    """Records ``schedule`` calls; tests fire the actions by hand."""

    def __init__(self):
        self.scheduled: list[_FakeHandle] = []

    def schedule(self, delay, action):
        handle = _FakeHandle(delay, action)
        self.scheduled.append(handle)
        return pure(handle)

    def fire(self, rt, handle):
        """Run one armed action the way the runtime's loop would."""
        result = handle.action()
        if result is not None:
            rt.spawn(result, name="fake-timer-action")


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        payloads = [b"", b"x", b"hello" * 100, bytes(range(256))]
        data = b"".join(frame_record(p) for p in payloads)
        parsed, good_end = read_frames(data)
        assert parsed == payloads
        assert good_end == len(data)

    def test_crc_rejects_flipped_byte(self):
        data = frame_record(b"payload-one") + frame_record(b"payload-two")
        corrupt = bytearray(data)
        corrupt[len(frame_record(b"payload-one")) + 9] ^= 0x40
        parsed, good_end = read_frames(bytes(corrupt))
        assert parsed == [b"payload-one"]
        assert good_end == len(frame_record(b"payload-one"))

    def test_short_header_and_short_payload_are_torn(self):
        whole = frame_record(b"abcdef")
        for cut in range(len(whole)):
            parsed, good_end = read_frames(whole[:cut])
            assert parsed == []
            assert good_end == 0
        parsed, good_end = read_frames(whole)
        assert parsed == [b"abcdef"]

    def test_crc_is_plain_crc32(self):
        framed = frame_record(b"check")
        crc = int.from_bytes(framed[:4], "little")
        assert crc == zlib.crc32(b"check")


# ----------------------------------------------------------------------
# Recovery basics through a KvNode owner.
# ----------------------------------------------------------------------
class TestRecovery:
    def _node(self, directory, rt=None, **wal_kwargs):
        # ``rt`` given: the log will commit, so it arms its flush
        # deadline on the runtime's wheel.  Without: recover-only.
        if rt is not None:
            wal_kwargs.setdefault("timers", rt.timers)
        wal = ShardWal(directory, **wal_kwargs)
        return KvNode(0, 1, wal=wal), wal

    def test_puts_and_tombstones_recover(self, rt, tmp_path):
        directory = str(tmp_path / "shard-0")
        node, wal = self._node(directory, rt)
        for i in range(8):
            _drive(rt, node.put(f"k{i}", b"v%d" % i))
        _drive(rt, node.delete("k3"))
        wal.close()

        node2, wal2 = self._node(directory)
        assert wal2.replayed_records == 9  # 8 puts + 1 delete
        assert node2.store.get("k5") == b"v5"
        assert "k3" not in node2.store
        assert len(node2.store) == 7
        assert node2.versions["k3"] == (9, 0)  # the tombstone's stamp
        wal2.close()
        # replication=1 logs the same versioned records as N>=2.
        records = _payloads(ShardWal(directory).recover())
        assert [decode(record)[0] for record in records] == [WRITE] * 9

    def test_unknown_record_kind_fails_recovery(self, rt, tmp_path):
        # A log written by another build must not replay as "nothing
        # happened": construction fails, naming the record kind.
        directory = str(tmp_path / "shard-0")
        wal = ShardWal(directory, timers=rt.timers)
        _drive(rt, wal.commit(encode(GET, "lost", (1, 0))))
        wal.close()
        with pytest.raises(WalError, match=f"op {GET} .* not a WAL record"):
            self._node(directory)

    def test_versioned_writes_and_hints_recover(self, rt, tmp_path):
        directory = str(tmp_path / "shard-0")
        node, wal = self._node(directory, rt)
        _drive(rt, wal.commit(_w("vk", (7, 2), b"hello")))
        _drive(rt, wal.commit(encode(HINT, "hk", (9, 1), b"hi", target=3)))
        wal.close()

        node2, _wal2 = self._node(directory)
        assert node2.store["vk"] == b"hello"
        assert node2.versions["vk"] == (7, 2)
        assert node2.clock >= 7
        assert node2.hints[3]["hk"] == ((9, 1), b"hi")
        assert node2.hints_pending == 1

    def test_unsynced_pending_records_are_not_acked_state(self, rt,
                                                          tmp_path):
        # A record parked in the pending batch (never flushed) is not on
        # disk: recovery must not see it.  Writers for it never acked.
        directory = str(tmp_path / "shard-0")
        timers = _FakeTimers()
        wal = ShardWal(directory, timers=timers)
        _spawn_commits(rt, wal, [_w("ghost")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        wal.close()  # crash before the timer ever fired

        node2, wal2 = self._node(directory)
        assert wal2.replayed_records == 0
        assert "ghost" not in node2.store

    def test_compaction_snapshots_and_prunes_segments(self, rt, tmp_path):
        directory = str(tmp_path / "shard-0")
        wal = ShardWal(directory, compact_bytes=512, timers=rt.timers)
        node = KvNode(0, 1, wal=wal)
        for i in range(40):
            _drive(rt, node.put(f"ck{i}", b"value-%d" % i))
        _drive(rt, node.delete("ck7"))
        # The compaction runs inside the flusher; let it finish.
        rt.run(until=lambda: wal.compactions > 0 and not wal._flushing,
               idle_timeout=5.0)
        assert wal.compactions >= 1
        assert os.path.exists(os.path.join(directory, "snapshot.wal"))
        wal.close()

        wal2 = ShardWal(directory)
        node2 = KvNode(0, 1, wal=wal2)
        assert wal2.replayed_snapshot_keys > 0
        # The snapshot absorbed the early records: replay is shorter
        # than the full history.
        assert wal2.replayed_records < 41
        assert len(node2.store) == 39
        assert node2.store["ck39"] == b"value-39"
        assert "ck7" not in node2.store
        wal2.close()

    def test_snapshot_alone_restores_the_same_state(self, rt, tmp_path):
        # The snapshot holds the log's own record kinds (plus the
        # clock): reopening from it alone gives back store, tombstone
        # versions, clock and the parked hints per target.
        directory = str(tmp_path / "shard-0")
        wal = ShardWal(directory, compact_bytes=1,  # every flush compacts
                       timers=rt.timers)
        node = KvNode(0, 1, wal=wal)
        _drive(rt, node.put("bin", bytes(range(256))))
        _drive(rt, node.put("empty", b""))
        _drive(rt, node.put("cl\u00e9-\ud800", b"non-ascii key"))
        _drive(rt, node.delete("bin"))
        for target, key, version, value in [(2, "hk", (9, 1), b"hi"),
                                            (2, "gone", (10, 1), None),
                                            (3, "hk", (11, 0), b"")]:
            assert node._queue_hint(target, key, version, value)
            _drive(rt, node._wal_commit(
                encode(HINT, key, version, value, target)))
        node.clock += 7  # a counter observed on a read, never applied
        _drive(rt, node.put("last", b"z"))
        rt.run(until=lambda: wal.compactions >= 8 and not wal._flushing,
               idle_timeout=5.0)
        wal.close()

        wal2 = ShardWal(directory)
        node2 = KvNode(0, 1, wal=wal2)
        # clock + 4 stamped keys + 3 hints, nothing from the log.
        assert (wal2.replayed_snapshot_keys, wal2.replayed_records) == (8, 0)
        assert node2.store == node.store and "bin" not in node2.store
        assert node2.store["empty"] == b""
        assert node2.versions == node.versions and "bin" in node2.versions
        assert node2.clock == node.clock == node.versions["last"][0]
        assert node2.hints == node.hints
        assert node2.hints[2]["gone"] == ((10, 1), None)
        wal2.close()

    #: What the build before the record codec wrote (JSON payloads).
    PARENT_RECORD = b'{"t":"w","k":"k0","ver":[1,0],"v":"djA="}'
    PARENT_SNAPSHOT = (b'{"clock":1,"store":{"k0":"djA="},"versions":'
                       b'{"k0":[1,0]},"hints":{},"segments_through":1}')

    @pytest.mark.parametrize("name, payload", [
        ("wal-00000001.log", PARENT_RECORD),
        ("snapshot.wal", PARENT_SNAPSHOT),
    ])
    def test_a_json_log_or_snapshot_fails_loudly_and_stays_untouched(
        self, tmp_path, name, payload
    ):
        directory = str(tmp_path / "shard-0")
        os.makedirs(directory)
        # A readable record first: the refusal must not depend on the
        # bad payload being the first thing replayed.
        files = {"wal-00000001.log": frame_record(_w("fine"))}
        files[name] = files.get(name, b"") + frame_record(payload)
        for file_name, data in files.items():
            with open(os.path.join(directory, file_name), "wb") as fh:
                fh.write(data)
        wal = ShardWal(directory)
        with pytest.raises(WalError) as raised:
            KvNode(0, 1, wal=wal)
        assert os.path.join(directory, name) in str(raised.value)
        # Nothing was deleted (the JSON snapshot "covers" segment 1),
        # truncated or appended, and the refused log is not writable.
        assert sorted(os.listdir(directory)) == sorted(files)
        for file_name, data in files.items():
            with open(os.path.join(directory, file_name), "rb") as fh:
                assert fh.read() == data
        assert wal._fd is None

    def test_wal_dump_prints_one_line_per_record(self, rt, tmp_path):
        directory = str(tmp_path / "shard-0")
        wal = ShardWal(directory, compact_bytes=1, timers=rt.timers)
        node = KvNode(0, 1, wal=wal)
        _drive(rt, node.put("k\u00e9y", b"12345"))
        rt.run(until=lambda: wal.compactions == 1 and not wal._flushing,
               idle_timeout=5.0)
        wal.compact_bytes = 1 << 30
        _drive(rt, node.delete("k\u00e9y"))
        _drive(rt, wal.commit(encode(HINT, "hk", (9, 1), b"hi", target=3)))
        wal.close()
        committed = os.path.getsize(wal._segment_path(2))
        with open(wal._segment_path(2), "ab") as fh:
            fh.write(frame_record(_w("torn"))[:-1])
        result = subprocess.run(
            [sys.executable, "tools/wal_dump.py", directory], cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "snapshot.wal[0] covers segments through 1",
            "snapshot.wal[1] clock key='' version=(1, 0) target=0 "
            "value_len=-",
            "snapshot.wal[2] w key='k\u00e9y' version=(1, 0) target=0 "
            "value_len=5",
            "wal-00000002.log[0] w key='k\u00e9y' version=(2, 0) target=0 "
            "value_len=-",
            "wal-00000002.log[1] hint key='hk' version=(9, 1) target=3 "
            "value_len=2",
            f"wal-00000002.log: torn tail at byte {committed} "
            f"({len(frame_record(_w('torn'))) - 1} bytes would be truncated)",
        ]

    def test_recover_unlinks_stale_snapshot_tmp(self, tmp_path):
        # A crash mid-compaction leaves snapshot.wal.tmp behind; it was
        # never renamed, so recovery must clear it, not wait for the
        # next compaction to overwrite it.
        directory = str(tmp_path / "shard-0")
        os.makedirs(directory)
        tmp = os.path.join(directory, "snapshot.wal.tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"half-written snapshot")
        wal = ShardWal(directory)
        replayed = wal.recover()
        wal.close()
        assert replayed == []
        assert not os.path.exists(tmp)

    def test_recovery_replays_past_torn_segment(self, tmp_path):
        # A failed flush rotates appends to a fresh segment, so acked
        # records legitimately live in segments *past* a torn one.
        # Recovery truncates the tear and keeps replaying.
        directory = str(tmp_path / "rotated")
        os.makedirs(directory)

        torn = frame_record(_w("torn"))
        seg1 = os.path.join(directory, "wal-00000001.log")
        seg2 = os.path.join(directory, "wal-00000002.log")
        with open(seg1, "wb") as fh:
            fh.write(frame_record(_w("a")) + torn[:-3])
        with open(seg2, "wb") as fh:
            fh.write(frame_record(_w("b")))
        wal = ShardWal(directory)
        replayed = wal.recover()
        wal.close()
        assert _from_snapshot(replayed) == []
        assert [(path, decode(payload)[2]) for path, payload in replayed
                ] == [(seg1, "a"), (seg2, "b")]
        assert wal.torn_bytes_truncated == len(torn) - 3
        assert os.path.getsize(seg1) == len(frame_record(_w("a")))

    def test_stats_shape(self, rt, tmp_path):
        node, wal = self._node(str(tmp_path / "shard-0"), rt)
        _drive(rt, node.put("s", b"1"))
        stats = wal.stats()
        for key in ("wal_appends", "wal_fsyncs", "wal_group_commits",
                    "wal_group_max", "wal_replayed_records",
                    "wal_flush_failures", "wal_compactions"):
            assert key in stats
        assert stats["wal_appends"] == 1
        assert stats["wal_fsyncs"] == 1
        assert node.extra_stats()["wal_appends"] == 1
        assert node.local_stats()["wal"]["wal_fsyncs"] == 1
        wal.close()


# ----------------------------------------------------------------------
# Crash-point property sweep (the committed-prefix invariant).
# ----------------------------------------------------------------------
class TestCrashPointSweep:
    def _record_burst(self, rt, directory):
        """A scripted burst of varied-size records through the real
        commit path; returns the replay-expected record list."""
        wal = ShardWal(directory, timers=rt.timers, flush_interval=0.002)
        records = []
        for i in range(12):
            records.append(_w(f"key-{i}", (i + 1, 0),
                              b"A" * (4 * ((i * 7) % 11 + 1))))
        done = _spawn_commits(rt, wal, records)
        rt.run(until=lambda: len(done) == len(records), idle_timeout=5.0)
        assert len(done) == len(records)
        wal.close()
        return records

    def test_truncation_sweep_recovers_exactly_committed_prefix(
        self, rt, tmp_path
    ):
        directory = str(tmp_path / "recorded")
        records = self._record_burst(rt, directory)
        segment = os.path.join(directory, "wal-00000001.log")
        with open(segment, "rb") as fh:
            data = fh.read()
        payloads, good_end = read_frames(data)
        assert len(payloads) == len(records)
        assert good_end == len(data)
        # Frame end offsets: a record is committed iff its end <= cut.
        ends = []
        offset = 0
        for payload in payloads:
            offset += len(frame_record(payload))
            ends.append(offset)

        cuts = set()
        for end in ends:
            for delta in range(-3, 4):  # every byte around each edge
                cuts.add(min(len(data), max(0, end + delta)))
        rng = random.Random(0x57A1)
        cuts.update(rng.randrange(len(data) + 1) for _ in range(32))

        scratch = str(tmp_path / "scratch")
        for cut in sorted(cuts):
            if os.path.isdir(scratch):
                shutil.rmtree(scratch)
            os.makedirs(scratch)
            target = os.path.join(scratch, "wal-00000001.log")
            with open(target, "wb") as fh:
                fh.write(data[:cut])
            expected = sum(1 for end in ends if end <= cut)
            replayer = ShardWal(scratch)
            replayed = replayer.recover()
            replayer.close()
            assert _from_snapshot(replayed) == []
            replayed = _payloads(replayed)
            assert len(replayed) == expected, (
                f"cut at {cut}: replayed {len(replayed)}, "
                f"expected {expected}"
            )
            assert replayed == records[:expected]
            # The torn tail was truncated on disk to the good prefix.
            good = ends[expected - 1] if expected else 0
            assert os.path.getsize(target) == good

    def test_mid_record_corruption_never_surfaces_partial(self, rt,
                                                          tmp_path):
        directory = str(tmp_path / "recorded")
        records = self._record_burst(rt, directory)
        segment = os.path.join(directory, "wal-00000001.log")
        with open(segment, "rb") as fh:
            data = fh.read()
        # Flip one byte inside the 5th record's payload.
        payloads, _ = read_frames(data)
        offset = sum(len(frame_record(p)) for p in payloads[:4])
        strike = offset + 8 + 2  # header + 2 bytes into the payload
        corrupt = bytearray(data)
        corrupt[strike] ^= 0xFF
        scratch = str(tmp_path / "scratch")
        os.makedirs(scratch)
        with open(os.path.join(scratch, "wal-00000001.log"), "wb") as fh:
            fh.write(bytes(corrupt))
        replayer = ShardWal(scratch)
        replayed = _payloads(replayer.recover())
        replayer.close()
        assert replayed == records[:4]


# ----------------------------------------------------------------------
# Group-commit batching semantics (fake wheel, choreography by hand).
# ----------------------------------------------------------------------
class TestGroupCommit:
    def test_n_writers_one_fsync(self, rt, tmp_path):
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        records = [_w(f"g{i}") for i in range(10)]
        done = _spawn_commits(rt, wal, records)
        rt.run(until=lambda: len(wal._pending) == 10, idle_timeout=2.0)
        # All ten writers are parked on one barrier; exactly one flush
        # deadline was armed (by the first writer of the batch).
        assert not done
        assert len(timers.scheduled) == 1
        assert len(wal._barrier.takers) == 10

        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: len(done) == 10, idle_timeout=5.0)
        assert wal.fsyncs == 1
        assert wal.group_commits == 1
        assert wal.group_max_seen == 10
        assert done == [10] * 10  # each writer acked with its group size
        wal.close()

    def test_watermark_flushes_without_waiting_for_deadline(self, rt,
                                                            tmp_path):
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers, group_max=4)
        records = [_w(f"wm{i}") for i in range(4)]
        done = _spawn_commits(rt, wal, records)
        rt.run(until=lambda: len(done) == 4, idle_timeout=5.0)
        # The 4th append hit the watermark: the batch flushed while the
        # armed deadline never fired.
        assert wal.fsyncs == 1
        assert len(timers.scheduled) == 1
        wal.close()

    def test_writer_arriving_mid_fsync_rides_next_batch(self, rt,
                                                        tmp_path):
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        sync_started = threading.Event()
        gate = threading.Event()
        real_sync = wal._sync

        def gated_sync(fd):
            sync_started.set()
            assert gate.wait(timeout=10.0), "flush gate never released"
            real_sync(fd)

        wal._sync = gated_sync
        first = _spawn_commits(rt, wal, [_w("early")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=sync_started.is_set, idle_timeout=5.0)
        assert sync_started.is_set() and not first

        # Mid-fsync arrival: parks on the *fresh* barrier, arms nothing
        # (the in-flight flusher loops straight into the next batch).
        second = _spawn_commits(rt, wal, [_w("late")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        assert not second
        assert len(timers.scheduled) == 1

        gate.set()
        rt.run(until=lambda: bool(first) and bool(second),
               idle_timeout=5.0)
        assert wal.fsyncs == 2           # one per batch
        assert wal.group_max_seen == 1   # the batches never merged
        assert first == [1] and second == [1]
        wal.close()

    def test_flush_failure_raises_in_every_parked_writer(self, rt,
                                                         tmp_path):
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)

        def broken_sync(fd):
            raise OSError("simulated disk failure")

        wal._sync = broken_sync
        errors = []

        @do
        def writer(i):
            try:
                yield wal.commit(_w(f"f{i}"))
                errors.append(("acked", i))
            except WalError as exc:
                errors.append(("error", exc))

        for i in range(6):
            rt.spawn(writer(i), name=f"failing-writer-{i}")
        rt.run(until=lambda: len(wal._pending) == 6, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: len(errors) == 6, idle_timeout=5.0)
        assert [kind for kind, _ in errors] == ["error"] * 6
        assert all(isinstance(exc, WalError) for _, exc in errors)
        assert wal.flush_failures == 1
        assert wal.fsyncs == 0

        # The log is not wedged: with the disk back, commits ack again.
        wal._sync = os.fsync
        done = _spawn_commits(rt, wal, [_w("after")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[-1])
        rt.run(until=lambda: bool(done), idle_timeout=5.0)
        assert wal.fsyncs == 1
        wal.close()

    def test_acked_writes_after_failed_flush_survive_recovery(
        self, rt, tmp_path
    ):
        # The zero-acked-writes-lost guarantee across a *transient*
        # flush failure: the failed batch's torn/unsynced bytes must not
        # poison the segment, so later acked batches replay after a
        # kill -9.  (The failure path restores the pre-batch length and
        # rotates to a fresh segment.)
        directory = str(tmp_path / "shard-0")
        timers = _FakeTimers()
        wal = ShardWal(directory, timers=timers)
        first = _spawn_commits(rt, wal, [_w("before")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: bool(first), idle_timeout=5.0)

        def broken_sync(fd):
            raise OSError("simulated disk failure")

        wal._sync = broken_sync
        errors = []

        @do
        def failing_writer():
            try:
                yield wal.commit(_w("torn"))
                errors.append("acked")
            except WalError:
                errors.append("error")

        rt.spawn(failing_writer())
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[-1])
        rt.run(until=lambda: bool(errors), idle_timeout=5.0)
        assert errors == ["error"]
        # The failure rotated appends away from the damaged tail.
        assert wal._segment_index == 2

        wal._sync = os.fsync
        after = _spawn_commits(rt, wal, [_w("after")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[-1])
        rt.run(until=lambda: bool(after), idle_timeout=5.0)
        assert after == [1]
        wal.close()  # kill -9 here

        wal2 = ShardWal(directory)
        node2 = KvNode(0, 1, wal=wal2)
        assert "before" in node2.store
        assert "after" in node2.store
        assert "torn" not in node2.store
        wal2.close()

    def test_flush_now_flushes_pending(self, rt, tmp_path):
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        done = _spawn_commits(rt, wal, [_w(f"fn{i}") for i in range(2)])
        rt.run(until=lambda: len(wal._pending) == 2, idle_timeout=2.0)
        flushed = _drive(rt, wal.flush_now())
        assert flushed == 2
        rt.run(until=lambda: len(done) == 2, idle_timeout=2.0)
        assert done == [2, 2]
        assert wal.fsyncs == 1
        # Idle log: nothing pending, nothing in flight — resumes with 0.
        assert _drive(rt, wal.flush_now()) == 0
        wal.close()

    def test_flush_now_waits_for_inflight_flush(self, rt, tmp_path):
        # A flush is already in flight when flush_now is called: it must
        # park until that batch is fsync-durable, not resume early.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        sync_started = threading.Event()
        gate = threading.Event()
        real_sync = wal._sync

        def gated_sync(fd):
            sync_started.set()
            assert gate.wait(timeout=10.0), "flush gate never released"
            real_sync(fd)

        wal._sync = gated_sync
        done = _spawn_commits(rt, wal, [_w("slow")])
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=sync_started.is_set, idle_timeout=5.0)

        results = []

        @do
        def waiter():
            count = yield wal.flush_now()
            results.append(count)

        rt.spawn(waiter())
        rt.run(until=lambda: bool(results), idle_timeout=0.3)
        assert not results, "flush_now resumed before the fsync landed"

        gate.set()
        rt.run(until=lambda: bool(results) and bool(done),
               idle_timeout=5.0)
        assert results == [1]
        assert done == [1]
        wal.close()

    def test_close_wakes_parked_writers_with_error(self, rt, tmp_path):
        # Graceful stop with a commit still parked: the armed deadline
        # still fires, and the flusher observes the close and fails the
        # batch instead of leaving the writer parked forever.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        outcomes = []

        @do
        def writer():
            try:
                yield wal.commit(_w("x"))
                outcomes.append("acked")
            except WalError:
                outcomes.append("error")

        rt.spawn(writer())
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        wal.close()
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: bool(outcomes), idle_timeout=5.0)
        assert outcomes == ["error"]

    def test_commit_after_close_raises(self, rt, tmp_path):
        wal = ShardWal(str(tmp_path / "w"))
        wal.close()
        outcomes = []

        @do
        def writer():
            try:
                yield wal.commit(_w("x"))
                outcomes.append("acked")
            except WalError:
                outcomes.append("error")

        rt.spawn(writer())
        rt.run(until=lambda: bool(outcomes), idle_timeout=2.0)
        assert outcomes == ["error"]

    def test_append_resumes_with_the_barrier_before_the_flush(self, rt,
                                                              tmp_path):
        # The first half of commit: the record is in the batch and the
        # deadline is armed, but nothing was waited for or written.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        steps = []

        @do
        def writer():
            barrier = yield wal.append(_w("a"))
            steps.append(barrier)
            steps.append((yield wal.wait(barrier)))

        rt.spawn(writer())
        rt.run(until=lambda: bool(steps), idle_timeout=2.0)
        (barrier,) = steps
        assert barrier is wal._barrier and not barrier.full
        assert len(timers.scheduled) == 1 and wal.appends == 1
        assert wal.fsyncs == 0
        assert os.path.getsize(wal._segment_path(1)) == 0
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: len(steps) == 2, idle_timeout=5.0)
        assert steps[1] == 1 and barrier.full
        assert os.path.getsize(wal._segment_path(1)) > 0
        wal.close()

    @pytest.mark.parametrize("broken", [False, True])
    def test_commit_is_append_then_wait(self, rt, tmp_path, broken):
        # Committers and append/wait writers share one batch, one fire,
        # one fsync and one outcome — the group size, or WalError.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        if broken:
            wal._sync = _broken_sync
        outcomes = []

        @do
        def writer(i):
            record = _w(f"s{i}")
            try:
                if i % 2:
                    outcomes.append((yield wal.commit(record)))
                else:
                    barrier = yield wal.append(record)
                    outcomes.append((yield wal.wait(barrier)))
            except WalError as exc:
                outcomes.append(type(exc.__cause__))

        for i in range(6):
            rt.spawn(writer(i), name=f"split-writer-{i}")
        rt.run(until=lambda: len(wal._pending) == 6, idle_timeout=2.0)
        assert not outcomes and len(timers.scheduled) == 1
        assert len(wal._barrier.takers) == 6
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: len(outcomes) == 6, idle_timeout=5.0)
        assert outcomes == [OSError if broken else 6] * 6
        assert wal.appends == 6
        assert (wal.fsyncs, wal.flush_failures) == (
            (0, 1) if broken else (1, 0))
        wal.close()

    def test_wait_on_a_closed_log_raises_never_parks(self, rt, tmp_path):
        # Appended, not yet waited, and the log is closed with the
        # deadline unfired: the later wait fails at once.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        barrier = _drive(rt, wal.append(_w("x")))
        wal.close()
        outcomes = []

        @do
        def waiter():
            try:
                outcomes.append((yield wal.wait(barrier)))
            except WalError:
                outcomes.append("error")

        rt.spawn(waiter())
        rt.run(until=lambda: bool(outcomes), idle_timeout=2.0)
        assert outcomes == ["error"]
        assert not barrier.takers and wal.fsyncs == 0

    def test_node_ack_waits_for_commit(self, rt, tmp_path):
        # End to end through KvNode: a put does not resume before its
        # record's group flush fires.
        timers = _FakeTimers()
        wal = ShardWal(str(tmp_path / "w"), timers=timers)
        node = KvNode(0, 1, wal=wal)
        acked = []

        @do
        def putter():
            result = yield node.put("durable", b"yes")
            acked.append(result)

        rt.spawn(putter())
        rt.run(until=lambda: len(wal._pending) == 1, idle_timeout=2.0)
        assert not acked and node.store["durable"] == b"yes"
        timers.fire(rt, timers.scheduled[0])
        rt.run(until=lambda: bool(acked), idle_timeout=5.0)
        assert acked[0] == (True, None, False)
        assert wal.fsyncs == 1
        wal.close()
