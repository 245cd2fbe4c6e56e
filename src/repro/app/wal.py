"""Per-shard write-ahead log with group commit on the timer wheel.

The replicated KV survives single-shard crashes through replication
alone: the store and its parked hinted handoffs die with the process.
This module makes a shard's state durable without paying one ``fsync``
per write — the gathered-write trick applied to durability:

* **CRC-framed records.**  Every append is one frame: a fixed header
  (``crc32 | payload length``, :data:`_HEADER`) followed by the payload,
  bytes the owner encoded (the KV's :mod:`repro.app.record` records;
  never read here).  The CRC covers it, so a torn tail — a crash mid
  ``write`` — is detected byte-exactly on replay and truncated away;
  a record either replays whole or not at all.
* **Group commit.**  Writers do not touch the disk.  ``append()``
  frames the record, adds it to the in-memory pending batch and
  resumes with the batch's **flush barrier**; ``wait()`` parks on it —
  an :class:`~repro.core.sync.MVar` the writer ``read()``s (§4.7:
  readers block without consuming, and one ``put`` wakes *all* of
  them).  ``commit()`` is ``append`` then ``wait``; a writer with other
  work to start (the KV coordinator's replica fan-out) does it between
  the two, so "my record is in the batch" and "the batch is durable"
  are separate steps of one protocol with one park site.  A
  watermark (``group_max`` pending records) or a
  :class:`~repro.runtime.timer_wheel.TimerWheel` deadline
  (``flush_interval``) triggers the flusher, which swaps in a fresh
  batch+barrier, writes the whole batch with **one** ``os.write`` and
  **one** ``os.fsync`` on the blocking-I/O pool (``sys_blio``, §4.6 —
  the event loop never stalls on the disk), then fills the barrier:
  every parked writer wakes acked, many writes per disk syscall.  A
  writer arriving while the fsync is in flight lands in the *next*
  batch — the flusher loops until the pending list is empty.  A failed
  flush fills the barrier with the exception instead, so every parked
  writer sees :class:`WalError` — an unsynced write must never ack.
  The failed segment is then restored to its pre-batch length
  (best-effort) and appends **rotate to a fresh segment**: after a
  failed ``fsync`` the kernel may drop the batch's dirty pages while
  marking them clean, so the old tail can never be trusted again, and
  later acked records must not sit past torn bytes in the same file.
* **Replay and torn-tail truncation.**  On start,
  :meth:`ShardWal.recover` hands back the newest snapshot's payloads
  (if any), then every live segment's in order, each tagged with its
  file: one stream for one apply path.  Within a segment, the first
  short or CRC-mismatching frame ends that segment's committed prefix
  and the file is truncated there — a torn record was never acked (its
  flush failed or the process died mid-write).  Later segments still
  replay: a flush failure rotates before accepting more appends, so
  acked records legitimately live in segments past a torn one.
* **Snapshot + compaction.**  When the live segment outgrows
  ``compact_bytes``, the flusher (already holding a synced log) rotates
  appends to a fresh segment, writes a CRC-framed snapshot file — temp
  file, ``fsync``, atomic ``rename`` — and deletes the older segments.
  The snapshot is a header frame (:data:`_COVERS`: the segment it covers
  through) then one frame per payload the owner's ``state_fn`` returned,
  the kind of payloads the log holds, so a crash between rename and
  delete replays idempotently (versioned applies reject stale records).

Nothing is versioned or negotiated.  A directory from a build whose
payloads were JSON fails recovery with :class:`WalError` naming the file
(the snapshot header is checked here, each payload by the owner) and is
left untouched: drain such a shard and start it on an empty ``wal_dir``.
``tools/wal_dump.py`` prints a directory record by record.

The log is runtime-agnostic above the syscall layer: all disk I/O goes
through ``sys_blio``, the flush deadline through the runtime's timer
wheel.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Callable

from ..core.do_notation import do
from ..core.exceptions import ReproError
from ..core.monad import M
from ..core.sync import MVar
from ..core.syscalls import sys_blio, sys_fork, sys_sleep

__all__ = ["ShardWal", "WalError", "frame_record", "read_frames"]

#: Frame header: little-endian ``crc32(payload) | len(payload)``.
_HEADER = struct.Struct("<II")
#: A snapshot's first payload: the segment index it covers through.
_COVERS = struct.Struct("<I")
_SEGMENT_FMT = "wal-%08d.log"
_SNAPSHOT = "snapshot.wal"


class WalError(ReproError):
    """A write-ahead-log append could not be made durable (the flush
    failed); the parked write must surface the failure, not ack."""


# ----------------------------------------------------------------------
# Framing (shared by the log, the snapshot file, and the tests).
# ----------------------------------------------------------------------
def frame_record(payload: bytes) -> bytes:
    """One CRC-framed record: header + payload."""
    return _HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def read_frames(data: bytes) -> tuple[list[bytes], int]:
    """Parse ``data`` into whole, CRC-valid payloads.

    Returns ``(payloads, good_end)`` where ``good_end`` is the byte
    offset just past the last valid frame — the committed prefix.  A
    short header, short payload, or CRC mismatch ends the scan: a torn
    tail must not let later (possibly unsynced) bytes replay.
    """
    payloads: list[bytes] = []
    offset = 0
    total = len(data)
    while total - offset >= _HEADER.size:
        crc, length = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # torn/corrupt record
        payloads.append(payload)
        offset = end
    return payloads, offset


class ShardWal:
    """One shard's append-only log directory.

    ``timers`` is the runtime's timer wheel (``rt.timers``): a log that
    commits arms its group-flush deadline there; only a log opened just
    to :meth:`recover` does without.  ``state_fn``
    (set by the owning store) returns the full state for a snapshot as
    a list of payloads; compaction is skipped while it is ``None``.

    Writers use ``commit(record)`` (``record``: the payload, already
    encoded), or its two halves: ``append(record)`` resumes at once with
    the batch's barrier, ``wait(barrier)`` resumes when that batch is on
    disk (``WalError`` if it never will be).
    """

    def __init__(
        self,
        directory: str,
        *,
        flush_interval: float = 0.005,
        group_max: int = 128,
        compact_bytes: int = 4 * 1024 * 1024,
        timers: Any = None,
    ) -> None:
        self.directory = directory
        self.flush_interval = flush_interval
        self.group_max = max(1, group_max)
        self.compact_bytes = compact_bytes
        self.timers = timers
        self.state_fn: Callable[[], list[bytes]] | None = None
        os.makedirs(directory, exist_ok=True)
        #: Encoded frames awaiting the next flush.
        self._pending: list[bytes] = []
        #: The current batch's flush barrier: writers ``read()``, the
        #: flusher ``put()``s once — outcome is a count or an exception.
        self._barrier = MVar(name="wal-barrier")
        #: The barrier of the batch whose fsync is in flight (``None``
        #: between batches) — :meth:`flush_now` parks on it.
        self._inflight: MVar | None = None
        self._flushing = False
        self._alarm_armed = False
        self._closed = False
        self._segment_index = 1
        self._fd: int | None = None
        self._segment_bytes = 0
        #: Injection seams for the fault tests (and the sim runtime).
        self._write = os.write
        self._sync = os.fsync
        # -- counters (surface through the owner's extra_stats) --------
        self.appends = 0
        self.fsyncs = 0
        self.group_commits = 0
        self.group_records = 0
        self.group_max_seen = 0
        self.flush_failures = 0
        self.replayed_records = 0
        self.replayed_snapshot_keys = 0
        self.torn_bytes_truncated = 0
        self.compactions = 0
        self.bytes_appended = 0

    # ------------------------------------------------------------------
    # Paths and plain-file plumbing.
    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, _SEGMENT_FMT % index)

    def _snapshot_path(self) -> str:
        return os.path.join(self.directory, _SNAPSHOT)

    def _segments_on_disk(self) -> list[int]:
        found = []
        for name in os.listdir(self.directory):
            if name.startswith("wal-") and name.endswith(".log"):
                try:
                    found.append(int(name[4:-4]))
                except ValueError:
                    continue
        return sorted(found)

    def _open_segment(self, index: int) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
        self._segment_index = index
        path = self._segment_path(index)
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                           0o644)
        try:
            self._segment_bytes = os.fstat(self._fd).st_size
        except OSError:
            self._segment_bytes = 0

    def close(self) -> None:
        """Release the segment descriptor (plain code; pending unsynced
        records are *not* flushed — they were never acked).

        Writers still parked on the flush barrier are woken with
        :class:`WalError` by the next flusher run (the armed deadline or
        an in-flight flush observes ``_closed`` and fails the batch);
        new :meth:`commit`/:meth:`append`/:meth:`wait` calls after close
        fail immediately.  For a
        graceful stop that must drain instead of fail, run
        :meth:`flush_now` before closing."""
        self._closed = True
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def stats(self) -> dict:
        return {
            "wal_appends": self.appends,
            "wal_fsyncs": self.fsyncs,
            "wal_group_commits": self.group_commits,
            "wal_group_records": self.group_records,
            "wal_group_max": self.group_max_seen,
            "wal_flush_failures": self.flush_failures,
            "wal_replayed_records": self.replayed_records,
            "wal_replayed_snapshot_keys": self.replayed_snapshot_keys,
            "wal_torn_bytes_truncated": self.torn_bytes_truncated,
            "wal_compactions": self.compactions,
            "wal_pending": len(self._pending),
            "wal_bytes": self.bytes_appended,
        }

    # ------------------------------------------------------------------
    # Recovery: snapshot + committed log prefix, torn tail truncated.
    # ------------------------------------------------------------------
    def recover(self) -> list[tuple[str, bytes]]:
        """Load the durable state (plain code, runs once at start before
        the event loop serves traffic).

        Returns ``(path, payload)`` pairs in replay order — the
        snapshot's payloads, then every committed log payload after it
        — ``path`` being the file read, for error messages.  Side
        effects: torn tails are truncated on disk, segments the snapshot
        covers are deleted, the newest segment is (re)opened to append.
        """
        records: list[tuple[str, bytes]] = []
        covered = 0
        snap_path = self._snapshot_path()
        try:
            # A crash mid-compaction leaves the half-written temp file
            # behind; it was never renamed, so it is dead weight.
            os.unlink(snap_path + ".tmp")
        except OSError:
            pass
        if os.path.exists(snap_path):
            with open(snap_path, "rb") as fh:
                payloads, _end = read_frames(fh.read())
            if payloads:
                if len(payloads[0]) != _COVERS.size:
                    # Not a header: another build's snapshot.  Refuse it
                    # before any segment it may cover is deleted.
                    raise WalError(f"{snap_path}: not a snapshot header "
                                   f"({len(payloads[0])} bytes)")
                (covered,) = _COVERS.unpack(payloads[0])
                records.extend((snap_path, p) for p in payloads[1:])
                self.replayed_snapshot_keys = len(records)
        segments = self._segments_on_disk()
        live = [index for index in segments if index > covered]
        for stale in (index for index in segments if index <= covered):
            try:
                os.unlink(self._segment_path(stale))
            except OSError:
                pass
        for index in live:
            path = self._segment_path(index)
            with open(path, "rb") as fh:
                data = fh.read()
            payloads, good_end = read_frames(data)
            records.extend((path, payload) for payload in payloads)
            if good_end < len(data):
                # Torn tail: truncate this segment to its committed
                # prefix.  The torn record was never acked — its flush
                # failed or the process died mid-write.  Later segments
                # still replay: a failed flush rotates to a fresh
                # segment before accepting more appends, so acked
                # records legitimately live past a torn segment.
                self.torn_bytes_truncated += len(data) - good_end
                os.truncate(path, good_end)
        self.replayed_records = len(records) - self.replayed_snapshot_keys
        self._open_segment(live[-1] if live else covered + 1)
        return records

    # ------------------------------------------------------------------
    # The write path: append to the batch, wait on its barrier.
    # ------------------------------------------------------------------
    def commit(self, record: bytes) -> M:
        """Append ``record`` and resume once it is fsync-durable:
        :meth:`append`, then :meth:`wait` (raises :class:`WalError` if
        the flush failed)."""
        return self.append(record).bind(self.wait)

    @do
    def append(self, record):
        """Put ``record`` in the current batch, arm the batch's flush
        trigger, and resume *without waiting* with the batch's barrier
        (for :meth:`wait`).  The record is in the batch, not yet durable:
        the caller may start other work before it waits."""
        if self._closed:
            raise WalError("wal is closed")
        if self._fd is None:
            self._open_segment(self._segment_index)
        encoded = frame_record(record)
        self._pending.append(encoded)
        self.appends += 1
        self.bytes_appended += len(encoded)
        barrier = self._barrier
        if not self._flushing:
            if len(self._pending) >= self.group_max:
                # Watermark trigger: flush now, no deadline wait.
                yield sys_fork(self._flush(), name="wal-flush")
            elif not self._alarm_armed:
                # Deadline trigger: first writer of the batch arms it.
                self._alarm_armed = True
                yield self.timers.schedule(self.flush_interval, self._flush)
        # else: a flush is in flight; its loop picks this record up as
        # the next batch the moment the current fsync returns.
        return barrier

    @do
    def wait(self, barrier):
        """Resume with the group size once ``barrier``'s batch is
        fsync-durable — the log's only park, and no park at all when the
        flush already landed.  Raises :class:`WalError` if it failed, or
        if the log was closed before the batch was flushed."""
        if self._closed and not barrier.full:
            raise WalError("wal closed before the batch was flushed")
        outcome = yield barrier.read()
        if isinstance(outcome, BaseException):
            raise WalError(f"wal flush failed: {outcome!r}") from outcome
        return outcome

    @do
    def _flush(self):
        """Drain the pending batches: one gathered write + one fsync
        per batch, then wake every writer parked on that batch."""
        if self._flushing:
            return 0
        self._flushing = True
        flushed = 0
        try:
            while not self._closed:
                while self._pending and not self._closed:
                    # Swap *before* touching the disk: writers arriving
                    # mid fsync append to the fresh batch and park on
                    # the fresh barrier — they ride the next group.
                    batch, self._pending = self._pending, []
                    barrier, self._barrier = self._barrier, MVar(
                        name="wal-barrier"
                    )
                    self._inflight = barrier
                    self._alarm_armed = False
                    data = b"".join(batch)
                    fd = self._fd
                    try:
                        yield sys_blio(
                            lambda: self._write_and_sync(fd, data)
                        )
                    except BaseException as exc:
                        self.flush_failures += 1
                        # The segment now ends in torn/unsynced bytes,
                        # and after a failed fsync the kernel may have
                        # dropped the batch's pages while marking them
                        # clean — never append past the damage.  Restore
                        # the committed prefix best-effort, then rotate:
                        # later acked records land in a fresh segment
                        # that recovery replays on its own.
                        try:
                            os.ftruncate(fd, self._segment_bytes)
                        except OSError:
                            pass
                        self._open_segment(self._segment_index + 1)
                        # Failure is the batch's outcome: every parked
                        # writer wakes into WalError instead of an ack.
                        yield barrier.put(exc)
                        continue
                    self._segment_bytes += len(data)
                    self.fsyncs += 1
                    self.group_commits += 1
                    self.group_records += len(batch)
                    self.group_max_seen = max(self.group_max_seen,
                                              len(batch))
                    flushed += len(batch)
                    yield barrier.put(len(batch))
                if (self.state_fn is not None
                        and self._segment_bytes >= self.compact_bytes
                        and not self._closed):
                    yield self._compact()
                    # Records appended while the snapshot was being
                    # written are pending now: loop and flush them (the
                    # rotation reset the size, so this converges).
                    continue
                break
            if self._closed and (self._pending or self._barrier.takers):
                # Closed with writers still parked: their records were
                # never synced, so wake them with a failure instead of
                # leaving them blocked on a barrier nobody will fill.
                self._pending = []
                barrier, self._barrier = self._barrier, MVar(
                    name="wal-barrier"
                )
                yield barrier.put(
                    WalError("wal closed before the batch was flushed")
                )
            return flushed
        finally:
            self._flushing = False
            self._inflight = None

    def _write_and_sync(self, fd: int, data: bytes) -> int:
        # Runs on the blocking-I/O pool: one write, one fsync.
        written = 0
        while written < len(data):
            written += self._write(fd, data[written:])
        self._sync(fd)
        return written

    # ------------------------------------------------------------------
    # Snapshot + compaction (runs inside the flusher: the log is synced
    # and no batch is in flight when it starts).
    # ------------------------------------------------------------------
    @do
    def _compact(self):
        covered = self._segment_index
        data = frame_record(_COVERS.pack(covered)) + b"".join(
            map(frame_record, self.state_fn()))
        # Rotate first (plain code): appends from here land in the new
        # segment, which replays *after* the snapshot.
        self._open_segment(covered + 1)
        snap_path = self._snapshot_path()
        tmp_path = snap_path + ".tmp"

        def write_snapshot() -> None:
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                         0o644)
            try:
                self._write_and_sync(fd, data)
            finally:
                os.close(fd)
            os.replace(tmp_path, snap_path)

        try:
            yield sys_blio(write_snapshot)
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            raise
        except BaseException:
            # Compaction is an optimization: a failed snapshot leaves
            # the (longer) log authoritative.  Keep appending.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return None
        self.compactions += 1
        for stale in self._segments_on_disk():
            if stale <= covered:
                try:
                    os.unlink(self._segment_path(stale))
                except OSError:
                    pass
        return None

    # ------------------------------------------------------------------
    @do
    def flush_now(self):
        """Flush until nothing is pending and no flush is in flight —
        a test/shutdown convenience.

        Resumes with the number of records made durable while waiting.
        Unlike a bare ``_flush()`` (which returns immediately when a
        flush is already running), this parks on the in-flight batch's
        barrier, so every record appended before the call is durable —
        or its writers saw :class:`WalError` — by the time it resumes.
        """
        flushed = 0
        while not self._closed and (self._pending or self._flushing):
            if not self._flushing:
                flushed += yield self._flush()
                continue
            barrier = self._inflight
            if barrier is not None and not barrier.full:
                outcome = yield barrier.read()
                if isinstance(outcome, int):
                    flushed += outcome
            else:
                # The flusher is between batches (compacting, or just
                # past a put): no barrier to park on — poll briefly.
                yield sys_sleep(0.001)
        return flushed
