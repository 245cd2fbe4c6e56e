"""The KV record: one binary layout for mesh bodies and WAL payloads.

A record is a fixed little-endian head (:data:`_HEAD`, 24 bytes)::

    op u8 | flags u8 | target u16 | key_len u32 |
    counter u64 | shard u32 | value_len u32

then ``key_len`` bytes of key (UTF-8 with ``surrogatepass``, what
:class:`~repro.app.kv.HashRing` hashes) and ``value_len`` raw value
bytes.  ``flags`` says what is present: :data:`HAS_VALUE` tells ``b""``
from ``None`` (a miss, a tombstone), :data:`HAS_VERSION` a ``(counter,
shard)`` stamp from "never written"; :data:`APPLIED`/:data:`EXISTED` are
a replica's answer to a write; ``target`` is the shard a hint is for.
A message is one record, or a *run* (an ``mget``'s keys and answers, an
anti-entropy exchange's digests and records): a
zero byte — no op is zero, so the first byte tells the two apart — a
``u32`` count, then that many records.  A log or snapshot payload is
always one record, so the ``WRITE`` a coordinator sends is byte for
byte what each replica appends to its log.

The encoding is canonical (absent fields are zero; unknown ops and
undefined flag bits are refused) and every length is checked against the
bytes present before anything is sliced, so foreign bytes either decode
to a record that re-encodes identically or raise :class:`RecordError`.
"""

from __future__ import annotations

import struct

from ..core.exceptions import ReproError

__all__ = ["RecordError", "encode", "decode", "encode_run", "decode_run",
           "is_run", "GET", "WRITE", "HINT", "MGET", "STATS", "CLOCK",
           "HAS_VALUE", "HAS_VERSION", "APPLIED", "EXISTED"]

#: Ops.  ``WRITE`` and ``HINT`` are also the two log record kinds.
#: ``CLOCK`` carries state that versions no key: in a snapshot the
#: node's lamport clock (the stamp); in an anti-entropy exchange the
#: sender's digests of the ring arcs two shards share (``target`` the
#: sender, the value one little-endian ``u64`` per arc).
GET, WRITE, HINT, MGET, STATS, CLOCK = range(1, 7)
HAS_VALUE, HAS_VERSION, APPLIED, EXISTED = 1, 2, 4, 8
_UNDEFINED_FLAGS = ~(HAS_VALUE | HAS_VERSION | APPLIED | EXISTED)

_HEAD = struct.Struct("<BBHIQII")
_RUN = struct.Struct("<BI")
_HEAD_SIZE = _HEAD.size
_unpack_head = _HEAD.unpack_from


class RecordError(ReproError, ValueError):
    """Bytes that are not a record, or a field that does not fit one."""


def encode(op: int, key: str = "", version=None, value: bytes | None = None,
           target: int = 0, flags: int = 0) -> bytes:
    """One record; ``HAS_VALUE``/``HAS_VERSION`` follow from the
    arguments, ``flags`` carries the rest."""
    raw = key.encode("utf-8", "surrogatepass")
    counter = shard = 0
    if version is not None:
        counter, shard = version
        flags |= HAS_VERSION
    if value is None:
        value = b""
    else:
        flags |= HAS_VALUE
    if not GET <= op <= CLOCK or flags & _UNDEFINED_FLAGS:
        raise RecordError(f"cannot encode op {op!r} with flags {flags!r}")
    try:
        return _HEAD.pack(op, flags, target, len(raw), counter, shard,
                          len(value)) + raw + value
    except struct.error as exc:
        raise RecordError(f"field out of range for a record: {exc}") from None


def _read(body: bytes, offset: int, count: int) -> list[tuple]:
    """The ``count`` records that fill ``body`` from ``offset`` to its
    end exactly, each as ``(op, flags, key, version, value, target)`` —
    a plain tuple, unpacked where it is read (a named one costs a
    quarter of the decode, per key of every ``mget``).  The one decoder:
    a single record is the ``count == 1`` case of the loop for a run."""
    limit = len(body)
    records = []
    for _ in range(count):
        start = offset + _HEAD_SIZE
        if start > limit:
            raise RecordError(f"record head truncated at byte {offset}")
        op, flags, target, key_len, counter, shard, value_len = (
            _unpack_head(body, offset))
        middle = start + key_len
        end = middle + value_len
        if end > limit:
            raise RecordError(f"record at byte {offset} claims {key_len}+"
                              f"{value_len} bytes, {limit - start} remain")
        if not GET <= op <= CLOCK or flags & _UNDEFINED_FLAGS:
            raise RecordError(
                f"unknown op {op} or flags {flags:#x} at byte {offset}")
        version = (counter, shard) if flags & HAS_VERSION else None
        value = body[middle:end] if flags & HAS_VALUE else None
        if (version is None and (counter or shard)
                or value is None and value_len):
            raise RecordError(f"bytes in an absent field at byte {offset}")
        try:
            key = body[start:middle].decode("utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            raise RecordError(
                f"key at byte {start} is not UTF-8: {exc}") from None
        records.append((op, flags, key, version, value, target))
        offset = end
    if offset != limit:
        raise RecordError(f"{limit - offset} bytes after the last record")
    return records


def decode(body: bytes) -> tuple:
    """The one record ``body`` holds — all of it, nothing after."""
    return _read(body, 0, 1)[0]


def is_run(body: bytes) -> bool:
    return body[:1] == b"\0"


def encode_run(records: list[bytes]) -> bytes:
    """A counted run of already-encoded records."""
    return _RUN.pack(0, len(records)) + b"".join(records)


def decode_run(body: bytes) -> list[tuple]:
    """Every record of a run; the count must match the bytes exactly."""
    if len(body) < _RUN.size or body[0]:
        raise RecordError("not a run: no zero byte and count")
    _zero, count = _RUN.unpack_from(body)
    if count * _HEAD_SIZE > len(body) - _RUN.size:
        raise RecordError(f"run claims {count} records in {len(body)} bytes")
    return _read(body, _RUN.size, count)
