"""Print a :class:`~repro.app.wal.ShardWal` directory record by record.

The log and the snapshot are binary (:mod:`repro.app.record` payloads in
CRC frames), so this is their ``cat``: one line per record — kind, key,
version, hint target, value length — and where a torn tail starts.

Usage::

    python tools/wal_dump.py <wal_dir>/shard-0
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from repro.app.record import (  # noqa: E402
    CLOCK, HINT, WRITE, RecordError, decode)
from repro.app.wal import _COVERS, _SNAPSHOT, read_frames  # noqa: E402

KINDS = {WRITE: "w", HINT: "hint", CLOCK: "clock"}


def dump(directory: str) -> None:
    # "snapshot.wal" sorts before "wal-*.log": replay order.
    for name in sorted(os.listdir(directory)):
        if not name.endswith((".wal", ".log")):
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        payloads, good_end = read_frames(data)
        for number, payload in enumerate(payloads):
            where = f"{name}[{number}]"
            if (name, number, len(payload)) == (_SNAPSHOT, 0, _COVERS.size):
                print(f"{where} covers segments through "
                      f"{_COVERS.unpack(payload)[0]}")
                continue
            try:
                op, _flags, key, version, value, target = decode(payload)
            except RecordError as exc:
                print(f"{where} UNREADABLE ({len(payload)} bytes): {exc}")
                continue
            size = "-" if value is None else len(value)  # "-": tombstone
            print(f"{where} {KINDS.get(op, f'op {op}')} key={key!r} "
                  f"version={version} target={target} value_len={size}")
        if good_end < len(data):
            print(f"{name}: torn tail at byte {good_end} "
                  f"({len(data) - good_end} bytes would be truncated)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    dump(sys.argv[1])
