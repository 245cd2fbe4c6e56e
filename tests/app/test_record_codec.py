"""The KV record codec: every bound is checked where the bytes are read.

Three properties (hypothesis) plus the encode-side refusals:

* round trip — every op, arbitrary keys (non-ASCII, lone surrogates),
  versions, ``None`` / ``b""`` / binary values, runs of 0–256 records;
* framing — every strict prefix and every one-byte extension of a valid
  encoding raises :class:`RecordError`;
* foreign bytes — arbitrary input either decodes to something that
  re-encodes byte-identically or raises :class:`RecordError`, never
  ``IndexError`` / ``struct.error`` / ``UnicodeDecodeError`` /
  ``MemoryError``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.app.record import (APPLIED, CLOCK, EXISTED, GET, HAS_VALUE,
                              HAS_VERSION, WRITE, RecordError, decode,
                              decode_run, encode, encode_run, is_run)

OPS = st.integers(GET, CLOCK)
# ``text()`` alone never draws surrogates and ``characters()`` rarely;
# the ring hashes them, so the codec must carry them.
KEYS = st.text(st.characters() | st.sampled_from("\ud800\udfff\u00e9"),
               max_size=40)
VERSIONS = st.none() | st.tuples(st.integers(0, 2**64 - 1),
                                 st.integers(0, 2**32 - 1))
VALUES = st.none() | st.binary(max_size=64)
FIELDS = st.tuples(OPS, KEYS, VERSIONS, VALUES, st.integers(0, 2**16 - 1),
                   st.sampled_from([0, APPLIED, EXISTED, APPLIED | EXISTED]))


def reencode(record) -> bytes:
    op, flags, key, version, value, target = record
    return encode(op, key, version, value, target, flags)


class TestRoundTrip:
    @given(FIELDS)
    @example((WRITE, "clé-\ud800-\U0001f511", (2**64 - 1, 2**32 - 1),
              b"", 2**16 - 1, APPLIED | EXISTED))
    def test_one_record(self, fields):
        op, key, version, value, target, flags = fields
        body = encode(*fields)
        record = decode(body)
        assert not is_run(body)
        assert type(record) is tuple
        assert record[:1] + record[2:] == (op, key, version, value, target)
        # None and b"" are different answers (a miss, an empty value).
        assert bool(record[1] & HAS_VALUE) == (value is not None)
        assert bool(record[1] & HAS_VERSION) == (version is not None)
        assert record[1] & (APPLIED | EXISTED) == flags
        assert reencode(record) == body

    @settings(max_examples=60, deadline=None)
    @given(st.lists(FIELDS, max_size=256))
    def test_a_run(self, run):
        body = encode_run([encode(*fields) for fields in run])
        records = decode_run(body)
        assert is_run(body)
        assert [r[:1] + r[2:] for r in records] == [
            fields[:5] for fields in run]
        assert encode_run([reencode(r) for r in records]) == body


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(FIELDS)
    def test_prefixes_and_extensions_of_a_record_are_refused(self, fields):
        body = encode(*fields)
        for cut in range(len(body)):
            with pytest.raises(RecordError):
                decode(body[:cut])
        for extra in (b"\x00", b"\x01", b"\xff"):
            with pytest.raises(RecordError):
                decode(body + extra)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(FIELDS, max_size=6))
    def test_prefixes_and_extensions_of_a_run_are_refused(self, run):
        body = encode_run([encode(*fields) for fields in run])
        for cut in range(len(body)):
            with pytest.raises(RecordError):
                decode_run(body[:cut])
        for extra in (b"\x00", b"\x01", b"\xff"):
            with pytest.raises(RecordError):
                decode_run(body + extra)

    def test_a_run_and_a_record_are_not_each_other(self):
        with pytest.raises(RecordError):
            decode(encode_run([encode(GET, "k")]))
        with pytest.raises(RecordError):
            decode_run(encode(GET, "k"))


class TestForeignBytes:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=96))
    @example(b'{"op":"r_get","key":"k"}')  # the wire before this codec
    def test_decode_is_total(self, data):
        try:
            record = decode(data)
        except RecordError:
            return
        assert reencode(record) == data

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=96))
    def test_decode_run_is_total(self, data):
        try:
            records = decode_run(b"\0" + data)
        except RecordError:
            return
        assert encode_run([reencode(r) for r in records]) == b"\0" + data

    @settings(max_examples=300, deadline=None)
    @given(FIELDS, st.data())
    def test_one_flipped_byte_never_escapes_the_codec(self, fields, data):
        # Structure-aware: start from a valid record so the mutation
        # lands in a length, a flag, the op or the key, not in noise.
        body = bytearray(encode(*fields))
        at = data.draw(st.integers(0, len(body) - 1))
        body[at] ^= data.draw(st.integers(1, 255))
        try:
            record = decode(bytes(body))
        except RecordError:
            return
        assert reencode(record) == bytes(body)

    def test_a_count_larger_than_the_body_is_refused_before_the_loop(self):
        body = b"\0" + struct.pack("<I", 2**32 - 1)
        with pytest.raises(RecordError, match="claims 4294967295 records"):
            decode_run(body + encode(GET, "k"))

    def test_lengths_larger_than_the_body_are_refused_before_slicing(self):
        head = struct.Struct("<BBHIQII")
        for key_len, value_len in ((2**32 - 1, 0), (0, 2**32 - 1), (2, 3)):
            body = head.pack(WRITE, HAS_VALUE, 0, key_len, 0, 0,
                             value_len) + b"kvvv"
            with pytest.raises(RecordError, match="remain"):
                decode(body)

    @pytest.mark.parametrize("op, flags", [(0, 0), (CLOCK + 1, 0), (255, 0),
                                           (GET, 16), (GET, 128)])
    def test_unknown_ops_and_undefined_flags(self, op, flags):
        body = struct.pack("<BBHIQII", op, flags, 0, 0, 0, 0, 0)
        with pytest.raises(RecordError):
            decode(body)
        with pytest.raises(RecordError):
            encode(op, flags=flags)

    def test_absent_fields_must_be_zero(self):
        head = struct.Struct("<BBHIQII")
        with pytest.raises(RecordError, match="absent field"):
            decode(head.pack(GET, 0, 0, 0, 7, 0, 0))
        with pytest.raises(RecordError, match="absent field"):
            decode(head.pack(GET, 0, 0, 0, 0, 0, 1) + b"v")

    def test_keys_that_are_not_utf8_are_refused(self):
        head = struct.Struct("<BBHIQII")
        for raw in (b"\xff", b"\xc0\x80", b"\xed\xa0"):  # overlong, cut
            with pytest.raises(RecordError, match="not UTF-8"):
                decode(head.pack(GET, 0, 0, len(raw), 0, 0, 0) + raw)


class TestEncodeRefusals:
    @pytest.mark.parametrize("kwargs", [
        {"version": (2**64, 0)}, {"version": (-1, 0)},
        {"version": (0, 2**32)}, {"target": 2**16}, {"target": -1},
    ])
    def test_a_field_that_does_not_fit_is_a_record_error(self, kwargs):
        # The codec's error, not struct.error: callers catch one type.
        with pytest.raises(RecordError, match="out of range"):
            encode(WRITE, "k", **kwargs)
