"""The memcache text-protocol parser: framing, validation, byte splits."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cache.base import CacheParseError
from repro.cache.memcache import MemcacheParser, _digits, _valid_key
from repro.cache.resp import _decode_int


def parse_all(raw: bytes) -> list[tuple]:
    parser = MemcacheParser()
    parser.feed(raw)
    commands = []
    while (command := parser.next_command()) is not None:
        commands.append(command)
    return commands


class TestCommandLines:
    def test_get_single_key(self):
        assert parse_all(b"get alpha\r\n") == [("get", ["alpha"], False)]

    def test_get_multi_key(self):
        assert parse_all(b"get a b c\r\n") == [("get", ["a", "b", "c"], False)]

    def test_gets_sets_cas_flag(self):
        assert parse_all(b"gets a\r\n") == [("get", ["a"], True)]

    def test_set_with_data_block(self):
        assert parse_all(b"set k 0 0 5\r\nhello\r\n") == [
            ("set", "k", 0, 0, False, b"hello")
        ]

    def test_set_noreply(self):
        assert parse_all(b"set k 7 60 2 noreply\r\nhi\r\n") == [
            ("set", "k", 7, 60, True, b"hi")
        ]

    def test_value_may_contain_crlf(self):
        # The data block is length-framed: embedded CRLFs are data.
        assert parse_all(b"set k 0 0 9\r\nab\r\ncd\r\ne\r\n") == [
            ("set", "k", 0, 0, False, b"ab\r\ncd\r\ne")
        ]

    def test_delete(self):
        assert parse_all(b"delete k\r\n") == [("delete", "k", False)]
        assert parse_all(b"delete k noreply\r\n") == [("delete", "k", True)]
        # Legacy numeric delay argument is tolerated.
        assert parse_all(b"delete k 0\r\n") == [("delete", "k", False)]

    def test_admin_commands(self):
        assert parse_all(b"stats\r\nversion\r\nquit\r\n") == [
            ("stats",), ("version",), ("quit",)
        ]

    def test_pipelined_burst(self):
        commands = parse_all(
            b"set a 0 0 1\r\nx\r\nget a b\r\ndelete a\r\nget a\r\n"
        )
        assert [command[0] for command in commands] == [
            "set", "get", "delete", "get"
        ]


class TestRecoverableErrors:
    def test_empty_line_is_error_command(self):
        assert parse_all(b"\r\n") == [("error", b"ERROR\r\n")]

    def test_get_without_keys(self):
        assert parse_all(b"get\r\n") == [("error", b"ERROR\r\n")]

    def test_bad_key_rejected_in_band(self):
        (command,) = parse_all(b"get " + b"k" * 251 + b"\r\n")
        assert command[0] == "error"
        (command,) = parse_all(b"get k\x01ey\r\n")
        assert command[0] == "error"

    def test_unimplemented_storage_consumes_data(self):
        # add/replace/... must consume their data block (stream stays
        # framed) and answer ERROR in-band.
        commands = parse_all(b"add k 0 0 5\r\nhello\r\nget k\r\n")
        assert commands == [("unsupported", "add", False),
                            ("get", ["k"], False)]

    def test_line_only_unsupported(self):
        assert parse_all(b"incr k 1\r\n") == [("unsupported", "incr", False)]

    def test_bad_flags_still_consumes_data(self):
        commands = parse_all(b"set k pony 0 4\r\nbody\r\nget k\r\n")
        assert commands[0][0] == "error"
        assert commands[1] == (("get", ["k"], False))


class TestFatalErrors:
    def test_unknown_command_is_fatal(self):
        parser = MemcacheParser()
        with pytest.raises(CacheParseError):
            parser.feed(b"frobnicate k\r\n")

    def test_unparseable_byte_count_is_fatal(self):
        parser = MemcacheParser()
        with pytest.raises(CacheParseError):
            parser.feed(b"set k 0 0 pony\r\n")

    def test_bad_data_chunk_terminator_is_fatal(self):
        parser = MemcacheParser()
        with pytest.raises(CacheParseError):
            parser.feed(b"set k 0 0 4\r\nbodyXX")

    def test_oversized_value_is_fatal(self):
        parser = MemcacheParser(max_value_bytes=100)
        with pytest.raises(CacheParseError) as info:
            parser.feed(b"set k 0 0 101\r\n")
        assert b"SERVER_ERROR" in info.value.reply

    def test_oversized_line_is_fatal(self):
        parser = MemcacheParser()
        with pytest.raises(CacheParseError):
            parser.feed(b"get " + b"k " * 5000)


class TestByteSplitInvariance:
    RAW = (
        b"set alpha 0 0 5\r\nhello\r\n"
        b"get alpha beta\r\n"
        b"gets alpha\r\n"
        b"set beta 3 9 6 noreply\r\nw\r\norl\r\n"
        b"delete alpha\r\n"
        b"quit\r\n"
    )

    @given(st.lists(st.integers(1, 23), max_size=40))
    def test_any_split_parses_identically(self, cut_sizes):
        """Feeding the same bytes in any chunking parses identically —
        the same invariant the HTTP parser pins down."""
        expected = parse_all(self.RAW)
        parser = MemcacheParser()
        position = 0
        for size in cut_sizes:
            parser.feed(self.RAW[position:position + size])
            position += size
        parser.feed(self.RAW[position:])
        got = []
        while (command := parser.next_command()) is not None:
            got.append(command)
        assert got == expected
        assert parser.buffered == 0


# ----------------------------------------------------------------------
# The per-byte rules the C-level validators must keep.
# ----------------------------------------------------------------------
def reference_valid_key(key: bytes) -> bool:
    """Printable ASCII, no whitespace, 1..250 bytes."""
    return 0 < len(key) <= 250 and all(0x21 <= c <= 0x7E for c in key)


def reference_digits(field: bytes) -> bool:
    return bool(field) and all(c in b"0123456789" for c in field)


def reference_decode_int(field: bytes, signed: bool) -> int | None:
    body = field[1:] if signed and field[:1] == b"-" else field
    if not body or any(c not in b"0123456789" for c in body):
        return None
    return int(field)


#: Empty, the edges of the alphabet and of the length rule, every ASCII
#: whitespace byte, non-ASCII digits' UTF-8 and a sign in odd places.
EDGE_FIELDS = [
    b"", b"a" * 250, b"a" * 251, b"\x20", b"\x21", b"\x7e", b"\x7f", b"\x80",
    b"\xff", b"key\x7f", b"ke\x80y", *(bytes([c]) for c in b" \t\n\r\x0b\x0c"),
    b"a b", b"a\tb", b"\x1c", b"0", b"007", b"-", b"-0", b"--1", b"+1",
    b"1-", " ".join("\u0661\u0662").encode(), "\u0661".encode(), b"\xb2",
]


class TestValidatorsMatchTheirByteRules:
    @pytest.mark.parametrize("field", EDGE_FIELDS)
    def test_edges(self, field):
        self._check(field)

    @given(st.binary(max_size=300))
    def test_arbitrary_bytes(self, field):
        self._check(field)

    @given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x80),
                   max_size=260))
    def test_near_the_alphabet(self, text):
        self._check(text.encode("utf-8"))

    @staticmethod
    def _check(field: bytes) -> None:
        assert _valid_key(field) is reference_valid_key(field)
        assert _digits(field) is reference_digits(field)
        for signed in (False, True):
            assert (_decode_int(field, signed=signed)
                    == reference_decode_int(field, signed))
