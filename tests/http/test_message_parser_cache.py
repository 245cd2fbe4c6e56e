"""HTTP building blocks: messages, incremental parser, file cache."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.http.cache import FileCache
from repro.http.client import ResponseParseError, ResponseParser
from repro.http.message import (
    HttpError,
    HttpRequest,
    HttpResponse,
    guess_content_type,
)
from repro.http.parser import HttpParseError, RequestParser


def parse_one(raw: bytes) -> HttpRequest:
    parser = RequestParser()
    parser.feed(raw)
    request = parser.next_request()
    assert request is not None
    return request


class TestRequestParsing:
    def test_simple_get(self):
        request = parse_one(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.target == "/index.html"
        assert request.version == "HTTP/1.1"
        assert request.header("host") == "x"

    def test_headers_case_insensitive(self):
        request = parse_one(
            b"GET / HTTP/1.1\r\nCoNtEnT-TyPe: text/html\r\n\r\n"
        )
        assert request.header("Content-Type") == "text/html"

    def test_body_by_content_length(self):
        request = parse_one(
            b"POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        )
        assert request.body == b"hello"

    def test_pipelined_requests(self):
        parser = RequestParser()
        parser.feed(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
        )
        assert parser.next_request().target == "/a"
        assert parser.next_request().target == "/b"
        assert parser.next_request() is None

    def test_incomplete_header_waits(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.1\r\nHost:")
        assert parser.next_request() is None
        parser.feed(b" example\r\n\r\n")
        assert parser.next_request() is not None

    def test_incomplete_body_waits(self):
        parser = RequestParser()
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal")
        assert parser.next_request() is None
        parser.feed(b"f-and-half")  # only 10 bytes total count
        request = parser.next_request()
        assert request.body == b"half-and-h"

    def test_bad_request_line(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"NONSENSE\r\n\r\n")
        assert info.value.status == 400

    def test_unknown_method(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"BREW /pot HTTP/1.1\r\n\r\n")
        assert info.value.status == 501

    def test_bad_version(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"GET / SPDY/99\r\n\r\n")
        assert info.value.status == 400

    def test_bad_content_length(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n")
        assert info.value.status == 400

    def test_oversized_header_block(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"GET / HTTP/1.1\r\nX: " + b"a" * 20000)
        assert info.value.status == 431

    def test_bad_header_line(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError):
            parser.feed(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    @given(st.lists(st.integers(1, 40), max_size=30))
    def test_chunking_invariance(self, cut_sizes):
        """Feeding the same bytes in any chunking parses identically."""
        raw = (
            b"POST /path?q=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n"
            b"\r\nhello world"
            b"GET /second HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        parser = RequestParser()
        position = 0
        for size in cut_sizes:
            parser.feed(raw[position:position + size])
            position += size
        parser.feed(raw[position:])
        first = parser.next_request()
        second = parser.next_request()
        assert first.target == "/path?q=1"
        assert first.body == b"hello world"
        assert second.target == "/second"
        assert second.keep_alive


class TestContentLengthValidation:
    """Regression: bare int() accepted "+5", "1_0", " 7 ", "١٢"."""

    @pytest.mark.parametrize("value", [
        b"+5", b"-0", b"1_0", b"1 0", b"0x10", b"5.", b"", b"\xd9\xa5",
    ])
    def test_non_digit_lengths_rejected(self, value):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
            )
        assert info.value.status == 400

    def test_plain_digits_still_fine(self):
        request = parse_one(
            b"POST / HTTP/1.1\r\nContent-Length: 007\r\n\r\n1234567"
        )
        assert request.body == b"1234567"

    def test_duplicate_content_length_rejected(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                b"Content-Length: 5\r\n\r\n"
            )
        assert info.value.status == 400

    def test_conflicting_content_length_rejected(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                b"Content-Length: 50\r\n\r\n"
            )
        assert info.value.status == 400

    def test_comma_joined_length_rejected(self):
        # A single field with a folded list value is the same ambiguity.
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n")
        assert info.value.status == 400


class TestRepeatedHeaders:
    def test_non_framing_headers_comma_join(self):
        # RFC 9110 §5.2: repeated fields are equivalent to one field with
        # a comma-joined value — last-one-wins dropped cookie/accept data.
        request = parse_one(
            b"GET / HTTP/1.1\r\nAccept: text/html\r\nAccept: text/plain\r\n"
            b"X-Tag: a\r\nX-Tag: b\r\nX-Tag: c\r\n\r\n"
        )
        assert request.header("accept") == "text/html, text/plain"
        assert request.header("x-tag") == "a, b, c"

    def test_duplicate_host_rejected(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n")
        assert info.value.status == 400


class TestChunkedRequestBodies:
    """Regression: chunked bodies were silently ignored, so the body
    bytes were re-parsed as the next request — a smuggling shape."""

    CHUNKED = (
        b"POST /upload HTTP/1.1\r\nHost: h\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n"
        b"6\r\n world\r\n"
        b"0\r\n\r\n"
    )

    def test_simple_chunked_body(self):
        request = parse_one(self.CHUNKED)
        assert request.body == b"hello world"

    def test_smuggling_shape_stays_in_body(self):
        # The embedded GET must land in the body, never be parsed as a
        # second request.
        smuggled = b"GET /admin HTTP/1.1\r\n\r\n"
        raw = (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(smuggled) + smuggled + b"\r\n0\r\n\r\n"
        )
        parser = RequestParser()
        parser.feed(raw)
        first = parser.next_request()
        assert first.body == smuggled
        assert parser.next_request() is None
        assert parser.buffered == 0

    def test_te_and_content_length_is_400(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nContent-Length: 4\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
            )
        assert info.value.status == 400

    def test_unsupported_coding_is_501(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"
            )
        assert info.value.status == 501

    def test_chunk_extensions_ignored(self):
        request = parse_one(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5;name=value;flag\r\nhello\r\n0;last\r\n\r\n"
        )
        assert request.body == b"hello"

    def test_trailer_section_consumed(self):
        parser = RequestParser()
        parser.feed(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"3\r\nabc\r\n0\r\nX-Checksum: 900150983cd2\r\nX-Two: 2\r\n\r\n"
            b"GET /next HTTP/1.1\r\n\r\n"
        )
        first = parser.next_request()
        assert first.body == b"abc"
        # Trailer fields are consumed, not promoted to headers.
        assert first.header("x-checksum") == ""
        assert parser.next_request().target == "/next"

    def test_bad_chunk_size_rejected(self):
        for bad in (b"0x5", b"+5", b"5 5", b"", b"g1"):
            parser = RequestParser()
            with pytest.raises(HttpParseError) as info:
                parser.feed(
                    b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                    + bad + b"\r\n"
                )
            assert info.value.status == 400

    def test_chunk_missing_crlf_rejected(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\nabcXX"
            )
        assert info.value.status == 400

    def test_body_bound_enforced_across_chunks(self):
        parser = RequestParser(max_body_bytes=100)
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"28\r\n" + b"x" * 0x28 + b"\r\n"  # 40 bytes: fine
                + b"28\r\n" + b"x" * 0x28 + b"\r\n"  # 80 bytes: fine
                + b"28\r\n"                          # would cross 100
            )
        assert info.value.status == 413

    def test_trailer_bound_enforced(self):
        parser = RequestParser(max_header_bytes=128)
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"0\r\n" + b"X-Pad: " + b"y" * 200 + b"\r\n"
            )
        assert info.value.status == 431

    @given(st.lists(st.integers(1, 17), max_size=40))
    def test_chunked_byte_split_invariance(self, cut_sizes):
        raw = self.CHUNKED + b"GET /after HTTP/1.1\r\n\r\n"
        parser = RequestParser()
        position = 0
        for size in cut_sizes:
            parser.feed(raw[position:position + size])
            position += size
        parser.feed(raw[position:])
        first = parser.next_request()
        second = parser.next_request()
        assert first.body == b"hello world"
        assert second.target == "/after"


class TestFieldNameWhitespace:
    """Regression: ``Transfer-Encoding : chunked`` and a line starting
    with whitespace were ``.strip()``ped into framing headers — a field
    a stricter intermediary ignores decided where our message ended
    (RFC 9112 §5.1: no whitespace before the colon; §5.2: obs-fold is
    rejected)."""

    SMUGGLED = b"GET /admin HTTP/1.1\r\nHost: h\r\n\r\n"

    @pytest.mark.parametrize("field", [
        b"Transfer-Encoding : chunked",
        b"Transfer-Encoding\t: chunked",
        b"Content-Length : 5",
        b" Transfer-Encoding: chunked",
        b"\tContent-Length: 5",
        b"X-Plain : value",
    ])
    def test_request_is_400(self, field):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"POST / HTTP/1.1\r\nHost: h\r\n" + field
                        + b"\r\n\r\n")
        assert info.value.status == 400

    def test_obs_fold_continuation_is_400(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(b"GET / HTTP/1.1\r\nX-Long: part one\r\n"
                        b"  part two\r\n\r\n")
        assert info.value.status == 400

    @pytest.mark.parametrize("field, payload", [
        # A parser that ignores the odd field sees no body; one that
        # strips it swallows /admin as the body: the embedded request
        # is either real or hidden.
        (b"Content-Length : %d" % len(SMUGGLED), SMUGGLED),
        (b" Content-Length: %d" % len(SMUGGLED), SMUGGLED),
        (b"Transfer-Encoding : chunked",
         b"%x\r\n" % len(SMUGGLED) + SMUGGLED + b"\r\n0\r\n\r\n"),
        (b"\tTransfer-Encoding: chunked",
         b"%x\r\n" % len(SMUGGLED) + SMUGGLED + b"\r\n0\r\n\r\n"),
    ])
    def test_pipelined_smuggling_variants(self, field, payload):
        # The request before the malformed one parses; the malformed one
        # is an error, never a body that hides (or reveals) /admin.
        parser = RequestParser()
        with pytest.raises(HttpParseError) as info:
            parser.feed(
                b"GET /first HTTP/1.1\r\nHost: h\r\n\r\n"
                b"POST /second HTTP/1.1\r\nHost: h\r\n" + field
                + b"\r\n\r\n" + payload
            )
        assert info.value.status == 400
        assert parser.next_request().target == "/first"
        assert parser.next_request() is None

    @pytest.mark.parametrize("field", [
        b"Transfer-Encoding : chunked",
        b"Content-Length : 2",
        b" Content-Length: 2",
        b"\tTransfer-Encoding: chunked",
    ])
    def test_response_is_a_parse_error(self, field):
        parser = ResponseParser()
        parser.expect("GET")
        with pytest.raises(ResponseParseError):
            parser.feed(b"HTTP/1.1 200 OK\r\nServer: s\r\n" + field
                        + b"\r\n\r\nok")

    def test_pipelined_response_variant(self):
        parser = ResponseParser()
        parser.expect("GET")
        parser.expect("GET")
        with pytest.raises(ResponseParseError):
            parser.feed(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
                b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\nno"
            )
        assert parser.next_response().body == b"ok"
        assert parser.next_response() is None

    def test_value_whitespace_is_still_trimmed(self):
        request = parse_one(b"GET / HTTP/1.1\r\nHost:   spaced  \r\n\r\n")
        assert request.header("host") == "spaced"


def split_feed(parser, raw: bytes, cut_sizes) -> None:
    position = 0
    for size in cut_sizes:
        parser.feed(raw[position:position + size])
        position += size
    parser.feed(raw[position:])


class TestResponseByteSplitInvariance:
    """The byte-split-at-any-boundary property, for the response side of
    the one framing machine."""

    FRAMED = (
        b"HTTP/1.1 100 Continue\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        b"Content-Length: 11\r\n\r\nhello world"
        b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"  # to a HEAD
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5;name=value\r\nhello\r\n6 ; x\r\n world\r\n"
        b"0;last\r\nX-Checksum: abc\r\nX-Two: 2\r\n\r\n"
        b"HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n"
        b"HTTP/1.0 200 OK\r\nServer: old\r\n\r\nruns to the close"
    )
    METHODS = ("GET", "HEAD", "GET", "GET", "GET")

    @staticmethod
    def summarize(parser) -> list[tuple]:
        out = []
        while True:
            response = parser.next_response()
            if response is None:
                return out
            out.append((response.status, dict(response.headers),
                        response.body, response.framed,
                        response.keep_alive))

    def parse(self, cut_sizes) -> list[tuple]:
        parser = ResponseParser()
        for method in self.METHODS:
            parser.expect(method)
        split_feed(parser, self.FRAMED, cut_sizes)
        parser.eof()
        out = self.summarize(parser)
        assert parser.idle
        return out

    def test_whole_buffer_reference(self):
        statuses = [(status, body, framed)
                    for status, _h, body, framed, _k in self.parse([])]
        assert statuses == [
            (100, b"", True),
            (200, b"hello world", True),
            (200, b"", True),
            (200, b"hello world", True),
            (304, b"", True),
            (200, b"runs to the close", False),
        ]

    @given(st.lists(st.integers(1, 23), max_size=60))
    def test_any_split_parses_identically(self, cut_sizes):
        assert self.parse(cut_sizes) == self.parse([])

    @given(st.lists(st.integers(1, 9), max_size=40))
    def test_expectations_may_arrive_late(self, cut_sizes):
        # Bytes that arrive before their expect() stay buffered and
        # parse once the request is issued.
        raw = (b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"
               b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb")
        parser = ResponseParser()
        parser.expect("GET")
        split_feed(parser, raw, cut_sizes)
        assert parser.next_response().body == b"a"
        assert parser.next_response() is None
        assert not parser.idle
        parser.expect("GET")
        parser.feed(b"")
        assert parser.next_response().body == b"b"
        assert parser.idle


def test_both_parsers_share_one_framing_machine():
    # A second copy of the chunked machine (or of the strict length /
    # header-field rules) cannot reappear unnoticed.
    for name in ("feed", "_advance_chunked", "_parse_chunk_size",
                 "_strict_content_length", "_parse_header_block",
                 "_advance_body"):
        assert getattr(RequestParser, name) is getattr(ResponseParser, name)


class TestMessage:
    def test_keep_alive_defaults(self):
        http11 = parse_one(b"GET / HTTP/1.1\r\n\r\n")
        http10 = parse_one(b"GET / HTTP/1.0\r\n\r\n")
        assert http11.keep_alive
        assert not http10.keep_alive

    def test_keep_alive_overrides(self):
        close11 = parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        keep10 = parse_one(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        assert not close11.keep_alive
        assert keep10.keep_alive

    def test_path_strips_query(self):
        request = parse_one(b"GET /file.html?v=2 HTTP/1.1\r\n\r\n")
        assert request.path == "/file.html"

    def test_response_encode(self):
        response = HttpResponse(200, b"body", {"Content-Type": "text/plain"})
        raw = response.encode()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 4\r\n" in raw
        assert raw.endswith(b"\r\n\r\nbody")

    @given(
        st.dictionaries(
            st.sampled_from(["Content-Length", "Transfer-Encoding",
                             "Server", "Connection", "Content-Type",
                             "X-A", "x-b"]),
            st.sampled_from(["1", "chunked", "keep-alive", "v"]),
        ),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 99)),
    )
    def test_header_block_renders_in_place(self, headers, chunked,
                                           extra_length):
        # The reference is the copy-and-setdefault rendering: the
        # caller's headers in order, then each default it did not set.
        response = HttpResponse(200, b"abc", headers,
                                chunks=[b"x"] if chunked else None)
        expected = dict(headers)
        if chunked:
            expected.setdefault("Transfer-Encoding", "chunked")
            expected.pop("Content-Length", None)
        else:
            length = 3 if extra_length is None else extra_length
            expected.setdefault("Content-Length", str(length))
        expected.setdefault("Server", "repro-monadic/1.0")
        lines = ["HTTP/1.1 200 OK"] + [f"{name}: {value}"
                                       for name, value in expected.items()]
        rendered = response.header_block(extra_length)
        assert rendered == ("\r\n".join(lines) + "\r\n\r\n").encode()
        assert response.headers == headers  # read, never written

    def test_error_response(self):
        response = HttpResponse.for_error(HttpError(404, "/ghost"))
        assert response.status == 404
        assert b"404" in response.body

    def test_content_types(self):
        assert guess_content_type("/a/index.html") == "text/html"
        assert guess_content_type("/data.bin") == "application/octet-stream"
        assert guess_content_type("/noext") == "application/octet-stream"


class TestFileCache:
    def test_miss_then_hit(self):
        cache = FileCache(1000)
        assert cache.get("a") is None
        cache.put("a", b"x" * 100)
        assert cache.get("a") == b"x" * 100
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_by_bytes(self):
        cache = FileCache(250)
        cache.put("a", b"x" * 100)
        cache.put("b", b"y" * 100)
        cache.put("c", b"z" * 100)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.evictions == 1

    def test_lru_order(self):
        cache = FileCache(250)
        cache.put("a", b"x" * 100)
        cache.put("b", b"y" * 100)
        cache.get("a")  # promote a
        cache.put("c", b"z" * 100)  # evicts b, not a
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_oversized_entry_refused(self):
        cache = FileCache(50)
        assert not cache.put("big", b"x" * 100)
        assert cache.used_bytes == 0

    def test_replace_updates_bytes(self):
        cache = FileCache(1000)
        cache.put("a", b"x" * 100)
        cache.put("a", b"y" * 50)
        assert cache.used_bytes == 50
        assert cache.get("a") == b"y" * 50

    def test_invalidate_and_clear(self):
        cache = FileCache(1000)
        cache.put("a", b"123")
        cache.invalidate("a")
        assert cache.used_bytes == 0
        cache.put("b", b"45")
        cache.clear()
        assert cache.entry_count == 0

    def test_hit_rate(self):
        cache = FileCache(1000)
        assert cache.hit_rate == 0.0
        cache.put("a", b"1")
        cache.get("a")
        cache.get("nope")
        assert cache.hit_rate == pytest.approx(0.5)

    @given(
        ops=st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=3),
                      st.integers(1, 80)),
            max_size=40,
        )
    )
    def test_capacity_invariant(self, ops):
        """Property: used bytes never exceed capacity, and every hit
        returns exactly what was stored."""
        cache = FileCache(200)
        shadow = {}
        for path, size in ops:
            content = path.encode() * size
            if cache.put(path, content):
                shadow[path] = content
            assert cache.used_bytes <= 200
            got = cache.get(path)
            if got is not None:
                assert got == shadow[path]
