"""Vectored I/O: ``NetIO.writev``/``write_all_v`` semantics.

Unit level uses fake backends (deterministic partial writes, no kernel);
integration level uses the live backend's real ``sendmsg`` over a
socketpair, including the EAGAIN / partial-write resume path.
"""

from __future__ import annotations

import socket

from repro.core.do_notation import DoCall, do
from repro.core.events import EVENT_WRITE
from repro.core.scheduler import Scheduler, run_threads
from repro.core.trace import SysEpollWait
from repro.runtime import io_api
from repro.runtime.io_api import WRITEV_IOV_LIMIT, NetIO
from repro.runtime.live_runtime import HAS_SENDMSG, LiveRuntime
from repro.simos.errors import WOULD_BLOCK


class _VecBackend:
    """A scatter-gather backend that accepts at most ``cap`` bytes per
    ``nb_writev`` call — forcing mid-iovec (and mid-buffer) resumes."""

    def __init__(self, cap: int = 1 << 30) -> None:
        self.cap = cap
        self.written = bytearray()
        self.writev_calls = 0
        self.writev_iovs: list[int] = []
        self.write_calls = 0

    def nb_writev(self, fd, bufs):
        self.writev_calls += 1
        self.writev_iovs.append(len(bufs))
        accepted = 0
        for buf in bufs:
            take = min(len(buf), self.cap - accepted)
            self.written.extend(bytes(buf[:take]))
            accepted += take
            if accepted >= self.cap:
                break
        return accepted

    def nb_write(self, fd, data):
        self.write_calls += 1
        self.written.extend(data)
        return len(data)


class _JoinOnlyBackend:
    """No ``nb_writev`` at all: the fallback join+write path must run."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.write_calls = 0

    def nb_write(self, fd, data):
        self.write_calls += 1
        self.written.extend(data)
        return len(data)


def _run(comp) -> None:
    run_threads([comp])


class TestWriteAllV:
    def test_whole_iovec_in_one_call(self):
        backend = _VecBackend()
        io = NetIO(backend)
        bufs = [b"header: 12\r\n\r\n", b"the-body", b"!"]
        results = []

        @do
        def writer():
            count = yield io.write_all_v("fd", bufs)
            results.append(count)

        _run(writer())
        assert bytes(backend.written) == b"".join(bufs)
        assert results == [len(b"".join(bufs))]
        assert backend.writev_calls == 1
        assert backend.writev_iovs == [3]
        assert backend.write_calls == 0

    def test_partial_writev_resumes_mid_iovec(self):
        # 5 bytes per syscall against buffers of lengths 4/6/3: resumes
        # land mid-buffer and mid-iovec; the byte stream must still be
        # exact and in order.
        backend = _VecBackend(cap=5)
        io = NetIO(backend)
        bufs = [b"aaaa", b"bbbbbb", b"ccc"]

        @do
        def writer():
            yield io.write_all_v("fd", bufs)

        _run(writer())
        assert bytes(backend.written) == b"aaaabbbbbbccc"
        assert backend.writev_calls == 3  # ceil(13 / 5)
        # Later calls carry only the unsent suffix of the iovec.
        assert backend.writev_iovs[0] == 3
        assert backend.writev_iovs[-1] <= 2

    def test_empty_buffers_are_skipped(self):
        backend = _VecBackend()
        io = NetIO(backend)
        results = []

        @do
        def writer():
            count = yield io.write_all_v("fd", [b"", b"xy", b"", b"z"])
            results.append(count)

        _run(writer())
        assert bytes(backend.written) == b"xyz"
        assert results == [3]

    def test_all_empty_is_a_zero_byte_noop(self):
        backend = _VecBackend()
        io = NetIO(backend)
        results = []

        @do
        def writer():
            count = yield io.write_all_v("fd", [b"", b""])
            results.append(count)

        _run(writer())
        assert results == [0]
        assert backend.writev_calls == 0

    def test_fallback_without_nb_writev_joins(self):
        backend = _JoinOnlyBackend()
        io = NetIO(backend)
        results = []

        @do
        def writer():
            count = yield io.write_all_v("fd", [b"head", b"body"])
            results.append(count)

        _run(writer())
        assert bytes(backend.written) == b"headbody"
        assert results == [8]
        assert backend.write_calls == 1

    def test_none_nb_writev_attribute_forces_fallback(self):
        # The live backend sets ``nb_writev = None`` on platforms
        # without sendmsg; NetIO must treat that like a missing method.
        backend = _VecBackend()
        backend.nb_writev = None  # type: ignore[assignment]
        io = NetIO(backend)

        @do
        def writer():
            yield io.write_all_v("fd", [b"a", b"b"])

        _run(writer())
        assert bytes(backend.written) == b"ab"
        assert backend.write_calls == 1
        assert backend.writev_calls == 0

    def test_writev_single_shot_returns_count(self):
        backend = _VecBackend(cap=3)
        io = NetIO(backend)
        results = []

        @do
        def writer():
            count = yield io.writev("fd", [b"abcd", b"ef"])
            results.append(count)

        _run(writer())
        assert results == [3]
        assert bytes(backend.written) == b"abc"


class TestWholeWriteFastPath:
    """A write the kernel takes whole resumes at once: no per-buffer
    ``_unsent`` walk after the ``sendmsg``."""

    @staticmethod
    def _log_walks(monkeypatch, backend):
        log = []
        unsent = io_api._unsent
        writev = backend.nb_writev

        def counting_unsent(bufs, count):
            log.append(("unsent", count))
            return unsent(bufs, count)

        def logging_writev(fd, bufs):
            log.append(("sendmsg", len(bufs)))
            return writev(fd, bufs)

        monkeypatch.setattr(io_api, "_unsent", counting_unsent)
        backend.nb_writev = logging_writev
        return log

    def test_a_whole_write_resumes_with_the_total(self, monkeypatch):
        backend = _VecBackend()
        log = self._log_walks(monkeypatch, backend)
        io = NetIO(backend)
        bufs = [b"VALUE k%d 0 5\r\n" % i for i in range(100)]
        results = []

        @do
        def writer():
            results.append((yield io.write_all_v("fd", bufs)))

        _run(writer())
        assert results == [sum(map(len, bufs))]
        assert bytes(backend.written) == b"".join(bufs)
        assert backend.writev_calls == 1
        assert log[log.index(("sendmsg", 100)):] == [("sendmsg", 100)]

    def test_try_writev_full_write_returns_empty(self, monkeypatch):
        backend = _VecBackend()
        log = self._log_walks(monkeypatch, backend)
        io = NetIO(backend)
        bufs = [b"x" * 7 for _ in range(100)]
        assert io.try_writev("fd", bufs) == []
        assert log == [("sendmsg", 100)]

    def test_try_writev_partial_and_would_block(self):
        backend = _VecBackend(cap=5)
        io = NetIO(backend)
        rest = io.try_writev("fd", [b"aaaa", b"bbbb"])
        assert [bytes(buf) for buf in rest] == [b"bbb"]

        class Blocked(_VecBackend):
            def nb_writev(self, fd, bufs):
                return WOULD_BLOCK

        bufs = [b"", b"ab", b"c"]
        assert NetIO(Blocked()).try_writev("fd", bufs) == [b"ab", b"c"]

    def test_more_buffers_than_one_iovec_split_into_windows(self):
        backend = _VecBackend()
        io = NetIO(backend)
        count = 2 * WRITEV_IOV_LIMIT + 44
        bufs = [bytes([65 + i % 26]) * 3 for i in range(count)]
        results = []

        @do
        def writer():
            results.append((yield io.write_all_v("fd", bufs)))

        _run(writer())
        assert backend.writev_iovs == [WRITEV_IOV_LIMIT, WRITEV_IOV_LIMIT, 44]
        assert bytes(backend.written) == b"".join(bufs)
        assert results == [3 * count]


class TestWholeWritePath:
    """``write_all_v`` issues the first ``sendmsg`` itself; only a short
    or would-block write falls back to the :meth:`NetIO.writev` loop."""

    @staticmethod
    def _writer(io, fd, bufs, results):
        @do
        def writer():
            results.append((yield io.write_all_v(fd, bufs)))

        return writer()

    def test_a_whole_write_is_one_frame_and_one_node(self, monkeypatch):
        backend = _VecBackend()
        io = NetIO(backend)
        frames = []
        init = DoCall.__init__

        def counting_init(call, genfunc, args, kwargs):
            frames.append(genfunc.__name__)
            init(call, genfunc, args, kwargs)

        monkeypatch.setattr(DoCall, "__init__", counting_init)
        results = []
        sched = Scheduler()
        sched.spawn(self._writer(io, "fd", [b"head", b"body"], results))
        sched.run_all()
        assert results == [8]
        assert frames == ["writer", "write_all_v"]
        # Region entry, the sendmsg, SysEndCatch, SysRet.
        assert sched.total_syscalls == 4
        assert backend.writev_iovs == [2]

    def test_a_short_first_write_resumes_mid_iovec(self):
        backend = _VecBackend(cap=5)
        io = NetIO(backend)
        results = []
        _run(self._writer(io, "fd", [b"aaaa", b"bbbbbb", b"ccc"], results))
        assert results == [13]
        assert bytes(backend.written) == b"aaaabbbbbbccc"
        # The whole iovec first; then the rest from mid-buffer on.
        assert backend.writev_iovs == [3, 2, 1]

    def test_a_would_block_first_write_parks_then_completes(self):
        backend = _VecBackend()
        writev = backend.nb_writev
        attempts = []

        def blocks_once(fd, bufs):
            attempts.append(len(bufs))
            if len(attempts) == 1:
                return WOULD_BLOCK
            return writev(fd, bufs)

        backend.nb_writev = blocks_once
        io = NetIO(backend)
        parked = []
        sched = Scheduler()
        sched.register_syscall(
            SysEpollWait,
            lambda s, tcb, node: (parked.append((tcb, node)), None)[1],
        )
        results = []
        sched.spawn(self._writer(io, "fd", [b"xy", b"", b"z"], results))
        sched.run()
        assert attempts == [3] and results == []
        (tcb, node), = parked
        assert (node.fd, node.events) == ("fd", EVENT_WRITE)
        sched.resume_value(tcb, node.cont, EVENT_WRITE)
        sched.run_all()
        assert results == [3]
        assert bytes(backend.written) == b"xyz"
        assert len(attempts) == 2 and len(parked) == 1

    def test_more_than_one_iovec_of_buffers_still_goes_out(self):
        # Too many buffers for one sendmsg, and short writes on top: each
        # call carries at most WRITEV_IOV_LIMIT of them, in order.
        backend = _VecBackend(cap=301)
        io = NetIO(backend)
        count = WRITEV_IOV_LIMIT + 50
        bufs = [bytes([65 + i % 26]) * 5 for i in range(count)]
        results = []
        _run(self._writer(io, "fd", bufs, results))
        assert results == [5 * count]
        assert bytes(backend.written) == b"".join(bufs)
        assert max(backend.writev_iovs) <= WRITEV_IOV_LIMIT
        assert backend.writev_calls == -(-5 * count // 301)

    def test_an_all_empty_write_stays_syscall_free(self):
        backend = _VecBackend()
        io = NetIO(backend)
        results = []
        sched = Scheduler()
        sched.spawn(self._writer(io, "fd", [b"", b"", b""], results))
        sched.run_all()
        assert results == [0]
        assert backend.writev_calls == backend.write_calls == 0
        # Region entry, SysEndCatch, SysRet: no I/O node at all.
        assert sched.total_syscalls == 3


class TestLiveSendmsg:
    def test_gathered_write_over_a_real_socketpair(self):
        # Push well past the socket buffer so the EAGAIN park/resume and
        # mid-iovec restarts all run against the real kernel.
        assert HAS_SENDMSG, "test matrix runs on Linux (sendmsg present)"
        rt = LiveRuntime(uncaught="store")
        left, right = socket.socketpair()
        left.setblocking(False)
        right.setblocking(False)
        try:
            chunk = bytes(range(256)) * 64  # 16 KiB
            bufs = [chunk] * 24             # 384 KiB total
            total = sum(len(b) for b in bufs)
            received = bytearray()
            done = []

            @do
            def writer():
                count = yield rt.io.write_all_v(left, bufs)
                done.append(count)

            @do
            def reader():
                while len(received) < total:
                    data = yield rt.io.read(right, 65536)
                    if not data:
                        break
                    received.extend(data)

            rt.spawn(writer(), name="writer")
            rt.spawn(reader(), name="reader")
            rt.run(until=lambda: len(received) >= total and bool(done),
                   idle_timeout=10.0)
            assert done == [total]
            assert bytes(received) == b"".join(bufs)
            assert rt.backend.writev_calls >= 1
            # The gather actually engaged: sendmsg carried multiple
            # buffers per syscall on average.
            assert rt.backend.writev_bufs > rt.backend.writev_calls
        finally:
            left.close()
            right.close()
            rt.shutdown()

    def test_writes_would_block_counts_syscalls(self):
        backend = _VecBackend()
        original = backend.nb_writev
        attempts = []

        def flaky(fd, bufs):
            attempts.append(1)
            if len(attempts) == 1:
                return WOULD_BLOCK
            return original(fd, bufs)

        backend.nb_writev = flaky  # type: ignore[assignment]
        rt = LiveRuntime(uncaught="store")
        left, right = socket.socketpair()
        left.setblocking(False)
        try:
            io = NetIO(backend)
            done = []

            @do
            def writer():
                # ``fd`` must be pollable for the EAGAIN park: use the
                # real socket even though the fake backend ignores it.
                count = yield io.write_all_v(left, [b"xy", b"z"])
                done.append(count)

            rt.spawn(writer(), name="writer")
            rt.run(until=lambda: bool(done), idle_timeout=5.0)
            assert done == [3]
            assert bytes(backend.written) == b"xyz"
            assert len(attempts) == 2  # EAGAIN retry went back to writev
        finally:
            left.close()
            right.close()
            rt.shutdown()
