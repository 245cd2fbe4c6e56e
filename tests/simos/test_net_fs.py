"""Filesystem, page cache, stream network, packet links, epoll, AIO."""

from __future__ import annotations

import pytest

from repro.core.events import EVENT_READ, EVENT_WRITE
from repro.simos.errors import WOULD_BLOCK, BadFileError, SimOsError
from repro.simos.kernel import SimKernel
from repro.simos.net import PacketLink
from repro.simos.params import SimParams


class TestFileSystem:
    def make(self):
        return SimKernel()

    def test_create_open_size(self):
        kernel = self.make()
        kernel.fs.create_file("data.bin", 1000)
        assert kernel.fs.exists("data.bin")
        assert kernel.fs.file_size("data.bin") == 1000
        handle = kernel.fs.open("data.bin")
        assert handle.size == 1000

    def test_duplicate_create_rejected(self):
        kernel = self.make()
        kernel.fs.create_file("a", 10)
        with pytest.raises(SimOsError):
            kernel.fs.create_file("a", 10)

    def test_open_missing_raises(self):
        kernel = self.make()
        with pytest.raises(BadFileError):
            kernel.fs.open("ghost")

    def test_content_deterministic(self):
        kernel = self.make()
        kernel.fs.create_file("f", 8192)
        handle = kernel.fs.open("f")
        first = handle.content_at(100, 50)
        second = handle.content_at(100, 50)
        assert first == second
        assert len(first) == 50

    def test_direct_read_roundtrip(self):
        kernel = self.make()
        kernel.fs.create_file("f", 8192)
        handle = kernel.fs.open("f")
        got = []
        handle.pread_direct(0, 4096, got.append)
        kernel.clock.run_until_idle()
        assert len(got) == 1
        assert got[0] == handle.content_at(0, 4096)

    def test_read_past_eof_returns_empty(self):
        kernel = self.make()
        kernel.fs.create_file("f", 100)
        handle = kernel.fs.open("f")
        got = []
        handle.pread_direct(100, 10, got.append)
        kernel.clock.run_until_idle()
        assert got == [b""]

    def test_read_clamped_at_eof(self):
        kernel = self.make()
        kernel.fs.create_file("f", 100)
        handle = kernel.fs.open("f")
        got = []
        handle.pread_direct(90, 100, got.append)
        kernel.clock.run_until_idle()
        assert len(got[0]) == 10

    def test_closed_file_rejects_reads(self):
        kernel = self.make()
        kernel.fs.create_file("f", 100)
        handle = kernel.fs.open("f")
        handle.close()
        with pytest.raises(BadFileError):
            handle.pread_direct(0, 10, lambda data: None)


class TestPageCache:
    def test_buffered_read_misses_then_hits(self):
        kernel = SimKernel()
        kernel.fs.create_file("f", 64 * 1024)
        handle = kernel.fs.open("f")
        cache = kernel.fs.page_cache
        got = []
        handle.pread_buffered(0, 4096, got.append)
        kernel.clock.run_until_idle()
        miss_disk_ops = kernel.disk.stats.completed
        handle.pread_buffered(0, 4096, got.append)
        kernel.clock.run_until_idle()
        assert kernel.disk.stats.completed == miss_disk_ops  # hit: no disk I/O
        assert cache.hits >= 1 and cache.misses >= 1
        assert got[0] == got[1]

    def test_flush_forces_miss(self):
        kernel = SimKernel()
        kernel.fs.create_file("f", 64 * 1024)
        handle = kernel.fs.open("f")
        done = []
        handle.pread_buffered(0, 4096, done.append)
        kernel.clock.run_until_idle()
        kernel.fs.flush_page_cache()
        before = kernel.disk.stats.completed
        handle.pread_buffered(0, 4096, done.append)
        kernel.clock.run_until_idle()
        assert kernel.disk.stats.completed == before + 1

    def test_lru_eviction(self):
        params = SimParams().with_overrides(page_cache_bytes=2 * 4096)
        kernel = SimKernel(params)
        kernel.fs.create_file("f", 64 * 1024)
        handle = kernel.fs.open("f")
        for page in (0, 1, 2):  # page 0 evicted by page 2
            handle.pread_buffered(page * 4096, 4096, lambda d: None)
            kernel.clock.run_until_idle()
        before = kernel.disk.stats.completed
        handle.pread_buffered(0, 4096, lambda d: None)
        kernel.clock.run_until_idle()
        assert kernel.disk.stats.completed == before + 1  # page 0 was evicted


class TestStreamNetwork:
    def test_roundtrip_through_listener(self):
        kernel = SimKernel()
        listener = kernel.net.listen()
        client = kernel.net.connect(listener)
        server = listener.accept()
        assert server is not WOULD_BLOCK

        client.write(b"ping")
        kernel.clock.run_until_idle()
        assert server.read(100) == b"ping"
        server.write(b"pong")
        kernel.clock.run_until_idle()
        assert client.read(100) == b"pong"

    def test_accept_empty_would_block(self):
        kernel = SimKernel()
        listener = kernel.net.listen()
        assert listener.accept() is WOULD_BLOCK

    def test_listener_readiness(self):
        kernel = SimKernel()
        listener = kernel.net.listen()
        fired = []
        listener.add_waiter(EVENT_READ, lambda mask: fired.append(mask))
        kernel.net.connect(listener)
        assert fired == [EVENT_READ]

    def test_bandwidth_caps_transfer_rate(self):
        kernel = SimKernel()
        a, b = kernel.net.socketpair()
        total = 1024 * 1024  # 1MB
        sent = 0
        received = 0
        while received < total:
            while sent < total:
                wrote = a.write(b"x" * min(16384, total - sent))
                if wrote is WOULD_BLOCK:
                    break
                sent += wrote
            if not kernel.clock.advance():
                break
            while True:
                data = b.read(65536)
                if data is WOULD_BLOCK or not data:
                    break
                received += len(data)
        assert received == total
        # 1MB over 100Mbps should take >= ~0.08s of virtual time.
        expected_min = total / kernel.params.net_bandwidth
        assert kernel.clock.now >= expected_min * 0.99

    def test_eof_delivered_after_data(self):
        kernel = SimKernel()
        a, b = kernel.net.socketpair()
        a.write(b"last words")
        a.close()
        kernel.clock.run_until_idle()
        assert b.read(100) == b"last words"
        assert b.read(100) == b""

    def test_read_empty_would_block(self):
        kernel = SimKernel()
        a, b = kernel.net.socketpair()
        assert b.read(10) is WOULD_BLOCK


class TestPacketLink:
    def make_link(self, **kwargs):
        kernel = SimKernel()
        link = PacketLink(
            kernel.clock, bandwidth=1e6, latency=0.001, **kwargs
        )
        return kernel, link

    def test_delivery(self):
        kernel, link = self.make_link()
        got = []
        link.on_deliver = got.append
        link.send(b"packet-1")
        kernel.clock.run_until_idle()
        assert got == [b"packet-1"]

    def test_loss(self):
        kernel, link = self.make_link(loss=1.0)
        got = []
        link.on_deliver = got.append
        link.send(b"doomed")
        kernel.clock.run_until_idle()
        assert got == []
        assert link.dropped == 1

    def test_duplication(self):
        kernel, link = self.make_link(duplicate=1.0)
        got = []
        link.on_deliver = got.append
        link.send(b"twice")
        kernel.clock.run_until_idle()
        assert got == [b"twice", b"twice"]

    def test_statistical_loss_rate(self):
        kernel, link = self.make_link(loss=0.3, seed=7)
        got = []
        link.on_deliver = got.append
        for i in range(1000):
            link.send(b"p%d" % i)
        kernel.clock.run_until_idle()
        assert 600 <= len(got) <= 800  # ~70% of 1000

    def test_jitter_reorders(self):
        kernel, link = self.make_link(jitter=0.5, seed=3)
        got = []
        link.on_deliver = got.append
        for i in range(20):
            link.send(("pkt", i, 100))
        kernel.clock.run_until_idle()
        order = [i for (_tag, i, _size) in got]
        assert sorted(order) == list(range(20))
        assert order != list(range(20))  # some reordering happened

    def test_object_packets_use_wire_size(self):
        class Segment:
            wire_size = 500

        kernel, link = self.make_link()
        got = []
        link.on_deliver = got.append
        seg = Segment()
        link.send(seg)
        kernel.clock.run_until_idle()
        assert got == [seg]


class TestEpollAndAio:
    def test_epoll_harvest_batches(self):
        kernel = SimKernel()
        epoll = kernel.make_epoll()
        r1, w1 = kernel.make_pipe()
        r2, w2 = kernel.make_pipe()
        epoll.register(r1, EVENT_READ, "conn-1")
        epoll.register(r2, EVENT_READ, "conn-2")
        assert epoll.harvest() == []
        w1.write(b"x")
        w2.write(b"y")
        events = dict(epoll.harvest())
        assert set(events) == {"conn-1", "conn-2"}

    def test_epoll_idle_interest_is_free(self):
        kernel = SimKernel()
        epoll = kernel.make_epoll()
        for _ in range(1000):
            r, _w = kernel.make_pipe()
            epoll.register(r, EVENT_READ, r)
        assert epoll.interested == 1000
        assert epoll.pending_events == 0

    def test_aio_read_completion(self):
        kernel = SimKernel()
        kernel.fs.create_file("f", 16384)
        handle = kernel.fs.open("f")
        aio = kernel.make_aio()
        aio.submit_read(handle, 0, 4096, token="req-1")
        assert aio.in_flight == 1
        kernel.clock.run_until_idle()
        completions = aio.harvest()
        assert len(completions) == 1
        token, data = completions[0]
        assert token == "req-1"
        assert data == handle.content_at(0, 4096)
        assert aio.in_flight == 0

    def test_aio_multiple_outstanding(self):
        kernel = SimKernel()
        kernel.fs.create_file("f", 1024 * 1024)
        handle = kernel.fs.open("f")
        aio = kernel.make_aio()
        for i in range(10):
            aio.submit_read(handle, i * 4096, 4096, token=i)
        kernel.clock.run_until_idle()
        tokens = sorted(token for token, _data in aio.harvest())
        assert tokens == list(range(10))


class TestKernelMemory:
    def test_alloc_free(self):
        kernel = SimKernel()
        kernel.alloc_ram(1024)
        assert kernel.ram_used == 1024
        kernel.free_ram(1024)
        assert kernel.ram_used == 0

    def test_oom(self):
        from repro.simos.errors import OutOfMemoryError

        params = SimParams().with_overrides(ram_bytes=1000)
        kernel = SimKernel(params)
        kernel.alloc_ram(900)
        with pytest.raises(OutOfMemoryError):
            kernel.alloc_ram(200)

    def test_pressure(self):
        params = SimParams().with_overrides(ram_bytes=1000)
        kernel = SimKernel(params)
        kernel.alloc_ram(500)
        assert kernel.memory_pressure == pytest.approx(0.5)
