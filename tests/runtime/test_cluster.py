"""Multi-process sharded serving: accept sharding, crash respawn,
graceful shutdown, stats aggregation — over real sockets and real forks."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.api import build_gateway, build_kv, build_server
from repro.cache.client import BlockingMemcacheClient
from repro.http.blocking_client import BlockingHttpClient
from repro.runtime.cluster import ClusterServer

SITE = {"index.html": b"<html>cluster under test</html>"}


def app_factory(ctx):
    return build_server(ctx=ctx, site=SITE)


def get(port: int, path: str = "index.html",
        client: BlockingHttpClient | None = None):
    """One keep-alive GET; returns (status_line, body, client)."""
    if client is None:
        client = BlockingHttpClient(port)
    status, body = client.get(path)
    return status, body, client


@pytest.fixture
def cluster():
    server = ClusterServer(app_factory, shards=2, grace=0.1)
    server.start()
    yield server
    server.stop()


class TestServing:
    def test_serves_http_from_any_shard(self, cluster):
        status, body, client = get(cluster.port)
        assert status.endswith("200 OK")
        assert body == SITE["index.html"]
        client.close()

    def test_both_workers_accept_connections(self, cluster):
        # SO_REUSEPORT hashes per source port; distinct connections land on
        # both shards with overwhelming probability well before the cap.
        clients = []
        try:
            for _ in range(64):
                status, _, client = get(cluster.port)
                assert status.endswith("200 OK")
                clients.append(client)
                accepted = [
                    worker["accepted"]
                    for worker in cluster.stats()["workers"] if worker
                ]
                if len(accepted) == 2 and all(accepted):
                    break
            stats = cluster.stats()
            accepted = [w["accepted"] for w in stats["workers"] if w]
            assert len(accepted) == 2
            assert all(count > 0 for count in accepted), accepted
            assert sum(count for count in accepted) == len(clients)
            assert stats["aggregate"]["requests"] == len(clients)
        finally:
            for client in clients:
                client.close()

    def test_keepalive_requests_counted_once_per_request(self, cluster):
        status, _, client = get(cluster.port)
        assert status.endswith("200 OK")
        for _ in range(4):
            status, _, _ = get(cluster.port, client=client)
            assert status.endswith("200 OK")
        stats = cluster.stats()["aggregate"]
        assert stats["accepted"] == 1
        assert stats["requests"] == 5
        client.close()


class TestCrashRespawn:
    def test_crashed_worker_is_respawned(self, cluster):
        pids_before = cluster.worker_pids()
        assert all(pid is not None for pid in pids_before)
        cluster.crash_worker(0)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            pids = cluster.worker_pids()
            if (cluster.respawns >= 1 and all(p is not None for p in pids)
                    and pids != pids_before):
                break
            time.sleep(0.05)
        assert cluster.respawns >= 1
        pids_after = cluster.worker_pids()
        assert all(pid is not None for pid in pids_after)
        assert pids_after != pids_before
        # The cluster still serves, and the replacement answers stats.
        status, body, client = get(cluster.port)
        assert status.endswith("200 OK")
        assert body == SITE["index.html"]
        client.close()
        assert cluster.stats()["aggregate"]["workers_reporting"] == 2


class TestReload:
    def test_rolling_reload_keeps_serving(self):
        """Zero-downtime restart: the port stays up, every shard is
        replaced, and keep-alive traffic keeps completing while shards
        roll one at a time."""
        cluster = ClusterServer(app_factory, shards=2, grace=0.1)
        cluster.start()
        stop = threading.Event()
        successes: list[float] = []
        bad_statuses: list[str] = []

        def hammer():
            client = None
            while not stop.is_set():
                try:
                    if client is None:
                        client = BlockingHttpClient(
                            cluster.port, timeout=2.0
                        )
                    status, body = client.get("index.html")
                    if status.endswith("200 OK") and body == SITE[
                        "index.html"
                    ]:
                        successes.append(time.monotonic())
                    else:
                        bad_statuses.append(status)
                except OSError:
                    # The keep-alive connection was pinned to the shard
                    # being rolled: reconnect (the kernel re-hashes onto
                    # a live listener).
                    if client is not None:
                        client.close()
                    client = None
            if client is not None:
                client.close()

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 5
            while not successes and time.monotonic() < deadline:
                time.sleep(0.01)
            assert successes, "no traffic before the roll"
            pids_before = cluster.worker_pids()
            roll_started = time.monotonic()
            new_pids = cluster.reload()
            roll_ended = time.monotonic()
            # Traffic completed *during* the roll, not only around it.
            during = [
                stamp for stamp in successes
                if roll_started <= stamp <= roll_ended
            ]
            assert during, "no request completed during the rolling restart"
        finally:
            stop.set()
            thread.join(timeout=5)
            cluster.stop()
        assert not bad_statuses, bad_statuses
        # Every shard was replaced, same port, same shard count.
        assert len(new_pids) == 2
        assert set(new_pids).isdisjoint(set(pids_before))

    def test_reload_then_stats_and_serving(self):
        cluster = ClusterServer(app_factory, shards=2, grace=0.1)
        cluster.start()
        try:
            port_before = cluster.port
            cluster.reload()
            assert cluster.port == port_before
            status, body, client = get(cluster.port)
            assert status.endswith("200 OK")
            assert body == SITE["index.html"]
            client.close()
            stats = cluster.stats()
            assert stats["aggregate"]["workers_reporting"] == 2
        finally:
            cluster.stop()


class TestGracefulShutdown:
    def test_stop_closes_port_and_exits_cleanly(self):
        cluster = ClusterServer(app_factory, shards=2, grace=0.1,
                                respawn=False)
        cluster.start()
        workers = list(cluster._workers)
        status, _, client = get(cluster.port)
        assert status.endswith("200 OK")
        client.close()
        cluster.stop()
        assert all(handle.process.exitcode == 0 for handle in workers), [
            handle.process.exitcode for handle in workers
        ]
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", cluster.port), timeout=1)

    def test_stop_is_idempotent_and_start_once(self):
        cluster = ClusterServer(app_factory, shards=1, grace=0.1)
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.start()
        cluster.stop()
        cluster.stop()


class TestOverloadStats:
    def test_saturation_surfaced_through_control_protocol(self):
        def capped_factory(ctx):
            return build_server(ctx=ctx, site=SITE, max_connections=8)

        cluster = ClusterServer(capped_factory, shards=2, grace=0.1)
        cluster.start()
        try:
            status, _, client = get(cluster.port)
            assert status.endswith("200 OK")
            stats = cluster.stats()
            for worker in stats["workers"]:
                assert worker is not None
                assert worker["capacity"] == 8
                assert worker["shed"] == 0
                assert 0.0 <= worker["saturation"] <= 1.0
                assert worker["poller"] in ("epoll", "selectors")
                assert worker["poller_ctl"] >= 0
            aggregate = stats["aggregate"]
            assert aggregate["active"] == 1
            assert aggregate["shed"] == 0
            assert aggregate["saturation_max"] == 1 / 8
            client.close()
        finally:
            cluster.stop()

    def test_uncapped_shards_report_null_saturation(self, cluster):
        stats = cluster.stats()
        for worker in stats["workers"]:
            assert worker is not None
            assert worker["capacity"] is None
            assert worker["saturation"] is None
        assert stats["aggregate"]["saturation_max"] is None


class _SlowFirstSnapshot:
    """A web server whose first stats snapshot takes 0.5 s."""

    def __init__(self, app):
        self._app = app
        self._slow = True

    def __getattr__(self, name):
        return getattr(self._app, name)

    def extra_stats(self):
        if self._slow:
            self._slow = False
            time.sleep(0.5)
        return {}


def slow_first_snapshot_factory(ctx):
    return _SlowFirstSnapshot(build_server(ctx=ctx, site=SITE))


class TestStatsReplies:
    def test_a_late_reply_does_not_answer_the_next_call(self):
        # The first reply misses its call's deadline and stays in the
        # pipe; the next call must read its own snapshot, taken after
        # the GET, not the one a call old.
        cluster = ClusterServer(slow_first_snapshot_factory, shards=1,
                                grace=0.1)
        cluster.start()
        try:
            assert cluster.stats(timeout=0.1)["workers"] == [None]
            status, _, client = get(cluster.port)
            assert status.endswith("200 OK")
            client.close()
            stats = cluster.stats()
            assert stats["aggregate"]["requests"] == 1
            assert "seq" not in stats["workers"][0]
        finally:
            cluster.stop()


def kv_factory(ctx):
    return build_kv(ctx=ctx)


class TestAppCounters:
    def test_gateway_and_kv_shards_report_integer_counters(self, tmp_path):
        # The master sums every number under ``app`` across shards, so
        # each must be a count: a per-shard ratio would add up to nonsense.
        kv = ClusterServer(kv_factory, shards=1, wal_dir=str(tmp_path),
                           cache_port=0, grace=0.1)
        kv.start()

        def gateway_factory(ctx):
            return build_gateway(ctx=ctx, routes=[{
                "prefix": "/", "upstreams": [("127.0.0.1", kv.port)],
            }])

        gateway = ClusterServer(gateway_factory, shards=2, grace=0.1)
        gateway.start()
        try:
            with BlockingMemcacheClient(kv.cache_port) as client:
                assert client.set("alpha", b"1")
            with BlockingHttpClient(gateway.port) as client:
                for _ in range(4):
                    status, body = client.get("/kv/alpha")
                    assert (status.split()[1], body) == ("200", b"1")
            snapshots = [kv.stats(), gateway.stats()]
        finally:
            gateway.stop()
            kv.stop()
        for stats in snapshots:
            sections = [worker["app"] for worker in stats["workers"]]
            sections.append(stats["aggregate"]["app"])
            for section in sections:
                assert {key: type(value).__name__
                        for key, value in section.items()
                        if type(value) is not int} == {}
        kv_app, gateway_app = (stats["aggregate"]["app"]
                               for stats in snapshots)
        assert kv_app["cache_sets"] == 1 and kv_app["wal_appends"] >= 1
        assert gateway_app["gw_requests"] == 4


class TestConfig:
    def test_shards_validation(self):
        with pytest.raises(ValueError):
            ClusterServer(app_factory, shards=0)
