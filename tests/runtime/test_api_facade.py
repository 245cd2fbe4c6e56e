"""The public construction facade (repro.api) and the AppContext
factory contract."""

from __future__ import annotations

import pytest

from repro.api import (
    AppContext,
    build_cache,
    build_gateway,
    build_kv,
    build_server,
)
from repro.http.blocking_client import BlockingHttpClient
from repro.runtime.cluster import ClusterConfig, ClusterServer
from repro.runtime.driver import ConnectionDriver
from repro.runtime.live_runtime import LiveRuntime, make_listener


@pytest.fixture
def rt():
    runtime = LiveRuntime(uncaught="store")
    yield runtime
    runtime.shutdown()


class TestBuilders:
    def test_build_server_with_explicit_keywords(self, rt):
        listener = make_listener()
        server = build_server(rt=rt, listener=listener,
                              site={"x": b"content"})
        # A server is the connection driver itself, configured.
        assert isinstance(server, ConnectionDriver)
        assert server.cache.get("x") == b"content"
        listener.close()

    def test_builders_require_a_context_or_both_keywords(self, rt):
        with pytest.raises(TypeError):
            build_server(rt=rt)  # no listener, no ctx
        with pytest.raises(TypeError):
            build_server()

    def test_build_kv_reads_knobs_from_the_context(self, rt, tmp_path):
        listener = make_listener()
        ctx = AppContext(rt=rt, listener=listener,
                         config=ClusterConfig(wal_group_max=7))
        app = build_kv(ctx=ctx)
        assert isinstance(app, ConnectionDriver)
        assert app.kv.replication == 1
        assert app.wal is None  # ClusterConfig's wal_dir default
        # An explicit keyword overrides ctx.config; the rest still flow.
        app = build_kv(ctx=ctx, wal_dir=str(tmp_path))
        assert app.wal.group_max == 7
        assert app.wal.timers is rt.timers
        app.wal.close()
        listener.close()

    def test_explicit_keyword_overrides_the_context(self, rt):
        listener = make_listener()
        other = make_listener()
        ctx = AppContext(rt=rt, listener=listener)
        server = build_server(ctx=ctx, listener=other, site={})
        assert server.listener is other
        listener.close()
        other.close()

    def test_build_gateway_facade(self, rt):
        listener = make_listener()
        upstream = make_listener()
        server = build_gateway(
            rt=rt, listener=listener,
            routes=[{"prefix": "/", "upstreams": [upstream.getsockname()]}],
        )
        assert isinstance(server, ConnectionDriver)
        assert server.gateway.routes[0].prefix == "/"
        assert callable(server.extra_stats)
        listener.close()
        upstream.close()

    def test_build_cache_facade(self, rt):
        class NullStore:
            pass

        listener = make_listener()
        frontend = build_cache(rt=rt, listener=listener, store=NullStore())
        assert isinstance(frontend, ConnectionDriver)
        assert frontend.stats is frontend.protocol.stats
        listener.close()


class TestClusterContextFactory:
    def test_cluster_passes_an_app_context(self):
        # A one-parameter factory gets the shard's AppContext; the site
        # content proves shard identity and shape arrived through it.
        def app_factory(ctx):
            body = (f"shard {ctx.shard_index} of "
                    f"{ctx.config.shards}").encode()
            assert ctx.rt is not None
            assert ctx.mesh is None  # mesh not configured
            assert ctx.cache_listener is None
            return build_server(ctx=ctx, site={"whoami": body})

        cluster = ClusterServer(app_factory, shards=1, grace=0.1)
        cluster.start()
        try:
            with BlockingHttpClient(cluster.port) as client:
                status, body = client.get("whoami")
            assert status.endswith("200 OK")
            assert body == b"shard 0 of 1"
        finally:
            cluster.stop()

    @pytest.mark.parametrize("factory", [
        lambda rt, listener: None,
        lambda: None,
        "not callable",
    ])
    def test_wrong_arity_factory_fails_in_the_master(self, factory):
        # Not as "shard 0 died during startup" from the forked child.
        with pytest.raises(TypeError,
                           match=r"app_factory\(ctx\).*repro\.api"):
            ClusterServer(factory, shards=1)
