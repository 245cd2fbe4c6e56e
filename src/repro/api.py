"""repro.api — the one construction surface for applications.

Every application the stack can serve is built here, through four
keyword-only builders with a uniform shape::

    from repro.api import AppContext, build_server, build_kv, \
        build_cache, build_gateway

    # standalone: name the runtime and listener explicitly
    server = build_server(rt=rt, listener=listener, site={...})

    # in a cluster: the shard's AppContext carries everything
    def app_factory(ctx):
        return build_kv(ctx=ctx)

Each builder accepts *either* ``ctx=`` (the
:class:`~repro.runtime.cluster.AppContext` a cluster hands its
``app_factory(ctx)``) *or* explicit ``rt=``/``listener=`` keywords; with
a context, its mesh, cache listener and the application knobs of
``ctx.config`` flow through and any explicit keyword overrides them.
All parameters are keyword-only.  The builders delegate to the
constructors in each application's home module.
"""

from __future__ import annotations

from typing import Any

from .app.gateway import GatewayHandler, Route
from .app.gateway import build_gateway as _build_gateway
from .app.kv import build_kv_app as _build_kv_app
from .cache.frontend import build_cache_frontend as _build_cache_frontend
from .http.client import HttpClient
from .http.server import WebServer
from .http.server import build_live_server as _build_live_server
from .runtime.cluster import AppContext, ClusterConfig, ClusterServer
from .runtime.driver import ConnectionDriver
from .runtime.live_runtime import LiveRuntime, make_listener
from .runtime.pool import ConnectionPool
from .runtime.timer_wheel import TimerWheel

__all__ = [
    "AppContext",
    "ClusterConfig",
    "ClusterServer",
    "ConnectionPool",
    "GatewayHandler",
    "HttpClient",
    "LiveRuntime",
    "Route",
    "TimerWheel",
    "WebServer",
    "build_cache",
    "build_gateway",
    "build_kv",
    "build_server",
    "make_listener",
]

#: The :class:`ClusterConfig` fields :func:`build_kv` forwards to
#: :func:`repro.app.kv.build_kv_app` under the same names.
_KV_KNOBS = ("replication", "write_quorum", "cache_protocol", "wal_dir",
             "wal_flush_interval", "wal_group_max")


def _resolve(ctx: AppContext | None, rt: Any, listener: Any):
    """The shared ctx-or-explicit contract of every builder."""
    if ctx is not None:
        return (ctx.rt if rt is None else rt,
                ctx.listener if listener is None else listener)
    if rt is None or listener is None:
        raise TypeError(
            "pass ctx=AppContext, or both rt= and listener= explicitly"
        )
    return rt, listener


def build_server(
    *,
    ctx: AppContext | None = None,
    rt: Any = None,
    listener: Any = None,
    **kwargs: Any,
) -> WebServer:
    """The static-file web server (the paper's case-study application).

    Keyword arguments beyond ``ctx``/``rt``/``listener`` are those of
    :func:`repro.http.server.build_live_server` (``site``, ``docroot``,
    admission caps, parser limits, ...).
    """
    rt, listener = _resolve(ctx, rt, listener)
    return _build_live_server(rt, listener, **kwargs)


def build_kv(
    *,
    ctx: AppContext | None = None,
    rt: Any = None,
    listener: Any = None,
    **kwargs: Any,
) -> WebServer:
    """The sharded/replicated KV application.

    With ``ctx=``, the shard's mesh node and cache listener, and the
    replication, cache-dialect and durability knobs of ``ctx.config``,
    flow through from the cluster; each can still be overridden by
    naming it.  Keywords are those of :func:`repro.app.kv.build_kv_app`.
    """
    rt, listener = _resolve(ctx, rt, listener)
    if ctx is not None:
        kwargs = {
            "mesh": ctx.mesh,
            "cache_listener": ctx.cache_listener,
            "peers_up": ctx.peers_up,
            **{knob: getattr(ctx.config, knob) for knob in _KV_KNOBS},
            **kwargs,
        }
    return _build_kv_app(rt, listener, **kwargs)


def build_cache(
    *,
    store: Any,
    ctx: AppContext | None = None,
    rt: Any = None,
    listener: Any = None,
    **kwargs: Any,
) -> ConnectionDriver:
    """A cache wire-protocol front-end (memcache/RESP) over ``store``.

    ``store`` is any monadic KV surface; ``protocol`` defaults to
    ``ctx.config.cache_protocol`` when a context is given.  Remaining
    keywords are those of
    :func:`repro.cache.frontend.build_cache_frontend`.
    """
    rt, listener = _resolve(ctx, rt, listener)
    if ctx is not None:
        kwargs.setdefault("protocol", ctx.config.cache_protocol)
    return _build_cache_frontend(rt, listener, store, **kwargs)


def build_gateway(
    *,
    routes: list,
    ctx: AppContext | None = None,
    rt: Any = None,
    listener: Any = None,
    **kwargs: Any,
) -> WebServer:
    """The API gateway (reverse proxy with pools, coalescing, cache).

    ``routes`` is the declarative table of
    :func:`repro.app.gateway.build_gateway`; remaining keywords are that
    function's (pool sizing, timeouts, cache, ...).
    """
    rt, listener = _resolve(ctx, rt, listener)
    return _build_gateway(rt, listener, routes, **kwargs)
