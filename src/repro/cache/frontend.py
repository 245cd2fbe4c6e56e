"""Wiring: a cache wire protocol on a connection driver over a store.

The cache front-end is a sibling of the HTTP server: same
:class:`~repro.runtime.driver.ConnectionDriver`, same transport
(``rt.io``), different protocol object — the "protocols among threads"
composition the driver was factored out for.
:func:`build_cache_frontend` configures one and returns the driver
itself; :func:`~repro.app.kv.build_kv_app` mounts it next to the HTTP
listener so one shard serves both dialects over one store.
"""

from __future__ import annotations

from typing import Any

from ..runtime.driver import ConnectionDriver
from .base import CacheStats
from .memcache import MemcacheProtocol
from .resp import RespProtocol

__all__ = ["PROTOCOLS", "build_cache_frontend"]

PROTOCOLS = {
    "memcache": MemcacheProtocol,
    "resp": RespProtocol,
}


def build_cache_frontend(
    rt: Any,
    listener: Any,
    store: Any,
    protocol: str = "memcache",
    accept_batch: int = 64,
    max_connections: int | None = None,
    name: str | None = None,
    **protocol_kwargs: Any,
) -> ConnectionDriver:
    """A cache front-end over ``store`` on an existing listener: the
    connection driver running the dialect's protocol, whose ``stats`` is
    the protocol's :class:`~repro.cache.base.CacheStats`.

    ``store`` is any monadic KV (``get``/``put``/``delete``/``mget``
    returning ``M``) — in the cluster it is the shard's
    :class:`~repro.app.kv.KvNode`, so owner routing and replication come
    for free and any shard answers any key.  ``protocol`` selects the
    dialect from :data:`PROTOCOLS`.

    The runtime's shared services ride along: ingress reads lease from
    ``rt.buffers`` (``rt.io``'s pool) and the memcache dialect's
    ``exptime`` uses ``rt.timers`` — pass an explicit ``timers=`` (or
    ``None``) through ``protocol_kwargs`` to override or disable it.
    """
    try:
        protocol_cls = PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown cache protocol {protocol!r} "
            f"(have {sorted(PROTOCOLS)})"
        )
    if protocol == "memcache" and "timers" not in protocol_kwargs:
        protocol_kwargs["timers"] = getattr(rt, "timers", None)
    stats = CacheStats()
    proto = protocol_cls(store, stats=stats, **protocol_kwargs)
    return ConnectionDriver(
        rt.io,
        listener,
        proto,
        accept_batch=accept_batch,
        max_connections=max_connections,
        stats=stats,
        name=name or f"cache-{protocol}",
    )
