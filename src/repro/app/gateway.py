"""An API gateway (reverse proxy) on the layered serving stack.

The gateway is the paper's thesis applied *twice on the same thread*: a
request arrives on one monadic connection thread (the inbound half —
ConnectionDriver + HttpProtocol, unchanged), and the same thread then
performs outbound monadic I/O through pooled keep-alive
:class:`~repro.http.client.HttpClient` connections.  Every blocking
point — waiting for a pool lease, for upstream bytes, for a coalesced
flight — is a monadic park, never an OS thread.

Layers, inbound to outbound:

* :class:`GatewayHandler` implements the :class:`HttpProtocol` handler
  contract (``respond(request) -> M[HttpResponse]``), so the gateway is
  just one more application next to the static-file server and the KV
  facade.
* A route table (:class:`Route`) maps path prefixes (longest wins) to
  upstream groups.  Policy ``"round_robin"`` rotates single-upstream
  fetches with failover: a dead or timed-out upstream is skipped (the
  pool latches it down and re-probes) and the next one tried; only when
  every upstream fails does the client see 502/504.  Policy ``"fanout"``
  queries *all* upstreams of the route concurrently (one forked thread
  each) and merges the results into a JSON envelope, partial failures
  included — the "partial-failure merge".
* Duplicate in-flight GETs **coalesce**: the first thread to miss
  becomes the *leader* and fetches; concurrent threads asking for the
  same target park on the flight's MVar (``read`` — non-consuming, so
  one ``put`` wakes every follower) and share the leader's response.  N
  concurrent misses cost one upstream request.
* A small TTL + byte-capped response cache sits in front of the flight
  table for repeat GETs.

Lifecycle of a coalesced request (see ARCHITECTURE.md for the diagram):
miss -> leader inserts flight -> followers park on flight.read() ->
leader fetches via pooled client -> leader pops flight, puts response ->
every follower resumes with a private copy -> response cached for TTL.
"""

from __future__ import annotations

import json
from typing import Any

from ..core.do_notation import do
from ..core.monad import M
from ..core.sync import MVar
from ..core.syscalls import sys_now
from ..core.thread import join_all, spawn
from ..http.cache import FileCache
from ..http.client import HttpClient, HttpClientError, RequestTimeout
from ..http.message import HttpError, HttpRequest, HttpResponse
from ..http.server import EmptyFilesystem, WebServer
from ..runtime.io_api import ConnectionClosed
from ..runtime.pool import PoolError, PoolTimeout

__all__ = ["Route", "GatewayHandler", "ResponseCache", "build_gateway"]

#: Hop-by-hop request headers never forwarded upstream (the client sets
#: its own Host/Content-Length; Connection governs only one hop).
_HOP_BY_HOP = frozenset({
    "connection", "keep-alive", "host", "content-length",
    "transfer-encoding", "te", "upgrade", "proxy-connection",
    "proxy-authenticate", "proxy-authorization", "trailer",
})

#: Upstream response headers that describe the hop, not the payload.
_RESPONSE_STRIP = frozenset({
    "connection", "keep-alive", "transfer-encoding", "content-length",
})

#: Failures that mean "this upstream didn't answer" — eligible for
#: failover to the next upstream in the route.
_FAILOVER_ERRORS = (PoolError, HttpClientError, ConnectionClosed, OSError)


class Route:
    """One path prefix mapped to a group of upstream clients."""

    __slots__ = ("prefix", "clients", "policy", "rotation")

    def __init__(self, prefix: str, clients: list[HttpClient],
                 policy: str = "round_robin") -> None:
        if not clients:
            raise ValueError(f"route {prefix!r} has no upstreams")
        if policy not in ("round_robin", "fanout"):
            raise ValueError(f"unknown route policy {policy!r}")
        self.prefix = prefix if prefix.startswith("/") else f"/{prefix}"
        self.clients = clients
        self.policy = policy
        self.rotation = 0

    def matches(self, path: str) -> bool:
        return path.startswith(self.prefix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Route {self.prefix} -> {len(self.clients)} upstream(s) "
                f"{self.policy}>")


class _Timed:
    """A cached response and its expiry; sized by its body for the LRU."""

    __slots__ = ("expires", "response")

    def __init__(self, expires: float, response: HttpResponse) -> None:
        self.expires = expires
        self.response = response

    def __len__(self) -> int:
        return len(self.response.body)


class ResponseCache:
    """A TTL over the byte-capped LRU of complete upstream responses.

    Entries expire ``ttl`` seconds after insertion (checked against the
    runtime clock passed by the caller — works under both real and
    virtual time); byte accounting and oldest-first eviction are
    :class:`~repro.http.cache.FileCache`'s.
    """

    def __init__(self, capacity_bytes: int, ttl: float) -> None:
        self.ttl = ttl
        self._lru = FileCache(capacity_bytes)
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def __len__(self) -> int:
        return self._lru.entry_count

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def get(self, key: str, now: float) -> HttpResponse | None:
        entry = self._lru.get(key)
        if entry is not None and now >= entry.expires:
            self._lru.invalidate(key)
            self.expirations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.response

    def put(self, key: str, response: HttpResponse, now: float) -> bool:
        if self.ttl <= 0:
            return False
        return self._lru.put(key, _Timed(now + self.ttl, response))


def _copy_response(response: HttpResponse) -> HttpResponse:
    """A private copy per downstream connection: the protocol layer
    mutates response headers (Connection), so shared/cached responses
    must never be handed out twice."""
    return HttpResponse(response.status, body=response.body,
                        headers=dict(response.headers))


class GatewayHandler:
    """Route, coalesce, cache, fetch — the reverse-proxy application."""

    def __init__(
        self,
        routes: list[Route],
        *,
        cache_bytes: int = 4 * 1024 * 1024,
        cache_ttl: float = 1.0,
        coalesce: bool = True,
        name: str = "gateway",
    ) -> None:
        # Longest prefix first, so "/api/v2" beats "/api" beats "/".
        self.routes = sorted(routes, key=lambda r: -len(r.prefix))
        self.cache = ResponseCache(cache_bytes, cache_ttl)
        self.coalesce = coalesce
        self.name = name
        #: target -> MVar flight; followers read(), the leader put()s.
        self._inflight: dict[str, MVar] = {}
        self.requests = 0
        self.upstream_requests = 0
        self.upstream_errors = 0
        self.coalesced = 0
        self.fanouts = 0
        self.failovers = 0
        self.bad_gateway = 0
        self.not_found = 0

    # -- handler contract ----------------------------------------------
    @do
    def respond(self, request: HttpRequest):
        self.requests += 1
        route = self._match(request.path)
        if route is None:
            self.not_found += 1
            raise HttpError(404, request.path)
        if request.method != "GET":
            # Writes are never cached or coalesced.
            response = yield self._fetch(route, request)
            return response
        key = request.target
        now = yield sys_now()
        cached = self.cache.get(key, now)
        if cached is not None:
            return _copy_response(cached)
        if not self.coalesce:
            response = yield self._fetch(route, request)
            self._maybe_cache(key, response, now)
            return response
        flight = self._inflight.get(key)
        if flight is not None:
            # A fetch for this exact target is already in flight: park
            # on it instead of duplicating the upstream request.
            self.coalesced += 1
            response = yield flight.read()
            return _copy_response(response)
        flight = MVar(name=f"{self.name}-flight")
        self._inflight[key] = flight
        try:
            response = yield self._fetch(route, request)
        except GeneratorExit:
            # Abandonment (runtime teardown): nothing can be delivered
            # monadically here; drop the flight so no *new* follower
            # joins it.  (_fetch maps all per-request failures to error
            # responses, so no other exception reaches this frame.)
            self._inflight.pop(key, None)
            raise
        self._inflight.pop(key, None)
        now = yield sys_now()
        self._maybe_cache(key, response, now)
        # One put wakes every parked follower (MVar.read is
        # non-consuming); the flight MVar stays full and unreferenced.
        yield flight.put(response)
        return _copy_response(response)

    # -- internals -----------------------------------------------------
    def _match(self, path: str) -> Route | None:
        for route in self.routes:
            if route.matches(path):
                return route
        return None

    def _maybe_cache(self, key: str, response: HttpResponse,
                     now: float) -> None:
        if response.status == 200:
            self.cache.put(key, response, now)

    def _forward_headers(self, request: HttpRequest) -> dict[str, str]:
        return {
            name: value for name, value in request.headers.items()
            if name.lower() not in _HOP_BY_HOP
        }

    @staticmethod
    def _to_response(upstream) -> HttpResponse:
        headers = {
            name: value for name, value in upstream.headers.items()
            if name not in _RESPONSE_STRIP
        }
        return HttpResponse(upstream.status, body=upstream.body,
                            headers=headers)

    @do
    def _fetch(self, route, request):
        if route.policy == "fanout" and request.method == "GET":
            response = yield self._fanout(route, request)
            return response
        clients = route.clients
        start = route.rotation
        route.rotation += 1
        headers = self._forward_headers(request)
        worst: tuple[int, BaseException] | None = None
        for offset in range(len(clients)):
            client = clients[(start + offset) % len(clients)]
            self.upstream_requests += 1
            try:
                upstream = yield client.request(
                    request.method, request.target, request.body,
                    headers=headers,
                )
            except (RequestTimeout, PoolTimeout) as exc:
                self.upstream_errors += 1
                worst = (504, exc)
            except _FAILOVER_ERRORS as exc:
                self.upstream_errors += 1
                if worst is None or worst[0] != 504:
                    worst = (502, exc)
            else:
                return self._to_response(upstream)
            if offset + 1 < len(clients):
                self.failovers += 1
        status, exc = worst
        self.bad_gateway += 1
        return HttpResponse.for_error(
            HttpError(status, f"{type(exc).__name__}: {exc}"),
            keep_alive=True,
        )

    @do
    def _fanout(self, route, request):
        # Query every upstream of the route concurrently and merge; a
        # failed upstream becomes an error entry, not a failed request.
        self.fanouts += 1
        headers = self._forward_headers(request)
        handles = []
        for index, client in enumerate(route.clients):
            handle = yield spawn(
                self._fan_one(index, client, request, headers),
                name=f"{self.name}-fan-{index}",
            )
            handles.append(handle)
        results = yield join_all(handles)
        succeeded = [r for r in results if "error" not in r]
        if not succeeded:
            self.bad_gateway += 1
            return HttpResponse.for_error(
                HttpError(502, "every upstream failed"), keep_alive=True
            )
        body = json.dumps({
            "ok": len(succeeded),
            "failed": len(results) - len(succeeded),
            "results": results,
        }).encode()
        return HttpResponse(
            200, body=body, headers={"Content-Type": "application/json"}
        )

    @do
    def _fan_one(self, index, client, request, headers):
        # One upstream of a fan-out: its result entry, or its error.
        self.upstream_requests += 1
        try:
            upstream = yield client.request(
                request.method, request.target, request.body,
                headers=headers,
            )
        except _FAILOVER_ERRORS as exc:
            self.upstream_errors += 1
            return {"upstream": index, "error": type(exc).__name__}
        return {
            "upstream": index,
            "status": upstream.status,
            "body": upstream.body.decode("latin-1"),
        }

    # -- observability -------------------------------------------------
    def extra_stats(self) -> dict:
        """Numeric gateway counters for the cluster control snapshot."""
        pools = [client.pool for route in self.routes
                 for client in route.clients]
        out = {
            "gw_requests": self.requests,
            "gw_upstream_requests": self.upstream_requests,
            "gw_upstream_errors": self.upstream_errors,
            "gw_cache_hits": self.cache.hits,
            "gw_cache_entries": len(self.cache),
            "gw_coalesced": self.coalesced,
            "gw_inflight": len(self._inflight),
            "gw_fanouts": self.fanouts,
            "gw_failovers": self.failovers,
            "gw_bad_gateway": self.bad_gateway,
            "gw_not_found": self.not_found,
            "gw_pool_dials": sum(pool.dials for pool in pools),
            "gw_pool_leases": sum(pool.leases for pool in pools),
            "gw_pool_reuses": sum(pool.reuses for pool in pools),
            "gw_upstreams_down": sum(
                1 for pool in pools if pool.down
            ),
        }
        return out

    def close(self) -> M:
        """Close every upstream pool."""
        from ..core.monad import sequence_m
        return sequence_m([
            client.close()
            for route in self.routes for client in route.clients
        ])


def build_gateway(
    rt: Any,
    listener: Any,
    routes: list[dict],
    *,
    pool_size: int = 8,
    request_timeout: float = 5.0,
    connect_timeout: float = 2.0,
    idle_timeout: float | None = 30.0,
    probe_interval: float = 0.5,
    cache_bytes: int = 4 * 1024 * 1024,
    cache_ttl: float = 1.0,
    coalesce: bool = True,
    name: str = "gateway",
    **server_kwargs: Any,
) -> WebServer:
    """The gateway application on the layered stack.

    ``routes`` is declarative: a list of ``{"prefix": "/api",
    "upstreams": [(host, port), ...], "policy": "round_robin"|"fanout"}``
    dicts (upstream entries may also be ``"host:port"`` strings).  One
    pooled keep-alive :class:`~repro.http.client.HttpClient` is built
    per distinct upstream target — routes sharing an upstream share its
    pool — all riding the runtime's shared timer wheel (``rt.timers``)
    for lease, connect, and request deadlines.  Extra keyword arguments
    reach :class:`WebServer` (admission caps, parser limits...).
    """
    clients: dict[tuple, HttpClient] = {}

    def client_for(entry: Any) -> HttpClient:
        if isinstance(entry, str):
            host, _, port = entry.rpartition(":")
            entry = (host or "127.0.0.1", int(port))
        target = (entry[0], int(entry[1]))
        if target not in clients:
            clients[target] = HttpClient(
                rt.io, rt.timers, target,
                pool_size=pool_size,
                request_timeout=request_timeout,
                connect_timeout=connect_timeout,
                idle_timeout=idle_timeout,
                probe_interval=probe_interval,
                name=f"{name}-up-{len(clients)}",
            )
        return clients[target]

    table = [
        Route(
            spec["prefix"],
            [client_for(entry) for entry in spec["upstreams"]],
            policy=spec.get("policy", "round_robin"),
        )
        for spec in routes
    ]
    handler = GatewayHandler(
        table, cache_bytes=cache_bytes, cache_ttl=cache_ttl,
        coalesce=coalesce, name=name,
    )
    server = WebServer(
        rt.io,
        listener,
        EmptyFilesystem(),
        handler=handler,
        name=name,
        **server_kwargs,
    )
    server.gateway = handler
    server.extra_stats = handler.extra_stats
    return server
