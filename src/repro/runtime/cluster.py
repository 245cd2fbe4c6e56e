"""Multi-process sharded live serving — §4.4 taken past one process.

The paper scales its hybrid model across CPUs by running several
``worker_main`` event loops; :class:`~repro.core.smp.SmpScheduler` models
that inside one process.  Python's GIL means one process still serves live
traffic on one core, so the cluster replicates the *whole runtime* instead:
``N`` shard processes, each running its own :class:`LiveRuntime` event loop,
each with its own ``SO_REUSEPORT`` listener on one shared port.  The kernel
hashes incoming connections across the listeners, so shards share nothing —
no accept lock, no cross-process queue — which is the design NFork and
Continuation-Passing C demonstrate for thread-to-event systems on SMPs.

Layout:

* the **master** reserves the port (a bound, non-listening ``SO_REUSEPORT``
  socket, so ``port=0`` resolves once and respawned shards can rebind),
  forks shard processes, monitors them, and respawns crashed ones;
* each **shard** builds a runtime via :func:`build_runtime`, constructs its
  application through the caller's ``app_factory(ctx)``, and runs
  until told to stop;
* a **control protocol** — newline-delimited JSON over a per-shard
  ``socketpair`` — carries ``stats`` / ``stop`` / ``crash`` commands down
  and ``ready`` / ``stats`` / ``stopped`` events up.  The shard side is an
  ordinary monadic thread reading the control socket through ``rt.io``,
  so control traffic multiplexes with serving traffic on the same loop.

The application contract is
:class:`~repro.runtime.driver.ConnectionDriver`-shaped, and every app
builder returns a driver: ``app.main()`` returns the root monadic
computation (the accept loop), ``app.stats`` carries counters
(``connections``, ``requests``, ...), and ``app.stop()`` stops
accepting.  Any object with that surface clusters.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import multiprocessing
import os
import select
import signal
import socket
import threading
import time
from typing import Any, Callable

from ..core.do_notation import do
from ..core.syscalls import sys_sleep
from .live_runtime import LiveRuntime, make_listener
from .mesh import MeshNode

__all__ = ["AppContext", "ClusterConfig", "ClusterServer", "build_runtime"]

_CRASH_EXIT_CODE = 86  # distinguishes a commanded crash from a real one

#: How long the master waits for a forked shard's ``ready`` event.
READY_TIMEOUT = 10.0

#: Idle-link keepalive period for the mesh (seconds): each shard pings
#: client links that sent nothing for one interval, so a wedged peer
#: trips the write watchdog *before* real traffic blocks on it.
MESH_KEEPALIVE = 5.0

#: Longest a stopping shard waits for its app's drain push (seconds;
#: never less than the configured ``grace``).
DRAIN_CAP = 3.0


@dataclasses.dataclass
class ClusterConfig:
    """Everything a shard needs to build its runtime and listener."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0: master resolves an ephemeral port
    shards: int = 2
    respawn: bool = True
    grace: float = 0.25           # drain window after a stop command
    #: Shard-to-shard data plane: when on, every shard gets a mesh
    #: listener (one extra port, reserved by the master) and a
    #: :class:`~repro.runtime.mesh.MeshNode` dialed to every peer.
    mesh: bool = False
    #: Master-resolved mesh listener ports, one per shard index.  Shards
    #: learn the full address map from this at spawn.
    mesh_ports: tuple = ()
    #: Replication factor for replicated applications (e.g. the KV
    #: store's N-successor replication).
    replication: int = 1
    #: Write quorum for replicated applications (minimum replica acks
    #: before a write reports success).
    write_quorum: int = 1
    #: Cache front-end port (``None`` disables, ``0`` lets the master
    #: resolve an ephemeral one).  Like the serving port it is a single
    #: ``SO_REUSEPORT`` group every shard joins — any shard answers any
    #: key, the kernel spreads connections.  The shard's listener on it
    #: reaches the factory as ``ctx.cache_listener`` (the KV app mounts
    #: a :mod:`repro.cache` protocol on it).
    cache_port: int | None = None
    #: Cache dialect: ``"memcache"`` or ``"resp"``.
    cache_protocol: str = "memcache"
    #: Durability root for write-ahead-logging applications (each shard
    #: derives its own subdirectory, so one root serves the whole
    #: cluster and a respawned shard finds its log again).  ``None``
    #: disables.
    wal_dir: str | None = None
    #: WAL group-commit deadline (seconds): how long an acked write may
    #: wait for its batch fsync — larger values amortise the disk
    #: barrier over more writers at the cost of ack latency.
    wal_flush_interval: float = 0.005
    #: Flush immediately once this many records are pending.
    wal_group_max: int = 128


@dataclasses.dataclass
class AppContext:
    """Everything a shard hands its application factory — explicitly::

        def app_factory(ctx: AppContext):
            return build_kv(ctx=ctx)

    ``mesh``/``cache_listener`` are ``None`` unless the cluster was
    configured with them.  Application knobs (replication, cache
    dialect, durability) live on ``config``, the shard's resolved
    :class:`ClusterConfig`, so one factory serves any cluster shape.
    ``peers_up`` names the shards already serving when this one was
    spawned: at a clean start the shards before it (the master starts
    them in order), after a respawn or reload every other live one;
    ``None`` when unknown.
    """

    rt: Any
    listener: Any
    mesh: Any = None
    cache_listener: Any = None
    shard_index: int = 0
    config: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    peers_up: tuple[int, ...] | None = None


#: ``app_factory(ctx: AppContext) -> app`` — builds one shard's
#: application; the only factory contract (see :mod:`repro.api` for the
#: builders a factory calls).
AppFactory = Callable[[AppContext], Any]


def build_runtime() -> LiveRuntime:
    """One shard's runtime.

    ``uncaught="store"`` so a failure in one client thread is recorded, not
    fatal to the whole shard.
    """
    return LiveRuntime(uncaught="store")


# ----------------------------------------------------------------------
# Control-protocol plumbing (both sides).
# ----------------------------------------------------------------------
def _send_msg(sock: socket.socket, obj: dict) -> None:
    """Best-effort newline-framed JSON send (control messages are tiny)."""
    try:
        sock.sendall(json.dumps(obj).encode() + b"\n")
    except OSError:
        pass  # peer gone or buffer full: control traffic is advisory


def _parse_lines(buffer: bytearray) -> list[dict]:
    """Pop every complete JSON line from ``buffer``."""
    messages = []
    while True:
        newline = buffer.find(b"\n")
        if newline < 0:
            return messages
        line = bytes(buffer[:newline])
        del buffer[:newline + 1]
        try:
            messages.append(json.loads(line))
        except ValueError:
            continue  # torn line from a crashed shard


# ----------------------------------------------------------------------
# The shard process.
# ----------------------------------------------------------------------
def _worker_main(
    index: int,
    config: ClusterConfig,
    app_factory: AppFactory,
    ctrl: socket.socket,
    inherited_fds: tuple[int, ...] = (),
    peers_up: tuple[int, ...] | None = None,
) -> None:
    """Shard entry point (runs in the forked child)."""
    # Fork copied every master-side fd into this child: sibling control
    # sockets, our own control socket's master end, the port reservation.
    # Close them, or a master-side close would never read as EOF here and
    # control-channel shutdown would hang on fd refcounts.
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    # The master coordinates shutdown over the control socket; a terminal
    # Ctrl-C goes to the whole process group, and shards must outlive the
    # SIGINT long enough to drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    rt = build_runtime()
    listener = make_listener(config.host, config.port, reuse_port=True)
    mesh: MeshNode | None = None
    if config.mesh:
        # The master reserved one mesh port per shard; every shard learns
        # the whole address map here, at spawn.
        mesh_listener = make_listener(
            config.host, config.mesh_ports[index], reuse_port=True
        )
        peers = {
            peer: (config.host, port)
            for peer, port in enumerate(config.mesh_ports)
        }
        mesh = MeshNode(
            index, rt.io, mesh_listener, peers,
            # One deadline heap per shard: mesh call timeouts, write
            # watchdogs, keepalive ticks and the KV hint pump all share
            # the runtime's wheel.
            timers=rt.timers,
            keepalive_interval=MESH_KEEPALIVE,
        )
    cache_listener: socket.socket | None = None
    if config.cache_port is not None:
        cache_listener = make_listener(
            config.host, config.cache_port, reuse_port=True
        )
    app = app_factory(AppContext(
        rt=rt, listener=listener, mesh=mesh, cache_listener=cache_listener,
        shard_index=index, config=config, peers_up=peers_up,
    ))
    state = {"stop": False}
    ctrl.setblocking(False)

    def snapshot(event: str = "stats") -> dict:
        stats = getattr(app, "stats", None)
        reply = {
            "event": event,
            "index": index,
            "pid": os.getpid(),
            "accepted": getattr(stats, "connections", 0),
            "requests": getattr(stats, "requests", 0),
            "responses_ok": getattr(stats, "responses_ok", 0),
            "responses_err": getattr(stats, "responses_err", 0),
            "bytes_sent": getattr(stats, "bytes_sent", 0),
            # Overload surface: admitted-now / shed-so-far / admission cap,
            # so the master can report per-shard saturation.
            "active": getattr(stats, "active", 0),
            "shed": getattr(stats, "shed", 0),
            "capacity": getattr(app, "max_connections", None),
            # Event-loop overhead: cumulative epoll_ctl (or selector
            # register/modify/unregister) traffic on this shard's poller,
            # and the ``poll`` calls its loop made (those that could not
            # block counted apart: turns that ended with work still
            # ready).
            "poller": rt.poller.name,
            "poller_ctl": rt.poller.ctl_calls,
            "poller_polls": rt.poller.polls,
            "poller_zero_timeout_polls": rt.poller.zero_timeout_polls,
            # Egress syscall split: plain send() vs gathered sendmsg().
            # The hot-path bench divides these by responses to verify
            # the one-write-per-response property in situ.
            "io_write_calls": getattr(rt.backend, "write_calls", 0),
            "io_writev_calls": getattr(rt.backend, "writev_calls", 0),
            "queue_depth": len(rt.sched.ready),
            "live_threads": rt.sched.live_threads,
        }
        if mesh is not None:
            # Data-plane health rides the same control snapshot.
            reply["mesh"] = mesh.health()
        extra = getattr(app, "extra_stats", None)
        if callable(extra):
            # Application-level counters (e.g. the KV store's
            # owned/proxied split) — numeric values are aggregated by
            # the master.
            reply["app"] = extra()
        return reply

    def handle(message: dict) -> None:
        command = message.get("cmd")
        if command == "stats":
            # Echo the request's number: the master drops a reply that
            # arrives after its own call gave up on it.
            _send_msg(ctrl, dict(snapshot(), seq=message.get("seq")))
        elif command == "stop":
            state["stop"] = True
        elif command == "peer_up":
            # The master reports a peer shard respawned/reloaded.  Apps
            # that park state for downed peers (the KV store's hinted
            # handoff) expose ``on_peer_up(index) -> M`` and get a thread
            # on this shard's loop to replay it.
            hook = getattr(app, "on_peer_up", None)
            if callable(hook):
                try:
                    comp = hook(int(message.get("index", -1)))
                except Exception:
                    comp = None
                if comp is not None:
                    rt.spawn(comp, name=f"shard{index}-peer-up")
        elif command == "crash":
            os._exit(_CRASH_EXIT_CODE)  # chaos hook: fault-injection tests

    @do
    def control_loop():
        buffer = bytearray()
        while not state["stop"]:
            data = yield rt.io.read(ctrl, 4096)
            if not data:
                state["stop"] = True  # master closed its end
                break
            buffer.extend(data)
            for message in _parse_lines(buffer):
                handle(message)

    @do
    def watchdog(master_pid):
        # Belt and braces for a SIGKILLed master: daemonic children only
        # die with a *cleanly* exiting parent.
        while not state["stop"]:
            yield sys_sleep(0.5)
            if os.getppid() != master_pid:
                state["stop"] = True

    rt.spawn(app.main(), name=f"shard{index}-acceptor")
    if mesh is not None:
        rt.spawn(mesh.serve(), name=f"shard{index}-mesh")
    rt.spawn(control_loop(), name=f"shard{index}-control")
    rt.spawn(watchdog(os.getppid()), name=f"shard{index}-watchdog")
    _send_msg(ctrl, {
        "event": "ready", "index": index, "pid": os.getpid(),
        "port": listener.getsockname()[1],
    })
    rt.run(until=lambda: state["stop"])

    # Graceful stop: the listeners stop accepting, then the drain window,
    # then the mesh.  The mesh serves through the window because every
    # shard may be stopping at once: a peer's drain push must still find
    # it accepting and answering.
    if hasattr(app, "stop"):
        app.stop()
    drain = getattr(app, "drain", None)
    window = {"drained": not callable(drain), "grace": False, "cap": False}
    if callable(drain):
        # Replicated apps push their state to peers before exiting (a
        # rolling restart must not take the last live copy of a key
        # down with it).
        @do
        def _drain_app():
            try:
                yield drain()
            finally:
                window["drained"] = True

        rt.spawn(_drain_app(), name=f"shard{index}-drain")

    @do
    def drain_window():
        # In-flight responses get ``grace``; the push gets a wider
        # window, but the shard exits as soon as it finishes.  Both
        # deadlines are entries in the loop's heap, so the loop wakes
        # for them whatever else is armed.
        yield sys_sleep(config.grace)
        window["grace"] = True
        yield sys_sleep(max(0.0, DRAIN_CAP - config.grace))
        window["cap"] = True

    rt.spawn(drain_window(), name=f"shard{index}-drain-window")
    rt.run(until=lambda: window["grace"]
           and (window["drained"] or window["cap"]))
    _send_msg(ctrl, snapshot(event="stopped"))
    if mesh is not None:
        mesh.stop()
    mesh_listener = mesh.listener if mesh is not None else None
    for sock in (listener, cache_listener, mesh_listener):
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
    rt.shutdown()


# ----------------------------------------------------------------------
# The master.
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Master-side record of one shard: process + control socket."""

    __slots__ = ("index", "process", "sock", "buffer")

    def __init__(self, index: int, process: Any, sock: socket.socket) -> None:
        self.index = index
        self.process = process
        self.sock = sock
        self.buffer = bytearray()

    def read_messages(self, timeout: float) -> list[dict]:
        """All control messages arriving within ``timeout`` seconds.

        ``timeout=0`` still drains whatever already sits in the socket
        buffer (a late caller must not lose replies that have arrived).
        """
        deadline = time.monotonic() + timeout
        messages = _parse_lines(self.buffer)
        while not messages:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                readable, _, _ = select.select([self.sock], [], [], remaining)
            except (OSError, ValueError):
                # ValueError: the socket was closed under us (fileno -1)
                # — e.g. stats() racing a reload()'s handle.close().
                break
            if not readable:
                break
            try:
                data = self.sock.recv(65536)
            except (OSError, ValueError):
                break
            if not data:
                break
            self.buffer.extend(data)
            messages = _parse_lines(self.buffer)
        return messages

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ClusterServer:
    """N shard processes serving one port, with respawn and stats.

    Usage::

        cluster = ClusterServer(app_factory, shards=4)
        cluster.start()
        ... cluster.port, cluster.stats() ...
        cluster.stop()

    ``app_factory`` runs *in the shard process* (after fork), so it may
    close over unpicklable state.
    """

    def __init__(
        self,
        app_factory: AppFactory,
        config: ClusterConfig | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        if config.shards < 1:
            raise ValueError("shards must be >= 1")
        try:
            # Checked here, in the master: in the forked child a wrong
            # arity surfaces only as "shard 0 died during startup".
            inspect.signature(app_factory).bind(None)
        except ValueError:
            pass  # no introspectable signature: the call itself decides
        except TypeError as exc:
            raise TypeError(
                f"app_factory must be callable as app_factory(ctx) with "
                f"the shard's AppContext (build the app with the "
                f"repro.api builders, e.g. build_server(ctx=ctx)); "
                f"{app_factory!r}: {exc}"
            ) from None
        self.config = config
        self.app_factory = app_factory
        self._ctx = multiprocessing.get_context("fork")
        #: Port reservations the master holds across respawns: the
        #: serving port, the cache port if any, then one mesh port per
        #: shard.
        self._reserved: list[socket.socket] = []
        self._workers: list[_WorkerHandle] = []
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()  # serializes stats() readers
        self._stats_seq = 0  # numbers each stats() request
        self._stopping = False
        self._monitor: threading.Thread | None = None
        #: Number of crashed shards replaced by the monitor.
        self.respawns = 0
        self.port: int | None = None
        #: Resolved cache front-end port (None when no cache_port set).
        self.cache_port: int | None = None

    # -- lifecycle -----------------------------------------------------
    def _reserve(self, port: int) -> int:
        """Bind a never-listening ``SO_REUSEPORT`` socket and return its
        port: it reserves the port for (re)binding shards without joining
        the kernel's listener group (a non-listening socket receives no
        connections).  The socket joins ``_reserved`` before it binds, so
        a failing bind leaves every socket for ``stop()`` to close."""
        reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._reserved.append(reservation)
        reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reservation.bind((self.config.host, port))
        return reservation.getsockname()[1]

    def start(self) -> "ClusterServer":
        """Reserve the port(s), fork every shard, wait until all accept."""
        if self._workers:
            raise RuntimeError("cluster already started")
        self._stopping = False
        if self.config.mesh:
            wanted = self.config.mesh_ports or (0,) * self.config.shards
            if len(wanted) != self.config.shards:
                raise ValueError(
                    f"mesh_ports must name one port per shard "
                    f"({len(wanted)} != {self.config.shards})"
                )
        mesh_ports = self.config.mesh_ports
        try:
            self.port = self._reserve(self.config.port)
            if self.config.cache_port is not None:
                # The cache front-end port is one SO_REUSEPORT group
                # shared by all shards, exactly like the serving port.
                self.cache_port = self._reserve(self.config.cache_port)
            if self.config.mesh:
                # One data-plane port per shard, so respawned/reloaded
                # shards rebind their mesh listeners.
                mesh_ports = tuple(self._reserve(port) for port in wanted)
        except BaseException:
            self.stop(timeout=1.0)
            raise
        self.config = dataclasses.replace(
            self.config, port=self.port, cache_port=self.cache_port,
            mesh_ports=mesh_ports,
        )
        try:
            with self._lock:
                for index in range(self.config.shards):
                    handle = self._spawn_worker(index)
                    self._workers.append(handle)  # before ready: stop()
                    self._await_ready(handle)     # must reap a failed one
        except BaseException:
            # A shard failed to come up: don't leak the ones that did.
            self.stop(timeout=1.0)
            raise
        if self.config.respawn:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _spawn_worker(self, index: int) -> _WorkerHandle:
        parent_sock, child_sock = socket.socketpair()
        # Master-side fds the child must drop post-fork: sibling control
        # sockets, this worker's own master end, and the port reservations
        # (the master alone holds the ports across respawns).
        inherited = [parent_sock.fileno()]
        inherited += [handle.sock.fileno() for handle in self._workers]
        inherited += [sock.fileno() for sock in self._reserved]
        peers_up = tuple(handle.index for handle in self._workers
                         if handle.index != index
                         and handle.process.is_alive())
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.config, self.app_factory, child_sock,
                  tuple(fd for fd in inherited if fd >= 0), peers_up),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        return _WorkerHandle(index, process, parent_sock)

    def _await_ready(self, handle: _WorkerHandle) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"shard {handle.index} not ready within "
                    f"{READY_TIMEOUT}s"
                )
            for message in handle.read_messages(min(remaining, 0.2)):
                if message.get("event") == "ready":
                    return
            if not handle.process.is_alive():
                raise RuntimeError(
                    f"shard {handle.index} died during startup "
                    f"(exit code {handle.process.exitcode})"
                )

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop command, drain, join, then terminate."""
        self._stopping = True
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
            self._monitor = None
        with self._lock:
            workers, self._workers = self._workers, []
        for handle in workers:
            _send_msg(handle.sock, {"cmd": "stop"})
        deadline = time.monotonic() + timeout
        for handle in workers:
            self._retire(handle, max(0.1, deadline - time.monotonic()))
        reserved, self._reserved = self._reserved, []
        for sock in reserved:
            sock.close()

    @staticmethod
    def _retire(handle: _WorkerHandle, timeout: float) -> None:
        """Give a shard told to stop ``timeout`` seconds to exit, then
        terminate it; close its control socket."""
        handle.process.join(timeout=timeout)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        handle.close()

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- monitoring ----------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping:
            try:
                self.poll()
            except Exception:
                # Transient failure respawning (fd pressure, fork limits):
                # the monitor must survive to retry on the next tick.
                pass
            time.sleep(0.05)

    def _replace_worker(self, slot: int) -> _WorkerHandle | None:
        """Spawn and await a replacement for the (closed) worker at
        ``slot``; on failure clean the replacement up and return None.
        Caller holds ``_lock``."""
        handle = self._workers[slot]
        replacement = self._spawn_worker(handle.index)
        try:
            self._await_ready(replacement)
        except RuntimeError:
            if replacement.process.is_alive():
                replacement.process.terminate()
            replacement.close()
            return None
        self._workers[slot] = replacement
        return replacement

    def _notify_peer_up(self, index: int) -> None:
        """Tell every other shard that ``index`` came back (respawn or
        reload), so state parked for it — hinted-handoff writes — can
        replay promptly instead of waiting for a retry tick."""
        with self._lock:
            for handle in self._workers:
                if handle.index != index:
                    _send_msg(handle.sock,
                              {"cmd": "peer_up", "index": index})

    def poll(self) -> None:
        """Detect dead shards and respawn them (monitor thread's body)."""
        revived = []
        with self._lock:
            for slot, handle in enumerate(self._workers):
                if self._stopping or handle.process.is_alive():
                    continue
                handle.close()
                if self._replace_worker(slot) is None:
                    continue  # retried on the next poll
                self.respawns += 1
                revived.append(handle.index)
        for index in revived:
            self._notify_peer_up(index)

    def worker_pids(self) -> list[int | None]:
        """Current shard pids, index-ordered (None for a dead shard)."""
        with self._lock:
            return [
                handle.process.pid if handle.process.is_alive() else None
                for handle in self._workers
            ]

    # -- control commands ----------------------------------------------
    def stats(self, timeout: float = 2.0) -> dict:
        """Per-shard counters plus an aggregate, via the control pipes.

        The reply wait runs outside the cluster lock so a slow shard
        cannot stall crash respawn; a shard whose budget ran out still
        gets a zero-timeout drain of already-arrived replies.
        """
        with self._stats_lock:
            # A reply that missed an earlier call's deadline is still in
            # the pipe: only one echoing this call's number answers it.
            self._stats_seq += 1
            seq = self._stats_seq
            with self._lock:
                handles = list(self._workers)
                for handle in handles:
                    _send_msg(handle.sock, {"cmd": "stats", "seq": seq})
            per_worker: list[dict | None] = []
            deadline = time.monotonic() + timeout
            for handle in handles:
                reply = None
                while reply is None:
                    remaining = max(0.0, deadline - time.monotonic())
                    arrived = handle.read_messages(remaining)
                    for message in arrived:
                        if (message.get("event") == "stats"
                                and message.pop("seq", None) == seq):
                            reply = message
                            break
                    if reply is None and not arrived:
                        if remaining == 0.0 or not handle.process.is_alive():
                            break
                per_worker.append(reply)
        answered = [reply for reply in per_worker if reply is not None]
        for reply in answered:
            capacity = reply.get("capacity")
            reply["saturation"] = (
                reply.get("active", 0) / capacity if capacity else None
            )
        aggregate = {
            key: sum(reply.get(key, 0) for reply in answered)
            for key in ("accepted", "requests", "responses_ok",
                        "responses_err", "bytes_sent", "queue_depth",
                        "active", "shed", "io_write_calls",
                        "io_writev_calls", "poller_ctl", "poller_polls",
                        "poller_zero_timeout_polls")
        }
        saturations = [
            reply["saturation"] for reply in answered
            if reply["saturation"] is not None
        ]
        aggregate["saturation_max"] = max(saturations, default=None)
        aggregate["workers_reporting"] = len(answered)
        # Summing these cross-shard is nonsense: connectivity is a
        # gauge, the max_* fields high-water marks (merged as max).
        gauges = ("peers", "connected_peers", "max_frames_per_flush",
                  "cache_max_responses_per_batch", "wal_group_max")
        for section in ("mesh", "app"):
            # Cross-shard sums of the data-plane and application
            # counters (each shard reports its own dict of numbers).
            sections = [r[section] for r in answered if section in r]
            if sections:
                merged: dict = {}
                for counters in sections:
                    for key, value in counters.items():
                        if key not in gauges and isinstance(
                            value, (int, float)
                        ):
                            merged[key] = merged.get(key, 0) + value
                if section == "mesh":
                    # Health gauge: the worst-connected shard (every
                    # shard should reach all its peers).
                    merged["connected_peers_min"] = min(
                        counters.get("connected_peers", 0)
                        for counters in sections
                    )
                    merged["max_frames_per_flush"] = max(
                        (counters.get("max_frames_per_flush", 0)
                         for counters in sections),
                        default=0,
                    )
                if section == "app":
                    # App-side high-water marks: merged as max, like the
                    # mesh's flush batching gauge.
                    for mark in ("cache_max_responses_per_batch",
                                 "wal_group_max"):
                        if any(mark in counters for counters in sections):
                            merged[mark] = max(
                                counters.get(mark, 0)
                                for counters in sections
                            )
                aggregate[section] = merged
        return {"workers": per_worker, "aggregate": aggregate}

    # -- zero-downtime rolling restart ---------------------------------
    def reload(self, timeout: float = 5.0) -> list[int]:
        """Roll every shard, one at a time, without dropping the port.

        Each shard gets a graceful ``stop`` (drain window included) and a
        replacement is spawned and awaited before the next shard rolls —
        so all other shards keep serving throughout and the cluster never
        has fewer than ``shards - 1`` listeners.  The port reservations
        (serving, cache and mesh ports) stay bound in the master across the
        whole roll.  Returns the new pids, index-ordered.

        If a replacement fails to come up the roll stops with
        ``RuntimeError`` and that slot is left dead; with ``respawn``
        enabled (the default) the monitor repairs it on its next tick,
        otherwise the cluster keeps serving on the remaining shards.
        """
        with self._lock:
            slots = list(range(len(self._workers)))
        for slot in slots:
            with self._lock:
                if self._stopping:
                    break
                handle = self._workers[slot]
                _send_msg(handle.sock, {"cmd": "stop"})
                self._retire(handle, timeout)
                if self._replace_worker(slot) is None:
                    raise RuntimeError(
                        f"shard {handle.index} failed to come back "
                        f"during reload"
                    )
            self._notify_peer_up(handle.index)
        return [pid for pid in self.worker_pids() if pid is not None]

    def crash_worker(self, index: int) -> None:
        """Fault injection: command one shard to die (tests the respawn
        path end to end)."""
        with self._lock:
            for handle in self._workers:
                if handle.index == index:
                    _send_msg(handle.sock, {"cmd": "crash"})
                    return
        raise IndexError(f"no shard with index {index}")
