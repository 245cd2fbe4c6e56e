"""Blocking thread synchronization as scheduler extensions (§4.7).

The paper represents a mutex as "a memory reference that points to a pair
``(l, q)`` where ``l`` indicates whether the mutex is locked, and ``q`` is a
linked list of thread traces blocking on this mutex.  Locking a locked mutex
adds the trace to the waiting queue inside the mutex; unlocking a mutex with
a non-empty waiting queue dispatches the next available trace to the
scheduler's ready queue."  :class:`Mutex` below is exactly that, with FIFO
direct handoff.  :class:`MVar` follows Concurrent Haskell.  The remaining
primitives (:class:`Channel`, :class:`BoundedChannel`, :class:`Semaphore`,
:class:`RWLock`, :class:`WaitGroup`) use the generic ``SYS_SYNC`` extension
node, demonstrating the "programmer can define their own synchronization
primitives as system calls" path.

All operations return :class:`~repro.core.monad.M` computations; use them
with ``yield`` inside ``@do`` threads.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .exceptions import ReproError
from .monad import M
from .scheduler import Scheduler, TCB
from .syscalls import sys_finally, sys_mutex_op, sys_mvar_op
from .trace import SysMVar, SysMutex, SysSync, Thunk, Trace

__all__ = [
    "Mutex",
    "MVar",
    "Channel",
    "BoundedChannel",
    "Semaphore",
    "RWLock",
    "WaitGroup",
    "SyncError",
]


class SyncError(ReproError):
    """Misuse of a synchronization primitive (e.g. double release)."""


def _value_thunk(cont: Callable[[Any], Trace], value: Any) -> Thunk:
    return lambda: cont(value)


class Mutex:
    """A FIFO mutex: the paper's ``(l, q)`` pair.

    Release hands the lock directly to the first waiter, so the lock is
    never observed free while threads are queued (no barging).
    """

    __slots__ = ("locked", "queue", "name", "owner")

    def __init__(self, name: str | None = None) -> None:
        self.locked = False
        self.queue: deque = deque()
        self.name = name
        self.owner: int | None = None

    def acquire(self) -> M:
        """Block until the mutex is held by the calling thread."""
        return sys_mutex_op(self, "acquire")

    def try_acquire(self) -> M:
        """Resume with ``True`` if the lock was taken, ``False`` otherwise."""
        return sys_mutex_op(self, "try_acquire")

    def release(self) -> M:
        """Release the mutex; throws :class:`SyncError` if it is not held."""
        return sys_mutex_op(self, "release")

    def with_lock(self, comp: M) -> M:
        """Run ``comp`` holding the mutex, releasing on success or failure."""
        return self.acquire().then(sys_finally(comp, self.release()))

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "acquire":
            if not self.locked:
                self.locked = True
                self.owner = tcb.tid
                return _value_thunk(cont, None)
            self.queue.append((tcb, cont))
            tcb.state = "blocked"
            return None
        if op == "try_acquire":
            if not self.locked:
                self.locked = True
                self.owner = tcb.tid
                return _value_thunk(cont, True)
            return _value_thunk(cont, False)
        if op == "release":
            if not self.locked:
                return _raise_thunk(SyncError("release of unlocked mutex"))
            if self.queue:
                waiter, waiter_cont = self.queue.popleft()
                self.owner = waiter.tid
                sched.resume_value(waiter, waiter_cont, None)
            else:
                self.locked = False
                self.owner = None
            return _value_thunk(cont, None)
        return _raise_thunk(SyncError(f"unknown mutex op {op!r}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked else "free"
        return f"<Mutex {self.name or ''} {state} waiters={len(self.queue)}>"


class MVar:
    """A Concurrent Haskell MVar: a box that is either full or empty.

    ``take`` blocks while empty; ``put`` blocks while full.  Fairness is
    FIFO on both sides, with direct handoff between takers and putters.
    """

    __slots__ = ("_full", "_value", "takers", "putters", "name")

    _EMPTY = object()

    def __init__(self, value: Any = _EMPTY, name: str | None = None) -> None:
        self._value = value
        self._full = value is not MVar._EMPTY
        self.takers: deque = deque()
        self.putters: deque = deque()
        self.name = name

    @property
    def full(self) -> bool:
        """Whether the box currently holds a value."""
        return self._full

    def take(self) -> M:
        """Remove and return the value, blocking while empty."""
        return sys_mvar_op(self, "take")

    def put(self, value: Any) -> M:
        """Fill the box with ``value``, blocking while full."""
        return sys_mvar_op(self, "put", value)

    def read(self) -> M:
        """Return the value without removing it, blocking while empty."""
        return sys_mvar_op(self, "read")

    def try_take(self) -> M:
        """Resume with the value, or ``None`` if the box was empty."""
        return sys_mvar_op(self, "try_take")

    def try_put(self, value: Any) -> M:
        """Resume with ``True`` if the value was stored, else ``False``."""
        return sys_mvar_op(self, "try_put", value)

    def modify(self, func: Callable[[Any], Any]) -> M:
        """Atomically replace the contents with ``func(old)``; resume with
        the new value.  (Atomic because take+put cannot interleave with
        another take while the box is empty.)"""
        return self.take().bind(lambda old: self._put_pure(func(old)))

    def _put_pure(self, new: Any) -> M:
        return self.put(new).fmap(lambda _: new)

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "take":
            if self._full:
                taken = self._value
                self._refill_from_putter(sched)
                return _value_thunk(cont, taken)
            self.takers.append((tcb, cont, False))
            tcb.state = "blocked"
            return None
        if op == "read":
            if self._full:
                return _value_thunk(cont, self._value)
            self.takers.append((tcb, cont, True))
            tcb.state = "blocked"
            return None
        if op == "put":
            if not self._full:
                self._deliver(sched, value)
                return _value_thunk(cont, None)
            self.putters.append((tcb, cont, value))
            tcb.state = "blocked"
            return None
        if op == "try_take":
            if not self._full:
                return _value_thunk(cont, None)
            taken = self._value
            self._refill_from_putter(sched)
            return _value_thunk(cont, taken)
        if op == "try_put":
            if self._full:
                return _value_thunk(cont, False)
            self._deliver(sched, value)
            return _value_thunk(cont, True)
        return _raise_thunk(SyncError(f"unknown MVar op {op!r}"))

    def _deliver(self, sched: Scheduler, value: Any) -> None:
        """Store ``value``, waking readers and at most one taker."""
        # Wake all blocked readers first (they do not consume the value).
        while self.takers and self.takers[0][2]:
            reader, reader_cont, _is_read = self.takers.popleft()
            sched.resume_value(reader, reader_cont, value)
        if self.takers:
            taker, taker_cont, _is_read = self.takers.popleft()
            sched.resume_value(taker, taker_cont, value)
            return
        self._value = value
        self._full = True

    def _refill_from_putter(self, sched: Scheduler) -> None:
        """After a take: hand the box to the first queued putter, if any."""
        if self.putters:
            putter, putter_cont, pending = self.putters.popleft()
            self._value = pending
            sched.resume_value(putter, putter_cont, None)
            # Box stays full with the putter's value; wake queued readers.
            while self.takers and self.takers[0][2]:
                reader, reader_cont, _is_read = self.takers.popleft()
                sched.resume_value(reader, reader_cont, pending)
        else:
            self._value = MVar._EMPTY
            self._full = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "full" if self._full else "empty"
        return f"<MVar {self.name or ''} {state}>"


class _SyncPrimitive:
    """Base for primitives using the generic ``SYS_SYNC`` node."""

    __slots__ = ()

    def _op(self, op: str, value: Any = None) -> M:
        return M(lambda c: SysSync(self, op, value, c))

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:  # pragma: no cover - overridden
        raise NotImplementedError


class Channel(_SyncPrimitive):
    """An unbounded FIFO channel (Haskell's ``Chan``): writes never block."""

    __slots__ = ("items", "readers", "name")

    def __init__(self, name: str | None = None) -> None:
        self.items: deque = deque()
        self.readers: deque = deque()
        self.name = name

    def write(self, value: Any) -> M:
        """Enqueue ``value``; never blocks."""
        return self._op("write", value)

    def read(self) -> M:
        """Dequeue the next value, blocking while the channel is empty."""
        return self._op("read")

    def try_read(self) -> M:
        """Resume with ``(True, value)`` or ``(False, None)``."""
        return self._op("try_read")

    def __len__(self) -> int:
        return len(self.items)

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "write":
            if self.readers:
                reader, reader_cont = self.readers.popleft()
                sched.resume_value(reader, reader_cont, value)
            else:
                self.items.append(value)
            return _value_thunk(cont, None)
        if op == "read":
            if self.items:
                return _value_thunk(cont, self.items.popleft())
            self.readers.append((tcb, cont))
            tcb.state = "blocked"
            return None
        if op == "try_read":
            if self.items:
                return _value_thunk(cont, (True, self.items.popleft()))
            return _value_thunk(cont, (False, None))
        return _raise_thunk(SyncError(f"unknown Channel op {op!r}"))


class BoundedChannel(_SyncPrimitive):
    """A bounded FIFO channel: writers block while the buffer is full."""

    __slots__ = ("capacity", "items", "readers", "writers", "name")

    def __init__(self, capacity: int, name: str | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.items: deque = deque()
        self.readers: deque = deque()
        self.writers: deque = deque()
        self.name = name

    def write(self, value: Any) -> M:
        """Enqueue ``value``, blocking while the buffer is full."""
        return self._op("write", value)

    def read(self) -> M:
        """Dequeue the next value, blocking while the buffer is empty."""
        return self._op("read")

    def __len__(self) -> int:
        return len(self.items)

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "write":
            if self.readers:
                reader, reader_cont = self.readers.popleft()
                sched.resume_value(reader, reader_cont, value)
                return _value_thunk(cont, None)
            if len(self.items) < self.capacity:
                self.items.append(value)
                return _value_thunk(cont, None)
            self.writers.append((tcb, cont, value))
            tcb.state = "blocked"
            return None
        if op == "read":
            if self.items:
                item = self.items.popleft()
                if self.writers:
                    writer, writer_cont, pending = self.writers.popleft()
                    self.items.append(pending)
                    sched.resume_value(writer, writer_cont, None)
                return _value_thunk(cont, item)
            if self.writers:
                # capacity buffer empty but writers queued (capacity == 0
                # cannot happen; this covers direct handoff after drains).
                writer, writer_cont, pending = self.writers.popleft()
                sched.resume_value(writer, writer_cont, None)
                return _value_thunk(cont, pending)
            self.readers.append((tcb, cont))
            tcb.state = "blocked"
            return None
        return _raise_thunk(SyncError(f"unknown BoundedChannel op {op!r}"))


class Semaphore(_SyncPrimitive):
    """A counting semaphore with FIFO wakeup."""

    __slots__ = ("count", "waiters", "name")

    def __init__(self, count: int = 1, name: str | None = None) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = count
        self.waiters: deque = deque()
        self.name = name

    def acquire(self) -> M:
        """Decrement the counter, blocking while it is zero."""
        return self._op("acquire")

    def release(self) -> M:
        """Increment the counter, waking one waiter if any."""
        return self._op("release")

    def with_permit(self, comp: M) -> M:
        """Run ``comp`` holding one permit, releasing on success or failure."""
        return self.acquire().then(sys_finally(comp, self.release()))

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        _value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "acquire":
            if self.count > 0:
                self.count -= 1
                return _value_thunk(cont, None)
            self.waiters.append((tcb, cont))
            tcb.state = "blocked"
            return None
        if op == "release":
            if self.waiters:
                waiter, waiter_cont = self.waiters.popleft()
                sched.resume_value(waiter, waiter_cont, None)
            else:
                self.count += 1
            return _value_thunk(cont, None)
        return _raise_thunk(SyncError(f"unknown Semaphore op {op!r}"))


class RWLock(_SyncPrimitive):
    """A writer-preferring readers/writer lock."""

    __slots__ = ("readers_active", "writer_active", "read_waiters",
                 "write_waiters", "name")

    def __init__(self, name: str | None = None) -> None:
        self.readers_active = 0
        self.writer_active = False
        self.read_waiters: deque = deque()
        self.write_waiters: deque = deque()
        self.name = name

    def acquire_read(self) -> M:
        """Take a shared lock; blocks while a writer holds or waits."""
        return self._op("acquire_read")

    def release_read(self) -> M:
        """Drop a shared lock."""
        return self._op("release_read")

    def acquire_write(self) -> M:
        """Take the exclusive lock; blocks while any lock is held."""
        return self._op("acquire_write")

    def release_write(self) -> M:
        """Drop the exclusive lock, preferring queued writers."""
        return self._op("release_write")

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        _value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "acquire_read":
            if not self.writer_active and not self.write_waiters:
                self.readers_active += 1
                return _value_thunk(cont, None)
            self.read_waiters.append((tcb, cont))
            tcb.state = "blocked"
            return None
        if op == "release_read":
            if self.readers_active <= 0:
                return _raise_thunk(SyncError("release_read without lock"))
            self.readers_active -= 1
            if self.readers_active == 0:
                self._promote(sched)
            return _value_thunk(cont, None)
        if op == "acquire_write":
            if not self.writer_active and self.readers_active == 0:
                self.writer_active = True
                return _value_thunk(cont, None)
            self.write_waiters.append((tcb, cont))
            tcb.state = "blocked"
            return None
        if op == "release_write":
            if not self.writer_active:
                return _raise_thunk(SyncError("release_write without lock"))
            self.writer_active = False
            self._promote(sched)
            return _value_thunk(cont, None)
        return _raise_thunk(SyncError(f"unknown RWLock op {op!r}"))

    def _promote(self, sched: Scheduler) -> None:
        """Wake the next writer, or every queued reader."""
        if self.write_waiters:
            writer, writer_cont = self.write_waiters.popleft()
            self.writer_active = True
            sched.resume_value(writer, writer_cont, None)
            return
        while self.read_waiters:
            reader, reader_cont = self.read_waiters.popleft()
            self.readers_active += 1
            sched.resume_value(reader, reader_cont, None)


class WaitGroup(_SyncPrimitive):
    """Wait for a collection of tasks: ``add``, ``done``, ``wait``."""

    __slots__ = ("count", "waiters", "name")

    def __init__(self, count: int = 0, name: str | None = None) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = count
        self.waiters: deque = deque()
        self.name = name

    def add(self, n: int = 1) -> M:
        """Add ``n`` outstanding tasks."""
        return self._op("add", n)

    def done(self) -> M:
        """Mark one task complete, waking waiters when the count hits zero."""
        return self._op("add", -1)

    def wait(self) -> M:
        """Block until the outstanding count reaches zero."""
        return self._op("wait")

    def handle(
        self,
        sched: Scheduler,
        tcb: TCB,
        op: str,
        value: Any,
        cont: Callable[[Any], Trace],
    ) -> Thunk | None:
        if op == "add":
            self.count += value
            if self.count < 0:
                return _raise_thunk(SyncError("WaitGroup count went negative"))
            if self.count == 0:
                while self.waiters:
                    waiter, waiter_cont = self.waiters.popleft()
                    sched.resume_value(waiter, waiter_cont, None)
            return _value_thunk(cont, None)
        if op == "wait":
            if self.count == 0:
                return _value_thunk(cont, None)
            self.waiters.append((tcb, cont))
            tcb.state = "blocked"
            return None
        return _raise_thunk(SyncError(f"unknown WaitGroup op {op!r}"))


def _raise_thunk(exc: BaseException) -> Thunk:
    from .trace import SysThrow

    return lambda: SysThrow(exc)


# ----------------------------------------------------------------------
# Default scheduler handlers
# ----------------------------------------------------------------------
def _handle_mutex(sched: Scheduler, tcb: TCB, node: SysMutex) -> Thunk | None:
    return node.mutex.handle(sched, tcb, node.op, node.cont)


def _handle_mvar(sched: Scheduler, tcb: TCB, node: SysMVar) -> Thunk | None:
    return node.mvar.handle(sched, tcb, node.op, node.value, node.cont)


def _handle_sync(sched: Scheduler, tcb: TCB, node: SysSync) -> Thunk | None:
    return node.primitive.handle(sched, tcb, node.op, node.value, node.cont)


Scheduler.default_handlers[SysMutex] = _handle_mutex
Scheduler.default_handlers[SysMVar] = _handle_mvar
Scheduler.default_handlers[SysSync] = _handle_sync
