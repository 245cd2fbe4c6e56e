"""Blocking thread synchronization as library system calls (§4.7).

The paper represents a mutex as "a memory reference that points to a pair
``(l, q)`` where ``l`` indicates whether the mutex is locked, and ``q`` is a
linked list of thread traces blocking on this mutex.  Locking a locked mutex
adds the trace to the waiting queue inside the mutex; unlocking a mutex with
a non-empty waiting queue dispatches the next available trace to the
scheduler's ready queue."  :class:`Mutex` below is exactly that, with FIFO
direct handoff.  :class:`MVar` follows Concurrent Haskell;
:class:`Channel`, :class:`BoundedChannel`, :class:`Semaphore`,
:class:`RWLock` and :class:`WaitGroup` complete the set.

Each operation is one :class:`~repro.core.trace.SysCall` node naming the
method that interprets it: ``Mutex.acquire()`` is
``sys_call(self._acquire)``, and the scheduler calls
``self._acquire(sched, tcb, arg, cont)``, which returns the thread's next
step or parks the thread on the primitive's own queue.  That is the
paper's "the programmer can define their own synchronization primitives
as system calls" — nothing is registered with the scheduler.

All operations return :class:`~repro.core.monad.M` computations; use them
with ``yield`` inside ``@do`` threads.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .exceptions import ReproError
from .monad import M
from .scheduler import Scheduler, TCB
from .syscalls import sys_call, sys_finally, sys_throw
from .trace import Cont, SysThrow, Thunk

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


def _value_thunk(cont: Cont, value: Any) -> Thunk:
    return lambda: cont(value)


def _park(tcb: TCB, queue: deque, entry: tuple) -> None:
    """Block ``tcb`` on ``queue``; whoever pops ``entry`` resumes it."""
    queue.append(entry)
    tcb.state = "blocked"


class Mutex:
    """A FIFO mutex: the paper's ``(l, q)`` pair.

    Release hands the lock directly to the first waiter, so the lock is
    never observed free while threads are queued (no barging).
    """

    __slots__ = ("locked", "queue", "name")

    def __init__(self, name: str | None = None) -> None:
        self.locked = False
        self.queue: deque = deque()
        self.name = name

    def acquire(self) -> M:
        """Block until the mutex is held by the calling thread."""
        return sys_call(self._acquire)

    def try_acquire(self) -> M:
        """Resume with ``True`` if the lock was taken, ``False`` otherwise."""
        return sys_call(self._try_acquire)

    def release(self) -> M:
        """Release the mutex; throws :class:`SyncError` if it is not held."""
        return sys_call(self._release)

    def with_lock(self, comp: M) -> M:
        """Run ``comp`` holding the mutex, releasing on success or failure."""
        return self.acquire().then(sys_finally(comp, self.release()))

    def _acquire(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if not self.locked:
            self.locked = True
            return _value_thunk(cont, None)
        return _park(tcb, self.queue, (tcb, cont))

    def _try_acquire(self, _sched: Scheduler, _tcb: TCB, _arg: Any, cont: Cont):
        if self.locked:
            return _value_thunk(cont, False)
        self.locked = True
        return _value_thunk(cont, True)

    def _release(self, sched: Scheduler, _tcb: TCB, _arg: Any, cont: Cont):
        if not self.locked:
            return SysThrow(SyncError("release of unlocked mutex"))
        if self.queue:
            waiter, waiter_cont = self.queue.popleft()
            sched.resume_value(waiter, waiter_cont, None)
        else:
            self.locked = False
        return _value_thunk(cont, None)

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
        return sys_call(self._take)

    def put(self, value: Any) -> M:
        """Fill the box with ``value``, blocking while full."""
        return sys_call(self._put, value)

    def read(self) -> M:
        """Return the value without removing it, blocking while empty."""
        return sys_call(self._read)

    def try_take(self) -> M:
        """Resume with the value, or ``None`` if the box was empty."""
        return sys_call(self._try_take)

    def try_put(self, value: Any) -> M:
        """Resume with ``True`` if the value was stored, else ``False``."""
        return sys_call(self._try_put, value)

    def modify(self, func: Callable[[Any], Any]) -> M:
        """Atomically replace the contents with ``func(old)``; resume with
        the new value.  (Atomic because take+put cannot interleave with
        another take while the box is empty.)  If ``func`` raises, the old
        value goes back in the box before the exception propagates, as in
        Haskell's ``modifyMVar_`` — later takers are never stranded."""

        def update(old: Any) -> M:
            try:
                new = func(old)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                return self.put(old).then(sys_throw(exc))
            return self.put(new).fmap(lambda _: new)

        return self.take().bind(update)

    def _take(self, sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if not self._full:
            return _park(tcb, self.takers, (tcb, cont, False))
        taken = self._value
        self._refill_from_putter(sched)
        return _value_thunk(cont, taken)

    def _read(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if not self._full:
            return _park(tcb, self.takers, (tcb, cont, True))
        return _value_thunk(cont, self._value)

    def _put(self, sched: Scheduler, tcb: TCB, value: Any, cont: Cont):
        if self._full:
            return _park(tcb, self.putters, (tcb, cont, value))
        self._deliver(sched, value)
        return _value_thunk(cont, None)

    def _try_take(self, sched: Scheduler, tcb: TCB, arg: Any, cont: Cont):
        if not self._full:
            return _value_thunk(cont, None)
        return self._take(sched, tcb, arg, cont)

    def _try_put(self, sched: Scheduler, _tcb: TCB, value: Any, cont: Cont):
        if self._full:
            return _value_thunk(cont, False)
        self._deliver(sched, value)
        return _value_thunk(cont, True)

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


class Channel:
    """An unbounded FIFO channel (Haskell's ``Chan``): writes never block."""

    __slots__ = ("items", "readers", "name")

    def __init__(self, name: str | None = None) -> None:
        self.items: deque = deque()
        self.readers: deque = deque()
        self.name = name

    def write(self, value: Any) -> M:
        """Enqueue ``value``; never blocks."""
        return sys_call(self._write, value)

    def read(self) -> M:
        """Dequeue the next value, blocking while the channel is empty."""
        return sys_call(self._read)

    def try_read(self) -> M:
        """Resume with ``(True, value)`` or ``(False, None)``."""
        return sys_call(self._try_read)

    def __len__(self) -> int:
        return len(self.items)

    def _write(self, sched: Scheduler, _tcb: TCB, value: Any, cont: Cont):
        if self.readers:
            reader, reader_cont = self.readers.popleft()
            sched.resume_value(reader, reader_cont, value)
        else:
            self.items.append(value)
        return _value_thunk(cont, None)

    def _read(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if not self.items:
            return _park(tcb, self.readers, (tcb, cont))
        return _value_thunk(cont, self.items.popleft())

    def _try_read(self, _sched: Scheduler, _tcb: TCB, _arg: Any, cont: Cont):
        if not self.items:
            return _value_thunk(cont, (False, None))
        return _value_thunk(cont, (True, self.items.popleft()))


class BoundedChannel:
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
        return sys_call(self._write, value)

    def read(self) -> M:
        """Dequeue the next value, blocking while the buffer is empty."""
        return sys_call(self._read)

    def __len__(self) -> int:
        return len(self.items)

    def _write(self, sched: Scheduler, tcb: TCB, value: Any, cont: Cont):
        if self.readers:
            reader, reader_cont = self.readers.popleft()
            sched.resume_value(reader, reader_cont, value)
        elif len(self.items) < self.capacity:
            self.items.append(value)
        else:
            return _park(tcb, self.writers, (tcb, cont, value))
        return _value_thunk(cont, None)

    def _read(self, sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        # Writers queue only behind a full buffer, so an empty buffer
        # means no writer is waiting.
        if not self.items:
            return _park(tcb, self.readers, (tcb, cont))
        item = self.items.popleft()
        if self.writers:
            writer, writer_cont, pending = self.writers.popleft()
            self.items.append(pending)
            sched.resume_value(writer, writer_cont, None)
        return _value_thunk(cont, item)


class Semaphore:
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
        return sys_call(self._acquire)

    def release(self) -> M:
        """Increment the counter, waking one waiter if any."""
        return sys_call(self._release)

    def with_permit(self, comp: M) -> M:
        """Run ``comp`` holding one permit, releasing on success or failure."""
        return self.acquire().then(sys_finally(comp, self.release()))

    def _acquire(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if self.count == 0:
            return _park(tcb, self.waiters, (tcb, cont))
        self.count -= 1
        return _value_thunk(cont, None)

    def _release(self, sched: Scheduler, _tcb: TCB, _arg: Any, cont: Cont):
        if self.waiters:
            waiter, waiter_cont = self.waiters.popleft()
            sched.resume_value(waiter, waiter_cont, None)
        else:
            self.count += 1
        return _value_thunk(cont, None)


class RWLock:
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
        return sys_call(self._acquire_read)

    def release_read(self) -> M:
        """Drop a shared lock."""
        return sys_call(self._release_read)

    def acquire_write(self) -> M:
        """Take the exclusive lock; blocks while any lock is held."""
        return sys_call(self._acquire_write)

    def release_write(self) -> M:
        """Drop the exclusive lock, preferring queued writers."""
        return sys_call(self._release_write)

    def _acquire_read(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if self.writer_active or self.write_waiters:
            return _park(tcb, self.read_waiters, (tcb, cont))
        self.readers_active += 1
        return _value_thunk(cont, None)

    def _release_read(self, sched: Scheduler, _tcb: TCB, _arg: Any, cont: Cont):
        if self.readers_active <= 0:
            return SysThrow(SyncError("release_read without lock"))
        self.readers_active -= 1
        if self.readers_active == 0:
            self._promote(sched)
        return _value_thunk(cont, None)

    def _acquire_write(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if self.writer_active or self.readers_active:
            return _park(tcb, self.write_waiters, (tcb, cont))
        self.writer_active = True
        return _value_thunk(cont, None)

    def _release_write(self, sched: Scheduler, _tcb: TCB, _arg: Any, cont: Cont):
        if not self.writer_active:
            return SysThrow(SyncError("release_write without lock"))
        self.writer_active = False
        self._promote(sched)
        return _value_thunk(cont, None)

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


class WaitGroup:
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
        return sys_call(self._add, n)

    def done(self) -> M:
        """Mark one task complete, waking waiters when the count hits zero."""
        return sys_call(self._add, -1)

    def wait(self) -> M:
        """Block until the outstanding count reaches zero."""
        return sys_call(self._wait)

    def _add(self, sched: Scheduler, _tcb: TCB, n: int, cont: Cont):
        # Check before applying: a rejected ``done`` leaves the count as
        # it was, so waiters still wake at zero.
        count = self.count + n
        if count < 0:
            return SysThrow(SyncError("WaitGroup count went negative"))
        self.count = count
        if count == 0:
            while self.waiters:
                waiter, waiter_cont = self.waiters.popleft()
                sched.resume_value(waiter, waiter_cont, None)
        return _value_thunk(cont, None)

    def _wait(self, _sched: Scheduler, tcb: TCB, _arg: Any, cont: Cont):
        if self.count:
            return _park(tcb, self.waiters, (tcb, cont))
        return _value_thunk(cont, None)
