"""Software transactional memory, from scratch.

The paper reuses GHC's STM for non-blocking synchronization (§4.7): monadic
threads submit STM computations and the scheduler runs them without
blocking.  Python has no STM, so this module implements one: optimistic
versioned TVars, a transaction log with read validation, ``retry`` (park the
thread until some TVar in the read set changes — exactly GHC's semantics),
and ``or_else`` composition.

A transaction is a Python function receiving a :class:`Tx` handle::

    counter = TVar(0)

    def increment(tx):
        value = tx.read(counter)
        tx.write(counter, value + 1)
        return value

    @do
    def worker():
        old = yield atomically(increment)

Transactions must be pure apart from ``tx`` operations: they may re-run on
conflict, and their effects must be invisible until commit.

Blocking composition works like GHC's: ``tx.retry()`` aborts and parks the
thread; any later commit that writes one of the TVars the transaction *read*
wakes it for a re-run.  ``tx.or_else(first, second)`` tries ``first`` and
falls back to ``second`` if it retries.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .exceptions import ReproError
from .monad import M
from .scheduler import Scheduler, TCB
from .syscalls import sys_call
from .trace import Cont, SysCall, SysThrow

__all__ = [
    "TVar",
    "Tx",
    "atomically",
    "read_tvar",
    "write_tvar",
    "modify_tvar",
    "StmError",
    "RetrySignal",
]

#: Re-execution bound: a transaction that fails validation this many times
#: in a row indicates a livelock bug in the runtime.
MAX_ATTEMPTS = 100


class StmError(ReproError):
    """Transaction misuse or a runtime invariant violation."""


class RetrySignal(BaseException):
    """Internal control signal raised by ``tx.retry()``.

    Derives from ``BaseException`` so stray ``except Exception`` blocks in
    transaction bodies do not swallow it.
    """


class TVar:
    """A transactional variable."""

    __slots__ = ("_value", "_version", "_waiters", "name")
    _ids = itertools.count(1)

    def __init__(self, value: Any = None, name: str | None = None) -> None:
        self._value = value
        self._version = 0
        # Parked transactions to wake when this TVar is committed to.
        self._waiters: list["_ParkedTx"] = []
        self.name = name or f"tvar-{next(TVar._ids)}"

    @property
    def value(self) -> Any:
        """Unsynchronized peek — for tests and debugging only."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TVar {self.name} v{self._version}={self._value!r}>"


class Tx:
    """The transaction handle passed to transaction functions."""

    __slots__ = ("_reads", "_writes")

    def __init__(self) -> None:
        # TVar -> version observed at first read (for commit validation).
        self._reads: dict[TVar, int] = {}
        # TVar -> pending value.
        self._writes: dict[TVar, Any] = {}

    def read(self, tvar: TVar) -> Any:
        """Read ``tvar``, seeing this transaction's own earlier writes."""
        if tvar in self._writes:
            return self._writes[tvar]
        if tvar not in self._reads:
            self._reads[tvar] = tvar._version
        return tvar._value

    def write(self, tvar: TVar, value: Any) -> None:
        """Record a write; visible to later reads in this transaction."""
        self._writes[tvar] = value

    def modify(self, tvar: TVar, func: Callable[[Any], Any]) -> Any:
        """``write(tvar, func(read(tvar)))``; returns the new value."""
        new = func(self.read(tvar))
        self.write(tvar, new)
        return new

    def retry(self) -> None:
        """Abort and block until a TVar read so far changes (GHC ``retry``)."""
        raise RetrySignal()

    def check(self, condition: bool) -> None:
        """``retry()`` unless ``condition`` holds (GHC's ``check``)."""
        if not condition:
            self.retry()

    def or_else(self, first: Callable[["Tx"], Any], second: Callable[["Tx"], Any]) -> Any:
        """Run ``first``; if it retries, roll back its writes and run
        ``second``.  Reads from both branches stay in the wait set, matching
        GHC's ``orElse``."""
        saved_writes = dict(self._writes)
        try:
            return first(self)
        except RetrySignal:
            self._writes = saved_writes
            return second(self)


class _ParkedTx:
    """A thread parked on ``retry``, waiting for any of its TVars to move."""

    __slots__ = ("sched", "tcb", "transaction", "cont", "tvars", "armed")

    def __init__(
        self,
        sched: Scheduler,
        tcb: TCB,
        transaction: Callable[["Tx"], Any],
        cont: Cont,
        tvars: list[TVar],
    ) -> None:
        self.sched = sched
        self.tcb = tcb
        self.transaction = transaction
        self.cont = cont
        self.tvars = tvars
        self.armed = True
        for tvar in tvars:
            tvar._waiters.append(self)

    def fire(self) -> None:
        """Wake the thread to re-run its transaction (at most once)."""
        if not self.armed:
            return
        self.armed = False
        for tvar in self.tvars:
            try:
                tvar._waiters.remove(self)
            except ValueError:
                pass
        # Re-issue the system call: the transaction gets a fresh attempt.
        self.sched.resume(
            self.tcb, SysCall(_atomically, self.transaction, self.cont)
        )


def atomically(transaction: Callable[[Tx], Any]) -> M:
    """Run ``transaction`` atomically; resume with its result.

    One library system call, the Python rendering of the paper's "monadic
    threads can simply use sys_nbio to submit STM computations" — except
    that blocking ``retry`` is supported too: the call parks the thread.
    """
    return sys_call(_atomically, transaction)


def read_tvar(tvar: TVar) -> M:
    """Atomic read of a single TVar."""
    return atomically(lambda tx: tx.read(tvar))


def write_tvar(tvar: TVar, value: Any) -> M:
    """Atomic write of a single TVar."""
    return atomically(lambda tx: tx.write(tvar, value))


def modify_tvar(tvar: TVar, func: Callable[[Any], Any]) -> M:
    """Atomic read-modify-write; resumes with the new value."""
    return atomically(lambda tx: tx.modify(tvar, func))


def run_transaction(transaction: Callable[[Tx], Any]) -> tuple[str, Any, Tx]:
    """Execute one attempt: returns ``(status, result, tx)`` where status is
    ``"ok"`` or ``"retry"``.  Exposed for the test suite."""
    tx = Tx()
    try:
        result = transaction(tx)
    except RetrySignal:
        return ("retry", None, tx)
    return ("ok", result, tx)


def _validate(tx: Tx) -> bool:
    return all(tvar._version == version for tvar, version in tx._reads.items())


def _commit(tx: Tx) -> None:
    woken: list[_ParkedTx] = []
    for tvar, value in tx._writes.items():
        tvar._value = value
        tvar._version += 1
        if tvar._waiters:
            woken.extend(tvar._waiters)
    for parked in woken:
        parked.fire()


def _atomically(
    sched: Scheduler, tcb: TCB, transaction: Callable[[Tx], Any], cont: Cont
):
    """Interpret ``atomically``: attempt, commit or park."""
    for _attempt in range(MAX_ATTEMPTS):
        try:
            status, result, tx = run_transaction(transaction)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            # The transaction body failed: nothing commits, the exception
            # propagates monadically to the thread.
            return SysThrow(exc)
        if not _validate(tx):
            continue
        if status == "retry":
            tvars = list(tx._reads)
            if not tvars:
                return SysThrow(
                    StmError("retry with an empty read set can never wake")
                )
            _ParkedTx(sched, tcb, transaction, cont, tvars)
            tcb.state = "blocked"
            return None
        _commit(tx)
        return lambda: cont(result)
    return SysThrow(
        StmError(f"transaction failed validation {MAX_ATTEMPTS} times")
    )
