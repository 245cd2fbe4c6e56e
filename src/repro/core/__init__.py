"""The paper's primary contribution: monadic concurrency primitives.

Public surface:

* :mod:`repro.core.monad` — the CPS monad ``M`` and combinators;
* :mod:`repro.core.do_notation` — ``@do`` generator syntax;
* :mod:`repro.core.syscalls` — the system-call interface;
* :mod:`repro.core.scheduler` — the programmable trace scheduler;
* :mod:`repro.core.sync` — mutexes, MVars, channels, semaphores;
* :mod:`repro.core.stm` — software transactional memory;
* :mod:`repro.core.thread` — spawn/join handles.
"""

from .do_notation import DoProtocolError, do
from .events import EVENT_ERROR, EVENT_HUP, EVENT_READ, EVENT_WRITE
from .exceptions import (
    DeadlockError,
    ReproError,
    ThreadKilled,
    UncaughtThreadError,
    UnsupportedSyscallError,
)
from .monad import (
    M,
    build_trace,
    foldM,
    for_each,
    mapM,
    mapM_,
    pure,
    replicateM,
    replicateM_,
    run_pure,
    sequence_,
    sequence_m,
    unless,
    when,
)
from .scheduler import TCB, Scheduler, run_threads
from .smp import SmpScheduler
from .stm import TVar, Tx, atomically, modify_tvar, read_tvar, write_tvar
from .sync import (
    BoundedChannel,
    Channel,
    Mutex,
    MVar,
    RWLock,
    Semaphore,
    SyncError,
    WaitGroup,
)
from .syscalls import (
    sys_aio_read,
    sys_blio,
    sys_catch,
    sys_epoll_wait,
    sys_finally,
    sys_fork,
    sys_get_tid,
    sys_nbio,
    sys_now,
    sys_ret,
    sys_sleep,
    sys_throw,
    sys_yield,
)
from .thread import ThreadGroup, ThreadHandle, join_all, spawn

__all__ = [
    # monad
    "M", "pure", "build_trace", "run_pure", "sequence_m", "sequence_",
    "mapM", "mapM_", "for_each", "replicateM", "replicateM_", "when",
    "unless", "foldM",
    # do-notation
    "do", "DoProtocolError",
    # syscalls
    "sys_nbio", "sys_blio", "sys_fork", "sys_yield", "sys_ret", "sys_throw",
    "sys_catch", "sys_finally", "sys_epoll_wait", "sys_aio_read",
    "sys_sleep", "sys_get_tid", "sys_now",
    # scheduler
    "Scheduler", "TCB", "run_threads", "SmpScheduler",
    # threads
    "spawn", "join_all", "ThreadHandle", "ThreadGroup",
    # sync
    "Mutex", "MVar", "Channel", "BoundedChannel", "Semaphore", "RWLock",
    "WaitGroup", "SyncError",
    # stm
    "TVar", "Tx", "atomically", "read_tvar", "write_tvar", "modify_tvar",
    # events
    "EVENT_READ", "EVENT_WRITE", "EVENT_ERROR", "EVENT_HUP",
    # errors
    "ReproError", "UncaughtThreadError", "DeadlockError", "ThreadKilled",
    "UnsupportedSyscallError",
]
