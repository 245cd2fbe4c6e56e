"""Coverage for the trace algebra, event masks, and small helpers."""

from __future__ import annotations

import pytest

from repro.core.events import (
    EVENT_ERROR,
    EVENT_HUP,
    EVENT_READ,
    EVENT_WRITE,
    describe_events,
)
from repro.core.monad import build_trace, pure
from repro.core.scheduler import Scheduler, run_threads
from repro.core.sync import Mutex, MVar
from repro.core.syscalls import sys_get_tid
from repro.core.trace import (
    SysCall,
    SysEpollWait,
    SysFork,
    SysNBIO,
    SysNow,
    SysRet,
    format_trace_node,
)
from repro.simos.clock import VirtualClock
from repro.tcp.socket_api import TcpSockets
from repro.tcp.stack import TcpStack


class TestEventMasks:
    def test_bits_are_distinct(self):
        bits = [EVENT_READ, EVENT_WRITE, EVENT_ERROR, EVENT_HUP]
        assert len({*bits}) == 4
        for a in bits:
            for b in bits:
                if a is not b:
                    assert a & b == 0

    def test_describe_single(self):
        assert describe_events(EVENT_READ) == "READ"
        assert describe_events(EVENT_WRITE) == "WRITE"

    def test_describe_combination(self):
        assert describe_events(EVENT_READ | EVENT_HUP) == "READ|HUP"

    def test_describe_none(self):
        assert describe_events(0) == "NONE"


class TestTraceFormatting:
    def test_ret_shows_value(self):
        assert "SYS_RET" in format_trace_node(SysRet(42))
        assert "42" in format_trace_node(SysRet(42))

    def test_epoll_shows_fd_and_events(self):
        node = SysEpollWait("fd-7", EVENT_READ, lambda v: SysRet(v))
        text = format_trace_node(node)
        assert "SYS_EPOLL_WAIT" in text and "fd-7" in text

    def test_tagged_nodes(self):
        assert "SYS_NBIO" in format_trace_node(SysNBIO(lambda: None, SysRet))
        assert "SYS_FORK" in format_trace_node(
            SysFork(lambda: SysRet(None), lambda: SysRet(None))
        )
        assert "SYS_NOW" in format_trace_node(SysNow(lambda v: SysRet(v)))

    def test_syscall_shows_its_interpreter(self):
        # A library system call is named by the function interpreting it.
        def node(fn):
            return format_trace_node(SysCall(fn, None, lambda v: SysRet(v)))

        assert node(MVar()._take) == "<SYS_CALL fn=MVar._take>"
        assert node(Mutex()._acquire) == "<SYS_CALL fn=Mutex._acquire>"
        # So is a socket operation of the application-level TCP stack.
        sockets = TcpSockets(TcpStack(VirtualClock(), "host"))
        recv = build_trace(sockets.recv(None, 16))
        assert format_trace_node(recv) == "<SYS_CALL fn=_recv>"

    def test_repr_uses_formatter(self):
        assert repr(SysRet("x")) == format_trace_node(SysRet("x"))


class TestSchedulerHelpers:
    def test_run_threads_returns_tcbs_in_order(self):
        tcbs = run_threads([pure(1), pure(2), pure(3)])
        assert [tcb.result for tcb in tcbs] == [1, 2, 3]

    def test_get_tid_matches_tcb(self):
        sched = Scheduler()
        tcb = sched.spawn(sys_get_tid())
        sched.run()
        assert tcb.result == tcb.tid

    def test_exit_watcher_sees_every_exit(self):
        sched = Scheduler()
        seen = []
        sched.add_exit_watcher(lambda tcb: seen.append(tcb.tid))
        tcbs = [sched.spawn(pure(i)) for i in range(5)]
        sched.run()
        assert sorted(seen) == sorted(tcb.tid for tcb in tcbs)

    def test_on_syscall_hook_counts_nodes(self):
        sched = Scheduler()
        count = {"n": 0}
        sched.on_syscall = lambda _tcb, _node: count.__setitem__(
            "n", count["n"] + 1
        )
        sched.spawn(pure(None))
        sched.run()
        assert count["n"] >= 1
