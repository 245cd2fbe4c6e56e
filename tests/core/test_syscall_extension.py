"""The one extension point for library system calls.

A :class:`SysCall` node names the function that interprets it, so a new
primitive is plain functions with nothing registered.  The one-shot latch
below runs unchanged on the bare scheduler, the SMP scheduler and both
kernels.  Only a kernel's device nodes are registered, and only on node
types the scheduler does not interpret itself.
"""

from __future__ import annotations

import pytest

from repro.core.do_notation import do
from repro.core.exceptions import UnsupportedSyscallError
from repro.core.monad import M
from repro.core.scheduler import Scheduler, run_threads
from repro.core.smp import SmpScheduler
from repro.core.syscalls import sys_now, sys_yield
from repro.core.trace import SysCall, SysFork
from repro.runtime.live_runtime import LiveRuntime
from repro.runtime.sim_runtime import SimRuntime


class Latch:
    """One-shot: ``wait`` parks until ``set``, and never parks after."""

    def __init__(self) -> None:
        self.is_set = False
        self.waiters: list = []


def _wait(_sched, tcb, latch, cont):
    if latch.is_set:
        return lambda: cont("open")
    latch.waiters.append((tcb, cont))
    tcb.state = "blocked"
    return None


def _set(sched, _tcb, latch, cont):
    latch.is_set = True
    for waiter, waiter_cont in latch.waiters:
        sched.resume_value(waiter, waiter_cont, "released")
    latch.waiters.clear()
    return lambda: cont(None)


def latch_wait(latch: Latch) -> M:
    return M(lambda c: SysCall(_wait, latch, c))


def latch_set(latch: Latch) -> M:
    return M(lambda c: SysCall(_set, latch, c))


def _latch_program(spawn):
    """Three threads park on a latch that a fourth sets after a yield;
    the setter then waits on the open latch and passes straight through."""
    latch = Latch()

    @do
    def waiter():
        value = yield latch_wait(latch)
        return value

    @do
    def setter():
        yield sys_yield()
        yield latch_set(latch)
        late = yield latch_wait(latch)
        return late

    return [spawn(waiter()) for _ in range(3)] + [spawn(setter())]


HOSTS = {
    "scheduler": Scheduler,
    "smp": lambda: SmpScheduler(workers=2),
    "sim": SimRuntime,
    "live": LiveRuntime,
}


@pytest.mark.parametrize("host", list(HOSTS))
def test_a_latch_needs_no_registration(host):
    runner = HOSTS[host]()
    try:
        tcbs = _latch_program(runner.spawn)
        runner.run()
    finally:
        if host == "live":
            runner.shutdown()
    assert [tcb.result for tcb in tcbs] == ["released"] * 3 + ["open"]
    assert all(tcb.state == "done" for tcb in tcbs)


@pytest.mark.parametrize("node_type", [SysFork, SysCall])
def test_register_syscall_refuses_a_builtin_node_type(node_type):
    sched = Scheduler()
    with pytest.raises(ValueError):
        sched.register_syscall(node_type, lambda _s, _t, _node: None)


def test_sys_now_needs_a_kernel_clock():
    @do
    def worker():
        try:
            yield sys_now()
        except UnsupportedSyscallError:
            return "refused"

    assert run_threads([worker()])[0].result == "refused"

    rt = SimRuntime()
    tcb = rt.spawn(sys_now())
    rt.run()
    assert 0.0 <= tcb.result <= rt.kernel.clock.now
