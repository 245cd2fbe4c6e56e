"""One event loop, two kernels: ``LiveRuntime`` and ``SimRuntime`` run the
same turn (``repro.runtime.loop.Runtime.run``), so a program orders its
steps, deadlines and I/O the same way on the real OS and in virtual time.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.do_notation import do
from repro.core.sync import MVar
from repro.runtime.live_runtime import LiveRuntime
from repro.runtime.sim_runtime import SimRuntime


def _live():
    rt = LiveRuntime()
    reader, writer = socket.socketpair()
    reader.setblocking(False)
    writer.setblocking(False)

    def close():
        reader.close()
        writer.close()
        rt.shutdown()

    return rt, reader, writer, time.monotonic, close


def _sim():
    rt = SimRuntime()
    reader, writer = rt.kernel.make_pipe()
    return rt, reader, writer, lambda: rt.kernel.clock.now, lambda: None


KERNELS = {"live": _live, "sim": _sim}


@pytest.fixture(params=sorted(KERNELS))
def kernel(request):
    rt, reader, writer, clock, close = KERNELS[request.param]()
    yield rt, reader, writer, clock
    close()


class TestTurnParity:
    def test_a_deadline_of_now_fires_before_io_the_turn_made_ready(
            self, kernel):
        # One thread arms a zero-delay deadline, then writes to the
        # descriptor another thread is parked reading.  The deadline is
        # due when the ready queue runs dry; the read is only ready once
        # the loop looks at its devices — after the deadline, on both
        # kernels (the mesh's flush batching depends on this order).
        rt, reader, writer, _clock = kernel
        order: list[str] = []

        @do
        def parked_reader():
            yield rt.io.read(reader, 1)
            order.append("read")

        @do
        def writer_thread():
            yield rt.timers.schedule(
                0, lambda: order.append("deadline-of-now"))
            yield rt.io.write_all(writer, b"x")

        rt.spawn(parked_reader(), name="reader")
        rt.spawn(writer_thread(), name="writer")
        rt.run()
        assert order == ["deadline-of-now", "read"]


class TestIdleTimeout:
    def test_idle_run_returns_while_a_later_deadline_is_armed(self, kernel):
        # A thread parked on a 5 s deadline must not hold a run with a
        # 0.1 s idle timeout for 5 s (virtual seconds on the simulator).
        rt, _reader, _writer, clock = kernel
        box = MVar(name="late")

        @do
        def parked():
            yield rt.timers.schedule(5.0, lambda: box.put("late"))
            yield box.take()

        tcb = rt.spawn(parked(), name="parked")
        started = clock()
        rt.run(idle_timeout=0.1)
        assert clock() - started < 0.3
        assert tcb.state == "blocked"
