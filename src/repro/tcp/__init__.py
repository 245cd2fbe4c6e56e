"""An application-level TCP stack (paper §4.8), from scratch.

"The end-to-end design philosophy of TCP suggests that the protocol can be
implemented inside the application, but it is often difficult due to the
event-driven nature of TCP.  In our hybrid programming model, the ability to
combine events and threads makes it practical to implement transport
protocols like TCP at the application-level in an elegant and type-safe
way."

The stack runs over lossy simulated packet links
(:class:`repro.simos.net.PacketLink`) and provides reliable, ordered byte
streams:

* :mod:`repro.tcp.packet` — segment encode/decode with checksums;
* :mod:`repro.tcp.iovec` — zero-copy I/O vectors (§5.2's buffers);
* :mod:`repro.tcp.rtt` — Jacobson/Karels RTT estimation, Karn's rule;
* :mod:`repro.tcp.congestion` — Reno (slow start, congestion avoidance,
  fast retransmit/recovery);
* :mod:`repro.tcp.window` — send/receive sliding windows and reassembly;
* :mod:`repro.tcp.tcb` — the transmission control block and state enum;
* :mod:`repro.tcp.stack` — the engine: demux, state machine, timers
  (the paper's ``worker_tcp_input`` / ``worker_tcp_timer`` loops);
* :mod:`repro.tcp.socket_api` — monadic sockets, each blocking operation
  a library system call parked on the stack's callback, giving the same
  high-level interface as the standard socket wrappers, so the web
  server switches stacks "by editing one line of code".
"""

from .packet import Segment, FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_RST, FLAG_SYN
from .stack import TcpParams, TcpStack, TcpError, ConnectionReset
from .socket_api import TcpSockets

__all__ = [
    "Segment",
    "FLAG_SYN", "FLAG_ACK", "FLAG_FIN", "FLAG_RST", "FLAG_PSH",
    "TcpStack", "TcpParams", "TcpError", "ConnectionReset",
    "TcpSockets",
]
