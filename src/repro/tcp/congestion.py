"""TCP Reno congestion control.

Slow start, congestion avoidance, fast retransmit and fast recovery
(RFC 5681 shape), in units of bytes:

* slow start: from ``cwnd = 2*mss``, ``cwnd += mss`` per new ACK, until
  ``ssthresh``;
* congestion avoidance: ``cwnd += mss*mss/cwnd`` per new ACK;
* 3 duplicate ACKs: ``ssthresh = flight/2``, ``cwnd = ssthresh + 3*mss``,
  retransmit the lost segment, inflate by ``mss`` per further dup ACK;
* new ACK in recovery: deflate to ``ssthresh`` (exit recovery);
* timeout: ``ssthresh = flight/2``, ``cwnd = 1*mss``, back to slow start.
"""

from __future__ import annotations

__all__ = ["RenoCongestion"]

SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"
FAST_RECOVERY = "fast_recovery"


class RenoCongestion:
    """Per-connection Reno state, in bytes."""

    __slots__ = ("mss", "cwnd", "ssthresh", "state", "dupacks",
                 "fast_retransmits", "timeouts")

    def __init__(self, mss: int) -> None:
        self.mss = mss
        self.cwnd = 2 * mss
        self.ssthresh = 64 * 1024
        self.state = SLOW_START
        self.dupacks = 0
        self.fast_retransmits = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_new_ack(self, acked_bytes: int, flight_bytes: int) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``acked_bytes``."""
        self.dupacks = 0
        if self.state == FAST_RECOVERY:
            # Full window deflation on recovery exit.
            self.cwnd = self.ssthresh
            self.state = (
                SLOW_START if self.cwnd < self.ssthresh
                else CONGESTION_AVOIDANCE
            )
            return
        if self.state == SLOW_START:
            # Appropriate Byte Counting (RFC 3465, L=2): grow by the bytes
            # acknowledged, so delayed ACKs do not halve the ramp rate.
            self.cwnd += min(acked_bytes, 2 * self.mss)
            if self.cwnd >= self.ssthresh:
                self.state = CONGESTION_AVOIDANCE
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def on_dup_ack(self, flight_bytes: int) -> bool:
        """A duplicate ACK arrived; returns True when the caller should
        fast-retransmit (the third duplicate)."""
        if self.state == FAST_RECOVERY:
            # Window inflation: each dup ACK means a segment left the net.
            self.cwnd += self.mss
            return False
        self.dupacks += 1
        if self.dupacks == 3:
            self.ssthresh = max(flight_bytes // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss
            self.state = FAST_RECOVERY
            self.fast_retransmits += 1
            return True
        return False

    def on_timeout(self, flight_bytes: int) -> None:
        """Retransmission timer fired: collapse to slow start."""
        self.ssthresh = max(flight_bytes // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.state = SLOW_START
        self.dupacks = 0
        self.timeouts += 1

    @property
    def window(self) -> int:
        """Current congestion window in bytes."""
        return int(self.cwnd)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Reno {self.state} cwnd={int(self.cwnd)} "
            f"ssthresh={int(self.ssthresh)}>"
        )
