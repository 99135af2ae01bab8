"""In-network combining for software DSM synchronization traffic.

The NYU-Ultracomputer idea: when several processors issue the *same*
fetch-and-op (a lock-ticket grab, a barrier-arrival increment) toward
the same destination at nearly the same time, a combining switch
merges them in the fabric and presents the destination with one
operation.  The win is not wire time — the requests are tiny — it is
the destination's *handler CPU*, which on the software machines
charges thousands of cycles per message received and is exactly the
serialization the paper measures behind its ~2 ms 8-node barrier.

:class:`SwitchCombiner` models this on top of any
:class:`~repro.net.atm.AtmNetwork`-shaped transport:

* **fan-in** — messages to the same ``(dst, key)`` whose *sends*
  fall inside one combining window ride the fabric together: the
  window opener pays the normal receive cost, followers charge only
  ``combine_cycles`` (the switch's merge stage) instead of occupying
  the destination handler, and each bumps ``combining_hits``.
* **fan-out** — the mirror image for multicasts (barrier departure
  waves): the first copy pays the full sender CPU cost, replicas of
  the same ``(src, key)`` within the window charge ``combine_cycles``
  on the send side while every destination still pays its own
  receive cost (each node's CPU must process its departure).

Windows are keyed by simulated time only — fully deterministic, no
randomness, no wall clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.stats.counters import DataKind, MsgKind
from repro.trace.tracer import Category


def in_open_window(windows: Dict, key: object, now: int,
                   window_cycles: int) -> bool:
    """The combining test, shared with the hardware
    :class:`~repro.net.crossbar.CombiningStage`: True when ``now``
    falls inside an open window for ``key`` (a combining hit);
    otherwise opens a fresh window and returns False."""
    end = windows.get(key)
    if end is not None and now <= end:
        return True
    windows[key] = now + window_cycles
    return False


class SwitchCombiner:
    """Deterministic combining windows over a point-to-point network."""

    def __init__(self, net, *, window_cycles: int,
                 combine_cycles: int) -> None:
        if window_cycles < 0 or combine_cycles < 0:
            raise ValueError("combining windows/cycles must be >= 0")
        self.net = net
        self.window_cycles = window_cycles
        self.combine_cycles = combine_cycles
        self._in_windows: Dict[Tuple[int, object], int] = {}
        self._out_windows: Dict[Tuple[int, object], int] = {}

    # ------------------------------------------------------------------
    def _combines(self, windows: Dict[Tuple[int, object], int],
                  node: int, key: object) -> bool:
        """True on a combining hit at ``node`` (counted and traced);
        otherwise opens a fresh window."""
        engine = self.net.engine
        if not in_open_window(windows, (node, key), engine.now,
                              self.window_cycles):
            return False
        self.net.counters.combining_hits += 1
        tracer = engine.tracer
        if tracer.enabled:
            tracer.instant(node, Category.SYNC, "combining_hit",
                           engine.now, track="switch", key=str(key))
        return True

    # ------------------------------------------------------------------
    def fan_in(self, src: int, dst: int, payload_bytes: int, *,
               kind: MsgKind, key: object,
               data_kind: DataKind = DataKind.CONSISTENCY,
               on_delivered: Optional[Callable[[int], None]] = None,
               on_abandoned: Optional[Callable[[int], None]] = None) -> int:
        """Send toward a combining point; followers skip the dst CPU.

        ``on_abandoned`` is the transport's: it fires instead of
        ``on_delivered`` when ``dst`` is declared dead.
        """
        merged = self._combines(self._in_windows, dst, key)
        return self.net.send(
            src, dst, payload_bytes, kind=kind, data_kind=data_kind,
            recv_cpu_cycles=self.combine_cycles if merged else None,
            on_delivered=on_delivered, on_abandoned=on_abandoned)

    def fan_out(self, src: int, dst: int, payload_bytes: int, *,
                kind: MsgKind, key: object,
                data_kind: DataKind = DataKind.CONSISTENCY,
                on_delivered: Optional[Callable[[int], None]] = None) -> int:
        """Send one leg of a fabric multicast; replicas skip the src
        CPU (the fabric duplicates the frame past the first copy)."""
        merged = self._combines(self._out_windows, src, key)
        return self.net.send(
            src, dst, payload_bytes, kind=kind, data_kind=data_kind,
            send_cpu_cycles=self.combine_cycles if merged else None,
            on_delivered=on_delivered)
