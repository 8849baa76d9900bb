"""Event queue for the virtual-time kernel.

Events are totally ordered by ``(time, seq)``: ``seq`` is a monotonically
increasing insertion counter, so two events at the same virtual time fire
in insertion order.  This tie-break is what makes whole simulations
deterministic — given identical inputs, threads are resumed in an
identical order and therefore observe identical message interleavings.

The heap holds ``(time, seq, event)`` tuples, so ``heapq`` orders them by
C tuple comparison; ``seq`` is unique, so a comparison never reaches the
:class:`Event`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any


class Event:
    """A scheduled wake-up for a simulated thread."""

    __slots__ = ("time", "seq", "thread", "cancelled")

    def __init__(self, time: float, seq: int, thread: Any) -> None:
        self.time = time
        self.seq = seq
        self.thread = thread
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time!r} seq={self.seq}{state}>"


class EventQueue:
    """Min-heap of :class:`Event` ordered by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def push(self, time: float, thread) -> Event:
        seq = next(self._seq)
        ev = Event(time, seq, thread)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event."""
        heap = self._heap
        while True:
            ev = heapq.heappop(heap)[2]
            if not ev.cancelled:
                return ev

    def peek_time(self) -> float | None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
