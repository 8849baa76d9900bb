"""Event queue for the virtual-time kernel.

Events are totally ordered by ``(time, seq)``: ``seq`` is a monotonically
increasing insertion counter, so two events at the same virtual time fire
in insertion order.  This tie-break is what makes whole simulations
deterministic — given identical inputs, threads are resumed in an
identical order and therefore observe identical message interleavings.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any


@dataclass(order=True)
class Event:
    """A scheduled wake-up for a simulated thread."""

    time: float
    seq: int
    thread: Any = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """Min-heap of :class:`Event` ordered by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def push(self, time: float, thread) -> Event:
        ev = Event(time, next(self._seq), thread)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event."""
        while True:
            ev = heapq.heappop(self._heap)
            if not ev.cancelled:
                return ev

    def peek_time(self) -> float | None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None
