"""Server-side admission control: a bounded FIFO queue with shedding.

An :class:`AdmissionController` attached to a POA
(``ctx.poa.set_admission(...)``) turns the historic
dispatch-whatever-arrives request loop into a bounded queue:

* headers that arrive while a request is being served are swept into the
  queue; arrivals beyond ``capacity`` are **shed** — the client gets a
  prompt reply carrying the overload marker and raises
  :class:`~repro.core.errors.TransientException` (the request was never
  executed, so retrying is safe);
* queued requests are served in arrival order;
* every reply (success and failure) is stamped with a load report, and
  with a backpressure hint once the queue passes its high watermark —
  the inputs to least-loaded selection and client-side throttling.

SPMD caveat: only the thread that receives requests directly from
clients (rank 0) makes shed/ordering decisions.  Rank 0 forwards a
header to its peers at *dispatch* time, so peers see headers already in
rank 0's chosen order; their controllers queue forwarded headers in a
separate always-admitted FIFO served first, which replays that order
deterministically instead of re-deciding (and possibly diverging).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.request import BACKPRESSURE_CONTEXT, LOAD_CONTEXT, RequestHeader

__all__ = ["AdmissionController"]


#: Queue depth, as a fraction of capacity, from which replies carry a
#: backpressure hint.
HIGH_WATERMARK = 0.75
#: The client back-off (virtual s) that a backpressure hint suggests.
BACKOFF_HINT = 5e-3


class AdmissionController:
    """Bounded FIFO request queue for one POA thread.

    ``capacity`` bounds *queued* (not yet dispatched) direct requests;
    from :data:`HIGH_WATERMARK` of it on, replies carry a
    :data:`BACKOFF_HINT` backpressure hint.  ``policy`` accepts only
    ``"fifo"``: it is kept for callers that still name the order.
    """

    def __init__(self, capacity: int = 16, policy: str = "fifo") -> None:
        if policy != "fifo":
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: ('fifo',)")
        if capacity < 1:
            raise ValueError("admission capacity must be >= 1")
        self.capacity = capacity
        #: max arrivals swept (admitted or shed) per scheduling decision.
        #: Shedding costs virtual time (the refusal reply goes over the
        #: transport), so an unbounded sweep under sustained overload
        #: keeps finding fresh retries and never returns to serving the
        #: queue — a receive livelock.  Bounding the sweep guarantees
        #: queued requests are served between bursts of shedding.
        self.sweep_budget = max(2 * capacity, 8)
        self.ctx = None
        #: (header, enqueue time) of queued direct requests
        self._queue: deque = deque()
        #: forwarded SPMD headers: always admitted, served first, FIFO
        self._forwarded: deque = deque()
        # -- counters (surfaced via the metrics registry) --
        self.accepted = 0
        self.shed = 0
        self.served = 0
        self.max_depth = 0
        self.total_wait = 0.0

    def attach(self, ctx) -> None:
        """Bind to the serving thread's context (POA.set_admission)."""
        self.ctx = ctx

    @property
    def program_name(self) -> Optional[str]:
        return self.ctx.program.name if self.ctx is not None else None

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + len(self._forwarded)

    # -- queue ---------------------------------------------------------------

    def offer(self, hdr: RequestHeader, now: float) -> bool:
        """Admit or refuse one arrived header.  Returns False exactly
        when the caller must shed it."""
        if hdr.forwarded:
            self._forwarded.append(hdr)
            return True
        if len(self._queue) >= self.capacity:
            self.shed += 1
            return False
        self._queue.append((hdr, now))
        self.accepted += 1
        if self.queue_depth > self.max_depth:
            self.max_depth = self.queue_depth
        return True

    def pop(self, now: float) -> Optional[RequestHeader]:
        """Next header to dispatch in arrival order (None when nothing
        is queued)."""
        if self._forwarded:
            return self._forwarded.popleft()
        if not self._queue:
            return None
        hdr, enqueued = self._queue.popleft()
        self.served += 1
        self.total_wait += now - enqueued
        return hdr

    # -- reply stamping ------------------------------------------------------

    def stamp_reply(self, contexts: dict) -> None:
        """Piggyback the load report (always) and the backpressure hint
        (past the high watermark) on an outgoing reply's contexts."""
        depth = len(self._queue)
        contexts[LOAD_CONTEXT] = {
            "program_id": (self.ctx.program.program_id
                           if self.ctx is not None else -1),
            "queue_depth": depth,
            "capacity": self.capacity,
        }
        if depth >= HIGH_WATERMARK * self.capacity:
            contexts[BACKPRESSURE_CONTEXT] = BACKOFF_HINT

    def __repr__(self) -> str:
        return (f"<AdmissionController depth="
                f"{self.queue_depth}/{self.capacity} shed={self.shed}>")

