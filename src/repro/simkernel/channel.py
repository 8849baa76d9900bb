"""Timestamped message channels.

A :class:`Channel` is a mailbox of messages, each carrying a virtual
*arrival time*.  A receiver can only take a message once its own clock has
reached the arrival time; receiving an in-flight message blocks the
receiver and resumes it exactly at arrival.  This is the delivery
primitive underneath both the network transport and the intra-program
run-time systems.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .errors import SimError
from .kernel import SimKernel, SimThread

MatchFn = Callable[["Envelope"], bool]


class Envelope:
    """A message queued in a channel."""

    __slots__ = ("arrival", "payload")

    def __init__(self, arrival: float, payload: Any) -> None:
        self.arrival = arrival
        self.payload = payload


class Channel:
    """Mailbox with virtual-time delivery and predicate-matched receive.

    At most one thread may be blocked in :meth:`receive` at a time: each
    endpoint belongs to one simulated thread, so its channel has one
    receiver.  A second thread that blocks on the channel raises
    :class:`SimError`.
    """

    def __init__(self, kernel: SimKernel, name: str = "chan") -> None:
        self.kernel = kernel
        self.name = name
        self._queue: list[Envelope] = []
        self._waiter: Optional[tuple[SimThread, Optional[MatchFn]]] = None
        # The last blocking reason and its text, formatted once per reason.
        self._reason = self._reason_text = ""

    def __len__(self) -> int:
        return len(self._queue)

    # -- sending ------------------------------------------------------------

    def push(self, payload: Any, arrival: float) -> Envelope:
        """Deposit a message that becomes visible at virtual ``arrival``."""
        env = Envelope(arrival, payload)
        # Keep the queue sorted by arrival, ties in push order, so receive
        # order is the message delivery order, not the send-call order.
        queue = self._queue
        idx = len(queue)
        while idx > 0 and queue[idx - 1].arrival > arrival:
            idx -= 1
        queue.insert(idx, env)
        if self._waiter is not None:
            self._notify(env)
        return env

    def _notify(self, env: Envelope) -> None:
        """Wake the waiter at ``env``'s arrival if ``env`` matches.

        The waiter already has a wake-up no later than the arrival of every
        other matching message (set when it blocked, or by earlier pushes),
        and the kernel keeps the earlier of two wake-ups, so only the new
        message can bring it forward."""
        thread, match = self._waiter
        if match is None or match(env):
            self.kernel.wake(thread, env.arrival)

    def _find(self, match: Optional[MatchFn]) -> Optional[Envelope]:
        for env in self._queue:
            if match is None or match(env):
                return env
        return None

    # -- receiving ----------------------------------------------------------

    def poll(self, match: MatchFn | None = None) -> Optional[Envelope]:
        """Non-blocking receive: a matching message whose arrival time has
        passed on the calling thread's clock, else ``None``."""
        th = self.kernel.current()
        env = self._find(match)
        if env is not None and env.arrival <= th.now:
            self._queue.remove(env)
            return env
        return None

    def peek(self, match: MatchFn | None = None) -> Optional[Envelope]:
        """Like :meth:`poll` but leaves the message in the channel."""
        th = self.kernel.current()
        env = self._find(match)
        if env is not None and env.arrival <= th.now:
            return env
        return None

    def receive(self, match: MatchFn | None = None,
                reason: str = "channel.receive",
                deadline: float | None = None) -> Optional[Envelope]:
        """Blocking receive; the caller's clock advances to the arrival
        time of the message it takes (if later than its current time).

        With a ``deadline`` (absolute virtual time), gives up and returns
        ``None`` once the clock reaches it with no matching message.
        """
        th = self.kernel.current()
        while True:
            env = self._find(match)
            if env is not None and env.arrival <= th.now:
                self._queue.remove(env)
                return env
            if deadline is not None and th.now >= deadline:
                return None
            if self._waiter is not None:
                raise SimError(
                    f"{th.name} cannot block on {self.name}: "
                    f"{self._waiter[0].name} is already waiting on it")
            if env is not None:
                # In flight: wake at arrival, then re-check (an earlier
                # message may have slipped in while we slept).
                self.kernel.wake(th, min(env.arrival, deadline)
                                 if deadline is not None else env.arrival)
            elif deadline is not None:
                self.kernel.wake(th, deadline)
            if reason != self._reason:
                self._reason = reason
                self._reason_text = f"{reason} on {self.name}"
            self._waiter = (th, match)
            try:
                self.kernel.block(self._reason_text)
            finally:
                self._waiter = None
