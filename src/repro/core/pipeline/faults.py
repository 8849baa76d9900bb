"""Fault injection through the interceptor chain.

Robustness tests need to force failures at precise points of the request
path without reaching into engine internals.  The
:class:`FaultInjectionInterceptor` raises a chosen exception at any of
the five interception points, optionally filtered by operation name and
limited to a number of firings:

    faults = FaultInjectionInterceptor()
    orb.register_interceptor(faults)
    faults.inject("receive_request", op="scale", times=1)
    # next scale() request is shed server-side with a SystemException

Because the faults surface through the ordinary interceptor points, the
engine's recovery machinery is exercised exactly as it would be by a
real failure: error replies, dead-lettered fragments, failed futures.
"""

from __future__ import annotations

from typing import Optional

from ..._record import Record

from ..errors import SystemException
from .interceptors import POINTS, RequestInterceptor

__all__ = ["FaultInjectionInterceptor", "FaultRule"]


class FaultRule(Record):
    """One armed fault: raise ``exc`` at ``point`` (for ``op``, if set),
    at most ``times`` times (``None`` means every time)."""

    __slots__ = ("point", "exc", "op", "times", "fired")

    def __init__(self, point: str, exc: BaseException,
                 op: Optional[str] = None, times: Optional[int] = 1,
                 fired: int = 0) -> None:
        self.point = point
        self.exc = exc
        self.op = op
        self.times = times
        self.fired = fired

    def matches(self, point: str, op_name: str) -> bool:
        if self.point != point:
            return False
        if self.op is not None and self.op != op_name:
            return False
        return self.times is None or self.fired < self.times


class FaultInjectionInterceptor(RequestInterceptor):
    """Raises configured exceptions at configured interception points."""

    name = "fault-injection"

    def __init__(self) -> None:
        self.rules: list[FaultRule] = []

    def inject(self, point: str, *, op: Optional[str] = None,
               exc: Optional[BaseException] = None,
               times: Optional[int] = 1) -> FaultRule:
        """Arm a fault; returns the rule (its ``fired`` counter tells the
        test how often it actually triggered)."""
        if point not in POINTS:
            raise ValueError(
                f"unknown interception point {point!r}; one of {POINTS}"
            )
        if exc is None:
            exc = SystemException(f"injected fault at {point}")
        rule = FaultRule(point, exc, op, times)
        self.rules.append(rule)
        return rule

    def reset(self) -> None:
        self.rules.clear()

    def _fire(self, point: str, op_name: str) -> None:
        for rule in self.rules:
            if rule.matches(point, op_name):
                rule.fired += 1
                raise rule.exc

    # -- the five points all funnel into _fire -----------------------------

    def send_request(self, info) -> None:
        self._fire("send_request", info.op_name)

    def receive_reply(self, info) -> None:
        self._fire("receive_reply", info.op_name)

    def receive_exception(self, info) -> None:
        self._fire("receive_exception", info.op_name)

    def receive_request(self, info) -> None:
        self._fire("receive_request", info.op_name)

    def send_reply(self, info) -> None:
        self._fire("send_reply", info.op_name)

    def finish_request(self, info) -> None:
        # The chain swallows exceptions at this point (the request is
        # already terminal); the rule's ``fired`` counter still proves
        # that the completion notification ran.
        self._fire("finish_request", info.op_name)
