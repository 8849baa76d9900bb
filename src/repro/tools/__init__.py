"""Operator tooling: packet tracing, lifecycle observation, distributed
tracing, metrics, summaries.

``attach(world, tracing=..., metrics=...)`` is the one way to
instrument a world; it returns an :class:`Instruments` handle whose
``detach()`` undoes it."""

from .instruments import Instruments, attach
from .observe import (
    RequestObserver,
    Span,
    TraceSession,
    validate_chrome_trace,
)
from .registry import (
    MetricsRegistry,
    flatten_snapshot,
    parse_prometheus_text,
)
from .trace import PacketTrace, RingBuffer, TraceRecord
from .tracing import (
    TRACE_CONTEXT,
    TracingInterceptor,
)

__all__ = ["Instruments", "MetricsRegistry",
           "PacketTrace", "RequestObserver", "RingBuffer", "Span",
           "TRACE_CONTEXT", "TraceRecord", "TraceSession",
           "TracingInterceptor", "attach", "flatten_snapshot",
           "parse_prometheus_text", "validate_chrome_trace"]
