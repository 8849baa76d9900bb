"""Distributed tracing with wire-propagated context (CORBA-style).

A Fig-5 pipeline (visualizer → gradient → solver) runs three worlds of
observers, each recording spans that know nothing about each other; the
paper reconstructed the causal chain by hand (§6.3).  This module closes
that gap the way production ORBs did: a :class:`TracingInterceptor`
rides the portable-interceptor chain and carries a :class:`TraceContext`
inside the request's ``service_contexts`` (GIOP ServiceContextList), so
every hop — including SPMD fan-out to all servant threads, nested
downstream invocations made from inside a servant, and §4.1 local
bypasses — joins one trace.

Wire format, under the :data:`TRACE_CONTEXT` key (``"pardis.trace"``)::

    {"trace_id": "16-hex-chars",   # whole-journey id
     "span_id":  "16-hex-chars",   # the sender's span (receiver's parent)
     "sampled":  bool}             # head-based sampling verdict

Replies echo the *server's* context back under the same key, so clients
can attribute per-hop latency without a collector.  The context is not
charged to the headers' simulated size (see
:data:`repro.core.request.TRACE_CONTEXT`), so tracing never moves
virtual time.

Identifiers are derived deterministically from the request id (BLAKE2b,
no randomness), which buys two properties the simulator needs:

* every thread of an SPMD collective invocation derives the *same*
  trace/span ids without communicating — the fan-out shares one logical
  span per side, exactly mirroring the paper's "one parallel entity"
  model (§3.1);
* traces are reproducible run-to-run, so tests can assert on structure.

Sampling is **head-based** (the root decides once, deterministically on
the trace id, and every downstream hop inherits the verdict) with an
**always-on-error** escape hatch: unsampled spans are buffered by the
observer and promoted to the permanent store when their request fails.

The interceptor implements only the interception points — none of the
span-sink hooks — so registering it alone leaves the chain's
``wants_spans`` fast-path flag off and the per-request span machinery
dormant; that is what keeps the benchmark-enforced overhead budget
(≤5 % vs the empty chain, see ``benchmarks/bench_infrastructure.py``).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Optional

from ..core.pipeline.interceptors import (
    ClientRequestInfo,
    RequestInterceptor,
    ServerRequestInfo,
)
from ..core.request import TRACE_CONTEXT
from ..simkernel import SimKernel

__all__ = [
    "TRACE_CONTEXT",
    "TraceContext",
    "HeadSampling",
    "TracingInterceptor",
    "attach_tracing",
    "detach_tracing",
]

#: SimThread-local key holding the stack of open trace scopes
_STACK_KEY = "pardis.trace_stack"


def _derive(text: str) -> str:
    """Deterministic 64-bit hex id of ``text``."""
    return blake2b(text.encode(), digest_size=8).hexdigest()


class TraceContext:
    """One request's position in a distributed trace.

    ``trace_id`` names the whole journey (pure hex, derived from the
    root request id); ``span_id`` this hop's span on one side — a
    ``c:``/``s:`` prefix plus the request-id hash, so both sides of both
    this and every nested request get distinct ids from *one* hash
    apiece; ``parent_id`` the span that caused it (empty for a root).
    ``sampled`` is the head-based verdict the root made — downstream
    hops inherit it unchanged.

    (A ``__slots__`` class rather than a dataclass: two of these are
    created per traced request, on the budget-gated hot path.)
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, parent_id: str = "",
                 sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": self.sampled}

    def __eq__(self, other) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id
                and self.sampled == other.sampled)

    def __repr__(self) -> str:
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, parent_id={self.parent_id!r}, "
                f"sampled={self.sampled!r})")


class HeadSampling:
    """Deterministic head-based sampling: the decision is a pure function
    of the trace id, so every SPMD thread of a collective invocation —
    and every downstream hop — reaches the same verdict independently."""

    def __init__(self, rate: float = 1.0) -> None:
        self.rate = rate

    def sample(self, trace_id: str) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        return int(trace_id, 16) % 10_000 < round(self.rate * 10_000)


class TracingInterceptor(RequestInterceptor):
    """Propagates :class:`TraceContext` through the interception points.

    Scope model: each computing thread keeps a stack of open scopes in
    its SimThread locals.  ``receive_request`` pushes the server scope
    (popped by ``finish_request``); a §4.1 local bypass pushes its client
    scope for the duration of the direct call (popped by
    ``receive_reply``/``receive_exception``).  A ``send_request`` whose
    thread has an open scope parents the new span under it — that is the
    stitch that joins nested downstream invocations into one tree.
    """

    name = "tracing"

    def __init__(self, sampler: Optional[HeadSampling] = None,
                 always_on_error: bool = True,
                 capacity: int = 8192) -> None:
        self.sampler = sampler or HeadSampling()
        self.always_on_error = always_on_error
        self.capacity = capacity
        #: (req str, "client"|"server") -> TraceContext, bounded FIFO
        self._by_req: dict[tuple, TraceContext] = {}
        #: cross-link to the world's RequestObserver (set by attach)
        self.observer = None
        self.counters = {
            "traces_started": 0,     # roots created on this world
            "traces_joined": 0,      # wire contexts adopted by servers
            "traces_unsampled": 0,   # roots the sampler rejected
            "replies_echoed": 0,     # reply contexts seen by clients
            "local_scopes": 0,       # §4.1 bypasses framed
            "contexts_evicted": 0,   # FIFO evictions from the index
        }

    # -- context index -----------------------------------------------------

    def lookup(self, req, side: str) -> Optional[TraceContext]:
        """The context recorded for one request on one side, if any.

        The index is only maintained while an observer is cross-linked
        (it exists to annotate spans); a bare tracer skips it to stay
        inside the overhead budget.
        """
        return self._by_req.get((str(req), side))

    def _remember(self, req: str, side: str, tctx: TraceContext) -> None:
        by = self._by_req
        key = (req, side)
        if key not in by and len(by) >= self.capacity:
            del by[next(iter(by))]
            self.counters["contexts_evicted"] += 1
        by[key] = tctx

    # -- client points -----------------------------------------------------

    def send_request(self, info: ClientRequestInfo) -> None:
        req = str(info.req_id)
        h = _derive(req)
        locals_ = SimKernel.current().locals
        stack = locals_.get(_STACK_KEY)
        if stack:
            top = stack[-1]
            trace_id, parent_id, sampled = (top.trace_id, top.span_id,
                                            top.sampled)
        else:
            # A new root: the request-id hash doubles as the trace id.
            trace_id, parent_id = h, ""
            sampled = self.sampler.sample(trace_id)
            self.counters["traces_started"] += 1
            if not sampled:
                self.counters["traces_unsampled"] += 1
        tctx = TraceContext(trace_id, "c:" + h, parent_id, sampled)
        if self.observer is not None:
            self._remember(req, "client", tctx)
        info._tctx = tctx
        info.service_contexts[TRACE_CONTEXT] = tctx.to_wire()
        if info.local:
            # Frame the direct call: the servant body runs on this very
            # thread, so its own downstream invocations must parent here.
            if stack is None:
                stack = locals_[_STACK_KEY] = []
            stack.append(tctx)
            self.counters["local_scopes"] += 1

    def _close_client(self, info: ClientRequestInfo) -> None:
        tctx = getattr(info, "_tctx", None)
        if tctx is None:
            return  # an earlier interceptor aborted before we ran
        if info.local:
            stack = SimKernel.current().locals.get(_STACK_KEY)
            if stack and stack[-1] is tctx:
                stack.pop()
        reply = info.reply
        if reply is not None and TRACE_CONTEXT in reply.service_contexts:
            self.counters["replies_echoed"] += 1
        # Client-side sampling buffers resolve in the observer's own
        # request_finished hook (it fires after the last client span);
        # only the server side, which has no such hook, resolves here.

    def receive_reply(self, info: ClientRequestInfo) -> None:
        self._close_client(info)

    def receive_exception(self, info: ClientRequestInfo) -> None:
        self._close_client(info)

    # -- server points -----------------------------------------------------

    def receive_request(self, info: ServerRequestInfo) -> None:
        wire = info.header.service_contexts.get(TRACE_CONTEXT)
        if wire is not None:
            trace_id = wire["trace_id"]
            parent_id = wire["span_id"]
            sampled = wire.get("sampled", True)
            self.counters["traces_joined"] += 1
            # A parent from our own client side is "c:" + hash(req id);
            # reuse that hash rather than recomputing it.
            h = parent_id[2:] if parent_id[:2] == "c:" else _derive(
                str(info.req_id))
        else:
            # Untraced client: root the trace at the server.
            h = _derive(str(info.req_id))
            trace_id, parent_id = h, ""
            sampled = self.sampler.sample(trace_id)
            self.counters["traces_started"] += 1
            if not sampled:
                self.counters["traces_unsampled"] += 1
        tctx = TraceContext(trace_id, "s:" + h, parent_id, sampled)
        if self.observer is not None:
            self._remember(str(info.req_id), "server", tctx)
        info._tctx = tctx
        locals_ = SimKernel.current().locals
        stack = locals_.get(_STACK_KEY)
        if stack is None:
            stack = locals_[_STACK_KEY] = []
        stack.append(tctx)

    def send_reply(self, info: ServerRequestInfo) -> None:
        tctx = getattr(info, "_tctx", None)
        if tctx is not None:
            info.reply_service_contexts[TRACE_CONTEXT] = tctx.to_wire()

    def finish_request(self, info: ServerRequestInfo) -> None:
        tctx = getattr(info, "_tctx", None)
        if tctx is None:
            return  # shed before our receive_request ran
        stack = SimKernel.current().locals.get(_STACK_KEY)
        if stack and stack[-1] is tctx:
            stack.pop()
        if self.observer is not None and self.always_on_error:
            self.observer._resolve_trace(str(info.req_id), "server",
                                         info.ctx.rank,
                                         info.exception is not None)


# ---------------------------------------------------------------------------
# Attachment
# ---------------------------------------------------------------------------


def attach_tracing(world, sampler: Optional[HeadSampling] = None,
                   always_on_error: bool = True) -> TracingInterceptor:
    """Install a :class:`TracingInterceptor` on a world (before ``run()``).

    Registers it on the ORB's interceptor chain, publishes it as
    ``world.services["tracer"]``, and cross-links it with a previously
    attached :class:`~repro.tools.observe.RequestObserver` so spans gain
    trace/span/parent ids (attachment order doesn't matter — whichever
    attaches second completes the link).
    """
    tracer = TracingInterceptor(sampler=sampler,
                                always_on_error=always_on_error)
    world.services["tracer"] = tracer
    orb = world.services.get("orb")
    if orb is not None:
        orb.register_interceptor(tracer)
    obs = world.services.get("observer")
    if obs is not None:
        obs.tracer = tracer
        tracer.observer = obs
    return tracer


def detach_tracing(world) -> Optional[TracingInterceptor]:
    """Undo :func:`attach_tracing`; returns the removed tracer."""
    tracer = world.services.pop("tracer", None)
    if tracer is None:
        return None
    orb = world.services.get("orb")
    if orb is not None and tracer in orb.interceptors:
        orb.unregister_interceptor(tracer)
    obs = world.services.get("observer")
    if obs is not None and getattr(obs, "tracer", None) is tracer:
        obs.tracer = None
    tracer.observer = None
    return tracer
