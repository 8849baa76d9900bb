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
     "span_id":  "16-hex-chars"}   # the sender's span (receiver's parent)

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

Every trace is recorded: there is no sampling.

The interceptor implements only the interception points.  Spans are
recorded by the world's observer, which the ORB feeds through
``orb.observer`` rather than the chain; ``repro.tools.attach(world,
tracing=True)`` installs both and links them.  A bare interceptor
registered on the chain leaves the per-request span machinery dormant;
that is what keeps the benchmark-enforced overhead budget (≤5 % vs the
empty chain, see ``benchmarks/bench_infrastructure.py``).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Optional

from ..core.pipeline.interceptors import (
    ClientRequestInfo,
    RequestInterceptor,
    ServerRequestInfo,
)
from .._record import FrozenRecord
from ..core.request import TRACE_CONTEXT
from ..simkernel import SimKernel

__all__ = [
    "TRACE_CONTEXT",
    "TraceContext",
    "TracingInterceptor",
]

#: SimThread-local key holding the stack of open trace scopes
_STACK_KEY = "pardis.trace_stack"
#: Entries the request -> context index keeps before evicting the oldest
INDEX_CAPACITY = 8192

_set = object.__setattr__


def _derive(text: str) -> str:
    """Deterministic 64-bit hex id of ``text``."""
    return blake2b(text.encode(), digest_size=8).hexdigest()


class TraceContext(FrozenRecord):
    """One request's position in a distributed trace.

    ``trace_id`` names the whole journey (pure hex, derived from the
    root request id); ``span_id`` this hop's span on one side — a
    ``c:``/``s:`` prefix plus the request-id hash, so both sides of both
    this and every nested request get distinct ids from *one* hash
    apiece; ``parent_id`` the span that caused it (empty for a root).
    The interception points carry only the wire dict; a context is built
    for the request index, while an observer is linked.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: str = "") -> None:
        _set(self, "trace_id", trace_id)
        _set(self, "span_id", span_id)
        _set(self, "parent_id", parent_id)

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


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

    def __init__(self) -> None:
        #: (req str, "client"|"server") -> TraceContext, bounded FIFO
        self._by_req: dict[tuple, TraceContext] = {}
        #: link to the world's RequestObserver (set by repro.tools.attach)
        self.observer = None
        self.counters = {
            "traces_started": 0,     # roots created on this world
            "traces_joined": 0,      # wire contexts adopted by servers
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
        if key not in by and len(by) >= INDEX_CAPACITY:
            del by[next(iter(by))]
            self.counters["contexts_evicted"] += 1
        by[key] = tctx

    # -- client points -----------------------------------------------------
    # The scope stacks hold wire dicts: their two ids are all a nested
    # request needs.

    def send_request(self, info: ClientRequestInfo) -> None:
        req = str(info.req_id)
        h = _derive(req)
        locals_ = SimKernel.current().locals
        stack = locals_.get(_STACK_KEY)
        if stack:
            top = stack[-1]
            trace_id, parent_id = top["trace_id"], top["span_id"]
        else:
            # A new root: the request-id hash doubles as the trace id.
            trace_id, parent_id = h, ""
            self.counters["traces_started"] += 1
        span_id = "c:" + h
        wire = info._trace = info.service_contexts[TRACE_CONTEXT] = {
            "trace_id": trace_id, "span_id": span_id}
        if self.observer is not None:
            self._remember(req, "client",
                           TraceContext(trace_id, span_id, parent_id))
        if info.local:
            # Frame the direct call: the servant body runs on this very
            # thread, so its own downstream invocations must parent here.
            if stack is None:
                stack = locals_[_STACK_KEY] = []
            stack.append(wire)
            self.counters["local_scopes"] += 1

    def receive_reply(self, info: ClientRequestInfo) -> None:
        wire = getattr(info, "_trace", None)
        if wire is None:
            return  # an earlier interceptor aborted before we ran
        if info.local:
            stack = SimKernel.current().locals.get(_STACK_KEY)
            if stack and stack[-1] is wire:
                stack.pop()
        reply = info.reply
        if reply is not None and TRACE_CONTEXT in reply.service_contexts:
            self.counters["replies_echoed"] += 1

    receive_exception = receive_reply

    # -- server points -----------------------------------------------------

    def receive_request(self, info: ServerRequestInfo) -> None:
        wire = info.header.service_contexts.get(TRACE_CONTEXT)
        if wire is not None:
            trace_id = wire["trace_id"]
            parent_id = wire["span_id"]
            self.counters["traces_joined"] += 1
            # A parent from our own client side is "c:" + hash(req id);
            # reuse that hash rather than recomputing it.
            h = parent_id[2:] if parent_id[:2] == "c:" else _derive(
                str(info.req_id))
        else:
            # Untraced client: root the trace at the server.
            h = _derive(str(info.req_id))
            trace_id, parent_id = h, ""
            self.counters["traces_started"] += 1
        span_id = "s:" + h
        mine = info._trace = {"trace_id": trace_id, "span_id": span_id}
        if self.observer is not None:
            self._remember(str(info.req_id), "server",
                           TraceContext(trace_id, span_id, parent_id))
        locals_ = SimKernel.current().locals
        stack = locals_.get(_STACK_KEY)
        if stack is None:
            stack = locals_[_STACK_KEY] = []
        stack.append(mine)

    def send_reply(self, info: ServerRequestInfo) -> None:
        mine = getattr(info, "_trace", None)
        if mine is not None:
            info.reply_service_contexts[TRACE_CONTEXT] = mine

    def finish_request(self, info: ServerRequestInfo) -> None:
        mine = getattr(info, "_trace", None)
        if mine is None:
            return  # shed before our receive_request ran
        stack = SimKernel.current().locals.get(_STACK_KEY)
        if stack and stack[-1] is mine:
            stack.pop()
