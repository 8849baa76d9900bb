"""Distributed tracing with wire-propagated context (CORBA-style).

A Fig-5 pipeline (visualizer → gradient → solver) runs three worlds of
observers, each recording spans that know nothing about each other; the
paper reconstructed the causal chain by hand (§6.3).  This module closes
that gap the way production ORBs did: a :class:`TracingInterceptor`
rides the portable-interceptor chain and carries a trace context inside
the request's ``service_contexts`` (GIOP ServiceContextList), so every
hop — including SPMD fan-out to all servant threads, nested downstream
invocations made from inside a servant, and §4.1 local bypasses — joins
one trace.

Wire format, under the :data:`TRACE_CONTEXT` key (``"pardis.trace"``)::

    {"trace_id": "3.c.0.1",     # whole-journey id: the root request's
     "span_id":  "c:3.c.0.1"}   # the sender's span (receiver's parent)

Replies echo the *server's* context back under the same key, so clients
can attribute per-hop latency without a collector.  The context is not
charged to the headers' simulated size (see
:data:`repro.core.request.TRACE_CONTEXT`), so tracing never moves
virtual time.

Identifiers are the request id written out (:func:`request_trace_id`:
program id, binding scope, binding counter and sequence number joined
by dots, no hashing, no randomness); a span id prefixes it with ``c:``
or ``s:`` for its side.  That buys two properties the simulator needs:

* every thread of an SPMD collective invocation shares the request id,
  so all of them get the *same* trace/span ids without communicating —
  the fan-out shares one logical span per side, exactly mirroring the
  paper's "one parallel entity" model (§3.1);
* traces are reproducible run-to-run, so tests can assert on structure.

Every trace is recorded: there is no sampling.

The interceptor implements only the interception points.  Each point
that opens a span stores ``(trace_id, span_id, parent_id)`` as the
request info's ``trace``; the request's state machine hands that tuple
to the world's observer with every span it reports through
``orb.observer``, so a span carries exactly the context that went on the
wire.  ``repro.tools.attach(world, tracing=True)`` installs both.  A
bare interceptor registered on the chain records no spans; that is what
keeps the benchmark-enforced overhead budget (≤5 % vs the empty chain,
see ``benchmarks/bench_infrastructure.py``).
"""

from __future__ import annotations

from ..core.pipeline.interceptors import (
    ClientRequestInfo,
    RequestInterceptor,
    ServerRequestInfo,
)
from ..core.request import TRACE_CONTEXT
from ..simkernel import SimKernel

__all__ = [
    "TRACE_CONTEXT",
    "TracingInterceptor",
    "request_trace_id",
]

#: SimThread-local key holding the stack of open trace scopes
_STACK_KEY = "pardis.trace_stack"


def request_trace_id(req_id) -> str:
    """The id of request ``req_id`` (``((program_id, scope, binding),
    seq)``, see :meth:`repro.core.invocation.Binding.next_req_id`): its
    four fields joined by dots.  No field contains a dot, so distinct
    requests never share an id."""
    (program_id, scope, binding), seq = req_id
    return f"{program_id}.{scope}.{binding}.{seq}"


class TracingInterceptor(RequestInterceptor):
    """Propagates the trace context through the interception points.

    Scope model: each computing thread keeps a stack of open scopes in
    its SimThread locals.  ``receive_request`` pushes the server scope
    (popped by ``finish_request``); a §4.1 local bypass pushes its client
    scope for the duration of the direct call (popped by
    ``receive_reply``/``receive_exception``).  A ``send_request`` whose
    thread has an open scope parents the new span under it — that is the
    stitch that joins nested downstream invocations into one tree.  The
    scopes are the infos' ``trace`` tuples.
    """

    name = "tracing"

    def __init__(self) -> None:
        self.counters = {
            "traces_started": 0,     # roots created on this world
            "traces_joined": 0,      # wire contexts adopted by servers
            "replies_echoed": 0,     # reply contexts seen by clients
            "local_scopes": 0,       # §4.1 bypasses framed
        }

    # -- client points -----------------------------------------------------

    def send_request(self, info: ClientRequestInfo) -> None:
        rid = request_trace_id(info.req_id)
        locals_ = SimKernel.current().locals
        stack = locals_.get(_STACK_KEY)
        if stack:
            top = stack[-1]
            trace_id, parent_id = top[0], top[1]
        else:
            # A new root: the request id doubles as the trace id.
            trace_id, parent_id = rid, ""
            self.counters["traces_started"] += 1
        span_id = "c:" + rid
        trace = info.trace = (trace_id, span_id, parent_id)
        info.service_contexts[TRACE_CONTEXT] = {
            "trace_id": trace_id, "span_id": span_id}
        if info.local:
            # Frame the direct call: the servant body runs on this very
            # thread, so its own downstream invocations must parent here.
            if stack is None:
                stack = locals_[_STACK_KEY] = []
            stack.append(trace)
            self.counters["local_scopes"] += 1

    def receive_reply(self, info: ClientRequestInfo) -> None:
        trace = info.trace
        if trace is None:
            return  # an earlier interceptor aborted before we ran
        if info.local:
            stack = SimKernel.current().locals.get(_STACK_KEY)
            if stack and stack[-1] is trace:
                stack.pop()
        reply = info.reply
        if reply is not None and TRACE_CONTEXT in reply.service_contexts:
            self.counters["replies_echoed"] += 1

    receive_exception = receive_reply

    # -- server points -----------------------------------------------------

    def receive_request(self, info: ServerRequestInfo) -> None:
        rid = request_trace_id(info.req_id)
        wire = info.header.service_contexts.get(TRACE_CONTEXT)
        if wire is not None:
            trace_id, parent_id = wire["trace_id"], wire["span_id"]
            self.counters["traces_joined"] += 1
        else:
            # Untraced client: root the trace at the server.
            trace_id, parent_id = rid, ""
            self.counters["traces_started"] += 1
        trace = info.trace = (trace_id, "s:" + rid, parent_id)
        locals_ = SimKernel.current().locals
        stack = locals_.get(_STACK_KEY)
        if stack is None:
            stack = locals_[_STACK_KEY] = []
        stack.append(trace)

    def send_reply(self, info: ServerRequestInfo) -> None:
        trace = info.trace
        if trace is not None:
            info.reply_service_contexts[TRACE_CONTEXT] = {
                "trace_id": trace[0], "span_id": trace[1]}

    def finish_request(self, info: ServerRequestInfo) -> None:
        trace = info.trace
        if trace is None:
            return  # shed before our receive_request ran
        stack = SimKernel.current().locals.get(_STACK_KEY)
        if stack and stack[-1] is trace:
            stack.pop()
