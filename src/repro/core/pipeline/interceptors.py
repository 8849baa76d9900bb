"""Portable request interceptors (CORBA's portable-interceptor model).

Cross-cutting request services — tracing, fault injection, throttling
and load reports — hook the request path through a
:class:`RequestInterceptor` registered on the ORB's
:class:`InterceptorChain`, not through inline guards in the engine.  The
chain exposes the five classic interception points:

========================= ====== =========================================
point                     side   fires
========================= ====== =========================================
``send_request``          client after marshaling, before the header and
                                 argument fragments are injected; may add
                                 request ``service_contexts`` or abort the
                                 invocation by raising
``receive_reply``         client after a successful reply is fully
                                 assembled, before futures resolve; raising
                                 turns the success into a failure
``receive_exception``     client when the request fails (error reply, peer
                                 failure, timeout, send-time abort, or a
                                 raising local-bypass servant); may
                                 replace the exception by raising
``receive_request``       server after operation resolution, before
                                 argument collection and the servant call;
                                 raising *sheds* the request (error reply,
                                 orphaned fragments dead-lettered)
``send_reply``            server before the reply header leaves the
                                 authoring thread; may add reply
                                 ``service_contexts``
``finish_request``        server when the dispatched request reaches a
                                 terminal state on this thread — success,
                                 shed, or servant failure alike.  Always
                                 paired with ``receive_request``;
                                 exceptions raised here are swallowed
                                 (the request has already completed)
                                 and counted
========================= ====== =========================================

``service_contexts`` is a plain ``str -> picklable`` dict carried on
:class:`~repro.core.request.RequestHeader` and
:class:`~repro.core.request.ReplyHeader` (GIOP's ServiceContextList).

The chain carries only these points.  Request-lifecycle spans go to
the world's :class:`repro.tools.observe.RequestObserver` through
``orb.observer``, not through the chain.  An empty chain keeps every
hook site at one attribute load plus a truthiness check, so the hot path
is unaffected until an interceptor is registered.
"""

from __future__ import annotations

from typing import Any

from ..errors import BindingError
from ..interfacedef import OpDef
from ..request import RequestHeader

__all__ = [
    "ClientRequestInfo",
    "InterceptorChain",
    "RequestInterceptor",
    "ServerRequestInfo",
    "CLIENT_POINTS",
    "SERVER_POINTS",
    "POINTS",
]

CLIENT_POINTS = ("send_request", "receive_reply", "receive_exception")
SERVER_POINTS = ("receive_request", "send_reply", "finish_request")
POINTS = CLIENT_POINTS + SERVER_POINTS


class ClientRequestInfo:
    """What a client-side interceptor sees about one invocation.

    No ``__slots__``: interceptors keep per-request state on the info.
    ``trace`` is the request's ``(trace_id, span_id, parent_id)`` once
    the tracing interceptor has run; the state machine hands it to the
    observer with every span.
    """

    trace = None

    def __init__(self, ctx: Any, op: OpDef, req_id: tuple, object_name: str,
                 rank: int, oneway: bool, local: bool) -> None:
        self.ctx = ctx                  # PardisContext of the invoking thread
        self.op = op
        self.req_id = req_id
        self.object_name = object_name
        self.rank = rank                # client thread index in the invocation
        self.oneway = oneway
        #: True for a §4.1 local-bypass invocation: nothing travels on the
        #: wire, so ``send_request`` mutations of ``service_contexts`` go
        #: nowhere, but the points still fire around the direct call
        self.local = local
        #: request service contexts; mutations in ``send_request`` travel
        #: on the RequestHeader
        self.service_contexts = {}
        self.reply = None
        self.result = None
        self.exception = None

    @property
    def op_name(self) -> str:
        return self.op.name

    @property
    def reply_service_contexts(self) -> dict:
        return self.reply.service_contexts if self.reply is not None else {}


class ServerRequestInfo:
    """What a server-side interceptor sees about one dispatched request
    (no ``__slots__`` and a ``trace``, as for :class:`ClientRequestInfo`)."""

    trace = None

    def __init__(self, ctx: Any, header: RequestHeader, op: OpDef,
                 servant: Any, is_root: bool) -> None:
        self.ctx = ctx                  # PardisContext of the serving thread
        self.header = header
        self.op = op
        self.servant = servant
        self.is_root = is_root          # this thread authors the reply
        #: reply service contexts; mutations up to ``send_reply`` travel
        #: on the ReplyHeader
        self.reply_service_contexts = {}
        self.result = None
        self.exception = None

    @property
    def op_name(self) -> str:
        return self.header.op

    @property
    def object_name(self) -> str:
        return self.header.object_name

    @property
    def req_id(self) -> tuple:
        return self.header.req_id

    @property
    def service_contexts(self) -> dict:
        return self.header.service_contexts


class RequestInterceptor:
    """Base class: override any subset of the points.  Unoverridden
    points cost nothing — the chain only dispatches to interceptors that
    actually implement a point."""

    name = "interceptor"

    # -- client points -----------------------------------------------------

    def send_request(self, info: ClientRequestInfo) -> None:
        """Before the request leaves the client; raising aborts it."""

    def receive_reply(self, info: ClientRequestInfo) -> None:
        """After a successful reply, before futures resolve."""

    def receive_exception(self, info: ClientRequestInfo) -> None:
        """When the request fails; ``info.exception`` is set."""

    # -- server points -----------------------------------------------------

    def receive_request(self, info: ServerRequestInfo) -> None:
        """Before argument collection; raising sheds the request."""

    def send_reply(self, info: ServerRequestInfo) -> None:
        """Before the reply header is sent by the authoring thread."""

    def finish_request(self, info: ServerRequestInfo) -> None:
        """The dispatched request reached a terminal state on this
        thread (fires exactly once per ``receive_request``, success and
        failure alike); raising here is swallowed."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _overrides(icept: RequestInterceptor, method: str) -> bool:
    return (getattr(type(icept), method, None)
            is not getattr(RequestInterceptor, method))


class InterceptorChain:
    """Ordered registry of interceptors with per-point dispatch lists.

    Points run in registration order.  ``active`` is the precomputed
    fast-path flag the state machines test on the hot path.
    ``finish_request_errors`` counts the exceptions ``finish_request``
    hooks raised (and the chain swallowed).
    """

    __slots__ = ("_interceptors", "_points", "active",
                 "finish_request_errors")

    def __init__(self) -> None:
        self._interceptors: list[RequestInterceptor] = []
        self._points: dict[str, tuple] = {}
        self.active = False
        self.finish_request_errors = 0
        self._rebuild()

    # -- registration ------------------------------------------------------

    def add(self, icept: RequestInterceptor) -> RequestInterceptor:
        if icept in self._interceptors:
            raise BindingError(f"{icept!r} is already registered")
        self._interceptors.append(icept)
        self._rebuild()
        return icept

    def remove(self, icept: RequestInterceptor) -> None:
        try:
            self._interceptors.remove(icept)
        except ValueError:
            raise BindingError(f"{icept!r} is not registered") from None
        self._rebuild()

    def clear(self) -> None:
        self._interceptors.clear()
        self._rebuild()

    def _rebuild(self) -> None:
        self._points = {
            point: tuple(i for i in self._interceptors if _overrides(i, point))
            for point in POINTS
        }
        self.active = bool(self._interceptors)

    def __len__(self) -> int:
        return len(self._interceptors)

    def __iter__(self):
        return iter(self._interceptors)

    def __contains__(self, icept) -> bool:
        return icept in self._interceptors

    # -- point dispatch ----------------------------------------------------

    def send_request(self, info: ClientRequestInfo) -> None:
        for icept in self._points["send_request"]:
            icept.send_request(info)

    def receive_reply(self, info: ClientRequestInfo) -> None:
        for icept in self._points["receive_reply"]:
            icept.receive_reply(info)

    def receive_exception(self, info: ClientRequestInfo) -> None:
        for icept in self._points["receive_exception"]:
            icept.receive_exception(info)

    def receive_request(self, info: ServerRequestInfo) -> None:
        for icept in self._points["receive_request"]:
            icept.receive_request(info)

    def send_reply(self, info: ServerRequestInfo) -> None:
        for icept in self._points["send_reply"]:
            icept.send_reply(info)

    def finish_request(self, info: ServerRequestInfo) -> None:
        """Completion notification: every registered hook runs even if an
        earlier one raises (the request is already terminal, so failures
        here must not disturb the server loop); each swallowed exception
        counts in ``finish_request_errors``."""
        for icept in self._points["finish_request"]:
            try:
                icept.finish_request(info)
            except Exception:
                self.finish_request_errors += 1

    def __repr__(self) -> str:
        names = ", ".join(i.name for i in self._interceptors)
        return f"<InterceptorChain [{names}]>"
