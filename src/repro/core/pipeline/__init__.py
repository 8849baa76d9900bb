"""The unified request pipeline of the PARDIS ORB.

Both halves of the ORB — the client engine (`repro.core.invocation`) and
the server POA (`repro.core.poa`) — drive their requests through this
package instead of through private inline loops:

* :mod:`~repro.core.pipeline.courier` — the :class:`FragmentCourier`
  owns the *one* fragment send loop and the *one* receive/insert loop
  for distributed-argument transfer (client in-args, server in-args,
  server out-args, client out-args all go through it);
* :mod:`~repro.core.pipeline.state` — explicit
  :class:`ClientRequestState` / :class:`ServerRequestState` machines
  that replace the interleaved bodies of ``invoke()``, its
  reply-progress loop and ``POA._handle``;
* :mod:`~repro.core.pipeline.interceptors` — a CORBA-style
  portable-interceptor chain (``send_request`` / ``receive_reply`` /
  ``receive_exception`` on the client, ``receive_request`` /
  ``send_reply`` on the server) with ``service_contexts`` carried on
  the wire headers; tracing, deadline propagation and fault injection
  all hang off this seam instead of inline guards (the request observer
  is fed directly through ``orb.observer``).
"""

from .courier import FragmentCourier, redistribute_exchange
from .deadline import DEADLINE_CONTEXT, DeadlineExpired, DeadlineInterceptor
from .faults import FaultInjectionInterceptor, FaultRule
from .interceptors import (
    ClientRequestInfo,
    InterceptorChain,
    RequestInterceptor,
    ServerRequestInfo,
)
from .state import ClientRequestState, ServerRequestState

__all__ = [
    "ClientRequestInfo",
    "ClientRequestState",
    "DEADLINE_CONTEXT",
    "DeadlineExpired",
    "DeadlineInterceptor",
    "FaultInjectionInterceptor",
    "FaultRule",
    "FragmentCourier",
    "InterceptorChain",
    "RequestInterceptor",
    "ServerRequestInfo",
    "ServerRequestState",
    "redistribute_exchange",
]
