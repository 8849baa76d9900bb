"""PARDIS ORB services layer: replication, admission control, throttling.

Classic ORB practice (TAO's load balancer, RT-CORBA's queueing policies)
puts replica selection and overload policy *above* the request engine —
on the naming/binding seam and the portable-interceptor seam — rather
than inside it.  This package does the same for the reproduction:

* :mod:`repro.services.replicas` — replica groups over the Object
  Repository: pluggable selection policies (round-robin, least-loaded,
  locality-aware), liveness probing with an ALIVE/SUSPECT/DEAD health
  model, transparent failover retry for blocking invocations, and
  re-activation of dead non-persistent replicas through the
  ActivationAgent;
* :mod:`repro.services.admission` — server-side admission control: a
  bounded per-POA request queue served in arrival order, overload
  shedding (clients see :class:`~repro.core.errors.TransientException`),
  and load/backpressure reports piggybacked on reply service contexts;
* :mod:`repro.services.throttle` — the client half of the backpressure
  contract: a portable interceptor that honors server hints and overload
  replies with jittered exponential backoff.

The wire contract (service-context keys) lives in
:mod:`repro.core.request`; everything here is optional — a world that
never touches this package pays nothing on the request path.
"""

from .admission import AdmissionController
from .replicas import (
    ALIVE,
    DEAD,
    SUSPECT,
    LeastLoaded,
    LoadReportInterceptor,
    LocalityAware,
    ReplicaGroup,
    RoundRobin,
    SelectionPolicy,
    failover_invoke,
    make_policy,
)
from .throttle import ThrottleInterceptor

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "AdmissionController",
    "LeastLoaded",
    "LoadReportInterceptor",
    "LocalityAware",
    "ReplicaGroup",
    "RoundRobin",
    "SelectionPolicy",
    "ThrottleInterceptor",
    "failover_invoke",
    "make_policy",
]
