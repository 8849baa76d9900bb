"""Offered-load sweep: graceful degradation under admission control.

Not a paper figure — evidence for the services layer
(:mod:`repro.services`): a single-threaded server with a fixed per-request
service time is driven by a growing number of closed-loop clients (each
issues its next blocking request as soon as the previous one completes).

* **Without admission control** every arrival queues, so once the offered
  load passes the knee the wait of *every* accepted request grows with
  the number of clients — p99 latency climbs without bound.
* **With admission control** (bounded queue, capacity K) an accepted
  request waits at most ~K service times, so accepted-request p99 stays
  flat while the overflow is *shed* promptly (clients see
  :class:`~repro.core.errors.TransientException`) — shed-not-collapse.
* **With the client-side throttle** on top, shed replies and
  backpressure hints pace the clients, so far fewer requests are shed
  at all.  Note the throttle charges its backoff *inside* the next
  request's wall-clock window (a paced client simply offers load
  later), so per-request latency in this series includes deliberate
  client-side waiting — read the bounded-latency claim off the
  un-throttled series and the shed-reduction claim off this one.

All three curves are emitted as dataclass rows (JSON-ready via
:func:`rows_to_json`) and render with the standard plotting helpers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import OrbConfig, Simulation, TransientException
from ..core.simulation import default_network
from ..idl import compile_idl
from ..netsim import ATM_155, Host, Network
from ..services import AdmissionController, ThrottleInterceptor

__all__ = [
    "DEFAULT_CLIENTS",
    "SaturationRow",
    "rows_to_json",
    "run_point",
    "run_saturation",
]

DEFAULT_CLIENTS = (1, 2, 4, 8, 16)
DEFAULT_REQUESTS = 30
#: virtual seconds of servant compute per request
DEFAULT_SERVICE_TIME = 2e-3

_WORK_IDL = """
    interface work {
        long crunch(in long x);
    };
"""

_mod_cache = {}


def _work_module():
    mod = _mod_cache.get("mod")
    if mod is None:
        mod = _mod_cache["mod"] = compile_idl(
            _WORK_IDL, module_name="saturation_stubs")
    return mod


def _network(max_clients: int) -> Network:
    """Like the default §4.1 testbed, but with enough client nodes for
    the sweep (one per closed-loop client thread)."""
    if max_clients <= 4:
        return default_network()
    net = Network()
    net.add_host(Host("HOST_1", nodes=max_clients, node_flops=5.2e6))
    net.add_host(Host("HOST_2", nodes=10, node_flops=6.6e6))
    net.connect("HOST_1", "HOST_2", ATM_155)
    return net


@dataclass
class SaturationRow:
    clients: int
    admission: bool
    accepted: int
    shed: int
    p50_ms: float        # accepted-request latency percentiles
    p99_ms: float
    throughput: float    # served requests per virtual second
    throttled: int       # requests delayed by the client-side throttle


def run_point(n_clients: int,
              requests: int = DEFAULT_REQUESTS,
              service_time: float = DEFAULT_SERVICE_TIME,
              capacity: Optional[int] = None,
              throttle: bool = True,
              session=None) -> SaturationRow:
    """One sweep point: ``n_clients`` closed-loop client threads against
    one server.  ``capacity=None`` disables admission control;
    ``session`` (a :class:`~repro.tools.observe.TraceSession`) observes
    the run."""
    mod = _work_module()
    sim = Simulation(network=_network(n_clients),
                     config=OrbConfig(max_outstanding=1))
    if session is not None:
        mode = ("admission off" if capacity is None
                else "admission on + throttle" if throttle
                else "admission on")
        session.attach(sim, label=f"saturation n={n_clients} {mode}")
    throttler = None
    if capacity is not None and throttle:
        throttler = sim.register_interceptor(ThrottleInterceptor(seed=7))

    def server_main(ctx):
        class WorkImpl(mod.work_skel):
            def crunch(self, x):
                ctx.compute(service_time)
                return x

        ctx.poa.activate(WorkImpl(), "worker", kind="spmd")
        if capacity is not None:
            ctx.poa.set_admission(AdmissionController(capacity=capacity))
        ctx.poa.impl_is_ready()

    latencies: list[float] = []
    shed = [0]
    span = [0.0]

    def client_main(ctx):
        proxy = mod.work._bind("worker")
        for i in range(requests):
            t0 = ctx.now()
            try:
                proxy.crunch(i)
            except TransientException:
                shed[0] += 1
            else:
                latencies.append(ctx.now() - t0)
            span[0] = max(span[0], ctx.now())

    sim.server(server_main, host="HOST_2", name="worker-server")
    sim.client(client_main, host="HOST_1", nprocs=n_clients, name="load")
    sim.run()

    lat = np.asarray(latencies)
    return SaturationRow(
        clients=n_clients,
        admission=capacity is not None,
        accepted=len(latencies),
        shed=shed[0],
        p50_ms=float(np.percentile(lat, 50)) * 1e3 if len(lat) else 0.0,
        p99_ms=float(np.percentile(lat, 99)) * 1e3 if len(lat) else 0.0,
        throughput=(len(latencies) / span[0]) if span[0] > 0 else 0.0,
        throttled=throttler.throttled if throttler is not None else 0,
    )


def run_saturation(clients: Sequence[int] = DEFAULT_CLIENTS,
                   requests: int = DEFAULT_REQUESTS,
                   service_time: float = DEFAULT_SERVICE_TIME,
                   capacity: int = 4,
                   session=None) -> dict[str, list[SaturationRow]]:
    """The full sweep at each client count: admission off, admission on
    (the bounded-latency evidence), and admission on with the client
    throttle (the shed-reduction evidence; see the module docstring for
    why its latency column includes deliberate client pacing).
    ``session`` (a :class:`~repro.tools.observe.TraceSession`) observes
    every run."""
    off = [run_point(n, requests, service_time, capacity=None,
                     session=session)
           for n in clients]
    on = [run_point(n, requests, service_time, capacity=capacity,
                    throttle=False, session=session)
          for n in clients]
    on_throttled = [run_point(n, requests, service_time, capacity=capacity,
                              throttle=True, session=session)
                    for n in clients]
    return {"admission_off": off, "admission_on": on,
            "admission_on_throttled": on_throttled}


def rows_to_json(results: dict[str, list[SaturationRow]],
                 indent: Optional[int] = 2) -> str:
    """JSON document with both curves (the CI artifact)."""
    return json.dumps(
        {series: [dataclasses.asdict(r) for r in rows]
         for series, rows in results.items()},
        indent=indent,
    )
