#!/usr/bin/env python3
"""Dynamic invocation and packet tracing: talk to a PARDIS object without
its generated stubs, and watch the ORB's protocol on the wire.

The server side is ordinary (IDL-compiled skeleton).  The client side
never imports the stub module: it binds by name and drives the operations
through the Interface Repository — CORBA's Dynamic Invocation Interface,
inherited by PARDIS.

Run:  python examples/dynamic_client.py
"""

import numpy as np

from repro.core import Simulation, dynamic_bind
from repro.idl import compile_idl
from repro.tools import attach

SERVER_IDL = """
    typedef dsequence<double, 4096> samples;
    interface stats {
        double mean(in samples v);
        double maximum(in samples v);
        long count();
    };
"""


def server_main(ctx):
    stubs = compile_idl(SERVER_IDL, module_name="dyn_server_stubs")
    from repro.runtime import collectives as coll

    class StatsImpl(stubs.stats_skel):
        def __init__(self):
            self.calls = 0

        def _reduce(self, local_sum, local_n, op):
            return coll.allreduce(ctx.rts, (local_sum, local_n),
                                  lambda a, b: op(a, b))

        def mean(self, v):
            self.calls += 1
            data = np.asarray(v.owned_data)
            s, n = coll.allreduce(
                ctx.rts, (float(data.sum()), data.size),
                lambda a, b: (a[0] + b[0], a[1] + b[1]))
            return s / n

        def maximum(self, v):
            self.calls += 1
            data = np.asarray(v.owned_data)
            local = float(data.max()) if data.size else float("-inf")
            return coll.allreduce(ctx.rts, local, max)

        def count(self):
            return self.calls

    ctx.poa.activate(StatsImpl(), "stats", kind="spmd")
    ctx.poa.impl_is_ready()


def client_main(ctx):
    # No stub import anywhere in this function: dynamic binding finds the
    # interface definition in the Interface Repository.
    proxy = dynamic_bind("stats", collective=True)
    print(f"[client {ctx.rank}] bound dynamically: {proxy!r}")
    if ctx.rank == 0:
        print(f"[client] operations discovered: {proxy.operations()}")

    v = ctx.dseq(np.linspace(0.0, 10.0, 101))
    mean = proxy.invoke("mean", v)
    fut = proxy.invoke_nb("maximum", v)
    maximum = fut.value()
    calls = proxy.invoke("count")
    if ctx.rank == 0:
        print(f"[client] mean={mean:.3f} max={maximum:.3f} "
              f"(server served {calls} collective calls)")


def main():
    sim = Simulation()
    trace = attach(sim.world).observer.packet_trace
    sim.server(server_main, host="HOST_2", nprocs=2, name="stats-server")
    sim.client(client_main, host="HOST_1", nprocs=2, name="dyn-client")
    sim.run()

    print("\nwire summary:")
    print(trace.summary())
    print("\nfirst protocol packets:")
    print(trace.timeline(limit=8, kinds={"request", "reply",
                                         "arg-fragment"}))


if __name__ == "__main__":
    main()
