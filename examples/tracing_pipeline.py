#!/usr/bin/env python3
"""Distributed tracing across the §4.3 pipeline: one request chain,
three worlds, one stitched tree.

The diffusion client invokes the gradient server, whose servant — while
*inside* the dispatched request — invokes its visualizer.  Each hop
carries a trace context in the request's service contexts (the CORBA
ServiceContextList), so the spans recorded by three independent worlds
stitch into a single causal tree with per-hop latency attribution.  A
metrics registry collects labeled counters and histograms from every
layer alongside.

Run:  python examples/tracing_pipeline.py [PROCS] [STEPS]
"""

import sys

from repro.core import Simulation
from repro.experiments.fig5_pipeline import _network
from repro.apps.diffusion import diffusion_client_main
from repro.apps.gradient import gradient_server_main
from repro.apps.visualizer import visualizer_server_main
from repro.tools import attach


def main():
    procs = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    n = 64

    sim = Simulation(network=_network())
    instruments = attach(sim.world, tracing=True, metrics=True)
    obs, tracer = instruments.observer, instruments.tracer

    sim.server(visualizer_server_main, host="SGI_PC", nprocs=1,
               node_offset=9, args=("diff_visualizer",), name="viz-diff")
    sim.server(visualizer_server_main, host="INDY", nprocs=1,
               args=("grad_visualizer",), name="viz-grad")
    sim.server(gradient_server_main, host="SP2", nprocs=procs,
               args=(n, "grad_visualizer"), name="gradient")

    reports: dict = {}
    sim.client(diffusion_client_main, host="SGI_PC", nprocs=procs,
               args=(steps, 2, n, 0.1, "field_operations",
                     "diff_visualizer", reports), name="diffusion")
    sim.run()

    # Find a trace whose tree spans at least three programs — the
    # diffusion -> gradient -> visualizer chain.
    nodes = obs._trace_nodes()
    by_trace: dict = {}
    for node in nodes.values():
        by_trace.setdefault(node["trace_id"], set()).add(node["program"])
    deep = [tid for tid, progs in sorted(by_trace.items())
            if len(progs) >= 3]
    assert deep, "no cross-world chain completed; raise STEPS"

    print(f"{len(by_trace)} traces recorded; "
          f"{len(deep)} span(s) 3 programs or more\n")
    print("one stitched trace (client world -> gradient world -> "
          "visualizer world):\n")
    full = obs.trace_tree()
    block = [part for part in full.split("trace ")
             if part.startswith(deep[0] + " ")]
    print("trace " + block[0])

    print("tracer counters:")
    for name, value in sorted(tracer.counters.items()):
        print(f"  {name:<18} {value}")

    print("\nmetrics registry (excerpt of the Prometheus exposition):")
    for line in instruments.registry.prometheus_text().splitlines():
        if line.startswith(("pardis_requests_total",
                            "pardis_trace_events_total")):
            print(f"  {line}")


if __name__ == "__main__":
    main()
