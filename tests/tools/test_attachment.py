"""Attaching instruments to a world: one seam per layer, any order.

The observer is reached only through ``orb.observer`` (never the
interceptor chain), packet traces all subscribe to
``transport.observers``, and every cross-link between instruments is made
when it is used, so the order of attachment cannot change the result.
"""

from itertools import permutations

import pytest

from repro.core import OrbConfig, Simulation, TransientException
from repro.idl import compile_idl
from repro.services import AdmissionController
from repro.tools import attach_meter, attach_metrics, attach_tracer
from repro.tools.observe import attach_observer
from repro.tools.tracing import attach_tracing

MOD = compile_idl("interface seam { long echo(in long x); };",
                  module_name="attachment_stubs")

ATTACH = {
    "observer": attach_observer,
    "tracing": attach_tracing,
    "metrics": attach_metrics,
    "meter": attach_meter,
}


def _servant(ctx, log=None):
    class Impl(MOD.seam_skel):
        def echo(self, x):
            ctx.compute(1e-3)
            if log is not None:
                log.append(x)
            return x

    return Impl()


def _echo_world(requests=5):
    sim = Simulation()

    def server_main(ctx):
        ctx.poa.activate(_servant(ctx), "seam", kind="spmd")
        ctx.poa.impl_is_ready()

    def client(ctx):
        prx = MOD.seam._bind("seam")
        for i in range(requests):
            assert prx.echo(i) == i
            ctx.compute(1e-4)

    sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client, host="HOST_1")
    return sim


def _utilization(report: str) -> list[str]:
    lines = report.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if "compute utilization" in line)
    return lines[start:]


def _observe_in_order(order):
    sim = _echo_world()
    for name in order:
        ATTACH[name](sim.world)
    sim.run()
    services = sim.world.services
    obs = services["observer"]
    families = set(services["metrics"].snapshot())
    return obs, families


def test_attach_order_does_not_change_results():
    orders = list(permutations(ATTACH))
    assert len(orders) == 24
    reference = None
    for order in orders:
        obs, families = _observe_in_order(order)
        assert {"pardis_trace_events_total",
                "pardis_compute_busy_seconds",
                "pardis_phase_seconds"} <= families, order
        utilization = _utilization(obs.report())
        assert len(obs.spans) > 0
        assert all(s.trace_id for s in obs.spans), order
        if reference is None:
            reference = (families, utilization)
        assert (families, utilization) == reference, order


def test_packet_traces_and_observer_record_every_packet():
    sim = _echo_world()
    first = attach_tracer(sim.world.transport)
    obs = attach_observer(sim.world)
    second = attach_tracer(sim.world.transport)
    sim.run()
    sent = sim.world.transport.packets_sent
    assert sent > 0
    assert len(first) == len(second) == len(obs.packet_trace) == sent


# ---------------------------------------------------------------------------
# An observer alone never touches the interceptor chain
# ---------------------------------------------------------------------------


def _local_world(sim):
    def prog(ctx):
        ctx.poa.activate(_servant(ctx), "seam", kind="spmd")
        prx = MOD.seam._bind("seam")
        assert prx._binding.local
        assert prx.echo(3) == 3

    sim.client(prog, host="HOST_1")


def _shed_world(sim):
    def server_main(ctx):
        ctx.poa.activate(_servant(ctx), "seam", kind="spmd")
        ctx.poa.set_admission(AdmissionController(capacity=1))
        ctx.poa.impl_is_ready()

    def client(ctx):
        prx = MOD.seam._bind("seam")
        for i in range(4):
            try:
                prx.echo(i)
            except TransientException:
                pass

    sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client, host="HOST_1", nprocs=4)


def _failover_world(sim):
    def dying(ctx):
        log = []
        ctx.poa.activate(_servant(ctx, log), "seam", kind="spmd",
                         replica=True)
        while len(log) < 1:
            ctx.poa.process_requests()
            ctx.compute(1e-3)

    def steady(ctx):
        ctx.compute(5e-3)
        ctx.poa.activate(_servant(ctx), "seam", kind="spmd", replica=True)
        ctx.poa.impl_is_ready()

    def client(ctx):
        prx = MOD.seam._bind("seam", policy="round_robin")
        for i in range(3):
            assert prx.echo(i) == i

    sim.server(dying, host="HOST_2", nprocs=1)
    sim.server(steady, host="HOST_2", nprocs=1, node_offset=1)
    sim.client(client, host="HOST_1")


@pytest.mark.parametrize("phase,build,config", [
    ("local", _local_world, None),
    ("shed", _shed_world, OrbConfig(max_outstanding=1)),
    ("failover", _failover_world, OrbConfig(request_timeout=0.05)),
], ids=["local", "shed", "failover"])
def test_observer_alone_leaves_chain_empty(phase, build, config):
    sim = Simulation(config=config)
    obs = sim.attach_observer()
    chain = sim.orb.interceptors
    assert len(chain) == 0 and not chain.active
    build(sim)
    sim.run()
    # A replica group installs the world's load reporter on first bind;
    # nothing else may be on the chain.
    expected = ["load-report"] if phase == "failover" else []
    assert [icept.name for icept in chain] == expected
    assert chain.active == bool(expected)
    assert phase in {s.phase for s in obs.spans}
