"""Instrumenting a world: one ``attach`` makes every link, one
``detach`` undoes them.

The observer is reached only through ``orb.observer`` (never the
interceptor chain), its packet trace subscribes to
``transport.observers``, the registry is bound to it by ``attach``
itself, and the tracer shares no link with it (each request carries its
own trace context), so every flag combination gives the same results for
what it shares.
"""

from itertools import product

import pytest

from repro.core import OrbConfig, Simulation, TransientException
from repro.idl import compile_idl
from repro.services import AdmissionController
from repro.tools import attach

MOD = compile_idl("interface seam { long echo(in long x); };",
                  module_name="attachment_stubs")


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


def test_every_flag_combination_links_its_instruments():
    shared_families = set()
    for tracing, metrics in product((False, True), repeat=2):
        flags = dict(tracing=tracing, metrics=metrics)
        sim = _echo_world()
        handle = attach(sim.world, **flags)
        sim.run()
        obs = handle.observer
        assert len(obs.spans) > 0, flags
        assert (handle.tracer is not None) == tracing, flags
        assert (handle.registry is not None) == metrics, flags
        assert all(bool(s.trace_id) == tracing for s in obs.spans), flags
        if metrics:
            families = set(handle.registry.snapshot())
            traced = "pardis_trace_events_total"
            assert "pardis_phase_seconds" in families, flags
            assert (traced in families) == tracing, flags
            shared_families.add(frozenset(families - {traced}))
    assert len(shared_families) == 1


def test_observer_packet_trace_records_every_packet():
    sim = _echo_world()
    obs = attach(sim.world).observer
    assert sim.world.transport.observers == [obs.packet_trace]
    sim.run()
    sent = sim.world.transport.packets_sent
    assert sent > 0
    assert len(obs.packet_trace) == sent


def test_detach_undoes_every_link():
    sim = _echo_world(requests=10)
    handle = attach(sim.world, tracing=True, metrics=True)
    obs, tracer = handle.observer, handle.tracer
    sim.run(until=0.01)  # about half of the requests
    traced, started = tracer.counters["traces_started"], len(obs.requests)
    assert traced > 0 and started > 0
    handle.detach()
    orb = sim.orb
    assert orb.observer is None
    assert sim.world.transport.observers == []
    assert tracer not in orb.interceptors and len(orb.interceptors) == 0
    # The rest of the run reaches none of the instruments for new
    # requests; a request in flight at detach finishes its spans in the
    # observer it started with, so none of its records stays pending.
    sim.run()
    assert sim.world.transport.packets_sent > len(obs.packet_trace)
    assert tracer.counters["traces_started"] == traced
    assert len(obs.requests) == started
    pending = [key for key, (_op, _t0, t1, _status) in obs.requests.items()
               if t1 is None]
    assert pending == []
    handle.detach()  # idempotent


def test_request_in_flight_at_detach_keeps_its_trace():
    """A request in flight at ``detach()`` records every one of its
    spans, the ones after detach included, under one trace id."""
    sim = _echo_world(requests=10)
    handle = attach(sim.world, tracing=True)
    obs = handle.observer
    sim.run(until=0.01)
    handle.detach()
    sim.run()
    by_req = {}
    for s in obs.spans:
        by_req.setdefault(s.req, []).append(s)
    spans = max(by_req.values(), key=lambda group: group[-1].t1)
    phases = {s.phase for s in spans}
    assert {"wait", "unmarshal"} <= phases
    assert max(s.t1 for s in spans) > 0.01  # some spans came after detach
    assert len({s.trace_id for s in spans}) == 1
    assert spans[0].trace_id != ""


def test_second_attach_raises():
    sim = _echo_world()
    handle = attach(sim.world)
    with pytest.raises(ValueError, match="already instrumented"):
        attach(sim.world, tracing=True)
    assert sim.orb.observer is handle.observer
    assert sim.world.transport.observers == [handle.observer.packet_trace]
    handle.detach()
    assert attach(sim.world).observer is not handle.observer
    sim.close()


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
    obs = attach(sim.world).observer
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
