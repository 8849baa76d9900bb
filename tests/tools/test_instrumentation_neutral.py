"""Observing a simulation must never change its simulated answer.

Each instrument is attached to the same payload-free echo run, the
worst case for fixed per-request costs, and the virtual end time that
``Simulation.run()`` returns must equal the uninstrumented run's exactly.
"""

import pytest

from repro.core import OrbConfig, Simulation
from repro.idl import compile_idl
from repro.services import ThrottleInterceptor
from repro.tools import attach_tracer
from repro.tools.observe import attach_observer, detach_observer
from repro.tools.registry import attach_metrics
from repro.tools.tracing import attach_tracing

MOD = compile_idl("interface g { long echo(in long x); };",
                  module_name="neutral_echo_stubs")


def _idle_throttle(world):
    world.services["orb"].register_interceptor(ThrottleInterceptor(seed=0))


def _everything(world):
    attach_observer(world)
    attach_tracing(world)
    attach_metrics(world)
    attach_tracer(world.transport)
    _idle_throttle(world)


INSTRUMENTS = {
    "observer": attach_observer,
    "tracing": attach_tracing,
    "metrics": attach_metrics,
    "packet-trace": lambda world: attach_tracer(world.transport),
    "idle-throttle": _idle_throttle,
    "everything": _everything,
}


def _echo_end_time(attach=None, n=50):
    sim = Simulation(config=OrbConfig(max_outstanding=4))
    if attach is not None:
        attach(sim.world)

    def server_main(ctx):
        class Impl(MOD.g_skel):
            def echo(self, x):
                return x

        ctx.poa.activate(Impl(), "g", kind="spmd")
        ctx.poa.impl_is_ready()

    def client(ctx):
        prx = MOD.g._bind("g")
        for i in range(n):
            assert prx.echo(i) == i

    sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client, host="HOST_1")
    try:
        return sim.run()
    finally:
        detach_observer(sim.world)


def test_plain_run_reaches_a_real_virtual_time():
    assert _echo_end_time() > 0.0


@pytest.mark.parametrize("name", sorted(INSTRUMENTS))
def test_instrument_leaves_virtual_end_time_unchanged(name):
    assert _echo_end_time(INSTRUMENTS[name]) == _echo_end_time()
