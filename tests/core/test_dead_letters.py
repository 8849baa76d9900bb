"""Dead-lettered traffic leaves nothing behind.

A request that is shed or abandoned can still have messages in flight
to several endpoints: its argument fragments to every SPMD server
thread, and its reply and result fragments back to the client.  Once
the next request on each thread has run, none of them may stay queued,
and every pooled payload lease must be back in the pool.
"""

import numpy as np
import pytest

from repro.core import OrbConfig, Simulation, SystemException, TransientException
from repro.idl import compile_idl
from repro.runtime.program import PORT_ORB
from repro.runtime.tags import TAG_ARG_FRAGMENT
from repro.services import AdmissionController

IDL = """
    typedef dsequence<double, 1024> dlvec;
    interface dlsvc {
        double total(in dlvec v);
        void make(in long n, out dlvec v);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="dead_letter_stubs")


def _server(mod, *, capacity=None, make_time=0.0):
    def server_main(ctx):
        class Impl(mod.dlsvc_skel):
            def total(self, v):
                ctx.compute(2e-3)
                return float(np.sum(v.owned_data))

            def make(self, n):
                ctx.compute(n * make_time)
                return mod.dlvec(np.arange(float(n + 8)))

        ctx.poa.activate(Impl(), "dl", kind="spmd")
        if capacity is not None:
            ctx.poa.set_admission(AdmissionController(capacity=capacity))
        ctx.poa.impl_is_ready()

    return server_main


def test_shed_spmd_request_drains_fragments_on_every_server_thread(mod):
    """Only rank 0 decides a shed and never forwards the header, yet the
    shed request's argument fragments also land on rank 1."""
    sim = Simulation(config=OrbConfig(max_outstanding=1))
    server = sim.server(_server(mod, capacity=1), host="HOST_2", nprocs=2)
    results = {"ok": 0, "shed": 0}
    out = {}

    def client_main(ctx):
        srv = mod.dlsvc._bind("dl")
        v = np.arange(64.0)
        for _ in range(6):
            try:
                srv.total(v)
            except TransientException:
                results["shed"] += 1
            else:
                results["ok"] += 1
        ctx.barrier()
        if ctx.rank == 0:
            out["last"] = srv.total(v)

    sim.client(client_main, host="HOST_1", nprocs=4)
    sim.run()
    assert results["shed"] > 0 and results["ok"] > 0
    assert out["last"] == float(np.sum(np.arange(32.0)))  # rank 0's block
    assert sim.world.transport.buffer_pool.stats.outstanding == 0
    for rank in range(2):
        channel = sim.world.transport.endpoint(
            server.address(rank, PORT_ORB)).channel
        assert not [env for env in channel._queue
                    if env.payload.tag == TAG_ARG_FRAGMENT]
    # one fragment per server thread for each shed request
    assert sim.orb.dead_fragments == 2 * results["shed"]


def test_timed_out_requests_late_traffic_is_drained(mod):
    """A timed-out request's reply header and result fragments land after
    the client gave up; the next request on that thread discards them."""
    sim = Simulation(config=OrbConfig(request_timeout=2e-2))
    sim.server(_server(mod, make_time=2e-2), host="HOST_2", nprocs=2)
    out = {}

    def client_main(ctx):
        srv = mod.dlsvc._bind("dl")
        for _ in range(5):
            with pytest.raises(SystemException, match="timed out"):
                srv.make(5)
        ctx.compute(1.0)  # every late reply and fragment has landed
        out["queued"] = len(ctx.endpoint.channel)
        out["late_fragments"] = sum(
            1 for env in ctx.endpoint.channel._queue
            if env.payload.body.__class__.__name__ == "Fragment")
        out["v"] = np.asarray(srv.make(0).owned_data)
        out["left"] = len(ctx.endpoint.channel)

    sim.client(client_main, host="HOST_1")
    sim.run()
    assert out["queued"] == 15  # 5 reply headers, 10 result fragments
    assert out["late_fragments"] == 10
    assert out["left"] == 0
    assert sim.world.transport.buffer_pool.stats.outstanding == 0
    assert sim.orb.dead_result_fragments == 10


def test_dead_traffic_after_the_last_request_is_drained_at_exit():
    """A result fragment of a failed request that lands after the client
    thread's last request completed is drained when its ``main``
    returns: nothing stays queued and no lease stays outstanding."""
    mod = compile_idl("""
        typedef dsequence<double, 1024> pv;
        interface partial { void scale(in double k, in pv v, out pv w); };
    """, module_name="dead_letter_exit_stubs")
    sim = Simulation()

    def server_main(ctx):
        class Impl(mod.partial_skel):
            def scale(self, k, v):
                if ctx.rank == 1:
                    raise RuntimeError("rank 1 failed")
                from repro.core import DistributedSequence

                return DistributedSequence(v.element, v.dist, v.rank,
                                           np.asarray(v.owned_data) * k)

        ctx.poa.activate(Impl(), "partial", kind="spmd")
        ctx.poa.impl_is_ready()

    failures = []

    def client_main(ctx):
        srv = mod.partial._spmd_bind("partial")
        with pytest.raises(SystemException, match="rank 1 failed"):
            srv.scale(2.0, mod.pv(np.arange(16.0)))
        failures.append(ctx.rank)
        ctx.compute(1.0)  # the surviving server thread's fragment lands

    sim.server(server_main, host="HOST_2", nprocs=2)
    client = sim.client(client_main, host="HOST_1", nprocs=2)
    sim.run()
    assert sorted(failures) == [0, 1]
    for rank in range(2):
        channel = sim.world.transport.endpoint(
            client.address(rank, PORT_ORB)).channel
        assert len(channel) == 0
    assert sim.world.transport.buffer_pool.stats.outstanding == 0
    assert sim.orb.dead_result_fragments == 1
