"""Failure injection: how the ORB fails, and that it fails loudly."""

import numpy as np
import pytest

from repro.core import OrbConfig, Simulation
from repro.idl import compile_idl
from repro.simkernel import SimThreadFailed

IDL = """
    typedef dsequence<double, 64> vec;
    interface svc {
        double total(in vec v);
        long plain(in long x);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="failure_stubs")


def server_main_factory(mod, ctx_holder=None):
    def server_main(ctx):
        from repro.runtime import collectives as coll

        class Impl(mod.svc_skel):
            def total(self, v):
                local = float(np.sum(v.owned_data))
                return coll.allreduce(ctx.rts, local, lambda a, b: a + b)

            def plain(self, x):
                return x

        ctx.poa.activate(Impl(), "svc", kind="spmd")
        ctx.poa.impl_is_ready()

    return server_main


def test_collective_checks_catch_it_instead(mod):
    """SPMD client threads that disagree on an invocation raise a clean
    CollectiveMismatch on every thread instead of deadlocking."""
    from repro.core import CollectiveMismatch

    sim = Simulation()
    sim.server(server_main_factory(mod), host="HOST_2", nprocs=2)
    outcomes = {}

    def client(ctx):
        srv = mod.svc._spmd_bind("svc")
        v = ctx.dseq(np.ones(8))
        try:
            if ctx.rank == 0:
                srv.total(v)
            else:
                srv.plain(3)
        except CollectiveMismatch:
            outcomes[ctx.rank] = "caught"

    sim.client(client, host="HOST_1", nprocs=2)
    sim.run()
    assert outcomes == {0: "caught", 1: "caught"}


def test_client_exception_fails_simulation_with_thread_name(mod):
    sim = Simulation()

    def client(ctx):
        raise RuntimeError("client bug")

    sim.client(client, host="HOST_1", name="buggy-client")
    with pytest.raises(SimThreadFailed, match="buggy-client"):
        sim.run()


def test_server_setup_exception_propagates(mod):
    sim = Simulation()

    def bad_server(ctx):
        raise ValueError("config error before activate")

    sim.server(bad_server, host="HOST_2", name="bad-server")
    sim.client(lambda ctx: ctx.compute(0.01), host="HOST_1")
    with pytest.raises(SimThreadFailed, match="bad-server"):
        sim.run()


def test_duplicate_object_name_fails_activation(mod):
    sim = Simulation()
    s = server_main_factory(mod)
    sim.server(s, host="HOST_2", nprocs=1, node_offset=0)
    sim.server(s, host="HOST_2", nprocs=1, node_offset=1)
    sim.client(lambda ctx: ctx.compute(0.01), host="HOST_1")
    with pytest.raises(SimThreadFailed, match="already registered"):
        sim.run()


def test_reply_to_dead_client_is_harmless(mod):
    """A oneway-style fire-and-exit client: the server's reply lands in a
    mailbox nobody reads; the simulation still completes."""
    sim = Simulation(config=OrbConfig(max_outstanding=4))
    sim.server(server_main_factory(mod), host="HOST_2", nprocs=1)

    def client(ctx):
        srv = mod.svc._bind("svc")
        srv.plain_nb(1)  # never resolved

    sim.client(client, host="HOST_1")
    sim.run()  # no deadlock, no error


FAIL_IDL = """
    typedef dsequence<double, 64> fvec;
    interface failing { double chew(in fvec v); };
"""


def test_servant_exception_releases_pooled_argument_buffers():
    """A servant that raises after its dsequence arguments arrived: every
    pooled fast-path payload buffer borrowed for those fragments must be
    back in the pool once the failure reply reaches the client."""
    from repro.core import SystemException

    mod = compile_idl(FAIL_IDL, module_name="failure_fastpath_stubs")
    sim = Simulation()

    def server_main(ctx):
        class Impl(mod.failing_skel):
            def chew(self, v):
                raise RuntimeError("servant blew up")

        ctx.poa.activate(Impl(), "failing", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=1)
    out = {}

    def client(ctx):
        srv = mod.failing._bind("failing")
        with pytest.raises(SystemException, match="servant blew up"):
            srv.chew(mod.fvec(np.arange(32.0)))
        out["done"] = True

    sim.client(client, host="HOST_1")
    sim.run()
    stats = sim.world.transport.buffer_pool.stats
    assert out["done"]
    assert stats.fast_encodes >= 1  # the argument took the zero-copy lane
    assert stats.borrows == stats.returns


def test_failed_request_drains_queued_result_fragments():
    """Deterministic client-side drain: a result fragment that is already
    queued when the request fails (here: times out) is discarded by the
    failure path, releasing its pooled payload buffer."""
    from repro.cdr import TC_DOUBLE, encode_bulk_payload
    from repro.core import SystemException
    from repro.core.request import Fragment
    from repro.netsim.transport import Packet
    from repro.runtime.tags import TAG_RESULT_FRAGMENT

    mod = compile_idl("interface slow { double poke(in double delay); };",
                      module_name="failure_slow_stubs")
    sim = Simulation(config=OrbConfig(request_timeout=0.25))

    def server_main(ctx):
        class Impl(mod.slow_skel):
            def poke(self, delay):
                ctx.compute(delay)
                return float(delay)

        ctx.poa.activate(Impl(), "slow", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=1)
    out = {}

    def client(ctx):
        srv = mod.slow._bind("slow")
        fut = srv.poke_nb(10.0)  # will time out at 0.25 s
        state = next(iter(ctx.pending.values()))
        # Forge a result fragment for the pending request with a pooled
        # payload and queue it on the client's own endpoint.
        pool = sim.world.transport.buffer_pool
        buf = encode_bulk_payload(TC_DOUBLE, np.arange(4.0), pool)
        frag = Fragment(req_id=state.req_id, param="_return", src_rank=0,
                        intervals=((0, 4),), payload=buf)
        ep = ctx.endpoint
        ep.channel.push(
            Packet(src=ep.address, dst=ep.address, tag=TAG_RESULT_FRAGMENT,
                   body=frag, nbytes=len(buf)),
            arrival=ctx.now())
        with pytest.raises(SystemException, match="timed out"):
            fut.wait()
        out["released"] = buf.released
        out["dead"] = ctx.orb.dead_result_fragments

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["released"] is True
    assert out["dead"] == 1


def test_mixed_thread_counts_client_server(mod):
    """8 client threads against a 3-thread server and vice versa."""
    for cnp, snp in [(8, 3), (3, 8)]:
        sim = Simulation()
        sim.server(server_main_factory(mod), host="HOST_2", nprocs=snp)
        out = {}

        def client(ctx):
            srv = mod.svc._spmd_bind("svc")
            v = ctx.dseq(np.arange(40.0))
            out[ctx.rank] = srv.total(v)

        sim.client(client, host="HOST_2", nprocs=cnp,
                   node_offset=0 if snp <= 2 else 0)
        # client shares HOST_2's nodes; ensure capacity
        sim.run()
        assert all(v == sum(range(40)) for v in out.values())
