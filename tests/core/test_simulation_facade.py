"""Tests for the Simulation facade and default topology."""

import pytest

from repro.core import Simulation, default_network
from repro.netsim import ATM_155


class TestDefaultNetwork:
    def test_paper_testbed_shape(self):
        net = default_network()
        h1 = net.host("HOST_1")
        h2 = net.host("HOST_2")
        assert h1.nodes == 4          # 4-node SGI Onyx
        assert h2.nodes == 10         # 10-node SGI PowerChallenge
        assert h2.node_flops > h1.node_flops   # HOST_2 is the faster host
        assert net.route("HOST_1", "HOST_2")[0] is ATM_155


class TestFacade:
    def test_client_results_accessible(self):
        sim = Simulation()
        prog = sim.client(lambda ctx: ctx.rank * 10, host="HOST_1", nprocs=3)
        sim.run()
        assert prog.results == [0, 10, 20]

    def test_run_returns_final_virtual_time(self):
        sim = Simulation()
        sim.client(lambda ctx: ctx.compute(2.5), host="HOST_1")
        assert sim.run() == pytest.approx(2.5)

    def test_run_until(self):
        sim = Simulation()
        log = []

        def main(ctx):
            for _ in range(10):
                ctx.compute(1.0)
                log.append(ctx.now())

        sim.client(main, host="HOST_1")
        sim.run(until=3.5)
        assert log == [1.0, 2.0, 3.0]
        sim.close()
        sim.close()   # idempotent

    def test_server_is_daemon(self):
        sim = Simulation()
        sim.server(lambda ctx: ctx.poa.impl_is_ready(), host="HOST_2")
        sim.client(lambda ctx: None, host="HOST_1")
        sim.run()  # returns despite the server's infinite loop

    def test_args_passed_to_main(self):
        sim = Simulation()
        prog = sim.client(lambda ctx, a, b: a + b, host="HOST_1",
                          args=(1, 2))
        sim.run()
        assert prog.results == [3]

    def test_kernel_and_network_accessors(self):
        sim = Simulation()
        assert sim.kernel is sim.world.kernel
        assert sim.network is sim.world.network

    def test_start_time(self):
        sim = Simulation()
        prog = sim.client(lambda ctx: ctx.now(), host="HOST_1",
                          start_time=5.0)
        sim.run()
        assert prog.results == [5.0]

    def test_context_repr(self):
        sim = Simulation()
        out = {}
        sim.client(lambda ctx: out.update(r=repr(ctx)), host="HOST_1",
                   name="myclient")
        sim.run()
        assert "myclient" in out["r"]


class TestAdapterRegistry:
    def test_unknown_adapter_raises(self):
        from repro.core.errors import BindingError
        from repro.core.stubapi import resolve_adapter

        with pytest.raises(BindingError, match="no container adapter"):
            resolve_adapter("POOMA", "nonexistent_target")

    def test_known_adapters_resolve(self):
        from repro.core.stubapi import resolve_adapter
        from repro.packages.pooma.mapping import FieldAdapter
        from repro.packages.pstl.mapping import VectorAdapter

        assert isinstance(resolve_adapter("POOMA", "field"), FieldAdapter)
        assert isinstance(resolve_adapter("HPC++", "vector"), VectorAdapter)
