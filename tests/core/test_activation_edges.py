"""Activation-agent edge cases, repository error paths, and per-binding
flow-control overrides."""

import pytest

from repro.core import (
    ActivationError,
    ObjectNotFound,
    OrbConfig,
    Simulation,
)
from repro.core.repository import ObjectRef, ObjectRepository
from repro.idl import compile_idl

IDL = """
    interface edge {
        long echo(in long x);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="activation_edge_stubs")


class TestActivationEdges:
    def test_activation_timeout_is_a_clear_error(self, mod, monkeypatch):
        """A server that launches but never registers its object fails
        the bind with an ActivationError naming the timeout — not a
        silent hang."""
        import repro.core.orb

        monkeypatch.setattr(repro.core.orb, "ACTIVATION_TIMEOUT", 0.02)

        def lazy_server(ctx):
            ctx.compute(1.0)                  # never activates anything

        sim = Simulation()
        sim.register_implementation("edge", lazy_server,
                                    host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            with pytest.raises(ActivationError,
                               match="timed out after 0.02"):
                mod.edge._bind("edge")
            out["ok"] = True

        sim.client(client, host="HOST_1")
        sim.run()
        assert out["ok"]

    def test_non_activating_agent_names_host_and_mode(self, mod):
        sim = Simulation()
        sim.register_implementation("edge", lambda ctx: None,
                                    host="HOST_2", nprocs=1)
        sim.orb.set_activating("HOST_2", False)
        out = {}

        def client(ctx):
            with pytest.raises(ActivationError,
                               match="non-activating mode"):
                mod.edge._bind("edge")
            out["ok"] = True

        sim.client(client, host="HOST_1")
        sim.run()
        assert out["ok"]

    def test_agent_reactivates_exited_server(self, mod):
        """The agent relaunches a non-persistent server whose threads
        have all exited, but never doubles a live one."""
        launches = []

        def brief_server(ctx):
            launches.append(ctx.now())

            class Impl(mod.edge_skel):
                def __init__(self):
                    self.served = 0

                def echo(self, x):
                    self.served += 1
                    return x

            servant = Impl()
            ctx.poa.activate(servant, "edge", kind="spmd")
            while servant.served < 1:
                ctx.poa.process_requests()
                ctx.compute(1e-3)
            ctx.poa.deactivate("edge")

        sim = Simulation()
        sim.register_implementation("edge", brief_server,
                                    host="HOST_2", nprocs=1)

        def client(ctx):
            assert mod.edge._bind("edge").echo(1) == 1
            ctx.compute(0.1)                  # first generation retires
            record = ctx.orb.impl_repository.lookup("edge")
            agent = ctx.orb.agent("HOST_2")
            agent.activate(record, "default")     # relaunch
            agent.activate(record, "default")     # no-op: still alive
            assert mod.edge._bind("edge").echo(2) == 2

        sim.client(client, host="HOST_1")
        sim.run()
        assert len(launches) == 2


class TestRepositoryErrorPaths:
    def _ref(self, name="a", program_id=1):
        return ObjectRef(name=name, repo_id="IDL:x:1.0", kind="single",
                         program_id=program_id, host="h", nthreads=1,
                         owner_rank=0, endpoints=())

    def test_lookup_unknown_names_object_and_namespace(self):
        repo = ObjectRepository("blue")
        with pytest.raises(ObjectNotFound, match="'ghost'.*'blue'"):
            repo.lookup("ghost")

    def test_unregister_unknown_is_idempotent(self):
        repo = ObjectRepository()
        repo.unregister("never-there")
        repo.unregister("never-there", program_id=3)

    def test_duplicate_register_names_namespace_and_program(self):
        repo = ObjectRepository("red")
        repo.register(self._ref(program_id=7))
        with pytest.raises(ValueError, match="'red'.*program 7"):
            repo.register(self._ref(program_id=7))

    def test_same_name_across_namespaces_never_conflicts(self):
        red, blue = ObjectRepository("red"), ObjectRepository("blue")
        red.register(self._ref(program_id=1))
        blue.register(self._ref(program_id=1))
        assert red.lookup("a").program_id == 1
        assert blue.lookup("a").program_id == 1
        red.unregister("a")
        assert blue.contains("a")             # namespaces stay isolated


class TestPerBindFlowControl:
    def test_max_outstanding_override_allows_overlap(self, mod):
        """A per-bind ``max_outstanding`` widens the pipeline window for
        that binding only: with a window of 2, two non-blocking requests
        leave back-to-back and only the third waits for a reply."""
        service = 0.2
        sim = Simulation(config=OrbConfig(max_outstanding=1))

        def server_main(ctx):
            class Impl(mod.edge_skel):
                def echo(self, x):
                    ctx.compute(service)
                    return x

            ctx.poa.activate(Impl(), "slow", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            narrow = mod.edge._bind("slow")
            t0 = ctx.now()
            f1 = narrow.echo_nb(1)
            f2 = narrow.echo_nb(2)            # waits for f1's reply
            out["narrow_second_send"] = ctx.now() - t0
            f1.value(), f2.value()

            wide = mod.edge._bind("slow", max_outstanding=2)
            t0 = ctx.now()
            g1 = wide.echo_nb(1)
            g2 = wide.echo_nb(2)              # fits in the window
            out["wide_second_send"] = ctx.now() - t0
            g3 = wide.echo_nb(3)              # window full: waits
            out["wide_third_send"] = ctx.now() - t0
            out["values"] = (g1.value(), g2.value(), g3.value())

        sim.client(client, host="HOST_1")
        sim.run()
        assert out["values"] == (1, 2, 3)
        assert out["narrow_second_send"] >= service
        assert out["wide_second_send"] < service / 2
        assert out["wide_third_send"] >= service
