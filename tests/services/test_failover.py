"""Health-checked failover: retrying blocking invocations against
surviving replicas, suspect marking, and dead-replica re-activation."""

import pytest

from repro.core import (
    FaultInjectionInterceptor,
    OrbConfig,
    Simulation,
    SystemException,
    TransientException,
)
from repro.idl import compile_idl
from repro.services import DEAD, SUSPECT
from repro.tools import attach

IDL = """
    interface failsvc {
        long echo(in long x);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="failover_stubs")


def steady_server(mod, name, log, delay=0.0):
    def server_main(ctx):
        if delay:
            ctx.compute(delay)

        class Impl(mod.failsvc_skel):
            def echo(self, x):
                log.append(x)
                return x

        ctx.poa.activate(Impl(), name, kind="spmd", replica=True)
        ctx.poa.impl_is_ready()

    return server_main


def dying_server(mod, name, log, serve=2):
    """Serves ``serve`` requests, then exits *without* deactivating — a
    crash that leaves its stale reference registered."""

    def server_main(ctx):
        class Impl(mod.failsvc_skel):
            def __init__(self):
                self.served = 0

            def echo(self, x):
                self.served += 1
                log.append(x)
                return x

        servant = Impl()
        ctx.poa.activate(servant, name, kind="spmd", replica=True)
        while servant.served < serve:
            ctx.poa.process_requests()
            ctx.compute(1e-3)

    return server_main


class TestFailover:
    def test_replica_death_fails_over_with_zero_lost_requests(self, mod):
        """Killing one replica mid-run: the in-flight request times out,
        the group marks the replica dead, the binding fails over to the
        survivor, and every accepted request still returns its result."""
        sim = Simulation(config=OrbConfig(request_timeout=0.05))
        obs = attach(sim.world).observer
        dying_log, steady_log = [], []
        # The dying replica registers first, so round-robin binds to it.
        sim.server(dying_server(mod, "dup", dying_log, serve=2),
                   host="HOST_2", nprocs=1)
        sim.server(steady_server(mod, "dup", steady_log, delay=5e-3),
                   host="HOST_2", nprocs=1, node_offset=1)
        results = []

        def client(ctx):
            p = mod.failsvc._bind("dup", policy="round_robin")
            for i in range(6):
                results.append(p.echo(i))

        sim.client(client, host="HOST_1")
        sim.run()

        assert results == list(range(6))      # zero lost accepted requests
        assert dying_log == [0, 1]
        assert steady_log == [2, 3, 4, 5]
        group = sim.orb.replica_group("dup")
        assert group.failovers == 1
        assert group.deaths == 1
        dead = [pid for pid, h in group.health.items() if h == DEAD]
        assert len(dead) == 1
        assert "failover" in {s.phase for s in obs.spans}

    def test_transient_fault_marks_suspect_and_retries(self, mod):
        """A SystemException against a replica that is still running
        marks it SUSPECT (not dead) and the retry lands elsewhere."""
        sim = Simulation()
        faults = sim.register_interceptor(FaultInjectionInterceptor())
        rule = faults.inject("send_request", op="echo", times=1)
        log_a, log_b = [], []
        sim.server(steady_server(mod, "pair", log_a), host="HOST_2",
                   nprocs=1)
        sim.server(steady_server(mod, "pair", log_b), host="HOST_2",
                   nprocs=1, node_offset=1)
        results = []

        def client(ctx):
            p = mod.failsvc._bind("pair", policy="round_robin")
            results.append(p.echo(7))

        sim.client(client, host="HOST_1")
        sim.run()

        assert rule.fired == 1
        assert results == [7]
        group = sim.orb.replica_group("pair")
        assert group.failovers == 1
        assert group.suspects == 1
        assert group.deaths == 0
        health = set(group.health.values())
        assert SUSPECT in health and DEAD not in health
        # The retry was served by exactly one replica.
        assert sorted(len(log) for log in (log_a, log_b)) == [0, 1]

    def test_persistent_failure_exhausts_attempts(self, mod):
        """When every attempt fails the original SystemException finally
        propagates (after max_failover_attempts tries)."""
        sim = Simulation()
        faults = sim.register_interceptor(FaultInjectionInterceptor())
        rule = faults.inject("send_request", op="echo", times=None)
        sim.server(steady_server(mod, "cursed", []), host="HOST_2",
                   nprocs=1)
        out = {}

        def client(ctx):
            p = mod.failsvc._bind("cursed", policy="round_robin")
            with pytest.raises(SystemException, match="injected fault"):
                p.echo(1)
            out["attempts"] = rule.fired

        sim.client(client, host="HOST_1")
        sim.run()
        group = sim.orb.replica_group("cursed")
        assert out["attempts"] == group.max_failover_attempts

    def test_transient_exception_propagates_without_retry(self, mod):
        """An admission shed means the server is alive and answered
        deliberately — failover must not mask it."""
        sim = Simulation()
        faults = sim.register_interceptor(FaultInjectionInterceptor())
        rule = faults.inject("receive_reply", op="echo",
                             exc=TransientException("shed upstream"),
                             times=1)
        log = []
        sim.server(steady_server(mod, "busy", log), host="HOST_2",
                   nprocs=1)
        out = {}

        def client(ctx):
            p = mod.failsvc._bind("busy", policy="round_robin")
            with pytest.raises(TransientException, match="shed upstream"):
                p.echo(1)
            out["retry"] = p.echo(2)          # rule exhausted

        sim.client(client, host="HOST_1")
        sim.run()
        assert rule.fired == 1
        assert out["retry"] == 2
        assert sim.orb.replica_group("busy").failovers == 0

    def test_dead_replica_reactivated_through_agent(self, mod):
        """A dead replica with an implementation record is re-launched by
        the activation agent when the group buries it."""
        launches = []
        log = []

        def server_main(ctx):
            launches.append(ctx.now())
            generation = len(launches)

            class Impl(mod.failsvc_skel):
                def __init__(self):
                    self.served = 0

                def echo(self, x):
                    self.served += 1
                    log.append((generation, x))
                    return x

            servant = Impl()
            ctx.poa.activate(servant, "phoenix", kind="spmd", replica=True)
            while servant.served < 2:
                ctx.poa.process_requests()
                ctx.compute(1e-3)
            # Crash without deactivating.

        sim = Simulation(config=OrbConfig(request_timeout=0.05))
        sim.register_implementation("phoenix", server_main,
                                    host="HOST_2", nprocs=1)
        results = []

        def client(ctx):
            p = mod.failsvc._bind("phoenix", policy="round_robin")
            for i in range(4):
                results.append(p.echo(i))

        sim.client(client, host="HOST_1")
        sim.run()

        assert results == list(range(4))
        assert len(launches) == 2             # original + re-activation
        group = sim.orb.replica_group("phoenix")
        assert group.reactivations == 1
        assert group.deaths == 1
        # The second generation served the post-crash requests.
        assert [g for g, _ in log] == [1, 1, 2, 2]
        # Only the first generation was ever marked (health is sparse:
        # absent means assumed alive); the re-launched replica took over.
        assert set(group.health.values()) == {DEAD}
        new_ref = sim.orb.repository("default").lookup("phoenix")
        assert group.health.get(new_ref.program_id) is None
