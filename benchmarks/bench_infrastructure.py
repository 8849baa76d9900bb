"""Infrastructure benchmarks (real wall-clock): the simulation kernel's
event throughput, collective latency scaling, IDL compilation speed and
end-to-end invocation cost.  These guard the reproduction's own
performance — a slow simulator makes the paper-scale sweeps painful.
"""

import pytest

from repro.idl import compile_idl, generate
from repro.runtime import MPIRuntime, collectives as coll
from repro.simkernel import Channel, SimKernel

from repro.netsim import ATM_155, Host, Network
from repro.runtime import World


def make_world(nodes=16):
    net = Network()
    net.add_host(Host("hostA", nodes=nodes, node_flops=1e7))
    net.add_host(Host("hostB", nodes=nodes, node_flops=1e7))
    net.connect("hostA", "hostB", ATM_155)
    return World(net)


@pytest.mark.benchmark(group="infra-kernel")
def test_kernel_context_switch_throughput(benchmark):
    """Ping-pong between two threads: measures switches/second."""
    SWITCHES = 2000

    def run():
        k = SimKernel()
        ch_a, ch_b = Channel(k), Channel(k)

        def a():
            for i in range(SWITCHES // 2):
                ch_b.push(i, arrival=k.now())
                ch_a.receive()

        def b():
            for i in range(SWITCHES // 2):
                ch_b.receive()
                ch_a.push(i, arrival=k.now())

        k.spawn(a)
        k.spawn(b)
        k.run()
        return k.context_switches

    switches = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["context_switches"] = switches


@pytest.mark.benchmark(group="infra-kernel")
@pytest.mark.parametrize("nthreads", [8, 64, 512])
def test_kernel_many_threads(benchmark, nthreads):
    def run():
        k = SimKernel()

        def body():
            for _ in range(20):
                k.advance(0.001)

        for _ in range(nthreads):
            k.spawn(body)
        k.run()

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="infra-collectives")
@pytest.mark.parametrize("nprocs", [4, 16])
def test_collective_allreduce_wallclock(benchmark, nprocs):
    def run():
        world = make_world(nodes=nprocs)
        prog = world.launch(
            lambda rts: [coll.allreduce(rts, rts.rank, lambda a, b: a + b)
                         for _ in range(10)][-1],
            host="hostA", nprocs=nprocs, rts_factory=MPIRuntime,
        )
        world.run()
        return prog.results[0]

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == sum(range(nprocs))


SOLVER_IDL = """
    typedef sequence<double> row;
    typedef dsequence<row> matrix;
    typedef dsequence<double> vector;
    interface direct { void solve(in matrix A, in vector B, out vector X); };
    interface iterative {
        void solve(in double tol, in matrix A, in vector B, out vector X);
    };
"""


@pytest.mark.benchmark(group="infra-idlc")
def test_idl_generate_speed(benchmark):
    src = benchmark(generate, SOLVER_IDL)
    assert "class direct" in src


@pytest.mark.benchmark(group="infra-idlc")
def test_idl_compile_to_module_speed(benchmark):
    counter = [0]

    def run():
        counter[0] += 1
        return compile_idl(SOLVER_IDL,
                           module_name=f"bench_idlc_{counter[0]}")

    mod = benchmark.pedantic(run, rounds=5, iterations=1)
    assert hasattr(mod, "direct")


@pytest.mark.benchmark(group="infra-invocation")
def test_end_to_end_invocation_wallclock(benchmark):
    """Wall-clock cost of simulating 50 remote invocations."""
    from repro.core import OrbConfig, Simulation

    mod = compile_idl("interface p { long echo(in long x); };",
                      module_name="bench_invoke_stubs")

    def run():
        sim = Simulation(config=OrbConfig(max_outstanding=4))

        def server_main(ctx):
            class Impl(mod.p_skel):
                def echo(self, x):
                    return x

            ctx.poa.activate(Impl(), "p", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            prx = mod.p._bind("p")
            for i in range(50):
                prx.echo(i)
            out["done"] = True

        sim.client(client, host="HOST_1")
        sim.run()
        return out["done"]

    assert benchmark.pedantic(run, rounds=3, iterations=1)


# ---------------------------------------------------------------------------
# Tracing overhead gate (plain test, no benchmark fixture: CI runs it with
# ``-k tracing_overhead`` on every push, not only under --benchmark-only)
# ---------------------------------------------------------------------------


def _echo_run(attach=None, n=200, admission=False):
    """Wall seconds and virtual end-time of an ``n``-invocation echo sim;
    ``attach(world)`` installs instrumentation before the run.  Payload-free
    blocking echoes are the *worst case* for fixed per-request overhead —
    any real workload amortizes it over marshalling and compute."""
    import gc
    import time

    from repro.core import OrbConfig, Simulation

    mod = compile_idl("interface g { long echo(in long x); };",
                      module_name="bench_overhead_stubs")
    sim = Simulation(config=OrbConfig(max_outstanding=4))
    if attach is not None:
        attach(sim.world)

    def server_main(ctx):
        class Impl(mod.g_skel):
            def echo(self, x):
                return x

        ctx.poa.activate(Impl(), "g", kind="spmd")
        if admission:
            from repro.services import AdmissionController

            ctx.poa.set_admission(AdmissionController(capacity=8))
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=1)

    def client(ctx):
        prx = mod.g._bind("g")
        for i in range(n):
            prx.echo(i)

    sim.client(client, host="HOST_1")
    # Collect leftover garbage from earlier samples and keep the GC out
    # of the timed region: a gen-2 pass over a prior (span-heavy) world's
    # graph landing mid-run would be charged to the wrong configuration.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        end = sim.run()
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    return wall, end


def test_tracing_overhead_gate():
    """Benchmark-enforced overhead budget: the tracing interceptor alone
    must cost <= 5% end-to-end wall clock vs the *empty* chain (and must
    not move virtual time at all).  Interleaved rounds defend against
    drift; comparing the per-configuration *minima* defends against
    scheduler noise, which on a green-thread workload is strictly
    additive and right-skewed (the minimum is the least-contaminated
    estimate of intrinsic cost — the same reasoning as ``timeit``).
    Widen with PARDIS_OVERHEAD_GATE_PCT for pathologically noisy
    machines.  The full observability stack (observer + tracer +
    metrics) is measured alongside for the record — it flips the chain's
    span machinery on and has no 5% budget.
    """
    import os

    from repro.tools.observe import attach_observer
    from repro.tools.registry import attach_metrics
    from repro.tools.tracing import attach_tracing

    def full_stack(world):
        attach_observer(world)
        attach_tracing(world)
        attach_metrics(world)

    _echo_run()  # warm the stub/import caches outside the measurement
    plain, traced, stacked = [], [], []
    virtual = set()
    for _ in range(9):
        for samples, attach in ((plain, None), (traced, attach_tracing),
                                (stacked, full_stack)):
            wall, vt = _echo_run(attach)
            samples.append(wall)
            virtual.add(vt)

    # Tracing must be invisible to the simulation's virtual clock.
    assert len(virtual) == 1, f"virtual end-times diverged: {virtual}"

    budget = float(os.environ.get("PARDIS_OVERHEAD_GATE_PCT", "5")) / 100.0
    p, t, s = min(plain), min(traced), min(stacked)
    # Small absolute slack so a sub-millisecond workload can't fail the
    # gate on scheduler jitter alone.
    assert t <= p * (1 + budget) + 0.001, (
        f"tracing overhead {100 * (t / p - 1):.1f}% exceeds "
        f"{100 * budget:.0f}% budget (plain {p * 1e3:.2f} ms, "
        f"traced {t * 1e3:.2f} ms)"
    )
    print(f"\ntracing-overhead gate: plain {p * 1e3:.2f} ms, "
          f"traced {t * 1e3:.2f} ms ({100 * (t / p - 1):+.1f}%), "
          f"full stack {s * 1e3:.2f} ms ({100 * (s / p - 1):+.1f}%)")


def test_services_overhead_gate():
    """Benchmark-enforced budget for the services layer's *dormant* cost:
    a run with an idle :class:`~repro.services.ThrottleInterceptor` in
    the chain (it rides every request but no backpressure ever arrives)
    must cost <= 5% end-to-end wall clock vs the empty chain, and must
    not move virtual time — with no admission controller and no bind
    policy, the request path's only additions are ``admission is None``
    checks and the single-ref bind fast path.  Same min-of-interleaved-
    rounds methodology as :func:`test_tracing_overhead_gate`; widen with
    PARDIS_OVERHEAD_GATE_PCT on noisy machines.  An admission-controlled
    run (bounded queue engaged, zero sheds) is measured alongside for
    the record — it has no budget: the load reports it piggybacks on
    every reply legitimately move virtual time.
    """
    import os

    from repro.services import ThrottleInterceptor

    def attach_throttle(world):
        world.services["orb"].register_interceptor(
            ThrottleInterceptor(seed=0))

    _echo_run()  # warm the stub/import caches outside the measurement
    plain, throttled, admitted = [], [], []
    virtual = set()
    for _ in range(9):
        wall, vt = _echo_run()
        plain.append(wall)
        virtual.add(vt)
        wall, vt = _echo_run(attach_throttle)
        throttled.append(wall)
        virtual.add(vt)
        wall, _ = _echo_run(admission=True)
        admitted.append(wall)

    # An idle throttle must be invisible to the simulation's clock.
    assert len(virtual) == 1, f"virtual end-times diverged: {virtual}"

    budget = float(os.environ.get("PARDIS_OVERHEAD_GATE_PCT", "5")) / 100.0
    p, t, a = min(plain), min(throttled), min(admitted)
    assert t <= p * (1 + budget) + 0.001, (
        f"idle-services overhead {100 * (t / p - 1):.1f}% exceeds "
        f"{100 * budget:.0f}% budget (plain {p * 1e3:.2f} ms, "
        f"throttled {t * 1e3:.2f} ms)"
    )
    print(f"\nservices-overhead gate: plain {p * 1e3:.2f} ms, "
          f"idle throttle {t * 1e3:.2f} ms ({100 * (t / p - 1):+.1f}%), "
          f"admission on {a * 1e3:.2f} ms ({100 * (a / p - 1):+.1f}%)")


DSEQ_IDL = """
    typedef dsequence<double, 1000000> vec;
    interface bulk { double total(in vec v); };
"""


@pytest.mark.benchmark(group="infra-invocation")
@pytest.mark.parametrize("n", [65_536])
def test_end_to_end_dseq_invocation_wallclock(benchmark, n):
    """Wall-clock cost of 20 invocations each shipping a 512 KiB
    distributed argument — the zero-copy fragment path end to end
    (encode → transport → decode → insert).
    """
    import numpy as np

    from repro.core import OrbConfig, Simulation

    mod = compile_idl(DSEQ_IDL, module_name="bench_dseq_stubs")

    def run():
        sim = Simulation(config=OrbConfig(max_outstanding=4))

        def server_main(ctx):
            class Impl(mod.bulk_skel):
                def total(self, v):
                    return float(np.sum(v.owned_data))

            ctx.poa.activate(Impl(), "bulk", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            prx = mod.bulk._bind("bulk")
            data = mod.vec(np.arange(float(n)))
            out["total"] = [prx.total(data) for _ in range(20)][-1]

        sim.client(client, host="HOST_1")
        sim.run()
        stats = sim.world.transport.buffer_pool.stats
        out["stats"] = stats.snapshot()
        return out

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert out["total"] == float(n) * (n - 1) / 2
    benchmark.extra_info["fast_encodes"] = out["stats"]["fast_encodes"]
    benchmark.extra_info["fallback_encodes"] = out["stats"]["fallback_encodes"]
    # Every borrowed payload buffer must have come back.
    assert (out["stats"]["borrows"] == out["stats"]["returns"])
    assert out["stats"]["fast_encodes"] == 20
