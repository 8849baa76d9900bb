"""Ablation benchmarks: each isolates one PARDIS mechanism called out in
DESIGN.md and quantifies its effect in virtual time.

* parallel vs funneled argument transfer (the [KG97] claim);
* non-blocking futures vs blocking invocation (Fig 2's mechanism);
* redistribution cost across layout pairs;
* local bypass vs remote invocation (§4.1);
* communication-thread offload and outstanding-request window vs the
  Fig-5 pipeline congestion (§6 future work).
"""

import numpy as np
import pytest

from repro.core import (
    Distribution,
    OrbConfig,
    Simulation,
    resolve_dist_spec,
)
from repro.idl import compile_idl
from repro.runtime import MPIRuntime

VEC_IDL = """
    typedef dsequence<double, 10000000> vec;
    typedef dsequence<double, 10000000, CONCENTRATED, CONCENTRATED> cvec;
    interface sink {
        void put(in vec v);
        void put_funneled(in cvec v);
        double echo(in double x);
    };
"""
stubs = compile_idl(VEC_IDL, module_name="ablation_stubs")


def make_sink(ctx):
    class SinkImpl(stubs.sink_skel):
        def put(self, v):
            return None

        def put_funneled(self, v):
            # The funneled protocol still has to spread the data over the
            # server's threads before compute could start.
            from repro.core.dsequence import DistributedSequence

            v.redistribute(Distribution.block(len(v), ctx.nprocs), ctx.rts)
            return None

        def echo(self, x):
            return x

    return SinkImpl()


def sink_world(nprocs=4, config=None):
    sim = Simulation(config=config)

    def server_main(ctx):
        ctx.poa.activate(make_sink(ctx), "sink", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=nprocs, name="sink")
    return sim


N = 400_000  # 3.2 MB of doubles


def _parallel_transfer() -> float:
    """Distributed argument sent directly thread-to-thread."""
    sim = sink_world()
    out = {}

    def client(ctx):
        v = stubs.vec(np.zeros(N))           # BLOCK over client threads
        s = stubs.sink._spmd_bind("sink")
        t0 = ctx.now()
        s.put(v)
        if ctx.rank == 0:
            out["t"] = ctx.now() - t0

    sim.client(client, host="HOST_1", nprocs=4)
    sim.run()
    return out["t"]


def _funneled_transfer() -> float:
    """The same bytes funneled through one thread on each side: gather on
    the client, single fat transfer, spread on the server."""
    sim = sink_world()
    out = {}

    def client(ctx):
        v = stubs.vec(np.zeros(N))
        s = stubs.sink._spmd_bind("sink")
        t0 = ctx.now()
        funneled = v.redistribute(
            Distribution.concentrated(N, ctx.nprocs), ctx.rts)
        s.put_funneled(funneled)
        if ctx.rank == 0:
            out["t"] = ctx.now() - t0

    sim.client(client, host="HOST_1", nprocs=4)
    sim.run()
    return out["t"]


@pytest.mark.benchmark(group="ablation-transfer")
def test_parallel_vs_funneled_transfer(benchmark):
    def run():
        return _parallel_transfer(), _funneled_transfer()

    parallel, funneled = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(parallel_s=round(parallel, 4),
                                funneled_s=round(funneled, 4),
                                speedup=round(funneled / parallel, 2))
    print(f"\n  parallel transfer : {parallel:.4f} virtual s")
    print(f"  funneled transfer : {funneled:.4f} virtual s "
          f"({funneled / parallel:.2f}x slower)")
    assert parallel < funneled


# ---------------------------------------------------------------------------


def _overlap(nonblocking: bool) -> float:
    """Two 1-second services on two servers, invoked either as blocking
    calls or with a future overlapping the first call."""
    sim = Simulation(config=OrbConfig(max_outstanding=2))

    def make_slow(ctx):
        class Slow(stubs.sink_skel):
            def echo(self, x):
                ctx.compute(1.0)
                return x

            def put(self, v):
                return None

            def put_funneled(self, v):
                return None

        return Slow()

    for i, host in enumerate(["HOST_1", "HOST_2"]):
        def server_main(ctx, _i=i):
            ctx.poa.activate(make_slow(ctx), f"slow{_i}", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host=host, nprocs=1,
                   node_offset=2 if host == "HOST_1" else 0,
                   name=f"slow{i}")
    out = {}

    def client(ctx):
        a = stubs.sink._bind("slow0")
        b = stubs.sink._bind("slow1")
        t0 = ctx.now()
        if nonblocking:
            fut = b.echo_nb(1.0)
            a.echo(2.0)
            fut.value()
        else:
            b.echo(1.0)
            a.echo(2.0)
        out["t"] = ctx.now() - t0

    sim.client(client, host="HOST_1", nprocs=1)
    sim.run()
    return out["t"]


@pytest.mark.benchmark(group="ablation-futures")
def test_nonblocking_overlap_vs_blocking(benchmark):
    def run():
        return _overlap(nonblocking=True), _overlap(nonblocking=False)

    nb, blocking = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(nonblocking_s=round(nb, 3),
                                blocking_s=round(blocking, 3))
    print(f"\n  blocking     : {blocking:.3f} virtual s")
    print(f"  non-blocking : {nb:.3f} virtual s")
    assert nb < blocking * 0.7  # ~max() vs ~sum() of the two services


# ---------------------------------------------------------------------------


REDIST_CASES = [("BLOCK", "CYCLIC"), ("BLOCK", "CONCENTRATED"),
                ("CYCLIC", "BLOCK")]


@pytest.mark.benchmark(group="ablation-redistribution")
@pytest.mark.parametrize("src,dst", REDIST_CASES)
def test_redistribution_cost(benchmark, src, dst):
    from repro.core.dsequence import DistributedSequence

    n = 100_000

    def run():
        sim = Simulation()
        out = {}

        def main(ctx):
            d = DistributedSequence.from_global(
                np.zeros(n), resolve_dist_spec(src, n, ctx.nprocs),
                ctx.rank)
            t0 = ctx.now()
            d.redistribute(resolve_dist_spec(dst, n, ctx.nprocs), ctx.rts)
            if ctx.rank == 0:
                out["t"] = ctx.now() - t0

        sim.client(main, host="HOST_2", nprocs=4)
        sim.run()
        return out["t"]

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(src=src, dst=dst, virtual_s=round(t, 5))


# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation-local-bypass")
def test_local_bypass_vs_remote(benchmark):
    def run():
        times = {}
        for local in (True, False):
            sim = Simulation()
            out = {}

            def client(ctx):
                if local:
                    ctx.poa.activate(make_sink(ctx), "sink", kind="spmd")
                    s = stubs.sink._bind("sink")
                else:
                    s = stubs.sink._bind("sink")
                t0 = ctx.now()
                for _ in range(10):
                    s.echo(1.0)
                out["t"] = (ctx.now() - t0) / 10

            if not local:
                def server_main(ctx):
                    ctx.poa.activate(make_sink(ctx), "sink", kind="spmd")
                    ctx.poa.impl_is_ready()

                sim.server(server_main, host="HOST_2", nprocs=1)
            sim.client(client, host="HOST_1", nprocs=1)
            sim.run()
            times[local] = out["t"]
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(local_s=times[True], remote_s=times[False])
    print(f"\n  local bypass : {times[True] * 1e6:.1f} virtual us/call")
    print(f"  remote       : {times[False] * 1e6:.1f} virtual us/call")
    assert times[True] < times[False] / 10


# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation-commthreads")
def test_pipeline_congestion_relief(benchmark):
    """The paper's §6 hypothesis: communication threads (send offload) and
    a deeper pipeline window alleviate the Fig-5 congestion."""
    from repro.experiments.fig5_pipeline import run_overall

    def run():
        base = run_overall(4, steps=50, n=64,
                           config=OrbConfig(max_outstanding=1))
        offload = run_overall(4, steps=50, n=64,
                              config=OrbConfig(max_outstanding=1,
                                               communication_threads=True))
        deep = run_overall(4, steps=50, n=64,
                           config=OrbConfig(max_outstanding=4,
                                            communication_threads=True))
        return base, offload, deep

    base, offload, deep = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(baseline_s=round(base, 3),
                                comm_threads_s=round(offload, 3),
                                comm_threads_deep_window_s=round(deep, 3))
    print(f"\n  baseline (1 outstanding, sync sends)  : {base:.3f} virtual s")
    print(f"  + communication threads               : {offload:.3f}")
    print(f"  + 4-deep pipeline window              : {deep:.3f}")
    assert offload < base
    assert deep <= offload


# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation-timesharing")
def test_timeshared_vs_dedicated_nodes(benchmark):
    """Opt-in CPU contention: two co-located 1-second computations either
    overlap (dedicated processors, the paper's testbed) or serialize
    (time-shared node)."""
    from repro.netsim import Host, Network
    from repro.runtime import World

    def run_one(timeshared):
        net = Network()
        net.add_host(Host("h", nodes=1, node_flops=1e6,
                          timeshared=timeshared))
        world = World(net)
        ends = []

        def main(rts):
            rts.compute(1.0)
            ends.append(rts.now())

        world.launch(main, host="h", nprocs=1)
        world.launch(main, host="h", nprocs=1)
        world.run()
        return max(ends)

    def run():
        return run_one(False), run_one(True)

    dedicated, shared = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(dedicated_s=dedicated, timeshared_s=shared)
    print(f"\n  dedicated nodes : {dedicated:.2f} virtual s (overlapped)")
    print(f"  time-shared node: {shared:.2f} virtual s (serialized)")
    assert shared == pytest.approx(2 * dedicated)


# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation-network")
def test_network_sensitivity_of_pipeline(benchmark):
    """§4.3's closing remark inverted: with a deterministic testbed we CAN
    separate the pipeline's non-scaling influences — run the same
    metaapplication over three interconnects with the send-offload and
    window knobs toggled."""
    from repro.experiments.common import format_table
    from repro.experiments.network_sensitivity import run_sensitivity

    rows = benchmark.pedantic(run_sensitivity,
                              kwargs=dict(procs=2, steps=50, n=64),
                              rounds=1, iterations=1)
    print()
    print(format_table(rows, "Pipeline vs interconnect (virtual s)",
                       float_fmt="{:10.4f}"))
    by_link = {r.link: r for r in rows}
    # The synchronous-send influence shrinks as the link gets faster...
    assert by_link["ethernet-100"].send_effect < \
        by_link["ethernet-10"].send_effect
    # ...and every configuration runs no slower on a faster link.
    assert by_link["atm-155"].t_baseline <= by_link["ethernet-10"].t_baseline
    for r in rows:
        assert r.congestion_effect >= -1e-9
