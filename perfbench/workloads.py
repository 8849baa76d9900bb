"""The benchmark's two workloads, driven through the public PARDIS API.

Each workload is a fixed set of seeded request streams that one *batch*
replays, each stream in a fresh :class:`repro.core.Simulation`: compile
the IDL once, then per stream build the world, launch the server, bind,
issue the requests and run to completion.  A batch is deterministic in
virtual time, so every batch of a run must produce the same simulated
outcome (see :func:`run_batch`), and that outcome is what a host-only
speed-up must leave untouched.

Clients are closed-loop in virtual time: each simulated client thread
issues its next request when the previous one has returned.  Nothing in
this module imports ``repro`` at import time, because the set-up probe
times that import.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

perf_ns = time.perf_counter_ns


class Recorder:
    """What the simulated client threads observed during one batch.

    Only one simulated thread runs at a time, so plain appends are safe.
    """

    def __init__(self) -> None:
        self.host_ns: list[int] = []     # stub call -> return, host time
        self.vlat: list[float] = []      # same window, virtual seconds
        self.bad: set = set()            # request indices that failed
        self.errors: list[str] = []      # first few failure descriptions
        self.contexts: list = []         # every PardisContext of the batch
        self.first_reply_ns = None       # host time of the first good reply

    def fail(self, index, why: str) -> None:
        self.bad.add(index)
        if len(self.errors) < 5:
            self.errors.append(why)


@dataclass
class BatchResult:
    """Host timings, simulated outcome and leak counts of one batch."""

    attempted: int
    ok: int
    failed: int
    wall_ns: int
    cpu_ns: int
    host_ns: list
    outcome: dict
    leaks: dict
    counters: dict
    errors: list = field(default_factory=list)


class Workload:
    """One workload's seeded request streams.  Subclasses set the class
    attributes and implement :meth:`inputs`, :meth:`make_servant_class`,
    :meth:`proxy_ops` and :meth:`client`."""

    name = ""
    idl = ""
    #: logical requests per stream (an SPMD invocation counts once)
    requests = 0
    #: independently seeded simulations one batch runs, one after another
    streams = 1
    client_threads = 1
    server_threads = 1
    client_host_nodes = 4

    def __init__(self) -> None:
        self.mod = None
        self._servant = None

    # -- set-up --------------------------------------------------------------

    def compile(self):
        """Compile the workload's IDL into a stub module (once)."""
        from repro.idl import compile_idl

        if self.mod is None:
            self.mod = compile_idl(self.idl,
                                   module_name=f"perfbench_{self.name}_stubs")
        return self.mod

    def network(self):
        """The paper's HOST_1/HOST_2 testbed over 155 Mb/s ATM, with as
        many HOST_1 nodes as the workload has client threads."""
        from repro.core import default_network
        from repro.netsim import ATM_155, Host, Network

        if self.client_host_nodes <= 4:
            return default_network()
        net = Network()
        net.add_host(Host("HOST_1", nodes=self.client_host_nodes,
                          node_flops=5.2e6))
        net.add_host(Host("HOST_2", nodes=10, node_flops=6.6e6))
        net.connect("HOST_1", "HOST_2", ATM_155)
        return net

    def inputs(self, seed: int, requests: int):
        raise NotImplementedError

    def batch_streams(self, seed: int):
        """``(seed, inputs)`` of each stream a batch of run ``seed`` replays;
        with one stream, that is the run's own seed."""
        seeds = [seed * self.streams + k for k in range(self.streams)]
        return [(s, self.inputs(s, self.requests)) for s in seeds]

    def servant_class(self):
        """The servant class (its operations are the ``servant`` layer),
        made once so the traced run can wrap what the batches use."""
        if self._servant is None:
            self._servant = self.make_servant_class()
        return self._servant

    def make_servant_class(self):
        raise NotImplementedError

    def proxy_ops(self):
        """(proxy class, operation names) the clients call."""
        raise NotImplementedError

    def configure(self, sim, seed: int):
        """Per-batch world configuration (interceptors); returns an object
        whose counters :func:`run_batch` reports, or None."""
        return None

    def server_setup(self, ctx) -> None:
        """Per-server-thread configuration after activation."""

    def client(self, ctx, inputs, rec: Recorder) -> None:
        raise NotImplementedError

    # -- one batch ---------------------------------------------------------

    def build(self, inputs, rec: Recorder, seed: int, wrap=None):
        """A ready-to-run Simulation replaying ``inputs``.  ``wrap(fn,
        client)`` may wrap each program's main (the traced run uses it)."""
        from repro.core import Simulation

        sim = Simulation(network=self.network())
        extra = self.configure(sim, seed)
        servant_cls = self.servant_class()

        def server_main(ctx):
            rec.contexts.append(ctx)
            ctx.poa.activate(servant_cls(ctx), self.name, kind="spmd")
            self.server_setup(ctx)
            ctx.poa.impl_is_ready()

        def client_main(ctx):
            rec.contexts.append(ctx)
            self.client(ctx, inputs, rec)

        if wrap is not None:
            server_main = wrap(server_main, False)
            client_main = wrap(client_main, True)
        sim.server(server_main, host="HOST_2", nprocs=self.server_threads,
                   name=f"{self.name}-server")
        sim.client(client_main, host="HOST_1", nprocs=self.client_threads,
                   name=f"{self.name}-client")
        return sim, extra


def _timed(rec: Recorder, ctx, index, call, record: bool, retry=()):
    """Issue one stub call; record host and virtual latency.  Returns
    (ok, value) — unexpected exceptions are failures, not crashes.
    Exceptions of the ``retry`` types propagate untimed to the caller."""
    v0 = ctx.now()
    t0 = perf_ns()
    try:
        value = call()
    except retry:
        raise
    except Exception as exc:  # noqa: BLE001 - any escape is a failed request
        rec.fail(index, f"request {index}: {type(exc).__name__}: {exc}")
        return False, None
    t1 = perf_ns()
    if rec.first_reply_ns is None:
        rec.first_reply_ns = t1
    if record:
        rec.host_ns.append(t1 - t0)
        rec.vlat.append(ctx.now() - v0)
    return True, value


# ---------------------------------------------------------------------------
# dseq_matrix
# ---------------------------------------------------------------------------

MATRIX_N = 256


class DseqMatrix(Workload):
    name = "dseq_matrix"
    idl = """
        typedef sequence<double> row;
        typedef dsequence<row> matrix;
        typedef dsequence<double> vector;
        interface rowsum { void sums(in matrix A, out vector s); };
    """
    requests = 64                       # enough for a per-batch p90
    client_threads = 4
    server_threads = 3

    def inputs(self, seed, requests):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1000, size=(MATRIX_N, MATRIX_N)).astype(np.float64)
        rows = [a[i, :].copy() for i in range(MATRIX_N)]
        return rows, a.sum(axis=1), requests

    def make_servant_class(self):
        mod = self.compile()
        from repro.cdr import TC_DOUBLE
        from repro.core import DistributedSequence

        class RowSumServant(mod.rowsum_skel):
            def __init__(self, ctx):
                self.ctx = ctx

            def sums(self, A):
                local = np.array([float(np.sum(r)) for r in A.owned_data],
                                 dtype=np.float64)
                return DistributedSequence(TC_DOUBLE, A.dist, A.rank, local)

        return RowSumServant

    def proxy_ops(self):
        return self.compile().rowsum, ("sums",)

    def client(self, ctx, inputs, rec):
        rows, row_sums, requests = inputs
        mod = self.compile()
        prx = mod.rowsum._spmd_bind(self.name)
        A = mod.matrix(rows)
        lead = ctx.rank == 0
        for i in range(requests):
            ok, s = _timed(rec, ctx, i, lambda: prx.sums(A), lead)
            if not ok:
                continue
            ivs = s.dist.intervals(ctx.rank)
            want = (np.concatenate([row_sums[a:b] for a, b in ivs])
                    if ivs else np.zeros(0))
            if not np.array_equal(np.asarray(s.owned_data, dtype=np.float64),
                                  want):
                rec.fail(i, f"request {i}: wrong row sums on client "
                            f"rank {ctx.rank}")


# ---------------------------------------------------------------------------
# overload
# ---------------------------------------------------------------------------

#: virtual seconds of servant compute per overload request
SERVICE_TIME = 2e-3
OVERLOAD_CLIENTS = 16
#: a request shed this many times in a row counts as failed
MAX_ATTEMPTS = 64


class Overload(Workload):
    name = "overload"
    idl = "interface work { long crunch(in long x); };"
    # 20 requests per client thread per stream.  The throttle's seed
    # steers one stream into a lasting regime of sheds and back-offs: the
    # virtual p90 of a single 960-request stream differed by 21%
    # (IQR/median) between seeds, of three 320-request streams by 5%.
    requests = 320
    streams = 3
    client_threads = OVERLOAD_CLIENTS
    client_host_nodes = OVERLOAD_CLIENTS

    def inputs(self, seed, requests):
        rng = np.random.default_rng(seed)
        per = max(1, requests // OVERLOAD_CLIENTS)
        xs = rng.integers(0, 2**31 - 1, size=(OVERLOAD_CLIENTS, per))
        return [[int(v) for v in row] for row in xs]

    def make_servant_class(self):
        mod = self.compile()

        class WorkServant(mod.work_skel):
            def __init__(self, ctx):
                self.ctx = ctx

            def crunch(self, x):
                self.ctx.compute(SERVICE_TIME)
                return x

        return WorkServant

    def proxy_ops(self):
        return self.compile().work, ("crunch",)

    def configure(self, sim, seed):
        from repro.services import ThrottleInterceptor

        return {"throttle": sim.register_interceptor(
            ThrottleInterceptor(seed=seed))}

    def server_setup(self, ctx):
        from repro.services import AdmissionController

        ctx.poa.set_admission(AdmissionController(capacity=4, policy="fifo"))

    def client(self, ctx, xs, rec):
        from repro.core import TransientException

        prx = self.compile().work._bind(self.name)
        per = len(xs[0])
        for j, x in enumerate(xs[ctx.rank]):
            index = ctx.rank * per + j
            for _ in range(MAX_ATTEMPTS):
                # Each stub call is timed on its own; a shed call is
                # retried after the throttle's back-off and not timed.
                try:
                    ok, y = _timed(rec, ctx, index, lambda: prx.crunch(x),
                                   True, retry=TransientException)
                except TransientException:
                    continue
                if ok and y != x:
                    rec.fail(index, f"request {index}: crunch({x}) -> {y}")
                break
            else:
                rec.fail(index, f"request {index}: shed {MAX_ATTEMPTS} times")


WORKLOADS = {w.name: w for w in (DseqMatrix, Overload)}


# ---------------------------------------------------------------------------
# running a batch
# ---------------------------------------------------------------------------


def live_sim_threads() -> int:
    return sum(1 for t in threading.enumerate() if t.name.startswith("sim:"))


def leak_counts(sim, rec: Recorder) -> dict:
    """Everything a finished run must have given back; all must be 0."""
    orb = sim.orb
    stats = sim.world.transport.buffer_pool.stats
    return {
        "leases": stats.borrows - stats.returns,
        "dead_fragments": orb.dead_fragments,
        "dead_result_fragments": orb.dead_result_fragments,
        "pending": sum(len(c.pending) for c in rec.contexts),
        "sim_threads": live_sim_threads(),
    }


def run_batch(wl: Workload, streams, tracer=None) -> BatchResult:
    """Build, run and check one batch: the simulation of each
    ``(seed, inputs)`` stream in turn, pooled into one result."""
    n = wl.requests
    host_ns, vlat, errors = [], [], []
    failed = wall = cpu = 0
    vtime = 0.0
    counters, leaks = Counter(), Counter()
    for seed, inputs in streams:
        rec = Recorder()
        wrap = tracer.program if tracer is not None else None
        sim, extra = wl.build(inputs, rec, seed, wrap)
        if tracer is not None:
            tracer.begin_run(wl.client_threads)
        c0 = time.process_time_ns()
        t0 = perf_ns()
        try:
            vtime += sim.run()
        except Exception as exc:  # noqa: BLE001 - a crashed run fails
            vtime = float("nan")
            rec.bad.update(range(n))
            rec.errors.append(f"simulation raised {type(exc).__name__}: "
                              f"{exc}")
        wall += perf_ns() - t0
        cpu += time.process_time_ns() - c0
        if tracer is not None:
            tracer.end_run()
        transport = sim.world.transport
        stats = transport.buffer_pool.stats
        admission = sim.orb.admission_controllers
        counters.update({
            "events": sim.world.kernel.events_processed,
            "switches": sim.world.kernel.context_switches,
            "packets": transport.packets_sent,
            "bytes": transport.bytes_sent,
            "fast_encodes": stats.fast_encodes,
            "fallback_encodes": stats.fallback_encodes,
            "shed": sum(a.shed for a in admission),
            "offers": sum(a.shed + a.accepted for a in admission),
            "throttled": extra["throttle"].throttled if extra else 0,
        })
        leaks.update(leak_counts(sim, rec))
        host_ns += rec.host_ns
        vlat += rec.vlat
        errors += [f"seed {seed}: {why}" for why in rec.errors]
        failed += len(rec.bad)
    requests = n * len(streams)
    outcome = {
        "sim.vtime_s": vtime,
        "netsim.packets_per_req": counters["packets"] / requests,
        "netsim.bytes_per_req": counters["bytes"] / requests,
        "sim.vlat_us_p50": (float(np.median(vlat)) * 1e6
                            if vlat else float("nan")),
    }
    return BatchResult(
        attempted=requests, ok=requests - failed, failed=failed,
        wall_ns=wall, cpu_ns=cpu, host_ns=host_ns, outcome=outcome,
        leaks=dict(leaks), counters=dict(counters), errors=errors,
    )
