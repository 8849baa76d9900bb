"""End-to-end tests for the request-lifecycle observability layer."""

import numpy as np
import pytest

from repro.core import Simulation
from repro.idl import compile_idl
from repro.tools import (
    Instruments,
    RequestObserver,
    TraceSession,
    attach,
    validate_chrome_trace,
)
from repro.tools.observe import CLIENT_PHASES, SERVER_PHASES, Span

IDL = """
    typedef dsequence<double> vec;
    interface stats {
        double total(in vec xs);
        oneway void note(in long x);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="observe_stubs")


def build_stats_world(mod, nprocs=2, requests=3, observe=True):
    """A stats server and an SPMD client in one world, not yet run."""
    sim = Simulation()
    obs = attach(sim.world, label="t").observer if observe else None

    def server_main(ctx):
        class Impl(mod.stats_skel):
            def total(self, xs):
                ctx.compute(1e-3)
                return float(np.sum(np.asarray(xs.owned_data)))

            def note(self, x):
                pass

        ctx.poa.activate(Impl(), "stats", kind="spmd")
        ctx.poa.impl_is_ready()

    # One server thread holds the whole sequence, so ``total`` is global;
    # two client threads still exercise the fragment paths.
    sim.server(server_main, host="HOST_2", nprocs=1, name="stats-server")
    out = {}

    def client_main(ctx):
        s = mod.stats._spmd_bind("stats")
        data = ctx.dseq(np.arange(16.0))
        s.note(7)
        out["totals"] = [s.total(data) for _ in range(requests)]

    sim.client(client_main, host="HOST_1", nprocs=nprocs, name="stats-client")
    return sim, obs, out


def run_observed(mod, nprocs=2, requests=3):
    sim, obs, out = build_stats_world(mod, nprocs, requests)
    sim.run()
    return sim, obs, out


class TestObserverEndToEnd:
    def test_every_lifecycle_phase_recorded(self, mod):
        _sim, obs, out = run_observed(mod)
        assert out["totals"] == [120.0] * 3
        phases = {s.phase for s in obs.spans}
        for phase in ("marshal", "send", "wait", "unmarshal",
                      "dispatch", "recv_args", "compute", "reply"):
            assert phase in phases, f"no {phase} span recorded"
        for s in obs.spans:
            assert s.t1 >= s.t0
            assert s.side in ("client", "server")

    def test_requests_tracked_to_completion(self, mod):
        _sim, obs, _out = run_observed(mod, requests=2)
        done = obs.completed_requests()
        ops = {op for (_r, _p, _rk, op, _lat) in done}
        assert "total" in ops and "note" in ops
        assert all(lat >= 0 for (*_x, lat) in done)
        # Every issued request reached a terminal state.
        assert all(rec[2] is not None for rec in obs.requests.values())
        statuses = {rec[3] for rec in obs.requests.values()}
        assert statuses <= {"ok", "oneway"}

    def test_breakdown_answers_where_time_went(self, mod):
        _sim, obs, _out = run_observed(mod, requests=1)
        req = next(r for (r, _p, _rk, op, _l) in obs.completed_requests()
                   if op == "total")
        breakdown = obs.request_breakdown(req)
        assert "wait" in breakdown and "compute" in breakdown
        # the servant charges 1 ms of virtual compute per call
        assert breakdown["compute"] >= 1e-3
        # the client's wait covers at least the server's compute
        assert breakdown["wait"] >= breakdown["compute"] / 2

    def test_byte_and_transfer_counters(self, mod):
        _sim, obs, _out = run_observed(mod)
        assert obs.cdr_bytes["encoded"] > 0
        assert obs.cdr_bytes["decoded"] > 0
        assert obs.transfer["schedules"] > 0
        assert obs.transfer["elements"] > 0
        assert len(obs.packet_trace) > 0
        assert obs.bytes_by_op().get("total", 0) > 0

    def test_chrome_trace_valid_and_complete(self, mod):
        _sim, obs, _out = run_observed(mod)
        trace = obs.chrome_trace()
        n = validate_chrome_trace(
            trace, require_phases=("marshal", "send", "wait", "unmarshal",
                                   "dispatch", "recv_args", "compute",
                                   "reply", "transport"))
        assert n == len(trace["traceEvents"])
        import json

        json.dumps(trace)  # must be serializable as-is

    def test_report_mentions_ops_and_percentiles(self, mod):
        _sim, obs, _out = run_observed(mod)
        text = obs.report()
        assert "total" in text
        assert "p50" in text and "p99" in text
        assert "requests:" in text
        assert "cdr streams:" in text

    def test_detach_restores_globals(self, mod):
        """Detach restores the world's blackboard (``world.services``) and
        every hook attach set; no process-global hook exists."""
        sim, _obs, _out = build_stats_world(mod, observe=False)
        handle = attach(sim.world)
        obs = handle.observer
        sim.run()
        assert sim.orb.observer is obs
        handle.detach()
        assert sim.orb.observer is None
        assert "observer" not in sim.world.services
        assert obs.packet_trace not in sim.world.transport.observers
        assert len(sim.orb.interceptors) == 0


class TestWorldIsolation:
    """Counters belong to the world that did the work: two simulations in
    one process never see each other's bytes or schedules."""

    @staticmethod
    def counts(obs):
        return dict(obs.cdr_bytes), dict(obs.transfer)

    def test_each_world_counts_only_its_own_traffic(self, mod):
        _sim, solo, _out = run_observed(mod)
        assert solo.cdr_bytes["encoded"] > 0
        assert solo.transfer["schedules"] > 0

        sim_a, obs_a, _ = build_stats_world(mod)
        sim_b, obs_b, _ = build_stats_world(mod)
        sim_a.run()
        assert self.counts(obs_a) == self.counts(solo)
        assert obs_b.cdr_bytes == {"encoded": 0, "decoded": 0}
        assert obs_b.transfer == {"schedules": 0, "fragments": 0,
                                  "elements": 0}

        unobserved, _, _ = build_stats_world(mod, observe=False)
        unobserved.run()
        assert self.counts(obs_a) == self.counts(solo)
        assert obs_b.transfer["schedules"] == 0
        sim_b.close()

    def test_redistribution_reports_to_its_world(self):
        from repro.core import Distribution, resolve_dist_spec
        from repro.core.dsequence import DistributedSequence

        def build(observe):
            sim = Simulation()
            obs = attach(sim.world).observer if observe else None

            def main(ctx):
                n = 40
                d = DistributedSequence.from_global(
                    np.arange(n, dtype=float),
                    Distribution.block(n, ctx.nprocs), ctx.rank)
                d.redistribute(resolve_dist_spec("CYCLIC", n, ctx.nprocs),
                               ctx.rts)

            sim.client(main, host="HOST_1", nprocs=3)
            return sim, obs

        sim_a, obs_a = build(True)
        sim_b, obs_b = build(True)
        sim_a.run()
        build(False)[0].run()
        assert obs_a.transfer["schedules"] == 3    # one per thread
        assert obs_a.cdr_bytes["encoded"] == obs_a.cdr_bytes["decoded"] > 0
        assert obs_b.transfer["schedules"] == 0
        assert obs_b.cdr_bytes == {"encoded": 0, "decoded": 0}
        stats = sim_a.world.transport.buffer_pool.stats
        assert stats.fast_encodes == stats.borrows > 0  # leased from world A
        assert stats.outstanding == 0
        sim_b.close()


class TestDisabledByDefault:
    def test_no_observer_without_attach(self, mod):
        sim = Simulation()
        assert sim.orb.observer is None
        assert "observer" not in sim.world.services
        assert sim.world.transport.observers == []
        assert len(sim.orb.interceptors) == 0

    def test_run_unobserved_records_nothing(self, mod):
        sim = Simulation()

        def server_main(ctx):
            class Impl(mod.stats_skel):
                def total(self, xs):
                    return 0.0

                def note(self, x):
                    pass

            ctx.poa.activate(Impl(), "stats", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)

        def client_main(ctx):
            s = mod.stats._spmd_bind("stats")
            s.total(ctx.dseq(np.arange(4.0)))

        sim.client(client_main, host="HOST_1", nprocs=1)
        sim.run()  # nothing to assert beyond: no observer, no crash


class TestTraceSession:
    def test_merged_runs_get_distinct_pids(self):
        session = TraceSession()
        for i in range(2):
            obs = RequestObserver(label=f"run{i}")
            obs.span("marshal", "op", f"r{i}", "prog", 0, 0.0, 1e-6)
            session.handles.append(Instruments(obs))
        trace = session.chrome_trace()
        validate_chrome_trace(trace, require_phases=("marshal",))
        pids = {ev["pid"] for ev in trace["traceEvents"]}
        assert len(pids) >= 2

    def test_write_and_reload(self, tmp_path):
        session = TraceSession()
        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 2.0)
        session.handles.append(Instruments(obs))
        path = tmp_path / "trace.json"
        session.write(str(path))
        import json

        reloaded = json.loads(path.read_text())
        assert validate_chrome_trace(reloaded,
                                     require_phases=("compute",)) > 0


class TestValidation:
    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": 0.0}]})
        with pytest.raises(ValueError, match="no spans"):
            validate_chrome_trace({"traceEvents": []},
                                  require_phases=("compute",))

    def test_phase_lists_cover_span_sites(self):
        assert set(CLIENT_PHASES) & set(SERVER_PHASES) == set()


# ---------------------------------------------------------------------------
# Bounded stores: the ring buffers shed oldest-first and count every loss
# ---------------------------------------------------------------------------


class TestBoundedStores:
    def test_span_ring_buffer_sheds_oldest(self):
        obs = RequestObserver(span_capacity=4)
        for i in range(10):
            obs.span("compute", "op", f"r{i}", "prog", 0, float(i), i + 0.5)
        assert len(obs.spans) == 4
        assert obs.spans.dropped == 6
        assert [s.req for s in obs.spans] == ["r6", "r7", "r8", "r9"]

    def test_request_store_bounded(self):
        obs = RequestObserver(span_capacity=3)
        for i in range(5):
            obs.request_started(f"r{i}", "op", "prog", 0, float(i))
        assert len(obs.requests) == 3
        assert obs.requests_dropped == 2
        # the survivors are the most recent three
        assert {req for (req, _p, _r) in obs.requests} == {"r2", "r3", "r4"}

    def test_packet_ring_buffer_counts_drops(self):
        from types import SimpleNamespace

        obs = RequestObserver(packet_capacity=2)
        for _ in range(5):
            obs.packet_trace(SimpleNamespace(
                send_time=0.0, arrival=1e-3, src="a:0", dst="b:0",
                tag=0, nbytes=8))
        assert len(obs.packet_trace) == 2
        assert obs.packet_trace.dropped == 3
        assert "3 oldest records dropped" in obs.packet_trace.summary()

    def test_report_surfaces_store_drops(self):
        obs = RequestObserver(span_capacity=2)
        for i in range(4):
            obs.span("compute", "op", f"r{i}", "prog", 0, 0.0, 1.0)
        assert "store drops: 2 spans" in obs.report()

    def test_report_surfaces_dead_letters(self):
        from types import SimpleNamespace

        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 1.0)
        obs.orb = SimpleNamespace(
            dead_fragments=2, dead_result_fragments=1,
            interceptors=SimpleNamespace(finish_request_errors=0),
            world=SimpleNamespace(services={}))
        assert ("dead-lettered: 2 argument fragments, 1 result fragments"
                in obs.report())

    def test_unbounded_when_capacity_is_none(self):
        obs = RequestObserver(span_capacity=None, packet_capacity=None)
        for i in range(100):
            obs.span("compute", "op", f"r{i}", "prog", 0, 0.0, 1.0)
            obs.request_started(f"r{i}", "op", "prog", 0, 0.0)
        assert len(obs.spans) == 100
        assert obs.spans.dropped == 0
        assert obs.requests_dropped == 0


# ---------------------------------------------------------------------------
# Stitched trees and cross-world flow arrows
# ---------------------------------------------------------------------------


def _annotated(obs, phase, req, program, rank, t0, t1, trace, span, parent,
               op="work"):
    obs.spans.append(Span(phase, op, req, program, rank, t0, t1, 0,
                          trace, span, parent))


class TestTraceTreeAndFlows:
    def test_trace_tree_renders_hops_and_rank_envelopes(self):
        obs = RequestObserver()
        _annotated(obs, "marshal", "1", "cli", 0, 0.0, 0.1, "t1", "c:1", "")
        _annotated(obs, "wait", "1", "cli", 1, 0.05, 0.4, "t1", "c:1", "")
        _annotated(obs, "dispatch", "1", "srv", 0, 0.2, 0.3, "t1", "s:1",
                   "c:1")
        tree = obs.trace_tree()
        assert tree.startswith("trace t1 — 2 node(s)")
        assert "client work @cli [ranks 0-1]" in tree
        assert "server work @srv [rank 0]" in tree
        assert "+0.200000s after parent" in tree

    def test_trace_tree_without_tracer_notes_absence(self):
        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 1.0)
        assert "no annotated spans" in obs.trace_tree()

    def test_cross_world_edges_emit_matched_flow_events(self):
        obs = RequestObserver()
        _annotated(obs, "marshal", "1", "cli", 0, 0.0, 0.4, "t1", "c:1", "")
        _annotated(obs, "dispatch", "1", "srv", 0, 0.2, 0.3, "t1", "s:1",
                   "c:1")
        trace = obs.chrome_trace()
        flows = [ev for ev in trace["traceEvents"] if ev.get("cat") == "flow"]
        assert {ev["ph"] for ev in flows} == {"s", "f"}
        assert {ev["id"] for ev in flows} == {"s:1"}
        n = validate_chrome_trace(trace, require_flow_events=1)
        assert n == len(trace["traceEvents"])

    def test_same_program_nesting_emits_no_flow_arrows(self):
        obs = RequestObserver()
        _annotated(obs, "marshal", "1", "cli", 0, 0.0, 0.4, "t1", "c:1", "")
        _annotated(obs, "marshal", "2", "cli", 0, 0.1, 0.2, "t1", "c:2",
                   "c:1")
        trace = obs.chrome_trace()
        assert not [ev for ev in trace["traceEvents"]
                    if ev.get("cat") == "flow"]

    def test_validation_enforces_flow_event_floor(self):
        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="flow event"):
            validate_chrome_trace(obs.chrome_trace(), require_flow_events=1)

    def test_validation_rejects_unmatched_flow(self):
        trace = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "ts": 0.0, "dur": 1.0},
            {"name": "trace", "cat": "flow", "ph": "s", "id": "a",
             "ts": 0.0, "pid": 1},
        ]}
        with pytest.raises(ValueError, match="unmatched flow"):
            validate_chrome_trace(trace)
