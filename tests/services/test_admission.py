"""Admission control: bounded queues, scheduling policies, shedding,
backpressure, and the client-side throttle."""

import pytest

from repro.core import OrbConfig, Simulation, TransientException
from repro.core.pipeline.deadline import DEADLINE_CONTEXT
from repro.core.request import (
    BACKPRESSURE_CONTEXT,
    LOAD_CONTEXT,
    PRIORITY_CONTEXT,
    RequestHeader,
)
from repro.idl import compile_idl
from repro.services import (
    AdmissionController,
    PriorityInterceptor,
    ThrottleInterceptor,
)
from repro.services.admission import BACKOFF_HINT, HIGH_WATERMARK

IDL = """
    interface slowsvc {
        long crunch(in long x);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="admission_stubs")


def _hdr(req_id=0, op="crunch", forwarded=False, contexts=None,
         oneway=False):
    return RequestHeader(
        req_id=req_id, object_name="o", op=op, kind="spmd",
        client_program_id=0, client_nthreads=1, reply_to=(),
        scalar_args=b"", oneway=oneway, forwarded=forwarded,
        service_contexts=dict(contexts or {}))


class TestAdmissionControllerUnit:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            AdmissionController(policy="lifo")

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionController(capacity=0)

    def test_fifo_order_and_shed(self):
        adm = AdmissionController(capacity=2)
        a, b, c = _hdr(1), _hdr(2), _hdr(3)
        assert adm.offer(a, 0.0)
        assert adm.offer(b, 0.0)
        assert not adm.offer(c, 0.0)          # over capacity: shed
        assert adm.pop(1.0) is a
        assert adm.pop(1.0) is b
        assert adm.pop(1.0) is None
        assert (adm.accepted, adm.shed, adm.served) == (2, 1, 2)
        assert adm.max_depth == 2
        assert adm.total_wait == pytest.approx(2.0)

    def test_forwarded_always_admitted_and_served_first(self):
        adm = AdmissionController(capacity=1)
        direct = _hdr(1)
        assert adm.offer(direct, 0.0)
        # Queue is full, but forwarded SPMD headers bypass admission:
        # they replay rank 0's already-made decision.
        fwd = _hdr(2, forwarded=True)
        assert adm.offer(fwd, 0.0)
        assert adm.queue_depth == 2
        assert adm.pop(0.0) is fwd
        assert adm.pop(0.0) is direct
        # Forwarded headers never count as accepted/shed decisions.
        assert (adm.accepted, adm.shed) == (1, 0)

    def test_priority_policy_highest_first_fifo_within(self):
        adm = AdmissionController(capacity=8, policy="priority")
        lo1 = _hdr(1, contexts={PRIORITY_CONTEXT: 1})
        hi = _hdr(2, contexts={PRIORITY_CONTEXT: 5})
        lo2 = _hdr(3, contexts={PRIORITY_CONTEXT: 1})
        none = _hdr(4)                        # unstamped = level 0
        for h in (lo1, hi, lo2, none):
            adm.offer(h, 0.0)
        assert [adm.pop(0.0) for _ in range(4)] == [hi, lo1, lo2, none]

    def test_edf_policy_earliest_deadline_first_undated_last(self):
        adm = AdmissionController(capacity=8, policy="edf")
        late = _hdr(1, contexts={DEADLINE_CONTEXT: 9.0})
        undated = _hdr(2)
        soon = _hdr(3, contexts={DEADLINE_CONTEXT: 1.0})
        for h in (late, undated, soon):
            adm.offer(h, 0.0)
        assert [adm.pop(0.0) for _ in range(3)] == [soon, late, undated]

    def test_stamp_reply_load_report_and_backpressure(self):
        adm = AdmissionController(capacity=4)
        contexts = {}
        adm.stamp_reply(contexts)
        assert contexts[LOAD_CONTEXT]["queue_depth"] == 0
        assert contexts[LOAD_CONTEXT]["capacity"] == 4
        assert BACKPRESSURE_CONTEXT not in contexts
        for i in range(2):                    # just below 0.75 * 4
            adm.offer(_hdr(i), 0.0)
        contexts = {}
        adm.stamp_reply(contexts)
        assert BACKPRESSURE_CONTEXT not in contexts
        adm.offer(_hdr(2), 0.0)               # reach the watermark
        contexts = {}
        adm.stamp_reply(contexts)
        assert contexts[LOAD_CONTEXT]["queue_depth"] == 3
        assert contexts[BACKPRESSURE_CONTEXT] == BACKOFF_HINT == 5e-3
        assert HIGH_WATERMARK == 0.75

    def test_sweep_budget_follows_capacity(self):
        assert AdmissionController(capacity=1).sweep_budget == 8
        assert AdmissionController(capacity=4).sweep_budget == 8
        assert AdmissionController(capacity=32).sweep_budget == 64


class TestPriorityInterceptor:
    class _Info:
        def __init__(self, op_name):
            self.op_name = op_name
            self.service_contexts = {}

    def test_stamps_nonzero_levels_only(self):
        pi = PriorityInterceptor(default=0, per_op={"urgent": 9})
        info = self._Info("urgent")
        pi.send_request(info)
        assert info.service_contexts[PRIORITY_CONTEXT] == 9
        info = self._Info("routine")
        pi.send_request(info)
        assert PRIORITY_CONTEXT not in info.service_contexts


def _overloaded(mod, n_clients, capacity, requests=8, throttle=False,
                service_time=2e-3):
    """A slow single-threaded server behind admission control, hammered
    by closed-loop clients.  Returns (sim, controller-holder, results)."""
    sim = Simulation(config=OrbConfig(max_outstanding=1))
    throttler = (sim.register_interceptor(ThrottleInterceptor(seed=3))
                 if throttle else None)
    holder = {}

    def server_main(ctx):
        class Impl(mod.slowsvc_skel):
            def crunch(self, x):
                ctx.compute(service_time)
                return x

        ctx.poa.activate(Impl(), "slow", kind="spmd")
        adm = AdmissionController(capacity=capacity)
        ctx.poa.set_admission(adm)
        holder["adm"] = adm
        ctx.poa.impl_is_ready()

    results = {"ok": 0, "shed": 0}

    def client_main(ctx):
        p = mod.slowsvc._bind("slow")
        for i in range(requests):
            try:
                assert p.crunch(i) == i
            except TransientException as exc:
                assert "shed by admission control" in str(exc)
                results["shed"] += 1
            else:
                results["ok"] += 1

    sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client_main, host="HOST_1", nprocs=n_clients)
    return sim, holder, results, throttler


class TestAdmissionEndToEnd:
    def test_overload_sheds_with_transient_exception(self, mod):
        sim, holder, results, _ = _overloaded(mod, n_clients=4, capacity=1)
        sim.run()
        adm = holder["adm"]
        assert results["shed"] > 0
        assert results["shed"] == adm.shed
        assert results["ok"] == adm.served == adm.accepted
        assert results["ok"] + results["shed"] == 4 * 8
        assert adm.queue_depth == 0           # drained at the end

    def test_no_shedding_under_light_load(self, mod):
        sim, holder, results, _ = _overloaded(mod, n_clients=1, capacity=4)
        sim.run()
        assert results == {"ok": 8, "shed": 0}
        assert holder["adm"].shed == 0

    def test_throttle_reduces_shedding(self, mod):
        sim, _, plain, _ = _overloaded(mod, n_clients=4, capacity=1)
        sim.run()
        sim2, _, paced, throttler = _overloaded(mod, n_clients=4,
                                                capacity=1, throttle=True)
        sim2.run()
        assert throttler.throttled > 0
        assert throttler.total_backoff > 0.0
        assert paced["shed"] < plain["shed"]

    def test_shed_span_and_admission_metrics(self, mod):
        from repro.tools import attach

        sim, _, results, _ = _overloaded(mod, n_clients=4, capacity=1)
        handle = attach(sim.world, metrics=True)
        obs, reg = handle.observer, handle.registry
        sim.run()
        assert results["shed"] > 0
        assert "shed" in {s.phase for s in obs.spans}
        snap = reg.snapshot()
        samples = snap["pardis_admission_requests_total"]["samples"]
        by_outcome = {s["labels"]["outcome"]: s["value"] for s in samples}
        assert by_outcome["shed"] == results["shed"]
        assert by_outcome["accepted"] == by_outcome["served"]
        assert "pardis_admission_queue_depth" in snap
