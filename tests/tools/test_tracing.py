"""Distributed tracing: wire propagation, SPMD fan-out, nested-call
stitching, local bypass, failures, and coexistence with the other
shipped interceptors."""

import pytest

from repro.core import (
    DeadlineInterceptor,
    FaultInjectionInterceptor,
    Simulation,
    SystemException,
)
from repro.idl import compile_idl
from repro.tools import (
    TRACE_CONTEXT,
    TracingInterceptor,
    attach,
)
from repro.tools.tracing import request_trace_id
from repro.core.pipeline import RequestInterceptor

IDL = """
    interface back { long deep(in long x); };
    interface front { long work(in long x); long boom(in long x); };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="tracing_stubs")


def build_chain(mod, *, client_np=1, front_np=1):
    """client -> front -> back: the front servant invokes the back
    object from inside its own dispatched request."""
    sim = Simulation()

    def back_main(ctx):
        class Back(mod.back_skel):
            def deep(self, x):
                return x * 10

        ctx.poa.activate(Back(), "back", kind="spmd")
        ctx.poa.impl_is_ready()

    def front_main(ctx):
        downstream = mod.back._bind("back")

        class Front(mod.front_skel):
            def work(self, x):
                return downstream.deep(x) + 1

            def boom(self, x):
                downstream.deep(x)  # the nested hop succeeds first
                raise RuntimeError("kaboom")

        ctx.poa.activate(Front(), "front", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(back_main, host="HOST_2", nprocs=1, name="backworld")
    sim.server(front_main, host="HOST_2", nprocs=front_np,
               name="frontworld")
    return sim


class WireProbe(RequestInterceptor):
    """Captures the trace service contexts seen on each side."""

    name = "wire-probe"

    def __init__(self):
        self.server_saw = []
        self.client_reply_saw = []

    def receive_request(self, info):
        self.server_saw.append(
            (info.op_name, info.service_contexts.get(TRACE_CONTEXT)))

    def receive_reply(self, info):
        self.client_reply_saw.append(
            (info.op_name, info.reply_service_contexts.get(TRACE_CONTEXT)))


def test_wire_context_round_trip(mod):
    sim = build_chain(mod)
    tracer = sim.register_interceptor(TracingInterceptor())
    probe = sim.register_interceptor(WireProbe())
    out = {}

    def client(ctx):
        srv = mod.front._bind("front")
        out["v"] = srv.work(4)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["v"] == 41

    # Both hops (work, deep) carried a context on the request...
    ops = {op for op, wire in probe.server_saw}
    assert ops == {"work", "deep"}
    for op, wire in probe.server_saw:
        assert set(wire) == {"trace_id", "span_id"}
        assert wire["span_id"].startswith("c:")
    # ... sharing one trace id (deep is nested inside work).
    assert len({wire["trace_id"] for _, wire in probe.server_saw}) == 1
    # Replies echoed the server's context back.
    for op, wire in probe.client_reply_saw:
        assert wire is not None and wire["span_id"].startswith("s:")
    assert tracer.counters["traces_started"] == 1
    assert tracer.counters["traces_joined"] == 2
    assert tracer.counters["replies_echoed"] == 2


def test_nested_invocation_stitches_one_tree(mod):
    sim = build_chain(mod)
    obs = attach(sim.world, tracing=True).observer
    out = {}

    def client(ctx):
        srv = mod.front._bind("front")
        out["v"] = srv.work(7)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["v"] == 71

    nodes = obs._trace_nodes()
    assert len(nodes) == 4  # client work, server work, client deep, server deep
    assert len({n["trace_id"] for n in nodes.values()}) == 1
    by_id = {sid: n for sid, n in nodes.items()}
    # Walk parent links from the deepest node back to the root.
    deep_server = next(n for n in nodes.values()
                       if n["side"] == "server" and n["op"] == "deep")
    deep_client = by_id[deep_server["parent_id"]]
    assert deep_client["side"] == "client" and deep_client["op"] == "deep"
    work_server = by_id[deep_client["parent_id"]]
    assert work_server["side"] == "server" and work_server["op"] == "work"
    work_client = by_id[work_server["parent_id"]]
    assert work_client["side"] == "client" and work_client["op"] == "work"
    assert work_client["parent_id"] == ""  # the root

    tree = obs.trace_tree()
    assert "after parent" in tree
    assert tree.count("└─") == 4  # one branch glyph per node


def test_spmd_fanout_shares_one_logical_span(mod):
    """Every thread of a collective invocation derives the same ids
    without communicating: the fan-out is one logical span per side."""
    sim = Simulation()

    def back_main(ctx):
        class Back(mod.back_skel):
            def deep(self, x):
                return x * 10

        ctx.poa.activate(Back(), "back", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(back_main, host="HOST_2", nprocs=3, name="backworld")
    obs = attach(sim.world, tracing=True).observer
    results = {}

    def client(ctx):
        srv = mod.back._spmd_bind("back")
        results[ctx.rank] = srv.deep(2)

    sim.client(client, host="HOST_1", nprocs=2)
    sim.run()
    assert results == {0: 20, 1: 20}

    nodes = obs._trace_nodes()
    server_nodes = [n for n in nodes.values() if n["side"] == "server"]
    client_nodes = [n for n in nodes.values() if n["side"] == "client"]
    # One logical span per side, covering every participating rank.
    assert len(server_nodes) == 1 and server_nodes[0]["ranks"] == {0, 1, 2}
    assert len(client_nodes) == 1 and client_nodes[0]["ranks"] == {0, 1}
    assert server_nodes[0]["trace_id"] == client_nodes[0]["trace_id"]
    assert server_nodes[0]["parent_id"] == client_nodes[0]["span_id"]


def test_local_bypass_frames_scope_and_stitches_downstream(mod):
    """A §4.1 local bypass opens a client scope on the calling thread,
    so the servant's own remote invocation joins the same trace."""
    sim = Simulation()

    def back_main(ctx):
        class Back(mod.back_skel):
            def deep(self, x):
                return x * 10

        ctx.poa.activate(Back(), "back", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(back_main, host="HOST_2", nprocs=1, name="backworld")
    handle = attach(sim.world, tracing=True)
    obs, tracer = handle.observer, handle.tracer
    out = {}

    def prog(ctx):
        downstream = mod.back._bind("back")

        class Front(mod.front_skel):
            def work(self, x):
                return downstream.deep(x) + 1

            def boom(self, x):
                raise RuntimeError("kaboom")

        ctx.poa.activate(Front(), "front", kind="spmd")
        srv = mod.front._bind("front")
        assert srv._binding.local
        out["v"] = srv.work(3)

    sim.client(prog, host="HOST_1", name="combined")
    sim.run()
    assert out["v"] == 31
    assert tracer.counters["local_scopes"] == 1

    nodes = obs._trace_nodes()
    assert len({n["trace_id"] for n in nodes.values()}) == 1
    local = next(n for n in nodes.values() if n["op"] == "work")
    deep_server = next(n for n in nodes.values()
                       if n["side"] == "server" and n["op"] == "deep")
    deep_client = nodes[deep_server["parent_id"]]
    # The nested call's client span parents under the bypassed call.
    assert deep_client["parent_id"] == local["span_id"]


def test_servant_failure_keeps_trace_context(mod):
    sim = build_chain(mod)
    obs = attach(sim.world, tracing=True).observer

    def client(ctx):
        srv = mod.front._bind("front")
        with pytest.raises(SystemException):
            srv.boom(1)

    sim.client(client, host="HOST_1")
    sim.run()
    nodes = obs._trace_nodes()
    assert len({n["trace_id"] for n in nodes.values()}) == 1
    assert {n["side"] for n in nodes.values()} == {"client", "server"}


def test_failing_request_records_every_span(mod):
    """Every trace is recorded, failures included: a request whose
    servant raises after a nested hop keeps its client and server spans
    and both spans of the nested hop, stitched into one tree."""
    sim = build_chain(mod)
    obs = attach(sim.world, tracing=True).observer

    def client(ctx):
        srv = mod.front._bind("front")
        with pytest.raises(SystemException):
            srv.boom(1)

    sim.client(client, host="HOST_1")
    sim.run()
    nodes = obs._trace_nodes()
    assert sorted((n["side"], n["op"]) for n in nodes.values()) == [
        ("client", "boom"), ("client", "deep"),
        ("server", "boom"), ("server", "deep")]
    assert len({n["trace_id"] for n in nodes.values()}) == 1
    deep_client = next(n for n in nodes.values()
                       if n["side"] == "client" and n["op"] == "deep")
    assert nodes[deep_client["parent_id"]]["op"] == "boom"


@pytest.mark.parametrize("tracer_first", [True, False])
def test_coexists_with_deadline_shedding(mod, tracer_first):
    """A request shed by the deadline interceptor leaves no leaked trace
    scope, whichever side of the tracer it is registered on."""
    sim = build_chain(mod)
    if tracer_first:
        tracer = sim.register_interceptor(TracingInterceptor())
        dl = sim.register_interceptor(DeadlineInterceptor(budget=1e-9))
    else:
        dl = sim.register_interceptor(DeadlineInterceptor(budget=1e-9))
        tracer = sim.register_interceptor(TracingInterceptor())
    out = {}

    def client(ctx):
        srv = mod.front._bind("front")
        with pytest.raises(SystemException, match="shed"):
            srv.work(1)
        ctx.orb.unregister_interceptor(dl)  # stop shedding; then retry
        out["retry"] = srv.work(2)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["retry"] == 21
    # The shed request and the retry each rooted a fresh trace: a scope
    # leaked by the shed dispatch would have nested the retry instead.
    assert tracer.counters["traces_started"] == 2


@pytest.mark.parametrize("tracer_first", [True, False])
def test_coexists_with_fault_injection(mod, tracer_first):
    """An abort injected at send_request leaves the tracer consistent in
    both registration orders (its send_request may or may not have run)."""
    sim = build_chain(mod)
    if tracer_first:
        tracer = sim.register_interceptor(TracingInterceptor())
        faults = sim.register_interceptor(FaultInjectionInterceptor())
    else:
        faults = sim.register_interceptor(FaultInjectionInterceptor())
        tracer = sim.register_interceptor(TracingInterceptor())
    faults.inject("send_request", op="work", times=1)
    out = {}

    def client(ctx):
        srv = mod.front._bind("front")
        with pytest.raises(SystemException, match="injected fault"):
            srv.work(1)
        out["retry"] = srv.work(2)  # rule exhausted

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["retry"] == 21
    # The retried request (and its nested hop) traced normally.
    assert tracer.counters["traces_joined"] == 2


def test_request_trace_id_is_injective():
    """Distinct request ids never share a trace id, not even when only
    the boundary between two fields moves (rank 1 with binding counter
    16 against rank 11 with counter 0)."""
    req_ids = [((program, scope, binding), seq)
               for program in (1, 11, 111)
               for scope in ("c", "r1", "r11", "r111")
               for binding in (0, 1, 10, 16)
               for seq in (1, 6, 11, 61)]
    ids = {request_trace_id(r) for r in req_ids}
    assert len(ids) == len(req_ids)
    assert (request_trace_id(((2, "r1", 16), 3))
            != request_trace_id(((2, "r11", 0), 3)))
    assert (request_trace_id(((2, "r1", 16), 3))
            != request_trace_id(((2, "r1", 1), 63)))


def test_ids_are_the_request_id_with_side_prefixes(mod):
    """The root request's id names the trace; each side's span id is the
    request id behind a ``c:``/``s:`` prefix, identical across runs."""
    def run():
        sim = Simulation()

        def back_main(ctx):
            class Back(mod.back_skel):
                def deep(self, x):
                    return x * 10

            ctx.poa.activate(Back(), "back", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(back_main, host="HOST_2", nprocs=2, name="backworld")
        obs = attach(sim.world, tracing=True).observer
        req_ids = []

        def client(ctx):
            srv = mod.back._spmd_bind("back")
            srv.deep(1)
            req_ids.append((srv._binding.uid, srv._binding._req_seq))

        sim.client(client, host="HOST_1", nprocs=2)
        sim.run()
        return obs, req_ids

    obs, req_ids = run()
    assert len(set(req_ids)) == 1  # one collective request
    rid = request_trace_id(req_ids[0])
    assert {(s.side, s.trace_id, s.span_id, s.parent_id)
            for s in obs.spans} == {("client", rid, "c:" + rid, ""),
                                    ("server", rid, "s:" + rid, "c:" + rid)}
    again, _ = run()
    assert [(s.trace_id, s.span_id) for s in again.spans] == [
        (s.trace_id, s.span_id) for s in obs.spans]


def test_detach_restores_untraced_wire(mod):
    sim = build_chain(mod)
    handle = attach(sim.world, tracing=True)
    handle.detach()
    probe = sim.register_interceptor(WireProbe())

    def client(ctx):
        srv = mod.front._bind("front")
        assert srv.work(1) == 11

    sim.client(client, host="HOST_1")
    sim.run()
    assert all(wire is None for _, wire in probe.server_saw)
    assert handle.tracer.counters["traces_started"] == 0
    assert handle.tracer not in sim.orb.interceptors
    handle.detach()  # idempotent
