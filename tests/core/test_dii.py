"""Dynamic Invocation Interface + Interface Repository tests."""

import numpy as np
import pytest

from repro.core import (
    BadOperation,
    InterfaceRepository,
    Simulation,
    dynamic_bind,
)
from repro.core.errors import BindingError
from repro.idl import compile_idl

IDL = """
    typedef dsequence<double, 1024> vec;
    interface mathsvc {
        double add(in double a, in double b);
        double total(in vec v);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="dii_stubs")


def run_world(mod, client_main, server_np=2, client_np=1):
    sim = Simulation()

    def server_main(ctx):
        from repro.runtime import collectives as coll

        class Impl(mod.mathsvc_skel):
            def add(self, a, b):
                return a + b

            def total(self, v):
                local = float(np.sum(v.owned_data))
                return coll.allreduce(ctx.rts, local, lambda x, y: x + y)

        ctx.poa.activate(Impl(), "mathsvc", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=server_np)
    out = {}

    def wrapped(ctx):
        out[ctx.rank] = client_main(ctx)

    sim.client(wrapped, host="HOST_1", nprocs=client_np)
    sim.run()
    return out


class TestInterfaceRepository:
    def test_register_lookup(self, mod):
        ir = InterfaceRepository()
        ir.register(mod.mathsvc._interface)
        assert ir.lookup("IDL:mathsvc:1.0").name == "mathsvc"
        assert ir.contains("IDL:mathsvc:1.0")
        assert ir.repo_ids() == ["IDL:mathsvc:1.0"]

    def test_missing_interface(self):
        with pytest.raises(BadOperation, match="not in the interface"):
            InterfaceRepository().lookup("IDL:ghost:1.0")


class TestDynamicInvocation:
    def test_blocking_invoke_without_stubs(self, mod):
        def main(ctx):
            p = dynamic_bind("mathsvc")
            return p.invoke("add", 2.0, 40.0)

        assert run_world(mod, main)[0] == 42.0

    def test_nonblocking_invoke(self, mod):
        def main(ctx):
            p = dynamic_bind("mathsvc")
            fut = p.invoke_nb("add", 1.0, 1.0)
            return fut.value()

        assert run_world(mod, main)[0] == 2.0

    def test_distributed_arg_through_dii(self, mod):
        def main(ctx):
            p = dynamic_bind("mathsvc", collective=True)
            v = ctx.dseq(np.arange(10.0))
            return p.invoke("total", v)

        out = run_world(mod, main, client_np=2)
        assert out == {0: 45.0, 1: 45.0}

    def test_operations_listing(self, mod):
        def main(ctx):
            return dynamic_bind("mathsvc").operations()

        assert run_world(mod, main)[0] == ["add", "total"]

    def test_unknown_operation(self, mod):
        def main(ctx):
            p = dynamic_bind("mathsvc")
            with pytest.raises(BadOperation, match="available"):
                p.invoke("subtract", 1.0, 2.0)
            return True

        assert run_world(mod, main)[0] is True

    def test_host_hint_checked(self, mod):
        def main(ctx):
            with pytest.raises(BindingError, match="HOST_1"):
                dynamic_bind("mathsvc", host="HOST_1")
            return True

        assert run_world(mod, main)[0] is True

    def test_repr(self, mod):
        def main(ctx):
            return repr(dynamic_bind("mathsvc"))

        assert "mathsvc" in run_world(mod, main)[0]


class TestTracing:
    def test_packet_trace_records_protocol_classes(self, mod):
        from repro.tools import attach

        sim = Simulation()

        def server_main(ctx):
            class Impl(mod.mathsvc_skel):
                def add(self, a, b):
                    return a + b

                def total(self, v):
                    return 0.0

            ctx.poa.activate(Impl(), "mathsvc", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        trace = attach(sim.world).observer.packet_trace

        def client(ctx):
            p = mod.mathsvc._bind("mathsvc")
            p.add(1.0, 2.0)

        sim.client(client, host="HOST_1", nprocs=1)
        sim.run()
        kinds = {r.kind for r in trace.records}
        assert "request" in kinds
        assert "reply" in kinds
        assert len(trace.by_kind("request")) == 1
        assert trace.bytes_by_kind()["request"] > 0
        assert ("HOST_1", "HOST_2") in trace.bytes_between_hosts()
        assert "packets" in trace.summary()
        assert "request" in trace.timeline()

    def test_timeline_limit(self, mod):
        from repro.tools.trace import PacketTrace, TraceRecord

        t = PacketTrace()
        for i in range(10):
            t.records.append(TraceRecord(0.0, 1.0, "a:0:0", "b:0:0",
                                         0, "user", 10))
        text = t.timeline(limit=3)
        assert text.count("user") == 3
        assert "..." in text

    def test_tag_class_names(self):
        from repro.runtime.tags import TAG_REQUEST_HEADER, collective_tag
        from repro.tools.trace import tag_class

        assert tag_class(TAG_REQUEST_HEADER) == "request"
        assert tag_class(collective_tag(0)) == "collective"
        assert tag_class(5) == "user"
        from repro.runtime.tags import PARDIS_TAG_BASE

        assert tag_class(PARDIS_TAG_BASE + 5) == "pardis-internal"
