"""Small-surface coverage: kernel tracing, one-sided registry helpers,
placeholder arity, bad arguments, proxy introspection."""

import numpy as np
import pytest

from repro.core import BindingError, Future, FutureError, Simulation
from repro.idl import compile_idl
from repro.runtime import TulipRuntime
from repro.simkernel import SimKernel
from repro.tools import attach

from ..runtime.conftest import make_world

IDL = """
    typedef dsequence<double, 64> mvec;
    interface tiny { long two_outs(out long a, out long b); };
    interface marshalled { void f(in long x, in mvec v, out mvec w); };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="misc_cov_stubs")


class TestKernelTrace:
    def test_trace_callback_sees_resumes(self):
        lines = []
        k = SimKernel(trace=lines.append)
        k.spawn(lambda: k.advance(1.0), name="traced")
        k.run()
        assert any("traced" in ln for ln in lines)
        assert any("[1.0" in ln or "[0.0" in ln for ln in lines)


class TestOneSidedRegistry:
    def test_registered_and_unregister(self):
        def main(rts):
            rts.register("k", [1, 2])
            assert rts.registered("k") == [1, 2]
            rts.unregister("k")
            with pytest.raises(KeyError):
                rts.registered("k")
            rts.unregister("k")  # idempotent

        world = make_world()
        world.launch(main, host="hostA", nprocs=1, rts_factory=TulipRuntime)
        world.run()


def _run_tiny(mod, local, body):
    """Run ``body(ctx, proxy)`` on a client bound to ``tiny``: in another
    program, or (``local``) in its own, so every call takes the §4.1
    local bypass.  The world's observer is attached.  Returns the
    servant's call count."""
    sim = Simulation()
    attach(sim.world)
    calls = []

    def servant():
        class Impl(mod.tiny_skel):
            def two_outs(self):
                calls.append(1)
                return (0, 1, 2)

        return Impl()

    def server_main(ctx):
        ctx.poa.activate(servant(), "tiny", kind="spmd")
        ctx.poa.impl_is_ready()

    def client(ctx):
        if local:
            ctx.poa.activate(servant(), "tiny", kind="spmd")
        t = mod.tiny._bind("tiny")
        assert t._binding.local == local
        body(ctx, t)

    if not local:
        sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client, host="HOST_1")
    sim.run()
    return len(calls)


class TestPlaceholderArity:
    @pytest.mark.parametrize("local", [False, True])
    def test_too_many_placeholders_rejected(self, mod, local):
        out = {}

        def body(ctx, t):
            with pytest.raises(BindingError, match="placeholders"):
                t.two_outs_nb(Future(), Future(), Future())
            # correct arity works, and both placeholders resolve
            a, b = Future(), Future()
            ret = t.two_outs_nb(a, b).value()
            out["vals"] = (ret, a.value(), b.value())

        _run_tiny(mod, local, body)
        assert out["vals"] == ((0, 1, 2), 1, 2)

    @pytest.mark.parametrize("local", [False, True])
    def test_settled_placeholder_rejected_before_the_call(self, mod, local):
        """A placeholder that is already settled fails the call before a
        request id is drawn: the servant does not run, no reply is left
        queued, the observer records nothing for it, and a placeholder
        ahead of it is left unarmed for the next call."""
        out = {}

        def body(ctx, t):
            a = Future()
            t.two_outs_nb(a, Future()).value()   # settles a
            obs = ctx.orb.observer
            n_records = len(obs.requests)
            fresh = Future()
            for placeholders in ((a, Future()), (fresh, a)):
                with pytest.raises(FutureError, match="already bound"):
                    t.two_outs_nb(*placeholders)
            ctx.compute(1.0)
            out["queued"] = len(ctx.endpoint.channel)
            out["records"] = len(obs.requests) - n_records
            out["statuses"] = {rec[3] for rec in obs.requests.values()}
            t.two_outs_nb(fresh, Future()).value()
            out["fresh"] = fresh.value()

        assert _run_tiny(mod, local, body) == 2
        assert out == {"queued": 0, "records": 0, "statuses": {"ok"},
                       "fresh": 1}


class TestBadArguments:
    @pytest.mark.parametrize("bad,error,match", [
        ("scalar", ValueError, "long"),
        ("plain_list", TypeError, "must be a DistributedSequence"),
        ("spec", TypeError, "cannot interpret"),
    ], ids=["scalar", "plain_list", "spec"])
    def test_bad_argument_fails_before_the_request_opens(self, mod, bad,
                                                         error, match):
        """An argument the stub cannot marshal raises at the call site
        with nothing armed, drawn, recorded or sent: the placeholder is
        free for the next call, which gets the next request id, and
        every record the observer holds is settled."""
        sim = Simulation()
        obs = attach(sim.world).observer
        out = {}

        def server_main(ctx):
            class Impl(mod.marshalled_skel):
                def f(self, x, v):
                    return v

            ctx.poa.activate(Impl(), "m", kind="spmd")
            ctx.poa.impl_is_ready()

        def client(ctx):
            t = mod.marshalled._spmd_bind("m")
            v = mod.mvec(np.arange(8.0))
            args = {"scalar": ("not a long", v, {}),
                    "plain_list": (1, list(range(8)), {}),
                    "spec": (1, v, {"w": object()})}[bad]
            w = Future()
            sent = sim.orb.requests_sent
            with pytest.raises(error, match=match):
                t.f_nb(args[0], args[1], w, _distributions=args[2])
            out[ctx.rank, "sent"] = sim.orb.requests_sent - sent
            t.f_nb(1, v, w).value()
            out[ctx.rank, "w"] = list(w.value().owned_data)
            out[ctx.rank, "req"] = t._binding.next_req_id()[1]

        sim.server(server_main, host="HOST_2", nprocs=1)
        sim.client(client, host="HOST_1", nprocs=2)
        sim.run()
        assert out == {(0, "sent"): 0, (0, "w"): [0.0, 1.0, 2.0, 3.0],
                       (0, "req"): 2, (1, "sent"): 0,
                       (1, "w"): [4.0, 5.0, 6.0, 7.0], (1, "req"): 2}
        assert sorted(rec[3] for rec in obs.requests.values()) == [
            "ok", "ok"]


class TestProxyIntrospection:
    def test_object_name_and_repr(self, mod):
        sim = Simulation()

        def server_main(ctx):
            class Impl(mod.tiny_skel):
                def two_outs(self):
                    return (0, 0, 0)

            ctx.poa.activate(Impl(), "tiny", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)
        out = {}

        def client(ctx):
            t = mod.tiny._bind("tiny")
            out["name"] = t._object_name
            out["repr"] = repr(t)
            out["local"] = t._is_local

        sim.client(client, host="HOST_1")
        sim.run()
        assert out["name"] == "tiny"
        assert "tiny" in out["repr"]
        assert out["local"] is False
