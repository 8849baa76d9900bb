"""Edge cases through the full invocation path: empty distributed
arguments, cyclic wire layouts, single-element sequences, and experiment
determinism."""

import numpy as np
import pytest

from repro.core import Simulation
from repro.idl import compile_idl

IDL = """
    typedef dsequence<double, 100000> vec;
    typedef dsequence<double, 100000, CYCLIC, CYCLIC> cycvec;
    interface edge {
        double total(in vec v);
        void roundtrip(in cycvec v, out cycvec w);
        long length(in vec v);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="edge_stubs")


def run_pair(mod, client_main, server_np=3, client_np=2):
    sim = Simulation()

    def server_main(ctx):
        from repro.core import DistributedSequence
        from repro.runtime import collectives as coll

        class Impl(mod.edge_skel):
            def total(self, v):
                local = float(np.sum(v.owned_data))
                return coll.allreduce(ctx.rts, local, lambda a, b: a + b)

            def roundtrip(self, v):
                return DistributedSequence(
                    v.element, v.dist, v.rank,
                    np.asarray(v.owned_data) + 1.0)

            def length(self, v):
                return len(v)

        ctx.poa.activate(Impl(), "edge", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=server_np)
    out = {}

    def wrapped(ctx):
        out[ctx.rank] = client_main(ctx)

    sim.client(wrapped, host="HOST_1", nprocs=client_np)
    sim.run()
    return out


class TestEmptyDistributedArguments:
    def test_zero_length_dsequence(self, mod):
        def main(ctx):
            v = ctx.dseq(0)
            e = mod.edge._spmd_bind("edge")
            return (e.total(v), e.length(v))

        out = run_pair(mod, main)
        assert out == {0: (0.0, 0), 1: (0.0, 0)}

    def test_single_element(self, mod):
        def main(ctx):
            v = ctx.dseq(np.array([42.0]))
            e = mod.edge._spmd_bind("edge")
            return e.total(v)

        out = run_pair(mod, main)
        assert out == {0: 42.0, 1: 42.0}

    def test_fewer_elements_than_threads(self, mod):
        """3 elements spread over more server threads than elements."""

        def main(ctx):
            v = ctx.dseq(np.array([1.0, 2.0, 3.0]))
            e = mod.edge._spmd_bind("edge")
            return e.total(v)

        out = run_pair(mod, main, server_np=5, client_np=2)
        assert out[0] == 6.0


class TestCyclicOverTheWire:
    def test_cyclic_both_sides(self, mod):
        n = 23

        def main(ctx):
            v = ctx.dseq(np.arange(float(n)), dist="CYCLIC")
            e = mod.edge._spmd_bind("edge")
            w = e.roundtrip(v)
            assert w.dist.kind == "CYCLIC"
            expected = [i + 1.0 for i in w.dist.global_indices(ctx.rank)]
            np.testing.assert_array_equal(w.owned_data, expected)
            return float(np.sum(w.owned_data))

        out = run_pair(mod, main)
        total = sum(out.values())
        assert total == pytest.approx(sum(range(23)) + 23)

    def test_cyclic_uneven_thread_counts(self, mod):
        def main(ctx):
            v = ctx.dseq(np.ones(31), dist="CYCLIC")
            e = mod.edge._spmd_bind("edge")
            return e.total(v)

        out = run_pair(mod, main, server_np=4, client_np=3)
        assert all(v == 31.0 for v in out.values())


class TestExperimentDeterminism:
    def test_fig2_deterministic(self):
        from repro.experiments import run_fig2

        a = run_fig2(sizes=(100,))
        b = run_fig2(sizes=(100,))
        assert a == b

    def test_fig5_deterministic(self):
        from repro.experiments import run_fig5

        a = run_fig5(procs=(2,), steps=8, n=16)
        b = run_fig5(procs=(2,), steps=8, n=16)
        assert a == b
