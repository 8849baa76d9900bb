"""Property-based stress of the paper's core mechanism: ANY combination
of client layout, server layout, length, and thread counts must move
distributed arguments through a real invocation without loss."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulation
from repro.idl import compile_idl

IDL = """
    typedef dsequence<double, 1000000> vec;
    interface echo2 {
        void bounce(in vec v, out vec w);
        double checksum(in vec v);
    };
"""

_mod = compile_idl(IDL, module_name="transfer_prop_stubs")

KINDS = ["BLOCK", "CYCLIC", "CONCENTRATED"]


def run_case(n, client_np, server_np, in_kind, server_kind, out_kind):
    data = np.arange(float(n)) * 1.25
    sim = Simulation()

    def server_main(ctx):
        from repro.core import DistributedSequence
        from repro.runtime import collectives as coll

        class Impl(_mod.echo2_skel):
            def bounce(self, v):
                return DistributedSequence(v.element, v.dist, v.rank,
                                           np.asarray(v.owned_data))

            def checksum(self, v):
                local = float(np.sum(v.owned_data))
                return coll.allreduce(ctx.rts, local, lambda a, b: a + b)

        ctx.poa.activate(Impl(), "echo2", kind="spmd",
                         in_dists={("bounce", "v"): server_kind,
                                   ("checksum", "v"): server_kind})
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=server_np)
    gathered = {}

    def client(ctx):
        e = _mod.echo2._spmd_bind("echo2")
        v = ctx.dseq(data, dist=in_kind)
        total = e.checksum(v)
        w = e.bounce(v, _distributions={"w": out_kind})
        gathered[ctx.rank] = (total, w.dist.kind,
                              np.asarray(w.owned_data),
                              list(w.dist.global_indices(ctx.rank)))

    sim.client(client, host="HOST_1", nprocs=client_np)
    sim.run()
    return data, gathered


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 60),
    client_np=st.integers(1, 4),
    server_np=st.integers(1, 4),
    in_kind=st.sampled_from(KINDS),
    server_kind=st.sampled_from(KINDS),
    out_kind=st.sampled_from(KINDS),
)
def test_property_any_layout_combination_roundtrips(
        n, client_np, server_np, in_kind, server_kind, out_kind):
    data, gathered = run_case(n, client_np, server_np,
                              in_kind, server_kind, out_kind)
    expected_total = float(np.sum(data))
    reassembled = np.zeros(n)
    for rank, (total, kind, local, idx) in gathered.items():
        assert total == pytest.approx(expected_total)
        assert kind == out_kind
        reassembled[idx] = local
    np.testing.assert_allclose(reassembled, data)


def test_extreme_thread_imbalance():
    data, gathered = run_case(40, 1, 4, "CONCENTRATED", "CYCLIC", "BLOCK")
    total, kind, local, idx = gathered[0]
    assert total == pytest.approx(float(np.sum(data)))
    np.testing.assert_allclose(local, data)  # single client gets it all
