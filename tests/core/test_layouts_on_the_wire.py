"""Every way to name a layout, pinned on the wire.

A 2-thread SPMD client calls a 3-thread server with each form of layout
spec: the IDL defaults, a kind name, a weights sequence, an exact
``Distribution`` (blockwise and a proportion template), a placeholder's
``Future(distribution=...)``, ``_distributions`` overriding such a
placeholder, a server-side ``RowBlock`` in-argument override, and an
in-argument laid out cyclically on the client.  For each, the test pins
the ``parts`` of the server's in-layout and of the client's result,
the result's values, and the packets and bytes the run sent.
"""

import numpy as np
import pytest

from repro.cdr import TC_DOUBLE
from repro.core import DistributedSequence, Future, Simulation
from repro.core.distribution import Distribution, RowBlock
from repro.idl import compile_idl

IDL = """
    typedef dsequence<double, 1024> lvec;
    interface layouts { void relay(in lvec v, out lvec w); };
"""

N = 20


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="layout_pin_stubs")


def _default(mod, ctx, prx, v):
    return prx.relay(v)


def _kind(mod, ctx, prx, v):
    return prx.relay(v, _distributions={"w": "CYCLIC"})


def _weights(mod, ctx, prx, v):
    return prx.relay(v, _distributions={"w": [3, 1]})


def _exact_block(mod, ctx, prx, v):
    return prx.relay(v, _distributions={"w": Distribution.block(N, 2)})


def _exact_template(mod, ctx, prx, v):
    return prx.relay(
        v, _distributions={"w": Distribution.template(N, [1, 3])})


def _placeholder(mod, ctx, prx, v):
    w = Future(distribution="CONCENTRATED")
    prx.relay_nb(v, w).value()
    return w.value()


def _placeholder_overridden(mod, ctx, prx, v):
    w = Future(distribution="CONCENTRATED")
    prx.relay_nb(v, w, _distributions={"w": "CYCLIC"}).value()
    return w.value()


def _cyclic_in(mod, ctx, prx, v):
    cv = DistributedSequence.from_global(
        np.arange(float(N)), Distribution.cyclic(N, 2), ctx.rank, TC_DOUBLE)
    return prx.relay(cv)


BLOCK3 = (((0, 7),), ((7, 14),), ((14, 20),))

CASES = {
    # name: (call, server in_dists, server in-layout parts,
    #        client result parts, packets, bytes)
    "default": (_default, None, BLOCK3,
                (((0, 10),), ((10, 20),)), 24, 2066),
    "kind": (_kind, None, BLOCK3,
             (tuple((i, i + 1) for i in range(0, N, 2)),
              tuple((i, i + 1) for i in range(1, N, 2))), 26, 2506),
    "weights": (_weights, None, BLOCK3,
                (((0, 15),), ((15, 20),)), 24, 2138),
    "exact_block": (_exact_block, None, BLOCK3,
                    (((0, 10),), ((10, 20),)), 24, 2138),
    "exact_template": (_exact_template, None, BLOCK3,
                       (((0, 5),), ((5, 20),)), 24, 2138),
    "placeholder": (_placeholder, None, BLOCK3,
                    (((0, 20),), ()), 23, 2066),
    "placeholder_overridden": (
        _placeholder_overridden, None, BLOCK3,
        (tuple((i, i + 1) for i in range(0, N, 2)),
         tuple((i, i + 1) for i in range(1, N, 2))), 26, 2506),
    "rowblock_in": (_default, {("relay", "v"): RowBlock(4)},
                    (((0, 8),), ((8, 16),), ((16, 20),)),
                    (((0, 10),), ((10, 20),)), 24, 2066),
    "cyclic_in": (_cyclic_in, None, BLOCK3,
                  (((0, 10),), ((10, 20),)), 26, 2434),
}


def _run(mod, call, in_dists):
    sim = Simulation()
    seen = {}

    def server_main(ctx):
        class Impl(mod.layouts_skel):
            def relay(self, v):
                seen.setdefault("server", {})[ctx.rank] = v.dist.parts
                return DistributedSequence(
                    v.element, v.dist, v.rank, np.asarray(v.owned_data) * 2)

        ctx.poa.activate(Impl(), "layouts", kind="spmd", in_dists=in_dists)
        ctx.poa.impl_is_ready()

    def client_main(ctx):
        prx = mod.layouts._spmd_bind("layouts")
        w = call(mod, ctx, prx, mod.lvec(np.arange(float(N))))
        seen.setdefault("client", {})[ctx.rank] = (
            w.dist.parts, list(w.dist.global_indices(ctx.rank)),
            [float(x) for x in w.owned_data])

    sim.server(server_main, host="HOST_2", nprocs=3)
    sim.client(client_main, host="HOST_1", nprocs=2)
    sim.run()
    transport = sim.world.transport
    return seen, transport.packets_sent, transport.bytes_sent


@pytest.mark.parametrize("case", list(CASES))
def test_layout_spec_on_the_wire(mod, case):
    call, in_dists, server_parts, client_parts, packets, nbytes = CASES[case]
    seen, sent, sent_bytes = _run(mod, call, in_dists)
    # every server thread sees the same in-layout
    assert seen["server"] == {r: server_parts for r in range(3)}
    for rank in range(2):
        parts, indices, values = seen["client"][rank]
        assert parts == client_parts
        assert values == [2.0 * i for i in indices]
    assert (sent, sent_bytes) == (packets, nbytes)
