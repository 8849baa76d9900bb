"""A result the server cannot lay out fails that request, not the server.

Laying out a distributed result reads the client's layout spec and the
servant's return value.  When either is unusable, the client gets a
``SystemException`` that names the cause, the server serves the next
request, and nothing is left behind: no lease outstanding, no request
pending.
"""

import numpy as np
import pytest

from repro.core import DistributedSequence, Simulation, SystemException
from repro.idl import compile_idl
from repro.tools import attach

IDL = """
    typedef dsequence<double, 1024> rlvec;
    interface resultlayout { void relay(in long bad, in rlvec v, out rlvec w); };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="result_layout_stubs")


@pytest.mark.parametrize("spec,bad,cause", [
    ([3, 1], 0, "BadOperation('distribution template has 2 weights for 1 "
                "ranks')"),
    ("WAT", 0, "ValueError(\"unknown distribution kind 'WAT'\")"),
    (None, 1, "TypeError(\"argument 'w' must be a DistributedSequence, "
              "got list\")"),
], ids=["weights", "kind", "plain_list"])
def test_unusable_result_layout_fails_the_request(mod, spec, bad, cause):
    sim = Simulation()
    obs = attach(sim.world).observer

    def server_main(ctx):
        class Impl(mod.resultlayout_skel):
            def relay(self, bad, v):
                doubled = np.asarray(v.owned_data) * 2
                if bad:
                    return list(doubled)  # not a DistributedSequence
                return DistributedSequence(v.element, v.dist, v.rank,
                                           doubled)

        ctx.poa.activate(Impl(), "rl", kind="spmd")
        ctx.poa.impl_is_ready()

    out = {}

    def client_main(ctx):
        srv = mod.resultlayout._bind("rl")
        v = np.arange(8.0)
        with pytest.raises(SystemException) as info:
            srv.relay(bad, v, _distributions={"w": spec})
        out["error"] = str(info.value)
        out["next"] = list(srv.relay(0, v).owned_data)
        out["pending"] = len(ctx.pending)

    sim.server(server_main, host="HOST_2", nprocs=2)
    sim.client(client_main, host="HOST_1")
    sim.run()
    assert out == {"error": f"relay failed on the server: {cause}",
                   "next": [2.0 * i for i in range(8)], "pending": 0}
    assert sim.world.transport.buffer_pool.stats.outstanding == 0
    assert sorted(rec[3] for rec in obs.requests.values()) == ["failed",
                                                               "ok"]
