"""Collectives pass the transport sizes they already know: a broadcast
forwards the size it received and ``allgather``'s root sizes the
gathered list once.  Every packet must still carry exactly the size the
transport would have estimated for its body."""

import pytest

from repro.netsim import estimate_nbytes
from repro.runtime import collectives as coll

from .conftest import make_world


def run_and_capture(nprocs, main, rts_factory):
    world = make_world(nodes=nprocs)
    packets = []
    world.transport.observers.append(packets.append)
    prog = world.launch(main, host="hostA", nprocs=nprocs,
                        rts_factory=rts_factory)
    world.run()
    return prog.results, packets


def signature(rank, mismatched):
    # The collective check's (binding uid, op, seq); a mismatch changes
    # the op name's length as well as its text.
    op = "sums" + "x" * rank if mismatched else "sums"
    return ("binding-7", op, 3)


@pytest.mark.parametrize("nprocs", [3, 4])
@pytest.mark.parametrize("mismatched", [False, True], ids=["match", "mismatch"])
def test_allgather_packets_carry_estimated_sizes(nprocs, mismatched,
                                                 rts_factory):
    def main(rts):
        return coll.allgather(rts, signature(rts.rank, mismatched))

    results, packets = run_and_capture(nprocs, main, rts_factory)
    expected = [signature(r, mismatched) for r in range(nprocs)]
    assert results == [expected] * nprocs
    # nprocs - 1 gather sends, then nprocs - 1 broadcast sends
    assert len(packets) == 2 * (nprocs - 1)
    for pkt in packets:
        assert pkt.nbytes == estimate_nbytes(pkt.body)


@pytest.mark.parametrize("nprocs", [3, 4])
@pytest.mark.parametrize("root", [0, 2])
def test_bcast_forwards_the_received_size(nprocs, root, rts_factory):
    value = [signature(r, True) for r in range(nprocs)]

    def main(rts):
        return coll.bcast(rts, value if rts.rank == root else None, root=root)

    results, packets = run_and_capture(nprocs, main, rts_factory)
    assert results == [value] * nprocs
    assert len(packets) == nprocs - 1
    for pkt in packets:
        assert pkt.nbytes == estimate_nbytes(pkt.body) == estimate_nbytes(value)
