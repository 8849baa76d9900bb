"""Tests for DistributedSequence running on simulated SPMD programs."""

import numpy as np
import pytest

from repro.cdr import SequenceTC, StringTC, TC_DOUBLE, TC_LONG
from repro.core.distribution import Distribution, resolve_dist_spec
from repro.core.dsequence import DistributedSequence
from repro.core.errors import NonLocalAccess
from repro.runtime import MPIRuntime, TulipRuntime

from ..runtime.conftest import make_world


def run_spmd(nprocs, main, rts_factory=MPIRuntime):
    world = make_world(nodes=max(nprocs, 2))
    prog = world.launch(main, host="hostA", nprocs=nprocs,
                        rts_factory=rts_factory)
    world.run()
    return prog.results


class TestConstruction:
    def test_create_zero_filled(self):
        d = DistributedSequence.create(10, TC_DOUBLE, rank=1, nprocs=3)
        assert len(d) == 10
        assert d.local_size == 3  # block(10,3) -> [4,3,3]
        np.testing.assert_array_equal(d.owned_data, np.zeros(3))

    def test_adopt_no_copy(self):
        buf = np.arange(5, dtype=float)
        dist = Distribution.block(10, 2)
        d = DistributedSequence.adopt(buf, dist, rank=0)
        buf[0] = 99.0
        assert d.owned_data[0] == 99.0  # no-ownership: same buffer

    def test_from_global(self):
        dist = Distribution.cyclic(6, 2)
        d = DistributedSequence.from_global(np.arange(6.0), dist, rank=1)
        np.testing.assert_array_equal(d.owned_data, [1.0, 3.0, 5.0])

    def test_wrong_local_size_rejected(self):
        dist = Distribution.block(10, 2)
        with pytest.raises(ValueError, match="local data"):
            DistributedSequence(TC_DOUBLE, dist, 0, np.zeros(3))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            DistributedSequence(TC_DOUBLE, Distribution.block(4, 2), 5)

    def test_object_element_storage_is_list(self):
        d = DistributedSequence.create(4, StringTC(), rank=0, nprocs=2)
        assert d.owned_data == ["", ""]

    def test_nested_sequence_elements(self):
        """The §4.1 matrix: dsequence of variable-length rows."""
        rows = [np.arange(2.0), np.arange(5.0)]
        dist = Distribution.block(4, 2)
        d = DistributedSequence.adopt(rows, dist, 0, SequenceTC(TC_DOUBLE))
        assert len(d.owned_data[1]) == 5


class TestElementAccess:
    def test_local_get_set(self):
        d = DistributedSequence.create(8, TC_DOUBLE, rank=0, nprocs=2)
        d[1] = 5.0
        assert d[1] == 5.0

    def test_negative_index(self):
        d = DistributedSequence.create(8, TC_DOUBLE, rank=1, nprocs=2)
        d[-1] = 3.0
        assert d[7] == 3.0

    def test_nonlocal_access_without_onesided_raises(self):
        d = DistributedSequence.create(8, TC_DOUBLE, rank=0, nprocs=2)
        with pytest.raises(NonLocalAccess):
            d[7]

    def test_location_transparent_access_over_tulip(self):
        def main(rts):
            dist = Distribution.block(8, rts.nprocs)
            d = DistributedSequence(
                TC_DOUBLE, dist, rts.rank,
                np.full(dist.local_size(rts.rank), float(rts.rank)),
            )
            d.enable_remote_access(rts)
            rts.barrier()
            # every rank reads element 7 (owned by the last rank)
            val = d[7]
            rts.barrier()
            return val

        res = run_spmd(2, main, TulipRuntime)
        assert res == [1.0, 1.0]

    def test_location_transparent_write_over_tulip(self):
        def main(rts):
            dist = Distribution.block(4, rts.nprocs)
            d = DistributedSequence(TC_DOUBLE, dist, rts.rank)
            d.enable_remote_access(rts)
            rts.barrier()
            if rts.rank == 0:
                d[3] = 42.0  # owned by rank 1
            rts.barrier()
            return float(d.owned_data[-1]) if rts.rank == 1 else None

        res = run_spmd(2, main, TulipRuntime)
        assert res[1] == 42.0

    def test_enable_remote_access_requires_onesided(self):
        def main(rts):
            d = DistributedSequence.create(4, TC_DOUBLE, rank=rts.rank,
                                           nprocs=rts.nprocs)
            with pytest.raises(NonLocalAccess):
                d.enable_remote_access(rts)

        run_spmd(1, main, MPIRuntime)


class TestRedistribution:
    @pytest.mark.parametrize("src_kind,dst_kind", [
        ("BLOCK", "CYCLIC"), ("CYCLIC", "BLOCK"),
        ("BLOCK", "CONCENTRATED"), ("CONCENTRATED", "BLOCK"),
    ])
    def test_redistribute_preserves_data(self, src_kind, dst_kind):
        n, p = 23, 3

        def main(rts):
            src = resolve_dist_spec(src_kind, n, p)
            data = np.arange(n, dtype=float) * 2.0
            d = DistributedSequence.from_global(data, src, rts.rank)
            dst = resolve_dist_spec(dst_kind, n, p)
            d2 = d.redistribute(dst, rts)
            expected = [data[i] for i in dst.global_indices(rts.rank)]
            np.testing.assert_array_equal(d2.owned_data, expected)
            return True

        assert run_spmd(p, main) == [True] * p

    def test_redistribute_to_template(self):
        n = 40

        def main(rts):
            d = DistributedSequence.from_global(
                np.arange(n, dtype=float), Distribution.block(n, rts.nprocs),
                rts.rank,
            )
            tmpl = Distribution.template(n, [3, 1])
            d2 = d.redistribute(tmpl, rts)
            return d2.local_size

        assert run_spmd(2, main) == [30, 10]

    def test_redistribute_length_mismatch(self):
        d = DistributedSequence.create(4, TC_DOUBLE, rank=0, nprocs=1)
        with pytest.raises(ValueError):
            d.redistribute(Distribution.block(5, 1), None)

    def test_redistribute_charges_time(self):
        n = 100_000

        def main(rts):
            d = DistributedSequence.from_global(
                np.zeros(n), Distribution.block(n, rts.nprocs), rts.rank
            )
            t0 = rts.now()
            d.redistribute(Distribution.cyclic(n, rts.nprocs), rts)
            return rts.now() - t0

        res = run_spmd(2, main)
        assert all(dt > 0 for dt in res)


class TestGather:
    def test_gather_block(self):
        n = 11

        def main(rts):
            d = DistributedSequence.from_global(
                np.arange(n, dtype=float),
                Distribution.block(n, rts.nprocs), rts.rank,
            )
            return d.gather(rts, root=0)

        res = run_spmd(3, main)
        np.testing.assert_array_equal(res[0], np.arange(n, dtype=float))
        assert res[1] is None and res[2] is None

    def test_gather_object_elements(self):
        def main(rts):
            dist = Distribution.block(4, rts.nprocs)
            d = DistributedSequence.adopt(
                [f"s{i}" for i in dist.global_indices(rts.rank)],
                dist, rts.rank, StringTC(),
            )
            return d.gather(rts, root=0)

        res = run_spmd(2, main)
        assert res[0] == ["s0", "s1", "s2", "s3"]


class TestMisc:
    def test_len_is_global(self):
        d = DistributedSequence.create(100, TC_LONG, rank=0, nprocs=4)
        assert len(d) == 100

    def test_local_nbytes_numeric(self):
        d = DistributedSequence.create(10, TC_DOUBLE, rank=0, nprocs=2)
        assert d.local_nbytes() == 5 * 8 + 8

    def test_repr(self):
        d = DistributedSequence.create(10, TC_DOUBLE, rank=0, nprocs=2)
        assert "BLOCK" in repr(d)
