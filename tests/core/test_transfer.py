"""Tests for transfer plans: the data-movement core of [KG97]."""

from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import transfer
from repro.core.distribution import Distribution, resolve_dist_spec
from repro.core.transfer import (
    cached_schedule,
    extract,
    incoming,
    insert,
    local_items,
    outgoing,
    schedule,
)


def apply_schedule(src_dist, dst_dist, global_data):
    """Run a schedule 'by hand' (no network) and return the dst local
    arrays; used to verify that schedules move exactly the right data."""
    src_locals = [
        np.asarray([global_data[i] for i in src_dist.global_indices(r)], dtype=float)
        for r in range(src_dist.p)
    ]
    dst_locals = [
        np.zeros(dst_dist.local_size(r)) for r in range(dst_dist.p)
    ]
    for item in schedule(src_dist, dst_dist):
        values = extract(item, src_locals[item.src_rank])
        insert(item, dst_locals[item.dst_rank], values)
    return dst_locals


def check_conversion(src_dist, dst_dist):
    n = src_dist.n
    data = np.arange(n, dtype=float) * 1.5
    dst_locals = apply_schedule(src_dist, dst_dist, data)
    for r in range(dst_dist.p):
        expected = [data[i] for i in dst_dist.global_indices(r)]
        np.testing.assert_array_equal(dst_locals[r], expected)


class TestSchedules:
    def test_identity_schedule_is_all_local(self):
        d = Distribution.block(10, 3)
        sched = schedule(d, d)
        assert all(t.src_rank == t.dst_rank for t in sched)

    def test_block_to_concentrated(self):
        src = Distribution.block(10, 3)
        dst = Distribution.concentrated(10, 2)
        sched = schedule(src, dst)
        assert all(t.dst_rank == 0 for t in sched)
        assert sum(t.size for t in sched) == 10

    def test_block_p_change(self):
        check_conversion(Distribution.block(100, 3), Distribution.block(100, 5))

    def test_block_to_cyclic(self):
        check_conversion(Distribution.block(23, 4), Distribution.cyclic(23, 3))

    def test_cyclic_to_block(self):
        check_conversion(Distribution.cyclic(17, 3), Distribution.block(17, 4))

    def test_template_to_block(self):
        check_conversion(Distribution.template(50, [4, 1]),
                         Distribution.block(50, 2))

    def test_concentrated_to_block(self):
        check_conversion(Distribution.concentrated(30, 1),
                         Distribution.block(30, 4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schedule(Distribution.block(5, 2), Distribution.block(6, 2))

    def test_total_transferred_equals_length(self):
        src = Distribution.block(40, 4)
        dst = Distribution.cyclic(40, 3)
        assert sum(t.size for t in schedule(src, dst)) == 40

    def test_outgoing_incoming_local_partition(self):
        src = Distribution.block(20, 3)
        dst = Distribution.block(20, 2)
        sched = schedule(src, dst)
        for r in range(3):
            out = outgoing(sched, r)
            assert all(t.src_rank == r and t.dst_rank != r for t in out)
        for r in range(2):
            inc = incoming(sched, r)
            assert all(t.dst_rank == r and t.src_rank != r for t in inc)
            loc = local_items(sched, r)
            assert all(t.src_rank == r == t.dst_rank for t in loc)


def item_of(src, dst, s, d):
    return next(t for t in schedule(src, dst)
                if (t.src_rank, t.dst_rank) == (s, d))


class TestExtractInsert:
    def test_extract_contiguous(self):
        src = Distribution.block(10, 2)  # rank 0: [0,5)
        dst = Distribution.explicit([[(0, 1), (4, 10)], [(1, 4)]], 10)
        item = item_of(src, dst, 0, 1)
        assert item.intervals == ((1, 4),) and item.src_runs == ((1, 3),)
        out = extract(item, np.arange(5, dtype=float))
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_extract_cyclic(self):
        src = Distribution.cyclic(10, 2)  # rank 0 owns evens
        dst = Distribution.explicit([[(0, 2), (3, 6), (7, 10)],
                                     [(2, 3), (6, 7)]], 10)
        item = item_of(src, dst, 0, 1)
        assert item.src_runs == ((1, 1), (3, 1))
        local = np.array([0, 2, 4, 6, 8], dtype=float)
        out = extract(item, local)
        np.testing.assert_array_equal(out, [2, 6])

    def test_insert_contiguous(self):
        src = Distribution.explicit([[(6, 8)], [(0, 6), (8, 10)]], 10)
        dst = Distribution.block(10, 2)
        local = np.zeros(5)
        insert(item_of(src, dst, 0, 1), local, np.array([60.0, 70.0]))
        np.testing.assert_array_equal(local, [0, 60, 70, 0, 0])

    def test_extract_list_storage(self):
        src = Distribution.block(4, 2)
        dst = Distribution.concentrated(4, 2)
        out = extract(item_of(src, dst, 0, 0), ["a", "b"])
        assert out == ["a", "b"]

    def test_insert_list_storage(self):
        src = Distribution.concentrated(4, 2)
        dst = Distribution.block(4, 2)
        local = [None, None]
        insert(item_of(src, dst, 0, 1), local, ["x", "y"])
        assert local == ["x", "y"]


class TestPlans:
    def test_block_items_are_one_run_per_side(self):
        for item in schedule(Distribution.block(256, 4),
                             Distribution.block(256, 3)):
            assert len(item.src_runs) == len(item.dst_runs) == 1
            assert item.src_runs[0][1] == item.size

    def test_runs_coalesce_in_local_storage(self):
        # Rank 0's evens are scattered globally but contiguous in its
        # cyclic storage; the block side keeps them apart.
        item = item_of(Distribution.cyclic(10, 2), Distribution.block(10, 2),
                       0, 0)
        assert item.intervals == ((0, 1), (2, 3), (4, 5))
        assert item.src_runs == ((0, 3),)
        assert item.dst_runs == ((0, 1), (2, 1), (4, 1))

    def test_single_run_extract_is_a_slice(self):
        item = item_of(Distribution.block(10, 2), Distribution.block(10, 1),
                       1, 0)
        local = np.arange(5.0)
        assert np.shares_memory(extract(item, local), local)

    def test_multi_run_index_is_built_once_per_item(self, monkeypatch):
        calls = []
        build = transfer._run_indices

        def counting(runs):
            calls.append(runs)
            return build(runs)

        monkeypatch.setattr(transfer, "_run_indices", counting)
        src, dst = Distribution.cyclic(40, 2), Distribution.cyclic(40, 3)
        item = item_of(src, dst, 0, 1)
        assert len(item.src_runs) > 1 and len(item.dst_runs) > 1
        local = np.arange(20.0)
        for _ in range(3):
            values = extract(item, local)
            insert(item, np.zeros(dst.local_size(1)), values)
        assert calls == [item.src_runs, item.dst_runs]

    def test_cached_plan_is_shared_and_equal_to_a_fresh_one(self):
        src, dst = Distribution.cyclic(30, 3), Distribution.block(30, 2)
        plan = cached_schedule(src, dst)
        extract(plan[0], np.arange(10.0))          # fills the index cache
        assert cached_schedule(Distribution.cyclic(30, 3),
                               Distribution.block(30, 2)) is plan
        assert plan == schedule(src, dst)

    @pytest.mark.parametrize("dst", [Distribution.block(12, 2),
                                     Distribution.cyclic(12, 2)])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_short_fragment_raises_and_keeps_list_length(self, dst, as_list):
        item = item_of(Distribution.concentrated(12, 1), dst, 0, 1)
        local = [0.0] * 6 if as_list else np.zeros(6)
        with pytest.raises(ValueError, match="5 elements for 6 places"):
            insert(item, local, [1.0] * 5)
        assert len(local) == 6
        with pytest.raises(ValueError):
            insert(item, local, [1.0] * 7)
        assert len(local) == 6


DIST_KINDS = ["BLOCK", "CYCLIC", "CONCENTRATED"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    sp=st.integers(1, 5),
    dp=st.integers(1, 5),
    skind=st.sampled_from(DIST_KINDS),
    dkind=st.sampled_from(DIST_KINDS),
)
def test_property_any_to_any_conversion_preserves_data(n, sp, dp, skind, dkind):
    check_conversion(resolve_dist_spec(skind, n, sp),
                     resolve_dist_spec(dkind, n, dp))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    sp=st.integers(1, 4),
    dp=st.integers(1, 4),
)
def test_property_schedule_covers_every_element_once(n, sp, dp):
    src = Distribution.block(n, sp)
    dst = Distribution.cyclic(n, dp)
    seen = set()
    for item in schedule(src, dst):
        for a, b in item.intervals:
            for i in range(a, b):
                assert i not in seen
                seen.add(i)
    assert seen == set(range(n))


# ---------------------------------------------------------------------------
# Plans against the index-array reference
# ---------------------------------------------------------------------------


def ref_interval_indices(intervals):
    ivs = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
    if not len(ivs):
        return np.zeros(0, dtype=np.int64)
    lens = ivs[:, 1] - ivs[:, 0]
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lens)
    return np.repeat(ivs[:, 0], lens) + within


def ref_local_index_map(dist, rank, gidx):
    own = np.asarray(dist.intervals(rank), dtype=np.int64).reshape(-1, 2)
    starts = own[:, 0]
    lens = own[:, 1] - own[:, 0]
    cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
    j = np.searchsorted(starts, gidx, side="right") - 1
    return cum[j] + (gidx - starts[j])


def ref_extract(dist, rank, local_data, intervals):
    """Per-fragment global index array plus binary search: what the plan
    replaces."""
    gidx = ref_interval_indices(intervals)
    if not len(gidx):
        return local_data[:0] if isinstance(local_data, np.ndarray) else []
    lidx = ref_local_index_map(dist, rank, gidx)
    if isinstance(local_data, np.ndarray):
        return local_data[lidx]
    return [local_data[i] for i in lidx]


def ref_insert(dist, rank, local_data, intervals, values):
    gidx = ref_interval_indices(intervals)
    if not len(gidx):
        return
    lidx = ref_local_index_map(dist, rank, gidx)
    if isinstance(local_data, np.ndarray):
        local_data[lidx] = np.asarray(values)[:len(lidx)]
    else:
        for k, i in enumerate(lidx):
            local_data[i] = values[k]


@st.composite
def layouts(draw, n):
    """BLOCK, CYCLIC, TEMPLATE or EXPLICIT layout of ``range(n)``."""
    kind = draw(st.sampled_from(["BLOCK", "CYCLIC", "TEMPLATE", "EXPLICIT"]))
    p = draw(st.integers(1, 5))
    if kind == "TEMPLATE":
        weights = draw(st.lists(st.integers(0, 4), min_size=p, max_size=p)
                       .filter(lambda w: sum(w) > 0))
        return Distribution.template(n, weights)
    if kind == "EXPLICIT":
        cuts = draw(st.lists(st.integers(1, n), max_size=8))
        bounds = sorted({0, n, *cuts})
        parts = [[] for _ in range(p)]
        for iv in pairwise(bounds):
            parts[draw(st.integers(0, p - 1))].append(iv)
        return Distribution.explicit(parts, n)
    return resolve_dist_spec(kind, n, p)


def local_storage(dist, rank, as_list):
    values = [float(g) for g in dist.global_indices(rank)]
    return values if as_list else np.asarray(values)


@settings(deadline=None)
@given(n=st.integers(1, 60), as_list=st.booleans(), data=st.data())
def test_property_plan_matches_index_array_reference(n, as_list, data):
    src = data.draw(layouts(n), label="src")
    dst = data.draw(layouts(n), label="dst")
    src_locals = [local_storage(src, r, as_list) for r in range(src.p)]
    blank = [0.0] * n
    got = [blank[:dst.local_size(r)] if as_list
           else np.zeros(dst.local_size(r)) for r in range(dst.p)]
    want = [blank[:dst.local_size(r)] if as_list
            else np.zeros(dst.local_size(r)) for r in range(dst.p)]
    for item in cached_schedule(src, dst):
        local = src_locals[item.src_rank]
        ref = ref_extract(src, item.src_rank, local, item.intervals)
        for _ in range(2):                  # the second pass hits the cache
            values = extract(item, local)
            assert list(values) == list(ref)
        insert(item, got[item.dst_rank], values)
        ref_insert(dst, item.dst_rank, want[item.dst_rank], item.intervals,
                   ref)
    for r in range(dst.p):
        assert list(got[r]) == list(want[r])
        assert list(got[r]) == [float(g) for g in dst.global_indices(r)]
