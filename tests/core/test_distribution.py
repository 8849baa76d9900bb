"""Tests for distribution templates, incl. property-based coverage checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distribution import Distribution, resolve_dist_spec


class TestBlock:
    def test_even_split(self):
        d = Distribution.block(8, 4)
        assert d.counts == [2, 2, 2, 2]
        assert d.intervals(1) == ((2, 4),)

    def test_remainder_goes_to_first_ranks(self):
        d = Distribution.block(10, 4)
        assert d.counts == [3, 3, 2, 2]

    def test_more_ranks_than_elements(self):
        d = Distribution.block(2, 5)
        assert d.counts == [1, 1, 0, 0, 0]
        assert d.intervals(3) == ()

    def test_empty_sequence(self):
        d = Distribution.block(0, 3)
        assert d.counts == [0, 0, 0]


class TestCyclic:
    def test_round_robin_ownership(self):
        d = Distribution.cyclic(7, 3)
        assert [d.owner_of(i) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        assert d.counts == [3, 2, 2]

    def test_single_rank_collapses_to_block(self):
        d = Distribution.cyclic(5, 1)
        assert d.intervals(0) == ((0, 5),)


class TestConcentrated:
    def test_default_owner(self):
        d = Distribution.concentrated(6, 3)
        assert d.counts == [6, 0, 0]


class TestTemplate:
    def test_proportions(self):
        d = Distribution.template(100, [3, 1])
        assert d.counts == [75, 25]

    def test_last_rank_absorbs_rounding(self):
        d = Distribution.template(10, [1, 1, 1])
        assert sum(d.counts) == 10

    def test_zero_weight_rank(self):
        d = Distribution.template(10, [1, 0, 1])
        assert d.counts[1] == 0
        assert sum(d.counts) == 10

    def test_invalid_proportions(self):
        with pytest.raises(ValueError):
            Distribution.template(10, [0, 0])
        with pytest.raises(ValueError):
            Distribution.template(10, [-1, 2])


class TestIndexMath:
    def test_global_local_roundtrip_block(self):
        d = Distribution.block(11, 3)
        for i in range(11):
            r, li = d.global_to_local(i)
            assert d.local_to_global(r, li) == i

    def test_global_local_roundtrip_cyclic(self):
        d = Distribution.cyclic(11, 3)
        for i in range(11):
            r, li = d.global_to_local(i)
            assert d.local_to_global(r, li) == i
            assert r == i % 3

    def test_out_of_range(self):
        d = Distribution.block(4, 2)
        with pytest.raises(IndexError):
            d.owner_of(4)
        with pytest.raises(IndexError):
            d.local_to_global(0, 99)

    def test_global_indices_order(self):
        d = Distribution.cyclic(7, 2)
        assert list(d.global_indices(0)) == [0, 2, 4, 6]


class TestValidation:
    def test_explicit_valid(self):
        d = Distribution.explicit([[(0, 3)], [(3, 7)]], 7)
        assert d.counts == [3, 4]

    def test_explicit_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            Distribution.explicit([[(0, 2)], [(3, 5)]], 5)

    def test_explicit_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Distribution.explicit([[(0, 3)], [(2, 5)]], 5)

    def test_explicit_wrong_total_rejected(self):
        with pytest.raises(ValueError):
            Distribution.explicit([[(0, 3)]], 5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Distribution.block(-1, 2)
        with pytest.raises(ValueError):
            Distribution.block(4, 0)
        with pytest.raises(ValueError):
            resolve_dist_spec("DIAGONAL", 4, 2)


@settings(max_examples=80)
@given(
    n=st.integers(0, 200),
    p=st.integers(1, 9),
    kind=st.sampled_from(["BLOCK", "CYCLIC", "CONCENTRATED"]),
)
def test_property_every_distribution_is_a_partition(n, p, kind):
    d = resolve_dist_spec(kind, n, p)
    seen = {}
    for r in range(p):
        for i in d.global_indices(r):
            assert i not in seen, f"element {i} owned by {seen[i]} and {r}"
            seen[i] = r
    assert len(seen) == n
    assert sum(d.counts) == n
    if n:
        d.validate()


@settings(max_examples=50)
@given(
    n=st.integers(1, 200),
    weights=st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(
        lambda w: sum(w) > 0
    ),
)
def test_property_template_partitions(n, weights):
    d = Distribution.template(n, weights)
    assert sum(d.counts) == n
    d.validate()


@settings(max_examples=50)
@given(n=st.integers(1, 100), p=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_property_owner_matches_global_to_local(n, p, seed):
    import random

    rng = random.Random(seed)
    kind = rng.choice(["BLOCK", "CYCLIC"])
    d = resolve_dist_spec(kind, n, p)
    i = rng.randrange(n)
    r, _ = d.global_to_local(i)
    assert d.owner_of(i) == r
