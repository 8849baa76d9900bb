"""Unit tests for the zero-copy lane's buffer pool."""

import numpy as np
import pytest

from repro.cdr import (
    BufferPool,
    MarshalError,
    TC_DOUBLE,
    decode_bulk_payload,
    encode_bulk_payload,
)
from repro.cdr.buffers import _MIN_BUCKET


class TestBucketing:
    def test_small_payloads_share_the_minimum_bucket(self):
        assert BufferPool.bucket_of(0) == _MIN_BUCKET
        assert BufferPool.bucket_of(1) == _MIN_BUCKET
        assert BufferPool.bucket_of(_MIN_BUCKET) == _MIN_BUCKET

    def test_power_of_two_rounding(self):
        assert BufferPool.bucket_of(_MIN_BUCKET + 1) == 2 * _MIN_BUCKET
        assert BufferPool.bucket_of(1024) == 1024
        assert BufferPool.bucket_of(1025) == 2048
        assert BufferPool.bucket_of(100_000) == 131_072

    def test_negative_lease_rejected(self):
        with pytest.raises(ValueError, match="-1"):
            BufferPool().acquire(-1)


class TestLeaseLifecycle:
    def test_acquire_release_reuses_storage(self):
        pool = BufferPool()
        a = pool.acquire(100)
        backing = a.data
        a.release()
        b = pool.acquire(200)  # same bucket (256)
        assert b.data is backing
        assert pool.stats.pool_hits == 1
        assert pool.stats.pool_misses == 1

    def test_length_is_exact_while_capacity_is_bucketed(self):
        pool = BufferPool()
        buf = pool.acquire(100)
        assert len(buf) == 100
        assert len(buf.data) == _MIN_BUCKET
        assert len(buf.view()) == 100
        assert len(buf.readonly()) == 100
        buf.release()

    def test_release_is_idempotent(self):
        pool = BufferPool()
        buf = pool.acquire(10)
        assert buf.release() is True
        assert buf.release() is False
        assert pool.stats.returns == 1
        # A double release must not double-insert into the free list.
        assert pool.free_buffers() == 1

    def test_views_of_released_buffer_raise(self):
        buf = BufferPool().acquire(10)
        buf.release()
        with pytest.raises(ValueError, match="released"):
            buf.view()
        with pytest.raises(ValueError, match="released"):
            buf.readonly()
        with pytest.raises(ValueError, match="released"):
            buf.tobytes()

    def test_decode_of_released_buffer_raises(self):
        pool = BufferPool()
        buf = encode_bulk_payload(TC_DOUBLE, np.arange(4.0), pool)
        buf.release()
        with pytest.raises(MarshalError, match="released"):
            decode_bulk_payload(TC_DOUBLE, buf)

    def test_readonly_view_rejects_writes(self):
        buf = BufferPool().acquire(10)
        ro = buf.readonly()
        with pytest.raises(TypeError):
            ro[0] = 1
        buf.release()


class TestFreeListBound:
    def test_free_list_is_bounded_per_bucket(self):
        pool = BufferPool(max_free_per_bucket=2)
        leases = [pool.acquire(100) for _ in range(5)]
        for lease in leases:
            lease.release()
        assert pool.free_buffers() == 2
        assert pool.stats.returns == 5  # returns counted even when dropped

    def test_clear_drops_storage_but_keeps_counters(self):
        pool = BufferPool()
        pool.acquire(100).release()
        assert pool.free_buffers() == 1
        pool.clear()
        assert pool.free_buffers() == 0
        assert pool.stats.borrows == 1


class TestViewCache:
    def test_ndarray_views_recycle_with_the_storage(self):
        """The per-dtype view cache travels with the bytearray through the
        pool, so a re-lease of the same bucket reuses the cached views."""
        pool = BufferPool()
        a = encode_bulk_payload(TC_DOUBLE, np.arange(4.0), pool)
        cached = a.views["double"]
        a.release()
        b = encode_bulk_payload(TC_DOUBLE, np.arange(8.0), pool)
        assert b.data is a.data
        assert b.views["double"] is cached
        assert decode_bulk_payload(TC_DOUBLE, b).tolist() == list(range(8))
        b.release()


class TestStats:
    def test_outstanding_and_snapshot(self):
        pool = BufferPool()
        a = pool.acquire(10)
        b = pool.acquire(10)
        assert pool.stats.outstanding == 2
        a.release()
        assert pool.stats.outstanding == 1
        snap = pool.stats.snapshot()
        assert snap["borrows"] == 2 and snap["returns"] == 1
        b.release()
        pool.stats.reset()
        assert pool.stats.snapshot() == dict.fromkeys(snap, 0)

