"""Reusable buffers for the CDR zero-copy fragment lane.

The marshaling hot path of a distributed invocation is fragment movement:
every request encodes each thread-to-thread fragment of every distributed
argument, and every reply does the same for distributed results.  The
element-wise CDR stream allocates fresh ``bytes`` per fragment three
times over (``ndarray.tobytes()`` → ``bytearray.extend`` →
``getvalue()``); a numeric fragment's payload is instead written
**once**, directly into a buffer borrowed from a :class:`BufferPool`,
and the resulting :class:`PooledBuffer` lease travels through transfer
and decode as a view (see ``docs/PROTOCOL.md``, "Zero-copy fragment
lane").  Each simulated world's transport owns one pool; there is no
process-wide default.

Lifetime rules (enforced by the courier and request-state code):

* the **encoder** (sending side) acquires the lease; ownership travels
  with the :class:`~repro.core.request.Fragment` that carries it;
* the **consumer** releases it — normally right after the fragment's
  values are inserted into local storage, otherwise the dead-letter
  drain that discards the fragment of a rejected, shed, timed-out or
  failed request;
* :meth:`PooledBuffer.release` is idempotent.  A lease whose fragment
  stays queued in a channel is never reclaimed (the channel references
  it), so every failure path must end in a drain; a buffer the pool does
  not keep is reclaimed by the garbage collector.

The pool is size-bucketed (powers of two) with a bounded free list per
bucket, so steady-state fragment traffic of a given shape recycles the
same few buffers instead of allocating per request.
"""

from __future__ import annotations

__all__ = ["BufferPool", "PooledBuffer", "ZeroCopyStats"]

#: Smallest bucket capacity; sub-256-byte payloads share one bucket.
_MIN_BUCKET = 256

#: Buffers kept per bucket.  SPMD traffic needs roughly (threads in
#: flight x fragments per thread) concurrent leases of one size; beyond
#: the bound, releases simply drop the buffer for the GC.
_MAX_FREE_PER_BUCKET = 16


class ZeroCopyStats:
    """Counters for the zero-copy lane and its pool.

    ``fast_encodes``/``fast_decodes`` count fragments of numeric elements,
    which always travel as pooled bulk payloads;
    ``fallback_encodes``/``fallback_decodes`` count fragments of every
    other element type, which lease nothing.  Nested numeric fragments
    (rows of numbers) count as fallback too: they are written into an
    exact-size ``bytearray`` by the CDR rows writer.  ``borrows``/
    ``returns`` track lease balance — they must match once all in-flight
    fragments are consumed, which is what the exception-path regression
    tests assert.
    """

    __slots__ = ("fast_encodes", "fast_decodes", "fallback_encodes",
                 "fallback_decodes", "bytes_fast", "borrows", "returns",
                 "pool_hits", "pool_misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def outstanding(self) -> int:
        """Leases borrowed but not yet returned."""
        return self.borrows - self.returns

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (f"<ZeroCopyStats fast={self.fast_encodes}/"
                f"{self.fast_decodes} fallback={self.fallback_encodes}/"
                f"{self.fallback_decodes} leases={self.borrows}/"
                f"{self.returns}>")


class PooledBuffer:
    """One borrowed buffer: ``data[:length]`` is the wire payload.

    Supports ``len()`` and the parts of the ``bytes`` protocol the
    transport and the fragment consumers need.  ``release()`` returns the
    backing storage to the pool; any view taken before release must not
    be read afterwards (the storage may be re-leased and overwritten).
    """

    __slots__ = ("pool", "data", "length", "released", "views")

    def __init__(self, pool: "BufferPool", data: bytearray,
                 length: int, views: dict) -> None:
        self.pool = pool
        self.data = data
        self.length = length
        self.released = False
        #: per-dtype (writable, readonly) full-buffer ndarray views,
        #: created lazily by the CDR bulk lanes and recycled with the
        #: backing bytearray — steady-state traffic never re-runs
        #: ``np.frombuffer``
        self.views = views

    def __len__(self) -> int:
        return self.length

    def view(self) -> memoryview:
        """Writable view of the payload (encode side)."""
        if self.released:
            raise ValueError("view of a released PooledBuffer")
        return memoryview(self.data)[:self.length]

    def readonly(self) -> memoryview:
        """Read-only view of the payload (decode side)."""
        if self.released:
            raise ValueError("view of a released PooledBuffer")
        return memoryview(self.data).toreadonly()[:self.length]

    def tobytes(self) -> bytes:
        """Copy out the payload (escape hatch for code that must own it)."""
        if self.released:
            raise ValueError("copy of a released PooledBuffer")
        return bytes(self.data[:self.length])

    def release(self) -> bool:
        """Return the storage to the pool; idempotent (False on repeat)."""
        if self.released:
            return False
        self.released = True
        pool = self.pool
        pool.stats.returns += 1
        free = pool._free.setdefault(len(self.data), [])
        if len(free) < pool.max_free_per_bucket:
            free.append((self.data, self.views))
        return True

    def __repr__(self) -> str:
        state = "released" if self.released else "live"
        return f"<PooledBuffer {self.length}B/{len(self.data)}B {state}>"


class BufferPool:
    """Size-bucketed (power-of-two) pool of reusable ``bytearray`` s."""

    __slots__ = ("_free", "max_free_per_bucket", "stats")

    def __init__(self, max_free_per_bucket: int = _MAX_FREE_PER_BUCKET) -> None:
        #: capacity -> [(bytearray, views dict), ...]
        self._free: dict[int, list] = {}
        self.max_free_per_bucket = max_free_per_bucket
        self.stats = ZeroCopyStats()

    @staticmethod
    def bucket_of(nbytes: int) -> int:
        """Capacity of the bucket serving an ``nbytes`` payload."""
        if nbytes <= _MIN_BUCKET:
            return _MIN_BUCKET
        return 1 << (nbytes - 1).bit_length()

    def acquire(self, nbytes: int) -> PooledBuffer:
        """Borrow a buffer with capacity >= ``nbytes``; its payload length
        is exactly ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"cannot lease {nbytes} bytes")
        cap = self.bucket_of(nbytes)
        stats = self.stats
        stats.borrows += 1
        free = self._free.get(cap)
        if free:
            stats.pool_hits += 1
            data, views = free.pop()
        else:
            stats.pool_misses += 1
            data, views = bytearray(cap), {}
        return PooledBuffer(self, data, nbytes, views)

    def free_buffers(self) -> int:
        return sum(len(v) for v in self._free.values())

    def clear(self) -> None:
        """Drop all pooled storage (counters are kept)."""
        self._free.clear()

    def __repr__(self) -> str:
        return (f"<BufferPool {self.free_buffers()} free, "
                f"{self.stats.outstanding} outstanding>")
