"""Transfer schedules between distributions.

"Knowledge of distribution allows the ORB to efficiently transfer
arguments between the client and server" [KG97]: given the source and
destination :class:`~repro.core.distribution.Distribution` of a
distributed argument, the ORB computes which global index ranges each
source thread must ship to each destination thread, and the threads
exchange exactly those fragments **directly**, in parallel — no funneling
through a single node (the ablation benchmark quantifies the difference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import Distribution, Interval


@dataclass(frozen=True)
class TransferItem:
    """One point-to-point fragment of a schedule."""

    src_rank: int
    dst_rank: int
    intervals: tuple[Interval, ...]   # global index ranges, sorted

    @property
    def size(self) -> int:
        return sum(b - a for a, b in self.intervals)


def _intersect(a: tuple[Interval, ...], b: tuple[Interval, ...]) -> tuple[Interval, ...]:
    """Intersection of two sorted interval lists."""
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def schedule(src: Distribution, dst: Distribution) -> list[TransferItem]:
    """All fragments needed to convert data laid out as ``src`` into ``dst``.

    Raises ``ValueError`` when the global lengths differ.  Fragments where
    source and destination rank coincide are included (they are applied
    locally without touching the network).
    """
    if src.n != dst.n:
        raise ValueError(
            f"cannot transfer between lengths {src.n} and {dst.n}"
        )
    items: list[TransferItem] = []
    for s in range(src.p):
        s_ivs = src.intervals(s)
        if not s_ivs:
            continue
        for d in range(dst.p):
            common = _intersect(s_ivs, dst.intervals(d))
            if common:
                items.append(TransferItem(s, d, common))
    return items


#: Memoized schedules keyed by the (kind, n, p, parts) identity of both
#: distributions.  The request path recomputes identical schedules for
#: every invocation of the same operation; the cache turns that into one
#: dict lookup.  Bounded FIFO eviction keeps it from growing with the
#: number of distinct layouts, not the number of requests.
_SCHEDULE_CACHE: dict[tuple, list[TransferItem]] = {}
_SCHEDULE_CACHE_MAX = 512


def _dist_key(d: Distribution) -> tuple:
    return (d.kind, d.n, d.p, d.parts)


def cached_schedule(src: Distribution, dst: Distribution) -> list[TransferItem]:
    """Memoizing :func:`schedule`.  Returns a shared list — callers must
    not mutate it."""
    key = (_dist_key(src), _dist_key(dst))
    items = _SCHEDULE_CACHE.get(key)
    if items is None:
        items = schedule(src, dst)
        if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
            _SCHEDULE_CACHE.pop(next(iter(_SCHEDULE_CACHE)))
        _SCHEDULE_CACHE[key] = items
    return items


def outgoing(sched: list[TransferItem], rank: int) -> list[TransferItem]:
    """The fragments ``rank`` must send (excluding rank-local ones)."""
    return [t for t in sched if t.src_rank == rank and t.dst_rank != rank]


def incoming(sched: list[TransferItem], rank: int) -> list[TransferItem]:
    """The fragments ``rank`` will receive (excluding rank-local ones)."""
    return [t for t in sched if t.dst_rank == rank and t.src_rank != rank]


def local_items(sched: list[TransferItem], rank: int) -> list[TransferItem]:
    """Fragments that stay on ``rank``."""
    return [t for t in sched if t.src_rank == rank and t.dst_rank == rank]


# ---------------------------------------------------------------------------
# Extraction / insertion of fragment data from local storage
# ---------------------------------------------------------------------------


def _interval_indices(intervals) -> np.ndarray:
    """Concatenated global indices of a sorted interval list (vectorized:
    no Python-level per-element loop, which matters for cyclic layouts
    whose schedules contain tens of thousands of unit intervals)."""
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


def _local_index_map(dist: Distribution, rank: int,
                     gidx: np.ndarray) -> np.ndarray:
    """Map global indices (all owned by ``rank``) to local storage offsets
    via binary search over the rank's interval starts."""
    own = np.asarray(dist.intervals(rank), dtype=np.int64).reshape(-1, 2)
    starts = own[:, 0]
    lens = own[:, 1] - own[:, 0]
    cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
    j = np.searchsorted(starts, gidx, side="right") - 1
    return cum[j] + (gidx - starts[j])


def extract(dist: Distribution, rank: int, local_data,
            intervals: tuple[Interval, ...]):
    """Pull the elements of global ``intervals`` out of ``rank``'s local
    storage (numpy array or list, in distribution storage order)."""
    gidx = _interval_indices(intervals)
    if not len(gidx):
        return local_data[:0] if isinstance(local_data, np.ndarray) else []
    lidx = _local_index_map(dist, rank, gidx)
    if isinstance(local_data, np.ndarray):
        return local_data[lidx]
    return [local_data[i] for i in lidx]


def insert(dist: Distribution, rank: int, local_data,
           intervals: tuple[Interval, ...], values) -> None:
    """Write fragment ``values`` (ordered by global index) into ``rank``'s
    local storage at the positions of ``intervals``."""
    gidx = _interval_indices(intervals)
    if not len(gidx):
        return
    lidx = _local_index_map(dist, rank, gidx)
    if isinstance(local_data, np.ndarray):
        local_data[lidx] = np.asarray(values)[:len(lidx)]
    else:
        for k, i in enumerate(lidx):
            local_data[i] = values[k]
