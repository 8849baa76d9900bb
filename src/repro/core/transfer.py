"""Transfer plans between distributions.

"Knowledge of distribution allows the ORB to efficiently transfer
arguments between the client and server" [KG97]: given the source and
destination :class:`~repro.core.distribution.Distribution` of a
distributed argument, the ORB computes which global index ranges each
source thread must ship to each destination thread, and the threads
exchange exactly those fragments **directly**, in parallel — no funneling
through a single node (the ablation benchmark quantifies the difference).

The plan.  :func:`schedule` returns one :class:`TransferItem` per
(source rank, destination rank) pair that shares elements.  Besides the
global intervals, an item carries where those elements sit in each side's
local storage, as ``(offset, length)`` runs with neighbours coalesced.
The runs depend on the two layouts alone, so they are computed once per
plan, not once per fragment.  Between contiguous layouts (BLOCK,
TEMPLATE, CONCENTRATED, row blocks) every item has one run per side, and
:func:`extract` and :func:`insert` move the fragment as one slice,
``local[offset:offset + length]``, for ndarray and list storage alike.  An
item with several runs (a CYCLIC side) builds its local index array on
first use and keeps it.

The plan cache.  :func:`cached_schedule` memoizes plans in a process-wide
dict keyed by the two layouts, with bounded FIFO eviction.  It stays
process-wide on purpose: it is a bounded memo of a pure function, not a
switch that changes behaviour, so the aim of having no process globals
does not apply to it.  Two worlds in one process share plans without
seeing each other's state: a hit and a miss return equal plans, and only
host time differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import Distribution, Interval

#: ``(offset, length)`` of a contiguous stretch of a rank's local storage
Run = tuple[int, int]


@dataclass(frozen=True)
class TransferItem:
    """One point-to-point fragment of a plan."""

    src_rank: int
    dst_rank: int
    intervals: tuple[Interval, ...]   # global index ranges, sorted
    src_runs: tuple[Run, ...]         # their places in the source's storage
    dst_runs: tuple[Run, ...]         # ... and in the destination's
    size: int
    #: local index arrays of multi-run sides, built on first use
    _index: dict = field(default_factory=dict, compare=False, repr=False)


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


def _local_runs(owned: tuple[Interval, ...],
                intervals: tuple[Interval, ...]) -> tuple[Run, ...]:
    """Where the global ``intervals`` (sorted, each inside one of the
    rank's ``owned`` intervals) sit in the rank's local storage, as
    coalesced ``(offset, length)`` runs."""
    runs: list[Run] = []
    j = base = 0                       # owned[j] starts at local ``base``
    for a, b in intervals:
        while owned[j][1] <= a:
            base += owned[j][1] - owned[j][0]
            j += 1
        off = base + a - owned[j][0]
        if runs and runs[-1][0] + runs[-1][1] == off:
            runs[-1] = (runs[-1][0], runs[-1][1] + b - a)
        else:
            runs.append((off, b - a))
    return tuple(runs)


def schedule(src: Distribution, dst: Distribution) -> list[TransferItem]:
    """The plan that converts data laid out as ``src`` into ``dst``.

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
            d_ivs = dst.intervals(d)
            common = _intersect(s_ivs, d_ivs)
            if common:
                items.append(TransferItem(
                    s, d, common, _local_runs(s_ivs, common),
                    _local_runs(d_ivs, common),
                    sum(b - a for a, b in common)))
    return items


#: Memoized plans keyed by the (kind, n, p, parts) identity of both
#: distributions.  The request path needs the same plan for every
#: invocation of the same operation; the cache turns that into one dict
#: lookup.  Bounded FIFO eviction keeps it from growing with the number
#: of distinct layouts, not the number of requests.
_SCHEDULE_CACHE: dict[tuple, list[TransferItem]] = {}
_SCHEDULE_CACHE_MAX = 512


def _dist_key(d: Distribution) -> tuple:
    return (d.kind, d.n, d.p, d.parts)


def cached_schedule(src: Distribution, dst: Distribution) -> list[TransferItem]:
    """Memoizing :func:`schedule`.  Returns a shared plan — callers must
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


def _run_indices(runs: tuple[Run, ...]) -> np.ndarray:
    """Concatenated local offsets of ``(offset, length)`` runs (vectorized:
    no Python-level per-element loop, which matters for cyclic layouts
    whose items hold tens of thousands of unit runs)."""
    rs = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    lens = rs[:, 1]
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lens)
    return np.repeat(rs[:, 0], lens) + within


def _index(item: TransferItem, side: str) -> np.ndarray:
    """The local index array of one side of a multi-run item, built on
    first use and kept on the item."""
    idx = item._index.get(side)
    if idx is None:
        runs = item.src_runs if side == "src" else item.dst_runs
        idx = item._index[side] = _run_indices(runs)
    return idx


def extract(item: TransferItem, local_data):
    """The elements ``item`` ships, pulled out of its source rank's local
    storage (numpy array or list, in distribution storage order).

    A single run is one slice: a view of an ndarray, a shallow copy of a
    list."""
    runs = item.src_runs
    if len(runs) == 1:
        off, n = runs[0]
        return local_data[off:off + n]
    idx = _index(item, "src")
    if isinstance(local_data, np.ndarray):
        return local_data[idx]
    return [local_data[i] for i in idx]


def insert(item: TransferItem, local_data, values) -> None:
    """Write fragment ``values`` (ordered by global index) into the
    destination rank's local storage at the places of ``item``.

    ``values`` must hold exactly ``item.size`` elements; anything else
    raises ``ValueError`` and leaves list storage its old length."""
    if len(values) != item.size:
        raise ValueError(
            f"fragment of {len(values)} elements for {item.size} places"
        )
    runs = item.dst_runs
    if len(runs) == 1:
        off, n = runs[0]
        local_data[off:off + n] = values
        return
    idx = _index(item, "dst")
    if isinstance(local_data, np.ndarray):
        local_data[idx] = values
    else:
        for i, v in zip(idx, values):
            local_data[i] = v
