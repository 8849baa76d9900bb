"""Collective operations layered over the minimal RTS contract.

The paper restricts the RTS interface to basic point-to-point primitives;
everything collective (barriers, broadcasts, the gathers/scatters used by
the argument-transfer engine) is built here, on top, and therefore works
identically over every RTS backend.

Each collective call consumes one tag from a per-thread rotating window
(:func:`repro.runtime.tags.collective_tag`).  Because SPMD threads invoke
collectives in the same order, the counters — and hence the tags — agree
across ranks without any negotiation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..netsim import estimate_nbytes
from .interface import RuntimeSystem
from .tags import collective_tag


def _next_tag(rts: RuntimeSystem) -> int:
    seq = getattr(rts, "_coll_seq", 0)
    rts._coll_seq = seq + 1
    return collective_tag(seq)


def bcast(rts: RuntimeSystem, value: Any = None, root: int = 0,
          nbytes: Optional[int] = None) -> Any:
    """Binomial-tree broadcast; returns the root's value on every rank.
    ``nbytes`` sizes the root's sends; the other ranks forward the size
    they received."""
    tag = _next_tag(rts)
    size, rank = rts.nprocs, rts.rank
    vrank = (rank - root) % size
    mask = 1
    # Receive phase: find my parent.
    while mask < size:
        if vrank & mask:
            parent = ((vrank - mask) + root) % size
            msg = rts.recv(src=parent, tag=tag)
            value, nbytes = msg.payload, msg.nbytes
            break
        mask <<= 1
    else:
        mask = 1 << max(0, size.bit_length())
    # Send phase: forward to children below my break-out mask.
    mask >>= 1
    while mask:
        if vrank + mask < size and vrank & (mask - 1) == 0 and not (vrank & mask):
            child = ((vrank + mask) + root) % size
            rts.send_reserved(child, value, tag, nbytes=nbytes)
        mask >>= 1
    return value


def gather(rts: RuntimeSystem, value: Any, root: int = 0) -> Optional[list]:
    """Gather one value per rank to ``root`` (rank order); ``None`` elsewhere."""
    tag = _next_tag(rts)
    if rts.rank == root:
        out = [None] * rts.nprocs
        out[root] = value
        for src in range(rts.nprocs):
            if src != root:
                out[src] = rts.recv(src=src, tag=tag).payload
        return out
    rts.send_reserved(root, value, tag)
    return None


def scatter(rts: RuntimeSystem, values: Optional[list], root: int = 0) -> Any:
    """Scatter one value per rank from ``root``."""
    tag = _next_tag(rts)
    if rts.rank == root:
        if values is None or len(values) != rts.nprocs:
            raise ValueError("scatter root needs exactly nprocs values")
        for dst in range(rts.nprocs):
            if dst != root:
                rts.send_reserved(dst, values[dst], tag,
                                  nbytes=estimate_nbytes(values[dst]))
        return values[root]
    return rts.recv(src=root, tag=tag).payload


def allgather(rts: RuntimeSystem, value: Any) -> list:
    """Gather to rank 0 then broadcast the assembled list, sized once."""
    gathered = gather(rts, value, root=0)
    nbytes = None if gathered is None else estimate_nbytes(gathered)
    return bcast(rts, gathered, root=0, nbytes=nbytes)


def reduce(rts: RuntimeSystem, value: Any, op: Callable[[Any, Any], Any],
           root: int = 0) -> Any:
    """Binary-tree reduction with operator ``op``; result valid on root."""
    tag = _next_tag(rts)
    size, rank = rts.nprocs, rts.rank
    vrank = (rank - root) % size
    mask = 1
    acc = value
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            rts.send_reserved(parent, acc, tag)
            break
        partner = vrank | mask
        if partner < size:
            other = rts.recv(src=(partner + root) % size, tag=tag).payload
            acc = op(acc, other)
        mask <<= 1
    return acc if rank == root else None


def allreduce(rts: RuntimeSystem, value: Any,
              op: Callable[[Any, Any], Any]) -> Any:
    return bcast(rts, reduce(rts, value, op, root=0), root=0)


def alltoall(rts: RuntimeSystem, values: list) -> list:
    """Personalized all-to-all: ``values[d]`` goes to rank ``d``; returns the
    list indexed by source rank."""
    if len(values) != rts.nprocs:
        raise ValueError("alltoall needs exactly nprocs values")
    tag = _next_tag(rts)
    out = [None] * rts.nprocs
    out[rts.rank] = values[rts.rank]
    # Deterministic exchange order: everyone sends ascending, then receives.
    for dst in range(rts.nprocs):
        if dst != rts.rank:
            rts.send_reserved(dst, values[dst], tag,
                              nbytes=estimate_nbytes(values[dst]))
    for src in range(rts.nprocs):
        if src != rts.rank:
            out[src] = rts.recv(src=src, tag=tag).payload
    return out


def barrier(rts: RuntimeSystem) -> None:
    """All threads synchronize; leaves at the last arrival (plus the cost
    of the two small collective phases)."""
    gather(rts, None, root=0)
    bcast(rts, None, root=0)
