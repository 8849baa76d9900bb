"""Distributed sequences (paper §3.2).

A :class:`DistributedSequence` is "a one-dimensional array with variable
length and distribution": each computing thread holds the local fragment
assigned to it by a :class:`~repro.core.distribution.Distribution`.  It is
primarily a *container for argument data*: it supports no-ownership
construction around existing buffers and exposes its owned data, so
conversions to package-native structures are cheap; ``operator[]`` is
location-transparent (non-local access requires a one-sided runtime such
as :class:`~repro.runtime.tulip.TulipRuntime`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..cdr import (
    SequenceTC,
    TC_DOUBLE,
    TypeCode,
    is_numeric_primitive,
)
from .distribution import Distribution
from .errors import NonLocalAccess

_ONESIDED_KEY_PREFIX = "_pardis_dseq:"


class DistributedSequence:
    """Per-thread handle on a distributed one-dimensional sequence."""

    def __init__(self, element: TypeCode, dist: Distribution, rank: int,
                 local_data=None, *, copy: bool = True) -> None:
        if not (0 <= rank < dist.p):
            raise ValueError(f"rank {rank} out of range for {dist.p} threads")
        self.element = element
        self.dist = dist
        self.rank = rank
        self._numeric = is_numeric_primitive(element)
        size = dist.local_size(rank)
        if local_data is None:
            if self._numeric:
                self._local = np.zeros(size, dtype=element.dtype)
            else:
                self._local = [element.default() for _ in range(size)]
        else:
            if len(local_data) != size:
                raise ValueError(
                    f"local data has {len(local_data)} elements but rank "
                    f"{rank} owns {size}"
                )
            if self._numeric:
                arr = np.asarray(local_data, dtype=element.dtype)
                self._local = arr.copy() if copy else arr
            else:
                self._local = list(local_data) if copy else local_data
        self._registered_with = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def create(cls, n: int, element: TypeCode = TC_DOUBLE, *, rank: int,
               nprocs: int) -> "DistributedSequence":
        """A zero-initialized, blockwise sequence of global length ``n``."""
        return cls(element, Distribution.block(n, nprocs), rank)

    @classmethod
    def adopt(cls, local_data, dist: Distribution, rank: int,
              element: TypeCode = TC_DOUBLE) -> "DistributedSequence":
        """No-ownership constructor: wrap an existing buffer without
        copying — "which allows the programmer to easily build efficient
        conversions between the distributed sequence and data structures
        particular to his or her package"."""
        return cls(element, dist, rank, local_data, copy=False)

    @classmethod
    def from_global(cls, data, dist: Distribution, rank: int,
                    element: TypeCode = TC_DOUBLE) -> "DistributedSequence":
        """Take the rank-local part out of a full (replicated) array."""
        idx = list(dist.global_indices(rank))
        if is_numeric_primitive(element):
            local = np.asarray(data, dtype=element.dtype)[idx]
        else:
            local = [data[i] for i in idx]
        return cls(element, dist, rank, local, copy=False)

    # -- basic container protocol ---------------------------------------------------

    def __len__(self) -> int:
        """Global length."""
        return self.dist.n

    @property
    def local_size(self) -> int:
        return self.dist.local_size(self.rank)

    @property
    def owned_data(self):
        """Direct access to the local fragment (no copy)."""
        return self._local

    @property
    def distribution(self) -> Distribution:
        return self.dist

    def __getitem__(self, index: int) -> Any:
        """Location-transparent element access.

        Local elements are returned directly; non-local elements are
        fetched through a one-sided runtime if the sequence has been
        registered with one (see :meth:`enable_remote_access`), else
        :class:`NonLocalAccess` is raised.
        """
        owner, local = self.dist.global_to_local(self._norm(index))
        if owner == self.rank:
            return self._local[local]
        rts = self._registered_with
        if rts is None or not getattr(rts, "supports_onesided", False):
            raise NonLocalAccess(
                f"element {index} lives on thread {owner}; register the "
                "sequence with a one-sided runtime for remote access"
            )
        return rts.get(owner, self._onesided_key(),
                       selector=lambda seq: seq._local[local])

    def __setitem__(self, index: int, value: Any) -> None:
        owner, local = self.dist.global_to_local(self._norm(index))
        if owner == self.rank:
            self._local[local] = value
            return
        rts = self._registered_with
        if rts is None or not getattr(rts, "supports_onesided", False):
            raise NonLocalAccess(
                f"element {index} lives on thread {owner}; register the "
                "sequence with a one-sided runtime for remote access"
            )
        rts.put(owner, self._onesided_key(), (local, value),
                updater=lambda seq, lv: seq._local.__setitem__(lv[0], lv[1]))

    def _norm(self, index: int) -> int:
        if index < 0:
            index += len(self)
        return index

    # -- one-sided access ---------------------------------------------------------------

    def _onesided_key(self) -> str:
        # Must agree across ranks: derive from the distribution's content
        # (each rank builds its own structurally-equal Distribution).
        d = self.dist
        return f"{_ONESIDED_KEY_PREFIX}{d.kind}:{d.n}:{d.p}"

    def enable_remote_access(self, rts) -> None:
        """Register this sequence for location-transparent remote access.

        Collective: every thread registers its own fragment under a shared
        key derived from the (shared) distribution object.
        """
        if not getattr(rts, "supports_onesided", False):
            raise NonLocalAccess(
                f"{type(rts).__name__} has no one-sided support"
            )
        rts.register(self._onesided_key(), self)
        self._registered_with = rts

    # -- redistribution ---------------------------------------------------------------------

    def redistribute(self, new_dist: Distribution, rts) -> "DistributedSequence":
        """Collective: return this sequence laid out as ``new_dist``.

        Every thread exchanges exactly the overlapping fragments computed
        by the transfer engine (direct thread-to-thread messages).
        """
        if new_dist.n != self.dist.n:
            raise ValueError(
                f"cannot redistribute length {self.dist.n} to {new_dist.n}"
            )
        # Late import: the courier package imports marshal, which imports
        # this module.
        from .pipeline.courier import redistribute_exchange

        out = DistributedSequence(self.element, new_dist, self.rank)
        redistribute_exchange(self.element, self.dist, new_dist, self.rank,
                              self._local, out._local, rts)
        return out

    # -- collectives -----------------------------------------------------------------------------

    def gather(self, rts, root: int = 0):
        """Collective: assemble the full sequence on ``root`` (None elsewhere)."""
        from ..runtime import collectives as coll

        pieces = coll.gather(
            rts, (tuple(self.dist.intervals(self.rank)), self._local), root=root
        )
        if pieces is None:
            return None
        if self._numeric:
            full = np.zeros(len(self), dtype=self.element.dtype)
        else:
            full = [None] * len(self)
        for intervals, local in pieces:
            pos = 0
            for a, b in intervals:
                full[a:b] = local[pos:pos + (b - a)]
                pos += b - a
        return full

    # -- misc -----------------------------------------------------------------------------------

    def local_nbytes(self) -> int:
        """Wire-size estimate of the local fragment."""
        if self._numeric:
            return self._local.nbytes + 8
        from ..cdr import wire_size

        return wire_size(SequenceTC(self.element), self._local)

    def __repr__(self) -> str:
        return (f"<DistributedSequence n={len(self)} {self.dist.kind} "
                f"rank={self.rank}/{self.dist.p} local={self.local_size}>")
