"""Distribution templates for distributed sequences (paper §3.2).

A :class:`Distribution` describes how the ``n`` elements of a distributed
sequence are partitioned over the ``p`` computing threads of a parallel
program: BLOCK (uniform contiguous blocks), CYCLIC (round-robin),
CONCENTRATED (everything on one thread) or an arbitrary proportion
TEMPLATE ("a distribution template ... describes in what proportions the
elements of a sequence should be distributed among the processors").

Internally every distribution is a per-rank list of half-open global index
intervals; the transfer engine intersects interval lists to build
communication schedules, so any two distributions can be converted.

Wherever a layout is accepted it is named by a *spec*, and
:func:`resolve_dist_spec` is the one reader of specs.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterable, Sequence

from .._record import FrozenRecord
from .errors import BadOperation

_set = object.__setattr__

Interval = tuple[int, int]


class Distribution(FrozenRecord):
    """An immutable partition of ``range(n)`` over ``p`` ranks."""

    __slots__ = ("n", "p", "kind", "parts")

    def __init__(self, n: int, p: int, kind: str,
                 parts: tuple[tuple[Interval, ...], ...]) -> None:
        _set(self, "n", n)
        _set(self, "p", p)
        _set(self, "kind", kind)
        #: per-rank tuple of half-open (start, stop) global index
        #: intervals, each rank's list sorted and non-overlapping.
        _set(self, "parts", parts)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def block(n: int, p: int) -> "Distribution":
        """Uniform blockwise: first ``n % p`` ranks get one extra element."""
        _check(n, p)
        base, extra = divmod(n, p)
        parts = []
        start = 0
        for r in range(p):
            size = base + (1 if r < extra else 0)
            parts.append(((start, start + size),) if size else ())
            start += size
        return Distribution(n, p, "BLOCK", tuple(parts))

    @staticmethod
    def cyclic(n: int, p: int) -> "Distribution":
        """Round-robin: rank ``r`` owns elements ``r, r+p, r+2p, ...``."""
        _check(n, p)
        parts = []
        for r in range(p):
            ivs = tuple(
                (i, i + 1) for i in range(r, n, p)
            )
            parts.append(_squeeze_cyclic(ivs, p))
        return Distribution(n, p, "CYCLIC", tuple(parts))

    @staticmethod
    def concentrated(n: int, p: int) -> "Distribution":
        """All elements on rank 0 (paper: "concentrated on one
        processor")."""
        _check(n, p)
        parts = (((0, n),) if n else (),) + ((),) * (p - 1)
        return Distribution(n, p, "CONCENTRATED", parts)

    @staticmethod
    def template(n: int, proportions: Sequence[float]) -> "Distribution":
        """Contiguous blocks sized in the given proportions.

        ``template(100, [3, 1])`` gives rank 0 the first 75 elements and
        rank 1 the remaining 25 (rounded; the last rank absorbs slack).
        """
        p = len(proportions)
        _check(n, p)
        total = float(sum(proportions))
        if total <= 0 or any(w < 0 for w in proportions):
            raise ValueError("proportions must be non-negative with a positive sum")
        parts = []
        start = 0
        for r, w in enumerate(proportions):
            if r == p - 1:
                stop = n
            else:
                stop = start + int(round(n * w / total))
                stop = min(stop, n)
            parts.append(((start, stop),) if stop > start else ())
            start = stop
        return Distribution(n, p, "TEMPLATE", tuple(parts))

    @staticmethod
    def explicit(intervals_per_rank: Iterable[Iterable[Interval]],
                 n: int) -> "Distribution":
        """Arbitrary partition given directly as intervals per rank."""
        parts = tuple(
            tuple(sorted((int(a), int(b)) for a, b in ivs))
            for ivs in intervals_per_rank
        )
        d = Distribution(n, len(parts), "EXPLICIT", parts)
        d.validate()
        return d

    # -- queries ------------------------------------------------------------------

    def intervals(self, rank: int) -> tuple[Interval, ...]:
        return self.parts[rank]

    def local_size(self, rank: int) -> int:
        return sum(b - a for a, b in self.parts[rank])

    @property
    def counts(self) -> list[int]:
        return [self.local_size(r) for r in range(self.p)]

    def owner_of(self, index: int) -> int:
        """Rank owning global ``index``."""
        if not (0 <= index < self.n):
            raise IndexError(f"index {index} out of range for length {self.n}")
        for r, ivs in enumerate(self.parts):
            for a, b in ivs:
                if a <= index < b:
                    return r
        raise AssertionError("index not covered — invalid distribution")

    def global_to_local(self, index: int) -> tuple[int, int]:
        """Map a global index to ``(rank, local offset)``.

        Local storage order is ascending global index within the rank.
        """
        if not (0 <= index < self.n):
            raise IndexError(f"index {index} out of range for length {self.n}")
        for r, ivs in enumerate(self.parts):
            off = 0
            for a, b in ivs:
                if a <= index < b:
                    return r, off + (index - a)
                off += b - a
        raise AssertionError("index not covered — invalid distribution")

    def local_to_global(self, rank: int, offset: int) -> int:
        off = offset
        for a, b in self.parts[rank]:
            if off < b - a:
                return a + off
            off -= b - a
        raise IndexError(
            f"local offset {offset} out of range for rank {rank} "
            f"(size {self.local_size(rank)})"
        )

    def global_indices(self, rank: int):
        """Iterate the global indices owned by ``rank`` in storage order."""
        for a, b in self.parts[rank]:
            yield from range(a, b)

    def validate(self) -> None:
        """Check the partition covers range(n) exactly once."""
        covered = 0
        last_stop = {}
        all_ivs = sorted(
            (a, b, r) for r, ivs in enumerate(self.parts) for a, b in ivs
        )
        prev_stop = 0
        for a, b, r in all_ivs:
            if a < prev_stop:
                raise ValueError(f"overlapping intervals at {a} (rank {r})")
            if a > prev_stop:
                raise ValueError(f"gap in coverage at [{prev_stop}, {a})")
            if b <= a:
                raise ValueError(f"empty or inverted interval ({a}, {b})")
            covered += b - a
            prev_stop = b
        if covered != self.n:
            raise ValueError(
                f"partition covers {covered} elements, expected {self.n}"
            )

    def __str__(self) -> str:
        return f"{self.kind}(n={self.n}, p={self.p}, counts={self.counts})"


class RowBlock:
    """Distribution spec: block the sequence on multiples of ``nx``.

    Used for row-major flattened 2-D data (e.g. POOMA fields): each rank
    gets a contiguous run of whole rows.  Usable wherever a layout spec
    is accepted (servers register it as an "in"-argument override so
    stencil codes receive row-aligned fragments).
    """

    def __init__(self, nx: int) -> None:
        if nx < 1:
            raise ValueError("row length must be >= 1")
        self.nx = nx

    def instantiate(self, n: int, p: int) -> Distribution:
        ny, rem = divmod(n, self.nx)
        if rem:
            raise ValueError(
                f"length {n} is not a whole number of rows of {self.nx}"
            )
        rows = Distribution.block(ny, p)
        parts = [
            [(a * self.nx, b * self.nx) for a, b in rows.intervals(r)]
            for r in range(p)
        ]
        return Distribution.explicit(parts, n)

    def __repr__(self) -> str:
        return f"RowBlock(nx={self.nx})"


#: the named kinds: the IDL dsequence attributes
_KINDS = {"BLOCK": Distribution.block, "CYCLIC": Distribution.cyclic,
          "CONCENTRATED": Distribution.concentrated}


def resolve_dist_spec(spec, n: int, p: int) -> Distribution:
    """The layout a spec names for ``n`` elements over ``p`` ranks.

    A spec is a kind name (``"BLOCK"``/``"CYCLIC"``/``"CONCENTRATED"``),
    a sequence of weights (a proportion template, one weight per rank), a
    :class:`Distribution` (taken as is: its ``n`` and ``p`` must match)
    or any object with ``instantiate(n, p)``, such as :class:`RowBlock`.
    It names every layout: the IDL defaults, servers' ``in_dists``
    overrides, clients' out requests and new sequences."""
    if isinstance(spec, str):
        make = _KINDS.get(spec)
        if make is None:
            raise ValueError(f"unknown distribution kind {spec!r}")
        return make(n, p)
    if isinstance(spec, Distribution):
        if spec.n != n or spec.p != p:
            raise BadOperation(
                f"distribution {spec} does not match (n={n}, p={p})")
        return spec
    if isinstance(spec, (list, tuple)):
        if len(spec) != p:
            raise BadOperation(
                f"distribution template has {len(spec)} weights for {p} "
                "ranks")
        return Distribution.template(n, spec)
    return check_dist_spec(spec).instantiate(n, p)


def check_dist_spec(spec):
    """``spec`` as it is kept and sent: a weights list frozen to a tuple,
    any other spec :func:`resolve_dist_spec` can read as given.  Raises
    ``TypeError`` at once for a spec it cannot read."""
    if isinstance(spec, list):
        spec = tuple(spec)
    if isinstance(spec, tuple):
        if all(isinstance(w, Real) for w in spec):
            return spec
    elif isinstance(spec, (str, Distribution)) or hasattr(spec,
                                                          "instantiate"):
        return spec
    raise TypeError(f"cannot interpret distribution spec {spec!r}")


def _check(n: int, p: int) -> None:
    if n < 0:
        raise ValueError(f"sequence length must be >= 0, got {n}")
    if p < 1:
        raise ValueError(f"need at least one rank, got {p}")


def _squeeze_cyclic(ivs: tuple[Interval, ...], p: int) -> tuple[Interval, ...]:
    """With p == 1, a 'cyclic' layout is one contiguous block."""
    if p == 1 and ivs:
        return ((ivs[0][0], ivs[-1][1]),)
    return ivs
