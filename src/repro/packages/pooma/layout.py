"""Grid layouts: how a 2-D domain is decomposed over contexts."""

from __future__ import annotations

from dataclasses import dataclass

from ...core.distribution import Distribution


@dataclass(frozen=True)
class GridLayout:
    """Block-row decomposition of an ``ny`` x ``nx`` grid over ``p``
    contexts: context ``r`` owns rows ``[row_start(r), row_stop(r))``.

    POOMA's real layouts are multi-dimensional; block-rows are all the
    paper's diffusion example needs and keep ghost exchange to two
    neighbours.
    """

    ny: int
    nx: int
    p: int

    def __post_init__(self) -> None:
        if self.ny < 1 or self.nx < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.ny}x{self.nx}")
        if not (1 <= self.p <= self.ny):
            raise ValueError(
                f"cannot split {self.ny} rows over {self.p} contexts"
            )

    def _row_dist(self) -> Distribution:
        return Distribution.block(self.ny, self.p)

    def row_start(self, rank: int) -> int:
        ivs = self._row_dist().intervals(rank)
        return ivs[0][0] if ivs else 0

    def row_stop(self, rank: int) -> int:
        ivs = self._row_dist().intervals(rank)
        return ivs[0][1] if ivs else 0

    def local_rows(self, rank: int) -> int:
        return self.row_stop(rank) - self.row_start(rank)

    def neighbors(self, rank: int) -> tuple[int | None, int | None]:
        """Contexts owning the rows just above and below mine."""
        up = rank - 1 if rank > 0 else None
        down = rank + 1 if rank < self.p - 1 else None
        return up, down

    def flat_distribution(self) -> Distribution:
        """The layout of the row-major flattened field as a 1-D
        distribution — the bridge to PARDIS distributed sequences
        ("a two dimensional array is represented as a vector in
        row-major order", §4.3)."""
        parts = []
        for r in range(self.p):
            a, b = self.row_start(r), self.row_stop(r)
            parts.append([(a * self.nx, b * self.nx)] if b > a else [])
        return Distribution.explicit(parts, self.ny * self.nx)
