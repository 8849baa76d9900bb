"""Compute-utilization accounting.

A :class:`ComputeMeter` attached to a world before its programs run
(``repro.tools.attach(world, meter=True)``) accumulates the virtual
compute time charged on every (host, node) —
the basis for utilization reports like "the gradient nodes were 34% busy",
which is how one diagnoses the Fig-5 flattening.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class ComputeMeter:
    """Accumulates charged compute seconds per (host, node)."""

    busy: dict = field(default_factory=lambda: defaultdict(float))

    def charge(self, host: str, node: int, seconds: float) -> None:
        self.busy[(host, node)] += seconds

    def busy_seconds(self, host: str, node: int | None = None) -> float:
        if node is not None:
            return self.busy.get((host, node), 0.0)
        return sum(v for (h, _), v in self.busy.items() if h == host)

    def utilization(self, host: str, nodes: int, elapsed: float) -> float:
        """Fraction of available node-seconds spent computing."""
        if elapsed <= 0 or nodes <= 0:
            return 0.0
        return self.busy_seconds(host) / (nodes * elapsed)

    def report(self, elapsed: float) -> str:
        lines = [f"compute utilization over {elapsed:.2f} virtual s:"]
        hosts = sorted({h for h, _ in self.busy})
        for h in hosts:
            nodes = sorted(n for hh, n in self.busy if hh == h)
            total = self.busy_seconds(h)
            per_node = "  ".join(
                f"n{n}={self.busy[(h, n)] / elapsed * 100:4.1f}%"
                for n in nodes
            )
            lines.append(f"  {h:>10}: {total:8.2f} busy-s   {per_node}")
        return "\n".join(lines)


def zero_copy_summary(stats) -> str:
    """One-line summary of a :class:`repro.cdr.buffers.ZeroCopyStats`
    (the zero-copy marshaling lane + its buffer pool)."""
    borrows = stats.borrows
    hit_pct = 100.0 * stats.pool_hits / borrows if borrows else 0.0
    return (
        f"zero-copy lane: {stats.fast_encodes} fast encodes "
        f"({stats.bytes_fast} bytes), {stats.fast_decodes} fast decodes, "
        f"{stats.fallback_encodes}/{stats.fallback_decodes} fallback "
        f"enc/dec; pool: {borrows} leases, {hit_pct:.0f}% reuse, "
        f"{stats.outstanding} outstanding"
    )
