"""MPI-style implementation of the RTS interface.

Two-sided, tag-matched point-to-point messaging over the program's
transport endpoints — the shape of the MPI binding the paper implemented
first (§2.2, [For95]).
"""

from __future__ import annotations

from typing import Any, Optional

from ..netsim import ANY
from .interface import RtsMessage, RuntimeSystem
from .program import PORT_RTS, ParallelProgram


class MPIRuntime(RuntimeSystem):
    """Tag-matched two-sided messaging (the MPI RTS binding)."""

    def __init__(self, program: ParallelProgram, rank: int) -> None:
        self._program = program
        self._rank = rank
        self._kernel = program.world.kernel
        self._peers = program.rts_addresses
        self._endpoint = program.world.transport.endpoint(self._peers[rank])

    # -- identity --------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def nprocs(self) -> int:
        return self._program.nprocs

    @property
    def program(self) -> ParallelProgram:
        return self._program

    # -- point-to-point ----------------------------------------------------------

    def _peer(self, rank: int):
        """``rank``'s RTS address; out of range raises ``ValueError``."""
        if 0 <= rank < len(self._peers):
            return self._peers[rank]
        return self._program.address(rank, PORT_RTS)

    def _send(self, dest: int, payload: Any, tag: int,
              nbytes: Optional[int]) -> None:
        self._endpoint.send(self._peer(dest), payload, tag=tag, nbytes=nbytes)

    def _resolve_src(self, src):
        if src is ANY:
            return ANY
        return self._peer(src)

    def recv(self, src=ANY, tag=ANY) -> RtsMessage:
        pkt = self._endpoint.recv(src=self._resolve_src(src), tag=tag)
        return RtsMessage(self._program.rank_of(pkt.src), pkt.tag,
                          pkt.body, pkt.nbytes)

    def iprobe(self, src=ANY, tag=ANY) -> bool:
        return self._endpoint.iprobe(src=self._resolve_src(src), tag=tag)

    # -- time -------------------------------------------------------------------

    def compute(self, seconds: float) -> None:
        host = self._program.host_obj
        if host.timeshared and seconds > 0:
            node = self._program.address(self._rank).node
            end = self._program.world.network.reserve_node(
                host.name, node, seconds, self._kernel.now())
            self._kernel.sleep_until(end)
        else:
            self._kernel.advance(seconds)

    def charge_flops(self, flops: float) -> None:
        self.compute(self._program.host_obj.compute_time(flops))

    def now(self) -> float:
        return self._kernel.now()

    # -- synchronization ------------------------------------------------------------

    def barrier(self) -> None:
        from .collectives import barrier

        barrier(self)
