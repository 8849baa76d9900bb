"""The PARDIS run-time-system interface (paper §2.2).

"The run-time system interface through which the ORB communicates with
clients and servers comprises communication primitives and data marshaling
calls specific to a given system.  The functional requirements are
restricted to a very small subset of basic message passing primitives."

That subset is this abstract class: node identity, tagged point-to-point
send/recv/probe, and a barrier.  Everything else (collectives, argument
transfer schedules, the ORB protocol) is layered on top, which is exactly
what lets PARDIS interoperate with packages built on different run-time
systems — reproduced here by three interchangeable implementations
(:class:`~repro.runtime.mpi.MPIRuntime`,
:class:`~repro.runtime.tulip.TulipRuntime`,
:class:`~repro.runtime.pooma_rts.PoomaRuntime`).
"""

from __future__ import annotations

import abc
from typing import Any, Optional

from ..netsim import ANY
from .tags import check_user_tag

__all__ = ["ANY", "RtsMessage", "RuntimeSystem"]


class RtsMessage:
    """A message as delivered by :meth:`RuntimeSystem.recv`."""

    __slots__ = ("src", "tag", "payload", "nbytes")

    def __init__(self, src: int, tag: int, payload: Any, nbytes: int) -> None:
        self.src = src
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes


class RuntimeSystem(abc.ABC):
    """Minimal message-passing contract between the ORB and a parallel
    program's computing threads.

    One instance exists per computing thread (rank).  ``send``/``recv``
    address peers by rank within the same program; tags below
    :data:`~repro.runtime.tags.PARDIS_TAG_BASE` belong to user code, the
    rest to PARDIS.
    """

    # -- identity -------------------------------------------------------------

    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This computing thread's index within the program (0-based)."""

    @property
    @abc.abstractmethod
    def nprocs(self) -> int:
        """Number of computing threads in the program."""

    @property
    @abc.abstractmethod
    def program(self):
        """The owning :class:`~repro.runtime.program.ParallelProgram`."""

    # -- point-to-point ---------------------------------------------------------

    @abc.abstractmethod
    def _send(self, dest: int, payload: Any, tag: int,
              nbytes: Optional[int]) -> None:
        """Backend send; ``tag`` already validated/reserved-checked."""

    @abc.abstractmethod
    def recv(self, src=ANY, tag=ANY) -> RtsMessage:
        """Blocking tag/source-matched receive from a program peer."""

    @abc.abstractmethod
    def iprobe(self, src=ANY, tag=ANY) -> bool:
        """True iff a matching message has already arrived."""

    def send(self, dest: int, payload: Any, tag: int = 0,
             nbytes: Optional[int] = None) -> None:
        """User-facing send: rejects tags in the PARDIS reserved range."""
        check_user_tag(tag)
        self._send(dest, payload, tag, nbytes)

    def send_reserved(self, dest: int, payload: Any, tag: int,
                      nbytes: Optional[int] = None) -> None:
        """PARDIS-internal send; permits reserved tags."""
        self._send(dest, payload, tag, nbytes)

    # -- time charging ------------------------------------------------------------

    @abc.abstractmethod
    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of virtual compute time to this thread."""

    @abc.abstractmethod
    def charge_flops(self, flops: float) -> None:
        """Charge compute time for ``flops`` operations at this node's rate."""

    @abc.abstractmethod
    def now(self) -> float:
        """This thread's current virtual time."""

    # -- synchronization -----------------------------------------------------------

    @abc.abstractmethod
    def barrier(self) -> None:
        """Collective barrier over all computing threads of the program."""
