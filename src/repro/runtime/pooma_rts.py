"""POOMA-communication-abstraction implementation of the RTS interface.

The POOMA library [ABC+95] carries its own communication layer with
*context*-addressed asynchronous sends and tag-matched receives.  PARDIS's
third RTS binding (paper §2.2) wraps that abstraction; here we reproduce
its idiom — ``csend``/``creceive`` in context vocabulary — on top of the
same transport, so the mini-POOMA package in :mod:`repro.packages.pooma`
runs unchanged over it.
"""

from __future__ import annotations

from typing import Any

from ..netsim import ANY
from .interface import RtsMessage
from .mpi import MPIRuntime


class PoomaRuntime(MPIRuntime):
    """RTS binding in POOMA's context-based communication vocabulary."""

    #: POOMA calls a computing thread a "context".
    @property
    def context(self) -> int:
        return self.rank

    @property
    def ncontexts(self) -> int:
        return self.nprocs

    def csend(self, context: int, payload: Any, tag: int = 0) -> None:
        """Asynchronous context-addressed send (POOMA's ``CSend``)."""
        self.send(context, payload, tag=tag)

    def creceive(self, context=ANY, tag=ANY) -> RtsMessage:
        """Tag-matched receive from a context (POOMA's ``CReceive``)."""
        return self.recv(src=context, tag=tag)
