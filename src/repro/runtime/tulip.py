"""Tulip-style implementation of the RTS interface.

Tulip [BG96] is an object-parallel run-time system built around one-sided
*get/put* operations.  This backend satisfies the same minimal PARDIS
contract as :class:`~repro.runtime.mpi.MPIRuntime` and additionally offers
one-sided remote memory access, which the distributed-sequence layer uses
for location-transparent ``operator[]`` on non-local elements.

Simulation note: a one-sided get/put does not involve the target's
computing thread (that is the point of one-sided RTSes), so we model it as
a direct access to the target rank's registered store, charging the
initiating thread the round-trip (get) or injection (put) time of the
underlying fabric.
"""

from __future__ import annotations

from typing import Any

from ..netsim import estimate_nbytes
from .mpi import MPIRuntime


class OneSidedError(KeyError):
    """A get/put referenced a key that was never registered."""


class TulipRuntime(MPIRuntime):
    """Two-sided contract plus one-sided get/put on registered objects."""

    supports_onesided = True

    # -- registration ------------------------------------------------------------

    def register(self, key: Any, obj: Any) -> None:
        """Expose ``obj`` for one-sided access under ``key`` on this rank."""
        self._program.onesided_store[(self._rank, key)] = obj

    def unregister(self, key: Any) -> None:
        self._program.onesided_store.pop((self._rank, key), None)

    def registered(self, key: Any) -> Any:
        return self._program.onesided_store[(self._rank, key)]

    # -- one-sided operations --------------------------------------------------------

    def _fabric(self):
        return self._program.host_obj.intra

    def get(self, src_rank: int, key: Any, selector=None) -> Any:
        """Fetch (part of) a registered object from ``src_rank``.

        ``selector(obj)`` narrows the fetched data (e.g. one element of an
        array); the initiating thread pays one round trip plus the data's
        serialization time.
        """
        try:
            obj = self._program.onesided_store[(src_rank, key)]
        except KeyError:
            raise OneSidedError(
                f"rank {src_rank} has no registered object {key!r}"
            ) from None
        data = selector(obj) if selector is not None else obj
        n = estimate_nbytes(data)
        profile = self._fabric()
        self._kernel.advance(
            2 * profile.latency + profile.serialization_time(n) + profile.cpu_overhead
        )
        return data

    def put(self, dest_rank: int, key: Any, value: Any,
            updater=None) -> None:
        """Store into a registered object on ``dest_rank``.

        With ``updater``, applies ``updater(obj, value)`` to the remote
        object (e.g. writing one slice); otherwise rebinds the key.
        """
        n = estimate_nbytes(value)
        profile = self._fabric()
        self._kernel.advance(
            profile.latency + profile.serialization_time(n) + profile.cpu_overhead
        )
        store = self._program.onesided_store
        if updater is not None:
            try:
                obj = store[(dest_rank, key)]
            except KeyError:
                raise OneSidedError(
                    f"rank {dest_rank} has no registered object {key!r}"
                ) from None
            updater(obj, value)
        else:
            store[(dest_rank, key)] = value
