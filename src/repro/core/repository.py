"""Object and Implementation Repositories (paper §2.2).

"Databases which define a naming domain for interacting objects.  On
activation, every object registers with an object repository, which is
searched when the client requests a connection to a specific object.  Each
repository is associated with a unique namespace; configuring clients and
servers to work with different repositories allows the programmer to split
the namespace for interacting objects."

The Implementation Repository stores, for non-persistent servers, how an
object's server is to be activated (the paper's ``register`` facility);
activation agents consume those records.
"""

from __future__ import annotations

from typing import Callable, Optional

from .._record import Record
from ..netsim import Address
from .errors import ObjectNotFound


class ObjectRef(Record):
    """An interoperable object reference (the PARDIS IOR)."""

    __slots__ = ("name", "repo_id", "kind", "program_id", "host",
                 "nthreads", "owner_rank", "endpoints", "in_dists")

    def __init__(self, name: str, repo_id: str, kind: str, program_id: int,
                 host: str, nthreads: int, owner_rank: int,
                 endpoints: tuple[Address, ...],
                 in_dists: Optional[dict] = None) -> None:
        self.name = name
        self.repo_id = repo_id          # interface repository id
        self.kind = kind                # "spmd" | "single"
        self.program_id = program_id
        self.host = host
        self.nthreads = nthreads        # server computing threads
        self.owner_rank = owner_rank    # servicing thread for single objects
        self.endpoints = endpoints      # ORB endpoint of every server thread
        #: server-side overrides: (op, param) -> distribution kind for "in"
        #: arguments, set before registration (paper §3.2)
        self.in_dists = {} if in_dists is None else in_dists

    @property
    def root_endpoint(self) -> Address:
        return self.endpoints[self.owner_rank if self.kind == "single" else 0]


class ObjectRepository:
    """Name -> :class:`ObjectRef` within one namespace.

    A name usually maps to one reference, but servers may register as
    *replicas* of an existing name (``register(ref, replica=True)``):
    the repository then holds an ordered replica list — possibly SPMD
    servers of differing widths — and :meth:`lookup` keeps returning the
    first registration while :meth:`lookup_all` exposes the whole group
    for the selection policies in :mod:`repro.services`.
    """

    def __init__(self, namespace: str = "default") -> None:
        self.namespace = namespace
        self._objects: dict[str, list[ObjectRef]] = {}

    def register(self, ref: ObjectRef, replica: bool = False) -> None:
        refs = self._objects.get(ref.name)
        if refs is None:
            self._objects[ref.name] = [ref]
            return
        if any(r.program_id == ref.program_id for r in refs):
            raise ValueError(
                f"object {ref.name!r} already registered in namespace "
                f"{self.namespace!r} by program {ref.program_id}"
            )
        if not replica:
            raise ValueError(
                f"object {ref.name!r} already registered in namespace "
                f"{self.namespace!r} (pass replica=True to add a replica)"
            )
        refs.append(ref)

    def unregister(self, name: str, program_id: Optional[int] = None) -> None:
        """Remove a name — or, with ``program_id``, just that program's
        replica of it.  Idempotent (unknown names are ignored)."""
        if program_id is None:
            self._objects.pop(name, None)
            return
        refs = self._objects.get(name)
        if refs is None:
            return
        refs[:] = [r for r in refs if r.program_id != program_id]
        if not refs:
            del self._objects[name]

    def lookup(self, name: str) -> ObjectRef:
        try:
            return self._objects[name][0]
        except KeyError:
            raise ObjectNotFound(
                f"no object {name!r} in namespace {self.namespace!r}"
            ) from None

    def lookup_all(self, name: str) -> tuple[ObjectRef, ...]:
        """Every live registration of ``name`` (empty when unknown)."""
        return tuple(self._objects.get(name, ()))

    def contains(self, name: str) -> bool:
        return name in self._objects

    def names(self) -> list[str]:
        return sorted(self._objects)


class ActivationRecord(Record):
    """How to start the server that implements an object (paper: the
    ``register`` facility of the Implementation Repository)."""

    __slots__ = ("object_name", "server_main", "host", "nprocs",
                 "rts_factory", "node_offset", "program_name", "args")

    def __init__(self, object_name: str, server_main: Callable, host: str,
                 nprocs: int, rts_factory: Optional[Callable] = None,
                 node_offset: int = 0, program_name: Optional[str] = None,
                 args: tuple = ()) -> None:
        self.object_name = object_name
        #: main(ctx) run on every computing thread
        self.server_main = server_main
        self.host = host
        self.nprocs = nprocs
        self.rts_factory = rts_factory
        self.node_offset = node_offset
        self.program_name = program_name
        self.args = args


class ImplementationRepository:
    """Object name -> :class:`ActivationRecord`."""

    def __init__(self) -> None:
        self._records: dict[str, ActivationRecord] = {}

    def register(self, record: ActivationRecord) -> None:
        self._records[record.object_name] = record

    def lookup(self, name: str) -> Optional[ActivationRecord]:
        return self._records.get(name)

    def names(self) -> list[str]:
        return sorted(self._records)
