"""Parallel programs and the world they run in.

A :class:`ParallelProgram` is the paper's "parallel server/client": a set
of one or more computing threads on the nodes of one host, communicating
through a run-time system of their choice.  A :class:`World` owns the
kernel, the network and the transport, and launches programs onto it.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence

from ..netsim import Address, Host, Network, Transport
from ..simkernel import SimKernel, SimThread

#: Endpoint "purpose" ports within a program's port block.
PORT_RTS = 0     # intra-program run-time-system traffic
PORT_ORB = 1     # PARDIS ORB traffic (requests, replies, fragments)
PORTS_PER_PROGRAM = 8


class World:
    """Kernel + network + transport + program registry for one simulation."""

    def __init__(self, network: Optional[Network] = None) -> None:
        self.kernel = SimKernel()
        self.network = network if network is not None else Network()
        self.transport = Transport(self.kernel, self.network)
        self.programs: list[ParallelProgram] = []
        self._port_counter = itertools.count(0)
        #: Global blackboard used by the ORB layer (repositories, agents).
        self.services: dict[str, Any] = {}

    def launch(self, main: Callable, *, host: str, nprocs: int,
               name: str | None = None, rts_factory: Callable | None = None,
               node_offset: int = 0, daemon: bool = False,
               args: Sequence = (), start_time: float = 0.0) -> "ParallelProgram":
        """Create a parallel program and schedule its computing threads.

        ``main(rts, *args)`` runs once per computing thread;  ``rts`` is
        that thread's :class:`~repro.runtime.interface.RuntimeSystem`.
        """
        from .mpi import MPIRuntime  # default backend; late import avoids a cycle

        factory = rts_factory if rts_factory is not None else MPIRuntime
        prog = ParallelProgram(
            self, main, host=host, nprocs=nprocs,
            name=name or f"prog{len(self.programs)}",
            rts_factory=factory, node_offset=node_offset, daemon=daemon,
            args=tuple(args), start_time=start_time,
        )
        self.programs.append(prog)
        prog._start()
        return prog

    def run(self, until: float | None = None) -> float:
        """Run the simulation to completion (or ``until``)."""
        return self.kernel.run(until=until)


class ParallelProgram:
    """A set of computing threads on consecutive nodes of one host."""

    def __init__(self, world: World, main: Callable, *, host: str, nprocs: int,
                 name: str, rts_factory: Callable, node_offset: int,
                 daemon: bool, args: tuple, start_time: float) -> None:
        hostobj: Host = world.network.host(host)
        if nprocs < 1:
            raise ValueError(f"program {name!r} needs at least one thread")
        if node_offset + nprocs > hostobj.nodes:
            raise ValueError(
                f"program {name!r} needs nodes [{node_offset}, {node_offset + nprocs}) "
                f"but host {host!r} has only {hostobj.nodes} nodes"
            )
        self.world = world
        self.main = main
        self.host = host
        self.host_obj = hostobj
        self.nprocs = nprocs
        self.name = name
        self.node_offset = node_offset
        self.daemon = daemon
        self.args = args
        self.start_time = start_time
        self.rts_factory = rts_factory
        self.program_id = next(world._port_counter)
        self.port_base = self.program_id * PORTS_PER_PROGRAM
        self.threads: list[SimThread] = []
        self.rts: list[Any] = [None] * nprocs
        #: Backing store for one-sided (Tulip-style) runtimes.
        self.onesided_store: dict[tuple[int, Any], Any] = {}
        #: each rank's PORT_RTS address, built once for the RTS backends
        self.rts_addresses = tuple(self.address(rank, PORT_RTS)
                                   for rank in range(nprocs))
        # Open every endpoint up front so sends never race with opens.
        for rank in range(nprocs):
            for purpose in (PORT_RTS, PORT_ORB):
                world.transport.open(self.address(rank, purpose))

    # -- addressing -----------------------------------------------------------

    def address(self, rank: int, purpose: int = PORT_RTS) -> Address:
        """Transport address of ``rank``'s endpoint for ``purpose``."""
        if not (0 <= rank < self.nprocs):
            raise ValueError(f"rank {rank} out of range for {self.name!r}")
        return Address(self.host, self.node_offset + rank,
                       self.port_base + purpose)

    def rank_of(self, address: Address) -> int:
        """Inverse of :meth:`address` (any purpose)."""
        return address.node - self.node_offset

    # -- lifecycle ---------------------------------------------------------------

    def _start(self) -> None:
        for rank in range(self.nprocs):
            self.threads.append(
                self.world.kernel.spawn(
                    self._run_rank, rank,
                    name=f"{self.name}[{rank}]",
                    daemon=self.daemon,
                    start_time=self.start_time,
                )
            )

    def _run_rank(self, rank: int):
        rts = self.rts_factory(self, rank)
        self.rts[rank] = rts
        th = self.world.kernel.current()
        th.locals["rts"] = rts
        th.locals["program"] = self
        return self.main(rts, *self.args)

    # -- results -------------------------------------------------------------------

    @property
    def results(self) -> list:
        """Per-rank return values of ``main`` (after the world has run)."""
        return [t.result for t in self.threads]

    def __repr__(self) -> str:
        return (f"<ParallelProgram {self.name!r} host={self.host} "
                f"nprocs={self.nprocs} id={self.program_id}>")
