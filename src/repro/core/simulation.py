"""High-level facade: a PARDIS world in a box.

:class:`Simulation` wires together the kernel, the network topology, the
transport, the ORB and the repositories, and exposes the three verbs a
metaapplication needs: launch a client, launch a server, and register a
server for on-demand activation.  All example programs and experiments sit
on this class.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..netsim import ATM_155, Host, Network
from ..runtime.mpi import MPIRuntime
from ..runtime.program import ParallelProgram, World
from .orb import ORB, OrbConfig
from .repository import ActivationRecord


def default_network() -> Network:
    """The paper's §4.1 testbed: a 4-node SGI Onyx (HOST_1) and a 10-node
    SGI PowerChallenge (HOST_2) joined by dedicated 155 Mb/s ATM."""
    net = Network()
    net.add_host(Host("HOST_1", nodes=4, node_flops=5.2e6))
    net.add_host(Host("HOST_2", nodes=10, node_flops=6.6e6))
    net.connect("HOST_1", "HOST_2", ATM_155)
    return net


class Simulation:
    """One PARDIS deployment: topology + ORB + programs."""

    def __init__(self, network: Optional[Network] = None,
                 config: Optional[OrbConfig] = None) -> None:
        self.world = World(network or default_network())
        self.orb = ORB(self.world, config)

    @property
    def network(self) -> Network:
        return self.world.network

    @property
    def kernel(self):
        return self.world.kernel

    # -- programs ----------------------------------------------------------------

    def client(self, main: Callable, *, host: str, nprocs: int = 1,
               name: Optional[str] = None, namespace: str = "default",
               rts_factory: Optional[Callable] = None, node_offset: int = 0,
               args: tuple = (), start_time: float = 0.0) -> ParallelProgram:
        """Launch a parallel client; ``main(ctx, *args)`` runs on every
        computing thread.  The simulation ends when all clients finish."""
        return self.orb.launch_program(
            main, host=host, nprocs=nprocs, daemon=False, name=name,
            namespace=namespace, rts_factory=rts_factory or MPIRuntime,
            node_offset=node_offset, args=args, start_time=start_time,
        )

    def server(self, main: Callable, *, host: str, nprocs: int = 1,
               name: Optional[str] = None, namespace: str = "default",
               rts_factory: Optional[Callable] = None, node_offset: int = 0,
               args: tuple = (), start_time: float = 0.0) -> ParallelProgram:
        """Launch a persistent parallel server (a daemon: it may sit in
        ``impl_is_ready`` forever without holding the simulation open)."""
        return self.orb.launch_program(
            main, host=host, nprocs=nprocs, daemon=True, name=name,
            namespace=namespace, rts_factory=rts_factory or MPIRuntime,
            node_offset=node_offset, args=args, start_time=start_time,
        )

    def register_implementation(self, object_name: str, server_main: Callable,
                                *, host: str, nprocs: int,
                                rts_factory: Optional[Callable] = None,
                                node_offset: int = 0,
                                program_name: Optional[str] = None,
                                args: tuple = ()) -> None:
        """Record how to activate the server for ``object_name`` on demand
        (the paper's Implementation Repository ``register`` facility)."""
        self.orb.impl_repository.register(ActivationRecord(
            object_name=object_name, server_main=server_main, host=host,
            nprocs=nprocs, rts_factory=rts_factory or MPIRuntime,
            node_offset=node_offset, program_name=program_name, args=args,
        ))
        self.orb.agent(host)  # ensure an agent exists on the server's host

    # -- interception -----------------------------------------------------------------

    def register_interceptor(self, icept):
        """Register a portable interceptor (see
        :mod:`repro.core.pipeline`) on this world's ORB; returns it."""
        return self.orb.register_interceptor(icept)

    # -- execution --------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run to completion; returns the final virtual time."""
        return self.world.run(until=until)

    def close(self) -> None:
        """End a simulation that was not run to completion (see
        :meth:`SimKernel.close`); idempotent."""
        self.kernel.close()
