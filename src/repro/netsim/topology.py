"""Hosts, links and the network topology.

A :class:`Host` models one parallel machine: a number of nodes
(processors), a per-node compute rate, and an intra-host fabric profile.
A :class:`Network` wires hosts together with :class:`LinkProfile` links
and answers routing/cost queries for the transport layer.
"""

from __future__ import annotations

from typing import Optional

from .._record import Record
from .profiles import SGI_SHMEM, LinkProfile


class Host(Record):
    """A (simulated) parallel machine.

    Parameters
    ----------
    name:
        Unique host name, used in addresses.
    nodes:
        Number of processors ("computing thread" slots).
    node_flops:
        Effective per-node compute rate in floating-point operations per
        second.  Deliberately 1997-scale; only ratios between hosts matter
        for the reproduced figures.
    intra:
        Link profile for node-to-node messages inside the host.
    """

    __slots__ = ("name", "nodes", "node_flops", "intra", "timeshared")

    def __init__(self, name: str, nodes: int, node_flops: float = 10e6,
                 intra: LinkProfile = SGI_SHMEM,
                 timeshared: bool = False) -> None:
        self.name = name
        self.nodes = nodes
        self.node_flops = node_flops
        self.intra = intra
        #: when True, programs sharing a node serialize their compute time
        #: on it (opt-in CPU contention model); when False, co-located
        #: programs compute concurrently (each is assumed to own its
        #: processors, as in the paper's testbed).
        self.timeshared = timeshared
        if nodes < 1:
            raise ValueError(f"host {name!r} needs at least one node")
        if node_flops <= 0:
            raise ValueError(f"host {name!r} needs a positive node_flops")

    def compute_time(self, flops: float) -> float:
        """Virtual seconds for one node to retire ``flops`` operations."""
        return flops / self.node_flops


class _LinkState:
    """Mutable occupancy state of one inter-host link."""

    __slots__ = ("profile", "busy_until")

    def __init__(self, profile: LinkProfile) -> None:
        self.profile = profile
        self.busy_until = 0.0


class NoRouteError(LookupError):
    """No link exists between the two hosts."""


class Network:
    """A topology of hosts and links with transfer-cost accounting.

    ``jitter`` perturbs every transfer's serialization and latency by a
    uniform factor in ``[1 - jitter, 1 + jitter]`` drawn from a seeded RNG
    — a deterministic stand-in for the load variations behind the paper's
    "average over a series of measurements taken at different times".
    """

    __slots__ = ("name", "jitter", "seed", "_hosts", "_links", "_rng",
                 "_node_busy", "_routes")

    def __init__(self, name: str = "network", jitter: float = 0.0,
                 seed: int = 0) -> None:
        self.name = name
        self.jitter = jitter
        self.seed = seed
        self._hosts: dict[str, Host] = {}
        self._links: dict[frozenset, _LinkState] = {}
        self._rng = None
        self._node_busy: dict[tuple[str, int], float] = {}
        #: (a, b) host pair -> (profile, shared link state or None), filled
        #: on first use and cleared by connect()
        self._routes: dict[tuple[str, str],
                           tuple[LinkProfile, Optional[_LinkState]]] = {}
        if not (0.0 <= jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter:
            import random

            self._rng = random.Random(seed)

    def _perturb(self, value: float) -> float:
        if self._rng is None:
            return value
        return value * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))

    # -- construction --------------------------------------------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        return host

    def connect(self, a: str, b: str, profile: LinkProfile) -> None:
        """Create a bidirectional link between hosts ``a`` and ``b``."""
        if a == b:
            raise ValueError("use the host's intra profile for self-links")
        for h in (a, b):
            if h not in self._hosts:
                raise KeyError(f"unknown host {h!r}")
        self._links[frozenset((a, b))] = _LinkState(profile)
        self._routes.clear()

    # -- queries --------------------------------------------------------------

    def host(self, name: str) -> Host:
        return self._hosts[name]

    @property
    def hosts(self) -> tuple[Host, ...]:
        return tuple(self._hosts.values())

    def route(self, a: str, b: str) -> tuple[LinkProfile,
                                             Optional[_LinkState]]:
        """``(profile, state)`` for messages from host ``a`` to ``b``:
        ``state`` is the link's occupancy when the link is shared between
        two hosts, else ``None``.  Resolved once per ordered pair; pass it
        to :meth:`reserve_route` to account a transfer without a second
        lookup."""
        route = self._routes.get((a, b))
        if route is None:
            if a == b:
                route = (self._hosts[a].intra, None)
            else:
                state = self._links.get(frozenset((a, b)))
                if state is None:
                    raise NoRouteError(f"no link between {a!r} and {b!r}")
                route = (state.profile,
                         state if state.profile.shared else None)
            self._routes[(a, b)] = route
        return route

    # -- occupancy ------------------------------------------------------------

    def reserve_route(self, route: tuple[LinkProfile, Optional[_LinkState]],
                      nbytes: int, now: float) -> tuple[float, float]:
        """Account one ``nbytes`` transfer over a ``route`` from
        :meth:`route`, starting no earlier than ``now``.

        Returns ``(injection_done, arrival)``: the virtual time at which the
        sender has finished pushing the message into the link (what a
        synchronous, non-oneway send costs the sender), and the time the
        message lands at the receiver.  Shared links serialize transfers,
        which is how the reproduction exhibits the Fig-5 congestion.
        """
        profile, state = route
        ser = profile.serialization_time(nbytes)
        latency = profile.latency
        if self._rng is not None:
            ser, latency = self._perturb(ser), self._perturb(latency)
        if state is not None:
            start = max(now, state.busy_until)
            state.busy_until = start + ser
        else:
            start = now
        injection_done = start + ser
        return injection_done, injection_done + latency

    def reserve_node(self, host: str, node: int, seconds: float,
                     now: float) -> float:
        """Serialize ``seconds`` of compute on a time-shared node; returns
        the completion time."""
        key = (host, node)
        busy = self._node_busy.get(key, 0.0)
        start = max(now, busy)
        end = start + seconds
        self._node_busy[key] = end
        return end

    def reset_occupancy(self) -> None:
        for state in self._links.values():
            state.busy_until = 0.0
        self._node_busy.clear()
