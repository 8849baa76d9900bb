"""Hosts, links and the network topology.

A :class:`Host` models one parallel machine: a number of nodes
(processors), a per-node compute rate, and an intra-host fabric profile.
A :class:`Network` wires hosts together with :class:`LinkProfile` links
and answers routing/cost queries for the transport layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .profiles import SGI_SHMEM, LinkProfile


@dataclass
class Host:
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

    name: str
    nodes: int
    node_flops: float = 10e6
    intra: LinkProfile = SGI_SHMEM
    #: when True, programs sharing a node serialize their compute time on
    #: it (opt-in CPU contention model); when False, co-located programs
    #: compute concurrently (each is assumed to own its processors, as in
    #: the paper's testbed).
    timeshared: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"host {self.name!r} needs at least one node")
        if self.node_flops <= 0:
            raise ValueError(f"host {self.name!r} needs a positive node_flops")

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


@dataclass
class Network:
    """A topology of hosts and links with transfer-cost accounting.

    ``jitter`` perturbs every transfer's serialization and latency by a
    uniform factor in ``[1 - jitter, 1 + jitter]`` drawn from a seeded RNG
    — a deterministic stand-in for the load variations behind the paper's
    "average over a series of measurements taken at different times".
    """

    name: str = "network"
    jitter: float = 0.0
    seed: int = 0
    _hosts: dict[str, Host] = field(default_factory=dict)
    _links: dict[frozenset, _LinkState] = field(default_factory=dict)
    _rng: object = field(default=None, repr=False)
    _node_busy: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.jitter:
            import random

            self._rng = random.Random(self.seed)

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

    # -- queries --------------------------------------------------------------

    def host(self, name: str) -> Host:
        return self._hosts[name]

    @property
    def hosts(self) -> tuple[Host, ...]:
        return tuple(self._hosts.values())

    def profile_between(self, a: str, b: str) -> LinkProfile:
        """The link profile used for a message from host ``a`` to ``b``."""
        if a == b:
            return self._hosts[a].intra
        state = self._links.get(frozenset((a, b)))
        if state is None:
            raise NoRouteError(f"no link between {a!r} and {b!r}")
        return state.profile

    # -- occupancy ------------------------------------------------------------

    def reserve(self, a: str, b: str, nbytes: int, now: float) -> tuple[float, float]:
        """Account one ``nbytes`` transfer starting no earlier than ``now``.

        Returns ``(injection_done, arrival)``: the virtual time at which the
        sender has finished pushing the message into the link (what a
        synchronous, non-oneway send costs the sender), and the time the
        message lands at the receiver.  Shared links serialize transfers,
        which is how the reproduction exhibits the Fig-5 congestion.
        """
        profile = self.profile_between(a, b)
        ser = self._perturb(profile.serialization_time(nbytes))
        if a != b and profile.shared:
            state = self._links[frozenset((a, b))]
            start = max(now, state.busy_until)
            state.busy_until = start + ser
        else:
            start = now
        injection_done = start + ser
        return injection_done, injection_done + self._perturb(profile.latency)

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
