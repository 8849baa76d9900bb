"""Link performance profiles.

A :class:`LinkProfile` captures the three parameters the evaluation
actually depends on: per-message latency, sustained bandwidth, and the
fixed per-message CPU overhead paid by the sender (protocol processing,
buffer handoff).  Presets correspond to the interconnects used in the
paper's testbed (155 Mb/s dedicated ATM, shared 10 Mb/s Ethernet) plus the
intra-host fabrics of the simulated machines.
"""

from __future__ import annotations

from .._record import FrozenRecord

_set = object.__setattr__


class LinkProfile(FrozenRecord):
    """Performance envelope of a communication link.

    Parameters
    ----------
    name:
        Human-readable label used in traces and reprs.
    latency:
        One-way message latency in seconds (time of flight + switching).
    bandwidth:
        Sustained payload bandwidth in **bytes per second**.
    cpu_overhead:
        Fixed per-message CPU time charged to the sending thread
        (protocol stack traversal, descriptor setup).
    shared:
        Whether concurrent transfers serialize on the link (true for the
        paper's Ethernet segment; false for node-private fabrics).
    """

    __slots__ = ("name", "latency", "bandwidth", "cpu_overhead", "shared")

    def __init__(self, name: str, latency: float, bandwidth: float,
                 cpu_overhead: float = 0.0, shared: bool = True) -> None:
        _set(self, "name", name)
        _set(self, "latency", latency)
        _set(self, "bandwidth", bandwidth)
        _set(self, "cpu_overhead", cpu_overhead)
        _set(self, "shared", shared)
        if latency < 0 or bandwidth <= 0 or cpu_overhead < 0:
            raise ValueError(f"invalid link profile parameters: {self!r}")

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through the link at full bandwidth."""
        return nbytes / self.bandwidth

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended end-to-end time for one ``nbytes`` message."""
        return self.cpu_overhead + self.serialization_time(nbytes) + self.latency


def _mbit(x: float) -> float:
    """Megabits/s -> bytes/s."""
    return x * 1e6 / 8.0


#: Dedicated 155 Mb/s ATM (the HOST1--HOST2 link of the paper's testbed).
#: ~60% payload efficiency accounts for AAL5/IP framing.
ATM_155 = LinkProfile("ATM-155", latency=500e-6, bandwidth=_mbit(155) * 0.60,
                      cpu_overhead=120e-6)

#: Shared 10 Mb/s Ethernet (the SGI--SP/2 path in sections 4.2/4.3).
ETHERNET_10 = LinkProfile("Ethernet-10", latency=1.2e-3, bandwidth=_mbit(10) * 0.75,
                          cpu_overhead=250e-6)

#: 100 Mb/s switched Ethernet, used by ablation benchmarks.
ETHERNET_100 = LinkProfile("Ethernet-100", latency=300e-6, bandwidth=_mbit(100) * 0.85,
                           cpu_overhead=150e-6)

#: Shared-memory fabric inside an SGI multiprocessor.
SGI_SHMEM = LinkProfile("SGI-shmem", latency=8e-6, bandwidth=180e6,
                        cpu_overhead=4e-6, shared=False)

#: IBM SP/2 high-performance switch.
SP2_SWITCH = LinkProfile("SP2-switch", latency=40e-6, bandwidth=35e6,
                         cpu_overhead=25e-6, shared=False)

#: Loopback for messages a thread sends to itself (local bypass uses no
#: network at all; this exists for completeness of the model).
LOOPBACK = LinkProfile("loopback", latency=1e-7, bandwidth=2e9,
                       cpu_overhead=0.0, shared=False)

PRESETS = {
    p.name: p
    for p in (ATM_155, ETHERNET_10, ETHERNET_100, SGI_SHMEM, SP2_SWITCH, LOOPBACK)
}
