"""Deterministic cooperative virtual-time kernel.

This package is the execution substrate for the whole PARDIS
reproduction: simulated "computing threads" (real OS threads scheduled one
at a time) and timestamped message channels, each with one receiver.
See DESIGN.md §6 for the rationale, and :mod:`.kernel` for the run
queue and what one switch costs.
"""

from .channel import Channel, Envelope
from .errors import (
    DeadlockError,
    NotInSimThread,
    SimError,
    SimKilled,
    SimThreadFailed,
)
from .kernel import SimKernel, SimThread, ThreadState

__all__ = [
    "Channel",
    "DeadlockError",
    "Envelope",
    "NotInSimThread",
    "SimError",
    "SimKernel",
    "SimKilled",
    "SimThread",
    "SimThreadFailed",
    "ThreadState",
]
