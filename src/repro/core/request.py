"""Wire-level protocol messages of the PARDIS ORB (GIOP-flavoured).

Three message kinds travel on ORB endpoints (all with reserved tags):

* :class:`RequestHeader` — operation name, request id, CDR-encoded scalar
  in-arguments, and layout metadata for distributed arguments;
* :class:`Fragment` — one thread-to-thread piece of a distributed
  argument or result;
* :class:`ReplyHeader` — completion status, CDR-encoded scalar results,
  and layout metadata for distributed results.

Distributions travel as compact :func:`describe`/:func:`build` descriptors
so each side can reconstruct the schedule locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..netsim import Address
from .distribution import Distribution

# Request id: unique per (client program, binding, sequence number).
ReqId = tuple

# ---------------------------------------------------------------------------
# Well-known service-context keys (the wire contract of repro.services).
# Kept here, next to the headers they travel on, so the core protocol and
# the services layer agree without importing each other.
# ---------------------------------------------------------------------------

#: reply marker: the request was shed by admission control and was NOT
#: executed (clients map such replies to TransientException)
OVERLOAD_CONTEXT = "pardis.overload"
#: reply hint: suggested client back-off in virtual seconds, set when the
#: server's request queue is past its high watermark (also present on
#: successful replies from a nearly saturated server)
BACKPRESSURE_CONTEXT = "pardis.backpressure"
#: reply report: ``{"program_id", "queue_depth", "capacity"}`` load
#: sample piggybacked for least-loaded replica selection
LOAD_CONTEXT = "pardis.load"
#: request priority (higher is served first under the "priority" policy)
PRIORITY_CONTEXT = "pardis.priority"
#: distributed-tracing context (``repro.tools.tracing``).  It is
#: instrumentation, not protocol: it travels on the headers but is not
#: charged to their simulated size, so attaching tracing never moves
#: virtual time.  Every other context is charged.
TRACE_CONTEXT = "pardis.trace"


def _charged_contexts(contexts: dict) -> int:
    """How many of a header's service contexts count toward its size."""
    return len(contexts) - (TRACE_CONTEXT in contexts)


def describe(dist: Distribution) -> tuple:
    """Compact, picklable descriptor of a distribution."""
    if dist.kind in ("BLOCK", "CYCLIC"):
        return (dist.kind, dist.n, dist.p)
    if dist.kind == "CONCENTRATED":
        owner = next(
            (r for r in range(dist.p) if dist.local_size(r)), 0
        )
        return ("CONCENTRATED", dist.n, dist.p, owner)
    return ("EXPLICIT", dist.n, dist.p, dist.parts)


def build(descr: tuple) -> Distribution:
    """Inverse of :func:`describe`."""
    kind = descr[0]
    if kind in ("BLOCK", "CYCLIC"):
        return Distribution.of_kind(kind, descr[1], descr[2])
    if kind == "CONCENTRATED":
        return Distribution.concentrated(descr[1], descr[2], descr[3])
    if kind == "EXPLICIT":
        return Distribution(descr[1], descr[2], "EXPLICIT", descr[3])
    raise ValueError(f"bad distribution descriptor {descr!r}")


@dataclass
class RequestHeader:
    """First message of an invocation, delivered to every server thread
    (rank 0 receives it from the client and forwards to its peers through
    the server's communication domain)."""

    req_id: ReqId
    object_name: str
    op: str
    kind: str                       # "spmd" | "single"
    client_program_id: int
    client_nthreads: int
    reply_to: tuple[Address, ...]   # ORB endpoints of the client threads
    scalar_args: bytes              # CDR: non-distributed in-args, in order
    #: param name -> distribution descriptor of the client-side layout
    dseq_args: dict[str, tuple] = field(default_factory=dict)
    #: param name -> client-requested layout for distributed out args
    out_dists: dict[str, tuple] = field(default_factory=dict)
    oneway: bool = False
    forwarded: bool = False
    #: GIOP-style ServiceContextList: opaque per-request entries added by
    #: portable interceptors (deadlines, tracing ids, ...).
    service_contexts: dict[str, Any] = field(default_factory=dict)

    def nbytes(self) -> int:
        return 96 + len(self.scalar_args) + 24 * (
            len(self.dseq_args) + len(self.out_dists) + len(self.reply_to)
            + _charged_contexts(self.service_contexts)
        )


@dataclass
class Fragment:
    """One thread-to-thread piece of a distributed argument/result."""

    req_id: ReqId
    param: str
    src_rank: int
    intervals: tuple
    #: the CDR-encoded element run, bytes-like: ``bytes``, an exact-size
    #: ``bytearray`` (rows of numbers) or a pooled lease (numbers)
    payload: Any

    def nbytes(self) -> int:
        return 48 + len(self.payload) + 16 * len(self.intervals)


#: ReplyHeader.status values
STATUS_OK = "ok"
STATUS_USER_EXC = "user_exception"
STATUS_SYS_EXC = "system_exception"
#: Supplementary failure notification from a *non-root* SPMD server
#: thread whose part of the request failed after the root may already
#: have replied OK.  Not authoritative: a client that sees it before the
#: root's reply keeps waiting for the real reply, but a client that is
#: collecting result fragments fails promptly instead of hanging on
#: fragments the dead thread will never send.
STATUS_PEER_EXC = "peer_exception"


@dataclass
class ReplyHeader:
    req_id: ReqId
    status: str
    scalar_results: bytes = b""     # CDR: return value then scalar outs
    #: out param name -> (distribution descriptor of server-side layout)
    dseq_outs: dict[str, tuple] = field(default_factory=dict)
    #: (exception repo_id, CDR fields) for user exceptions,
    #: or a message string for system exceptions
    exception: Optional[Any] = None
    #: GIOP-style ServiceContextList for the reply direction.
    service_contexts: dict[str, Any] = field(default_factory=dict)

    def nbytes(self) -> int:
        extra = 0
        if isinstance(self.exception, tuple):
            extra = 32 + len(self.exception[1])
        elif isinstance(self.exception, str):
            extra = len(self.exception)
        return (64 + len(self.scalar_results) + 24 * len(self.dseq_outs)
                + 24 * _charged_contexts(self.service_contexts) + extra)
