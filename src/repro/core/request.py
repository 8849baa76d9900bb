"""Wire-level protocol messages of the PARDIS ORB (GIOP-flavoured).

Three message kinds travel on ORB endpoints (all with reserved tags):

* :class:`RequestHeader` — operation name, request id, CDR-encoded scalar
  in-arguments, the client-side layouts of the distributed in-arguments
  and the client's layout specs for distributed results;
* :class:`Fragment` — one thread-to-thread piece of a distributed
  argument or result;
* :class:`ReplyHeader` — completion status, CDR-encoded scalar results,
  and the server- and client-side layouts of each distributed result,
  which the server resolves once.

Layouts travel as :class:`~repro.core.distribution.Distribution` values.
A header's simulated size counts its layout entries, not their contents.
"""

from __future__ import annotations

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
#: distributed-tracing context (``repro.tools.tracing``).  It is
#: instrumentation, not protocol: it travels on the headers but is not
#: charged to their simulated size, so attaching tracing never moves
#: virtual time.  Every other context is charged.
TRACE_CONTEXT = "pardis.trace"


def _charged_contexts(contexts: dict) -> int:
    """How many of a header's service contexts count toward its size."""
    return len(contexts) - (TRACE_CONTEXT in contexts)


class RequestHeader:
    """First message of an invocation, delivered to every server thread
    (rank 0 receives it from the client and forwards to its peers through
    the server's communication domain)."""

    __slots__ = ("req_id", "object_name", "op", "kind", "client_program_id",
                 "client_nthreads", "reply_to", "scalar_args", "dseq_args",
                 "out_dists", "oneway", "forwarded", "service_contexts")

    def __init__(self, req_id: ReqId, object_name: str, op: str, kind: str,
                 client_program_id: int, client_nthreads: int,
                 reply_to: tuple[Address, ...], scalar_args: bytes,
                 dseq_args: Optional[dict[str, Distribution]] = None,
                 out_dists: Optional[dict[str, Any]] = None,
                 oneway: bool = False, forwarded: bool = False,
                 service_contexts: Optional[dict[str, Any]] = None) -> None:
        self.req_id = req_id
        self.object_name = object_name
        self.op = op
        self.kind = kind                    # "spmd" | "single"
        self.client_program_id = client_program_id
        self.client_nthreads = client_nthreads
        #: ORB endpoints of the client threads
        self.reply_to = reply_to
        #: CDR: non-distributed in-args, in order
        self.scalar_args = scalar_args
        #: param name -> client-side layout of a distributed in arg
        self.dseq_args = {} if dseq_args is None else dseq_args
        #: param name -> the client's layout spec for a distributed out
        #: arg (as ``check_dist_spec`` returns it), if it gave one
        self.out_dists = {} if out_dists is None else out_dists
        self.oneway = oneway
        self.forwarded = forwarded
        #: GIOP-style ServiceContextList: opaque per-request entries added
        #: by portable interceptors (tracing ids, ...).
        self.service_contexts = ({} if service_contexts is None
                                 else service_contexts)

    def forwarded_copy(self) -> "RequestHeader":
        """This header as rank 0 forwards it to its peers: a shallow copy
        (the dicts are shared) marked ``forwarded``."""
        return RequestHeader(
            self.req_id, self.object_name, self.op, self.kind,
            self.client_program_id, self.client_nthreads, self.reply_to,
            self.scalar_args, self.dseq_args, self.out_dists, self.oneway,
            True, self.service_contexts)

    def nbytes(self) -> int:
        return 96 + len(self.scalar_args) + 24 * (
            len(self.dseq_args) + len(self.out_dists) + len(self.reply_to)
            + _charged_contexts(self.service_contexts)
        )


class Fragment:
    """One thread-to-thread piece of a distributed argument/result."""

    __slots__ = ("req_id", "param", "src_rank", "intervals", "payload")

    def __init__(self, req_id: ReqId, param: str, src_rank: int,
                 intervals: tuple, payload: Any) -> None:
        self.req_id = req_id
        self.param = param
        self.src_rank = src_rank
        self.intervals = intervals
        #: the CDR-encoded element run, bytes-like: ``bytes``, an
        #: exact-size ``bytearray`` (rows of numbers) or a pooled lease
        #: (numbers)
        self.payload = payload

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


class ReplyHeader:
    __slots__ = ("req_id", "status", "scalar_results", "dseq_outs",
                 "exception", "service_contexts")

    def __init__(self, req_id: ReqId, status: str,
                 scalar_results: bytes = b"",
                 dseq_outs: Optional[dict[str, tuple]] = None,
                 exception: Optional[Any] = None,
                 service_contexts: Optional[dict[str, Any]] = None) -> None:
        self.req_id = req_id
        self.status = status
        #: CDR: return value then scalar outs
        self.scalar_results = scalar_results
        #: out param name -> (server-side layout, client-side layout)
        self.dseq_outs = {} if dseq_outs is None else dseq_outs
        #: (exception repo_id, CDR fields) for user exceptions,
        #: or a message string for system exceptions
        self.exception = exception
        #: GIOP-style ServiceContextList for the reply direction.
        self.service_contexts = ({} if service_contexts is None
                                 else service_contexts)

    def nbytes(self) -> int:
        extra = 0
        if isinstance(self.exception, tuple):
            extra = 32 + len(self.exception[1])
        elif isinstance(self.exception, str):
            extra = len(self.exception)
        return (64 + len(self.scalar_results) + 24 * len(self.dseq_outs)
                + 24 * _charged_contexts(self.service_contexts) + extra)
