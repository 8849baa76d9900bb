"""Client-side invocation engine: bindings and request emission.

This module implements what the compiler-generated stubs delegate to:

* :class:`Binding` — the client's connection to an object, created by
  ``_bind`` (one per thread) or ``_spmd_bind`` (collective, representing
  the parallel client to the ORB as one entity, paper §3.1);
* :func:`invoke` — blocking and non-blocking request emission, after
  the SPMD collective check.

Everything else about one request lives in
:class:`repro.core.pipeline.state.ClientRequestState`: flow control
(bounded outstanding requests per binding), marshaling, direct parallel
fragment transfer, reply/fragment collection, future resolution,
interceptor dispatch, and the local bypass (§4.1) as a mode of that
same request.
"""

from __future__ import annotations

from typing import Optional

from ..runtime import collectives as coll
from ..runtime.program import PORT_ORB
from .errors import BindingError, CollectiveMismatch
from .interfacedef import OpDef
from .pipeline.state import ClientRequestState
from .repository import ObjectRef

__all__ = ["Binding", "invoke"]

#: Virtual cost of establishing (or, on failover, re-pointing) one binding.
BIND_COST = 500e-6


class Binding:
    """A client thread's (or SPMD client's) connection to an object."""

    def __init__(self, ctx, ref: ObjectRef, collective: bool,
                 max_outstanding: Optional[int] = None,
                 group=None, policy=None) -> None:
        self.ctx = ctx
        self.ref = ref
        self.collective = collective
        scope = "c" if collective else f"r{ctx.rank}"
        self.uid = (ctx.program.program_id, scope, ctx._binding_counter)
        ctx._binding_counter += 1
        self._req_seq = 0
        self.outstanding: list[ClientRequestState] = []
        self.local = ref.program_id == ctx.program.program_id
        #: per-bind flow-control override (None = ORB-wide config value)
        self.max_outstanding = max_outstanding
        #: repro.services.ReplicaGroup when this binding was established
        #: through a selection policy — enables failover rebinds
        self.group = group
        self.policy = policy
        prog = ctx.program
        #: where replies go: every client thread's ORB port for a
        #: collective binding, this thread's endpoint otherwise
        self._reply_to = (
            tuple(prog.address(r, PORT_ORB) for r in range(prog.nprocs))
            if collective else (ctx.endpoint.address,))
        ctx.compute(BIND_COST)

    def rebind(self, ref: ObjectRef) -> None:
        """Point this binding at another replica (failover); outstanding
        requests keep draining against the old replica."""
        self.ref = ref
        self.local = ref.program_id == self.ctx.program.program_id
        self.ctx.compute(BIND_COST)

    @property
    def client_nthreads(self) -> int:
        return self.ctx.nprocs if self.collective else 1

    @property
    def client_index(self) -> int:
        """This thread's index within the invocation (0 for single)."""
        return self.ctx.rank if self.collective else 0

    def next_req_id(self):
        self._req_seq += 1
        return (self.uid, self._req_seq)

    def reply_endpoints(self) -> tuple:
        return self._reply_to

    def __repr__(self) -> str:
        mode = "spmd" if self.collective else "single"
        return f"<Binding {self.ref.name!r} {mode} local={self.local}>"


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------


def invoke(binding: Binding, op: OpDef, in_values: tuple,
           distributions: Optional[dict], placeholders: tuple = (),
           blocking: bool = True):
    """Issue one request on ``binding``.

    Returns the result (blocking), the result future (non-blocking), or
    ``None`` for oneway operations.
    """
    ctx = binding.ctx
    if len(in_values) != len(op.in_params):
        raise BindingError(
            f"{op.name} takes {len(op.in_params)} in-arguments, "
            f"got {len(in_values)}"
        )
    if binding.collective and ctx.nprocs > 1:
        # Every SPMD client thread must issue the same invocation (the
        # "request accepted by all computing threads" discipline).
        sig = (binding.uid, op.name, binding._req_seq)
        sigs = coll.allgather(ctx.rts, sig)
        if any(s != sig for s in sigs):
            raise CollectiveMismatch(
                f"SPMD threads disagree on invocation: {sorted(set(map(str, sigs)))}"
            )

    return ClientRequestState(binding, op, in_values, distributions,
                              placeholders).start(blocking)
