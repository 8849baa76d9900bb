"""Client-side invocation engine: bindings and request emission.

This module implements what the compiler-generated stubs delegate to:

* :class:`Binding` — the client's connection to an object, created by
  ``_bind`` (one per thread) or ``_spmd_bind`` (collective, representing
  the parallel client to the ORB as one entity, paper §3.1);
* :func:`invoke` — blocking and non-blocking request emission, flow
  control (bounded outstanding requests per binding) and the
  local-bypass optimization (§4.1).

The per-request protocol work — marshaling, direct parallel fragment
transfer, reply/fragment collection, future resolution, interceptor
dispatch — lives in
:class:`repro.core.pipeline.state.ClientRequestState`.
"""

from __future__ import annotations

from typing import Optional

from ..runtime import collectives as coll
from ..runtime.program import PORT_ORB
from .errors import BindingError, CollectiveMismatch
from .futures import Future
from .interfacedef import OpDef
from .pipeline.interceptors import ClientRequestInfo
from .pipeline.state import ClientRequestState
from .repository import ObjectRef

__all__ = ["Binding", "invoke"]


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
        ctx.compute(ctx.orb.config.bind_cost)

    def rebind(self, ref: ObjectRef) -> None:
        """Point this binding at another replica (failover); outstanding
        requests keep draining against the old replica."""
        self.ref = ref
        self.local = ref.program_id == self.ctx.program.program_id
        self.ctx.compute(self.ctx.orb.config.bind_cost)

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
    cfg = ctx.orb.config
    if len(in_values) != len(op.in_params):
        raise BindingError(
            f"{op.name} takes {len(op.in_params)} in-arguments, "
            f"got {len(in_values)}"
        )
    if binding.collective and ctx.nprocs > 1 and cfg.collective_checks:
        sig = (binding.uid, op.name, binding._req_seq)
        sigs = coll.allgather(ctx.rts, sig)
        if any(s != sig for s in sigs):
            raise CollectiveMismatch(
                f"SPMD threads disagree on invocation: {sorted(set(map(str, sigs)))}"
            )

    if binding.local:
        return _invoke_local(binding, op, in_values, placeholders, blocking)

    # Flow control: cap unreplied requests per binding (the per-bind
    # override wins over the ORB-wide default).
    limit = (binding.max_outstanding if binding.max_outstanding is not None
             else cfg.max_outstanding)
    while len(binding.outstanding) >= limit:
        binding.outstanding[0].progress(block=True)

    state = ClientRequestState(binding, op, in_values, distributions,
                               placeholders)
    return state.start(blocking)


def _invoke_local(binding: Binding, op: OpDef, in_values: tuple,
                  placeholders: tuple, blocking: bool):
    """Local bypass (§4.1): a direct call on the co-located servant.

    A raising servant behaves like the remote path: blocking calls
    re-raise, non-blocking calls return a *failed* future (and fail the
    placeholders), and the request reaches a "failed" terminal status in
    the world's observer.
    """
    ctx = binding.ctx
    ctx.compute(ctx.orb.config.local_call_overhead)
    record = ctx.poa._lookup_record(binding.ref.name)
    rank = ctx.rank if binding.ref.kind == "spmd" else binding.ref.owner_rank
    servant = record.servants[rank]
    ctx.orb.local_bypasses += 1
    req_id = binding.next_req_id()
    chain = ctx.orb.interceptors
    obs = ctx.orb.observer
    t0 = ctx.now() if obs is not None else 0.0
    if obs is not None:
        obs.request_started(req_id, op.name, ctx.program.name,
                            binding.client_index, t0)
    # The client interception points still frame the direct call
    # (``info.local`` marks that nothing travels on the wire), so
    # context-scoped interceptors see a balanced send/receive pair.
    info = ClientRequestInfo(
        ctx=ctx, op=op, req_id=req_id, object_name=binding.ref.name,
        rank=binding.client_index, oneway=op.oneway, deadline=None,
        local=True,
    ) if chain.active else None

    def _failed(exc: BaseException):
        if info is not None:
            info.exception = exc
            try:
                chain.receive_exception(info)
            except Exception as replaced:
                exc = replaced
                info.exception = exc
        if obs is not None:
            now = ctx.now()
            obs.span("local", op.name, req_id, ctx.program.name,
                     binding.client_index, t0, now)
            obs.request_finished(req_id, ctx.program.name,
                                 binding.client_index, now, "failed")
        if blocking:
            raise exc
        fut = Future(label=f"{op.name}(local)")
        fut._fail(exc)
        for ph in placeholders:
            ph._fail(exc)
        return fut

    if info is not None:
        try:
            chain.send_request(info)
        except Exception as exc:
            return _failed(exc)
    try:
        result = getattr(servant, op.name)(*in_values)
    except Exception as exc:
        return _failed(exc)
    if info is not None:
        info.result = result
        try:
            chain.receive_reply(info)
        except Exception as exc:
            return _failed(exc)
    if obs is not None:
        now = ctx.now()
        obs.span("local", op.name, req_id, ctx.program.name,
                 binding.client_index, t0, now)
        obs.request_finished(req_id, ctx.program.name,
                             binding.client_index, now, "ok")
    if blocking:
        return result
    fut = Future(label=f"{op.name}(local)")
    fut._resolve(result)
    out_values = (result if isinstance(result, tuple)
                  else (result,) if result is not None else ())
    skip = 1 if op.ret_tc is not None else 0
    for ph, val in zip(placeholders, out_values[skip:]):
        ph._resolve(val)
    return fut
