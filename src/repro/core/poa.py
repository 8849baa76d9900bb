"""Portable Object Adapter: servant registration and request dispatch.

Server programs create servants and activate them through the POA:

* SPMD objects are activated **collectively** — every computing thread
  contributes its local servant instance; requests are delivered to all
  threads (rank 0 forwards the header through the server's communication
  domain) and distributed arguments arrive as direct thread-to-thread
  fragments (paper §2.1/§3.1);
* single objects are activated by their one owning thread and serviced by
  it alone; distributing several single objects over the threads of a
  parallel server enables parallel interaction (the §4.2 scenario).

``impl_is_ready()`` enters the request loop and never returns;
``process_requests()`` drains currently-queued requests and returns so a
server can interleave servicing with its own computation (§3.3).

Per-request protocol work — argument collection, servant dispatch,
reply/result emission, interceptor points, and the admission shed's
refusal — lives in :class:`repro.core.pipeline.state.ServerRequestState`.
The POA keeps the loops and the servant registry.  Each loop iteration
first drains the traffic of dead requests queued on this thread
(:func:`repro.core.pipeline.courier.drain_dead_letters`): a request
rejected before or during argument collection leaves orphaned argument
fragments in flight, and they must never be mis-matched by a later
request.
"""

from __future__ import annotations

from typing import Any, Optional

from ..runtime.program import PORT_ORB
from ..runtime.tags import TAG_REQUEST_HEADER
from .errors import BindingError, ObjectNotFound
from .interfacedef import InterfaceDef, OpDef
from .pipeline.courier import drain_dead_letters
from .pipeline.state import ServerRequestState
from .repository import ObjectRef
from .request import RequestHeader


class ServantRecord:
    __slots__ = ("name", "iface", "kind", "owner_rank", "servants",
                 "in_dists")

    def __init__(self, name: str, iface: InterfaceDef, kind: str,
                 owner_rank: int, servants: Optional[dict[int, Any]] = None,
                 in_dists: Optional[dict] = None) -> None:
        self.name = name
        self.iface = iface
        self.kind = kind                # "spmd" | "single"
        self.owner_rank = owner_rank
        self.servants = {} if servants is None else servants
        self.in_dists = {} if in_dists is None else in_dists


class POA:
    """Per-thread handle on the program's object adapter."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        svc = ctx.orb.program_services(ctx.program)
        self._registry: dict[str, ServantRecord] = svc.setdefault("servants", {})
        #: repro.services.AdmissionController, or None (dispatch whatever
        #: arrives — the historic behaviour, zero extra cost)
        self.admission = None

    def set_admission(self, controller) -> None:
        """Enable server-side admission control on this thread's request
        loop.  Call on every thread of an SPMD server; only the thread
        that receives requests directly from clients (rank 0 for SPMD,
        the owner for single objects) ever sheds — forwarded headers are
        always admitted so the peers replay rank 0's dispatch order."""
        self.admission = controller
        if controller is not None:
            controller.attach(self.ctx)
            self.ctx.orb.admission_controllers.append(controller)

    # -- activation ------------------------------------------------------------

    def activate(self, servant, name: str, kind: str = "spmd",
                 in_dists: Optional[dict] = None,
                 replica: bool = False) -> ObjectRef:
        """Register a servant under ``name``.

        SPMD activation is collective over all computing threads of the
        server ("the instantiation of an SPMD object is collective",
        §3.1).  ``in_dists`` maps ``(op, param)`` to a layout spec (see
        :func:`~repro.core.distribution.resolve_dist_spec`), overriding
        the IDL default for "in" arguments prior to registration (§3.2).
        ``replica=True`` joins an existing name's replica group instead
        of requiring the name to be free.
        """
        iface: InterfaceDef = servant._interface
        ctx = self.ctx
        # Publish the interface definition for dynamic (stubless) clients.
        from .dii import _interface_repository

        _interface_repository(ctx.orb).register(iface)
        if kind == "single":
            if iface.has_distributed_ops:
                raise BindingError(
                    f"{name!r}: only objects which do not operate on "
                    "distributed arguments can be created as single objects"
                )
            record = ServantRecord(name, iface, "single", ctx.rank,
                                   {ctx.rank: servant}, dict(in_dists or {}))
            self._registry[name] = record
            ref = self._make_ref(record)
            ctx.orb.repository(ctx.namespace).register(ref, replica=replica)
            return ref
        if kind != "spmd":
            raise ValueError(f"unknown object kind {kind!r}")
        record = self._registry.setdefault(
            name, ServantRecord(name, iface, "spmd", 0, {},
                                dict(in_dists or {}))
        )
        record.servants[ctx.rank] = servant
        ctx.barrier()
        if ctx.rank == 0:
            ref = self._make_ref(record)
            ctx.orb.repository(ctx.namespace).register(ref, replica=replica)
        ctx.barrier()
        repo = ctx.orb.repository(ctx.namespace)
        pid = ctx.program.program_id
        return next(r for r in repo.lookup_all(name) if r.program_id == pid)

    def deactivate(self, name: str) -> None:
        self._registry.pop(name, None)
        self.ctx.orb.repository(self.ctx.namespace).unregister(
            name, program_id=self.ctx.program.program_id)

    def _make_ref(self, record: ServantRecord) -> ObjectRef:
        prog = self.ctx.program
        return ObjectRef(
            name=record.name,
            repo_id=record.iface.repo_id,
            kind=record.kind,
            program_id=prog.program_id,
            host=prog.host,
            nthreads=prog.nprocs,
            owner_rank=record.owner_rank,
            endpoints=tuple(
                prog.address(r, PORT_ORB) for r in range(prog.nprocs)
            ),
            in_dists=dict(record.in_dists),
        )

    def _lookup_record(self, name: str) -> ServantRecord:
        try:
            return self._registry[name]
        except KeyError:
            raise ObjectNotFound(
                f"program {self.ctx.program.name!r} has no servant {name!r}"
            ) from None

    # -- request loops ----------------------------------------------------------

    def impl_is_ready(self) -> None:
        """Enter the request-polling loop; does not return (the server
        remains in the loop until it is deactivated/killed).  Collective
        with respect to all processing threads of the server."""
        while True:
            self._process_one(block=True)

    def process_requests(self, limit: Optional[int] = None) -> int:
        """Service the requests that have arrived so far, then return so
        the server can resume its interrupted computation (§3.3).
        Collective over the server's threads.  Under sustained offered
        load new requests keep arriving while earlier ones are served, so
        a server that must get back to its own work (or retire) can cap
        one visit at ``limit`` dispatches."""
        n = 0
        while ((limit is None or n < limit)
               and self._process_one(block=False)):
            n += 1
        return n

    def _process_one(self, block: bool) -> bool:
        ctx = self.ctx
        ep = ctx.endpoint
        if ctx.dead_letters:
            drain_dead_letters(ctx)

        def match(env):
            return env.payload.tag == TAG_REQUEST_HEADER

        if self.admission is None:
            env = (ep.channel.receive(match, reason="impl_is_ready")
                   if block else ep.channel.poll(match))
            if env is None:
                return False
            self._handle(env.payload.body)
            return True

        # Admission path: sweep the headers that arrived while the last
        # request was being served into the bounded queue (shedding the
        # overflow), then dispatch one according to the scheduling policy.
        # The sweep is bounded: each shed costs virtual time (the refusal
        # reply goes over the transport), during which closed-loop clients
        # retry — an unbounded drain would keep finding fresh arrivals and
        # starve the queue (receive livelock).
        budget = self.admission.sweep_budget
        while budget > 0:
            env = ep.channel.poll(match)
            if env is None:
                break
            self._admit(env.payload.body)
            budget -= 1
        hdr = self.admission.pop(ctx.now())
        if hdr is None:
            if not block:
                return False
            env = ep.channel.receive(match, reason="impl_is_ready")
            self._admit(env.payload.body)
            hdr = self.admission.pop(ctx.now())
            if hdr is None:
                return True  # the fresh arrival was shed; keep looping
        self._handle(hdr)
        return True

    def _admit(self, hdr: RequestHeader) -> None:
        if not self.admission.offer(hdr, self.ctx.now()):
            ServerRequestState(self, hdr).shed()

    def _handle(self, hdr: RequestHeader) -> None:
        ServerRequestState(self, hdr).run()

    def _resolve_op(self, iface: InterfaceDef, hdr: RequestHeader,
                    servant) -> Optional[OpDef]:
        op = iface.ops.get(hdr.op)
        if op is not None:
            return op
        # Attribute accessors are synthesized operations.
        if hdr.op.startswith("_get_"):
            attr = iface.attr(hdr.op[5:])
            if attr is not None:
                return attr.getter
        if hdr.op.startswith("_set_"):
            attr = iface.attr(hdr.op[5:])
            if attr is not None and not attr.readonly:
                return attr.setter
        return None
