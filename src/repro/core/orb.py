"""The PARDIS Object Request Broker.

"An entity responsible for managing requests between the client and the
server.  In order to properly process requests the ORB may need to
communicate with the run-time system underlying the parallel server or
client."  (paper §2.2)

One :class:`ORB` exists per :class:`~repro.runtime.program.World`.  Every
computing thread of every launched program gets a :class:`PardisContext`:
its window onto the ORB (endpoint, POA handle, pending-request table,
compute-time charging).  The ORB also owns the object/implementation
repositories and the per-host activation agents.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .._record import Record
from ..cdr import TC_DOUBLE, TypeCode
from ..runtime.program import PORT_ORB, ParallelProgram, World
from ..simkernel import SimKernel
from .distribution import Distribution
from .dsequence import DistributedSequence
from .errors import ActivationError, ObjectNotFound
from .pipeline.interceptors import InterceptorChain, RequestInterceptor
from .repository import (
    ActivationRecord,
    ImplementationRepository,
    ObjectRef,
    ObjectRepository,
)


#: Virtual cost of one repository lookup.
REPO_LOOKUP_COST = 200e-6
#: Activation: polling interval and give-up horizon (virtual seconds).
ACTIVATION_POLL_INTERVAL = 2e-3
ACTIVATION_TIMEOUT = 60.0
#: How long a bind keeps retrying the repository for an object that is
#: not yet registered and has no activation record (covers servers that
#: are still starting up at bind time).
RESOLVE_GRACE = 1.0


class OrbConfig(Record):
    """The ORB behaviour an experiment or benchmark chooses per world;
    every other cost and horizon is a module constant."""

    __slots__ = ("max_outstanding", "communication_threads",
                 "request_timeout")

    def __init__(self, max_outstanding: int = 1,
                 communication_threads: bool = False,
                 request_timeout: Optional[float] = None) -> None:
        #: Maximum unreplied requests per binding before a new invocation
        #: blocks.  The paper's transport admits one outstanding request
        #: per connection, which is what produces the Fig-5 pipeline
        #: congestion.
        self.max_outstanding = max_outstanding
        #: When True, data is handed to a communication thread and the
        #: compute thread does not pay serialization time (the paper's §6
        #: future-work experiment; exercised by the commthreads ablation).
        self.communication_threads = communication_threads
        #: Give up on a reply after this many virtual seconds (None = wait
        #: forever).  A timed-out request fails with a SystemException on
        #: all of its futures.
        self.request_timeout = request_timeout


class ActivationAgent:
    """Per-host agent that starts servers on demand (paper §2.2:
    "establishing connection with an object can involve starting up the
    server which provides its implementation")."""

    def __init__(self, orb: "ORB", host: str, activating: bool = True) -> None:
        self.orb = orb
        self.host = host
        self.activating = activating
        self._launched: dict[str, Any] = {}

    def activate(self, record: ActivationRecord, namespace: str) -> None:
        if not self.activating:
            raise ActivationError(
                f"agent on host {self.host!r} is in non-activating mode"
            )
        prior = self._launched.get(record.object_name)
        if prior is not None:
            from ..simkernel import ThreadState

            still_running = any(
                t.state not in (ThreadState.DONE, ThreadState.FAILED)
                for t in prior.threads
            )
            if still_running:
                return  # activation already in flight / server alive
            # Non-persistent server exited: activate it again (§2.2).
        self._launched[record.object_name] = self.orb.launch_program(
            record.server_main,
            host=record.host,
            nprocs=record.nprocs,
            daemon=True,
            name=record.program_name or f"server:{record.object_name}",
            namespace=namespace,
            rts_factory=record.rts_factory,
            node_offset=record.node_offset,
            args=record.args,
        )


class ORB:
    """Request broker + naming + activation for one simulated world."""

    def __init__(self, world: World, config: Optional[OrbConfig] = None) -> None:
        self.world = world
        self.config = config or OrbConfig()
        self.repositories: dict[str, ObjectRepository] = {}
        self.impl_repository = ImplementationRepository()
        self.agents: dict[str, ActivationAgent] = {}
        world.services["orb"] = self
        #: counters for tests/benchmarks
        self.requests_sent = 0
        self.local_bypasses = 0
        #: orphaned argument fragments drained by POA dead-lettering
        self.dead_fragments = 0
        #: orphaned result fragments drained by a failed client request
        self.dead_result_fragments = 0
        #: portable-interceptor chain shared by every program's request
        #: path in this world; empty until register_interceptor (zero
        #: hot-path cost)
        self.interceptors = InterceptorChain()
        #: request-lifecycle observer (set by repro.tools.attach):
        #: the one seam through which the request state machines, the
        #: POA and the fragment courier report spans, request lifecycles,
        #: CDR bytes and transfer schedules
        self.observer = None
        #: (namespace, name) -> repro.services.ReplicaGroup, created lazily
        #: on the first policy-driven bind against that name
        self._replica_groups: dict = {}
        #: live repro.services.AdmissionController instances (one per POA
        #: that enabled admission control) — registered here so metrics
        #: collectors can find them
        self.admission_controllers: list = []
        #: the world-wide LoadReportInterceptor, installed on first use
        self._load_reporter = None

    # -- replica groups ----------------------------------------------------------

    def replica_group(self, name: str, namespace: str = "default"):
        """Lazily create (and cache) the :class:`repro.services.ReplicaGroup`
        tracking the replicas of ``name``; installs the world's load-report
        interceptor the first time any group is created."""
        from ..services.replicas import LoadReportInterceptor, ReplicaGroup

        key = (namespace, name)
        group = self._replica_groups.get(key)
        if group is None:
            if self._load_reporter is None:
                self._load_reporter = self.register_interceptor(
                    LoadReportInterceptor(self)
                )
            group = self._replica_groups[key] = ReplicaGroup(self, name,
                                                             namespace)
        return group

    # -- portable interceptors ---------------------------------------------------

    def register_interceptor(self, icept: RequestInterceptor
                             ) -> RequestInterceptor:
        """Add a portable interceptor to the world's chain (points run in
        registration order); returns it for later unregistration."""
        return self.interceptors.add(icept)

    def unregister_interceptor(self, icept: RequestInterceptor) -> None:
        self.interceptors.remove(icept)

    # -- naming ------------------------------------------------------------------

    def repository(self, namespace: str = "default") -> ObjectRepository:
        repo = self.repositories.get(namespace)
        if repo is None:
            repo = self.repositories[namespace] = ObjectRepository(namespace)
        return repo

    def agent(self, host: str, activating: bool = True) -> ActivationAgent:
        ag = self.agents.get(host)
        if ag is None:
            ag = self.agents[host] = ActivationAgent(self, host, activating)
        return ag

    def set_activating(self, host: str, activating: bool) -> None:
        """Configure a host's agent mode (activating / non-activating)."""
        self.agent(host).activating = activating

    def resolve(self, name: str, ctx: "PardisContext") -> ObjectRef:
        """Find (or activate) the object ``name`` in the context's
        namespace; charges the lookup cost to the calling thread."""
        ctx.rts.compute(REPO_LOOKUP_COST)
        repo = self.repository(ctx.namespace)
        if repo.contains(name):
            return repo.lookup(name)
        record = self.impl_repository.lookup(name)
        if record is None:
            # No activation record: give a still-starting server a grace
            # window to register before giving up.
            deadline = ctx.now() + RESOLVE_GRACE
            while ctx.now() < deadline:
                ctx.rts.compute(ACTIVATION_POLL_INTERVAL)
                if repo.contains(name):
                    return repo.lookup(name)
            raise ObjectNotFound(
                f"object {name!r} is neither registered nor activatable"
            )
        agent = self.agents.get(record.host)
        if agent is None:
            raise ActivationError(
                f"no activation agent on host {record.host!r} for {name!r}"
            )
        agent.activate(record, ctx.namespace)
        deadline = ctx.now() + ACTIVATION_TIMEOUT
        while not repo.contains(name):
            if ctx.now() > deadline:
                raise ActivationError(
                    f"activation of {name!r} timed out after "
                    f"{ACTIVATION_TIMEOUT}s"
                )
            ctx.rts.compute(ACTIVATION_POLL_INTERVAL)
        return repo.lookup(name)

    # -- program launching -----------------------------------------------------------

    def launch_program(self, main: Callable, *, host: str, nprocs: int,
                       daemon: bool = False, name: Optional[str] = None,
                       namespace: str = "default",
                       rts_factory: Optional[Callable] = None,
                       node_offset: int = 0, args: tuple = (),
                       start_time: float = 0.0) -> ParallelProgram:
        """Launch a parallel program whose threads receive a
        :class:`PardisContext` (``main(ctx, *args)``)."""

        def _wrapped(rts, *a):
            ctx = PardisContext(self, rts, namespace)
            SimKernel.current().locals["pardis"] = ctx
            return main(ctx, *a)

        return self.world.launch(
            _wrapped, host=host, nprocs=nprocs, daemon=daemon, name=name,
            rts_factory=rts_factory, node_offset=node_offset, args=args,
            start_time=start_time,
        )

    # -- programs' shared ORB state ---------------------------------------------------

    @staticmethod
    def program_services(program: ParallelProgram) -> dict:
        svc = program.onesided_store.setdefault(("_pardis", "services"), {})
        return svc


class PardisContext:
    """Per-computing-thread view of PARDIS (passed to every ``main``)."""

    def __init__(self, orb: ORB, rts, namespace: str = "default") -> None:
        from .poa import POA  # late import: poa imports this module

        self.orb = orb
        self.rts = rts
        self.namespace = namespace
        self.program = rts.program
        self.rank = rts.rank
        self.nprocs = rts.nprocs
        self.endpoint = orb.world.transport.endpoint(
            self.program.address(self.rank, PORT_ORB)
        )
        #: req_id -> ClientRequestState (client role)
        self.pending: dict = {}
        self._binding_counter = 0
        self._bindings: dict = {}
        self.poa = POA(self)

    # -- identity / time -----------------------------------------------------------

    def now(self) -> float:
        return self.rts.now()

    def compute(self, seconds: float) -> None:
        self.rts.compute(seconds)

    def charge_flops(self, flops: float) -> None:
        self.rts.charge_flops(flops)

    def barrier(self) -> None:
        self.rts.barrier()

    # -- data ------------------------------------------------------------------------

    def dseq(self, n_or_data, element: TypeCode = TC_DOUBLE,
             kind: str = "BLOCK", dist: Optional[Distribution] = None
             ) -> DistributedSequence:
        """Construct a distributed sequence bound to this thread.

        ``n_or_data`` is either a global length (zero-initialized) or
        global data (each thread keeps its local part).
        """
        if isinstance(n_or_data, int):
            if dist is None:
                dist = Distribution.of_kind(kind, n_or_data, self.nprocs)
            return DistributedSequence(element, dist, self.rank)
        data = n_or_data
        if dist is None:
            dist = Distribution.of_kind(kind, len(data), self.nprocs)
        return DistributedSequence.from_global(data, dist, self.rank,
                                               element)

    def __repr__(self) -> str:
        return (f"<PardisContext {self.program.name}[{self.rank}] "
                f"ns={self.namespace!r}>")
