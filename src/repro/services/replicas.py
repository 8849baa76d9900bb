"""Replica groups: health-checked, load-balanced replica selection.

Several servers may activate servants under one object name
(``poa.activate(..., replica=True)``); the Object Repository then holds
them as an ordered replica list.  A :class:`ReplicaGroup` sits on top of
one such name and owns everything the repository deliberately does not:

* **selection** — a :class:`SelectionPolicy` picks one replica per bind
  (:class:`RoundRobin`, :class:`LeastLoaded` driven by the load reports
  servers piggyback on reply service contexts, :class:`LocalityAware`);
* **health** — replicas are ALIVE, SUSPECT (a request failed but the
  server still has running threads) or DEAD (every thread exited or
  failed); probing happens on every selection and via
  :meth:`ReplicaGroup.probe_all`;
* **failover** — :func:`failover_invoke` retries a failed blocking
  invocation against a surviving replica (collective clients re-select
  on rank 0 and broadcast, so all threads rebind identically), and a
  dead non-persistent replica is re-activated through the existing
  :class:`~repro.core.orb.ActivationAgent`.

Failover applies only to *blocking* invocations that fail with a
``SystemException``: user exceptions and
:class:`~repro.core.errors.TransientException` (admission shed) mean the
server is alive and answered deliberately, and non-blocking invocations
have already handed their futures out by the time a failure is known.
"""

from __future__ import annotations

from ..core.errors import (
    ActivationError,
    SystemException,
    TransientException,
    UserException,
)
from ..core.invocation import invoke
from ..core.orb import REPO_LOOKUP_COST
from ..core.pipeline.interceptors import ClientRequestInfo, RequestInterceptor
from ..core.repository import ObjectRef
from ..core.request import LOAD_CONTEXT
from ..runtime import collectives as coll
from ..simkernel import ThreadState

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "LeastLoaded",
    "LoadReportInterceptor",
    "LocalityAware",
    "ReplicaGroup",
    "RoundRobin",
    "SelectionPolicy",
    "failover_invoke",
    "make_policy",
]

#: replica health states
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


# ---------------------------------------------------------------------------
# Selection policies
# ---------------------------------------------------------------------------


class SelectionPolicy:
    """Picks one replica from the live candidate set.  Stateless with
    respect to the group: rotation counters live on the group so that
    every binding against a name shares one rotation."""

    name = "policy"

    def choose(self, group: "ReplicaGroup", ctx,
               candidates: list[ObjectRef]) -> ObjectRef:
        raise NotImplementedError


class RoundRobin(SelectionPolicy):
    """Rotate through the replicas in registration order."""

    name = "round_robin"

    def choose(self, group, ctx, candidates):
        ref = candidates[group._rotation % len(candidates)]
        group._rotation += 1
        return ref


class LeastLoaded(SelectionPolicy):
    """Prefer the replica with the lowest reported load (queue depth over
    capacity, piggybacked on replies by admission-controlled servers);
    unreported replicas count as idle, ties rotate round-robin."""

    name = "least_loaded"

    def choose(self, group, ctx, candidates):
        loads = group.known_loads()
        best = min(loads.get(r.program_id, 0.0) for r in candidates)
        tied = [r for r in candidates
                if loads.get(r.program_id, 0.0) <= best]
        ref = tied[group._rotation % len(tied)]
        group._rotation += 1
        return ref


class LocalityAware(SelectionPolicy):
    """Prefer replicas on the calling program's own host (cheapest
    network path), rotating among them; fall back to the full set."""

    name = "locality"

    def choose(self, group, ctx, candidates):
        local = [r for r in candidates if r.host == ctx.program.host]
        pool = local or candidates
        ref = pool[group._rotation % len(pool)]
        group._rotation += 1
        return ref


_POLICIES = {p.name: p for p in (RoundRobin, LeastLoaded, LocalityAware)}


def make_policy(spec) -> SelectionPolicy:
    """Coerce a policy name or instance into a :class:`SelectionPolicy`."""
    if isinstance(spec, SelectionPolicy):
        return spec
    try:
        return _POLICIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown selection policy {spec!r}; "
            f"known: {sorted(_POLICIES)}"
        ) from None


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------


class ReplicaGroup:
    """Health and selection state for the replicas of one object name.

    Created lazily by :meth:`repro.core.orb.ORB.replica_group`; one
    instance per (namespace, name) per world, shared by every client
    binding that uses a selection policy.
    """

    #: give up failover after this many rebind attempts per invocation
    max_failover_attempts = 4

    def __init__(self, orb, name: str, namespace: str = "default") -> None:
        self.orb = orb
        self.name = name
        self.namespace = namespace
        #: program_id -> ALIVE | SUSPECT | DEAD
        self.health: dict[int, str] = {}
        self._rotation = 0
        #: counters (surfaced through the metrics registry)
        self.failovers = 0
        self.suspects = 0
        self.deaths = 0
        self.reactivations = 0
        self.selections = 0

    # -- load reports -------------------------------------------------------

    def known_loads(self) -> dict[int, float]:
        """program_id -> most recent reported load fraction (empty until
        admission-controlled replicas have replied at least once)."""
        reporter = self.orb._load_reporter
        return reporter.loads if reporter is not None else {}

    # -- health -------------------------------------------------------------

    def probe(self, ref: ObjectRef) -> bool:
        """Liveness check: the replica's program must still have at least
        one thread that has neither finished nor crashed."""
        for prog in self.orb.world.programs:
            if prog.program_id == ref.program_id:
                return any(
                    t.state not in (ThreadState.DONE, ThreadState.FAILED)
                    for t in prog.threads
                )
        return False

    def probe_all(self, ctx) -> dict[int, str]:
        """Sweep every registered replica, marking dead ones; returns the
        health map.  Charges one lookup cost."""
        ctx.rts.compute(REPO_LOOKUP_COST)
        repo = self.orb.repository(self.namespace)
        for ref in repo.lookup_all(self.name):
            if not self.probe(ref):
                self.mark_dead(ref, ctx)
            elif self.health.get(ref.program_id) == DEAD:
                self.health[ref.program_id] = ALIVE
        return dict(self.health)

    def mark_suspect(self, ref: ObjectRef) -> None:
        if self.health.get(ref.program_id) != SUSPECT:
            self.health[ref.program_id] = SUSPECT
            self.suspects += 1

    def mark_dead(self, ref: ObjectRef, ctx) -> None:
        """Unregister a dead replica and, when it is a non-persistent
        server with an activation record, re-activate it (best effort —
        a non-activating agent leaves the group one replica smaller)."""
        if self.health.get(ref.program_id) == DEAD:
            return
        self.health[ref.program_id] = DEAD
        self.deaths += 1
        repo = self.orb.repository(self.namespace)
        repo.unregister(self.name, program_id=ref.program_id)
        record = self.orb.impl_repository.lookup(self.name)
        agent = self.orb.agents.get(record.host) if record else None
        if agent is not None:
            try:
                agent.activate(record, self.namespace)
                self.reactivations += 1
            except ActivationError:
                pass

    def report_failure(self, ref: ObjectRef, ctx) -> None:
        """An invocation against ``ref`` failed with a system exception:
        probe it, and mark it dead or suspect accordingly."""
        if self.probe(ref):
            self.mark_suspect(ref)
        else:
            self.mark_dead(ref, ctx)

    def report_success(self, ref: ObjectRef) -> None:
        if self.health.get(ref.program_id) in (SUSPECT, DEAD):
            self.health[ref.program_id] = ALIVE

    # -- selection ----------------------------------------------------------

    def select(self, ctx, policy: SelectionPolicy) -> ObjectRef:
        """Pick a live replica of the group's name.

        Probes every candidate first (dead ones are unregistered and
        re-activation is attempted); with no survivors this falls back to
        :meth:`ORB.resolve`, which waits out the resolve grace window /
        activation of a restarting server.  ALIVE replicas are preferred
        over SUSPECT ones.
        """
        self.selections += 1
        ctx.rts.compute(REPO_LOOKUP_COST)
        repo = self.orb.repository(self.namespace)
        alive = []
        for ref in repo.lookup_all(self.name):
            if self.probe(ref):
                alive.append(ref)
            else:
                self.mark_dead(ref, ctx)
        if not alive:
            ref = self.orb.resolve(self.name, ctx)
            self.health[ref.program_id] = ALIVE
            return ref
        preferred = [r for r in alive
                     if self.health.get(r.program_id) != SUSPECT]
        return policy.choose(self, ctx, preferred or alive)


# ---------------------------------------------------------------------------
# Failover retry (blocking invocations on policy-bound proxies)
# ---------------------------------------------------------------------------


def failover_invoke(binding, op, in_values, distributions):
    """Issue a blocking invocation with transparent failover.

    Retries a ``SystemException`` failure against a surviving replica
    (rebinding the proxy in place) up to
    :attr:`ReplicaGroup.max_failover_attempts` times.  User exceptions
    and :class:`TransientException` (the server answered deliberately)
    propagate immediately.
    """
    group = binding.group
    ctx = binding.ctx
    for attempt in range(group.max_failover_attempts):
        try:
            result = invoke(binding, op, in_values, distributions,
                            blocking=True)
        except (UserException, TransientException):
            raise
        except SystemException:
            if attempt + 1 >= group.max_failover_attempts:
                raise
            group.report_failure(binding.ref, ctx)
            if binding.collective:
                new_ref = (group.select(ctx, binding.policy)
                           if ctx.rank == 0 else None)
                new_ref = coll.bcast(ctx.rts, new_ref, root=0)
            else:
                new_ref = group.select(ctx, binding.policy)
            if binding.client_index == 0:
                group.failovers += 1
            obs = ctx.orb.observer
            if obs is not None:
                now = ctx.now()
                obs.span("failover", op.name,
                         (binding.uid, "failover", attempt),
                         ctx.program.name, binding.client_index, now, now)
            # Re-selecting the replica that just failed is allowed (sole
            # survivor, or SUSPECT but alive): the retry may still land.
            binding.rebind(new_ref)
        else:
            group.report_success(binding.ref)
            return result
    raise SystemException(  # pragma: no cover - loop always returns/raises
        f"{op.name}: failover attempts exhausted")


# ---------------------------------------------------------------------------
# Load reports (the client half of least-loaded selection)
# ---------------------------------------------------------------------------


class LoadReportInterceptor(RequestInterceptor):
    """Harvests the load samples admission-controlled servers piggyback
    on reply service contexts (successful *and* error replies), keyed by
    server program id.  Installed once per world, lazily, by
    :meth:`ORB.replica_group`."""

    name = "load-report"

    def __init__(self, orb) -> None:
        self.orb = orb
        #: server program_id -> last reported queue_depth / capacity
        self.loads: dict[int, float] = {}

    def receive_reply(self, info: ClientRequestInfo) -> None:
        self._record(info)

    def receive_exception(self, info: ClientRequestInfo) -> None:
        self._record(info)

    def _record(self, info: ClientRequestInfo) -> None:
        reply = info.reply
        if reply is None:
            return
        report = reply.service_contexts.get(LOAD_CONTEXT)
        if report is None:
            return
        capacity = max(report.get("capacity", 1), 1)
        self.loads[report["program_id"]] = (
            report.get("queue_depth", 0) / capacity
        )
