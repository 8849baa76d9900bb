"""Request-lifecycle observability for PARDIS deployments.

The paper's evaluation (Figs. 2-5) was produced by hand-instrumenting
stubs and skeletons; this module builds that measurement into the ORB.
A :class:`RequestObserver` attached to a world records a :class:`Span`
for every phase of every invocation:

========== ======= ====================================================
phase      side    covers
========== ======= ====================================================
marshal    client  scalar in-argument CDR encoding + header construction
send       client  request header + argument-fragment injection
wait       client  blocking on the reply header / result fragments
unmarshal  client  reply decode and result-fragment insertion
local      client  a bypassed (same-program) invocation (§4.1)
dispatch   server  servant lookup, SPMD forwarding, operation resolution
recv_args  server  argument-fragment collection and decode
compute    server  the servant method itself
reply      server  reply header + result-fragment injection
========== ======= ====================================================

The observer also owns a :class:`~repro.tools.trace.PacketTrace` (every
packet the transport moves), CDR byte counters and transfer-schedule
counters fed by this world's ORB (request state machines and fragment
courier).  One observer therefore answers "where did this request spend
its time".

Instrumentation is **off by default**: the ORB reaches the observer
through one seam, ``orb.observer``, and every emit site costs one
attribute load plus a ``None`` test until
:func:`repro.tools.attach` sets it.  The observer is not an
interceptor; the interceptor chain stays empty unless something else
registers on it.  :func:`~repro.tools.attach` also binds the metrics
registry of one world to its observer.

When a :class:`~repro.tools.tracing.TracingInterceptor` rides the
world's chain (``attach(world, tracing=True)``), it stores each
request's trace context, ``(trace_id, span_id, parent_id)``, on the
request's interceptor info.  The request's state machine passes that
tuple with every span, so each span carries the ids that went on the
wire: the request id written out, with a ``c:``/``s:`` side prefix on
span ids (see :mod:`repro.tools.tracing`).  With those ids,
:meth:`RequestObserver.chrome_trace` emits cross-world *flow* arrows
between causally linked spans, and
:meth:`RequestObserver.trace_tree` renders each trace as an indented
causal tree with per-hop latency attribution — the stitched view of a
Fig-5 pipeline the paper reconstructed by hand.  Span and packet stores
are bounded ring buffers (drops are counted and surfaced in
:meth:`RequestObserver.report`), and a
:class:`~repro.tools.registry.MetricsRegistry` bound via
``bind_metrics`` receives per-phase and end-to-end latency histograms.

Exports: Chrome-trace JSON (load ``chrome://tracing`` or
https://ui.perfetto.dev) via :meth:`RequestObserver.chrome_trace`, and a
text report of per-operation latency percentiles and byte counts via
:meth:`RequestObserver.report`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .trace import DEFAULT_CAPACITY, PacketTrace, RingBuffer

__all__ = [
    "Span",
    "RequestObserver",
    "TraceSession",
    "validate_chrome_trace",
    "CLIENT_PHASES",
    "SERVER_PHASES",
    "PHASES",
]

CLIENT_PHASES = ("marshal", "send", "wait", "unmarshal", "local")
SERVER_PHASES = ("dispatch", "recv_args", "compute", "reply")
PHASES = CLIENT_PHASES + SERVER_PHASES

#: phase -> side, used as the Chrome-trace event category
PHASE_SIDE = {p: "client" for p in CLIENT_PHASES}
PHASE_SIDE.update({p: "server" for p in SERVER_PHASES})

#: the trace fields of a span no tracer annotated
_UNTRACED = ("", "", "")


@dataclass(frozen=True)
class Span:
    """One recorded phase of one request on one computing thread.

    Times are virtual seconds; ``req`` is the stringified request id
    (bypassed invocations draw theirs from the same per-binding sequence
    and appear with the single ``local`` phase).  The trace fields are
    empty unless a :class:`~repro.tools.tracing.TracingInterceptor`
    gave the request its context; SPMD threads of one collective
    invocation share one logical ``span_id`` per side.
    """

    phase: str
    op: str
    req: str
    program: str
    rank: int
    t0: float
    t1: float
    nbytes: int
    trace_id: str
    span_id: str
    parent_id: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def side(self) -> str:
        return PHASE_SIDE.get(self.phase, "other")


def _percentile(sorted_vals: list, q: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def zero_copy_summary(stats) -> str:
    """One-line summary of a :class:`repro.cdr.buffers.ZeroCopyStats`
    (the zero-copy marshaling lane + its buffer pool)."""
    borrows = stats.borrows
    hit_pct = 100.0 * stats.pool_hits / borrows if borrows else 0.0
    return (
        f"zero-copy lane: {stats.fast_encodes} fast encodes "
        f"({stats.bytes_fast} bytes), {stats.fast_decodes} fast decodes, "
        f"{stats.fallback_encodes}/{stats.fallback_decodes} fallback "
        f"enc/dec; pool: {borrows} leases, {hit_pct:.0f}% reuse, "
        f"{stats.outstanding} outstanding"
    )


def _deep_t1(node: dict, children: dict) -> float:
    """Latest end time in a trace subtree."""
    t1 = node["t1"]
    for child in children.get(node["span_id"], ()):
        t1 = max(t1, _deep_t1(child, children))
    return t1


class RequestObserver:
    """Recorder of every request's end-to-end lifecycle in one world."""

    def __init__(self, label: str = "",
                 span_capacity: Optional[int] = DEFAULT_CAPACITY,
                 packet_capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self.label = label
        self.spans: RingBuffer = RingBuffer(span_capacity)
        #: (req, program, rank) -> [op, t_start, t_end|None, status]
        self.requests: dict[tuple, list] = {}
        self.requests_dropped = 0
        self._request_capacity = span_capacity
        self.packet_trace = PacketTrace(RingBuffer(packet_capacity))
        #: CDR stream bytes this world's ORB encoded and decoded
        self.cdr_bytes = {"encoded": 0, "decoded": 0}
        #: transfer-schedule lookups of this world's fragment courier
        self.transfer = {"schedules": 0, "fragments": 0, "elements": 0}
        #: links set by repro.tools.attach: the world transport's
        #: ZeroCopyStats and its ORB
        self.zero_copy = None
        self.orb = None
        #: registry hooks set by bind_metrics
        self._phase_hist = None
        self._request_hist = None

    # -- recording (hot path; called only when an observer is attached) ----

    def span(self, phase: str, op: str, req, program: str, rank: int,
             t0: float, t1: float, nbytes: int = 0,
             trace: Optional[tuple] = None) -> None:
        """Record one span; ``trace`` is the request's ``(trace_id,
        span_id, parent_id)`` (the request info's ``trace``), or None
        for an untraced request."""
        trace_id, span_id, parent_id = trace or _UNTRACED
        if self._phase_hist is not None:
            self._phase_hist.labels(phase=phase, op=op).observe(t1 - t0)
        self.spans.append(Span(phase, op, str(req), program, rank, t0, t1,
                               nbytes, trace_id, span_id, parent_id))

    def request_started(self, req, op: str, program: str, rank: int,
                        t0: float) -> None:
        requests = self.requests
        key = (str(req), program, rank)
        if (self._request_capacity is not None and key not in requests
                and len(requests) >= self._request_capacity):
            del requests[next(iter(requests))]
            self.requests_dropped += 1
        requests[key] = [op, t0, None, "pending"]

    def request_finished(self, req, program: str, rank: int, t1: float,
                         status: str = "ok") -> None:
        rec = self.requests.get((str(req), program, rank))
        if rec is not None:
            rec[2] = t1
            rec[3] = status
            if self._request_hist is not None:
                self._request_hist.labels(op=rec[0], status=status) \
                    .observe(t1 - rec[1])

    # -- metrics-registry binding (repro.tools.registry) -------------------

    def bind_metrics(self, registry) -> None:
        """Publish push-model latency histograms and a pull-model
        collector for this observer's counters into ``registry``."""
        self._phase_hist = registry.histogram(
            "pardis_phase_seconds",
            "virtual-time latency of each request-lifecycle phase",
            ("phase", "op"))
        self._request_hist = registry.histogram(
            "pardis_request_seconds",
            "end-to-end virtual-time request latency",
            ("op", "status"))
        cdr = registry.counter("pardis_cdr_bytes_total",
                               "CDR stream bytes", ("direction",))
        transfer = registry.counter("pardis_transfer_total",
                                    "transfer-schedule counters", ("what",))
        drops = registry.counter(
            "pardis_observability_dropped_total",
            "records shed by the bounded observability stores", ("store",))

        @registry.register_collector
        def _collect_observer() -> None:
            cdr.labels(direction="encoded").set(self.cdr_bytes["encoded"])
            cdr.labels(direction="decoded").set(self.cdr_bytes["decoded"])
            for what, value in self.transfer.items():
                transfer.labels(what=what).set(value)
            drops.labels(store="spans").set(self.spans.dropped)
            drops.labels(store="packets").set(self.packet_trace.dropped)
            drops.labels(store="requests").set(self.requests_dropped)

    # -- byte and schedule meter (called by repro.core.pipeline) ----------

    def on_encode(self, nbytes: int) -> None:
        self.cdr_bytes["encoded"] += nbytes

    def on_decode(self, nbytes: int) -> None:
        self.cdr_bytes["decoded"] += nbytes

    def on_schedule(self, nfragments: int, nelements: int) -> None:
        self.transfer["schedules"] += 1
        self.transfer["fragments"] += nfragments
        self.transfer["elements"] += nelements

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def operations(self) -> list[str]:
        return sorted({s.op for s in self.spans})

    def request_breakdown(self, req) -> dict[str, float]:
        """Total virtual seconds per phase for one request — the answer to
        "where did this request spend its time"."""
        req = str(req)
        out: dict[str, float] = {}
        for s in self.spans:
            if s.req == req:
                out[s.phase] = out.get(s.phase, 0.0) + s.duration
        return out

    def bytes_by_op(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.op] = out.get(s.op, 0) + s.nbytes
        return out

    def completed_requests(self) -> list[tuple]:
        """[(req, program, rank, op, latency), ...] for finished requests."""
        return [(req, prog, rank, op, t1 - t0)
                for (req, prog, rank), (op, t0, t1, _status)
                in self.requests.items() if t1 is not None]

    # -- stitched traces ---------------------------------------------------

    def _trace_nodes(self) -> dict[str, dict]:
        """Annotated spans aggregated into logical trace nodes.

        One node per ``span_id`` — all SPMD threads (and all phases) of
        one side of one invocation collapse into it, mirroring the
        paper's "one parallel entity" model.  Returns
        ``{span_id: node}`` where a node carries trace_id, parent_id,
        side, op, program, the participating ranks, and the [t0, t1]
        envelope.
        """
        nodes: dict[str, dict] = {}
        for s in self.spans:
            if not s.span_id:
                continue
            node = nodes.get(s.span_id)
            if node is None:
                node = nodes[s.span_id] = {
                    "trace_id": s.trace_id, "span_id": s.span_id,
                    "parent_id": s.parent_id, "side": s.side,
                    "op": s.op, "program": s.program,
                    "ranks": set(), "t0": s.t0, "t1": s.t1, "nbytes": 0,
                }
            node["ranks"].add(s.rank)
            node["t0"] = min(node["t0"], s.t0)
            node["t1"] = max(node["t1"], s.t1)
            node["nbytes"] += s.nbytes
        return nodes

    def trace_tree(self) -> str:
        """Every stitched trace as an indented causal tree with per-hop
        latency attribution (requires an attached tracing interceptor;
        returns a note when no annotated spans exist)."""
        nodes = self._trace_nodes()
        if not nodes:
            return ("no annotated spans (attach(world, tracing=True) "
                    "before the run to stitch traces)")
        children: dict[str, list] = {}
        roots: list[dict] = []
        for node in nodes.values():
            parent = node["parent_id"]
            if parent and parent in nodes:
                children.setdefault(parent, []).append(node)
            else:
                roots.append(node)
        for kids in children.values():
            kids.sort(key=lambda n: n["t0"])
        roots.sort(key=lambda n: (n["trace_id"], n["t0"]))

        lines: list[str] = []
        by_trace: dict[str, list] = {}
        for root in roots:
            by_trace.setdefault(root["trace_id"], []).append(root)

        def emit(node: dict, depth: int, parent: Optional[dict]) -> None:
            ranks = sorted(node["ranks"])
            rank_s = (f"rank {ranks[0]}" if len(ranks) == 1
                      else f"ranks {ranks[0]}-{ranks[-1]}")
            hop = ("" if parent is None else
                   f"  +{node['t0'] - parent['t0']:.6f}s after parent")
            lines.append(
                f"{'  ' * depth}{'└─ ' if depth else ''}"
                f"{node['side']} {node['op']} @{node['program']} "
                f"[{rank_s}]  t0={node['t0']:.6f} "
                f"dur={node['t1'] - node['t0']:.6f}{hop}"
            )
            for child in children.get(node["span_id"], ()):
                emit(child, depth + 1, node)

        for trace_id, trace_roots in by_trace.items():
            t0 = min(r["t0"] for r in trace_roots)
            t1 = max(_deep_t1(r, children) for r in trace_roots)
            n = sum(1 for node in nodes.values()
                    if node["trace_id"] == trace_id)
            lines.append(f"trace {trace_id} — {n} node(s), "
                         f"{t1 - t0:.6f} virtual s")
            for root in trace_roots:
                emit(root, 1, None)
        return "\n".join(lines)

    # -- Chrome-trace export ----------------------------------------------

    def chrome_trace(self) -> dict:
        """The recorded lifecycle as a Chrome-trace (``chrome://tracing``
        / Perfetto) JSON object."""
        return {"traceEvents": self._chrome_events(pid_base=1),
                "displayTimeUnit": "ms"}

    def _chrome_events(self, pid_base: int) -> list[dict]:
        events: list[dict] = []
        pids: dict[str, int] = {}

        def pid_of(name: str) -> int:
            pid = pids.get(name)
            if pid is None:
                pid = pids[name] = pid_base + len(pids)
                shown = f"{self.label}: {name}" if self.label else name
                events.append({"name": "process_name", "ph": "M", "pid": pid,
                               "tid": 0, "args": {"name": shown}})
            return pid

        for s in self.spans:
            args = {"op": s.op, "req": s.req, "bytes": s.nbytes}
            if s.trace_id:
                args["trace_id"] = s.trace_id
                args["span_id"] = s.span_id
            events.append({
                "name": f"{s.phase} {s.op}",
                "cat": s.side,
                "ph": "X",
                "ts": s.t0 * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid_of(s.program),
                "tid": s.rank,
                "args": args,
            })
        # Cross-world flow arrows: one start/finish pair per causal edge
        # whose two nodes live in different programs (the stitch a Fig-5
        # chain needs; same-program nesting stays readable without them).
        nodes = self._trace_nodes()
        for node in nodes.values():
            parent = nodes.get(node["parent_id"])
            if parent is None or parent["program"] == node["program"]:
                continue
            flow_id = node["span_id"]
            events.append({
                "name": "trace", "cat": "flow", "ph": "s", "id": flow_id,
                "ts": parent["t0"] * 1e6, "pid": pid_of(parent["program"]),
                "tid": min(parent["ranks"]),
            })
            events.append({
                "name": "trace", "cat": "flow", "ph": "f", "bp": "e",
                "id": flow_id, "ts": max(node["t0"], parent["t0"]) * 1e6,
                "pid": pid_of(node["program"]), "tid": min(node["ranks"]),
            })
        for (req, prog, rank), (op, t0, t1, status) in self.requests.items():
            if t1 is None:
                continue
            pid = pid_of(prog)
            common = {"cat": "request", "id": req, "pid": pid, "tid": rank}
            events.append({"name": f"request {op}", "ph": "b",
                           "ts": t0 * 1e6,
                           "args": {"op": op, "status": status}, **common})
            events.append({"name": f"request {op}", "ph": "e",
                           "ts": t1 * 1e6, "args": {}, **common})
        net_pid = pid_of("network")
        link_tids: dict[tuple, int] = {}
        for r in self.packet_trace.records:
            link = (r.src.split(":")[0], r.dst.split(":")[0])
            tid = link_tids.get(link)
            if tid is None:
                tid = link_tids[link] = len(link_tids)
                events.append({"name": "thread_name", "ph": "M",
                               "pid": net_pid, "tid": tid,
                               "args": {"name": f"{link[0]} -> {link[1]}"}})
            events.append({
                "name": r.kind,
                "cat": "transport",
                "ph": "X",
                "ts": r.send_time * 1e6,
                "dur": (r.arrival - r.send_time) * 1e6,
                "pid": net_pid,
                "tid": tid,
                "args": {"src": r.src, "dst": r.dst, "bytes": r.nbytes,
                         "tag": r.tag},
            })
        return events

    # -- text report -------------------------------------------------------

    def report(self) -> str:
        lines = []
        title = "request-lifecycle report"
        if self.label:
            title += f" [{self.label}]"
        lines.append(title)

        done = self.completed_requests()
        npending = sum(1 for rec in self.requests.values() if rec[2] is None)
        nfailed = sum(1 for rec in self.requests.values()
                      if rec[3] not in ("ok", "oneway", "pending"))
        lines.append(f"  requests: {len(self.requests)} issued, "
                     f"{len(done)} finished, {npending} pending, "
                     f"{nfailed} failed")

        lines.append("  per-operation end-to-end latency (virtual s):")
        lines.append(f"  {'operation':>20} {'count':>6} {'p50':>10} "
                     f"{'p90':>10} {'p99':>10} {'max':>10}")
        per_op: dict[str, list] = {}
        for _req, _prog, _rank, op, lat in done:
            per_op.setdefault(op, []).append(lat)
        for op in sorted(per_op):
            lat = sorted(per_op[op])
            lines.append(
                f"  {op:>20} {len(lat):6d} {_percentile(lat, .5):10.6f} "
                f"{_percentile(lat, .9):10.6f} {_percentile(lat, .99):10.6f} "
                f"{lat[-1]:10.6f}"
            )

        lines.append("  per-operation phase latency (virtual s) and bytes:")
        lines.append(f"  {'operation':>20} {'phase':>10} {'count':>6} "
                     f"{'p50':>10} {'p99':>10} {'max':>10} {'bytes':>10}")
        keys = sorted({(s.op, s.phase) for s in self.spans},
                      key=lambda k: (k[0], PHASES.index(k[1])
                                     if k[1] in PHASES else 99))
        for op, phase in keys:
            durs = sorted(s.duration for s in self.spans
                          if s.op == op and s.phase == phase)
            nbytes = sum(s.nbytes for s in self.spans
                         if s.op == op and s.phase == phase)
            lines.append(
                f"  {op:>20} {phase:>10} {len(durs):6d} "
                f"{_percentile(durs, .5):10.6f} "
                f"{_percentile(durs, .99):10.6f} "
                f"{durs[-1] if durs else 0.0:10.6f} {nbytes:10d}"
            )

        dropped = (self.spans.dropped + self.packet_trace.dropped
                   + self.requests_dropped)
        if dropped:
            lines.append(
                f"  store drops: {self.spans.dropped} spans, "
                f"{self.packet_trace.dropped} packets, "
                f"{self.requests_dropped} requests (ring buffers full)"
            )
        if self.orb is not None and (self.orb.dead_fragments
                                     or self.orb.dead_result_fragments):
            lines.append(
                f"  dead-lettered: {self.orb.dead_fragments} argument "
                f"fragments, {self.orb.dead_result_fragments} result "
                f"fragments"
            )
        errors = (self.orb.interceptors.finish_request_errors
                  if self.orb is not None else 0)
        if errors:
            lines.append(f"  interceptor errors: {errors} raised in "
                         f"finish_request and swallowed")
        lines.append(f"  cdr streams: {self.cdr_bytes['encoded']} bytes "
                     f"encoded, {self.cdr_bytes['decoded']} bytes decoded")
        lines.append(f"  transfer schedules: {self.transfer['schedules']} "
                     f"({self.transfer['fragments']} fragments, "
                     f"{self.transfer['elements']} elements)")
        if self.zero_copy is not None:
            lines.append("  " + zero_copy_summary(self.zero_copy))
        if len(self.packet_trace):
            lines.append("  " + self.packet_trace.summary()
                         .replace("\n", "\n  "))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Multi-run sessions (the experiment drivers build one Simulation per point)
# ---------------------------------------------------------------------------


class TraceSession:
    """Instruments every simulation run of an experiment sweep and merges
    the runs into one Chrome trace / report (used by ``--trace``,
    ``--trace-tree`` and ``--metrics`` in the CLI).  Every run is
    attached with tracing on, so spans stitch into trees; ``metrics=True``
    also gives each run a :class:`~repro.tools.registry.MetricsRegistry`.
    """

    def __init__(self, metrics: bool = False) -> None:
        self.metrics = metrics
        #: one repro.tools.Instruments handle per run, in run order
        self.handles: list = []

    def attach(self, sim, label: str = ""):
        from .instruments import attach

        handle = attach(sim.world, tracing=True, metrics=self.metrics,
                        label=label)
        self.handles.append(handle)
        return handle

    def chrome_trace(self) -> dict:
        events: list[dict] = []
        for i, handle in enumerate(self.handles):
            events.extend(handle.observer._chrome_events(
                pid_base=1 + i * 1000))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def report(self) -> str:
        return "\n\n".join(h.observer.report() for h in self.handles)

    def trace_trees(self) -> str:
        """Stitched causal trees of every run that produced one."""
        blocks = []
        for handle in self.handles:
            obs = handle.observer
            head = f"[{obs.label}]\n" if obs.label else ""
            blocks.append(head + obs.trace_tree())
        return "\n\n".join(blocks)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)

    def write_metrics(self, path: str) -> None:
        """Export every run's registry: ``.prom`` gets concatenated
        Prometheus text (a ``run`` label distinguishes runs), anything
        else a JSON object keyed by run label."""
        runs = [(h.observer.label or str(i), h.registry)
                for i, h in enumerate(self.handles) if h.registry is not None]
        if path.endswith(".prom"):
            text = "".join(reg.prometheus_text(extra_labels={"run": label})
                           for label, reg in runs)
            with open(path, "w") as fh:
                fh.write(text)
            return
        with open(path, "w") as fh:
            json.dump({label: reg.snapshot() for label, reg in runs}, fh,
                      indent=1)


# ---------------------------------------------------------------------------
# Schema validation (make trace-demo / CI)
# ---------------------------------------------------------------------------


def validate_chrome_trace(obj: Any,
                          require_phases: Iterable[str] = (),
                          require_flow_events: int = 0) -> int:
    """Check a Chrome-trace JSON object's schema; returns the event count.

    Raises ``ValueError`` on malformed traces.  ``require_phases`` lists
    span phases (e.g. ``("marshal", "compute")``) that must each appear in
    at least one duration event; ``require_flow_events`` demands at least
    that many *matched* cross-world flow arrows (an ``s`` event whose id
    also has an ``f`` event).
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("trace must be an object with a traceEvents list")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    seen_phases: set[str] = set()
    flow_starts: set = set()
    flow_finishes: set = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid"):
            if key not in ev:
                raise ValueError(f"event {i} is missing {key!r}")
        ph = ev["ph"]
        if ph not in ("X", "M", "b", "e", "i", "s", "t", "f"):
            raise ValueError(f"event {i} has unknown phase type {ph!r}")
        if ph != "M" and "ts" not in ev:
            raise ValueError(f"event {i} ({ph}) is missing 'ts'")
        if ph in ("s", "t", "f"):
            if "id" not in ev:
                raise ValueError(f"event {i} (flow {ph}) is missing 'id'")
            (flow_starts if ph == "s" else flow_finishes).add(ev["id"])
        if ph == "X":
            if "dur" not in ev or ev["dur"] < 0:
                raise ValueError(f"event {i} needs a non-negative 'dur'")
            seen_phases.add(ev["name"].split(" ", 1)[0])
            if ev.get("cat") == "transport":
                seen_phases.add("transport")
    missing = set(require_phases) - seen_phases
    if missing:
        raise ValueError(f"trace has no spans for phases: {sorted(missing)}")
    unmatched = flow_starts ^ flow_finishes
    if unmatched:
        raise ValueError(f"unmatched flow events: {sorted(unmatched)[:5]}")
    matched = len(flow_starts & flow_finishes)
    if matched < require_flow_events:
        raise ValueError(
            f"trace has {matched} cross-world flow event(s), "
            f"need >= {require_flow_events}"
        )
    return len(events)
