"""Unified metrics registry with Prometheus-text and JSON exporters.

Observability counters live in three unrelated shapes —
``RequestObserver`` dicts, ``ZeroCopyStats`` slots,
``Transport.packets_sent`` attributes — each with its own ad-hoc report
string.  A :class:`MetricsRegistry` gives them one publication
surface: labeled counters, gauges, and bounded log-bucketed histograms,
exported as a plain-dict snapshot, JSON, or Prometheus text exposition.

Two feeding models coexist:

* **push** — hot-path code observes directly into an instrument
  (the observer's per-phase latency histograms);
* **pull** — a *collector* callback registered with
  :meth:`MetricsRegistry.register_collector` copies counters out of
  their native home at snapshot time (the ORB/transport/pool counters),
  so the hot paths keep their cheap ``+= 1`` attributes and pay nothing
  for the registry.

:func:`repro.tools.attach` with ``metrics=True`` wires a world's
standard sources into one registry — ORB request and dead-letter
counters, transport packet/byte totals, the buffer pool's
:class:`~repro.cdr.buffers.ZeroCopyStats`, the admission and replica
counters, the
:class:`~repro.tools.tracing.TracingInterceptor` counters and the
:class:`~repro.tools.observe.RequestObserver` (which also starts pushing
latency histograms).

The exporters round-trip: ``parse_prometheus_text(reg.prometheus_text())
== flatten_snapshot(reg.snapshot())`` and
``json.loads(reg.to_json()) == reg.snapshot()`` (asserted by the test
suite).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Callable, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "flatten_snapshot",
    "parse_prometheus_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric/label name {name!r}")
    return name


def _fmt_value(v) -> str:
    """Exposition-format number; ``repr`` round-trips Python floats."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """Monotonic count.  ``inc`` is the push-model entry point; ``set``
    exists for pull-model collectors that copy an externally maintained
    total (e.g. ``orb.requests_sent``) into the registry."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n

    def set(self, v) -> None:
        self.value = v


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, v) -> None:
        self.value = v

    def inc(self, n=1) -> None:
        self.value += n


class Histogram:
    """Bounded log-bucketed histogram.

    Bucket upper bounds are ``start * factor**i`` for ``i`` in
    ``range(nbuckets)`` plus a ``+Inf`` overflow bucket, so memory is
    fixed no matter how many observations arrive — the registry never
    keeps raw samples.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, start: float, factor: float, nbuckets: int) -> None:
        if start <= 0 or factor <= 1 or nbuckets < 1:
            raise ValueError("need start > 0, factor > 1, nbuckets >= 1")
        self.bounds = [start * factor ** i for i in range(nbuckets)]
        self.counts = [0] * (nbuckets + 1)   # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def buckets(self) -> list:
        """``[[upper_bound, cumulative_count], ...]`` ending at +Inf."""
        out, cum = [], 0
        for bound, n in zip(self.bounds, self.counts):
            cum += n
            out.append([bound, cum])
        out.append(["+Inf", self.count])
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All children of one metric name, one per label-value combination."""

    __slots__ = ("name", "kind", "help", "labelnames", "_children", "_kwargs")

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: Iterable[str] = (), **kwargs) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help
        self.labelnames = tuple(_check_name(n) for n in labelnames)
        self._children: dict[tuple, object] = {}
        self._kwargs = kwargs

    def labels(self, **labelvalues):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _KINDS[self.kind](**self._kwargs)
        return child

    def samples(self) -> list[dict]:
        out = []
        for key, child in self._children.items():
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                out.append({"labels": labels, "buckets": child.buckets(),
                            "sum": child.sum, "count": child.count})
            else:
                out.append({"labels": labels, "value": child.value})
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Named families of instruments plus pull-model collectors."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable] = []

    # -- family creation ---------------------------------------------------

    def _family(self, name: str, kind: str, help: str,
                labelnames: Iterable[str], **kwargs) -> _Family:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind or fam.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"kind/label set"
                )
            return fam
        fam = self._families[name] = _Family(name, kind, help, labelnames,
                                             **kwargs)
        return fam

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> _Family:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> _Family:
        return self._family(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (), start: float = 1e-6,
                  factor: float = 4.0, nbuckets: int = 12) -> _Family:
        return self._family(name, "histogram", help, labelnames,
                            start=start, factor=factor, nbuckets=nbuckets)

    # -- collectors --------------------------------------------------------

    def register_collector(self, fn: Callable) -> Callable:
        """Register a zero-argument callback run before every snapshot;
        it copies externally maintained counters into the registry."""
        self._collectors.append(fn)
        return fn

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict (JSON-safe) view of every family, collectors run."""
        self.collect()
        return {
            name: {"kind": fam.kind, "help": fam.help,
                   "samples": fam.samples()}
            for name, fam in sorted(self._families.items())
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def prometheus_text(self, extra_labels: Optional[dict] = None) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        snap = self.snapshot()
        lines = []
        for name, fam in snap.items():
            if fam["help"]:
                lines.append(f"# HELP {name} {fam['help']}")
            lines.append(f"# TYPE {name} {fam['kind']}")
            for sample in fam["samples"]:
                labels = dict(extra_labels or {})
                labels.update(sample["labels"])
                if fam["kind"] == "histogram":
                    for bound, cum in sample["buckets"]:
                        ls = _label_str({**labels, "le": bound})
                        lines.append(f"{name}_bucket{ls} {cum}")
                    ls = _label_str(labels)
                    lines.append(f"{name}_sum{ls} {_fmt_value(sample['sum'])}")
                    lines.append(f"{name}_count{ls} {sample['count']}")
                else:
                    ls = _label_str(labels)
                    lines.append(f"{name}{ls} {_fmt_value(sample['value'])}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Round-trip helpers (exporter verification)
# ---------------------------------------------------------------------------


def flatten_snapshot(snap: dict, extra_labels: Optional[dict] = None) -> dict:
    """A snapshot as the flat ``{'name{labels}': value}`` mapping its
    Prometheus text renders to — the common form both exporters can be
    compared in."""
    flat: dict[str, object] = {}
    for name, fam in snap.items():
        for sample in fam["samples"]:
            labels = dict(extra_labels or {})
            labels.update(sample["labels"])
            if fam["kind"] == "histogram":
                for bound, cum in sample["buckets"]:
                    key = f"{name}_bucket{_label_str({**labels, 'le': bound})}"
                    flat[key] = cum
                flat[f"{name}_sum{_label_str(labels)}"] = sample["sum"]
                flat[f"{name}_count{_label_str(labels)}"] = sample["count"]
            else:
                flat[f"{name}{_label_str(labels)}"] = sample["value"]
    return flat


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict:
    """Parse text exposition back to the flat mapping
    :func:`flatten_snapshot` produces (comments ignored)."""
    flat: dict[str, object] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = {k: _unescape(v)
                  for k, v in _LABEL_RE.findall(m.group("labels") or "")}
        flat[m.group("name") + _label_str(labels)] = \
            _parse_value(m.group("value"))
    return flat


# ---------------------------------------------------------------------------
# World attachment
# ---------------------------------------------------------------------------


def _world_registry(world, tracer=None) -> MetricsRegistry:
    """A registry with pull-model collectors over ``world``'s ORB,
    transport and buffer pool, and over ``tracer`` when given (the
    observer binds itself afterwards, see
    :meth:`~repro.tools.observe.RequestObserver.bind_metrics`).  Called
    by :func:`repro.tools.attach`, which makes every link."""
    reg = MetricsRegistry()
    orb = world.services["orb"]
    transport = world.transport

    packets = reg.counter("pardis_transport_packets_total",
                          "packets the world transport delivered")
    tbytes = reg.counter("pardis_transport_bytes_total",
                         "payload bytes the world transport delivered")

    @reg.register_collector
    def _collect_transport() -> None:
        snap = transport.snapshot()
        packets.labels().set(snap["packets_sent"])
        tbytes.labels().set(snap["bytes_sent"])

    zc_stats = transport.buffer_pool.stats
    zc = reg.gauge("pardis_zero_copy", "zero-copy lane / buffer-pool "
                   "counters (see repro.cdr.buffers)", ("counter",))

    @reg.register_collector
    def _collect_zero_copy() -> None:
        for field, value in zc_stats.snapshot().items():
            zc.labels(counter=field).set(value)

    requests = reg.counter("pardis_requests_total",
                           "invocations issued on this world", ("kind",))
    dead = reg.counter("pardis_dead_fragments_total",
                       "orphaned fragments dead-lettered", ("kind",))
    swallowed = reg.counter(
        "pardis_interceptor_errors_total",
        "exceptions raised by interceptors and swallowed by the chain",
        ("point",))

    @reg.register_collector
    def _collect_orb() -> None:
        requests.labels(kind="remote").set(orb.requests_sent)
        requests.labels(kind="local_bypass").set(orb.local_bypasses)
        dead.labels(kind="arg").set(orb.dead_fragments)
        dead.labels(kind="result").set(orb.dead_result_fragments)
        swallowed.labels(point="finish_request").set(
            orb.interceptors.finish_request_errors)

    # Services layer (repro.services): admission controllers register
    # themselves on the ORB as POAs enable them, and replica groups are
    # created lazily on first policy bind — so both collectors iterate
    # the live lists at snapshot time instead of at attach.
    admission = reg.counter(
        "pardis_admission_requests_total",
        "admission-control outcomes per server program",
        ("program", "outcome"))
    queue_depth = reg.gauge(
        "pardis_admission_queue_depth",
        "currently queued requests per admission-controlled program",
        ("program",))
    queue_wait = reg.gauge(
        "pardis_admission_wait_seconds_total",
        "total virtual seconds served requests spent queued",
        ("program",))

    @reg.register_collector
    def _collect_admission() -> None:
        for adm in orb.admission_controllers:
            prog = adm.program_name or "unattached"
            admission.labels(program=prog, outcome="accepted").set(
                adm.accepted)
            admission.labels(program=prog, outcome="shed").set(adm.shed)
            admission.labels(program=prog, outcome="served").set(adm.served)
            queue_depth.labels(program=prog).set(adm.queue_depth)
            queue_wait.labels(program=prog).set(adm.total_wait)

    replica_events = reg.counter(
        "pardis_replica_events_total",
        "replica-group health/failover events per object name",
        ("object", "event"))
    replica_load = reg.gauge(
        "pardis_replica_load",
        "last reported load fraction per replica program id",
        ("object", "program_id"))

    @reg.register_collector
    def _collect_replicas() -> None:
        for (_, name), group in orb._replica_groups.items():
            replica_events.labels(object=name, event="failover").set(
                group.failovers)
            replica_events.labels(object=name, event="suspect").set(
                group.suspects)
            replica_events.labels(object=name, event="dead").set(
                group.deaths)
            replica_events.labels(object=name, event="reactivation").set(
                group.reactivations)
            replica_events.labels(object=name, event="selection").set(
                group.selections)
            for pid, load in group.known_loads().items():
                replica_load.labels(object=name, program_id=pid).set(load)

    if tracer is not None:
        trace_events = reg.counter("pardis_trace_events_total",
                                   "tracing interceptor event counters",
                                   ("event",))

        @reg.register_collector
        def _collect_tracer() -> None:
            for event, value in tracer.counters.items():
                trace_events.labels(event=event).set(value)

    return reg
