"""Per-layer host-time attribution for the traced benchmark run.

The tracer wraps public functions and methods of each module-layer *from
the benchmark's side*: class methods are replaced on their class (they
are looked up at call time) and module functions are replaced in the
module that calls them, e.g. ``repro.core.pipeline.courier.fragment_payload``
rather than its definition in ``repro.cdr``.  Nothing under ``src/`` is
changed, and :meth:`Tracer.uninstall` restores every original.

Attribution rule.  The kernel lets exactly one simulated thread execute
at a time, and every wrapped call is an *event* on the thread that makes
it.  The host time between two consecutive events is charged to the
innermost open span of the thread that was running.  Calls that yield to
the kernel (``SimKernel.advance`` and ``SimKernel.block``, which every
blocking primitive reaches) hand the clock to ``simkernel`` until some
thread's next event: so a ``Transport.send`` or ``Future.value`` span
that sleeps is charged only for its own execution, never for the other
threads that ran meanwhile, and the yield-to-resume gap (scheduler loop
plus OS thread handoff) is kernel time.  Time a running thread spends
outside every span (the benchmark's own client loop, thread start-up)
and any hand-off the wrappers did not see are ``unattributed``.
"""

from __future__ import annotations

import gc
import importlib
import sys
import threading
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns

UNATTRIBUTED = "unattributed"

_KERNEL = object()   # owner marker: no simulated thread is running
#: stack marker of an open yielding call; spans nested in it (the
#: kernel's own schedule/wake) hand the clock back to the kernel on exit
_YIELDING = object()

#: (module, "Class.attr" or "function", layer, option) — option is
#: "yield" for calls that hand control to the kernel, or the name of a
#: call counter.  A target the program no longer has is skipped and
#: reported, so the traced run keeps working while the code evolves.
TARGETS = [
    ("repro.simkernel.kernel", "SimKernel.advance", "simkernel", "yield"),
    ("repro.simkernel.kernel", "SimKernel.block", "simkernel", "yield"),
    ("repro.simkernel.kernel", "SimKernel.schedule", "simkernel", None),
    ("repro.simkernel.kernel", "SimKernel.wake", "simkernel", None),
    ("repro.simkernel.kernel", "SimKernel.spawn", "simkernel", None),
    ("repro.simkernel.channel", "Channel.push", "simkernel", None),
    ("repro.simkernel.channel", "Channel.poll", "simkernel", None),
    ("repro.simkernel.channel", "Channel.peek", "simkernel", None),
    ("repro.simkernel.channel", "Channel.receive", "simkernel", None),

    ("repro.core.futures", "Future.value", "core", None),
    ("repro.core.futures", "Future.resolved", "core", None),
    ("repro.core.futures", "Future.wait", "core", None),
    ("repro.core.orb", "ORB.resolve", "core", None),

    ("repro.core.pipeline.state", "ClientRequestState.start",
     "pipeline", None),
    ("repro.core.pipeline.state", "ClientRequestState.progress",
     "pipeline", None),
    ("repro.core.pipeline.state", "ServerRequestState.run", "pipeline", None),
] + [
    ("repro.core.pipeline.interceptors", f"InterceptorChain.{point}",
     "pipeline", None)
    for point in ("send_request", "receive_reply", "receive_exception",
                  "receive_request", "send_reply", "finish_request", "span",
                  "request_started", "request_finished")
] + [
    ("repro.core.pipeline.courier", "FragmentCourier.send_fragments",
     "courier", None),
    ("repro.core.pipeline.courier", "FragmentCourier.receive_fragments",
     "courier", None),
    ("repro.core.pipeline.courier", "FragmentCourier.insert_fragment",
     "courier", None),
    ("repro.core.pipeline.courier", "FragmentCourier.expected_fragments",
     "courier", None),

    ("repro.core.transfer", "cached_schedule", "transfer", "schedules"),
    ("repro.core.transfer", "schedule", "transfer", "schedule_misses"),
    ("repro.core.transfer", "extract", "transfer", None),
    ("repro.core.transfer", "insert", "transfer", None),

    ("repro.core.pipeline.state", "encode_scalars", "cdr.encode",
     "encoded"),
    ("repro.core.pipeline.state", "cdr_encode", "cdr.encode", "encoded"),
    ("repro.core.pipeline.courier", "fragment_payload", "cdr.encode",
     "fragments"),
    ("repro.core.pipeline.state", "decode_scalars", "cdr.decode", None),
    ("repro.core.pipeline.courier", "fragment_values", "cdr.decode", None),

    ("repro.netsim.transport", "Transport.send", "netsim", None),
    ("repro.netsim.transport", "Endpoint.send", "netsim", None),
    ("repro.netsim.transport", "Endpoint.recv", "netsim", None),
    ("repro.netsim.transport", "Endpoint.poll", "netsim", None),
    ("repro.netsim.transport", "Endpoint.iprobe", "netsim", None),
    ("repro.netsim.transport", "estimate_nbytes", "netsim", None),
    ("repro.netsim.topology", "Network.reserve", "netsim", None),
    ("repro.netsim.topology", "Network.profile_between", "netsim", None),

    ("repro.runtime.interface", "RuntimeSystem.send", "runtime",
     "rts_messages"),
    ("repro.runtime.interface", "RuntimeSystem.send_reserved", "runtime",
     "rts_messages"),
    ("repro.runtime.mpi", "MPIRuntime.recv", "runtime", None),
    ("repro.runtime.mpi", "MPIRuntime.iprobe", "runtime", None),
    ("repro.runtime.mpi", "MPIRuntime.compute", "runtime", None),
    ("repro.runtime.mpi", "MPIRuntime.charge_flops", "runtime", None),
    ("repro.runtime.mpi", "MPIRuntime.barrier", "runtime", None),
] + [
    ("repro.runtime.collectives", fn, "runtime", None)
    for fn in ("bcast", "gather", "scatter", "allgather", "reduce",
               "allreduce", "alltoall", "barrier")
] + [
    ("repro.services.admission", "AdmissionController.offer", "services",
     "offer"),
    ("repro.services.admission", "AdmissionController.pop", "services",
     "pop"),
    ("repro.services.admission", "AdmissionController.stamp_reply",
     "services", None),
    ("repro.services.throttle", "ThrottleInterceptor.send_request",
     "services", None),
    ("repro.services.throttle", "ThrottleInterceptor.receive_reply",
     "services", None),
    ("repro.services.throttle", "ThrottleInterceptor.receive_exception",
     "services", None),
]


def _payload_len(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


class Tracer:
    """Wraps the layers' functions and accumulates self time per layer."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.encoded_bytes = 0
        self.queue_waits: list[float] = []      # virtual seconds
        self.gc_ns = 0
        self.wall_ns = 0
        self.missing: list[str] = []
        self._offered: dict[int, float] = {}
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._owner = _KERNEL
        self._last = 0
        self._run_t0 = 0
        self._gc_t0 = 0
        self._clients_left = 0
        self.closed = True

    # -- clock -------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            st = self._local.stack = []
            return st

    def _charge(self, now: int, st) -> None:
        owner = self._owner
        if owner is st:
            layer = st[-1] if st else UNATTRIBUTED
        elif owner is _KERNEL:
            layer = "simkernel"
        else:
            layer = UNATTRIBUTED
        self.ns[layer] += now - self._last
        self._last = now

    def _enter(self, layer: str) -> list:
        st = self._stack()
        self._charge(perf_ns(), st)
        st.append(layer)
        self._owner = st
        return st

    def _exit(self, st: list) -> None:
        self._charge(perf_ns(), st)
        st.pop()
        self._owner = _KERNEL if st and st[-1] is _YIELDING else st

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, layer: str, option, post=None):
        tracer = self
        counts = self.counts
        yields = option == "yield"
        counter = None if yields else option

        def span(*args, **kwargs):
            if tracer.closed:
                return fn(*args, **kwargs)
            st = tracer._enter(_YIELDING if yields else layer)
            if yields:
                tracer._owner = _KERNEL
            elif counter is not None:
                counts[counter] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if not tracer.closed:
                    tracer._exit(st)
            if post is not None and not tracer.closed:
                post(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _post_for(self, option):
        if option in ("encoded", "fragments"):
            def count_bytes(args, result):
                self.encoded_bytes += _payload_len(result)
            return count_bytes
        if option == "offer":
            def offered(args, result):
                if result:
                    self._offered[id(args[1])] = args[2]
            return offered
        if option == "pop":
            def popped(args, result):
                if result is not None:
                    t0 = self._offered.pop(id(result), None)
                    if t0 is not None:
                        self.queue_waits.append(args[1] - t0)
            return popped
        return None

    def program(self, fn, client: bool):
        """Wrap a program's ``main``: a server thread's loop is ``core``
        time; a client thread's own code is unattributed, and its end
        hands the clock back to the kernel."""
        tracer = self

        def main(ctx):
            if tracer.closed:
                return fn(ctx)
            st = tracer._stack()
            tracer._charge(perf_ns(), st)
            tracer._owner = st
            if not client:
                st.append("core")
            try:
                return fn(ctx)
            finally:
                if not tracer.closed:
                    tracer._charge(perf_ns(), st)
                    tracer._owner = _KERNEL
                    if client:
                        tracer._clients_left -= 1
                        # The kernel now only tears the daemons down;
                        # their unwinding runs concurrently, so stop
                        # listening and charge the rest to the kernel.
                        if tracer._clients_left == 0:
                            tracer.closed = True

        return main

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, option) -> bool:
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if raw is None:
            return False
        post = self._post_for(option)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._span(raw.__func__, layer, option, post))
        else:
            wrapped = self._span(raw, layer, option, post)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))
        return True

    def install(self, workload) -> None:
        """Wrap every target plus the workload's proxy operations (core)
        and servant operations (servant)."""
        self.missing = []
        for module_name, path, layer, option in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            if owner is None or not self._patch(owner, attr, layer, option):
                self.missing.append(f"{module_name}.{path}")
        proxy, ops = workload.proxy_ops()
        servant = workload.servant_class()
        for op in ops:
            self._patch(proxy, op, "core", None)
            self._patch(servant, op, "servant", None)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info) -> None:
        # Counted whenever installed: a traced batch's world build and
        # teardown are where its garbage is collected.
        if phase == "start":
            self._gc_t0 = perf_ns()
        else:
            self.gc_ns += perf_ns() - self._gc_t0

    # -- runs --------------------------------------------------------------

    def begin_run(self, client_threads: int) -> None:
        self._clients_left = client_threads
        self._owner = _KERNEL
        self._offered.clear()
        self._run_t0 = self._last = perf_ns()
        self.closed = False

    def end_run(self) -> None:
        now = perf_ns()
        self.closed = True
        self._charge(now, None)
        self.wall_ns += now - self._run_t0
        self._owner = _KERNEL

    def report_missing(self) -> None:
        if self.missing:
            print("trace: not wrapped (absent from the program): "
                  + ", ".join(self.missing), file=sys.stderr)
