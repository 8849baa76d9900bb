#!/usr/bin/env python3
"""Host-time benchmark of the PARDIS reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload dseq_matrix --seed 1 --seconds 55 \
        --trace 0

One run measures one workload in this process, pinned to one CPU:

1. warm-up batches (stub, schedule and pool caches fill), then
   ``gc.collect()``;
2. timed batches until ``--seconds`` have passed.  Between them, at even
   intervals, set-up time is measured in fresh interpreters
   (``--setup-probe``), each followed by an untimed batch.  With
   ``--trace 1`` untraced and traced batches alternate and the traced
   ones attribute host time to layers (see ``layers.py``).

Every batch's replies, simulated outcome and leak counters are checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: the seed whose simulated outcome ``expected.json`` records
DEFAULT_SEED = 0
#: fresh interpreters timed per run for ``setup_s``; one more runs first,
#: untimed, so bytecode and the OS file cache are warm
SETUP_PROBES = 10
WARMUP_BATCHES = 2
#: The time metrics report the slow end of the run: this percentile of
#: the per-batch (or per-probe) figures.  See README.md, "Bounds and
#: steadiness", for why not the centre.
SLOW_PCT = 95

perf_ns = time.perf_counter_ns


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def slow(values):
    return percentile(values, SLOW_PCT)


# ---------------------------------------------------------------------------
# set-up probe (runs in a fresh interpreter)
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Time import, IDL compile and world build up to the first reply.
    numpy is already imported (module top), as the end-to-end metric
    defines; the probe's inputs are made before the clock starts."""
    from workloads import WORKLOADS, Recorder

    wl = WORKLOADS[name]()
    inputs = wl.inputs(seed, 1)
    rec = Recorder()
    t0 = perf_ns()
    import repro.core  # noqa: F401 - what every workload needs
    import repro.idl  # noqa: F401
    import repro.netsim  # noqa: F401
    import repro.services  # noqa: F401
    t1 = perf_ns()
    wl.compile()
    t2 = perf_ns()
    sim, _ = wl.build(inputs, rec, seed)
    sim.run()
    # Wrong replies are the timed batches' to count; a program that never
    # replies at all has no set-up time and fails the run.
    if rec.first_reply_ns is None:
        raise SystemExit(f"set-up probe got no reply: {rec.errors}")
    t3 = rec.first_reply_ns
    print(json.dumps({"setup_s": (t3 - t0) / 1e9,
                      "import_ms": (t1 - t0) / 1e6,
                      "idl_compile_ms": (t2 - t1) / 1e6,
                      "world_ms": (t3 - t2) / 1e6}))


class SetupProbes:
    """Set-up time, measured in fresh interpreters spread over the run.

    Each probe is timed in its own interpreter, while this process waits.
    Spreading them over the run, rather than running them back to back,
    samples the machine at as many moments as the timed batches do, so a
    stretch of fast or slow host speed moves ``setup_s`` no more than it
    moves the other metrics.  The first probe runs untimed, before
    anything else, so bytecode and the OS file cache are warm.
    """

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--setup-probe"]
        self.samples: list[dict] = []
        self.every_ns = int(seconds * 1e9 / SETUP_PROBES)
        self.next_ns = 0
        # The untimed probe writes bytecode even where the environment
        # says not to, so that the timed ones import compiled modules.
        self._once({k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"})

    def start(self) -> None:
        """Start the schedule: one probe now, then every ``every_ns``."""
        self.next_ns = perf_ns()

    def _once(self, env=None) -> dict:
        out = subprocess.run(self.cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    @property
    def done(self) -> bool:
        return len(self.samples) >= SETUP_PROBES

    def maybe_run(self) -> bool:
        """Run the next probe if its time has come; True if it ran."""
        if self.done or perf_ns() < self.next_ns:
            return False
        self.samples.append(self._once())
        self.next_ns += self.every_ns
        return True

    def finish(self) -> dict:
        """Run any probes still due; every figure, one list per key."""
        while not self.done:
            self.samples.append(self._once())
        return {k: [s[k] for s in self.samples] for k in self.samples[0]}


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------


class Checker:
    """Counts attempted and failed operations across batches."""

    def __init__(self, reference: dict, expected) -> None:
        self.reference = reference
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _note(self, why: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(why)

    def check(self, b, label: str) -> None:
        self.attempted += b.attempted
        failed = b.failed
        for why in b.errors:
            self._note(f"{label}: {why}")
        if not _same(b.outcome, self.reference):
            failed = b.attempted
            self._note(f"{label}: simulated outcome {b.outcome} differs "
                       f"from the run's first batch {self.reference}")
        if self.expected is not None and not _same(b.outcome, self.expected):
            failed = b.attempted
            self._note(f"{label}: simulated outcome {b.outcome} differs "
                       f"from expected.json {self.expected}")
        leaked = {k: v for k, v in b.leaks.items() if v}
        if leaked:
            failed += sum(abs(v) for v in leaked.values())
            self._note(f"{label}: leak invariants broken: {leaked}")
        self.failed += min(failed, b.attempted)


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k])
                         and math.isnan(b[k]))
        for k in a)


def end_to_end_metrics(batches, setup: dict) -> dict:
    """Each time metric is first taken per batch (per probe for
    ``setup_s``), then summarised by the run's slow end, ``SLOW_PCT``."""
    done = [b for b in batches if b.ok]
    rps = [b.ok / (b.wall_ns / 1e9) for b in done]
    cpu_us = [b.cpu_ns / 1e3 / b.ok for b in done]
    p50_us = [percentile(b.host_ns, 50) / 1e3 for b in done]
    p90_us = [percentile(b.host_ns, 90) / 1e3 for b in done]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "req_per_s": metric(percentile(rps, 100 - SLOW_PCT), "1/s"),
        "req_host_us_p50": metric(slow(p50_us), "us"),
        "req_host_us_p90": metric(slow(p90_us), "us"),
        "cpu_us_per_req": metric(slow(cpu_us), "us"),
        "setup_s": metric(slow(setup["setup_s"]), "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }


def per_layer_metrics(tracer, traced, untraced, setup, warmup_s,
                      reference) -> dict:
    from layers import UNATTRIBUTED

    ok = sum(b.ok for b in traced) or 1

    def per_req(value):
        return value / ok

    def us(layer):
        return tracer.ns.get(layer, 0) / 1e3 / ok

    counters = {k: sum(b.counters[k] for b in traced)
                for k in traced[0].counters}
    leases = sum(b.leaks["leases"] for b in traced + untraced)
    encodes = counters["fast_encodes"] + counters["fallback_encodes"]
    schedules = tracer.counts["schedules"]
    waits = tracer.queue_waits
    traced_us = statistics.median(b.wall_ns / 1e3 / b.ok
                                  for b in traced if b.ok)
    plain_us = statistics.median(b.wall_ns / 1e3 / b.ok
                                 for b in untraced if b.ok)
    return {
        "simkernel.events_per_req": metric(per_req(counters["events"]),
                                           "count"),
        "simkernel.switches_per_req": metric(per_req(counters["switches"]),
                                             "count"),
        "simkernel.self_us_per_req": metric(us("simkernel"), "us"),
        "simkernel.us_per_switch": metric(
            tracer.ns.get("simkernel", 0) / 1e3
            / max(counters["switches"], 1), "us"),
        "core.self_us_per_req": metric(us("core"), "us"),
        "pipeline.self_us_per_req": metric(us("pipeline"), "us"),
        "courier.self_us_per_req": metric(us("courier"), "us"),
        "courier.fragments_per_req": metric(
            per_req(tracer.counts["fragments"]), "count"),
        "transfer.self_us_per_req": metric(us("transfer"), "us"),
        "transfer.schedule_hit_ratio": metric(
            (schedules - tracer.counts["schedule_misses"]) / schedules
            if schedules else 0.0, "ratio"),
        "cdr.encode_us_per_req": metric(us("cdr.encode"), "us"),
        "cdr.decode_us_per_req": metric(us("cdr.decode"), "us"),
        "cdr.bytes_per_req": metric(per_req(tracer.encoded_bytes), "B"),
        "cdr.bulk_share": metric(
            counters["fast_encodes"] / encodes if encodes else 0.0, "ratio"),
        "cdr.leases_outstanding": metric(leases, "count"),
        "netsim.self_us_per_req": metric(us("netsim"), "us"),
        "netsim.packets_per_req": metric(per_req(counters["packets"]),
                                         "count"),
        "netsim.bytes_per_req": metric(per_req(counters["bytes"]), "B"),
        "runtime.self_us_per_req": metric(us("runtime"), "us"),
        "runtime.messages_per_req": metric(
            per_req(tracer.counts["rts_messages"]), "count"),
        "services.self_us_per_req": metric(us("services"), "us"),
        "services.shed_share": metric(
            counters["shed"] / counters["offers"]
            if counters["offers"] else 0.0, "ratio"),
        "services.throttled": metric(per_req(counters["throttled"]),
                                     "count"),
        "services.queue_wait_vms_p50": metric(
            float(np.median(waits)) * 1e3 if waits else 0.0, "vms"),
        "servant.self_us_per_req": metric(us("servant"), "us"),
        "gc.pause_us_per_req": metric(tracer.gc_ns / 1e3 / ok, "us"),
        "setup.import_ms": metric(statistics.median(setup["import_ms"]),
                                  "ms"),
        "setup.idl_compile_ms": metric(
            statistics.median(setup["idl_compile_ms"]), "ms"),
        "setup.world_ms": metric(statistics.median(setup["world_ms"]), "ms"),
        "setup.warmup_ms": metric(warmup_s * 1e3, "ms"),
        "sim.vtime_s": metric(reference["sim.vtime_s"], "vs"),
        "sim.vlat_us_p50": metric(reference["sim.vlat_us_p50"], "vus"),
        "trace.overhead_pct": metric(100.0 * (traced_us / plain_us - 1.0),
                                     "%"),
        "trace.unattributed_pct": metric(
            100.0 * tracer.ns.get(UNATTRIBUTED, 0) / tracer.wall_ns, "%"),
    }


def pin_to_one_cpu() -> None:
    """Run this process and its set-up probes on one CPU.

    Every simulated request hands control between OS threads several
    times.  Unpinned, whether a handoff stays on one CPU or wakes the
    other one is up to the OS scheduler and the host's vCPU scheduling,
    and it moved p90 latency by 80% and throughput by 35% (IQR/median)
    between runs on a 2-vCPU VM; pinned, both stayed near 10%.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_expected(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED) as fh:
        return json.load(fh)[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no PARDIS sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_batch

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    pin_to_one_cpu()
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    wl = WORKLOADS[args.workload]()
    wl.compile()
    streams = wl.batch_streams(args.seed)

    t0 = perf_ns()
    warm = [run_batch(wl, streams) for _ in range(WARMUP_BATCHES)]
    warmup_s = (perf_ns() - t0) / 1e9
    checker = Checker(warm[0].outcome, load_expected(wl.name, args.seed))
    for i, b in enumerate(warm):
        checker.check(b, f"warm-up batch {i}")

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    untraced, traced = [], []
    gc.collect()
    deadline = perf_ns() + int(args.seconds * 1e9)
    probes.start()
    while True:
        if probes.maybe_run():
            # The probe's interpreter ran on this CPU: warm its caches
            # again with a checked but untimed batch.
            checker.check(run_batch(wl, streams), "re-warm batch")
        b = run_batch(wl, streams)
        checker.check(b, f"batch {len(untraced) + len(traced)}")
        untraced.append(b)
        if tracer is not None:
            tracer.install(wl)
            try:
                b = run_batch(wl, streams, tracer=tracer)
            finally:
                tracer.uninstall()
            checker.check(b, f"traced batch {len(traced)}")
            traced.append(b)
        gc.collect()
        if perf_ns() >= deadline:
            break
    setup = probes.finish()

    if not any(b.ok for b in untraced):
        for why in checker.errors:
            print(f"FAILED {why}")
        print("error: no request succeeded, so there is nothing to time",
              file=sys.stderr)
        return 1
    if tracer is not None:
        tracer.report_missing()
        metrics = per_layer_metrics(tracer, traced, untraced, setup,
                                    warmup_s, warm[0].outcome)
    else:
        metrics = end_to_end_metrics(untraced, setup)

    print(f"workload {wl.name}: seed {args.seed}, {len(untraced)} batches "
          f"of {wl.requests * wl.streams} requests"
          + (f" + {len(traced)} traced" if traced else ""))
    print(f"warm-up: {WARMUP_BATCHES} batches in {warmup_s:.3f} s")
    print(f"simulated outcome: {json.dumps(warm[0].outcome)}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    for why in checker.errors:
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
