"""The work the five CLI runs do, pinned to the newest committed BENCH file.

``benchmarks/trajectory.py --smoke --rounds 0`` counts, for each CLI run
at the golden test's sizes, the kernel runs, events, switches, packets,
bytes, remote client requests and run-time-system messages, and hashes
the run's stdout.  This test recomputes those rows in-process and
compares them exactly with the newest ``benchmarks/results/BENCH_*.json``
(by its ``date``, as ``trajectory.newest`` picks it).  A change that
alters the work done must commit a new BENCH file, written by::

    PYTHONPATH=src python benchmarks/trajectory.py --smoke --rounds 0
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "benchmarks" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trajectory = _trajectory()
BASE = trajectory.newest(trajectory.RESULTS / "none")


def _wrapped_methods():
    from repro.core.pipeline.state import ClientRequestState
    from repro.netsim.transport import Transport
    from repro.runtime.interface import RuntimeSystem
    from repro.simkernel.kernel import SimKernel

    return {(cls, name): cls.__dict__[name] for cls, name in (
        (SimKernel, "run"), (Transport, "__init__"), (Transport, "send"),
        (RuntimeSystem, "send"), (RuntimeSystem, "send_reserved"),
        (ClientRequestState, "start"))}


@pytest.mark.parametrize("run", list(trajectory.RUNS["smoke"]))
def test_smoke_counters_match_newest_bench_file(run):
    assert BASE is not None, "no committed BENCH_*.json"
    before = _wrapped_methods()
    row = trajectory.count(trajectory.RUNS["smoke"][run])
    assert _wrapped_methods() == before   # count() unwrapped everything
    expected = BASE["counters"]["smoke"][run]
    keys = (*trajectory.COUNTERS, "stdout_sha256")
    assert {k: row[k] for k in keys} == {k: expected[k] for k in keys}, (
        f"{run}: the work done differs from BENCH_{BASE['sha']}; a change "
        "that means to alter it commits a new BENCH file")
