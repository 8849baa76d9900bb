"""A kernel's OS threads share one CPU under ``SCHED_BATCH`` (Linux only).

The kernel resumes exactly one simulated thread at a time, so every
handoff wakes a thread while the waker is about to block.  These tests
check that each simulated thread confines itself to ``kernel.cpu`` with
the batch policy, that the caller of :meth:`SimKernel.run` keeps its own
settings whatever way the run ends, that a platform refusing the
settings changes nothing in the simulation, and that a handoff then
costs no involuntary context switch.
"""

import os
import pathlib
import threading

import pytest

from repro.simkernel import DeadlockError, SimKernel, SimThreadFailed

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="CPU affinity and scheduling policies are Linux-only")


def _settings():
    """The calling OS thread's allowed CPUs and scheduling policy."""
    return os.sched_getaffinity(0), os.sched_getscheduler(0)


def _sim_threads():
    return {t for t in threading.enumerate() if t.name.startswith("sim:")}


def _on_helper_thread(fn):
    """Run ``fn`` on a fresh OS thread and return its result."""
    out = {}

    def helper():
        try:
            out["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["exc"] = exc

    th = threading.Thread(target=helper)
    th.start()
    th.join(timeout=60.0)
    assert not th.is_alive(), "helper thread still running"
    if "exc" in out:
        raise out["exc"]
    return out["result"]


def test_sim_threads_run_on_the_kernel_cpu_under_batch():
    caller = _settings()
    k = SimKernel()
    seen = []

    def body():
        seen.append(_settings())
        k.advance(1.0)
        seen.append(_settings())

    k.spawn(body)
    k.spawn(body)
    k.run()
    assert k.cpu in caller[0]
    assert seen == [({k.cpu}, os.SCHED_BATCH)] * 4
    assert k.context_switches >= 2


def test_kernel_takes_the_cpu_its_constructing_thread_runs_on():
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)

    def build():
        # Confine only this helper thread, not the process: the kernel
        # must read the constructing thread's CPU, not the main thread's.
        os.sched_setaffinity(0, {cpu})
        return SimKernel().cpu

    assert _on_helper_thread(build) == cpu


def test_kernel_takes_the_lowest_allowed_cpu_when_its_own_is_not_allowed(
        monkeypatch):
    beyond = {os.cpu_count() + 3, os.cpu_count() + 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: beyond)
    assert SimKernel().cpu == min(beyond)


def _ends_normally(k):
    k.spawn(lambda: k.advance(1.0))
    k.spawn(lambda: k.advance(2.0))


def _ends_with_a_failed_thread(k):
    def body():
        k.advance(1.0)
        raise ValueError("boom")

    k.spawn(body)
    k.spawn(lambda: k.advance(2.0))


def _ends_in_deadlock(k):
    k.spawn(lambda: k.block("forever"))
    k.spawn(lambda: k.advance(1.0))


@pytest.mark.parametrize("setup, error", [
    (_ends_normally, None),
    (_ends_with_a_failed_thread, SimThreadFailed),
    (_ends_in_deadlock, DeadlockError),
], ids=["normal", "failed-thread", "deadlock"])
def test_caller_keeps_its_settings_and_no_thread_is_left(setup, error):
    caller = _settings()
    before = _sim_threads()
    k = SimKernel()
    setup(k)
    if error is None:
        k.run()
    else:
        with pytest.raises(error):
            k.run()
    assert _settings() == caller
    assert _sim_threads() - before == set()


def _ping_pong_run():
    """A small schedule with handoffs, blocking and a spawn inside a
    thread; returns everything the simulation decides."""
    k = SimKernel()
    log = []
    waiter = {}

    def sleeper():
        waiter["t"] = SimKernel.current()
        k.block("wait for the pinger")
        log.append(("woken", k.now()))

    def pinger(name, step):
        for i in range(20):
            k.advance(step)
            log.append((name, i, k.now()))
        k.wake(waiter["t"], k.now() + 0.5)
        k.spawn(lambda: log.append(("child", k.now())))

    k.spawn(sleeper)
    k.spawn(pinger, "a", 1.0)
    k.spawn(pinger, "b", 1.5)
    end = k.run()
    return end, log, k.events_processed, k.context_switches


def test_refused_settings_change_nothing_in_the_simulation(monkeypatch):
    expected = _ping_pong_run()

    def refuse(*args):
        raise PermissionError("not allowed here")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(os, "sched_setscheduler", refuse)
    caller = _settings()
    seen = []
    k = SimKernel()
    k.spawn(lambda: seen.append(_settings()))
    k.run()
    # The thread carried on with what it inherited from its creator.
    assert seen == [caller]
    assert _ping_pong_run() == expected


def _nonvoluntary_switches():
    for line in pathlib.Path("/proc/thread-self/status").read_text().splitlines():
        if line.startswith("nonvoluntary_ctxt_switches:"):
            return int(line.split()[1])
    raise AssertionError("no nonvoluntary_ctxt_switches line")


@pytest.mark.skipif(not os.path.exists("/proc/thread-self/status"),
                    reason="needs /proc/thread-self/status")
def test_a_handoff_costs_no_involuntary_switch():
    handoffs = 2000

    def ping_pong():
        # As under ``taskset -c``, the simulated threads could at most
        # inherit this one CPU: a woken thread then shares it with its
        # waker whatever the OS scheduler would have done.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        k = SimKernel()
        counts = []

        def body():
            start = _nonvoluntary_switches()
            for _ in range(handoffs // 2):
                k.advance(1.0)
            counts.append(_nonvoluntary_switches() - start)

        k.spawn(body)
        k.spawn(body)
        k.run()
        return k.context_switches, counts

    switches, counts = _on_helper_thread(ping_pong)
    assert switches >= handoffs
    assert sum(counts) / switches < 0.1, counts
