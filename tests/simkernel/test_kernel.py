"""Tests for the virtual-time kernel scheduler."""

import random
import sys
import threading
import time

import pytest

from repro.simkernel import (
    DeadlockError,
    SimError,
    SimKernel,
    SimThreadFailed,
    ThreadState,
)


def test_single_thread_runs_to_completion():
    k = SimKernel()
    out = []
    k.spawn(lambda: out.append("ran"), name="t0")
    k.run()
    assert out == ["ran"]


def test_thread_result_is_captured():
    k = SimKernel()
    t = k.spawn(lambda: 42)
    k.run()
    assert t.result == 42
    assert t.state == ThreadState.DONE


def test_advance_moves_local_clock():
    k = SimKernel()
    times = []

    def body():
        times.append(k.now())
        k.advance(2.5)
        times.append(k.now())
        k.advance(0.5)
        times.append(k.now())

    k.spawn(body)
    end = k.run()
    assert times == [0.0, 2.5, 3.0]
    assert end == 3.0


def test_advance_zero_is_noop():
    k = SimKernel()

    def body():
        k.advance(0.0)
        return k.now()

    t = k.spawn(body)
    k.run()
    assert t.result == 0.0


def test_advance_negative_raises():
    k = SimKernel()

    def body():
        k.advance(-1.0)

    k.spawn(body)
    with pytest.raises(SimThreadFailed) as ei:
        k.run()
    assert isinstance(ei.value.original, ValueError)


def test_threads_interleave_in_virtual_time_order():
    k = SimKernel()
    order = []

    def body(name, step):
        for i in range(3):
            k.advance(step)
            order.append((name, k.now()))

    k.spawn(body, "a", 1.0)
    k.spawn(body, "b", 0.4)
    k.run()
    assert order == sorted(order, key=lambda x: x[1])
    assert order[0] == ("b", 0.4)
    assert order[-1] == ("a", 3.0)


def test_same_time_ties_broken_by_spawn_order():
    k = SimKernel()
    order = []
    for name in ["x", "y", "z"]:
        k.spawn(lambda n=name: order.append(n))
    k.run()
    assert order == ["x", "y", "z"]


def test_determinism_across_runs():
    def build():
        k = SimKernel()
        log = []

        def body(name, dts):
            for dt in dts:
                k.advance(dt)
                log.append((name, k.now()))

        k.spawn(body, "a", [0.3, 0.3, 0.1])
        k.spawn(body, "b", [0.2, 0.5, 0.2])
        k.spawn(body, "c", [0.7])
        k.run()
        return log

    assert build() == build()


def test_spawn_inside_sim_thread():
    k = SimKernel()
    log = []

    def child():
        log.append(("child", k.now()))

    def parent():
        k.advance(5.0)
        k.spawn(child, name="child")
        k.advance(1.0)
        log.append(("parent", k.now()))

    k.spawn(parent, name="parent")
    k.run()
    assert ("child", 5.0) in log
    assert ("parent", 6.0) in log


def test_spawn_start_time_in_future():
    k = SimKernel()
    t = k.spawn(lambda: k.now(), start_time=10.0)
    k.run()
    assert t.result == 10.0


def test_spawn_start_time_not_before_parent():
    k = SimKernel()

    def parent():
        k.advance(8.0)
        return k.spawn(lambda: k.now(), start_time=3.0)

    p = k.spawn(parent)
    k.run()
    assert p.result.result == 8.0


def test_exception_propagates_with_thread_name():
    k = SimKernel()

    def boom():
        raise RuntimeError("kapow")

    k.spawn(boom, name="bomber")
    with pytest.raises(SimThreadFailed, match="bomber"):
        k.run()


def test_deadlock_detected():
    k = SimKernel()
    k.spawn(lambda: k.block("waiting forever"), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        k.run()


def test_daemon_thread_does_not_deadlock_run():
    k = SimKernel()
    k.spawn(lambda: k.block("serving"), name="server", daemon=True)
    k.spawn(lambda: k.advance(1.0), name="client")
    assert k.run() == 1.0


def test_block_and_wake_transfer_time():
    k = SimKernel()
    result = {}

    def sleeper():
        k.block("for wake")
        result["woke_at"] = k.now()

    def waker(target):
        k.advance(4.0)
        k.wake(target, 7.0)

    t = k.spawn(sleeper)
    k.spawn(waker, t)
    k.run()
    assert result["woke_at"] == 7.0


def test_wake_never_moves_clock_backwards():
    k = SimKernel()
    result = {}

    def sleeper():
        k.advance(10.0)
        k.block("for wake")
        result["woke_at"] = k.now()

    def waker(target):
        k.advance(11.0)
        k.wake(target, 2.0)

    t = k.spawn(sleeper)
    k.spawn(waker, t)
    k.run()
    assert result["woke_at"] == 10.0


def test_run_until_stops_early():
    k = SimKernel()
    log = []

    def body():
        for _ in range(10):
            k.advance(1.0)
            log.append(k.now())

    k.spawn(body)
    k.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    k.run()  # resume to completion
    assert log[-1] == 10.0


def test_run_not_reentrant():
    k = SimKernel()

    def body():
        k.run()

    k.spawn(body)
    with pytest.raises(SimThreadFailed) as ei:
        k.run()
    assert isinstance(ei.value.original, SimError)


def test_spawn_after_finish_rejected():
    k = SimKernel()
    k.spawn(lambda: None)
    k.run()
    with pytest.raises(SimError):
        k.spawn(lambda: None)


def test_sleep_until():
    k = SimKernel()

    def body():
        k.sleep_until(5.0)
        a = k.now()
        k.sleep_until(2.0)  # in the past: no-op
        return (a, k.now())

    t = k.spawn(body)
    k.run()
    assert t.result == (5.0, 5.0)


def test_many_threads_scale():
    k = SimKernel()
    done = []
    for i in range(100):
        k.spawn(lambda i=i: (k.advance(i * 0.01), done.append(i)))
    k.run()
    assert sorted(done) == list(range(100))
    # increasing advance => completion order equals spawn order
    assert done == list(range(100))


def test_now_outside_sim_is_zero():
    k = SimKernel()
    assert k.now() == 0.0


def test_current_outside_sim_raises():
    with pytest.raises(Exception):
        SimKernel.current()


# -- direct handoff and the same-thread fast path ---------------------------


def _sim_os_threads(k):
    return [t._os_thread for t in k.threads if t._os_thread.is_alive()]


def test_equal_time_tie_resumes_fifo_not_fast_path():
    k = SimKernel()
    order = []

    def early():
        order.append(("early", k.now()))

    def racer():
        # Lands exactly on early's wake-up, which has the lower seq: it
        # must run first, so this advance cannot keep the CPU.
        k.advance(1.0)
        order.append(("racer", k.now()))

    k.spawn(early, name="early", start_time=1.0)
    k.spawn(racer, name="racer")
    assert k.run() == 1.0
    assert order == [("early", 1.0), ("racer", 1.0)]
    assert k.events_processed == 3
    assert k.context_switches == 3


def test_equal_time_ties_between_advancing_threads_stay_fifo():
    k = SimKernel()
    order = []

    def body(name):
        for _ in range(3):
            k.advance(1.0)
            order.append((name, k.now()))

    for name in "abc":
        k.spawn(body, name)
    k.run()
    assert order == [(n, float(t)) for t in (1, 2, 3) for n in "abc"]


def test_fast_path_times_fold_into_run_result():
    k = SimKernel()

    def body():
        for dt in (2.5, 0.5, 0.25):
            k.advance(dt)

    k.spawn(body)
    assert k.run() == 3.25
    # one start-up handoff; the three advances never left the thread
    assert k.events_processed == 4
    assert k.context_switches == 1


def test_fast_path_stops_at_until_and_resumes():
    k = SimKernel()
    log = []

    def body():
        for _ in range(10):
            k.advance(1.0)
            log.append(k.now())

    k.spawn(body)
    assert k.run(until=3.5) == 3.5
    assert log == [1.0, 2.0, 3.0]
    assert k.run(until=3.5) == 3.5      # nothing due yet: stays put
    assert log == [1.0, 2.0, 3.0]
    assert k.run(until=6.0) == 6.0      # a wake-up exactly at until runs
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert k.run() == 10.0
    assert log[-1] == 10.0
    assert not _sim_os_threads(k)


def test_failure_mid_handoff_surfaces_and_leaves_no_threads():
    k = SimKernel()

    def worker(name, fail_at):
        for i in range(10):
            k.advance(0.1)
            if i == fail_at:
                raise KeyError(name)

    k.spawn(worker, "ok", None, name="ok")
    k.spawn(worker, "bad", 4, name="bad")
    k.spawn(lambda: k.block("never woken"), name="waiter")
    k.spawn(lambda: k.block("serving"), name="daemon", daemon=True)
    with pytest.raises(SimThreadFailed, match="bad") as ei:
        k.run()
    assert isinstance(ei.value.original, KeyError)
    assert not _sim_os_threads(k)
    assert not [t for t in threading.enumerate()
                if t.name in ("sim:ok", "sim:bad", "sim:waiter", "sim:daemon")]


def test_deadlock_lists_every_blocked_thread():
    k = SimKernel()
    k.spawn(lambda: k.advance(1.0), name="finisher")
    k.spawn(lambda: k.block("reply A"), name="stuck-a")
    k.spawn(lambda: (k.advance(2.0), k.block("reply B")), name="stuck-b")
    k.spawn(lambda: k.block("serving"), name="server", daemon=True)
    with pytest.raises(DeadlockError) as ei:
        k.run()
    assert [t.name for t in ei.value.blocked] == ["stuck-a", "stuck-b"]
    assert "reply A" in str(ei.value) and "reply B" in str(ei.value)
    assert not _sim_os_threads(k)


def test_daemons_killed_when_last_non_daemon_finishes():
    k = SimKernel()
    ticks = []
    unwound = []

    def poller():
        try:
            while True:
                k.advance(1.0)
                ticks.append(k.now())
        finally:
            unwound.append(True)

    d = k.spawn(poller, name="poller", daemon=True)
    k.spawn(lambda: k.advance(3.5), name="client")
    assert k.run() == 3.5
    assert ticks == [1.0, 2.0, 3.0]
    assert unwound == [True]
    assert d.state == ThreadState.DONE
    assert not _sim_os_threads(k)


def test_teardown_unwinds_killed_threads_in_spawn_order():
    def one_run():
        k = SimKernel()
        order = []

        def server(name):
            try:
                k.block("serving")
            finally:
                order.append(name)

        for name in ("a", "b", "c", "d"):
            k.spawn(server, name, name=name, daemon=True)
        k.spawn(lambda: k.advance(1.0), name="client")
        k.run()
        assert not _sim_os_threads(k)
        return tuple(order)

    assert {one_run() for _ in range(40)} == {("a", "b", "c", "d")}


def test_only_daemons_returns_immediately():
    k = SimKernel()
    d = k.spawn(lambda: k.advance(1.0), name="daemon", daemon=True)
    assert k.run() == 0.0
    assert d.state == ThreadState.DONE
    assert k.events_processed == 0


def test_thread_spawned_inside_a_thread_counts_as_live():
    k = SimKernel()
    log = []

    def child():
        k.advance(5.0)
        log.append(k.now())

    def parent():
        k.advance(1.0)
        k.spawn(child, name="child")
        # the parent finishes first; the run must wait for its child

    k.spawn(parent, name="parent")
    assert k.run() == 6.0
    assert log == [6.0]


def test_blocked_child_spawned_inside_a_thread_is_a_deadlock():
    k = SimKernel()
    k.spawn(lambda: k.spawn(lambda: k.block("orphan"), name="child"),
            name="parent")
    with pytest.raises(DeadlockError, match="child"):
        k.run()


def test_run_from_simulated_thread_raises_and_cleans_up():
    k = SimKernel()

    def body():
        k.advance(1.0)
        k.run()

    k.spawn(body, name="nested")
    with pytest.raises(SimThreadFailed, match="nested") as ei:
        k.run()
    assert isinstance(ei.value.original, SimError)
    assert "not reentrant" in str(ei.value.original)
    assert not _sim_os_threads(k)


def test_one_thread_at_a_time_under_preemption():
    """More OS threads than cores and a tiny switch interval: handoffs
    must still let exactly one simulated thread run at a time, or the
    unlocked read-modify-write below loses updates."""

    def build():
        k = SimKernel()
        shared = [0]
        log = []

        def body(i):
            rng = random.Random(i)
            for _ in range(30):
                seen = shared[0]
                time.sleep(0)           # invite any concurrent thread in
                shared[0] = seen + 1
                log.append(k.now())
                if rng.random() < 0.2:
                    k.block("nap")      # woken by the next thread's step
                else:
                    k.advance(rng.choice((0.001, 0.002, 0.003)))
                k.wake(threads[(i + 1) % len(threads)])

        def sweeper():
            for _ in range(20):
                k.advance(0.01)
                for t in threads:
                    k.wake(t)

        threads = [k.spawn(body, i, name=f"p{i}") for i in range(32)]
        k.spawn(sweeper, name="sweeper")
        k.run()
        return shared[0], log, k.events_processed

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first, second = build(), build()
    finally:
        sys.setswitchinterval(old)
    count, log, _ = first
    assert count == 32 * 30
    assert log == sorted(log)
    assert first == second


def _counter_scenario():
    """A fixed mix of interleaved advances, block/wake, a mid-run spawn,
    equal-time ties and a thread that runs on alone at the end."""
    k = SimKernel()

    def stepper(dts):
        for dt in dts:
            k.advance(dt)

    def sleeper():
        for _ in range(3):
            k.block("for waker")
            k.advance(0.05)

    def waker(target):
        for _ in range(3):
            k.advance(0.3)
            k.wake(target, k.now() + 0.1)

    def spawner():
        k.advance(0.5)
        k.spawn(stepper, [0.1] * 5, name="late")
        k.advance(0.5)

    k.spawn(stepper, [0.1] * 8, name="tens")
    k.spawn(stepper, [0.25, 0.25, 0.5, 0.05, 0.05], name="quarters")
    s = k.spawn(sleeper, name="sleeper")
    k.spawn(waker, s, name="waker")
    k.spawn(spawner, name="spawner")
    k.spawn(stepper, [0.4] * 4, name="tail", start_time=1.0)
    end = k.run()
    return end, k.events_processed, k.context_switches


#: the event loop's result for ``_counter_scenario`` before the fast path
EXPECTED_COUNTER_END = 2.5999999999999996
EXPECTED_EVENTS = 40


def test_counters_pinned():
    """``events_processed`` counts every wake-up, fast-path advances
    included, so it is a property of the schedule: the value below is
    what the event loop without a fast path produced for this scenario.
    ``context_switches`` counts only handoffs to another thread."""
    end, events, switches = _counter_scenario()
    assert end == EXPECTED_COUNTER_END
    assert events == EXPECTED_EVENTS
    assert switches < events
    assert _counter_scenario() == (end, events, switches)


def test_trace_hook_sees_every_wake_up_in_order():
    lines = []
    k = SimKernel(trace=lines.append)

    def body(step):
        for _ in range(2):
            k.advance(step)

    k.spawn(body, 1.0, name="a")
    k.spawn(body, 1.5, name="b")
    k.run()
    assert lines == [
        "[0.000000] resume a", "[0.000000] resume b",
        "[1.000000] resume a", "[1.500000] resume b",
        "[2.000000] resume a", "[3.000000] resume b",
    ]
    assert len(lines) == k.events_processed


def test_raising_trace_hook_fails_the_run_instead_of_hanging():
    calls = []

    def trace(line):
        calls.append(line)
        if len(calls) == 2:
            raise RuntimeError("trace sink full")

    k = SimKernel(trace=trace)
    # the failing line is the one for the handoff from a finished thread
    k.spawn(lambda: None, name="first")
    k.spawn(lambda: k.advance(2.0), name="second")
    with pytest.raises(SimThreadFailed, match="trace sink full"):
        k.run()
    assert not _sim_os_threads(k)


# -- the handoff invariant ---------------------------------------------------
#
# ``_go`` and ``_yield_sem`` are raw locks used as binary semaphores: a
# second release before an acquire raises RuntimeError, on the releasing
# thread.  Each test below drives one of the paths that release them and
# ends with no such error (the kernel's threads report theirs through
# ``threading.excepthook``) and no live ``sim:`` OS thread.


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any OS thread during the test."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    return errors


def _assert_parked(k):
    """Between runs every unfinished thread waits on a held ``_go`` and
    no release of ``_yield_sem`` is pending."""
    live = [t for t in k.threads
            if t.state not in (ThreadState.DONE, ThreadState.FAILED)]
    assert all(t._go.locked() for t in live)
    assert k._yield_sem.locked()


def _assert_clean(k, thread_errors):
    assert thread_errors == []
    assert not _sim_os_threads(k)
    assert not [t for t in threading.enumerate()
                if t.name in {f"sim:{s.name}" for s in k.threads}]


def test_handoff_run_until_then_run(thread_errors):
    k = SimKernel()
    log = []

    def pinger(peer):
        for _ in range(4):
            k.advance(1.0)
            log.append(("ping", k.now()))
            k.wake(peer)

    def ponger():
        for _ in range(4):
            k.block("ping")
            log.append(("pong", k.now()))

    pong = k.spawn(ponger, name="pong")
    k.spawn(pinger, pong, name="ping")
    late = k.spawn(lambda: log.append(("late", k.now())), name="late",
                   start_time=3.0)
    k.spawn(lambda: k.block("serving"), name="server", daemon=True)
    assert k.run(until=2.5) == 2.5
    assert late.state == ThreadState.NEW
    assert pong.state == ThreadState.BLOCKED
    _assert_parked(k)
    assert k.run(until=2.5) == 2.5         # nothing due: no handoff at all
    _assert_parked(k)
    assert k.run() == 4.0
    assert log == [("ping", 1.0), ("pong", 1.0), ("ping", 2.0),
                   ("pong", 2.0), ("late", 3.0), ("ping", 3.0),
                   ("pong", 3.0), ("ping", 4.0), ("pong", 4.0)]
    _assert_clean(k, thread_errors)


def test_handoff_failure_with_new_ready_and_blocked_threads(thread_errors):
    k = SimKernel()
    seen = {}

    def failer():
        k.advance(1.0)
        seen.update((t.name, t.state) for t in k.threads)
        raise ValueError("boom")

    k.spawn(failer, name="failer")
    k.spawn(lambda: k.advance(5.0), name="ready")
    k.spawn(lambda: k.block("never woken"), name="blocked")
    k.spawn(lambda: None, name="new", start_time=2.0)
    k.spawn(lambda: k.block("serving"), name="server", daemon=True)
    with pytest.raises(SimThreadFailed, match="boom"):
        k.run()
    assert seen == {
        "failer": ThreadState.RUNNING, "ready": ThreadState.READY,
        "blocked": ThreadState.BLOCKED, "new": ThreadState.NEW,
        "server": ThreadState.BLOCKED,
    }
    assert all(t.state == ThreadState.DONE for t in k.threads)
    _assert_clean(k, thread_errors)


def test_handoff_deadlock_teardown(thread_errors):
    k = SimKernel()

    def bouncer(peer_box):
        for _ in range(3):
            k.advance(0.5)
            k.wake(peer_box[0])
            k.block("bounce")

    box_a, box_b = [None], [None]
    a = k.spawn(bouncer, box_b, name="a")
    b = k.spawn(bouncer, box_a, name="b")
    box_a[0], box_b[0] = a, b
    k.spawn(lambda: k.block("serving"), name="server", daemon=True)
    with pytest.raises(DeadlockError) as ei:
        k.run()
    assert [t.name for t in ei.value.blocked] == ["b"]   # a finished after b blocked
    assert k.context_switches > 3
    _assert_clean(k, thread_errors)


def test_handoff_threads_spawned_but_never_resumed(thread_errors):
    k = SimKernel()
    daemons = [k.spawn(lambda: k.advance(1.0), name=f"d{i}", daemon=True)
               for i in range(3)]
    assert k.run() == 0.0                   # no non-daemon thread: no run
    assert k.events_processed == 0
    assert all(d.state == ThreadState.DONE for d in daemons)
    _assert_clean(k, thread_errors)

    k = SimKernel()
    log = []
    for i in range(3):
        k.spawn(lambda i=i: log.append(i), name=f"t{i}", start_time=2.0)
    assert k.run(until=1.0) == 1.0          # nothing resumed yet
    assert k.events_processed == 0 and log == []
    _assert_parked(k)
    assert k.run() == 2.0
    assert log == [0, 1, 2]
    _assert_clean(k, thread_errors)
