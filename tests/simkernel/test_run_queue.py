"""The kernel's run queue, observed through SimKernel itself: wake-up
order, the earlier of two wake-ups, cancelled entries, deadlock reports
and the two scheduling counters."""

import pytest

from repro.simkernel import Channel, DeadlockError, SimKernel


def test_wake_ups_run_in_time_order():
    k = SimKernel()
    order = []
    for t in (3.0, 1.0, 2.0):
        k.spawn(lambda t=t: order.append((t, k.now())), start_time=t)
    k.run()
    assert order == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


def test_same_time_wake_ups_run_in_insertion_order():
    k = SimKernel()
    order = []

    def sleeper(name):
        k.block("parked")
        order.append(name)

    threads = {n: k.spawn(sleeper, n, name=n) for n in "abc"}

    def waker():
        k.advance(1.0)
        for n in "cab":
            k.wake(threads[n], 2.0)

    k.spawn(waker)
    k.run()
    assert order == ["c", "a", "b"]


def test_earlier_wake_up_wins():
    k = SimKernel()
    seen = []

    def sleeper():
        k.block("parked")
        seen.append(k.now())

    th = k.spawn(sleeper)

    def waker():
        k.wake(th, 5.0)
        k.wake(th, 2.0)    # replaces the wake-up at 5
        k.wake(th, 3.0)    # later than the pending one: ignored

    k.spawn(waker)
    assert k.run() == 2.0
    assert seen == [2.0]


def test_cancelled_entries_never_resume_a_thread():
    k = SimKernel()

    def sleeper():
        k.block("first")
        k.block("second")

    th = k.spawn(sleeper, name="sleeper")
    k.spawn(lambda: (k.wake(th, 5.0), k.wake(th, 2.0)), name="waker")
    # The cancelled entry at 5 is still queued; had it resumed the
    # sleeper, its second block would have returned and the run ended.
    with pytest.raises(DeadlockError, match=r"sleeper \(waiting on second\)"):
        k.run()
    assert th.now == 2.0


def test_cancelled_entries_are_not_counted_as_events():
    k = SimKernel()
    th = k.spawn(lambda: k.block("parked"), name="sleeper")

    def waker():
        for t in (5.0, 4.0, 3.0, 2.0):
            k.wake(th, t)     # each cancels the one before

    k.spawn(waker)
    assert k.run() == 2.0
    # Two first wake-ups and the sleeper's one wake-up at 2.
    assert k.events_processed == 3


def test_events_count_wake_ups_and_switches_count_handoffs():
    k = SimKernel()

    def solo():
        k.advance(1.0)                 # fast path: an event, no switch
        k.wake(k.current(), 2.0)
        k.block("own wake-up")         # popped by this thread: no switch

    k.spawn(solo)
    assert k.run() == 2.0
    # The first resume is the one handoff, from run()'s caller.
    assert (k.events_processed, k.context_switches) == (3, 1)


def test_drained_queue_with_blocked_threads_is_a_deadlock():
    k = SimKernel()
    ch = Channel(k, name="inbox")

    def twice():
        ch.receive(reason="first", deadline=1.0)
        ch.receive(reason="mail")

    k.spawn(lambda: k.block("a reason"), name="x")
    k.spawn(twice, name="y")
    with pytest.raises(DeadlockError) as ei:
        k.run()
    assert [t.name for t in ei.value.blocked] == ["x", "y"]
    # The channel formats its blocking reason again when the reason changes.
    assert "x (waiting on a reason)" in str(ei.value)
    assert "y (waiting on mail on inbox)" in str(ei.value)
