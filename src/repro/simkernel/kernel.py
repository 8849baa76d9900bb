"""Deterministic cooperative virtual-time kernel.

Every "computing thread" of a PARDIS client or server runs on a
:class:`SimThread`: a real OS thread that the kernel resumes **one at a
time** in virtual-time order.  Real Python/numpy code executes normally
(and instantaneously in virtual time); simulated durations are charged
explicitly with :meth:`SimKernel.advance`.

Scheduling is a textbook discrete-event loop: the runnable thread with the
earliest ``(wake time, insertion seq)`` runs until it yields by advancing
time, blocking, or finishing.  Because exactly one thread runs at a time
and ties break deterministically, a simulation is reproducible bit-for-bit
— the property every test and benchmark in this repository leans on.

There is no scheduler thread.  The thread that yields or finishes pops
the next event itself and resumes that event's thread directly (a
*handoff*); when the next event is its own, it simply keeps running.
An ``advance`` whose wake time is strictly earlier than every queued
event (and within ``run(until=...)``) does not touch the queue at all:
the thread's clock moves and it carries on, exactly where the event loop
would have resumed it.  The caller of :meth:`SimKernel.run` starts the
first thread and then only waits, to be woken when the run stops: on a
failure, when no non-daemon thread is left, when the queue drains (the
deadlock check), or when the next event lies past ``until``.

A simulation is therefore single-core by construction, and what its OS
threads cost is the handoffs.  So each :class:`SimThread`, before it
first waits for the baton, confines its own OS thread to one CPU,
``kernel.cpu`` (chosen once per kernel: the CPU its constructing thread
ran on, if allowed, else the lowest allowed one), and then sets the
``SCHED_BATCH`` policy.  Unconfined, a handoff may wake the next thread
on another core, and the interpreter's working set moves with it: CLI
runs took 1.6-2.5x as long.  Confined under the default policy, the
woken thread preempts its waker right after the release, while the
waker still holds the GIL, so it can only sleep again until the waker
parks: a two-thread ping-pong on one CPU measured 1.5 voluntary and
1.2 involuntary switches per handoff.  A ``SCHED_BATCH`` thread does not
preempt its waker, and the same handoff is one voluntary switch.  The
policy alone, unconfined, made runs slower, so a thread whose affinity
is refused keeps the default policy; off Linux, or where the platform
refuses a setting, the thread runs as it was started.  The caller of
:meth:`SimKernel.run` keeps its own settings.  OS threads started from a
simulated thread inherit both (a BLAS pool started lazily inside a
servant would share the one CPU); numpy starts its BLAS pool at import,
on the caller, so ``fig2``'s solvers are unaffected.

The run queue is a bare ``heapq`` of ``[time, seq, thread]`` lists.
``seq`` is a per-kernel insertion counter, so list comparison never
reaches the thread slot and same-time wake-ups pop in insertion order.
A thread keeps its one live entry in ``_wake``; when an earlier wake-up
replaces it, the old entry's thread slot is set to None, and the pop
loops in ``_next`` and ``advance`` drop such entries.  States are
compared by identity, and resuming calls the trace hook only when one is
set.  On a 2-vCPU x86 VM (CPython 3.11, the process pinned to one CPU)
the two-thread channel ping-pong of ``benchmarks/bench_infrastructure.py``
costs 5.1-8.5 us per switch (10.4-11.1 us with the earlier queue of
event objects); a bare ping-pong over two raw locks, confined the same
way, costs 3.1 us: that is the floor of a handoff between OS threads.

Each handoff is one release of the resumed thread's ``_go``, a raw
``_thread`` lock created held and used as a binary semaphore; the run's
caller waits on ``_yield_sem``, another such lock.  A raw lock raises
``RuntimeError`` when released unheld, so these handoffs rely on an
invariant: **control is a single baton, and ``_go`` is released only to
give a thread the baton while it does not hold it.**  A thread holds the
baton from the release of its ``_go`` until it hands it on, and it can
only hand it on after its ``acquire`` has consumed that release, so no
second release can come first.  The paths that release are:

* ``_handoff`` runs on the baton holder ``me``.  It releases ``_go`` of
  the thread whose event it popped only when that thread is not ``me``;
  that thread is NEW (parked, or about to park, on its held ``_go``) or
  has yielded (advanced, or blocked and been woken) and is parked the
  same way, so this is one release per acquire.  When the run stops it releases ``_yield_sem`` instead, and
  ``me`` parks on its own ``_go`` or exits: the baton is with the
  caller, and ``_yield_sem`` is released once per ``run()``.
* ``run()`` holds the baton on entry (no simulated thread runs between
  runs) and gives it to the first thread with one release, then takes
  it back with one acquire of ``_yield_sem``.
* ``run(until=...)`` ends with every live thread parked on a held
  ``_go``, and the next ``run()`` starts from that state, so it is the
  case above.
* A failed thread hands the baton back through ``_finish`` →
  ``_handoff``, which sees ``_failed`` and releases ``_yield_sem``; it
  never releases another thread's ``_go``.
* ``_teardown`` runs on the caller, which holds the baton, so every
  unfinished thread is parked on a held ``_go``; each gets exactly one
  release, with ``_kill`` set, and is joined before the next.  A
  killed thread raises ``SimKilled`` at its next yield and skips
  ``_finish``, so it hands nothing on.
"""

from __future__ import annotations

import _thread
import enum
import os
import threading
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .errors import DeadlockError, NotInSimThread, SimError, SimKilled, SimThreadFailed

_current = threading.local()


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"        # has a wake event in the queue
    RUNNING = "running"
    BLOCKED = "blocked"    # waiting to be woken by another thread
    DONE = "done"
    FAILED = "failed"


_FINISHED = (ThreadState.DONE, ThreadState.FAILED)
# Module-level aliases: the hot paths compare states by identity.
_NEW, _READY, _RUNNING, _BLOCKED, _DONE, _FAILED = (
    ThreadState.NEW, ThreadState.READY, ThreadState.RUNNING,
    ThreadState.BLOCKED, ThreadState.DONE, ThreadState.FAILED)


def _held_lock():
    """A raw lock, already held: a binary semaphore at zero."""
    lock = _thread.allocate_lock()
    lock.acquire()
    return lock


def _caller_cpu() -> int | None:
    """The CPU for a new kernel's threads: the one the calling thread runs
    on, if it may run there, else the lowest it may run on; None off
    Linux."""
    if not hasattr(os, "SCHED_BATCH"):
        return None
    try:
        allowed = os.sched_getaffinity(0)
    except OSError:
        return None
    try:
        # Field 39 of the calling thread's stat (not the process's: the
        # caller need not be the main thread); comm may hold spaces.
        with open("/proc/thread-self/stat", "rb") as f:
            cpu = int(f.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = None
    return cpu if cpu in allowed else min(allowed)


def _confine(cpu: int) -> None:
    """Keep the calling OS thread on ``cpu`` under ``SCHED_BATCH``; a
    setting the platform refuses is left as it was."""
    try:
        os.sched_setaffinity(0, (cpu,))
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:
        pass


class SimThread:
    """A simulated computing thread with its own virtual clock.

    ``now`` is the thread's local virtual time; it only moves forward, via
    :meth:`SimKernel.advance` or by being woken at a later time (e.g. when
    a message addressed to it arrives).
    """

    __slots__ = (
        "kernel", "name", "fn", "args", "kwargs", "daemon", "now", "state",
        "wait_reason", "result", "exc", "_go", "_os_thread", "_kill",
        "locals", "_wake",
    )

    def __init__(self, kernel: "SimKernel", fn: Callable, args, kwargs,
                 name: str, start_time: float, daemon: bool) -> None:
        self.kernel = kernel
        self.name = name
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.daemon = daemon
        self.now = float(start_time)
        self.state = _NEW
        self.wait_reason: Optional[str] = None
        self.result: Any = None
        self.exc: Optional[BaseException] = None
        self._go = _held_lock()
        self._kill = False
        self._wake: list | None = None    # live run-queue entry, if any
        self.locals: dict[str, Any] = {}   # scratch space for upper layers
        self._os_thread = threading.Thread(
            target=self._main, name=f"sim:{name}", daemon=True
        )

    # -- lifecycle ---------------------------------------------------------

    def _main(self) -> None:
        _current.thread = self
        if self.kernel.cpu is not None:
            _confine(self.kernel.cpu)
        try:
            self._wait_for_go()
            self.result = self.fn(*self.args, **self.kwargs)
            self.state = _DONE
        except SimKilled:
            self.state = _DONE
        except BaseException as exc:  # noqa: BLE001 - reported to kernel.run
            self.exc = exc
            self.state = _FAILED
        finally:
            # A thread killed at teardown hands nothing on: the run is over.
            if not self._kill:
                self.kernel._finish(self)

    def _wait_for_go(self) -> None:
        self._go.acquire()
        if self._kill:
            raise SimKilled()
        self.state = _RUNNING
        if self.kernel.trace is not None:
            self._resume()

    def _resume(self) -> None:
        # Called only with a trace hook set.  Runs on this thread, so a
        # raising hook fails this thread (reported by run()) instead of
        # the handoff that resumed it.
        self.kernel.trace(f"[{self.now:.6f}] resume {self.name}")

    def _yield(self) -> None:
        """Hand control to the next event's thread and wait to be resumed."""
        if self._kill:
            raise SimKilled()
        if self.kernel._handoff(self) is not self:
            self._wait_for_go()
        else:
            self.state = _RUNNING
            if self.kernel.trace is not None:
                self._resume()

    def __repr__(self) -> str:
        return f"<SimThread {self.name} t={self.now:.6f} {self.state.value}>"


class SimKernel:
    """Discrete-event scheduler for :class:`SimThread` objects.

    Two counters describe a run's scheduling work:

    * ``events_processed`` counts every wake-up: each event popped from the
      queue and each ``advance`` that took the same-thread fast path.  It
      is a property of the simulated schedule, not of how the kernel
      executes it.
    * ``context_switches`` counts only handoffs to a *different* thread,
      i.e. the OS thread switches the schedule actually needed.  It is
      always at most ``events_processed``.

    ``cpu`` is the CPU every simulated thread of this kernel runs on,
    chosen at construction (None where the platform cannot pin threads).
    """

    def __init__(self, trace: Callable[[str], None] | None = None) -> None:
        self._queue: list[list] = []       # the run queue, see above
        self._seq = 0
        self._threads: list[SimThread] = []
        self._yield_sem = _held_lock()     # wakes run()'s caller
        self._running = False
        self._finished = False
        self._until: float | None = None
        self._last_time = 0.0
        self._live = 0                    # non-daemon threads not finished
        self._failed: SimThread | None = None
        self.trace = trace
        self.context_switches = 0
        self.events_processed = 0
        self.cpu = _caller_cpu()

    # -- introspection ------------------------------------------------------

    @staticmethod
    def current() -> SimThread:
        """The :class:`SimThread` the caller is running on."""
        try:
            return _current.thread
        except AttributeError:
            raise NotInSimThread(
                "this operation must run inside a simulated thread") from None

    @staticmethod
    def current_or_none() -> Optional[SimThread]:
        return getattr(_current, "thread", None)

    def now(self) -> float:
        """Virtual time of the calling thread (0.0 from outside the sim)."""
        t = getattr(_current, "thread", None)
        return t.now if t is not None else 0.0

    @property
    def threads(self) -> tuple[SimThread, ...]:
        return tuple(self._threads)

    # -- spawning ------------------------------------------------------------

    def spawn(self, fn: Callable, *args, name: str | None = None,
              start_time: float | None = None, daemon: bool = False,
              **kwargs) -> SimThread:
        """Create a simulated thread and schedule its first wake-up.

        May be called before :meth:`run` or from inside a running simulated
        thread (the child starts no earlier than the parent's ``now``).
        """
        if self._finished:
            raise SimError("kernel already finished; create a new SimKernel")
        parent = self.current_or_none()
        base = parent.now if parent is not None else 0.0
        t0 = base if start_time is None else max(base, float(start_time))
        name = name or f"thread-{len(self._threads)}"
        th = SimThread(self, fn, args, kwargs, name, t0, daemon)
        self._threads.append(th)
        if not daemon:
            self._live += 1
        th._os_thread.start()
        self.schedule(th, t0)
        return th

    # -- scheduling primitives (thread- and kernel-side) ----------------------

    def schedule(self, thread: SimThread, time: float) -> None:
        """Enqueue a wake-up for ``thread`` at virtual ``time``.

        If the thread already has a pending wake-up, the earlier one wins
        (the later is cancelled).
        """
        state = thread.state
        if state is _DONE or state is _FAILED:
            return
        entry = thread._wake
        if entry is not None:
            if entry[0] <= time:
                return
            entry[2] = None
        seq = self._seq
        self._seq = seq + 1
        entry = thread._wake = [time, seq, thread]
        heappush(self._queue, entry)
        if state is _BLOCKED:
            thread.state = _READY

    def advance(self, dt: float) -> None:
        """Consume ``dt`` seconds of virtual time on the calling thread."""
        if dt < 0:
            raise ValueError(f"cannot advance by negative time {dt!r}")
        th = self.current()
        if dt == 0.0:
            return
        t = th.now + dt
        if th._wake is None:
            # Fast path: the wake-up would be the next one popped, so this
            # thread keeps running without queueing it.  Strictly earlier
            # than the head: a queued entry at the same time has a lower
            # seq and must run first.
            queue = self._queue
            while queue and queue[0][2] is None:
                heappop(queue)
            until = self._until
            if ((not queue or t < queue[0][0])
                    and (until is None or t <= until)):
                th.now = t
                if t > self._last_time:
                    self._last_time = t
                self.events_processed += 1
                if self.trace is not None:
                    th._resume()
                return
        self.schedule(th, t)
        th.state = _READY
        th._yield()

    def sleep_until(self, time: float) -> None:
        """Block the calling thread until virtual ``time`` (no-op if past)."""
        th = self.current()
        if time > th.now:
            self.advance(time - th.now)

    def block(self, reason: str = "") -> None:
        """Suspend the calling thread until :meth:`wake` is called on it.

        Used by channels and futures; user code should prefer those
        higher-level operations.
        """
        th = self.current()
        th.state = _BLOCKED
        th.wait_reason = reason
        th._yield()
        th.wait_reason = None

    def wake(self, thread: SimThread, time: float | None = None) -> None:
        """Schedule ``thread`` to resume, no earlier than ``time``.

        The thread's clock jumps to ``max(thread.now, time)`` when it runs —
        e.g. a receiver woken by a message in flight resumes at the message's
        arrival time.
        """
        if time is None:
            waker = getattr(_current, "thread", None)
            time = waker.now if waker is not None else thread.now
        self.schedule(thread, max(time, 0.0))

    # -- dispatch --------------------------------------------------------------

    def _next(self, me: SimThread | None) -> SimThread | None:
        """Pop the next wake-up and return its thread, ready to resume.

        Runs on whichever thread of control holds the schedule: the
        yielding or finishing thread ``me``, or :meth:`run`'s caller when a
        run starts (``me`` is None).  Returns None when the run must stop;
        the queue's head is then a live entry, or the queue is empty.
        """
        queue = self._queue
        until = self._until
        while self._failed is None and self._live:
            if not queue:
                return None
            entry = queue[0]
            th = entry[2]
            if th is None:
                heappop(queue)
                continue
            t = entry[0]
            if until is not None and t > until:
                self._last_time = until
                return None
            heappop(queue)
            th._wake = None
            state = th.state
            if state is _DONE or state is _FAILED:
                continue
            if t > self._last_time:
                self._last_time = t
            if t > th.now:
                th.now = t
            self.events_processed += 1
            if th is not me:
                self.context_switches += 1
            return th
        return None

    def _handoff(self, me: SimThread) -> SimThread | None:
        """Resume the thread after ``me`` directly, or wake :meth:`run`'s
        caller when the run stops; returns the resumed thread."""
        nxt = self._next(me)
        if nxt is None:
            self._yield_sem.release()
        elif nxt is not me:
            nxt._go.release()
        return nxt

    def _finish(self, th: SimThread) -> None:
        if not th.daemon:
            self._live -= 1
        if th.state is _FAILED and self._failed is None:
            self._failed = th
        self._handoff(th)

    # -- main loop -------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drive the simulation; returns the final virtual time reached.

        Raises :class:`SimThreadFailed` if any simulated thread raised, and
        :class:`DeadlockError` if non-daemon threads remain blocked with no
        pending events; either error first kills every simulated thread,
        whatever ``until`` is.  Daemon threads (e.g. server request loops)
        are killed cleanly once all non-daemon threads have finished.

        The calling thread starts the first simulated thread and then
        waits; the simulated threads hand control to one another until the
        run stops.
        """
        if self._running:
            raise SimError("kernel.run() is not reentrant")
        if self._finished:
            raise SimError("kernel already finished; create a new SimKernel")
        self._running = True
        self._until = until
        self._last_time = 0.0
        try:
            first = self._next(None)
            if first is not None:
                first._go.release()
                self._yield_sem.acquire()
            failed = self._failed
            if failed is not None:
                self._failed = None
                failed.state = _DONE
                self._teardown()
                raise SimThreadFailed(failed.name, failed.exc) from failed.exc
            if self._live and not self._queue:
                err = DeadlockError([
                    t for t in self._threads
                    if not t.daemon and t.state not in _FINISHED
                ])
                self._teardown()
                raise err
            return self._last_time
        finally:
            self._running = False
            if until is None:
                self._teardown()

    def close(self) -> None:
        """Kill every still-live simulated thread and join its OS thread.

        For a kernel that is not run to completion: one paused by
        ``run(until=...)``, or never run at all (``spawn`` starts each OS
        thread at once).  Idempotent; a closed kernel neither spawns nor
        runs again.  Raises :class:`SimError` while :meth:`run` is in
        progress."""
        if self._running:
            raise SimError("cannot close a kernel while run() is in progress")
        self._teardown()

    def _teardown(self) -> None:
        """Kill every still-live simulated thread and join its OS thread.

        One thread at a time, in spawn order: each killed thread runs its
        ``finally`` blocks alone, so their side effects happen in the
        same order on every run."""
        self._finished = True
        for t in self._threads:
            if t.state not in _FINISHED:
                t._kill = True
                t._go.release()
            t._os_thread.join(timeout=5.0)
