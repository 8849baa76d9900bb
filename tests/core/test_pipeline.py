"""The protocol pipeline: portable interceptors, service contexts,
fault injection, partial-failure handling, and the request state
machines' failure edges."""

import numpy as np
import pytest

from repro.core import (
    BindingError,
    FaultInjectionInterceptor,
    Future,
    InterceptorChain,
    OrbConfig,
    RequestInterceptor,
    Simulation,
    SystemException,
    resolve_dist_spec,
)
from repro.idl import compile_idl
from repro.tools import attach

IDL = """
    typedef dsequence<double, 100000> vec;
    typedef dsequence<char, 100000> cvec;
    interface pipesvc {
        double total(in vec v);
        long count(in cvec v);
        void scale(in double k, in vec v, out vec w);
        long add(in long a, in long b);
        double poke(in double delay);
        long boom(in long x);
        void pair(in long x, out long a, out long b);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="pipeline_stubs")


def make_impl(mod, fail_ranks=()):
    class Impl(mod.pipesvc_skel):
        def __init__(self, ctx):
            self.ctx = ctx

        def total(self, v):
            from repro.runtime import collectives as coll

            local = float(np.sum(v.owned_data))
            return coll.allreduce(self.ctx.rts, local, lambda a, b: a + b)

        def count(self, v):
            from repro.runtime import collectives as coll

            return coll.allreduce(self.ctx.rts, len(v.owned_data),
                                  lambda a, b: a + b)

        def scale(self, k, v):
            if self.ctx.rank in fail_ranks:
                raise RuntimeError(f"rank {self.ctx.rank} failed")
            from repro.core import DistributedSequence

            return DistributedSequence(v.element, v.dist, v.rank,
                                       np.asarray(v.owned_data) * k)

        def add(self, a, b):
            return a + b

        def poke(self, delay):
            self.ctx.compute(delay)
            return float(delay)

        def boom(self, x):
            raise RuntimeError("kaboom")

        def pair(self, x):
            raise RuntimeError("kaboom")

    return Impl


def build(mod, *, server_np=1, config=None, fail_ranks=()):
    sim = Simulation(config=config)
    impl = make_impl(mod, fail_ranks)

    def server_main(ctx):
        ctx.poa.activate(impl(ctx), "pipes", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=server_np)
    return sim


# ---------------------------------------------------------------------------
# Interceptor chain mechanics
# ---------------------------------------------------------------------------


class Recorder(RequestInterceptor):
    """Appends (tag, point, op) for every interception point it sees."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log
        self.name = f"recorder-{tag}"

    def send_request(self, info):
        self.log.append((self.tag, "send_request", info.op_name))

    def receive_reply(self, info):
        self.log.append((self.tag, "receive_reply", info.op_name))

    def receive_exception(self, info):
        self.log.append((self.tag, "receive_exception", info.op_name))

    def receive_request(self, info):
        self.log.append((self.tag, "receive_request", info.op_name))

    def send_reply(self, info):
        self.log.append((self.tag, "send_reply", info.op_name))


def test_chain_registration_errors():
    chain = InterceptorChain()
    assert len(chain) == 0 and not chain.active
    icept = RequestInterceptor()
    chain.add(icept)
    assert chain.active and icept in chain
    with pytest.raises(BindingError):
        chain.add(icept)
    chain.remove(icept)
    assert not chain.active
    with pytest.raises(BindingError):
        chain.remove(icept)


def test_points_fire_in_registration_order(mod):
    sim = build(mod)
    log = []
    sim.register_interceptor(Recorder("A", log))
    sim.register_interceptor(Recorder("B", log))
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        out["v"] = srv.add(2, 3)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["v"] == 5
    points = {p for _t, p, _o in log}
    assert points == {"send_request", "receive_request", "send_reply",
                      "receive_reply"}
    for point in points:
        tags = [t for t, p, _o in log if p == point]
        assert tags == ["A", "B"]


def test_service_contexts_round_trip_on_the_wire(mod):
    """Request contexts set in send_request surface in receive_request;
    reply contexts set server-side surface in receive_reply."""

    class ContextEcho(RequestInterceptor):
        name = "ctx-echo"

        def __init__(self):
            self.seen = {}

        def send_request(self, info):
            info.service_contexts["trace-id"] = ("trace", info.req_id[-1])

        def receive_request(self, info):
            self.seen["server"] = info.service_contexts.get("trace-id")
            info.reply_service_contexts["server-note"] = "pong"

        def receive_reply(self, info):
            self.seen["client"] = info.reply_service_contexts.get(
                "server-note")

    sim = build(mod)
    echo = sim.register_interceptor(ContextEcho())

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        srv.add(1, 1)

    sim.client(client, host="HOST_1")
    sim.run()
    assert echo.seen["server"] is not None
    assert echo.seen["server"][0] == "trace"
    assert echo.seen["client"] == "pong"


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def test_fault_at_send_request_aborts_before_sending(mod):
    sim = build(mod)
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    rule = faults.inject("send_request", op="add", times=1)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        sent_before = ctx.orb.requests_sent
        with pytest.raises(SystemException, match="injected fault"):
            srv.add(1, 2)
        out["sent_during"] = ctx.orb.requests_sent - sent_before
        out["retry"] = srv.add(1, 2)  # rule exhausted: goes through

    sim.client(client, host="HOST_1")
    sim.run()
    assert rule.fired == 1
    assert out["sent_during"] == 0  # aborted before wire injection
    assert out["retry"] == 3


def test_fault_at_send_request_fails_nonblocking_future(mod):
    sim = build(mod)
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    faults.inject("send_request", op="add", times=1)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        fut = srv.add_nb(1, 2)
        out["resolved"] = fut.resolved()
        try:
            fut.value()
        except SystemException as exc:
            out["error"] = str(exc)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["resolved"] is True
    assert "injected fault" in out["error"]


def test_fault_at_receive_reply_turns_success_into_failure(mod):
    sim = build(mod)
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    faults.inject("receive_reply", op="add", times=1)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        with pytest.raises(SystemException, match="injected fault"):
            srv.add(1, 2)
        out["retry"] = srv.add(2, 2)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["retry"] == 4


def test_fault_at_send_reply_becomes_error_reply(mod):
    sim = build(mod)
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    faults.inject("send_reply", op="add", times=1)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        with pytest.raises(SystemException, match="injected fault"):
            srv.add(1, 2)
        out["retry"] = srv.add(3, 3)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["retry"] == 6


def test_shed_request_dead_letters_orphaned_fragments(mod):
    """A request rejected before argument collection leaves its argument
    fragments in flight; the POA drains them so later requests on the
    same channel are untouched."""
    sim = build(mod)
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    faults.inject("receive_request", op="total", times=1)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        with pytest.raises(SystemException, match="injected fault"):
            srv.total(mod.vec(np.arange(16.0)))
        # The orphaned fragment of the shed request must not disturb
        # subsequent distributed-argument traffic.
        out["second"] = srv.total(mod.vec(np.arange(16.0)))

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["second"] == float(sum(range(16)))
    assert sim.orb.dead_fragments == 1


def test_interceptor_mutating_contexts_on_every_hook(mod):
    """An interceptor that rewrites the context dicts at *every*
    interception point must not corrupt the request, leak state across
    requests, or disturb fragment-bearing (dsequence) operations."""

    class Mutator(RequestInterceptor):
        name = "mutator"

        def __init__(self):
            self.hops = []

        def send_request(self, info):
            info.service_contexts["hop"] = ("client-send",)

        def receive_request(self, info):
            info.service_contexts["hop"] += ("server-recv",)
            info.service_contexts["noise"] = "x" * 64
            info.reply_service_contexts["hops"] = info.service_contexts["hop"]

        def send_reply(self, info):
            # send_reply fires before the reply contexts are copied into
            # the reply packet, so this append must reach the client.
            info.reply_service_contexts["hops"] += ("server-send",)
            info.reply_service_contexts["noise"] = None

        def receive_reply(self, info):
            self.hops.append(info.reply_service_contexts["hops"])
            info.reply_service_contexts.clear()  # must not leak onward

        def receive_exception(self, info):
            self.hops.append(("exception", info.op_name))

    sim = build(mod)
    mut = sim.register_interceptor(Mutator())
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        out["total"] = srv.total(mod.vec(np.arange(16.0)))
        out["add"] = srv.add(4, 5)
        with pytest.raises(SystemException, match="kaboom"):
            srv.boom(1)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out == {"total": float(sum(range(16))), "add": 9}
    full_trip = ("client-send", "server-recv", "server-send")
    assert mut.hops == [full_trip, full_trip, ("exception", "boom")]


def test_deadline_expires_mid_fragment_transfer(mod):
    """A request refused at receive_request while a dsequence argument's
    fragments are still in flight (the path a server-side shed takes):
    the client gets a prompt error reply, long before its own
    request_timeout, and the orphaned fragments are dead-lettered
    (releasing any pooled payload buffers) instead of lingering on the
    channel."""
    sim = build(mod, config=OrbConfig(request_timeout=60.0))
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    rule = faults.inject("receive_request", times=2)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        t0 = ctx.now()
        with pytest.raises(SystemException, match="injected fault"):
            srv.total(mod.vec(np.arange(48.0)))
        # A second (header-only, also refused) request wakes the server
        # loop, which sweeps any fragments that arrived after the shed.
        with pytest.raises(SystemException, match="injected fault"):
            srv.add(1, 1)
        out["elapsed"] = ctx.now() - t0

    sim.client(client, host="HOST_1")
    sim.run()
    assert rule.fired == 2
    assert sim.orb.dead_fragments == 1
    assert sim.world.transport.buffer_pool.stats.outstanding == 0
    assert out["elapsed"] < 1.0


@pytest.mark.parametrize("lane", [True, False],
                         ids=["fast-path-on", "fast-path-off"])
def test_dead_letter_drain_balances_pool_leases(mod, lane):
    """The dead-letter sweep must release the pooled bulk payloads of
    orphaned numeric fragments; char fragments, which CdrEncoder encodes
    to plain bytes without a lease, go through the same drain
    untouched."""
    if lane:
        op, expect = "total", float(sum(range(64)))
    else:
        op, expect = "count", 64
    sim = build(mod)
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    faults.inject("receive_request", op=op, times=1)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        arg = (mod.vec(np.arange(64.0)) if lane
               else mod.cvec(list("abcdefgh" * 8)))
        with pytest.raises(SystemException, match="injected fault"):
            getattr(srv, op)(arg)
        out["second"] = getattr(srv, op)(arg)

    sim.client(client, host="HOST_1")
    sim.run()
    stats = sim.world.transport.buffer_pool.stats
    assert out["second"] == expect
    assert sim.orb.dead_fragments == 1
    assert stats.outstanding == 0  # drained fragment's lease came back
    if lane:
        assert stats.fast_encodes >= 2
    else:
        assert stats.fast_encodes == 0


def test_fault_rule_validation():
    faults = FaultInjectionInterceptor()
    with pytest.raises(ValueError, match="unknown interception point"):
        faults.inject("before_dinner")
    rule = faults.inject("send_request", times=None)
    assert rule.matches("send_request", "anything")
    faults.reset()
    assert not faults.rules


# ---------------------------------------------------------------------------
# SPMD partial failure
# ---------------------------------------------------------------------------


def test_spmd_partial_failure_fails_promptly(mod):
    """A non-root server thread that raises on a fragment-bearing op used
    to leave the client waiting for fragments until request_timeout; the
    supplementary peer_exception reply makes it fail promptly."""
    sim = build(mod, server_np=2, fail_ranks=(1,),
                config=OrbConfig(request_timeout=60.0))
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        v = mod.vec(np.arange(32.0))
        t0 = ctx.now()
        with pytest.raises(SystemException,
                           match="partial failure|failed on"):
            srv.scale(2.0, v)
        out["elapsed"] = ctx.now() - t0

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["elapsed"] < 1.0  # nowhere near the 60 s timeout


def test_spmd_partial_failure_fails_nonblocking_future(mod):
    sim = build(mod, server_np=2, fail_ranks=(1,),
                config=OrbConfig(request_timeout=60.0))
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        w = Future()
        srv.scale_nb(2.0, mod.vec(np.arange(32.0)), w)
        t0 = ctx.now()
        with pytest.raises(SystemException):
            w.value()
        out["elapsed"] = ctx.now() - t0

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["elapsed"] < 1.0


def test_spmd_all_ranks_healthy_still_works(mod):
    sim = build(mod, server_np=2)
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        w = srv.scale(2.0, mod.vec(np.arange(32.0)))
        out["sum"] = float(np.sum(w.gather(ctx.rts)))

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["sum"] == 2.0 * sum(range(32))


# ---------------------------------------------------------------------------
# Timeout completes the request (progress/wait regression)
# ---------------------------------------------------------------------------


def test_timeout_completes_progress(mod):
    """progress(block=True) returns True when the timeout *completes* the
    request (by failing it) — it used to report False, leaving callers
    thinking the request was still in flight."""
    sim = build(mod, config=OrbConfig(request_timeout=0.25))
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        fut = srv.poke_nb(10.0)
        state = next(iter(ctx.pending.values()))
        out["ret"] = state.progress(block=True)
        out["done"] = state.done
        out["failed"] = isinstance(state.error, SystemException)
        out["resolved"] = fut.resolved()

    sim.client(client, host="HOST_1")
    sim.run()
    assert out == {"ret": True, "done": True, "failed": True,
                   "resolved": True}


def test_timeout_raises_through_wait(mod):
    sim = build(mod, config=OrbConfig(request_timeout=0.25))

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        fut = srv.poke_nb(10.0)
        with pytest.raises(SystemException, match="timed out"):
            fut.wait()

    sim.client(client, host="HOST_1")
    sim.run()


def test_timeout_raises_through_blocking_invoke(mod):
    sim = build(mod, config=OrbConfig(request_timeout=0.25))
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        t0 = ctx.now()
        with pytest.raises(SystemException, match="timed out"):
            srv.poke(10.0)
        out["elapsed"] = ctx.now() - t0

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["elapsed"] == pytest.approx(0.25, rel=0.1)


# ---------------------------------------------------------------------------
# Local bypass failure semantics
# ---------------------------------------------------------------------------


def _local_program(mod, body, out):
    """A single program that activates the servant and binds to it, so
    every invocation takes the §4.1 local bypass."""

    def prog(ctx):
        ctx.poa.activate(make_impl(mod)(ctx), "pipes", kind="spmd")
        srv = mod.pipesvc._bind("pipes")
        assert srv._binding.local
        body(ctx, srv)

    return prog


def test_local_bypass_blocking_failure_raises(mod):
    sim = Simulation()
    out = {}

    def body(ctx, srv):
        with pytest.raises(RuntimeError, match="kaboom"):
            srv.boom(1)
        out["ok"] = srv.add(1, 1)
        out["bypasses"] = ctx.orb.local_bypasses

    sim.client(_local_program(mod, body, out), host="HOST_1")
    sim.run()
    assert out["ok"] == 2
    assert out["bypasses"] == 2  # boom + add, both bypassed


def test_local_bypass_nonblocking_failure_fails_futures(mod):
    sim = Simulation()
    out = {}

    def body(ctx, srv):
        fut = srv.boom_nb(1)
        out["resolved"] = fut.resolved()
        try:
            fut.value()
        except RuntimeError as exc:
            out["error"] = str(exc)
        a, b = Future(), Future()
        ret = srv.pair_nb(1, a, b)
        for key, f in (("ret", ret), ("a", a), ("b", b)):
            try:
                f.value()
            except RuntimeError:
                out[key] = "failed"

    sim.client(_local_program(mod, body, out), host="HOST_1")
    sim.run()
    assert out["resolved"] is True
    assert out["error"] == "kaboom"
    assert out["ret"] == out["a"] == out["b"] == "failed"


def test_local_bypass_failure_reaches_observer(mod):
    sim = Simulation()
    obs = attach(sim.world).observer
    out = {}

    def body(ctx, srv):
        with pytest.raises(RuntimeError):
            srv.boom(1)
        out["ok"] = srv.add(3, 4)

    sim.client(_local_program(mod, body, out), host="HOST_1")
    sim.run()
    statuses = sorted(rec[3] for rec in obs.requests.values())
    assert statuses == ["failed", "ok"]
    assert {s.phase for s in obs.spans} == {"local"}


# ---------------------------------------------------------------------------
# Schedule memoization
# ---------------------------------------------------------------------------


def test_cached_schedule_memoizes_and_notifies_observer(mod):
    from repro.core import transfer

    src = resolve_dist_spec("BLOCK", 64, 2)
    dst = resolve_dist_spec("CYCLIC", 64, 2)
    first = transfer.cached_schedule(src, dst)
    again = transfer.cached_schedule(resolve_dist_spec("BLOCK", 64, 2),
                                     resolve_dist_spec("CYCLIC", 64, 2))
    assert again is first  # structurally-equal dists hit the cache
    assert first == transfer.schedule(src, dst)

    # The courier reports every lookup to its world's observer: the
    # second identical request hits the cache and still counts.
    sim = build(mod)
    obs = attach(sim.world).observer
    counts = []

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        for _ in range(2):
            srv.total(mod.vec(np.arange(64.0)))
            counts.append(obs.transfer["schedules"])

    sim.client(client, host="HOST_1")
    sim.run()
    assert counts[0] > 0
    assert counts[1] == 2 * counts[0]


# ---------------------------------------------------------------------------
# finish_request (completion notification)
# ---------------------------------------------------------------------------


class FinishRecorder(RequestInterceptor):
    """Records finish_request firings with the request's final status."""

    name = "finish-recorder"

    def __init__(self, raise_in_finish=False):
        self.finished = []
        self.raise_in_finish = raise_in_finish

    def finish_request(self, info):
        self.finished.append(
            (info.op_name, "failed" if info.exception is not None else "ok"))
        if self.raise_in_finish:
            raise RuntimeError("finish hook exploded")


def test_finish_request_fires_on_success(mod):
    sim = build(mod)
    rec = sim.register_interceptor(FinishRecorder())
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        out["v"] = srv.add(2, 2)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out["v"] == 4
    assert rec.finished == [("add", "ok")]


def test_finish_request_fires_on_servant_failure(mod):
    """A servant that raises mid-dispatch still gets its terminal
    notification, with the exception visible on the info object."""
    sim = build(mod)
    rec = sim.register_interceptor(FinishRecorder())

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        with pytest.raises(SystemException):
            srv.boom(1)

    sim.client(client, host="HOST_1")
    sim.run()
    assert rec.finished == [("boom", "failed")]


def test_finish_request_exceptions_do_not_disturb_the_server(mod):
    """The request is already terminal when finish_request runs, so a
    raising hook is swallowed and later requests proceed normally."""
    sim = build(mod)
    rec = sim.register_interceptor(FinishRecorder(raise_in_finish=True))
    out = {}

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        out["a"] = srv.add(1, 1)
        out["b"] = srv.add(2, 2)  # server loop survived the first finish

    sim.client(client, host="HOST_1")
    sim.run()
    assert (out["a"], out["b"]) == (2, 4)
    assert rec.finished == [("add", "ok"), ("add", "ok")]


def test_swallowed_finish_request_errors_are_counted(mod):
    """Each exception a finish_request hook raises is swallowed and
    counted on the chain, in the observer report and in the metrics
    registry; every request still resolves."""
    from repro.tools.registry import flatten_snapshot

    sim = build(mod)
    rec = sim.register_interceptor(FinishRecorder(raise_in_finish=True))
    handle = attach(sim.world, metrics=True)
    obs, reg = handle.observer, handle.registry
    out = []

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        for i in range(3):
            out.append(srv.add(i, i))
            out.append(sim.orb.interceptors.finish_request_errors)
        with pytest.raises(SystemException):
            srv.boom(1)

    sim.client(client, host="HOST_1")
    sim.run()
    assert out == [0, 1, 2, 2, 4, 3]   # one more per request
    assert len(rec.finished) == 4
    assert sim.orb.interceptors.finish_request_errors == 4
    assert all(r[2] is not None for r in obs.requests.values())
    assert ("interceptor errors: 4 raised in finish_request and swallowed"
            in obs.report())
    flat = flatten_snapshot(reg.snapshot())
    assert flat['pardis_interceptor_errors_total{point="finish_request"}'] == 4


def test_finish_request_fires_when_request_is_shed(mod):
    """Even a request shed in receive_request reaches finish_request —
    the notification is tied to request lifetime, not success."""
    sim = build(mod, config=OrbConfig(request_timeout=60.0))
    faults = sim.register_interceptor(FaultInjectionInterceptor())
    faults.inject("receive_request", op="add", times=1)
    rec = sim.register_interceptor(FinishRecorder())

    def client(ctx):
        srv = mod.pipesvc._bind("pipes")
        with pytest.raises(SystemException, match="injected fault"):
            srv.add(1, 1)

    sim.client(client, host="HOST_1")
    sim.run()
    assert rec.finished == [("add", "failed")]
