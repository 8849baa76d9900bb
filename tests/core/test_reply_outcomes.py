"""Every way a server thread can answer a request, pinned on the wire.

Each case runs a 2-thread SPMD server (admission control on, so root
replies carry the load report) against a 2-thread collective client,
with an interceptor that adds a reply service context at
``receive_request`` and at ``send_reply``.  For every reply packet each
client endpoint receives, in arrival order, the test pins the status,
the exception text, the service-context keys (in order) and
``nbytes()``.
"""

import numpy as np
import pytest

from repro.core import (
    OrbConfig,
    RequestInterceptor,
    Simulation,
    SystemException,
    TransientException,
    UserException,
)
from repro.idl import compile_idl
from repro.runtime.program import PORT_ORB
from repro.runtime.tags import TAG_REPLY_HEADER
from repro.services import AdmissionController

IDL = """
    typedef dsequence<double, 1024> pvec;
    exception refused { long code; };
    interface replypin {
        double total(in pvec v);
        long plain(in long x) raises (refused);
        long boom(in long x);
        void pair(in long x, out long a, out long b);
        void scale(in double k, in pvec v, out pvec w);
    };
"""

#: The client's view of the interface has one operation the server
#: does not implement.
CLIENT_IDL = IDL.replace(
    "double total(in pvec v);",
    "double total(in pvec v);\n        double ghost(in pvec v);")

LOAD = "pardis.load"
OVERLOAD = "pardis.overload"


@pytest.fixture(scope="module")
def mods():
    return (compile_idl(IDL, module_name="reply_pin_stubs"),
            compile_idl(CLIENT_IDL, module_name="reply_pin_client_stubs"))


class Annotate(RequestInterceptor):
    """Adds a reply context at ``receive_request`` and ``send_reply``,
    and raises at ``fail_at`` (if set) for every request."""

    name = "annotate"

    def __init__(self, fail_at=None):
        self.fail_at = fail_at

    def _maybe_fail(self, point):
        if point == self.fail_at:
            raise RuntimeError(f"{point} refused")

    def receive_request(self, info):
        info.reply_service_contexts["pin.seen"] = info.ctx.rank
        self._maybe_fail("receive_request")

    def send_reply(self, info):
        info.reply_service_contexts["pin.sent"] = True
        self._maybe_fail("send_reply")

    def finish_request(self, info):
        self._maybe_fail("finish_request")


def _run(mods, call, *, fail_at=None, capacity=8, fail_rank=None,
         service_time=0.0):
    """Run ``call(ctx, proxy, mod)`` on every thread of a 2-thread
    collective client; returns {client rank: [reply record, ...]}."""
    mod, client_mod = mods
    sim = Simulation(config=OrbConfig(max_outstanding=4))
    sim.register_interceptor(Annotate(fail_at))

    def server_main(ctx):
        class Impl(mod.replypin_skel):
            def total(self, v):
                return float(np.sum(v.owned_data))

            def plain(self, x):
                ctx.compute(service_time)
                if x < 0:
                    raise mod.refused(code=x)
                return x

            def boom(self, x):
                raise RuntimeError("kaboom")

            def pair(self, x):
                return x  # one value where two are expected

            def scale(self, k, v):
                if ctx.rank == fail_rank:
                    raise RuntimeError(f"rank {ctx.rank} failed")
                from repro.core import DistributedSequence

                return DistributedSequence(v.element, v.dist, v.rank,
                                           np.asarray(v.owned_data) * k)

        ctx.poa.activate(Impl(), "pin", kind="spmd")
        ctx.poa.set_admission(AdmissionController(capacity=capacity))
        ctx.poa.impl_is_ready()

    replies = {}

    def tap(pkt):
        if pkt.tag == TAG_REPLY_HEADER:
            replies.setdefault(pkt.dst, []).append(pkt)

    sim.world.transport.observers.append(tap)

    def client_main(ctx):
        call(ctx, client_mod.replypin._spmd_bind("pin"), client_mod)

    sim.server(server_main, host="HOST_2", nprocs=2)
    client = sim.client(client_main, host="HOST_1", nprocs=2)
    sim.run()
    out = {}
    for rank in range(2):
        pkts = sorted(replies.get(client.address(rank, PORT_ORB), []),
                      key=lambda p: p.arrival)
        out[rank] = [(p.body.status, p.body.exception,
                      tuple(p.body.service_contexts), p.body.nbytes(),
                      p.nbytes) for p in pkts]
    return out


def _vec(mod, ctx):
    return mod.pvec(np.arange(64.0))


def _ok(ctx, srv, mod):
    assert srv.total(_vec(mod, ctx)) == pytest.approx(float(np.sum(
        np.arange(64.0)[:32])))


def _user(ctx, srv, mod):
    with pytest.raises(UserException):
        srv.plain(-7)


def _unknown(ctx, srv, mod):
    with pytest.raises(SystemException, match="no operation 'ghost'"):
        srv.ghost(_vec(mod, ctx))


def _boom(ctx, srv, mod):
    with pytest.raises(SystemException, match="kaboom"):
        srv.boom(1)


def _pair(ctx, srv, mod):
    with pytest.raises(SystemException, match="returned 1 values"):
        srv.pair(1)


def _refused(ctx, srv, mod):
    with pytest.raises(SystemException, match="refused"):
        srv.plain(3)


def _finish_raise(ctx, srv, mod):
    assert srv.plain(3) == 3


def _shed(ctx, srv, mod):
    futs = [srv.plain_nb(i) for i in range(3)]
    outcomes = []
    for f in futs:
        try:
            f.value()
        except TransientException:
            outcomes.append("shed")
        else:
            outcomes.append("ok")
    assert outcomes == ["ok", "ok", "shed"]


def _peer(ctx, srv, mod):
    with pytest.raises(SystemException):
        srv.scale(2.0, _vec(mod, ctx))


OK = "ok"
USER = "user_exception"
SYS = "system_exception"
PEER = "peer_exception"

CASES = {
    "ok": (dict(call=_ok), [
        (OK, None, ("pin.seen", "pin.sent", LOAD), 144, 144),
    ]),
    "user_exception": (dict(call=_user), [
        (USER, ("IDL:refused:1.0", b"\xf9\xff\xff\xff"),
         ("pin.seen", "pin.sent", LOAD), 172, 172),
    ]),
    "unknown_operation": (dict(call=_unknown), [
        (SYS, "no operation 'ghost' on 'pin'", (LOAD,), 117, 117),
    ]),
    "servant_raises": (dict(call=_boom), [
        (SYS, "RuntimeError('kaboom')", ("pin.seen", "pin.sent", LOAD),
         158, 158),
    ]),
    "wrong_result_count": (dict(call=_pair), [
        (SYS, "servant pair returned 1 values, expected 2",
         ("pin.seen", "pin.sent", LOAD), 178, 178),
    ]),
    # The error reply runs send_reply too, so its context travels.
    "receive_request_raises": (
        dict(call=_refused, fail_at="receive_request"), [
            (SYS, "RuntimeError('receive_request refused')",
             ("pin.seen", "pin.sent", LOAD), 175, 175),
        ]),
    "send_reply_raises": (dict(call=_refused, fail_at="send_reply"), [
        (SYS, "RuntimeError('send_reply refused')",
         ("pin.seen", "pin.sent", LOAD), 170, 170),
    ]),
    "finish_request_raises": (
        dict(call=_finish_raise, fail_at="finish_request"), [
            (OK, None, ("pin.seen", "pin.sent", LOAD), 140, 140),
        ]),
    # No interceptor ran on a shed request: only the overload marker
    # and the admission stamps travel.
    "admission_shed": (
        dict(call=_shed, capacity=1, service_time=1e-2), [
            (OK, None, ("pin.seen", "pin.sent", LOAD), 140, 140),
            (SYS, "plain shed by admission control on prog0 (queue full)",
             (OVERLOAD, LOAD, "pardis.backpressure"), 189, 189),
            (OK, None, ("pin.seen", "pin.sent", LOAD), 140, 140),
        ]),
    # Peer replies carry neither interceptor contexts nor the stamp.
    "peer_exception": (dict(call=_peer, fail_rank=1), [
        (PEER, "RuntimeError('rank 1 failed')", (), 93, 93),
        (OK, None, ("pin.seen", "pin.sent", LOAD), 160, 160),
    ]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_reply_outcome_is_pinned(mods, case):
    kwargs, expected = CASES[case]
    got = _run(mods, **kwargs)
    assert got == {0: expected, 1: expected}
