"""Explicit request state machines for both halves of the ORB.

:class:`ClientRequestState` owns one invocation from flow control to
future resolution, remote or bypassed to a co-located servant (§4.1);
:class:`ServerRequestState` owns one dispatched request from header
receipt to reply emission, and the refusal of a request that admission
control shed.  Both drive fragment movement through
the :class:`~repro.core.pipeline.courier.FragmentCourier` and run the
ORB's portable-interceptor chain at the five CORBA points.

Failure semantics beyond the old engine:

* a request that times out completes (``progress`` returns ``True`` and
  the futures fail) instead of looking forever-incomplete;
* a non-root SPMD server thread whose part of a fragment-bearing request
  fails sends a supplementary ``peer_exception`` reply, so the client
  fails promptly instead of waiting for fragments that will never
  arrive;
* a request that dies with traffic in flight (rejected or shed on the
  server; timed out, or failed with distributed results, on the client)
  is dead-lettered, so its fragments and late replies are drained
  instead of mis-matched by a later request or queued for good;
* the client reads every argument before the request opens, so a bad
  one raises at the call site with nothing sent, and the server lays
  out each distributed result once (its reply carries both layouts),
  rejecting the request if it cannot.
"""

from __future__ import annotations

from typing import Any, Optional

from ...cdr import encode as cdr_encode
from ...runtime.program import PORT_ORB
from ...runtime.tags import (
    TAG_ARG_FRAGMENT,
    TAG_REPLY_HEADER,
    TAG_REQUEST_HEADER,
    TAG_RESULT_FRAGMENT,
)
from ..distribution import Distribution, check_dist_spec, resolve_dist_spec
from ..dsequence import DistributedSequence
from ..errors import (
    BindingError,
    FutureError,
    SystemException,
    TransientException,
    UserException,
)
from ..futures import Future
from ..interfacedef import OpDef
from ..marshal import (
    as_distributed,
    decode_scalars,
    encode_scalars,
    materialize_objrefs,
    scalar_in_specs,
    scalar_result_specs,
    wrap_out,
)
from ..request import (
    OVERLOAD_CONTEXT,
    ReplyHeader,
    RequestHeader,
    STATUS_OK,
    STATUS_PEER_EXC,
    STATUS_SYS_EXC,
    STATUS_USER_EXC,
)
from .courier import FragmentCourier, dead_letter, drain_dead_letters
from .interceptors import ClientRequestInfo, ServerRequestInfo

__all__ = ["ClientRequestState", "ServerRequestState", "split_results"]

#: Virtual cost charged by one non-blocking ``Future.resolved()`` poll.
POLL_COST = 1e-6
#: Virtual cost of a bypassed (same-program) invocation (§4.1:
#: "invocation on a local object becomes a direct call").
LOCAL_CALL_OVERHEAD = 2e-6


def split_results(op: OpDef, result) -> tuple:
    """A servant's return value as one value per result slot (the return
    value first, then each out parameter).  A tuple is unpacked only when
    more than one slot is expected: a single slot's value may itself be
    a tuple (e.g. a union)."""
    nslots = (op.ret_tc is not None) + len(op.out_params)
    if nslots == 0:
        return ()
    if nslots == 1:
        return (result,)
    return result if isinstance(result, tuple) else (result,)


def _encoded(ctx, data: bytes) -> bytes:
    """Report an encoded CDR stream to the world's observer; returns it."""
    observer = ctx.orb.observer
    if observer is not None:
        observer.on_encode(len(data))
    return data


def _decoding(ctx, data: bytes) -> bytes:
    """Report a CDR stream about to be decoded to the world's observer;
    returns it."""
    observer = ctx.orb.observer
    if observer is not None:
        observer.on_decode(len(data))
    return data


def _server_in_dist(in_dists: dict, op: OpDef, param, n: int,
                    nthreads: int) -> Distribution:
    """Server-side layout of a distributed in argument: the registration
    override in ``in_dists`` if the server set one, else the IDL default."""
    spec = in_dists.get((op.name, param.name), param.tc.server_dist)
    return resolve_dist_spec(spec, n, nthreads)


# ---------------------------------------------------------------------------
# Client half
# ---------------------------------------------------------------------------


class ClientRequestState:
    """One request on one client thread, remote or local.

    A remote request goes ``new`` → (``start``) → ``awaiting_reply`` →
    ``collecting`` → ``done``; a oneway request is ``done`` once sent.
    On a local binding (§4.1: "invocation on a local object becomes a
    direct call") ``start`` goes ``new`` → ``calling`` → ``done`` by
    itself: it charges :data:`LOCAL_CALL_OVERHEAD` and calls the
    co-located servant with the in-values as given, with no flow
    control, marshaling, header or fragments, and the request never
    enters ``ctx.pending`` or ``binding.outstanding``.

    Both modes end in the same two edges: :meth:`_succeed` and
    :meth:`_fail`.  Every client-side failure — a ``send_request`` veto,
    a raising servant, a raising ``receive_reply``, an error reply, a
    peer failure, a timeout — reaches :meth:`_fail`.  ``progress()`` is
    the pump the futures' blocking reads drive; it returns ``True``
    exactly when the request is complete, by success or by failure.
    """

    def __init__(self, binding, op: OpDef, in_values: tuple,
                 distributions: Optional[dict],
                 placeholders: tuple = ()) -> None:
        self.binding = binding
        self.ctx = binding.ctx
        self.op = op
        self.in_values = in_values
        self.distributions = distributions or {}
        self.placeholders = tuple(placeholders)
        if len(self.placeholders) > len(op.out_params):
            raise BindingError(
                f"{op.name}: {len(self.placeholders)} future placeholders "
                f"for {len(op.out_params)} out parameters"
            )
        #: taken once: a failover rebind must not turn a request that is
        #: already on the wire into a local one
        self.local = binding.local
        self.chain = self.ctx.orb.interceptors
        self.observer = self.ctx.orb.observer
        self.courier = FragmentCourier(self.ctx)
        self.state = "new"
        self.req_id = None
        self.t0 = 0.0
        self.deadline: Optional[float] = None
        self.info: Optional[ClientRequestInfo] = None
        self.reply: Optional[ReplyHeader] = None
        self.done = False
        self.error: Optional[BaseException] = None
        self.result: Any = None
        self.result_future: Optional[Future] = None
        #: param -> [dist, storage, remaining fragment count]
        self._out_state: dict[str, list] = {}
        #: stashed supplementary peer-failure reply (see request.py)
        self._peer_failure: Optional[ReplyHeader] = None

    # -- emission ----------------------------------------------------------

    def start(self, blocking: bool):
        """Issue the request.  Returns the result (blocking), the result
        future (non-blocking) or ``None`` (oneway); a blocking or oneway
        call raises its failure."""
        if self.local:
            self._call()
        else:
            self._send()
        if blocking or self.op.oneway:
            self.progress(block=True)
            if self.error is not None:
                raise self.error
            return self.result
        return self.result_future

    def _open(self) -> None:
        """Arm the futures, draw the request id and report the start.

        The placeholders are bound before the id is drawn, so a bound or
        settled one fails the call with nothing sent, called or
        observed, and the ones armed before it are disarmed."""
        ctx = self.ctx
        binding = self.binding
        op = self.op
        for i, fut in enumerate(self.placeholders):
            try:
                fut._bind(self._progress_hook)
            except FutureError:
                for armed in self.placeholders[:i]:
                    armed._unbind()
                raise
        self.req_id = req_id = binding.next_req_id()
        self.result_future = Future(label=f"{op.name}#{req_id[-1]}")
        self.result_future._bind(self._progress_hook)
        obs = self.observer
        if obs is not None:
            self.t0 = ctx.now()
            obs.request_started(req_id, op.name, ctx.program.name,
                                binding.client_index, self.t0)
        self.info = ClientRequestInfo(
            ctx=ctx, op=op, req_id=req_id, object_name=binding.ref.name,
            rank=binding.client_index, oneway=op.oneway,
            deadline=self.deadline, local=self.local,
        )

    def _call(self) -> None:
        """The local bypass: a direct call on the co-located servant."""
        ctx = self.ctx
        op = self.op
        ref = self.binding.ref
        ctx.compute(LOCAL_CALL_OVERHEAD)
        record = ctx.poa._lookup_record(ref.name)
        servant = record.servants[ctx.rank if ref.kind == "spmd"
                                  else ref.owner_rank]
        ctx.orb.local_bypasses += 1
        self._open()
        self.state = "calling"
        # The client interception points still frame the direct call
        # (``info.local`` marks that nothing travels on the wire), so
        # context-scoped interceptors see a balanced send/receive pair.
        try:
            if self.chain.active:
                self.chain.send_request(self.info)
            result = getattr(servant, op.name)(*self.in_values)
        except Exception as exc:
            self._fail(exc)
            return
        skip = 1 if op.ret_tc is not None else 0
        self._succeed(result, split_results(op, result)[skip:], "local",
                      self.t0, nbytes=0)

    def _marshal(self) -> tuple:
        """Read the in-values and the out specs: the encoded scalar
        in-arguments, the distributed in-arguments as ``(param,``
        :class:`DistributedSequence` ``)`` pairs with their layouts by
        name, and the out params' layout specs (``_distributions`` wins
        over a placeholder's).  A bad argument raises here, before
        anything is armed, drawn, recorded or sent."""
        op = self.op
        binding = self.binding
        named_in = dict(zip((p.name for p in op.in_params), self.in_values))
        dseqs = []
        layouts = {}
        for param in op.dseq_in_params:
            ds = as_distributed(param, named_in[param.name],
                                binding.client_nthreads, binding.client_index)
            dseqs.append((param, ds))
            layouts[param.name] = ds.dist
        out_dists = {}
        for param in op.dseq_out_params:
            spec = self.distributions.get(param.name)
            if spec is None:
                idx = op.out_params.index(param)
                if idx < len(self.placeholders):
                    spec = self.placeholders[idx].distribution
            if spec is not None:
                out_dists[param.name] = check_dist_spec(spec)
        scalar_args = _encoded(self.ctx, encode_scalars(
            scalar_in_specs(op),
            {p.name: named_in[p.name] for p in op.scalar_in_params},
        ))
        return scalar_args, dseqs, layouts, out_dists

    def _send(self) -> None:
        """Marshal the request and put it on the wire."""
        ctx = self.ctx
        binding = self.binding
        op = self.op
        chain = self.chain
        obs = self.observer
        cfg = ctx.orb.config
        my_idx = binding.client_index
        scalar_args, dseqs, layouts, out_dists = self._marshal()

        # Flow control: cap unreplied requests per binding (the per-bind
        # override wins over the ORB-wide default).
        limit = (binding.max_outstanding if binding.max_outstanding is not None
                 else cfg.max_outstanding)
        while len(binding.outstanding) >= limit:
            binding.outstanding[0].progress(block=True)
        if cfg.request_timeout is not None:
            self.deadline = ctx.now() + cfg.request_timeout
        self._open()
        req_id = self.req_id

        if chain.active:
            try:
                chain.send_request(self.info)
            except Exception as exc:
                self._fail(exc)
                return

        ref = binding.ref
        header = RequestHeader(
            req_id=req_id,
            object_name=ref.name,
            op=op.name,
            kind=ref.kind,
            client_program_id=ctx.program.program_id,
            client_nthreads=binding.client_nthreads,
            reply_to=binding.reply_endpoints(),
            scalar_args=scalar_args,
            dseq_args=layouts,
            out_dists=out_dists,
            oneway=op.oneway,
            service_contexts=self.info.service_contexts,
        )

        t_send0 = (self._span("marshal", self.t0, nbytes=len(scalar_args))
                   if obs is not None else 0.0)

        sent_nbytes = 0
        offload = cfg.communication_threads
        if my_idx == 0:
            hdr_nb = header.nbytes()
            ctx.orb.world.transport.send(
                ctx.endpoint.address, ref.root_endpoint, header,
                tag=TAG_REQUEST_HEADER, nbytes=hdr_nb,
                oneway=op.oneway or offload,
            )
            sent_nbytes += hdr_nb

        # Direct parallel transfer of distributed in-arguments.
        for param, ds in dseqs:
            sent_nbytes += self.courier.send_fragments(
                src_dist=ds.dist,
                dst_dist=_server_in_dist(ref.in_dists, op, param, ds.dist.n,
                                         ref.nthreads),
                rank=my_idx, local_data=ds.owned_data,
                element=param.tc.element, req_id=req_id, param=param.name,
                endpoints=ref.endpoints, tag=TAG_ARG_FRAGMENT,
                oneway=op.oneway or offload,
            )
        ctx.orb.requests_sent += 1

        if obs is not None:
            now = self._span("send", t_send0, nbytes=sent_nbytes)
            if op.oneway:
                obs.request_finished(req_id, ctx.program.name, my_idx,
                                     now, "oneway")
        if op.oneway:
            self.done = True
            self.state = "done"
            return

        self.state = "awaiting_reply"
        ctx.pending[req_id] = self
        binding.outstanding.append(self)

    # -- progress ----------------------------------------------------------

    def _progress_hook(self, block: bool) -> None:
        if not block:
            self.ctx.compute(POLL_COST)
        self.progress(block)

    def progress(self, block: bool) -> bool:
        """Advance this request; returns True when complete (successfully
        or not — a timeout also completes the request)."""
        ep = self.ctx.endpoint
        while not self.done:
            if self.reply is None:
                body = self._take(ep, block, fragments=False)
                if body is None:
                    return self.done
                self._on_reply(body)
                continue
            if not self._pending_params():
                self._finish()
                continue
            body = self._take(ep, block, fragments=True)
            if body is None:
                return self.done
            if isinstance(body, ReplyHeader):
                # late failure notification while collecting fragments
                self._fail(self._build_exception(body))
                continue
            self._on_fragment(body)
        return True

    def _take(self, ep, block: bool, fragments: bool):
        """Next protocol message for this request: its reply header, or —
        in the ``collecting`` state — a result fragment for a pending
        param / a late failure reply.  ``None`` when non-blocking finds
        nothing, or when a blocking wait times out (the request is then
        failed and done)."""

        def match(env):
            pkt = env.payload
            body = pkt.body
            if pkt.tag == TAG_REPLY_HEADER:
                if body.req_id != self.req_id:
                    return False
                # While collecting, only failure notifications matter.
                return not fragments or body.status != STATUS_OK
            if fragments and pkt.tag == TAG_RESULT_FRAGMENT:
                return (body.req_id == self.req_id
                        and body.param in self._pending_params())
            return False

        if block:
            obs = self.observer
            t0 = self.ctx.now() if obs is not None else 0.0
            env = ep.channel.receive(match, reason=f"reply {self.op.name}",
                                     deadline=self.deadline)
            if obs is not None:
                self._span("wait", t0)
            if env is None:
                self._fail(SystemException(
                    f"{self.op.name} timed out after "
                    f"{self.ctx.orb.config.request_timeout} virtual s"
                ))
                return None
        else:
            env = ep.channel.poll(match)
        return env.payload.body if env else None

    def _pending_params(self):
        return [p for p, st in self._out_state.items() if st[2] > 0]

    # -- reply handling ----------------------------------------------------

    def _on_reply(self, reply: ReplyHeader) -> None:
        if reply.status == STATUS_PEER_EXC:
            # Not authoritative — stash it and keep waiting for the
            # root's reply, which decides ok-with-fragments vs error.
            self._peer_failure = reply
            return
        self.reply = reply
        self.info.reply = reply
        if reply.status != STATUS_OK:
            self._fail(self._build_exception(reply))
            return
        if self._peer_failure is not None:
            # Root replied OK but a peer thread failed: its result
            # fragments will never arrive, so fail now.
            self._fail(self._build_exception(self._peer_failure))
            return
        my_idx = self.binding.client_index
        for param in self.op.dseq_out_params:
            layouts = reply.dseq_outs.get(param.name)
            if layouts is None:
                self._fail(SystemException(
                    f"server reply missing layout for out arg {param.name!r}"
                ))
                return
            server_dist, client_dist = layouts
            expected = self.courier.expected_fragments(
                server_dist, client_dist, my_idx)
            storage = DistributedSequence(param.tc.element, client_dist,
                                          my_idx)
            self._out_state[param.name] = [expected, storage, len(expected)]
        self.state = "collecting"

    def _on_fragment(self, frag) -> None:
        state = self._out_state.get(frag.param)
        if state is None or state[2] <= 0:
            raise SystemException(
                f"unexpected fragment for {frag.param!r} of {self.op.name}"
            )
        obs = self.observer
        t0 = self.ctx.now() if obs is not None else 0.0
        expected, storage, _ = state
        param = next(p for p in self.op.dseq_out_params
                     if p.name == frag.param)
        self.courier.insert_fragment(
            expected, storage.owned_data, param.tc.element, frag)
        state[2] -= 1
        if obs is not None:
            self._span("unmarshal", t0, nbytes=len(frag.payload))

    def _build_exception(self, reply: ReplyHeader) -> BaseException:
        if reply.status == STATUS_USER_EXC:
            from ..stubapi import lookup_exception

            repo_id, data = reply.exception
            cls, tc = lookup_exception(repo_id)
            if cls is None:
                return SystemException(
                    f"unknown user exception {repo_id!r} from {self.op.name}"
                )
            from ...cdr import decode as cdr_decode

            return cls(**cdr_decode(tc, _decoding(self.ctx, data)))
        if reply.status == STATUS_PEER_EXC:
            return SystemException(
                f"{self.op.name} failed on a server thread (partial "
                f"failure): {reply.exception}"
            )
        if reply.service_contexts.get(OVERLOAD_CONTEXT):
            # The server shed the request un-executed: safe to retry.
            return TransientException(
                f"{self.op.name} rejected by server overload: "
                f"{reply.exception}"
            )
        return SystemException(
            f"{self.op.name} failed on the server: {reply.exception}"
        )

    # -- completion --------------------------------------------------------

    def _finish(self) -> None:
        """Every awaited reply and fragment is in: decode the result."""
        t0 = self.ctx.now() if self.observer is not None else 0.0
        specs = scalar_result_specs(self.op)
        scalars = decode_scalars(
            specs, _decoding(self.ctx, self.reply.scalar_results))
        materialize_objrefs(specs, scalars, self.ctx)
        values = []
        if self.op.ret_tc is not None:
            values.append(scalars["__return"])
        out_values = []
        for param in self.op.out_params:
            if param.is_distributed:
                out_values.append(
                    wrap_out(param, self._out_state[param.name][1])
                )
            else:
                out_values.append(scalars[param.name])
        values.extend(out_values)
        result = (None if not values
                  else values[0] if len(values) == 1
                  else tuple(values))
        self._succeed(result, out_values, "unmarshal", t0,
                      nbytes=len(self.reply.scalar_results))

    def _succeed(self, result, out_values: list, phase: str, t0: float,
                 nbytes: int) -> None:
        """The success edge: ``receive_reply``, then the ``phase`` span
        from ``t0``, the finish report and the futures."""
        chain = self.chain
        obs = self.observer
        self.result = result
        self.info.result = result
        if chain.active:
            try:
                chain.receive_reply(self.info)
            except Exception as exc:
                self._fail(exc)
                return
        self.done = True
        self.state = "done"
        self._detach()
        if obs is not None:
            now = self._span(phase, t0, nbytes=nbytes)
            obs.request_finished(self.req_id, self.ctx.program.name,
                                 self.binding.client_index, now, "ok")
        self.result_future._resolve(result)
        for fut, val in zip(self.placeholders, out_values):
            fut._resolve(val)

    def _fail(self, exc: BaseException) -> None:
        """The failure edge, the only one: ``receive_exception`` (which
        may replace ``exc``), the finish report (after the local bypass's
        ``"local"`` span) and the futures.  A request that failed on the
        wire is dead-lettered while traffic can still arrive for it: after
        a timeout, or after a reply to an operation with distributed
        results (the other server threads' fragments and replies)."""
        if self.done:
            return
        chain = self.chain
        self.info.exception = exc
        if chain.active:
            try:
                chain.receive_exception(self.info)
            except Exception as replaced:
                exc = replaced
                self.info.exception = exc
        if (self.state in ("awaiting_reply", "collecting")
                and (self.reply is None or self.op.dseq_out_params)):
            dead_letter(self.ctx, self.req_id)
        self.error = exc
        self.done = True
        self.state = "done"
        self._detach()
        obs = self.observer
        if obs is not None:
            now = (self._span("local", self.t0) if self.local
                   else self.ctx.now())
            obs.request_finished(self.req_id, self.ctx.program.name,
                                 self.binding.client_index, now, "failed")
        self.result_future._fail(exc)
        for fut in self.placeholders:
            fut._fail(exc)

    def _detach(self) -> None:
        """Leave the pending tables, then drain this thread's queued
        traffic of dead requests (this one's, if it just died)."""
        ctx = self.ctx
        ctx.pending.pop(self.req_id, None)
        try:
            self.binding.outstanding.remove(self)
        except ValueError:
            pass
        if ctx.dead_letters:
            drain_dead_letters(ctx)

    def _span(self, phase: str, t0: float, nbytes: int = 0) -> float:
        """Report this request's ``phase`` span from ``t0`` to now to the
        observer (callers test that there is one); returns now."""
        ctx = self.ctx
        now = ctx.now()
        self.observer.span(phase, self.op.name, self.req_id,
                           ctx.program.name, self.binding.client_index,
                           t0, now, nbytes=nbytes)
        return now

    def __repr__(self) -> str:
        return (f"<ClientRequestState {self.op.name} req={self.req_id} "
                f"{self.state}>")


# ---------------------------------------------------------------------------
# Server half
# ---------------------------------------------------------------------------


class ServerRequestState:
    """One dispatched request on one server thread.

    ``run()`` walks dispatch → interception → argument collection →
    servant call → reply/result emission; every early exit goes through
    :meth:`_reject`, which owns the error-reply / peer-notification /
    dead-letter policy.  :meth:`shed` refuses a request that admission
    control did not admit.  Every reply leaves through :meth:`_reply`.
    """

    def __init__(self, poa, hdr: RequestHeader) -> None:
        self.poa = poa
        self.ctx = poa.ctx
        self.hdr = hdr
        self.chain = self.ctx.orb.interceptors
        self.observer = self.ctx.orb.observer
        self.courier = FragmentCourier(self.ctx)
        self.record = None
        self.op: Optional[OpDef] = None
        self.servant = None
        self.is_root = True
        self.info: Optional[ServerRequestInfo] = None

    def run(self) -> None:
        try:
            self._run()
        finally:
            # The paired completion point: fires on success, on a
            # receive_request refusal and on servant failure alike, so
            # context-scoped interceptors (tracing) can unwind their
            # per-thread state.
            if self.info is not None and self.chain.active:
                self.chain.finish_request(self.info)

    def _run(self) -> None:
        ctx = self.ctx
        hdr = self.hdr
        obs = self.observer
        t0 = ctx.now() if obs is not None else 0.0
        record = self.record = self.poa._lookup_record(hdr.object_name)
        if record.kind == "spmd":
            if ctx.rank == 0 and not hdr.forwarded and ctx.nprocs > 1:
                fwd = hdr.forwarded_copy()
                for r in range(1, ctx.nprocs):
                    ctx.orb.world.transport.send(
                        ctx.endpoint.address,
                        ctx.program.address(r, PORT_ORB), fwd,
                        tag=TAG_REQUEST_HEADER, nbytes=hdr.nbytes(),
                    )
            self.servant = record.servants[ctx.rank]
            self.is_root = ctx.rank == 0
        else:
            self.servant = record.servants[record.owner_rank]

        op = self.op = self.poa._resolve_op(record.iface, hdr, self.servant)
        refused = wire_exc = None
        if op is None:
            wire_exc = f"no operation {hdr.op!r} on {record.name!r}"
            refused = SystemException(wire_exc)
        else:
            self.info = ServerRequestInfo(
                ctx=ctx, header=hdr, op=op, servant=self.servant,
                is_root=self.is_root,
            )
            if self.chain.active:
                try:
                    self.chain.receive_request(self.info)
                except Exception as exc:
                    refused = exc
        if obs is not None:
            # Covers the servant lookup, (on rank 0) the SPMD forward,
            # operation resolution and the receive_request interceptors.
            t0 = self._span("dispatch", t0)
        if refused is not None:
            self._reject(refused, orphaned=True, wire_exc=wire_exc)
            return

        try:
            args = self._collect_in_args()
        except Exception as exc:  # bad request: report, keep serving
            self._reject(exc, orphaned=True)
            return
        if obs is not None:
            t0 = self._span("recv_args", t0, nbytes=len(hdr.scalar_args))

        try:
            result = getattr(self.servant, op.name)(*args)
        except Exception as exc:
            self._reject(exc, respect_oneway=True)
            return
        finally:
            if obs is not None:
                t0 = self._span("compute", t0)

        self.info.result = result
        if hdr.oneway:
            return
        self._send_results(result)
        if obs is not None:
            self._span("reply", t0)

    def _span(self, phase: str, t0: float, nbytes: int = 0) -> float:
        """Report this request's ``phase`` span from ``t0`` to now to the
        observer (callers test that there is one); returns now."""
        ctx = self.ctx
        now = ctx.now()
        self.observer.span(phase, self.hdr.op, self.hdr.req_id,
                           ctx.program.name, ctx.rank, t0, now,
                           nbytes=nbytes)
        return now

    # -- argument collection -----------------------------------------------

    def _collect_in_args(self) -> list:
        ctx = self.ctx
        hdr = self.hdr
        op = self.op
        specs = scalar_in_specs(op)
        scalars = decode_scalars(specs, _decoding(ctx, hdr.scalar_args))
        materialize_objrefs(specs, scalars, ctx)
        values: dict[str, Any] = dict(scalars)
        for param in op.dseq_in_params:
            client_dist = hdr.dseq_args[param.name]
            server_dist = _server_in_dist(self.record.in_dists, op, param,
                                          client_dist.n, ctx.nprocs)
            storage = DistributedSequence(param.tc.element, server_dist,
                                          ctx.rank)
            self.courier.receive_fragments(
                local_data=storage.owned_data, element=param.tc.element,
                req_id=hdr.req_id, param=param.name,
                expected=self.courier.expected_fragments(
                    client_dist, server_dist, ctx.rank),
                tag=TAG_ARG_FRAGMENT, reason=f"arg {param.name}",
            )
            values[param.name] = wrap_out(param, storage)
        return [values[p.name] for p in op.in_params]

    # -- results -----------------------------------------------------------

    def _send_results(self, result) -> None:
        ctx = self.ctx
        hdr = self.hdr
        op = self.op
        expected = ([] if op.ret_tc is None else ["__return"]) + [
            p.name for p in op.out_params
        ]
        seq = split_results(op, result)
        if len(seq) != len(expected):
            msg = (f"servant {op.name} returned {len(seq)} values, "
                   f"expected {len(expected)}")
            self._reject(SystemException(msg), wire_exc=msg,
                         respect_oneway=True)
            return
        # What the distributed outs leave behind is the scalar results.
        scalars = dict(zip(expected, seq))
        dseq_outs: dict[str, tuple] = {}
        frag_plan = []
        try:
            for param in op.dseq_out_params:
                ds = as_distributed(param, scalars.pop(param.name),
                                    ctx.nprocs, ctx.rank)
                client_dist = resolve_dist_spec(
                    hdr.out_dists.get(param.name, param.tc.client_dist),
                    ds.dist.n, hdr.client_nthreads)
                dseq_outs[param.name] = (ds.dist, client_dist)
                frag_plan.append((param, ds, client_dist))
        except Exception as exc:  # a result it cannot lay out
            self._reject(exc, respect_oneway=True)
            return

        if self.is_root and not self._reply(STATUS_OK,
                                            results=(scalars, dseq_outs)):
            return
        offload = ctx.orb.config.communication_threads
        for param, ds, client_dist in frag_plan:
            self.courier.send_fragments(
                src_dist=ds.dist, dst_dist=client_dist, rank=ctx.rank,
                local_data=ds.owned_data, element=param.tc.element,
                req_id=hdr.req_id, param=param.name, endpoints=hdr.reply_to,
                tag=TAG_RESULT_FRAGMENT, oneway=offload,
            )

    # -- failure policy ----------------------------------------------------

    def shed(self) -> None:
        """Refuse a request that admission control did not admit (only
        rank 0 decides, and it never forwards the header): dead-letter its
        argument fragments on every thread, annotate the trace, and (for
        twoway requests) reply with the overload marker, so the client
        raises :class:`~repro.core.errors.TransientException` and its
        throttle interceptor backs off."""
        ctx = self.ctx
        hdr = self.hdr
        if hdr.dseq_args:
            dead_letter(ctx, hdr.req_id, range(ctx.nprocs))
            drain_dead_letters(ctx)
        if self.observer is not None:
            self._span("shed", ctx.now())
        if not hdr.oneway:
            self._reply(STATUS_SYS_EXC,
                        f"{hdr.op} shed by admission control on "
                        f"{ctx.program.name} (queue full)",
                        contexts={OVERLOAD_CONTEXT: True})

    def _reject(self, exc: BaseException, *, orphaned: bool = False,
                respect_oneway: bool = False,
                wire_exc: Optional[str] = None) -> None:
        """Terminate this request with a failure.

        ``orphaned`` dead-letters the request's argument fragments on this
        thread (the failure happened before/during collection, so
        fragments may be queued or still in flight).  The root replies
        (``user_exception`` for IDL exceptions, ``system_exception``
        otherwise, with ``wire_exc`` as its text if given; pre-dispatch
        failures reply even for oneway requests), and a *non-root* thread
        of a fragment-bearing operation emits a supplementary
        ``peer_exception`` so clients cannot hang on missing fragments.
        """
        hdr = self.hdr
        if self.info is not None:
            self.info.exception = exc
        if orphaned and hdr.dseq_args:
            dead_letter(self.ctx, hdr.req_id)
            drain_dead_letters(self.ctx)
        if respect_oneway and hdr.oneway:
            return
        if not self.is_root:
            if (self.op is not None and self.op.dseq_out_params
                    and not hdr.oneway):
                self._reply(STATUS_PEER_EXC, repr(exc))
        elif isinstance(exc, UserException):
            self._reply(STATUS_USER_EXC, (exc._repo_id, _encoded(
                self.ctx, cdr_encode(exc._typecode, exc._values()))))
        else:
            self._reply(STATUS_SYS_EXC,
                        repr(exc) if wire_exc is None else wire_exc)

    def _reply(self, status: str, exception: Any = None, *,
               results: Optional[tuple] = None,
               contexts: Optional[dict] = None) -> bool:
        """Send one reply to every ``reply_to`` address: ``ok`` (with
        ``results``: the scalar results and the distributed outs'
        layouts), ``user_exception``, ``system_exception`` (a shed passes
        its overload marker in ``contexts``) or ``peer_exception``.  A
        root reply runs ``send_reply`` (if the request was dispatched),
        merges the interceptors' reply contexts and carries the admission
        load report; a peer reply carries neither.  Returns ``False``
        when ``send_reply`` turned an ``ok`` reply into an error reply."""
        ctx = self.ctx
        hdr = self.hdr
        scalar_results = b""
        dseq_outs = None
        contexts = {} if contexts is None else contexts
        if self.is_root:
            info = self.info
            if info is not None:
                if self.chain.active:
                    try:
                        self.chain.send_reply(info)
                    except Exception as exc:
                        if status == STATUS_OK:
                            self._reject(exc, respect_oneway=True)
                            return False
                        # already failing; keep the original error
                contexts.update(info.reply_service_contexts)
            if status == STATUS_OK:
                scalars, dseq_outs = results
                scalar_results = _encoded(ctx, encode_scalars(
                    scalar_result_specs(self.op), scalars))
            if self.poa.admission is not None:
                # Piggyback the load report / backpressure hint
                # (least-loaded selection, client-side throttling).
                self.poa.admission.stamp_reply(contexts)
        reply = ReplyHeader(hdr.req_id, status, scalar_results, dseq_outs,
                            exception, contexts)
        transport = ctx.orb.world.transport
        src = ctx.endpoint.address
        nb = reply.nbytes()
        for addr in hdr.reply_to:
            transport.send(src, addr, reply, tag=TAG_REPLY_HEADER, nbytes=nb)
        return True

    def __repr__(self) -> str:
        return f"<ServerRequestState {self.hdr.op} req={self.hdr.req_id}>"
