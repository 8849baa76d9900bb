"""Explicit request state machines for both halves of the ORB.

:class:`ClientRequestState` owns one invocation from marshaling to future
resolution (it replaces the interleaved bodies of the old ``invoke()``
and its reply-progress loop); :class:`ServerRequestState` owns one
dispatched request from header receipt to reply emission (replacing
``POA._handle``/``_send_results``).  Both drive fragment movement through
the :class:`~repro.core.pipeline.courier.FragmentCourier` and run the
ORB's portable-interceptor chain at the five CORBA points.

Failure semantics beyond the old engine:

* a request that times out completes (``progress`` returns ``True`` and
  the futures fail) instead of looking forever-incomplete;
* a non-root SPMD server thread whose part of a fragment-bearing request
  fails sends a supplementary ``peer_exception`` reply, so the client
  fails promptly instead of waiting for fragments that will never
  arrive;
* server-side rejections (unknown operation, bad request, interceptor
  shed) dead-letter the request's orphaned argument fragments so they
  can never be mis-matched by a later request.
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
from ..distribution import Distribution, resolve_dist_spec
from ..dsequence import DistributedSequence
from ..errors import (
    BindingError,
    SystemException,
    TransientException,
    UserException,
)
from ..futures import Future
from ..interfacedef import OpDef
from ..marshal import (
    as_distributed,
    decode_scalars,
    encode_out_request,
    encode_scalars,
    materialize_objrefs,
    resolve_out_dist,
    scalar_in_specs,
    scalar_result_specs,
    wrap_out,
)
from ..repository import ObjectRef
from ..request import (
    OVERLOAD_CONTEXT,
    ReplyHeader,
    RequestHeader,
    STATUS_OK,
    STATUS_PEER_EXC,
    STATUS_SYS_EXC,
    STATUS_USER_EXC,
    build as build_dist,
    describe as describe_dist,
)
from .courier import FragmentCourier, release_fragment
from .interceptors import ClientRequestInfo, ServerRequestInfo

__all__ = ["ClientRequestState", "ServerRequestState", "split_results"]

#: Virtual cost charged by one non-blocking ``Future.resolved()`` poll.
POLL_COST = 1e-6


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


def _server_in_dist(ref: ObjectRef, op: OpDef, param, n: int) -> Distribution:
    """Server-side layout of a distributed in argument: the registration
    override if the server set one, else the IDL default."""
    spec = ref.in_dists.get((op.name, param.name), param.tc.server_dist)
    return resolve_dist_spec(spec, n, ref.nthreads)


# ---------------------------------------------------------------------------
# Client half
# ---------------------------------------------------------------------------


class ClientRequestState:
    """One in-flight request on one client thread.

    States: ``new`` → (``start``) → ``awaiting_reply`` → ``collecting``
    → ``done``; oneway requests and send-time aborts jump straight to
    ``done``.  ``progress()`` is the pump the futures' blocking reads
    drive; it returns ``True`` exactly when the request is complete —
    including completion *by failure* (error reply, peer failure,
    timeout).
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
        self.chain = self.ctx.orb.interceptors
        self.observer = self.ctx.orb.observer
        self.courier = FragmentCourier(self.ctx)
        self.state = "new"
        self.req_id = None
        self.info: Optional[ClientRequestInfo] = None
        self.out_requests: dict[str, tuple] = {}
        self.reply: Optional[ReplyHeader] = None
        self.done = False
        self.error: Optional[BaseException] = None
        self.result: Any = None
        self.result_future: Optional[Future] = None
        #: param -> [dist, storage, remaining fragment count]
        self._out_state: dict[str, list] = {}
        #: stashed supplementary peer-failure reply (see request.py)
        self._peer_failure: Optional[ReplyHeader] = None
        timeout = self.ctx.orb.config.request_timeout
        self.deadline = (self.ctx.now() + timeout
                         if timeout is not None else None)

    # -- emission ----------------------------------------------------------

    def start(self, blocking: bool):
        """Marshal and send the request.  Returns the result (blocking),
        the result future (non-blocking) or ``None`` (oneway)."""
        ctx = self.ctx
        binding = self.binding
        op = self.op
        chain = self.chain
        obs = self.observer
        cfg = ctx.orb.config
        my_idx = binding.client_index
        self.req_id = req_id = binding.next_req_id()

        t_marshal0 = ctx.now() if obs is not None else 0.0
        if obs is not None:
            obs.request_started(req_id, op.name, ctx.program.name, my_idx,
                                t_marshal0)

        # Partition arguments.
        named_in = dict(zip((p.name for p in op.in_params), self.in_values))
        scalar_args = _encoded(ctx, encode_scalars(
            scalar_in_specs(op),
            {p.name: named_in[p.name] for p in op.scalar_in_params},
        ))
        dseq_args: dict[str, DistributedSequence] = {}
        dseq_meta: dict[str, tuple] = {}
        for param in op.dseq_in_params:
            ds = as_distributed(param, named_in[param.name],
                                binding.client_nthreads, my_idx)
            dseq_args[param.name] = ds
            dseq_meta[param.name] = describe_dist(ds.dist)

        out_requests: dict[str, tuple] = {}
        for param in op.dseq_out_params:
            req = self.distributions.get(param.name)
            if req is None:
                idx = op.out_params.index(param)
                if (idx < len(self.placeholders)
                        and self.placeholders[idx].distribution is not None):
                    req = self.placeholders[idx].distribution
            enc = encode_out_request(req)
            if enc is not None:
                out_requests[param.name] = enc
        self.out_requests = out_requests

        self.info = ClientRequestInfo(
            ctx=ctx, op=op, req_id=req_id, object_name=binding.ref.name,
            rank=my_idx, oneway=op.oneway, deadline=self.deadline,
        )
        if chain.active:
            try:
                chain.send_request(self.info)
            except Exception as exc:
                return self._abort(exc, blocking)

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
            dseq_args=dseq_meta,
            out_dists=out_requests,
            oneway=op.oneway,
            service_contexts=self.info.service_contexts,
        )

        t_send0 = ctx.now() if obs is not None else 0.0
        if obs is not None:
            obs.span("marshal", op.name, req_id, ctx.program.name, my_idx,
                     t_marshal0, t_send0, nbytes=len(scalar_args))

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
        for param in op.dseq_in_params:
            ds = dseq_args[param.name]
            sent_nbytes += self.courier.send_fragments(
                src_dist=ds.dist,
                dst_dist=_server_in_dist(ref, op, param, ds.dist.n),
                rank=my_idx, local_data=ds.owned_data,
                element=param.tc.element, req_id=req_id, param=param.name,
                endpoints=ref.endpoints, tag=TAG_ARG_FRAGMENT,
                oneway=op.oneway or offload,
            )
        ctx.orb.requests_sent += 1

        if obs is not None:
            now = ctx.now()
            obs.span("send", op.name, req_id, ctx.program.name, my_idx,
                     t_send0, now, nbytes=sent_nbytes)
            if op.oneway:
                obs.request_finished(req_id, ctx.program.name, my_idx,
                                     now, "oneway")
        if op.oneway:
            self.done = True
            self.state = "done"
            return None

        self._arm_futures()
        self.state = "awaiting_reply"
        ctx.pending[req_id] = self
        self.binding.outstanding.append(self)
        if blocking:
            self.progress(block=True)
            if self.error is not None:
                raise self.error
            return self.result
        return self.result_future

    def _arm_futures(self) -> None:
        self.result_future = Future(label=f"{self.op.name}#{self.req_id[-1]}")
        self.result_future._bind(self._progress_hook)
        for fut in self.placeholders:
            fut._bind(self._progress_hook)

    def _abort(self, exc: BaseException, blocking: bool):
        """``send_request`` vetoed the invocation: nothing was sent."""
        chain = self.chain
        self.info.exception = exc
        try:
            chain.receive_exception(self.info)
        except Exception as replaced:
            exc = replaced
            self.info.exception = exc
        self.done = True
        self.state = "done"
        self.error = exc
        obs = self.observer
        if obs is not None:
            obs.request_finished(self.req_id, self.ctx.program.name,
                                 self.binding.client_index,
                                 self.ctx.now(), "failed")
        if blocking or self.op.oneway:
            raise exc
        fut = Future(label=f"{self.op.name}#{self.req_id[-1]}")
        fut._fail(exc)
        self.result_future = fut
        for ph in self.placeholders:
            ph._fail(exc)
        return fut

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
            if self._next_needed_param() is None:
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
                obs.span("wait", self.op.name, self.req_id,
                         self.ctx.program.name, self.binding.client_index,
                         t0, self.ctx.now())
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

    def _next_needed_param(self):
        pend = self._pending_params()
        return pend[0] if pend else None

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
        p_client = self.binding.client_nthreads
        for param in self.op.dseq_out_params:
            descr = reply.dseq_outs.get(param.name)
            if descr is None:
                self._fail(SystemException(
                    f"server reply missing layout for out arg {param.name!r}"
                ))
                return
            server_dist = build_dist(descr)
            n = server_dist.n
            client_dist = resolve_out_dist(
                self.out_requests.get(param.name), param.tc.client_dist,
                n, p_client,
            )
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
            obs.span("unmarshal", self.op.name, self.req_id,
                     self.ctx.program.name, self.binding.client_index,
                     t0, self.ctx.now(), nbytes=len(frag.payload))

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
        chain = self.chain
        obs = self.observer
        t0 = self.ctx.now() if obs is not None else 0.0
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
        self.result = (None if not values
                       else values[0] if len(values) == 1
                       else tuple(values))
        self.info.result = self.result
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
            now = self.ctx.now()
            obs.span("unmarshal", self.op.name, self.req_id,
                     self.ctx.program.name, self.binding.client_index,
                     t0, now, nbytes=len(self.reply.scalar_results))
            obs.request_finished(self.req_id, self.ctx.program.name,
                                 self.binding.client_index, now, "ok")
        self.result_future._resolve(self.result)
        for fut, val in zip(self.placeholders, out_values):
            fut._resolve(val)

    def _drain_orphaned_results(self) -> None:
        """Discard already-queued result fragments of this failed request
        (releasing any pooled payload buffers).  Best effort: fragments
        still in flight are matched by nothing once the request is
        detached, and their leases are reclaimed by the GC."""
        channel = self.ctx.endpoint.channel
        req_id = self.req_id

        def match(env):
            pkt = env.payload
            return (pkt.tag == TAG_RESULT_FRAGMENT
                    and pkt.body.req_id == req_id)

        while True:
            env = channel.poll(match)
            if env is None:
                break
            release_fragment(env.payload.body)
            self.ctx.orb.dead_result_fragments += 1

    def _fail(self, exc: BaseException) -> None:
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
        self.error = exc
        self.done = True
        self.state = "done"
        self._detach()
        self._drain_orphaned_results()
        obs = self.observer
        if obs is not None:
            obs.request_finished(self.req_id, self.ctx.program.name,
                                 self.binding.client_index,
                                 self.ctx.now(), "failed")
        self.result_future._fail(exc)
        for fut in self.placeholders:
            fut._fail(exc)

    def _detach(self) -> None:
        self.ctx.pending.pop(self.req_id, None)
        try:
            self.binding.outstanding.remove(self)
        except ValueError:
            pass

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
    dead-letter policy.
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
        ctx = self.ctx
        hdr = self.hdr
        chain = self.chain
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
            self.is_root = True

        op = self.op = self.poa._resolve_op(record.iface, hdr, self.servant)
        if op is None:
            if obs is not None:
                obs.span("dispatch", hdr.op, hdr.req_id, ctx.program.name,
                         ctx.rank, t0, ctx.now())
            self._reject(
                SystemException(f"no operation {hdr.op!r} on {record.name!r}"),
                wire_exc=f"no operation {hdr.op!r} on {record.name!r}",
                orphaned=True,
            )
            return

        info = self.info = ServerRequestInfo(
            ctx=ctx, header=hdr, op=op, servant=self.servant,
            is_root=self.is_root,
        )
        try:
            self._run_dispatched(t0)
        finally:
            # The paired completion point: fires on success, shed and
            # servant failure alike, so context-scoped interceptors
            # (tracing) can unwind their per-thread state.
            if chain.active:
                chain.finish_request(info)

    def _run_dispatched(self, t0: float) -> None:
        """Everything between operation resolution and the terminal
        state: interception, argument collection, the servant call, and
        reply/result emission."""
        ctx = self.ctx
        hdr = self.hdr
        op = self.op
        info = self.info
        chain = self.chain
        obs = self.observer
        if chain.active:
            try:
                chain.receive_request(info)
            except UserException as exc:
                if obs is not None:
                    obs.span("dispatch", hdr.op, hdr.req_id,
                             ctx.program.name, ctx.rank, t0, ctx.now())
                self._reject(exc, user=True, orphaned=True)
                return
            except Exception as exc:
                if obs is not None:
                    obs.span("dispatch", hdr.op, hdr.req_id,
                             ctx.program.name, ctx.rank, t0, ctx.now())
                self._reject(exc, orphaned=True)
                return
        if obs is not None:
            # Covers the servant lookup, (on rank 0) the SPMD forward,
            # operation resolution and the receive_request interceptors.
            obs.span("dispatch", hdr.op, hdr.req_id, ctx.program.name,
                     ctx.rank, t0, ctx.now())

        t_args0 = ctx.now() if obs is not None else 0.0
        try:
            args = self._collect_in_args()
        except Exception as exc:  # bad request: report, keep serving
            self._reject(exc, orphaned=True)
            return
        if obs is not None:
            obs.span("recv_args", op.name, hdr.req_id, ctx.program.name,
                     ctx.rank, t_args0, ctx.now(),
                     nbytes=len(hdr.scalar_args))

        t_compute0 = ctx.now() if obs is not None else 0.0
        try:
            result = getattr(self.servant, op.name)(*args)
        except UserException as exc:
            self._reject(exc, user=True, respect_oneway=True)
            return
        except Exception as exc:
            self._reject(exc, respect_oneway=True)
            return
        finally:
            if obs is not None:
                obs.span("compute", op.name, hdr.req_id, ctx.program.name,
                         ctx.rank, t_compute0, ctx.now())

        info.result = result
        if hdr.oneway:
            return
        t_reply0 = ctx.now() if obs is not None else 0.0
        self._send_results(result)
        if obs is not None:
            obs.span("reply", op.name, hdr.req_id, ctx.program.name,
                     ctx.rank, t_reply0, ctx.now())

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
            client_dist = build_dist(hdr.dseq_args[param.name])
            spec = self.record.in_dists.get((op.name, param.name),
                                            param.tc.server_dist)
            server_dist = resolve_dist_spec(spec, client_dist.n, ctx.nprocs)
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
        chain = self.chain
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
        out_values = dict(zip(expected, seq))

        dseq_outs: dict[str, tuple] = {}
        frag_plan = []
        for param in op.dseq_out_params:
            container = out_values[param.name]
            ds = as_distributed(param, container, ctx.nprocs, ctx.rank)
            client_dist = resolve_out_dist(
                hdr.out_dists.get(param.name), param.tc.client_dist,
                ds.dist.n, hdr.client_nthreads,
            )
            dseq_outs[param.name] = describe_dist(ds.dist)
            frag_plan.append((param, ds, client_dist))

        if self.is_root:
            if chain.active:
                try:
                    chain.send_reply(self.info)
                except UserException as exc:
                    self._reject(exc, user=True, respect_oneway=True)
                    return
                except Exception as exc:
                    self._reject(exc, respect_oneway=True)
                    return
            scalar_bytes = _encoded(ctx, encode_scalars(
                scalar_result_specs(op),
                {k: v for k, v in out_values.items()
                 if k == "__return" or not _is_dseq_param(op, k)},
            ))
            contexts = dict(self.info.reply_service_contexts)
            if self.poa.admission is not None:
                # Piggyback the load report / backpressure hint
                # (least-loaded selection, client-side throttling).
                self.poa.admission.stamp_reply(contexts)
            self._send_to_clients(ReplyHeader(
                hdr.req_id, STATUS_OK, scalar_results=scalar_bytes,
                dseq_outs=dseq_outs,
                service_contexts=contexts,
            ))

        offload = ctx.orb.config.communication_threads
        for param, ds, client_dist in frag_plan:
            self.courier.send_fragments(
                src_dist=ds.dist, dst_dist=client_dist, rank=ctx.rank,
                local_data=ds.owned_data, element=param.tc.element,
                req_id=hdr.req_id, param=param.name, endpoints=hdr.reply_to,
                tag=TAG_RESULT_FRAGMENT, oneway=offload,
            )

    # -- failure policy ----------------------------------------------------

    def _reject(self, exc: BaseException, *, user: bool = False,
                orphaned: bool = False, respect_oneway: bool = False,
                wire_exc: Optional[str] = None) -> None:
        """Terminate this request with a failure.

        ``orphaned`` dead-letters the request's argument fragments (the
        failure happened before/during collection, so fragments may be
        queued or still in flight).  The reply policy mirrors the
        pre-pipeline engine: the root replies (``user_exception`` for IDL
        exceptions, ``system_exception`` otherwise; pre-dispatch failures
        reply even for oneway requests), and a *non-root* thread of a
        fragment-bearing operation now emits a supplementary
        ``peer_exception`` so clients cannot hang on missing fragments.
        """
        hdr = self.hdr
        if self.info is not None:
            self.info.exception = exc
        if orphaned and hdr.dseq_args:
            self.poa._dead_letter(hdr.req_id)
        if respect_oneway and hdr.oneway:
            return
        if self.is_root:
            if user:
                reply = ReplyHeader(
                    hdr.req_id, STATUS_USER_EXC,
                    exception=(exc._repo_id, _encoded(
                        self.ctx, cdr_encode(exc._typecode, exc._values()))),
                )
            else:
                reply = ReplyHeader(
                    hdr.req_id, STATUS_SYS_EXC,
                    exception=repr(exc) if wire_exc is None else wire_exc,
                )
            if self.info is not None:
                if self.chain.active:
                    try:
                        self.chain.send_reply(self.info)
                    except Exception:
                        pass  # already failing; keep the original error
                reply.service_contexts.update(
                    self.info.reply_service_contexts)
            if self.poa.admission is not None:
                self.poa.admission.stamp_reply(reply.service_contexts)
            self._send_to_clients(reply)
        elif (self.op is not None and self.op.dseq_out_params
              and not hdr.oneway):
            self._send_to_clients(ReplyHeader(
                hdr.req_id, STATUS_PEER_EXC, exception=repr(exc),
            ))

    def _send_to_clients(self, reply: ReplyHeader) -> None:
        transport = self.ctx.orb.world.transport
        src = self.ctx.endpoint.address
        nb = reply.nbytes()
        for addr in self.hdr.reply_to:
            transport.send(src, addr, reply, tag=TAG_REPLY_HEADER, nbytes=nb)

    def __repr__(self) -> str:
        return f"<ServerRequestState {self.hdr.op} req={self.hdr.req_id}>"


def _is_dseq_param(op: OpDef, name: str) -> bool:
    return any(p.name == name for p in op.dseq_out_params)
