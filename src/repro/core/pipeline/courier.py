"""The fragment courier: the ORB's one implementation of distributed-
argument fragment movement.

Before this package existed, the schedule→extract→fragment→send half and
the receive→insert half of distributed-argument transfer were each
implemented twice (client in-args and server out-args; server in-args
and client out-args).  The courier owns all four:

* :meth:`FragmentCourier.send_fragments` — the send loop, used for
  client "in" arguments and server "out" results alike;
* :meth:`FragmentCourier.receive_fragments` — the blocking
  receive/insert loop, used for server "in" arguments;
* :meth:`FragmentCourier.insert_fragment` — the single-fragment insert
  step the client's progress engine pumps for "out" results (fragments
  are matched, not ordered, so the client inserts them as they arrive);
* :func:`redistribute_exchange` — the same extract/insert engine over a
  run-time-system channel, backing
  :meth:`~repro.core.dsequence.DistributedSequence.redistribute`.

``transfer.extract`` and ``transfer.insert`` are called from nowhere
else in the tree.

A fragment's encoding follows from its element type alone.  Numeric
elements (ndarray or list data alike) are written once into a
:class:`~repro.cdr.buffers.PooledBuffer` leased from the world
transport's :class:`~repro.cdr.buffers.BufferPool` and decode by
aliasing, not copying.  Rows of numbers (the element of a nested
numeric sequence) are sized once and written in one pass into an
exact-size ``bytearray``, which is not pooled, and come back as
copies.  Every other element type is CDR-encoded into ``bytes``.  All
of them carry the bytes of the element-wise ``sequence<element>``
stream, so a payload is bytes-like.  The lease rides the
:class:`~repro.core.request.Fragment`; whoever consumes (or discards)
the fragment must call :func:`release_fragment`.

The courier also meters its own traffic: schedule lookups and fragment
payload bytes go to the observer of the world doing the work (its ORB's
``observer``; redistribution reaches that ORB through
``world.services["orb"]``), so two simulations in one process never
share counters.

The program's *dead letters* are here too: :func:`dead_letter` registers
a request whose traffic nobody will consume, :func:`drain_dead_letters`
discards it (``docs/PROTOCOL.md``, "Dead-lettered fragments").
"""

from __future__ import annotations

from ...cdr import CdrDecoder, CdrEncoder, SequenceTC, TypeCode
from ...cdr.decoder import decode_bulk_payload, decode_rows_payload
from ...cdr.encoder import encode_bulk_payload, encode_rows_payload
from ...cdr.typecodes import is_numeric_primitive, is_numeric_rows
from ...runtime.tags import (
    TAG_ARG_FRAGMENT,
    TAG_REPLY_HEADER,
    TAG_RESULT_FRAGMENT,
)
from ..distribution import Distribution
from ..request import Fragment
from .. import transfer as _transfer

__all__ = ["FragmentCourier", "dead_letter", "drain_dead_letters",
           "fragment_payload", "fragment_values", "redistribute_exchange",
           "release_fragment"]

#: Bound on remembered dead request ids per program (oldest forgotten
#: first).  Traffic of a forgotten request can no longer be mis-matched
#: anyway: request ids are never reused.
_DEAD_LETTER_LIMIT = 256
#: The messages a dead request can still have in flight.
_DEAD_TAGS = frozenset((TAG_ARG_FRAGMENT, TAG_RESULT_FRAGMENT,
                        TAG_REPLY_HEADER))


def fragment_payload(element: TypeCode, values, pool):
    """Encode one fragment's element run (``sequence<element>``).

    Numeric elements return a ``PooledBuffer`` lease from ``pool`` (the
    caller owns it); rows of numbers return an exact-size ``bytearray``
    and every other element type ``bytes``.  Both count as fallback.
    """
    if is_numeric_primitive(element):
        return encode_bulk_payload(element, values, pool)
    pool.stats.fallback_encodes += 1
    if is_numeric_rows(element):
        return encode_rows_payload(element, values)
    return CdrEncoder().encode(SequenceTC(element), values).getvalue()


def fragment_values(element: TypeCode, payload, pool):
    """Decode one fragment's element run.

    Numeric payloads come back as a read-only ndarray aliasing the
    payload storage — consume it before releasing the buffer.
    """
    if is_numeric_primitive(element):
        pool.stats.fast_decodes += 1
        return decode_bulk_payload(element, payload)
    pool.stats.fallback_decodes += 1
    if is_numeric_rows(element):
        return decode_rows_payload(element, payload)
    return CdrDecoder(payload).decode(SequenceTC(element))


def release_fragment(frag) -> None:
    """Return a fragment's pooled payload, if it has one (else no-op).

    Safe on ``bytes`` payloads and on already-released leases; every
    fragment consumer and every drain path funnels through here.
    """
    release = getattr(getattr(frag, "payload", None), "release", None)
    if release is not None:
        release()


def dead_letter(ctx, req_id, ranks=None) -> None:
    """Register ``req_id`` as dead on the threads ``ranks`` (default: the
    calling thread) in the program's registry, ``ctx.dead_letters``.
    Only the threads named give it up: a peer may still serve a request
    that this thread rejected."""
    dead = ctx.dead_letters
    dead.setdefault(req_id, set()).update(
        (ctx.rank,) if ranks is None else ranks)
    while len(dead) > _DEAD_LETTER_LIMIT:
        dead.pop(next(iter(dead)))


def drain_dead_letters(ctx) -> None:
    """Discard the messages of dead requests that have reached the calling
    thread's endpoint: argument and result fragments (their leases are
    released and they count in ``orb.dead_fragments`` and
    ``orb.dead_result_fragments``) and late reply headers.  Polling
    neither advances the clock nor schedules an event, so a drain never
    moves virtual time."""
    dead = ctx.dead_letters
    rank = ctx.rank
    orb = ctx.orb
    channel = ctx.endpoint.channel

    def match(env):
        pkt = env.payload
        return (pkt.tag in _DEAD_TAGS
                and rank in dead.get(pkt.body.req_id, ()))

    while True:
        env = channel.poll(match)
        if env is None:
            return
        pkt = env.payload
        if pkt.tag == TAG_ARG_FRAGMENT:
            orb.dead_fragments += 1
        elif pkt.tag == TAG_RESULT_FRAGMENT:
            orb.dead_result_fragments += 1
        release_fragment(pkt.body)


def _schedule(observer, src_dist: Distribution, dst_dist: Distribution):
    """:func:`~repro.core.transfer.cached_schedule`, reported to
    ``observer`` (if any); a cache hit counts as one schedule too."""
    sched = _transfer.cached_schedule(src_dist, dst_dist)
    if observer is not None:
        observer.on_schedule(len(sched), sum(t.size for t in sched))
    return sched


def _insert(frag: Fragment, element: TypeCode, incoming: dict, local_data,
            pool, observer) -> None:
    """Decode one fragment into local storage at the places of its plan
    item (``incoming`` maps source rank to item), then return its pooled
    payload (also on decode/insert failure)."""
    try:
        item = incoming[frag.src_rank]
        values = fragment_values(element, frag.payload, pool)
        if observer is not None:
            observer.on_decode(len(frag.payload))
        _transfer.insert(item, local_data, values)
    finally:
        release_fragment(frag)


class FragmentCourier:
    """Per-thread fragment mover bound to one :class:`PardisContext`."""

    __slots__ = ("ctx", "transport")

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.transport = ctx.orb.world.transport

    # -- sending -----------------------------------------------------------

    def send_fragments(self, *, src_dist: Distribution, dst_dist: Distribution,
                       rank: int, local_data, element: TypeCode, req_id,
                       param: str, endpoints, tag: int,
                       oneway: bool = False) -> int:
        """Ship this thread's overlap of ``src_dist -> dst_dist`` directly
        to the destination threads; returns the bytes injected."""
        observer = self.ctx.orb.observer
        sched = _schedule(observer, src_dist, dst_dist)
        src_addr = self.ctx.endpoint.address
        pool = self.transport.buffer_pool
        nbytes = 0
        for item in sched:
            if item.src_rank != rank:
                continue
            values = _transfer.extract(item, local_data)
            payload = fragment_payload(element, values, pool)
            if observer is not None:
                observer.on_encode(len(payload))
            frag = Fragment(req_id, param, rank, item.intervals, payload)
            frag_nb = frag.nbytes()
            self.transport.send(src_addr, endpoints[item.dst_rank], frag,
                                tag=tag, nbytes=frag_nb, oneway=oneway)
            nbytes += frag_nb
        return nbytes

    # -- receiving ---------------------------------------------------------

    def expected_fragments(self, src_dist: Distribution,
                           dst_dist: Distribution, rank: int) -> dict:
        """The plan items of ``src_dist -> dst_dist`` that target ``rank``,
        keyed by source rank: one fragment is expected from each."""
        sched = _schedule(self.ctx.orb.observer, src_dist, dst_dist)
        return {t.src_rank: t for t in sched if t.dst_rank == rank}

    def receive_fragments(self, *, local_data, element: TypeCode, req_id,
                          param: str, expected: dict, tag: int,
                          reason: str) -> None:
        """Blocking receive/insert loop: collect one fragment of ``param``
        per item of ``expected`` (see :meth:`expected_fragments`) and
        insert each at its item's places."""
        channel = self.ctx.endpoint.channel

        def match(env):
            pkt = env.payload
            return (pkt.tag == tag and pkt.body.req_id == req_id
                    and pkt.body.param == param)

        for _ in range(len(expected)):
            frag = channel.receive(match, reason=reason).payload.body
            self.insert_fragment(expected, local_data, element, frag)

    def insert_fragment(self, expected: dict, local_data, element: TypeCode,
                        frag: Fragment) -> None:
        """Insert one received fragment into local storage at the places
        of its item in ``expected``, then return its pooled payload (also
        on decode/insert failure)."""
        _insert(frag, element, expected, local_data,
                self.transport.buffer_pool, self.ctx.orb.observer)


# ---------------------------------------------------------------------------
# RTS-channel exchange (redistribution)
# ---------------------------------------------------------------------------


def redistribute_exchange(element: TypeCode, src_dist: Distribution,
                          dst_dist: Distribution, rank: int, src_data,
                          dst_data, rts) -> None:
    """Collective fragment exchange over the program's run-time system:
    every thread ships its overlaps of ``src_dist -> dst_dist`` and
    collects what lands on it (the engine behind
    ``DistributedSequence.redistribute``).  Payloads lease from, and
    traffic is reported to, the world the run-time system runs in."""
    from ...runtime.collectives import _next_tag

    world = rts.program.world
    pool = world.transport.buffer_pool
    orb = world.services.get("orb")
    observer = orb.observer if orb is not None else None
    sched = _schedule(observer, src_dist, dst_dist)
    tag = _next_tag(rts)
    for item in _transfer.outgoing(sched, rank):
        values = _transfer.extract(item, src_data)
        payload = fragment_payload(element, values, pool)
        if observer is not None:
            observer.on_encode(len(payload))
        # A Fragment keyed by the exchange's tag, so the receive side
        # shares the ORB's decode/insert/release step.
        rts.send_reserved(item.dst_rank,
                          Fragment(tag, "", rank, item.intervals, payload),
                          tag, nbytes=len(payload))
    for item in _transfer.local_items(sched, rank):
        _transfer.insert(item, dst_data, _transfer.extract(item, src_data))
    incoming = {t.src_rank: t for t in _transfer.incoming(sched, rank)}
    for _ in range(len(incoming)):
        _insert(rts.recv(tag=tag).payload, element, incoming, dst_data,
                pool, observer)
