"""Generative wire-parity tests for pooled bulk fragment payloads.

Numeric fragments always travel as pooled bulk payloads
(`encode_bulk_payload`/`decode_bulk_payload`).  They must be byte-for-byte
the element-wise CDR stream — a ``ulong`` count, the pad to the element
alignment, then one ``put_primitive`` per element — for every numeric
element type and every input layout (non-contiguous slices, reversed
strides, empty arrays), and equal to ``CdrEncoder``'s sequence encoding
for every raw bit pattern (NaN payloads and denormals, generated here
from raw bytes).  The properties hold at the courier level too, for
ndarray and list data alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import (
    BufferPool,
    CdrEncoder,
    SequenceTC,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    decode,
    decode_bulk_payload,
    encode_bulk_payload,
)
from repro.core.pipeline.courier import fragment_payload, fragment_values

NUMERIC_TCS = [TC_OCTET, TC_BOOLEAN, TC_SHORT, TC_USHORT, TC_LONG,
               TC_ULONG, TC_LONGLONG, TC_ULONGLONG, TC_FLOAT, TC_DOUBLE]


@st.composite
def tc_and_array(draw, max_bytes=512):
    """A numeric typecode plus an array reinterpreted from raw bytes —
    covers NaN bit patterns, denormals, and extreme integers for free."""
    tc = draw(st.sampled_from(NUMERIC_TCS))
    raw = draw(st.binary(min_size=0, max_size=max_bytes))
    n = len(raw) // tc.size
    return tc, np.frombuffer(raw[:n * tc.size], dtype=tc.dtype)


@st.composite
def tc_and_strided(draw):
    """Like :func:`tc_and_array` but sliced non-contiguously: arbitrary
    offset, step up to 4, optionally reversed (negative strides)."""
    tc, base = draw(tc_and_array(max_bytes=1024))
    offset = draw(st.integers(min_value=0, max_value=max(0, base.size)))
    step = draw(st.integers(min_value=1, max_value=4))
    arr = base[offset::step]
    if draw(st.booleans()):
        arr = arr[::-1]
    return tc, arr


def on_wire(tc, arr):
    """What the bulk lanes carry for ``arr``: a boolean as 0 or 1, as the
    scalar encoder writes it, and every other bit pattern unchanged."""
    if tc is TC_BOOLEAN:
        return (arr != 0).astype(tc.dtype)
    return arr


def representable(tc, arr):
    """``arr`` as values Python scalars carry exactly: a boolean is 0 or
    1, and a float signalling NaN becomes quiet (CPython's float32 pack
    sets the quiet bit)."""
    if tc is TC_BOOLEAN:
        return on_wire(tc, arr)
    if tc is TC_FLOAT:
        bits = arr.view("<u4").copy()
        bits[np.isnan(arr)] |= 0x00400000
        return bits.view(tc.dtype)
    return arr


def slow_wire(tc, arr) -> bytes:
    """The element-wise reference stream (the count's pad is part of the
    wire format even for an empty sequence: the decoder expects it)."""
    enc = CdrEncoder()
    enc.put_ulong(len(arr))
    enc.align(tc.size)
    for value in arr.tolist():
        enc.put_primitive(tc, value)
    return enc.getvalue()


def sequence_wire(tc, arr) -> bytes:
    return CdrEncoder().encode(SequenceTC(tc), arr).getvalue()


def fast_wire(tc, arr, pool) -> bytes:
    buf = encode_bulk_payload(tc, arr, pool)
    try:
        return bytes(buf.view())
    finally:
        buf.release()


@given(tc_and_array())
def test_fast_encode_matches_slow_wire_bytes(case):
    tc, arr = case
    arr = representable(tc, arr)
    pool = BufferPool()
    assert fast_wire(tc, arr, pool) == slow_wire(tc, arr)
    assert pool.stats.outstanding == 0


@given(tc_and_array())
def test_fast_encode_matches_sequence_encoder_on_raw_bits(case):
    """Every bit pattern, NaN payloads included.  A boolean byte other
    than 0 or 1 goes on the wire as 1 on both bulk lanes, as the
    element-wise stream writes it."""
    tc, arr = case
    wire = fast_wire(tc, arr, BufferPool())
    assert wire == sequence_wire(tc, arr)
    if tc is TC_BOOLEAN:
        assert wire == slow_wire(tc, arr)
        assert set(wire[4:]) <= {0, 1}


@given(tc_and_strided())
def test_fast_encode_matches_slow_on_non_contiguous_input(case):
    tc, arr = case
    arr = representable(tc, arr)
    pool = BufferPool()
    assert fast_wire(tc, arr, pool) == slow_wire(tc, arr)


@given(tc_and_array())
def test_fast_decode_roundtrips_exactly(case):
    """fast-decode(fast-encode(x)) is byte-identical to x as the wire
    carries it (booleans as 0/1), and the decoded array is a read-only
    alias, not a copy."""
    tc, arr = case
    pool = BufferPool()
    buf = encode_bulk_payload(tc, arr, pool)
    out = decode_bulk_payload(tc, buf)
    assert out.dtype == arr.dtype
    assert out.tobytes() == on_wire(tc, arr).tobytes()
    assert not out.flags.writeable
    assert not out.flags.owndata
    buf.release()


@given(tc_and_array())
def test_lanes_decode_each_other(case):
    """Cross-check: ``CdrDecoder`` on a pooled payload and the aliasing
    bulk decode of an element-wise stream both reproduce the values."""
    tc, arr = case
    arr = representable(tc, arr)
    pool = BufferPool()
    buf = encode_bulk_payload(tc, arr, pool)
    via_slow = decode(SequenceTC(tc), buf.tobytes())
    assert np.asarray(via_slow).tobytes() == arr.tobytes()
    buf.release()
    via_fast = decode_bulk_payload(tc, slow_wire(tc, arr))
    assert via_fast.tobytes() == arr.tobytes()


@given(tc_and_array())
def test_courier_lanes_produce_identical_wire_bytes(case):
    """The courier itself: ndarray and list data both become pooled bulk
    payloads carrying the element-wise stream, and fragment_values
    round-trips both."""
    tc, arr = case
    arr = representable(tc, arr)
    pool = BufferPool()
    from_array = fragment_payload(tc, arr, pool)
    from_list = fragment_payload(tc, arr.tolist(), pool)
    assert bytes(from_array.view()) == slow_wire(tc, arr)
    assert bytes(from_list.view()) == slow_wire(tc, arr)
    for buf in (from_array, from_list):
        assert fragment_values(tc, buf, pool).tobytes() == arr.tobytes()
        buf.release()
    assert pool.stats.fast_encodes == pool.stats.fast_decodes == 2
    assert pool.stats.outstanding == 0


@settings(max_examples=25)
@given(st.sampled_from(NUMERIC_TCS),
       st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), max_size=32))
def test_casting_parity_from_float_arrays(tc, values):
    """The pooled payload and ``CdrEncoder``'s sequence encoding apply
    numpy's (unsafe) cast identically when the array dtype differs from
    the element type."""
    arr = np.array(values, dtype="f8")
    pool = BufferPool()
    assert fast_wire(tc, arr, pool) == sequence_wire(tc, arr)


@given(st.sampled_from(NUMERIC_TCS))
def test_empty_array_parity(tc):
    pool = BufferPool()
    arr = np.array([], dtype=tc.dtype)
    wire = fast_wire(tc, arr, pool)
    assert wire == slow_wire(tc, arr)
    out = decode_bulk_payload(tc, wire)
    assert out.size == 0


@given(tc_and_array(max_bytes=96))
def test_pool_reuse_does_not_leak_stale_bytes(case):
    """A recycled bucket may hold stale bytes past the payload length;
    the payload region itself must always be freshly written."""
    tc, arr = case
    pool = BufferPool()
    # Dirty a bucket with a larger payload first.
    big = np.arange(64, dtype=tc.dtype)
    encode_bulk_payload(tc, big, pool).release()
    assert fast_wire(tc, arr, pool) == sequence_wire(tc, arr)
