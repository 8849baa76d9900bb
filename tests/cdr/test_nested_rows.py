"""Nested numeric sequences (``sequence<sequence<number>>``): every row is
one numeric run, and the stream must equal the element-wise reference
byte for byte, errors included.  The one-shot codec and the fragment
payload codec (``encode_rows_payload``/``decode_rows_payload``) share
one rows writer and one rows reader; both are checked here."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cdr import (
    BufferPool,
    CdrDecoder,
    CdrEncoder,
    MarshalError,
    SequenceTC,
    StructTC,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    decode,
    encode,
)
from repro.cdr.decoder import decode_rows_payload
from repro.cdr.encoder import encode_rows_payload
from repro.core.pipeline.courier import fragment_payload, fragment_values

ELEMENTS = [TC_DOUBLE, TC_FLOAT, TC_SHORT, TC_OCTET, TC_LONG, TC_LONGLONG]


def reference_stream(row_tc, rows, enc=None) -> bytes:
    """Element-wise stream: the row count, then per row its count, the
    pad to the element's alignment (part of the wire format even for an
    empty row) and each element on its own; appended to ``enc`` if
    given."""
    element = row_tc.element
    enc = CdrEncoder() if enc is None else enc
    enc.put_ulong(len(rows))
    for row in rows:
        enc.put_ulong(len(row))
        enc.align(element.size)
        for value in row:
            enc.put_primitive(element, value)
    return enc.getvalue()


def reference_rows(row_tc, wire):
    """Row-by-row reader: the row count, then one numeric run per row,
    each checked against the row bound.  Returns the rows, or the
    ``MarshalError`` message the first bad row raises."""
    dec = CdrDecoder(wire)
    try:
        rows = []
        for _ in range(dec.get_ulong()):
            row = dec.get_bulk(row_tc.element)
            if row_tc.bound is not None and row.size > row_tc.bound:
                raise MarshalError(
                    f"sequence of {row.size} exceeds bound {row_tc.bound}")
            rows.append(row.tolist())
        return rows
    except MarshalError as exc:
        return str(exc)


def payload_rows(row_tc, wire):
    """``decode_rows_payload``'s rows, or the ``MarshalError`` message."""
    try:
        return [r.tolist() for r in decode_rows_payload(row_tc, wire)]
    except MarshalError as exc:
        return str(exc)


def assert_rows_codecs(row_tc, rows):
    """Both codecs write the element-wise stream and read it back."""
    tc = SequenceTC(row_tc)
    want = reference_stream(row_tc, rows)
    wire = encode(tc, rows)
    assert wire == want
    payload = encode_rows_payload(row_tc, rows)
    assert type(payload) is bytearray and payload == want
    for out in (decode(tc, wire), decode_rows_payload(row_tc, payload)):
        assert len(out) == len(rows)
        for got, row in zip(out, rows):
            assert got.dtype == row_tc.element.dtype and got.ndim == 1
            np.testing.assert_array_equal(
                got, np.asarray(row, dtype=got.dtype))


@st.composite
def matrices(draw):
    """A numeric row type and rows of it, as ndarrays or lists: ragged,
    or all of one length (a regular block)."""
    element = draw(st.sampled_from(ELEMENTS))
    values = st.integers(0, 255)
    if element in (TC_DOUBLE, TC_FLOAT):
        values = values | st.integers(-512, 512).map(lambda k: k / 2)
    length = draw(st.none() | st.integers(0, 7))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.lists(values, min_size=length or 0,
                            max_size=7 if length is None else length))
        if draw(st.booleans()):
            row = np.asarray(row, dtype=element.dtype)
        rows.append(row)
    return SequenceTC(element), rows


@given(matrices())
def test_rows_match_the_element_wise_stream(case):
    row_tc, rows = case
    tc = SequenceTC(row_tc)
    wire = encode(tc, rows)
    assert wire == reference_stream(row_tc, rows)
    out = decode(tc, wire)
    assert len(out) == len(rows)
    for got, want in zip(out, rows):
        assert got.dtype == row_tc.element.dtype
        np.testing.assert_array_equal(got, np.asarray(want, dtype=got.dtype))


@given(matrices())
def test_payload_codec_matches_the_element_wise_stream(case):
    assert_rows_codecs(*case)


@pytest.mark.parametrize("element", ELEMENTS, ids=lambda tc: tc.name)
def test_ragged_empty_and_list_rows(element):
    row_tc = SequenceTC(element)
    rows = [[1, 2, 3], [], np.arange(5, dtype=element.dtype), [], [7]]
    wire = encode(SequenceTC(row_tc), rows)
    assert wire == reference_stream(row_tc, rows)
    assert [r.tolist() for r in decode(SequenceTC(row_tc), wire)] == \
        [[1, 2, 3], [], [0, 1, 2, 3, 4], [], [7]]


#: row sets for both codecs: regular blocks (one (k, m) copy on decode)
#: and ragged ones (row by row); 3 shorts and 5 octets are byte lengths
#: that are no multiple of 4, so rows are padded apart
ROW_SETS = {
    "ragged": [[1, 2, 3], [], [0, 1, 2, 3, 4], [], [7]],
    "equal": [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]],
    "equal-empty": [[], [], []],
    "one-row": [[1, 2, 3, 4, 5]],
    "no-rows": [],
    "odd-bytes": [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    "odd-bytes-5": [[1, 2, 3, 4, 5]] * 4,
    "ragged-tail": [[1, 2], [3, 4], [5, 6], [7]],
}


@pytest.mark.parametrize("element", ELEMENTS, ids=lambda tc: tc.name)
@pytest.mark.parametrize("shape", ROW_SETS)
def test_payload_codec_equal_and_ragged_rows(element, shape):
    rows = [np.asarray(r, dtype=element.dtype) if i % 2 else r
            for i, r in enumerate(ROW_SETS[shape])]
    assert_rows_codecs(SequenceTC(element), rows)


@pytest.mark.parametrize("prefix", [None, TC_OCTET, TC_LONGLONG],
                         ids=["top", "octet", "longlong"])
def test_double_rows_whose_first_pad_differs(prefix):
    """Row 0's pad before its data need not be the later rows' pad.  At
    the top of a stream (or behind an 8-byte field) row 0's doubles
    start right after its header while every later row pads 4 bytes;
    behind an octet all rows pad alike."""
    row_tc = SequenceTC(TC_DOUBLE)
    rows = [np.arange(3.0) + 3 * i for i in range(5)]
    enc = CdrEncoder()
    if prefix is not None:
        enc.encode(prefix, 7)
    start = len(enc)
    want = reference_stream(row_tc, rows, enc)
    first_pad = (-(start + (-start) % 4 + 8)) % 8
    assert first_pad == (4 if prefix is TC_OCTET else 0)
    if prefix is None:
        assert_rows_codecs(row_tc, rows)
        return
    tc = StructTC("tagged", (("tag", prefix), ("rows", SequenceTC(row_tc))))
    wire = encode(tc, {"tag": 7, "rows": rows})
    assert wire == want
    out = decode(tc, wire)["rows"]
    assert [r.tolist() for r in out] == [r.tolist() for r in rows]


@pytest.mark.parametrize("element", [TC_DOUBLE, TC_SHORT, TC_OCTET],
                         ids=lambda tc: tc.name)
@pytest.mark.parametrize("word", [0, 2, 3, 4, 1000, 0xFFFFFFFF])
@pytest.mark.parametrize("row", [1, 2, 3])
def test_altered_header_decodes_like_the_row_reader(element, word, row):
    """A regular block with one header word altered takes the row-by-row
    reader and gives its values or its error."""
    row_tc = SequenceTC(element)
    rows = [[1, 2, 3]] * 5
    wire = bytearray(reference_stream(row_tc, rows))
    at = len(reference_stream(row_tc, rows[:row]))
    at += (-at) % 4
    assert wire[at:at + 4] == (3).to_bytes(4, "little")
    wire[at:at + 4] = word.to_bytes(4, "little")
    assert payload_rows(row_tc, wire) == reference_rows(row_tc, wire)
    bounded = SequenceTC(element, bound=3)
    assert payload_rows(bounded, wire) == reference_rows(bounded, wire)


@pytest.mark.parametrize("shape", ["equal", "ragged", "equal-empty"])
@pytest.mark.parametrize("element", [TC_DOUBLE, TC_SHORT],
                         ids=lambda tc: tc.name)
def test_truncated_payload_underruns_at_every_cut(shape, element):
    rows = ROW_SETS[shape]
    payload = encode_rows_payload(SequenceTC(element), rows)
    for cut in range(len(payload)):
        with pytest.raises(MarshalError, match="buffer underrun"):
            decode_rows_payload(SequenceTC(element), payload[:cut])


@pytest.mark.parametrize("shape", ["equal", "ragged"])
def test_decoded_rows_are_writable_copies(shape):
    row_tc = SequenceTC(TC_DOUBLE)
    rows = [np.asarray(r, dtype=float) for r in ROW_SETS[shape]]
    payload = encode_rows_payload(row_tc, rows)
    out = decode_rows_payload(row_tc, payload)
    payload[:] = bytes(len(payload))
    for got, want in zip(out, rows):
        assert got.dtype == np.float64 and got.flags.writeable
        np.testing.assert_array_equal(got, want)
        got[:] = -1.0
    assert all((got == -1.0).all() for got in out)


def test_nested_fragment_takes_no_pool_lease():
    row_tc = SequenceTC(TC_DOUBLE)
    rows = [np.arange(4.0) + i for i in range(6)]
    pool = BufferPool()
    payload = fragment_payload(row_tc, rows, pool)
    assert type(payload) is bytearray
    assert payload == encode(SequenceTC(row_tc), rows)
    out = fragment_values(row_tc, payload, pool)
    assert [r.tolist() for r in out] == [r.tolist() for r in rows]
    stats = pool.stats
    assert (stats.borrows, stats.returns) == (0, 0)
    assert (stats.fallback_encodes, stats.fallback_decodes) == (1, 1)
    assert (stats.fast_encodes, stats.fast_decodes) == (0, 0)


class TestBoundedRows:
    row_tc = SequenceTC(TC_SHORT, bound=3)

    def test_rows_within_the_bound_match(self):
        rows = [[1, 2, 3], [], [4]]
        assert encode(SequenceTC(self.row_tc), rows) == \
            reference_stream(self.row_tc, rows)

    @pytest.mark.parametrize("row", [[1, 2, 3, 4], np.arange(4), "1234"])
    def test_over_bound_row_is_rejected(self, row):
        with pytest.raises(MarshalError, match="sequence of 4 exceeds bound 3"):
            encode(SequenceTC(self.row_tc), [[1], row])

    def test_over_bound_row_on_the_wire_is_rejected(self):
        wire = encode(SequenceTC(SequenceTC(TC_SHORT)), [[1], [1, 2, 3, 4]])
        with pytest.raises(MarshalError, match="sequence of 4 exceeds bound 3"):
            decode(SequenceTC(self.row_tc), wire)


class TestRowErrors:
    tc = SequenceTC(SequenceTC(TC_DOUBLE))

    def test_str_row_goes_element_wise(self):
        # Each character is one element, exactly as the element-wise
        # stream writes it.
        rows = [[0.5], "12"]
        assert encode(self.tc, rows) == reference_stream(self.tc.element, rows)

    def test_str_row_that_is_no_number_is_rejected(self):
        with pytest.raises(ValueError, match="could not convert"):
            reference_stream(self.tc.element, ["ab"])
        with pytest.raises(ValueError, match="could not convert"):
            encode(self.tc, [[1.0], "ab"])

    def test_non_1d_row_is_rejected(self):
        with pytest.raises(MarshalError, match="must be 1-D"):
            encode(self.tc, [[1.0], np.zeros((2, 2))])

    def test_unsized_row_is_rejected(self):
        with pytest.raises(MarshalError, match="expected a sized sequence"):
            encode(self.tc, [[1.0], 5])

    def test_truncated_stream_underruns_at_every_cut(self):
        rows = [np.arange(3.0), [], [4.0, 5.0]]
        wire = encode(self.tc, rows)
        for cut in range(len(wire)):
            with pytest.raises(MarshalError, match="buffer underrun"):
                decode(self.tc, wire[:cut])
