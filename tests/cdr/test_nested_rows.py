"""Nested numeric sequences (``sequence<sequence<number>>``): every row is
one numeric run, and the stream must equal the element-wise reference
byte for byte, errors included."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cdr import (
    CdrEncoder,
    MarshalError,
    SequenceTC,
    TC_DOUBLE,
    TC_FLOAT,
    TC_OCTET,
    TC_SHORT,
    decode,
    encode,
)

ELEMENTS = [TC_DOUBLE, TC_FLOAT, TC_SHORT, TC_OCTET]


def reference_stream(row_tc, rows) -> bytes:
    """Element-wise stream: the row count, then per row its count, the
    pad to the element's alignment (part of the wire format even for an
    empty row) and each element on its own."""
    element = row_tc.element
    enc = CdrEncoder()
    enc.put_ulong(len(rows))
    for row in rows:
        enc.put_ulong(len(row))
        enc.align(element.size)
        for value in row:
            enc.put_primitive(element, value)
    return enc.getvalue()


@st.composite
def matrices(draw):
    """A numeric row type and ragged rows of it, as ndarrays or lists."""
    element = draw(st.sampled_from(ELEMENTS))
    values = st.integers(0, 255)
    if element in (TC_DOUBLE, TC_FLOAT):
        values = values | st.integers(-512, 512).map(lambda k: k / 2)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.lists(values, max_size=7))
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


@pytest.mark.parametrize("element", ELEMENTS, ids=lambda tc: tc.name)
def test_ragged_empty_and_list_rows(element):
    row_tc = SequenceTC(element)
    rows = [[1, 2, 3], [], np.arange(5, dtype=element.dtype), [], [7]]
    wire = encode(SequenceTC(row_tc), rows)
    assert wire == reference_stream(row_tc, rows)
    assert [r.tolist() for r in decode(SequenceTC(row_tc), wire)] == \
        [[1, 2, 3], [], [0, 1, 2, 3, 4], [], [7]]


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
