"""Property-based round-trip tests for the CDR layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdr import (
    CdrDecoder,
    CdrEncoder,
    EnumTC,
    PRIMITIVES,
    SequenceTC,
    StringTC,
    StructTC,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_LONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    MarshalError,
    decode,
    encode,
)
from repro.cdr.typecodes import INT_RANGES

INT_TCS = {
    "octet": (TC_OCTET, st.integers(0, 255)),
    "short": (TC_SHORT, st.integers(-2**15, 2**15 - 1)),
    "long": (TC_LONG, st.integers(-2**31, 2**31 - 1)),
    "ulong": (TC_ULONG, st.integers(0, 2**32 - 1)),
}

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.sampled_from(sorted(INT_TCS)), st.data())
def test_integer_roundtrip(kind, data):
    tc, strat = INT_TCS[kind]
    value = data.draw(strat)
    assert decode(tc, encode(tc, value)) == value


INTEGER_TYPECODES = sorted(INT_RANGES)


@st.composite
def integer_and_value(draw):
    """An integer typecode and a value in its range, biased to the
    boundaries (each end and one step inside it)."""
    name = draw(st.sampled_from(INTEGER_TYPECODES))
    lo, hi = INT_RANGES[name]
    value = draw(st.one_of(st.sampled_from([lo, lo + 1, 0, hi - 1, hi]),
                           st.integers(lo, hi)))
    return PRIMITIVES[name], value


@given(integer_and_value())
def test_scalar_integer_codec_matches_numpy_bytes(case):
    """put_primitive writes numpy's bytes for the value and
    get_primitive reads them back as a Python int."""
    tc, value = case
    enc = CdrEncoder()
    enc.put_primitive(tc, value)
    data = enc.getvalue()
    assert data == np.array([value], dtype=tc.dtype).tobytes()
    got = CdrDecoder(data).get_primitive(tc)
    assert type(got) is int and got == value


@given(st.sampled_from(INTEGER_TYPECODES), st.booleans())
def test_scalar_integer_codec_rejects_one_past_the_range(name, above):
    lo, hi = INT_RANGES[name]
    with pytest.raises(MarshalError, match="out of range"):
        CdrEncoder().put_primitive(PRIMITIVES[name],
                                   hi + 1 if above else lo - 1)


@given(finite_doubles)
def test_double_roundtrip(value):
    assert decode(TC_DOUBLE, encode(TC_DOUBLE, value)) == value


@given(st.text(max_size=200))
def test_string_roundtrip(s):
    assert decode(StringTC(), encode(StringTC(), s)) == s


@given(st.lists(finite_doubles, max_size=50))
def test_double_sequence_roundtrip(values):
    tc = SequenceTC(TC_DOUBLE)
    out = decode(tc, encode(tc, values))
    np.testing.assert_array_equal(out, np.asarray(values, dtype=float))


@given(st.lists(st.lists(finite_doubles, max_size=10), max_size=10))
def test_nested_sequence_roundtrip(rows):
    tc = SequenceTC(SequenceTC(TC_DOUBLE))
    out = decode(tc, encode(tc, rows))
    assert len(out) == len(rows)
    for got, want in zip(out, rows):
        np.testing.assert_array_equal(got, np.asarray(want, dtype=float))


@given(st.lists(st.text(max_size=30), max_size=20))
def test_string_sequence_roundtrip(values):
    tc = SequenceTC(StringTC())
    assert decode(tc, encode(tc, values)) == values


@settings(max_examples=50)
@given(
    st.lists(st.booleans(), max_size=20),
    st.integers(-2**31, 2**31 - 1),
    st.text(max_size=20),
)
def test_struct_roundtrip(flags, n, label):
    tc = StructTC("mix", (
        ("flags", SequenceTC(TC_BOOLEAN)),
        ("n", TC_LONG),
        ("label", StringTC()),
    ))
    value = {"flags": flags, "n": n, "label": label}
    out = decode(tc, encode(tc, value))
    assert list(out["flags"]) == [int(f) for f in flags]
    assert out["n"] == n
    assert out["label"] == label


@given(st.integers(0, 4))
def test_enum_roundtrip(idx):
    # Decoding canonicalizes to the member name whether the value was
    # encoded by index or by name.
    tc = EnumTC("e", ("A", "B", "C", "D", "E"))
    assert decode(tc, encode(tc, idx)) == tc.members[idx]
    assert decode(tc, encode(tc, tc.members[idx])) == tc.members[idx]


@given(st.integers(0, 2), st.integers(-1000, 1000))
def test_enum_in_struct_roundtrip(idx, n):
    mood = EnumTC("mood", ("HAPPY", "GRUMPY", "SLEEPY"))
    tc = StructTC("tagged", (("state", mood), ("n", TC_LONG)))
    out = decode(tc, encode(tc, {"state": idx, "n": n}))
    assert out == {"state": mood.members[idx], "n": n}


@given(st.lists(finite_doubles, min_size=1, max_size=100))
def test_encoding_is_deterministic(values):
    tc = SequenceTC(TC_DOUBLE)
    assert encode(tc, values) == encode(tc, values)


@given(st.lists(st.integers(-2**31, 2**31 - 1), max_size=30))
def test_numpy_and_list_inputs_encode_identically(values):
    tc = SequenceTC(TC_LONG)
    as_list = encode(tc, values)
    as_arr = encode(tc, np.asarray(values, dtype=np.int32))
    assert as_list == as_arr
