"""``estimate_nbytes`` answers the common exact types first; every size
must equal what the plain ``isinstance`` chain below gives."""

import enum
from collections import namedtuple

import numpy as np
from hypothesis import given, strategies as st

from repro.cdr import BufferPool, PooledBuffer
from repro.netsim import estimate_nbytes


def reference_nbytes(obj):
    """The ``isinstance`` chain alone, in its order."""
    if obj is None:
        return 16
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, PooledBuffer):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, str):
        return 16 + len(obj)
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, (list, tuple)):
        return 16 + sum(reference_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(reference_nbytes(k) + reference_nbytes(v)
                        for k, v in obj.items())
    return 64


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


Pair = namedtuple("Pair", "a b")
POOL = BufferPool()

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.text(max_size=12).map(Label),
    st.just(Colour.RED),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.binary(max_size=12).map(memoryview),
    st.integers(0, 64).map(POOL.acquire),
    st.integers(0, 8).map(np.zeros),
    st.builds(object),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda t: Pair(*t)),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()),
                        inner, max_size=3),
    ),
    max_leaves=12,
)


@given(payloads)
def test_estimate_matches_the_isinstance_chain(obj):
    assert estimate_nbytes(obj) == reference_nbytes(obj)


def test_exact_types_and_their_subclasses():
    for obj in (True, np.int64(3), np.float64(2.5), Label("abc"),
                Colour.RED, Pair(1, "x"), object(), {"k": (1, 2.0)},
                ("uid", "op", 7), [("uid", "op", 7)] * 3):
        assert estimate_nbytes(obj) == reference_nbytes(obj), obj
