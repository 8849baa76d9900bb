"""Value semantics of the hand-written records that are hashed or compared:
network addresses, TypeCodes and IDL type expressions (see
``repro._record``).  Each keeps what ``@dataclass(frozen=True)`` gave it:
equal values compare and hash equal, fields cannot be reassigned, the
``repr`` format is unchanged, and copies and pickles round-trip."""

import copy
import pickle

import pytest

from repro.cdr import (
    TC_DOUBLE,
    TC_LONG,
    DSequenceTC,
    EnumTC,
    ObjectRefTC,
    SequenceTC,
    StringTC,
    StructTC,
)
from repro.core import Distribution
from repro.idl import ast
from repro.netsim import Address, LinkProfile


#: (factory of a value, one of its fields): each factory returns equal but
#: distinct values, one or two per keyed class
CASES = [
    (lambda: Address("HOST_1", 2, 7), "host"),
    (lambda: Address("HOST_1", 2), "port"),
    (lambda: SequenceTC(TC_DOUBLE, 8), "element"),
    (lambda: SequenceTC(SequenceTC(TC_LONG)), "bound"),
    (lambda: StringTC(16), "bound"),
    (lambda: EnumTC("color", ("red", "green")), "members"),
    (lambda: StructTC("pt", (("x", TC_DOUBLE), ("y", TC_DOUBLE))), "fields"),
    (lambda: ObjectRefTC("IDL:x:1.0"), "repo_id"),
    (lambda: DSequenceTC(TC_DOUBLE, None, "BLOCK", "CYCLIC"), "server_dist"),
    (lambda: ast.PrimType("long"), "name"),
    (lambda: ast.StringType(4), "bound"),
    (lambda: ast.SeqType(ast.PrimType("double"), 3), "element"),
    (lambda: ast.DSeqType(ast.NamedType(("m", "v")), None, "CYCLIC"),
     "client_dist"),
    (lambda: ast.NamedType(("m", "t")), "scoped_name"),
    (lambda: ast.VoidType(), "anything"),
    (lambda: ast.BinaryExpr("+", ast.Literal(1), ast.ConstRef(("N",))),
     "left"),
    (lambda: ast.UnaryExpr("-", ast.Literal(2)), "operand"),
    (lambda: Distribution.block(10, 3), "parts"),
]
VALUES = [make for make, _ in CASES]
IDS = [type(make()).__name__ for make in VALUES]


@pytest.mark.parametrize("make", VALUES, ids=IDS)
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("make, name", CASES, ids=IDS)
def test_fields_cannot_be_reassigned(make, name):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)


@pytest.mark.parametrize("make", VALUES, ids=IDS)
def test_copies_and_pickles_round_trip(make):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_different_values_and_classes_differ():
    assert Address("h", 0, 1) != Address("h", 0, 2)
    assert Address("h", 0, 1) != ("h", 0, 1)
    assert SequenceTC(TC_LONG) != SequenceTC(TC_DOUBLE)
    assert SequenceTC(TC_LONG) != DSequenceTC(TC_LONG)
    assert ast.ConstRef(("a",)) != ast.NamedType(("a",))
    assert ast.StringType() != ast.StringType(3)


def test_reprs_keep_their_format():
    assert repr(Address("HOST_1", 2, 7)) == \
        "Address(host='HOST_1', node=2, port=7)"
    assert str(Address("HOST_1", 2, 7)) == "HOST_1:2:7"
    assert repr(ast.SeqType(ast.PrimType("long"))) == \
        "SeqType(element=PrimType(name='long'), bound=None)"
    assert repr(ast.VoidType()) == "VoidType()"
    assert repr(SequenceTC(TC_DOUBLE, 8)) == "tc<sequence<tc<double>, 8>>"
    assert repr(TC_LONG) == "tc<long>"
    assert repr(Distribution(2, 1, "BLOCK", (((0, 2),),))) == \
        "Distribution(n=2, p=1, kind='BLOCK', parts=(((0, 2),),))"
    with pytest.raises(ValueError, match=(
            r"invalid link profile parameters: LinkProfile\(name='bad', "
            r"latency=-1.0, bandwidth=1.0, cpu_overhead=0.0, shared=True\)")):
        LinkProfile("bad", latency=-1.0, bandwidth=1.0)


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="invalid link profile parameters"):
        LinkProfile("bad", latency=0.0, bandwidth=0.0)
    # a copy goes through the constructor again, so the slot that is
    # derived from the fields (not one of them) is filled in too
    for twin in (copy.copy(TC_DOUBLE), pickle.loads(pickle.dumps(TC_DOUBLE))):
        assert twin.dtype == TC_DOUBLE.dtype
