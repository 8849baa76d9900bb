"""Unit tests for marshal helpers (scalar streams, container adaptation)
and for reading the layout specs of out-distribution requests."""

import numpy as np
import pytest

from repro.cdr import DSequenceTC, StringTC, TC_DOUBLE, TC_LONG
from repro.core.distribution import (
    Distribution,
    check_dist_spec,
    resolve_dist_spec,
)
from repro.core.dsequence import DistributedSequence
from repro.core.errors import BadOperation
from repro.core.interfacedef import AttrDef, OpDef, ParamDef
from repro.core.marshal import (
    as_distributed,
    decode_scalars,
    encode_scalars,
    scalar_in_specs,
    scalar_result_specs,
)

DS = DSequenceTC(TC_DOUBLE)

OP = OpDef("f", TC_LONG, [
    ParamDef("in", "a", TC_DOUBLE),
    ParamDef("in", "v", DS),
    ParamDef("inout", "b", TC_LONG),
    ParamDef("out", "s", StringTC()),
    ParamDef("out", "w", DS),
])


class TestParamPartitions:
    def test_scalar_in_specs_include_inout(self):
        assert [n for n, _ in scalar_in_specs(OP)] == ["a", "b"]

    def test_scalar_result_specs_lead_with_return(self):
        assert [n for n, _ in scalar_result_specs(OP)] == \
            ["__return", "b", "s"]

    def test_void_no_scalar_outs(self):
        op = OpDef("g", None, [ParamDef("out", "w", DS)])
        assert scalar_result_specs(op) == []

    def test_dseq_partitions(self):
        assert [p.name for p in OP.dseq_in_params] == ["v"]
        assert [p.name for p in OP.dseq_out_params] == ["w"]
        assert OP.has_distributed_args

    def test_partitions_keep_declared_order(self):
        op = OpDef("h", DS, [
            ParamDef("out", "o1", TC_LONG),
            ParamDef("inout", "d1", DS),
            ParamDef("in", "i1", TC_DOUBLE),
            ParamDef("out", "d2", DS),
            ParamDef("inout", "io1", StringTC()),
            ParamDef("in", "d3", DS),
            ParamDef("out", "o2", TC_DOUBLE),
            ParamDef("inout", "io2", TC_LONG),
        ])

        def names(params):
            return [p.name for p in params]

        assert names(op.params) == ["o1", "d1", "i1", "d2", "io1", "d3",
                                    "o2", "io2"]
        assert names(op.in_params) == ["d1", "i1", "io1", "d3", "io2"]
        assert names(op.out_params) == ["o1", "d1", "d2", "io1", "o2",
                                        "io2"]
        assert names(op.scalar_in_params) == ["i1", "io1", "io2"]
        assert names(op.dseq_in_params) == ["d1", "d3"]
        assert names(op.scalar_out_params) == ["o1", "io1", "o2", "io2"]
        assert names(op.dseq_out_params) == ["d1", "d2"]
        assert [n for n, _ in scalar_in_specs(op)] == ["i1", "io1", "io2"]
        # a distributed return value travels as fragments, not a scalar
        assert [n for n, _ in scalar_result_specs(op)] == \
            ["o1", "io1", "o2", "io2"]

    def test_metadata_is_immutable_and_built_once(self):
        params = [ParamDef("in", "a", TC_LONG)]
        op = OpDef("k", None, params)
        params.append(ParamDef("in", "b", TC_LONG))
        assert isinstance(op.params, tuple)
        assert [p.name for p in op.in_params] == ["a"]
        assert op.in_params is op.in_params
        assert scalar_in_specs(op) is scalar_in_specs(op)
        with pytest.raises(AttributeError):
            op.params = ()

    def test_attribute_accessors_built_once(self):
        attr = AttrDef("size", TC_LONG)
        assert attr.getter is attr.getter
        assert attr.setter is attr.setter
        assert (attr.getter.name, attr.getter.ret_tc) == ("_get_size",
                                                          TC_LONG)
        assert scalar_result_specs(attr.getter) == [("__return", TC_LONG)]
        assert attr.setter.name == "_set_size"
        assert scalar_in_specs(attr.setter) == [("value", TC_LONG)]


class TestScalarStreams:
    def test_roundtrip(self):
        specs = [("a", TC_DOUBLE), ("b", TC_LONG), ("s", StringTC())]
        data = encode_scalars(specs, {"a": 1.5, "b": -2, "s": "hey"})
        assert decode_scalars(specs, data) == {"a": 1.5, "b": -2, "s": "hey"}

    def test_empty(self):
        assert decode_scalars([], encode_scalars([], {})) == {}


class TestAsDistributed:
    def test_accepts_matching_dsequence(self):
        ds = DistributedSequence.create(10, TC_DOUBLE, rank=0, nprocs=2)
        p = ParamDef("in", "v", DS)
        assert as_distributed(p, ds, nthreads=2, rank=0) is ds

    def test_rejects_thread_count_mismatch(self):
        ds = DistributedSequence.create(10, TC_DOUBLE, rank=0, nprocs=2)
        p = ParamDef("in", "v", DS)
        with pytest.raises(ValueError, match="threads"):
            as_distributed(p, ds, nthreads=3, rank=0)

    def test_plain_array_for_single_invocation(self):
        p = ParamDef("in", "v", DS)
        out = as_distributed(p, np.arange(4.0), nthreads=1, rank=0)
        assert isinstance(out, DistributedSequence)
        assert out.dist.kind == "CONCENTRATED"

    def test_plain_array_rejected_for_spmd(self):
        p = ParamDef("in", "v", DS)
        with pytest.raises(TypeError, match="DistributedSequence"):
            as_distributed(p, np.arange(4.0), nthreads=2, rank=0)


class TestOutRequests:
    """A client's out request is checked where it is made, and kept as
    given (a weights list frozen to a tuple)."""

    def test_none(self):
        # None is no spec: a caller without a request leaves it out
        with pytest.raises(TypeError, match="cannot interpret"):
            check_dist_spec(None)

    def test_kind_string(self):
        assert check_dist_spec("CYCLIC") == "CYCLIC"

    def test_template_list(self):
        assert check_dist_spec([3, 1]) == (3, 1)

    def test_exact_distribution(self):
        d = Distribution.block(8, 2)
        assert check_dist_spec(d) is d

    def test_garbage_rejected(self):
        for spec in (object(), 3, ["a", 1], {"w": 1}):
            with pytest.raises(TypeError, match="cannot interpret"):
                check_dist_spec(spec)


class TestResolveOutDist:
    """The server resolves an out request once the result's length is
    known; the client takes the layout from the reply."""

    def test_default_kind(self):
        d = resolve_dist_spec("BLOCK", 10, 2)
        assert d.kind == "BLOCK" and d.n == 10 and d.p == 2

    def test_kind_request(self):
        d = resolve_dist_spec("CYCLIC", 9, 3)
        assert d.kind == "CYCLIC"

    def test_template_request(self):
        d = resolve_dist_spec((3.0, 1.0), 40, 2)
        assert d.kind == "TEMPLATE" and d.counts == [30, 10]

    def test_template_wrong_arity(self):
        with pytest.raises(BadOperation, match="1 weights for 2 ranks"):
            resolve_dist_spec((1.0,), 10, 2)

    def test_exact_mismatch_rejected(self):
        d = Distribution.block(8, 2)
        assert resolve_dist_spec(d, 8, 2) is d
        with pytest.raises(BadOperation, match="does not match"):
            resolve_dist_spec(d, 9, 2)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            resolve_dist_spec("WAT", 4, 2)
        with pytest.raises(TypeError, match="cannot interpret"):
            resolve_dist_spec(object(), 4, 2)
