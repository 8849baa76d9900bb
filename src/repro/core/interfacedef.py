"""Runtime interface metadata emitted by the IDL compiler.

Generated stub modules build these structures once per interface; both the
client engine (:mod:`repro.core.invocation`) and the server dispatcher
(:mod:`repro.core.poa`) drive marshaling and scheduling from them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Optional

from .._record import FrozenRecord
from ..cdr import DSequenceTC, TypeCode

_set = object.__setattr__


class ParamDef(FrozenRecord):
    __slots__ = ("direction", "name", "tc", "adapter")

    def __init__(self, direction: str, name: str, tc: TypeCode,
                 adapter: Any = None) -> None:
        _set(self, "direction", direction)  # "in" | "out" | "inout"
        _set(self, "name", name)
        _set(self, "tc", tc)
        #: container adapter for package-native dsequence mappings (§3.4)
        _set(self, "adapter", adapter)

    @property
    def is_distributed(self) -> bool:
        return isinstance(self.tc, DSequenceTC)


class AttrDef(FrozenRecord):
    # No __slots__: the cached getter/setter live in the instance dict.
    _fields = ("name", "tc", "readonly")

    def __init__(self, name: str, tc: TypeCode,
                 readonly: bool = False) -> None:
        _set(self, "name", name)
        _set(self, "tc", tc)
        _set(self, "readonly", readonly)

    @cached_property
    def getter(self) -> "OpDef":
        """The synthesized ``_get_<name>`` operation."""
        return OpDef(f"_get_{self.name}", self.tc, ())

    @cached_property
    def setter(self) -> "OpDef":
        """The synthesized ``_set_<name>`` operation."""
        return OpDef(f"_set_{self.name}", None,
                     (ParamDef("in", "value", self.tc),))


class OpDef(FrozenRecord):
    """One operation.  ``params`` is stored as a tuple, and its partitions
    and scalar stream specs are computed once, here, in declared order:
    the request path reads them on every call.  Only the constructor's
    arguments take part in ``==`` and ``repr``."""

    __slots__ = ("name", "ret_tc", "params", "oneway", "raises",
                 "in_params", "out_params", "scalar_in_params",
                 "dseq_in_params", "scalar_out_params", "dseq_out_params",
                 "has_distributed_args", "scalar_in_specs",
                 "scalar_result_specs")
    _fields = ("name", "ret_tc", "params", "oneway", "raises")

    def __init__(self, name: str, ret_tc: Optional[TypeCode], params: tuple,
                 oneway: bool = False, raises: Optional[list] = None) -> None:
        params = tuple(params)
        ins = tuple(p for p in params if p.direction in ("in", "inout"))
        outs = tuple(p for p in params if p.direction in ("out", "inout"))
        scalar_ins = tuple(p for p in ins if not p.is_distributed)
        scalar_outs = tuple(p for p in outs if not p.is_distributed)
        dseq_ins = tuple(p for p in ins if p.is_distributed)
        dseq_outs = tuple(p for p in outs if p.is_distributed)
        ret_dseq = isinstance(ret_tc, DSequenceTC)
        results = [] if ret_tc is None or ret_dseq \
            else [("__return", ret_tc)]
        results.extend((p.name, p.tc) for p in scalar_outs)
        _set(self, "name", name)
        _set(self, "ret_tc", ret_tc)
        _set(self, "params", params)
        _set(self, "oneway", oneway)
        #: exception repo ids
        _set(self, "raises", [] if raises is None else raises)
        _set(self, "in_params", ins)
        _set(self, "out_params", outs)
        _set(self, "scalar_in_params", scalar_ins)
        _set(self, "dseq_in_params", dseq_ins)
        _set(self, "scalar_out_params", scalar_outs)
        _set(self, "dseq_out_params", dseq_outs)
        _set(self, "has_distributed_args",
             bool(dseq_ins or dseq_outs) or ret_dseq)
        #: ``(name, tc)`` of the scalar in-arguments, as the request header
        #: carries them; read-only
        _set(self, "scalar_in_specs", [(p.name, p.tc) for p in scalar_ins])
        #: ``(name, tc)`` of the scalar results, the return value (as
        #: ``"__return"``) first; read-only
        _set(self, "scalar_result_specs", results)


class InterfaceDef(FrozenRecord):
    __slots__ = ("name", "repo_id", "ops", "attrs")

    def __init__(self, name: str, repo_id: str, ops: dict,
                 attrs: Optional[list] = None) -> None:
        _set(self, "name", name)
        _set(self, "repo_id", repo_id)
        _set(self, "ops", ops)
        _set(self, "attrs", [] if attrs is None else attrs)

    def op(self, name: str) -> OpDef:
        return self.ops[name]

    def attr(self, name: str) -> Optional[AttrDef]:
        for a in self.attrs:
            if a.name == name:
                return a
        return None

    @property
    def has_distributed_ops(self) -> bool:
        return any(op.has_distributed_args for op in self.ops.values())
