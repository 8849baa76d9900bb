"""Runtime interface metadata emitted by the IDL compiler.

Generated stub modules build these structures once per interface; both the
client engine (:mod:`repro.core.invocation`) and the server dispatcher
(:mod:`repro.core.poa`) drive marshaling and scheduling from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from ..cdr import DSequenceTC, TypeCode


@dataclass(frozen=True)
class ParamDef:
    direction: str                  # "in" | "out" | "inout"
    name: str
    tc: TypeCode
    #: container adapter for package-native dsequence mappings (§3.4)
    adapter: Any = None

    @property
    def is_distributed(self) -> bool:
        return isinstance(self.tc, DSequenceTC)


@dataclass(frozen=True)
class AttrDef:
    name: str
    tc: TypeCode
    readonly: bool = False

    @cached_property
    def getter(self) -> "OpDef":
        """The synthesized ``_get_<name>`` operation."""
        return OpDef(f"_get_{self.name}", self.tc, ())

    @cached_property
    def setter(self) -> "OpDef":
        """The synthesized ``_set_<name>`` operation."""
        return OpDef(f"_set_{self.name}", None,
                     (ParamDef("in", "value", self.tc),))


@dataclass(frozen=True)
class OpDef:
    """One operation.  ``params`` is stored as a tuple, and its partitions
    and scalar stream specs are computed once, here, in declared order:
    the request path reads them on every call."""

    name: str
    ret_tc: Optional[TypeCode]
    params: tuple
    oneway: bool = False
    raises: list = field(default_factory=list)   # exception repo ids

    in_params: tuple = field(init=False, repr=False, compare=False)
    out_params: tuple = field(init=False, repr=False, compare=False)
    scalar_in_params: tuple = field(init=False, repr=False, compare=False)
    dseq_in_params: tuple = field(init=False, repr=False, compare=False)
    scalar_out_params: tuple = field(init=False, repr=False, compare=False)
    dseq_out_params: tuple = field(init=False, repr=False, compare=False)
    has_distributed_args: bool = field(init=False, repr=False,
                                       compare=False)
    #: ``(name, tc)`` of the scalar in-arguments, as the request header
    #: carries them; read-only
    scalar_in_specs: list = field(init=False, repr=False, compare=False)
    #: ``(name, tc)`` of the scalar results, the return value (as
    #: ``"__return"``) first; read-only
    scalar_result_specs: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = tuple(self.params)
        ins = tuple(p for p in params if p.direction in ("in", "inout"))
        outs = tuple(p for p in params if p.direction in ("out", "inout"))
        scalar_ins = tuple(p for p in ins if not p.is_distributed)
        scalar_outs = tuple(p for p in outs if not p.is_distributed)
        dseq_ins = tuple(p for p in ins if p.is_distributed)
        dseq_outs = tuple(p for p in outs if p.is_distributed)
        ret_dseq = isinstance(self.ret_tc, DSequenceTC)
        results = [] if self.ret_tc is None or ret_dseq \
            else [("__return", self.ret_tc)]
        results.extend((p.name, p.tc) for p in scalar_outs)
        for attr, value in (
            ("params", params),
            ("in_params", ins),
            ("out_params", outs),
            ("scalar_in_params", scalar_ins),
            ("dseq_in_params", dseq_ins),
            ("scalar_out_params", scalar_outs),
            ("dseq_out_params", dseq_outs),
            ("has_distributed_args",
             bool(dseq_ins or dseq_outs) or ret_dseq),
            ("scalar_in_specs", [(p.name, p.tc) for p in scalar_ins]),
            ("scalar_result_specs", results),
        ):
            object.__setattr__(self, attr, value)


@dataclass(frozen=True)
class InterfaceDef:
    name: str
    repo_id: str
    ops: dict
    attrs: list = field(default_factory=list)

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
