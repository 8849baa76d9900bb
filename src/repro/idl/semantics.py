"""Semantic analysis for the PARDIS IDL.

Single pass over the AST (IDL requires declaration before use), building
scoped symbol tables, evaluating constant expressions, resolving types to
:mod:`repro.cdr` TypeCodes, and validating PARDIS-specific rules:

* ``dsequence`` may not nest inside another ``dsequence``;
* distributed arguments only make sense on operations (used by the
  compiler to emit SPMD and single stub variants, paper §3.1);
* ``#pragma PKG:name`` package mappings must annotate dsequence typedefs.

The output :class:`CompiledSpec` is the IR consumed by the code generator.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cdr import (
    ObjectRefTC,
    DSequenceTC,
    EnumTC,
    PRIMITIVES,
    SequenceTC,
    StringTC,
    StructTC,
    TypeCode,
)
from .._record import Record
from . import ast


class IdlSemanticError(Exception):
    """Name, type or constraint error in otherwise well-formed IDL."""


# ---------------------------------------------------------------------------
# Resolved IR
# ---------------------------------------------------------------------------


class RTypedef(Record):
    __slots__ = ("qname", "tc", "pragmas")

    def __init__(self, qname: tuple[str, ...], tc: TypeCode,
                 pragmas: Optional[list[ast.Pragma]] = None) -> None:
        self.qname = qname
        self.tc = tc
        self.pragmas = [] if pragmas is None else pragmas

    @property
    def python_name(self) -> str:
        return "_".join(self.qname)


class RConst(Record):
    __slots__ = ("qname", "value")

    def __init__(self, qname: tuple[str, ...], value: Any) -> None:
        self.qname = qname
        self.value = value

    @property
    def python_name(self) -> str:
        return "_".join(self.qname)


class RStruct(Record):
    __slots__ = ("qname", "tc")

    def __init__(self, qname: tuple[str, ...], tc: StructTC) -> None:
        self.qname = qname
        self.tc = tc

    @property
    def python_name(self) -> str:
        return "_".join(self.qname)


class REnum(Record):
    __slots__ = ("qname", "tc")

    def __init__(self, qname: tuple[str, ...], tc: EnumTC) -> None:
        self.qname = qname
        self.tc = tc

    @property
    def python_name(self) -> str:
        return "_".join(self.qname)


class RException(Record):
    __slots__ = ("qname", "tc")

    def __init__(self, qname: tuple[str, ...], tc: StructTC) -> None:
        self.qname = qname
        self.tc = tc

    @property
    def python_name(self) -> str:
        return "_".join(self.qname)


class RParam(Record):
    __slots__ = ("direction", "name", "tc", "via_typedef")

    def __init__(self, direction: str, name: str, tc: TypeCode,
                 via_typedef: Optional[RTypedef] = None) -> None:
        self.direction = direction
        self.name = name
        self.tc = tc
        #: the typedef that introduced this type, if any (carries pragmas)
        self.via_typedef = via_typedef

    @property
    def is_distributed(self) -> bool:
        return isinstance(self.tc, DSequenceTC)


class ROperation(Record):
    __slots__ = ("name", "ret_tc", "params", "oneway", "raises")

    def __init__(self, name: str, ret_tc: Optional[TypeCode],
                 params: list[RParam], oneway: bool = False,
                 raises: Optional[list[RException]] = None) -> None:
        self.name = name
        self.ret_tc = ret_tc            # None for void
        self.params = params
        self.oneway = oneway
        self.raises = [] if raises is None else raises

    @property
    def has_distributed_args(self) -> bool:
        return any(p.is_distributed for p in self.params) or isinstance(
            self.ret_tc, DSequenceTC
        )

    @property
    def in_params(self) -> list[RParam]:
        return [p for p in self.params if p.direction in ("in", "inout")]

    @property
    def out_params(self) -> list[RParam]:
        return [p for p in self.params if p.direction in ("out", "inout")]


class RAttribute(Record):
    __slots__ = ("name", "tc", "readonly")

    def __init__(self, name: str, tc: TypeCode,
                 readonly: bool = False) -> None:
        self.name = name
        self.tc = tc
        self.readonly = readonly


class RInterface(Record):
    __slots__ = ("qname", "bases", "ops", "attrs")

    def __init__(self, qname: tuple[str, ...], bases: list["RInterface"],
                 ops: list[ROperation], attrs: list[RAttribute]) -> None:
        self.qname = qname
        self.bases = bases
        self.ops = ops
        self.attrs = attrs

    @property
    def python_name(self) -> str:
        return "_".join(self.qname)

    def all_ops(self) -> list[ROperation]:
        """Own + inherited operations, base-first, no duplicates."""
        seen: dict[str, ROperation] = {}
        for base in self.bases:
            for op in base.all_ops():
                seen.setdefault(op.name, op)
        for op in self.ops:
            seen[op.name] = op
        return list(seen.values())

    def all_attrs(self) -> list[RAttribute]:
        seen: dict[str, RAttribute] = {}
        for base in self.bases:
            for a in base.all_attrs():
                seen.setdefault(a.name, a)
        for a in self.attrs:
            seen[a.name] = a
        return list(seen.values())


class CompiledSpec(Record):
    __slots__ = ("typedefs", "consts", "structs", "enums", "exceptions",
                 "interfaces")

    def __init__(self, typedefs: Optional[list[RTypedef]] = None,
                 consts: Optional[list[RConst]] = None,
                 structs: Optional[list[RStruct]] = None,
                 enums: Optional[list[REnum]] = None,
                 exceptions: Optional[list[RException]] = None,
                 interfaces: Optional[list[RInterface]] = None) -> None:
        self.typedefs = [] if typedefs is None else typedefs
        self.consts = [] if consts is None else consts
        self.structs = [] if structs is None else structs
        self.enums = [] if enums is None else enums
        self.exceptions = [] if exceptions is None else exceptions
        self.interfaces = [] if interfaces is None else interfaces

    def interface(self, name: str) -> RInterface:
        for i in self.interfaces:
            if i.python_name == name or i.qname[-1] == name:
                return i
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


class _Entry(Record):
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Any) -> None:
        self.kind = kind  # typedef/const/struct/enum/enum_member/exception/interface/module
        self.value = value


class _Scope:
    def __init__(self, name: str, parent: Optional["_Scope"]) -> None:
        self.name = name
        self.parent = parent
        self.entries: dict[str, _Entry] = {}

    @property
    def path(self) -> tuple[str, ...]:
        if self.parent is None:
            return ()
        return self.parent.path + (self.name,)

    def define(self, name: str, kind: str, value: Any) -> _Entry:
        if name in self.entries:
            raise IdlSemanticError(
                f"duplicate definition of {name!r} in scope "
                f"{'::'.join(self.path) or '<global>'}"
            )
        entry = _Entry(kind, value)
        self.entries[name] = entry
        return entry

    def lookup(self, scoped: tuple[str, ...]) -> _Entry:
        if scoped and scoped[0] == "":  # absolute ::name
            root = self
            while root.parent is not None:
                root = root.parent
            return root._lookup_path(scoped[1:])
        scope: Optional[_Scope] = self
        while scope is not None:
            try:
                return scope._lookup_path(scoped)
            except KeyError:
                scope = scope.parent
        raise IdlSemanticError(f"unknown name {'::'.join(scoped)!r}")

    def _lookup_path(self, scoped: tuple[str, ...]) -> _Entry:
        entry = self.entries[scoped[0]]
        for part in scoped[1:]:
            if entry.kind not in ("module", "interface"):
                raise KeyError(part)
            entry = entry.value.entries[part]
        return entry


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


class Analyzer:
    def __init__(self) -> None:
        self.root = _Scope("", None)
        self.spec = CompiledSpec()

    # -- const evaluation ---------------------------------------------------------

    def eval_const(self, expr: ast.ConstExpr, scope: _Scope) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ConstRef):
            entry = scope.lookup(expr.scoped_name)
            if entry.kind == "const":
                return entry.value.value
            if entry.kind == "enum_member":
                return entry.value
            raise IdlSemanticError(
                f"{'::'.join(expr.scoped_name)!r} is not a constant"
            )
        if isinstance(expr, ast.UnaryExpr):
            v = self.eval_const(expr.operand, scope)
            if expr.op == "-":
                return -v
            if expr.op == "+":
                return +v
            if expr.op == "~":
                return ~v
        if isinstance(expr, ast.BinaryExpr):
            a = self.eval_const(expr.left, scope)
            b = self.eval_const(expr.right, scope)
            ops = {
                "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
                "%": lambda: a % b, "<<": lambda: a << b, ">>": lambda: a >> b,
                "|": lambda: a | b, "&": lambda: a & b, "^": lambda: a ^ b,
            }
            try:
                return ops[expr.op]()
            except ZeroDivisionError:
                raise IdlSemanticError("division by zero in constant expression") from None
        raise IdlSemanticError(f"cannot evaluate constant expression {expr!r}")

    def _eval_bound(self, bound, scope: _Scope) -> Optional[int]:
        if bound is None:
            return None
        value = self.eval_const(bound, scope)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise IdlSemanticError(
                f"bound must be a positive integer constant, got {value!r}"
            )
        return value

    # -- type resolution ---------------------------------------------------------------

    def resolve_type(self, texpr: ast.TypeExpr, scope: _Scope,
                     inside_dseq: bool = False) -> tuple[TypeCode, Optional[RTypedef]]:
        """Returns (typecode, originating typedef or None)."""
        if isinstance(texpr, ast.PrimType):
            return PRIMITIVES[texpr.name], None
        if isinstance(texpr, ast.StringType):
            return StringTC(self._eval_bound(texpr.bound, scope)), None
        if isinstance(texpr, ast.SeqType):
            elem, _ = self.resolve_type(texpr.element, scope, inside_dseq)
            return SequenceTC(elem, self._eval_bound(texpr.bound, scope)), None
        if isinstance(texpr, ast.DSeqType):
            if inside_dseq:
                raise IdlSemanticError(
                    "dsequence cannot be nested inside another dsequence"
                )
            elem, _ = self.resolve_type(texpr.element, scope, inside_dseq=True)
            return DSequenceTC(
                elem, self._eval_bound(texpr.bound, scope),
                texpr.client_dist, texpr.server_dist,
            ), None
        if isinstance(texpr, ast.NamedType):
            if texpr.scoped_name == ("Object",):
                # the CORBA wildcard object-reference type
                return ObjectRefTC(None), None
            entry = scope.lookup(texpr.scoped_name)
            if entry.kind == "typedef":
                td: RTypedef = entry.value
                if inside_dseq and isinstance(td.tc, DSequenceTC):
                    raise IdlSemanticError(
                        "dsequence cannot be nested inside another dsequence"
                    )
                return td.tc, td
            if entry.kind in ("struct", "enum"):
                return entry.value.tc, None
            if entry.kind == "exception":
                raise IdlSemanticError(
                    f"exception {texpr.text!r} cannot be used as a data type"
                )
            if entry.kind == "interface":
                # Interface-typed values travel as object references.
                riface = entry.value._resolved
                return ObjectRefTC("IDL:" + "/".join(riface.qname) + ":1.0"), None
            raise IdlSemanticError(f"{texpr.text!r} is not a type")
        raise IdlSemanticError(f"unsupported type expression {texpr!r}")

    # -- declarations ---------------------------------------------------------------------

    def analyze(self, spec: ast.Specification) -> CompiledSpec:
        for d in spec.definitions:
            self.visit(d, self.root)
        return self.spec

    def visit(self, node, scope: _Scope) -> None:
        if isinstance(node, ast.ModuleDecl):
            sub = _Scope(node.name, scope)
            scope.define(node.name, "module", sub)
            for d in node.body:
                self.visit(d, sub)
        elif isinstance(node, ast.Typedef):
            self.visit_typedef(node, scope)
        elif isinstance(node, ast.ConstDecl):
            value = self.eval_const(node.value, scope)
            self._check_const_type(node, value)
            rc = RConst(scope.path + (node.name,), value)
            scope.define(node.name, "const", rc)
            self.spec.consts.append(rc)
        elif isinstance(node, ast.StructDecl):
            tc = StructTC(node.name, tuple(
                (m.name, self.resolve_type(m.type, scope)[0]) for m in node.members
            ))
            self._check_unique([m.name for m in node.members],
                               f"struct {node.name!r} member")
            rs = RStruct(scope.path + (node.name,), tc)
            scope.define(node.name, "struct", rs)
            self.spec.structs.append(rs)
        elif isinstance(node, ast.EnumDecl):
            self._check_unique(node.members, f"enum {node.name!r} member")
            tc = EnumTC(node.name, tuple(node.members))
            re_ = REnum(scope.path + (node.name,), tc)
            scope.define(node.name, "enum", re_)
            for idx, m in enumerate(node.members):
                scope.define(m, "enum_member", idx)
            self.spec.enums.append(re_)
        elif isinstance(node, ast.ExceptionDecl):
            tc = StructTC(node.name, tuple(
                (m.name, self.resolve_type(m.type, scope)[0]) for m in node.members
            ))
            rx = RException(scope.path + (node.name,), tc)
            scope.define(node.name, "exception", rx)
            self.spec.exceptions.append(rx)
        elif isinstance(node, ast.InterfaceDecl):
            self.visit_interface(node, scope)
        else:
            raise IdlSemanticError(f"unexpected definition {node!r} at top level")

    def visit_typedef(self, node: ast.Typedef, scope: _Scope) -> None:
        tc, _ = self.resolve_type(node.type, scope)
        if node.pragmas and not isinstance(tc, DSequenceTC):
            p = node.pragmas[0]
            raise IdlSemanticError(
                f"#pragma {p.package}:{p.target} must annotate a dsequence "
                f"typedef, but {node.name!r} is {tc!r}"
            )
        td = RTypedef(scope.path + (node.name,), tc, list(node.pragmas))
        scope.define(node.name, "typedef", td)
        self.spec.typedefs.append(td)

    def _check_const_type(self, node: ast.ConstDecl, value: Any) -> None:
        t = node.type
        if isinstance(t, ast.PrimType):
            if t.name in ("float", "double"):
                if not isinstance(value, (int, float)):
                    raise IdlSemanticError(
                        f"const {node.name!r}: expected a number, got {value!r}"
                    )
            elif t.name == "boolean":
                if not isinstance(value, bool):
                    raise IdlSemanticError(
                        f"const {node.name!r}: expected TRUE/FALSE, got {value!r}"
                    )
            elif t.name == "char":
                if not (isinstance(value, str) and len(value) == 1):
                    raise IdlSemanticError(
                        f"const {node.name!r}: expected a char, got {value!r}"
                    )
            else:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise IdlSemanticError(
                        f"const {node.name!r}: expected an integer, got {value!r}"
                    )
        elif isinstance(t, ast.StringType):
            if not isinstance(value, str):
                raise IdlSemanticError(
                    f"const {node.name!r}: expected a string, got {value!r}"
                )
        else:
            raise IdlSemanticError(
                f"const {node.name!r}: type must be primitive or string"
            )

    def _check_unique(self, names, what: str) -> None:
        seen = set()
        for n in names:
            if n in seen:
                raise IdlSemanticError(f"duplicate {what} {n!r}")
            seen.add(n)

    def visit_interface(self, node: ast.InterfaceDecl, scope: _Scope) -> None:
        bases: list[RInterface] = []
        for b in node.bases:
            entry = scope.lookup(b.scoped_name)
            if entry.kind != "interface":
                raise IdlSemanticError(
                    f"interface {node.name!r} cannot inherit from "
                    f"non-interface {b.text!r}"
                )
            bases.append(entry.value._resolved)
        sub = _Scope(node.name, scope)
        entry = scope.define(node.name, "interface", sub)
        riface = RInterface(scope.path + (node.name,), bases, [], [])
        sub._resolved = riface  # type: ignore[attr-defined]
        entry.value._resolved = riface  # type: ignore[attr-defined]

        inherited_ops = {op.name for b in bases for op in b.all_ops()}
        op_names: set[str] = set()
        for item in node.body:
            if isinstance(item, ast.Operation):
                if item.name in op_names or item.name in inherited_ops:
                    raise IdlSemanticError(
                        f"duplicate operation {item.name!r} in interface "
                        f"{node.name!r} (CORBA IDL has no overloading)"
                    )
                op_names.add(item.name)
                riface.ops.append(self.visit_operation(item, sub, node.name))
            elif isinstance(item, ast.Attribute):
                tc, _ = self.resolve_type(item.type, sub)
                if isinstance(tc, DSequenceTC):
                    raise IdlSemanticError(
                        f"attribute {item.name!r} cannot be distributed"
                    )
                riface.attrs.append(RAttribute(item.name, tc, item.readonly))
            else:
                self.visit(item, sub)
        self.spec.interfaces.append(riface)

    def visit_operation(self, op: ast.Operation, scope: _Scope,
                        iface_name: str) -> ROperation:
        self._check_unique([p.name for p in op.params],
                           f"parameter of {iface_name}::{op.name}")
        params: list[RParam] = []
        for p in op.params:
            tc, via = self.resolve_type(p.type, scope)
            params.append(RParam(p.direction, p.name, tc, via))
        if isinstance(op.return_type, ast.VoidType):
            ret_tc = None
        else:
            ret_tc, _ = self.resolve_type(op.return_type, scope)
        raises: list[RException] = []
        for r in op.raises:
            entry = scope.lookup(r.scoped_name)
            if entry.kind != "exception":
                raise IdlSemanticError(
                    f"raises clause of {iface_name}::{op.name} references "
                    f"non-exception {r.text!r}"
                )
            raises.append(entry.value)
        if op.oneway:
            if ret_tc is not None or any(p.direction != "in" for p in params):
                raise IdlSemanticError(
                    f"oneway operation {iface_name}::{op.name} must return "
                    "void and take only 'in' parameters"
                )
            if raises:
                raise IdlSemanticError(
                    f"oneway operation {iface_name}::{op.name} cannot raise"
                )
        return ROperation(op.name, ret_tc, params, op.oneway, raises)


def analyze(spec: ast.Specification) -> CompiledSpec:
    """Run semantic analysis over a parsed specification."""
    return Analyzer().analyze(spec)
