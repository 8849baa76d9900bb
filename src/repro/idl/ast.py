"""Abstract syntax tree for the PARDIS IDL.

Type and constant expressions are immutable values that compare and hash
by value; declarations are mutable records (see :mod:`repro._record`).
"""

from __future__ import annotations

from typing import Optional, Union

from .._record import FrozenRecord, Record

_set = object.__setattr__

# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------


class PrimType(FrozenRecord):
    """octet/boolean/char/short/ushort/long/ulong/longlong/ulonglong/
    float/double — already normalized (``unsigned long`` -> ``ulong``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class StringType(FrozenRecord):
    __slots__ = ("bound",)

    def __init__(self, bound: Optional[int] = None) -> None:
        _set(self, "bound", bound)


class SeqType(FrozenRecord):
    __slots__ = ("element", "bound")

    def __init__(self, element: "TypeExpr",
                 bound: Optional[int] = None) -> None:
        _set(self, "element", element)
        _set(self, "bound", bound)


class DSeqType(FrozenRecord):
    """PARDIS distributed sequence (paper §3.2)."""

    __slots__ = ("element", "bound", "client_dist", "server_dist")

    def __init__(self, element: "TypeExpr", bound: Optional[int] = None,
                 client_dist: str = "BLOCK",
                 server_dist: str = "BLOCK") -> None:
        _set(self, "element", element)
        _set(self, "bound", bound)
        _set(self, "client_dist", client_dist)
        _set(self, "server_dist", server_dist)


class NamedType(FrozenRecord):
    """Reference to a declared type by (possibly scoped) name."""

    __slots__ = ("scoped_name",)

    def __init__(self, scoped_name: tuple[str, ...]) -> None:
        _set(self, "scoped_name", scoped_name)

    @property
    def text(self) -> str:
        return "::".join(self.scoped_name)


class VoidType(FrozenRecord):
    __slots__ = ()


TypeExpr = Union[PrimType, StringType, SeqType, DSeqType, NamedType,
                 VoidType]

# ---------------------------------------------------------------------------
# Const expressions
# ---------------------------------------------------------------------------


class Literal(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        _set(self, "value", value)  # int | float | str | bool


class ConstRef(FrozenRecord):
    __slots__ = ("scoped_name",)

    def __init__(self, scoped_name: tuple[str, ...]) -> None:
        _set(self, "scoped_name", scoped_name)


class UnaryExpr(FrozenRecord):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: "ConstExpr") -> None:
        _set(self, "op", op)
        _set(self, "operand", operand)


class BinaryExpr(FrozenRecord):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "ConstExpr",
                 right: "ConstExpr") -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


ConstExpr = Union[Literal, ConstRef, UnaryExpr, BinaryExpr]

# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Pragma(Record):
    """``#pragma PACKAGE:structure`` — applies to the next dsequence typedef
    (paper §3.4/§4.3).  Several pragmas may stack onto one typedef."""

    __slots__ = ("package", "target", "line")

    def __init__(self, package: str, target: str, line: int = 0) -> None:
        self.package = package
        self.target = target
        self.line = line


class Typedef(Record):
    __slots__ = ("name", "type", "pragmas")

    def __init__(self, name: str, type: TypeExpr,
                 pragmas: Optional[list[Pragma]] = None) -> None:
        self.name = name
        self.type = type
        self.pragmas = [] if pragmas is None else pragmas


class ConstDecl(Record):
    __slots__ = ("name", "type", "value")

    def __init__(self, name: str, type: TypeExpr, value: ConstExpr) -> None:
        self.name = name
        self.type = type
        self.value = value


class StructMember(Record):
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: TypeExpr) -> None:
        self.name = name
        self.type = type


class StructDecl(Record):
    __slots__ = ("name", "members")

    def __init__(self, name: str, members: list[StructMember]) -> None:
        self.name = name
        self.members = members


class EnumDecl(Record):
    __slots__ = ("name", "members")

    def __init__(self, name: str, members: list[str]) -> None:
        self.name = name
        self.members = members


class ExceptionDecl(Record):
    __slots__ = ("name", "members")

    def __init__(self, name: str, members: list[StructMember]) -> None:
        self.name = name
        self.members = members


class Param(Record):
    __slots__ = ("direction", "type", "name")

    def __init__(self, direction: str, type: TypeExpr, name: str) -> None:
        self.direction = direction  # "in" | "out" | "inout"
        self.type = type
        self.name = name


class Operation(Record):
    __slots__ = ("name", "return_type", "params", "oneway", "raises")

    def __init__(self, name: str, return_type: TypeExpr,
                 params: list[Param], oneway: bool = False,
                 raises: Optional[list[NamedType]] = None) -> None:
        self.name = name
        self.return_type = return_type
        self.params = params
        self.oneway = oneway
        self.raises = [] if raises is None else raises


class Attribute(Record):
    __slots__ = ("name", "type", "readonly")

    def __init__(self, name: str, type: TypeExpr,
                 readonly: bool = False) -> None:
        self.name = name
        self.type = type
        self.readonly = readonly


class InterfaceDecl(Record):
    __slots__ = ("name", "bases", "body")

    def __init__(self, name: str, bases: list[NamedType],
                 body: list) -> None:
        self.name = name
        self.bases = bases
        self.body = body  # Operation | Attribute | Typedef | ConstDecl | ...


class ModuleDecl(Record):
    __slots__ = ("name", "body")

    def __init__(self, name: str, body: list) -> None:
        self.name = name
        self.body = body


class Specification(Record):
    """A parsed IDL file."""

    __slots__ = ("definitions",)

    def __init__(self, definitions: list) -> None:
        self.definitions = definitions
