"""TypeCodes: runtime descriptions of IDL types.

A :class:`TypeCode` drives marshaling (see :mod:`repro.cdr.encoder`),
wire-size estimation, and default-value construction.  The IDL compiler
emits one TypeCode expression per declared type; handwritten code can
build them directly.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .._record import FrozenRecord

_set = object.__setattr__


class TypeCode(FrozenRecord):
    """Base class; concrete kinds below.  TypeCodes are immutable values:
    equal fields compare and hash equal."""

    __slots__ = ()
    kind: str = "abstract"

    def default(self) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"tc<{self.kind}>"


class PrimitiveTC(TypeCode):
    """A fixed-size primitive (octet/boolean/char/integers/floats)."""

    __slots__ = ("name", "size", "fmt", "py_default", "dtype")
    _fields = ("name", "size", "fmt", "py_default")

    def __init__(self, name: str, size: int, fmt: str,
                 py_default: Any = 0) -> None:
        _set(self, "name", name)
        _set(self, "size", size)    # bytes on the wire (also the CDR alignment)
        _set(self, "fmt", fmt)      # struct/numpy dtype char, e.g. "<i4"
        _set(self, "py_default", py_default)
        _set(self, "dtype", np.dtype(fmt))

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.name

    def default(self) -> Any:
        return self.py_default

    def __repr__(self) -> str:
        return f"tc<{self.name}>"


TC_OCTET = PrimitiveTC("octet", 1, "<u1")
TC_BOOLEAN = PrimitiveTC("boolean", 1, "<u1", False)
TC_CHAR = PrimitiveTC("char", 1, "<u1", "\0")
TC_SHORT = PrimitiveTC("short", 2, "<i2")
TC_USHORT = PrimitiveTC("ushort", 2, "<u2")
TC_LONG = PrimitiveTC("long", 4, "<i4")
TC_ULONG = PrimitiveTC("ulong", 4, "<u4")
TC_LONGLONG = PrimitiveTC("longlong", 8, "<i8")
TC_ULONGLONG = PrimitiveTC("ulonglong", 8, "<u8")
TC_FLOAT = PrimitiveTC("float", 4, "<f4", 0.0)
TC_DOUBLE = PrimitiveTC("double", 8, "<f8", 0.0)

PRIMITIVES = {
    tc.name: tc
    for tc in (TC_OCTET, TC_BOOLEAN, TC_CHAR, TC_SHORT, TC_USHORT, TC_LONG,
               TC_ULONG, TC_LONGLONG, TC_ULONGLONG, TC_FLOAT, TC_DOUBLE)
}

#: IDL integer ranges, used for encode-time validation.
INT_RANGES = {
    "octet": (0, 2**8 - 1),
    "short": (-2**15, 2**15 - 1),
    "ushort": (0, 2**16 - 1),
    "long": (-2**31, 2**31 - 1),
    "ulong": (0, 2**32 - 1),
    "longlong": (-2**63, 2**63 - 1),
    "ulonglong": (0, 2**64 - 1),
}


class StringTC(TypeCode):
    """IDL ``string`` / ``string<bound>`` (bound excludes the terminator)."""

    __slots__ = ("bound",)
    kind = "string"

    def __init__(self, bound: Optional[int] = None) -> None:
        _set(self, "bound", bound)

    def default(self) -> str:
        return ""

    def __repr__(self) -> str:
        return f"tc<string<{self.bound}>>" if self.bound else "tc<string>"


class SequenceTC(TypeCode):
    """IDL ``sequence<T>`` / ``sequence<T, bound>``."""

    __slots__ = ("element", "bound")
    kind = "sequence"

    def __init__(self, element: TypeCode,
                 bound: Optional[int] = None) -> None:
        _set(self, "element", element)
        _set(self, "bound", bound)

    def default(self) -> list:
        return []

    def __repr__(self) -> str:
        b = f", {self.bound}" if self.bound else ""
        return f"tc<sequence<{self.element!r}{b}>>"


class EnumTC(TypeCode):
    """IDL ``enum``; values travel as ulong member indices."""

    __slots__ = ("name", "members")
    kind = "enum"

    def __init__(self, name: str, members: tuple[str, ...]) -> None:
        _set(self, "name", name)
        _set(self, "members", members)

    def default(self) -> int:
        return 0

    def index_of(self, value: Any) -> int:
        if isinstance(value, str):
            return self.members.index(value)
        return int(value)

    def __repr__(self) -> str:
        return f"tc<enum {self.name}>"


class StructTC(TypeCode):
    """IDL ``struct``; values are dicts or objects with matching attrs."""

    __slots__ = ("name", "fields")
    kind = "struct"

    def __init__(self, name: str,
                 fields: tuple[tuple[str, TypeCode], ...]) -> None:
        _set(self, "name", name)
        _set(self, "fields", fields)

    def default(self) -> dict:
        return {fname: ftc.default() for fname, ftc in self.fields}

    def __repr__(self) -> str:
        return f"tc<struct {self.name}>"


class ObjectRefTC(TypeCode):
    """A CORBA object reference (the PARDIS IOR) as a data value.

    ``repo_id`` narrows the expected interface (IDL interface-typed
    parameters); ``None`` is the wildcard ``Object`` type.  Values are
    :class:`repro.core.repository.ObjectRef` instances, proxies (their
    reference is extracted), or ``None`` (the nil reference).
    """

    __slots__ = ("repo_id",)
    kind = "objref"

    def __init__(self, repo_id: Optional[str] = None) -> None:
        _set(self, "repo_id", repo_id)

    def default(self):
        return None

    def __repr__(self) -> str:
        return f"tc<Object{f' ({self.repo_id})' if self.repo_id else ''}>"


class ArrayTC(TypeCode):
    """IDL fixed-size array ``T name[d0][d1]...``: no length prefix on the
    wire, exactly ``prod(dims)`` elements in row-major order."""

    __slots__ = ("element", "dims")
    kind = "array"

    def __init__(self, element: TypeCode, dims: tuple[int, ...]) -> None:
        _set(self, "element", element)
        _set(self, "dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"array dims must be positive, got {dims}")

    @property
    def total(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def default(self):
        if is_numeric_primitive(self.element):
            return np.zeros(self.dims, dtype=self.element.dtype)

        def nested(dims):
            if not dims:
                return self.element.default()
            return [nested(dims[1:]) for _ in range(dims[0])]

        return nested(self.dims)

    def __repr__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        return f"tc<array {self.element!r}{dims}>"


class UnionTC(TypeCode):
    """IDL discriminated union: the discriminator travels first, then the
    selected arm.  Values are ``(discriminant, arm_value)`` pairs."""

    __slots__ = ("name", "discriminator", "cases", "default_case")
    kind = "union"

    def __init__(self, name: str, discriminator: TypeCode,
                 cases: tuple[tuple[Any, str, TypeCode], ...],
                 default_case: Optional[tuple[str, TypeCode]] = None) -> None:
        _set(self, "name", name)
        _set(self, "discriminator", discriminator)
        #: ((label_value, arm_name, arm_tc), ...)
        _set(self, "cases", cases)
        #: (arm_name, arm_tc) for the default arm, or None
        _set(self, "default_case", default_case)

    def arm_for(self, disc: Any):
        # Enum-discriminated unions store integer labels (member indices);
        # accept member names too, since enums decode to their names.
        if isinstance(self.discriminator, EnumTC) and isinstance(disc, str):
            if disc not in self.discriminator.members:
                return None
            disc = self.discriminator.members.index(disc)
        for label, aname, atc in self.cases:
            if label == disc:
                return aname, atc
        if self.default_case is not None:
            return self.default_case
        return None

    def default(self):
        label, aname, atc = self.cases[0]
        return (label, atc.default())

    def __repr__(self) -> str:
        return f"tc<union {self.name}>"


class DSequenceTC(TypeCode):
    """PARDIS ``dsequence<T, bound, client_dist, server_dist>``.

    On the wire a dsequence travels as per-thread *fragments*, each encoded
    as a plain sequence; the distribution attributes live here so stubs
    know the default layouts on either side.
    """

    __slots__ = ("element", "bound", "client_dist", "server_dist")
    kind = "dsequence"

    def __init__(self, element: TypeCode, bound: Optional[int] = None,
                 client_dist: str = "BLOCK",
                 server_dist: str = "BLOCK") -> None:
        _set(self, "element", element)
        _set(self, "bound", bound)
        _set(self, "client_dist", client_dist)
        _set(self, "server_dist", server_dist)

    def fragment_tc(self) -> SequenceTC:
        return SequenceTC(self.element)

    def default(self):
        return []

    def __repr__(self) -> str:
        return (f"tc<dsequence<{self.element!r}, {self.bound}, "
                f"{self.client_dist}, {self.server_dist}>>")


def is_numeric_primitive(tc: TypeCode) -> bool:
    return isinstance(tc, PrimitiveTC) and tc.name not in ("char",)


def is_numeric_rows(tc: TypeCode) -> bool:
    """Whether ``tc`` is a row of numbers, ``sequence<number>``: the
    element of a nested numeric sequence, which the CDR rows writer and
    reader handle."""
    return isinstance(tc, SequenceTC) and is_numeric_primitive(tc.element)


def wire_size(tc: TypeCode, value: Any) -> int:
    """Exact encoded size of ``value`` under ``tc`` (a fresh, aligned
    stream), used to charge network time.  It encodes ``value`` once and
    discards the bytes."""
    from .encoder import CdrEncoder  # local import to avoid a cycle

    enc = CdrEncoder()
    enc.encode(tc, value)
    return len(enc.getvalue())
