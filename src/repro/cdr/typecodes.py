"""TypeCodes: runtime descriptions of IDL types.

A :class:`TypeCode` drives marshaling (see :mod:`repro.cdr.encoder`),
wire-size estimation, and default-value construction.  The IDL compiler
emits one TypeCode expression per declared type; handwritten code can
build them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

import numpy as np


class TypeCode:
    """Base class; concrete kinds below."""

    kind: str = "abstract"

    def default(self) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"tc<{self.kind}>"


@dataclass(frozen=True, repr=False)
class PrimitiveTC(TypeCode):
    """A fixed-size primitive (octet/boolean/char/integers/floats)."""

    name: str
    size: int          # bytes on the wire (also the CDR alignment)
    fmt: str           # struct/numpy dtype char, e.g. "<i4"
    py_default: Any = 0

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.name

    @cached_property
    def dtype(self) -> np.dtype:
        return np.dtype(self.fmt)

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


@dataclass(frozen=True, repr=False)
class StringTC(TypeCode):
    """IDL ``string`` / ``string<bound>`` (bound excludes the terminator)."""

    bound: Optional[int] = None
    kind = "string"

    def default(self) -> str:
        return ""

    def __repr__(self) -> str:
        return f"tc<string<{self.bound}>>" if self.bound else "tc<string>"


@dataclass(frozen=True, repr=False)
class SequenceTC(TypeCode):
    """IDL ``sequence<T>`` / ``sequence<T, bound>``."""

    element: TypeCode
    bound: Optional[int] = None
    kind = "sequence"

    def default(self) -> list:
        return []

    def __repr__(self) -> str:
        b = f", {self.bound}" if self.bound else ""
        return f"tc<sequence<{self.element!r}{b}>>"


@dataclass(frozen=True, repr=False)
class EnumTC(TypeCode):
    """IDL ``enum``; values travel as ulong member indices."""

    name: str
    members: tuple[str, ...]
    kind = "enum"

    def default(self) -> int:
        return 0

    def index_of(self, value: Any) -> int:
        if isinstance(value, str):
            return self.members.index(value)
        return int(value)

    def __repr__(self) -> str:
        return f"tc<enum {self.name}>"


@dataclass(frozen=True, repr=False)
class StructTC(TypeCode):
    """IDL ``struct``; values are dicts or objects with matching attrs."""

    name: str
    fields: tuple[tuple[str, TypeCode], ...]
    kind = "struct"

    def default(self) -> dict:
        return {fname: ftc.default() for fname, ftc in self.fields}

    def __repr__(self) -> str:
        return f"tc<struct {self.name}>"


@dataclass(frozen=True, repr=False)
class ObjectRefTC(TypeCode):
    """A CORBA object reference (the PARDIS IOR) as a data value.

    ``repo_id`` narrows the expected interface (IDL interface-typed
    parameters); ``None`` is the wildcard ``Object`` type.  Values are
    :class:`repro.core.repository.ObjectRef` instances, proxies (their
    reference is extracted), or ``None`` (the nil reference).
    """

    repo_id: Optional[str] = None
    kind = "objref"

    def default(self):
        return None

    def __repr__(self) -> str:
        return f"tc<Object{f' ({self.repo_id})' if self.repo_id else ''}>"


@dataclass(frozen=True, repr=False)
class ArrayTC(TypeCode):
    """IDL fixed-size array ``T name[d0][d1]...``: no length prefix on the
    wire, exactly ``prod(dims)`` elements in row-major order."""

    element: TypeCode
    dims: tuple[int, ...]
    kind = "array"

    def __post_init__(self) -> None:
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"array dims must be positive, got {self.dims}")

    @property
    def total(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def default(self):
        if is_numeric_primitive(self.element):
            return np.zeros(self.dims, dtype=self.element.dtype)

        def build(dims):
            if not dims:
                return self.element.default()
            return [build(dims[1:]) for _ in range(dims[0])]

        return build(self.dims)

    def __repr__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        return f"tc<array {self.element!r}{dims}>"


@dataclass(frozen=True, repr=False)
class UnionTC(TypeCode):
    """IDL discriminated union: the discriminator travels first, then the
    selected arm.  Values are ``(discriminant, arm_value)`` pairs."""

    name: str
    discriminator: TypeCode
    #: ((label_value, arm_name, arm_tc), ...)
    cases: tuple[tuple[Any, str, TypeCode], ...]
    #: (arm_name, arm_tc) for the default arm, or None
    default_case: Optional[tuple[str, TypeCode]] = None
    kind = "union"

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


@dataclass(frozen=True, repr=False)
class DSequenceTC(TypeCode):
    """PARDIS ``dsequence<T, bound, client_dist, server_dist>``.

    On the wire a dsequence travels as per-thread *fragments*, each encoded
    as a plain sequence; the distribution attributes live here so stubs
    know the default layouts on either side.
    """

    element: TypeCode
    bound: Optional[int] = None
    client_dist: str = "BLOCK"
    server_dist: str = "BLOCK"
    kind = "dsequence"

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
