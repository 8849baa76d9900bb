"""Plain record classes for the import path.

``@dataclass`` compiles every decorated class's ``__init__``, ``__repr__``
and ``__eq__`` with ``exec`` each time its module is imported: 0.6-1.3 ms a
class on CPython 3.11/3.12, about two thirds of ``import repro``.  The
records that ``repro.core``, ``repro.idl``, ``repro.netsim`` and
``repro.services`` load are therefore plain classes that write their
``__init__`` out, so its code comes from the cached bytecode.  The mixins
below give the cold ones a ``repr``, and the ones that are hashed or
compared their value semantics; they read the field names at call time
and generate nothing.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Dataclass-style ``repr`` over a class's ``_fields``.

    ``_fields`` defaults to the class's own ``__slots__``; a class whose
    slots also hold derived or cached state names its fields explicitly.
    A plain ``Record`` compares by identity.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__ and "__slots__" in cls.__dict__:
            cls._fields = tuple(cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """An immutable value: records of the same class with equal fields
    compare and hash equal.

    ``__init__`` sets fields with ``object.__setattr__``; any later
    assignment raises ``AttributeError``.  Copies and pickles rebuild the
    record by calling the class with its field values in order, so the
    ``__init__`` checks run again and derived slots are recomputed.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()
