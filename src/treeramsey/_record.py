"""Field-wise equality, hashing and repr for the package's plain value classes.

Each class names its fields in ``_fields`` and writes its own ``__init__``.
These bases compare, hash and print those fields and nothing else: no method
is generated when a class is defined, so importing the package compiles no
code beyond its own modules.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Mutable fields: ``==`` over ``_fields`` between instances of one class,
    a ``Name(field=value, ...)`` repr, and no hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # mutable, so unhashable

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:  # one field reads as its value, several as their tuple
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A Record whose fields are stored once, by ``__init__`` through ``_set``:
    assigning or deleting an attribute raises AttributeError, and the hash is
    the hash of the fields."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
