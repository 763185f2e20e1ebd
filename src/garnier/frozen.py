"""The base of the package's immutable value types; it imports no package module."""
from __future__ import annotations

from typing import Tuple


class Frozen:
    """A subclass stores its fields in __slots__, validates and coerces its
    arguments in its own __init__ and passes the values, in _fields order, to
    this __init__, which sets each once; equality and hash take the type and
    the fields named in _fields, and repr shows those."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"
