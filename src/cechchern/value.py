"""Immutable values: the package's one immutability guard.

A Value subclass declares its `__slots__` and sets them in its constructor
with `object.__setattr__`; any later assignment raises.  A subclass that
defines no `__eq__`, `__hash__` or `__repr__` of its own compares, hashes
and prints as the record of its slots, in slot order.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in type(self).__slots__])

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"
