"""Base of the package's immutable value classes.

A subclass names its fields in `__slots__`, sets each of them once in
its own `__init__` through `_set`, and gets a frozen `__setattr__`,
equality and hash over those fields against its own class only, and a
`name(field=value, ...)` repr.  The package avoids `dataclasses`: its
import loads `inspect`, `ast` and `dis`, and with it `import mckay.cli`,
which every `mckay` process pays, took more than twice as long.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"
