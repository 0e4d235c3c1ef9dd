"""Immutable value records: the base of the package's small value classes.

A subclass names its fields in order, ``class Partition(OrderedRecord,
fields=("parts",))``, and writes its own ``__init__``, which stores them in
the instance dict and then validates them.  Record gives the methods that
the standard library's frozen data classes generate, without generating
code at import:

- ``==`` compares the field tuples of two instances of one class; an
  instance of another class gives NotImplemented, so the two are unequal;
- ``hash(x) == hash(field tuple)``, so sets of records keep their iteration
  order;
- ``repr`` reads ``Name(field=value, ...)``;
- assigning or deleting an attribute raises AttributeError.
  functools.cached_property writes to the instance dict directly, so it
  still works.

OrderedRecord adds ``<`` on the field tuples, within one class as well;
functools.total_ordering derives ``<=``, ``>`` and ``>=`` from it and ``==``.
"""
from __future__ import annotations

from functools import total_ordering
from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        if fields:
            get = attrgetter(*fields)
            # attrgetter of one name returns the value itself, not a 1-tuple
            cls._fields = fields
            cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class OrderedRecord(Record):
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < self._key(other)
        return NotImplemented
