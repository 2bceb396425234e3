"""Base of the package's immutable value classes.

A subclass names its fields once, ``__slots__ = _fields = (...)``, and its
``__init__`` sets them through ``_init`` in that order.  Equality and hash
then follow the fields, ``repr`` names them, and ``copy`` and ``pickle``
rebuild a value through ``__init__``.  A field cannot be assigned or
deleted afterwards.  A class may keep derived slots out of ``_fields``;
they take no part in equality, hash or ``repr``.  The standard library's
class generator would do the same, but its import (with ``inspect``,
``ast`` and ``dis``) and the code it execs per class cost a short cold
command more time than its algebra takes.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field value (one field) or tuple of them, read in C
        cls._key = property(attrgetter(*cls._fields))

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
