"""Immutable records: the value semantics of a frozen dataclass, without
importing ``dataclasses`` (and ``inspect``) or generating code at import.

A record class names its fields in ``_fields``, in constructor order, and
``_defaults`` holds the default values of its last ``len(_defaults)``
fields.  The one constructor here takes each field by position or by
keyword and stores it; a missing, unknown, repeated or extra argument is a
TypeError naming the class.  A record writes its own ``__init__`` only
when it checks or converts its arguments, and stores each field with
``object.__setattr__``.  Records of one class are equal when their field
tuples are, records of different classes never are, the hash is that of
the field tuple, the repr reads ``Name(field=value, ...)``, and assigning
or deleting an attribute raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the field tuple; attrgetter of one name returns the bare value
        cls._values = staticmethod(get if len(cls._fields) > 1
                                   else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, "
                            f"got {len(args)}")
        values = dict(zip(fields[len(fields) - len(self._defaults):],
                          self._defaults))
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unknown field {key!r}")
            if key in fields[:len(args)]:
                raise TypeError(f"{name}() got {key!r} twice")
            values[key] = value
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing field {key!r}")
            object.__setattr__(self, key, values[key])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={value!r}" for name, value
                            in zip(self._fields, self._values(self)))
                + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), self._values(self)
