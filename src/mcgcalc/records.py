"""The base of the package's record types.

A record is a class with ``__slots__`` whose ``__match_args__`` name its
fields in ``__init__`` order.  It behaves as the dataclass it replaces:
its repr lists the fields in that order, it is equal only to a record
of its own class with equal fields, and pickle and ``copy`` rebuild it
through its ``__init__``.  A plain record is mutable and unhashable; a
``Frozen`` one hashes its fields and refuses assignment with
FrozenRecord.  Each record writes its own ``__init__``, so its signature
is plain Python.  The records are not dataclasses because a CLI process
creates them at every start: a dataclass took about 1 ms to create, a
plain class about 0.015 ms (Python 3.11, 2-core Xeon).
"""

from .errors import FrozenRecord

_setattr = object.__setattr__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # equal by value and mutable, so not hashable

    def _set(self, *values) -> None:
        """Fill the fields, in ``__match_args__`` order.

        For records built a few times per command: this loop costs
        several times what assigning each field does, so a record built
        once per step or per letter assigns its fields itself."""
        for name, value in zip(self.__match_args__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenRecord(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecord(f"cannot delete field {name!r}")
