"""The base of the package's immutable value classes.

A value class names its fields in ``__slots__``, two or more of them, and
sets them once, in its own ``__init__``, through ``object.__setattr__``, or
through ``_trusted`` where the caller guarantees what ``__init__`` checks.
``Value`` supplies the rest: assignment and deletion raise
``AttributeError``; two values are equal when they are of the same class and
their fields are equal; a value hashes as the tuple of its fields; the repr
names every field by keyword, so it rebuilds the value, and pickling and
copying rebuild it through ``__init__`` too.

These are the methods ``dataclasses`` would write, but importing that module
pulls in ``inspect`` and costs a cold CLI call more than the rest of the
package's set-up, so the package does not use it.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of the fields; not a method, so it is called as _key(self)
        cls._key = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    @classmethod
    def _trusted(cls, first, second):
        """The value of a two-field class with these fields, set as they are,
        without the checks of ``__init__``: the caller guarantees them."""
        obj = object.__new__(cls)
        a, b = cls.__slots__
        object.__setattr__(obj, a, first)
        object.__setattr__(obj, b, second)
        return obj
