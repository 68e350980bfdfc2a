"""Domain errors with stable machine-readable codes.

Every refusal the library can produce carries a ``code`` string that stays
stable across releases; the CLI prints it verbatim on stderr and tests match
on it.  Codes are lowercase, dash-separated, e.g. ``"duplicate-edge"``.
"""
from __future__ import annotations

from operator import attrgetter

#: Default cap on exhaustive enumerations (walks, covers, maps, ...).
DEFAULT_LIMIT = 10**7


class CountingError(Exception):
    """A domain error (bad instance, violated precondition, ...)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class LimitExceeded(CountingError):
    """An exhaustive enumeration left desk scale; raise instead of grinding."""

    def __init__(self, message: str):
        super().__init__("limit-exceeded", message)


class Record:
    """An immutable value type on ``__slots__``.

    ``_fields`` names the slots that make up the value, in order: equality,
    hash and repr read them, and records are equal only if their classes are.
    The inherited ``__init__`` binds positional and keyword arguments to
    ``_fields``, takes a missing one from ``_defaults``, then runs the
    ``_check`` hook.  A class that derives a field or keeps a slot outside
    ``_fields`` writes its own ``__init__`` and stores through ``_set``.
    Once built, a record refuses assignment and deletion.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(attrgetter(*cls._fields))  # the value, for eq and hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The values of ``_fields``, bound from call arguments as a function
        with those parameters and ``_defaults`` would bind them."""
        names = cls._fields
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or kwargs.keys() & names[:len(args)]
                or values.keys() != set(names)):  # too many, repeated, unknown or missing
            raise TypeError(f"{cls.__name__}() takes the arguments {', '.join(names)}")
        return [values[name] for name in names]

    def _check(self) -> None:
        """Refuse an invalid value; called once the fields are set."""

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state) -> None:
        """Restore the slots that ``copy`` and ``pickle`` saved, past ``__setattr__``."""
        self._set(**state[1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def check_limit(count: int, limit: int, what: str) -> None:
    """Refuse an exhaustive route once ``count`` candidates pass ``limit``.

    Enumerators charge each item as they emit it; up-front routes charge the
    size of their whole candidate space before they loop.
    """
    if count > limit:
        raise LimitExceeded(f"more than {limit} {what}")


def read_fields(obj, what: str, required, optional=(), code: str = "malformed-instance") -> dict:
    """Return ``obj`` if it is a JSON object with every ``required`` field and no
    field outside ``required`` and ``optional``.

    A non-object or a missing field (the first in sorted order) is ``code``; a
    field outside both is ``unknown-field``.  An object whose keys are free (an
    interpretation, say) passes itself as ``optional``.
    """
    if not isinstance(obj, dict):
        raise CountingError(code, f"{what} must be a JSON object")
    unknown = ", ".join(sorted(obj.keys() - set(required) - set(optional)))
    if unknown:
        raise CountingError("unknown-field", f"{what} contains unknown field(s): {unknown}")
    missing = sorted(set(required) - obj.keys())
    if missing:
        raise CountingError(code, f'{what} needs "{missing[0]}"')
    return obj


def read_int(value, what: str) -> int:
    """Return ``value`` if it is an int; refuse bools, floats and strings."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CountingError("not-an-integer", f"{what} = {value!r} is not an integer")
    return value


def read_array(value, what: str, length: int | None = None,
               code: str = "malformed-instance") -> list | tuple:
    """Return ``value`` if it is a JSON array, of ``length`` items when given;
    a string, number, null or object is never iterated as one."""
    if not isinstance(value, (list, tuple)):
        raise CountingError(code, f"{what} must be a JSON array")
    if length is not None and len(value) != length:
        raise CountingError(code, f"{what} must have {length} items, not {len(value)}")
    return value


def read_name(value, what: str, code: str = "malformed-instance") -> str:
    """Return ``value`` if it is a string; a name is never coerced from another type."""
    if not isinstance(value, str):
        raise CountingError(code, f"{what} = {value!r} is not a string")
    return value
