"""Domain errors with stable machine-readable codes.

Every refusal the library can produce carries a ``code`` string that stays
stable across releases; the CLI prints it verbatim on stderr and tests match
on it.  Codes are lowercase, dash-separated, e.g. ``"duplicate-edge"``.
"""
from __future__ import annotations

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


def read_name(value, what: str, code: str = "malformed-instance") -> str:
    """Return ``value`` if it is a string; a name is never coerced from another type."""
    if not isinstance(value, str):
        raise CountingError(code, f"{what} = {value!r} is not a string")
    return value
