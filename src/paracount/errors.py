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


def reject_unknown_fields(obj: dict, allowed: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise CountingError(
            "unknown-field",
            f"{what} contains unknown field(s): {', '.join(sorted(unknown))}",
        )


def read_int(value, what: str) -> int:
    """Return ``value`` if it is an int; refuse bools, floats and strings."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CountingError("not-an-integer", f"{what} = {value!r} is not an integer")
    return value
