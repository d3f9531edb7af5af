"""Exception types shared across the package, and the integer-limit check."""

from __future__ import annotations


class GraphError(ValueError):
    """Malformed input or a violated structural invariant.

    The message always names the invariant that failed (non-cubic vertex,
    asymmetric adjacency, Euler formula, overlapping faces, ...).
    """


class NotFullereneError(GraphError):
    """A valid plane cubic graph that is not a fullerene graph."""


class GuardExceeded(RuntimeError):
    """A size guard or enumeration cap was exceeded before completion."""


def check_int(name: str, value: object, minimum: int | None = None) -> int:
    """Return ``value`` if it is an integer of at least ``minimum``.

    A bool is not accepted as an integer.

    Raises:
        GraphError: naming ``name`` otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise GraphError(f"{name} must be at least {minimum}, got {value}")
    return value
