"""Exception types shared across the package, and the argument checks."""

from __future__ import annotations

from typing import Iterable, TypeVar

_T = TypeVar("_T")


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


def check_type(name: str, value: object, kind: type[_T]) -> _T:
    """Return ``value`` if it is an instance of ``kind``.

    The one type check of a ``FullereneGraph``, ``Matching``, ``Ring``,
    ``LeapfrogResult`` or ``CatalogEntry`` argument, and of the fields of
    such a value: when it is built, or for a ``Matching`` or ``Ring`` where
    they are first read.  Either graph type is resolved by
    ``plane_graph._embedded`` instead.

    Raises:
        GraphError: naming ``name``, ``kind`` and the type given otherwise.
    """
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise GraphError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def check_ints(name: str, values: Iterable[object]) -> list[int]:
    """Return the items of ``values``, each checked by :func:`check_int`.

    Raises:
        GraphError: naming ``name`` if ``values`` is not iterable or an item
            is not an integer.
    """
    try:
        items = list(values)
    except TypeError:
        raise GraphError(f"{name}s must be an iterable of integers, got {values!r}") from None
    for item in items:
        check_int(name, item)
    return items
