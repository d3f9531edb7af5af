"""Built-in graphs: the named fullerenes and capped nanotube families.

Eleven named graphs ship with the package, each wound on demand from its
face spiral.  A spiral is named, as in Fowler & Manolopoulos, *An Atlas of
Fullerenes* (1995), by the positions of its 12 pentagons among the n/2 + 2
faces in winding order; every other face is a hexagon.  The spirals of the
isomers pinned by invariants rather than by shape are reproduced by an
exhaustive isomer search, the slow tests of tests/test_isomer_search.py
(``pytest -m slow``).  The nanotube families are wound from spirals too.

Every entry carries its expected facts - sextet polynomial, minimum
pentagonal-ring length, resonance order, hexagon count - which the test
suite and ``catalog verify`` recompute from scratch.  ``_facts`` is the one
computation of those facts from a graph: ``verify_entry`` compares its
result with the entry's, and the slow isomer search pins isomers by it.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Union

from ._spiral import wind
from .errors import GraphError, GuardExceeded, check_int, check_ints, check_type
from .plane_graph import _CODE_LIMIT, FullereneGraph, validate_fullerene
from .resonance import ALL, resonance_order, sextet
from .rings_fragments import tau


@dataclass(frozen=True)
class ExpectedFacts:
    """Reference values that ``verify_entry`` recomputes, checked when built (GraphError naming the field)."""

    sextet: tuple[int, ...]  # ascending coefficients
    tau: int | None
    order: Union[int, str]
    hexagons: int

    def __post_init__(self) -> None:
        if type(self.sextet) is not tuple or not self.sextet:
            raise GraphError(f"ExpectedFacts sextet must be a non-empty tuple of ints, got {self.sextet!r}")
        check_ints("ExpectedFacts sextet coefficient", self.sextet)
        if self.tau is not None:
            check_int("ExpectedFacts tau", self.tau)
        if self.order != ALL:
            check_int("ExpectedFacts order", self.order, 0)
        check_int("ExpectedFacts hexagons", self.hexagons, 0)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A named graph and its facts, checked when built (GraphError naming the field)."""

    name: str
    graph: FullereneGraph
    expected: ExpectedFacts

    def __post_init__(self) -> None:
        check_type("expected facts", self.expected, ExpectedFacts)
        check_type("graph", self.graph, FullereneGraph)


# The members whose every disjoint hexagon set is resonant.
THE_NINE = ("F20", "F24", "F28", "F32", "F36_1", "F36_2", "F40", "F48", "C60")

# name -> (vertex count, spiral positions of the 12 pentagons from 1, facts)
_CATALOG: dict[str, tuple[int, tuple[int, ...], ExpectedFacts]] = {
    # the dodecahedron
    "F20": (20, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), ExpectedFacts((1,), 5, ALL, 0)),
    # a belt of twelve pentagons closed by two hexagons
    "F24": (24, (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), ExpectedFacts((1, 2, 1), 6, ALL, 2)),
    # pinned by sextet polynomial (1,4,4) and min pentagonal ring 8
    "F28": (28, (1, 2, 3, 4, 5, 7, 10, 12, 13, 14, 15, 16), ExpectedFacts((1, 4, 4), 8, ALL, 4)),
    # pinned among the three 30-vertex isomers: has a pentagonal cap and
    # a vertex whose three opposite faces are pairwise disjoint hexagons
    "F30": (30, (1, 2, 3, 4, 7, 10, 11, 12, 13, 14, 15, 16), ExpectedFacts((1, 5, 4), 6, 1, 5)),
    # pinned by sextet polynomial (1,6,9) and min pentagonal ring 9
    "F32": (32, (1, 2, 3, 4, 7, 10, 11, 13, 14, 16, 17, 18), ExpectedFacts((1, 6, 9), 9, ALL, 6)),
    # pinned by sextet polynomial (1,8,20,16,2), no pentagonal ring,
    # and exactly two turtle-shaped maximal pentagonal fragments
    "F36_1": (
        36, (1, 2, 3, 4, 7, 10, 12, 15, 17, 18, 19, 20),
        ExpectedFacts((1, 8, 20, 16, 2), None, ALL, 8),
    ),
    # pinned by sextet polynomial (1,8,18,8,1) and min pentagonal ring 10
    "F36_2": (
        36, (1, 2, 3, 4, 7, 10, 11, 14, 17, 18, 19, 20),
        ExpectedFacts((1, 8, 18, 8, 1), 10, ALL, 8),
    ),
    # two pentagonal caps, each ringed by five hexagons, joined by ten pentagons
    "F40": (
        40, (1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 22),
        ExpectedFacts((1, 10, 35, 50, 25), 10, ALL, 10),
    ),
    # a belt of twelve pentagons between two hexagonal caps, each ringed by
    # six hexagons; pinned by sextet polynomial (1,14,67,130,109,36,4) and
    # min pentagonal ring 12
    "F48": (
        48, (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
        ExpectedFacts((1, 14, 67, 130, 109, 36, 4), 12, ALL, 14),
    ),
    # the icosahedral isomer; its graph is the leapfrog image of F20
    # (checked by canonical code in tests/test_leapfrog.py)
    "C60": (
        60, (1, 7, 9, 11, 13, 15, 18, 20, 22, 24, 26, 32),
        ExpectedFacts((1, 20, 160, 660, 1510, 1912, 1240, 320, 5), None, ALL, 20),
    ),
    # the isolated-pentagon 70-vertex isomer (five-fold barrel); pinned by
    # having no pentagonal ring and resonance order exactly 2
    "C70": (
        70, (1, 7, 9, 11, 13, 15, 27, 29, 31, 33, 35, 37),
        ExpectedFacts((1, 25, 255, 1355, 3940, 5958, 4715, 2065, 375, 25), None, 2, 25),
    ),
}


def catalog_names() -> tuple[str, ...]:
    """All entry names, smallest graph first."""
    return tuple(_CATALOG)


def _key(name: str) -> str:
    key = name.upper() if isinstance(name, str) else None
    if key not in _CATALOG:
        known = ", ".join(_CATALOG)
        raise GraphError(f"unknown catalog name {name!r}; expected one of: {known}")
    return key


def catalog_spiral(name: str) -> list[int]:
    """A named entry's face spiral: the sizes of its faces in winding order.

    Raises:
        GraphError: if the name is unknown.
    """
    n, pentagons, _ = _CATALOG[_key(name)]
    return [5 if i in pentagons else 6 for i in range(1, n // 2 + 3)]


def catalog_graph(name: str) -> CatalogEntry:
    """Load a named entry.

    Raises:
        GraphError: if the name is unknown.
    """
    key = _key(name)
    g = wind(catalog_spiral(key))
    assert g is not None
    return CatalogEntry(key, validate_fullerene(g), _CATALOG[key][2])


def _facts(f: FullereneGraph) -> ExpectedFacts:
    """The facts a catalog entry records, computed from its graph."""
    return ExpectedFacts(
        sextet(f).coefficients, tau(f), resonance_order(f).order, len(f.hexagon_ids)
    )


def verify_entry(entry: CatalogEntry) -> dict[str, tuple[object, object, bool]]:
    """Recompute each expected fact; returns {fact: (expected, computed, ok)}.

    Raises:
        GraphError: if entry is not a ``CatalogEntry``.
    """
    check_type("catalog entry", entry, CatalogEntry)
    names = (k.name for k in fields(ExpectedFacts))
    pairs = zip(astuple(entry.expected), astuple(_facts(entry.graph)))
    return {k: (want, got, want == got) for k, (want, got) in zip(names, pairs)}


def nanotube(cap: str, hex_rings: int) -> FullereneGraph:
    """A tube of hexagon rings closed by two pentagonal caps.

    ``cap`` selects the cap face: "R5" (a pentagon surrounded by five
    pentagons, as in F20) or "R6" (a hexagon surrounded by six pentagons, as
    in F24).  ``hex_rings`` >= 1 rings of 5 (resp. 6) hexagons join the two
    caps; vertex count is 20 + 10k (R5) or 24 + 12k (R6).

    Raises:
        GraphError: on an unknown cap or a ring count that is not an
            integer >= 1.
        GuardExceeded: if the tube would have more than 65,535 vertices,
            the most a canonical code holds; checked before winding.
        RuntimeError: if the spiral does not wind to that vertex count.
    """
    if not isinstance(cap, str):
        raise GraphError(f"cap must be a string, R5 or R6, got {cap!r}")
    kind = cap.upper()
    if kind not in ("R5", "R6"):
        raise GraphError(f"unknown cap {cap!r}; expected R5 or R6")
    check_int("hex_rings", hex_rings, 1)
    k = 5 if kind == "R5" else 6  # the cap face's size and its ring of pentagons
    expected_n = 4 * k + 2 * k * hex_rings
    if expected_n > _CODE_LIMIT:
        raise GuardExceeded(
            f"an {kind} tube with {hex_rings} hexagon rings has {expected_n} vertices; "
            f"the canonical code holds at most {_CODE_LIMIT}"
        )
    seq = [k] + [5] * k + [6] * (k * hex_rings) + [5] * k + [k]
    g = wind(seq)
    if g is None or g.n != expected_n:
        raise RuntimeError(
            f"the {kind} tube spiral with {hex_rings} hexagon rings does not wind to {expected_n} vertices"
        )
    return validate_fullerene(g)
