"""Built-in graphs: the named fullerenes and capped nanotube families.

Eleven named graphs ship with the package.  The three barrels (F20, F24,
F40) and the nanotube families are generated from face spirals on demand;
the rest were pinned once by an exhaustive isomer search (see
tools/gen_catalog.py) and frozen under data/ as rotation-system files whose
header comments record the winding spiral and the pinning invariants.

Every entry carries its expected facts - sextet polynomial, minimum
pentagonal-ring length, resonance order, hexagon count - which the test
suite and ``catalog verify`` recompute from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Union

from ._spiral import wind
from .errors import GraphError, check_int
from .plane_graph import FullereneGraph, parse_graph, validate_fullerene
from .resonance import ALL, resonance_order, sextet
from .rings_fragments import tau


@dataclass(frozen=True)
class ExpectedFacts:
    """Reference values re-verified against the live modules at test time."""

    sextet: tuple[int, ...]  # ascending coefficients
    tau: int | None
    order: Union[int, str]
    hexagons: int


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    graph: FullereneGraph
    expected: ExpectedFacts


# The members whose every disjoint hexagon set is resonant.
THE_NINE = ("F20", "F24", "F28", "F32", "F36_1", "F36_2", "F40", "F48", "C60")

_EXPECTED: dict[str, ExpectedFacts] = {
    "F20": ExpectedFacts((1,), 5, ALL, 0),
    "F24": ExpectedFacts((1, 2, 1), 6, ALL, 2),
    "F28": ExpectedFacts((1, 4, 4), 8, ALL, 4),
    "F30": ExpectedFacts((1, 5, 4), 6, 1, 5),
    "F32": ExpectedFacts((1, 6, 9), 9, ALL, 6),
    "F36_1": ExpectedFacts((1, 8, 20, 16, 2), None, ALL, 8),
    "F36_2": ExpectedFacts((1, 8, 18, 8, 1), 10, ALL, 8),
    "F40": ExpectedFacts((1, 10, 35, 50, 25), 10, ALL, 10),
    "F48": ExpectedFacts((1, 14, 67, 130, 109, 36, 4), 12, ALL, 14),
    "C60": ExpectedFacts((1, 20, 160, 660, 1510, 1912, 1240, 320, 5), None, ALL, 20),
    "C70": ExpectedFacts(
        (1, 25, 255, 1355, 3940, 5958, 4715, 2065, 375, 25), None, 2, 25
    ),
}

_BARRELS: dict[str, list[int]] = {
    "F20": [5] * 12,
    "F24": [6] + [5] * 12 + [6],
    "F40": [5] + [6] * 5 + [5] * 10 + [6] * 5 + [5],
}


def catalog_names() -> tuple[str, ...]:
    """All entry names, smallest graph first."""
    return tuple(_EXPECTED)


def catalog_graph(name: str) -> CatalogEntry:
    """Load a named entry.

    Raises:
        GraphError: if the name is unknown.
    """
    key = name.upper()
    if key not in _EXPECTED:
        known = ", ".join(_EXPECTED)
        raise GraphError(f"unknown catalog name {name!r}; expected one of: {known}")
    if key in _BARRELS:
        g = wind(_BARRELS[key])
        assert g is not None
    else:
        text = (resources.files("resonantk.data") / f"{key.lower()}.rot").read_text()
        g = parse_graph(text)
    return CatalogEntry(key, validate_fullerene(g), _EXPECTED[key])


def verify_entry(entry: CatalogEntry) -> dict[str, tuple[object, object, bool]]:
    """Recompute each expected fact; returns {fact: (expected, computed, ok)}."""
    f = entry.graph
    computed: dict[str, object] = {
        "sextet": sextet(f).coefficients,
        "tau": tau(f),
        "order": resonance_order(f).order,
        "hexagons": len(f.hexagon_ids),
    }
    want = {
        "sextet": entry.expected.sextet,
        "tau": entry.expected.tau,
        "order": entry.expected.order,
        "hexagons": entry.expected.hexagons,
    }
    return {k: (want[k], computed[k], want[k] == computed[k]) for k in want}


def nanotube(cap: str, hex_rings: int) -> FullereneGraph:
    """A tube of hexagon rings closed by two pentagonal caps.

    ``cap`` selects the cap face: "R5" (a pentagon surrounded by five
    pentagons, as in F20) or "R6" (a hexagon surrounded by six pentagons, as
    in F24).  ``hex_rings`` >= 1 rings of 5 (resp. 6) hexagons join the two
    caps; vertex count is 20 + 10k (R5) or 24 + 12k (R6).

    Raises:
        GraphError: on an unknown cap or a ring count that is not an
            integer >= 1.
    """
    if not isinstance(cap, str):
        raise GraphError(f"cap must be a string, R5 or R6, got {cap!r}")
    kind = cap.upper()
    if kind not in ("R5", "R6"):
        raise GraphError(f"unknown cap {cap!r}; expected R5 or R6")
    check_int("hex_rings", hex_rings, 1)
    if kind == "R5":
        seq = [5] + [5] * 5 + [6] * (5 * hex_rings) + [5] * 5 + [5]
        expected_n = 20 + 10 * hex_rings
    else:
        seq = [6] + [5] * 6 + [6] * (6 * hex_rings) + [5] * 6 + [6]
        expected_n = 24 + 12 * hex_rings
    g = wind(seq)
    assert g is not None and g.n == expected_n
    return validate_fullerene(g)
