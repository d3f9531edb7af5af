"""Catalog integrity and nanotube construction."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from resonantk.catalog import (
    THE_NINE,
    CatalogEntry,
    catalog_graph,
    catalog_names,
    catalog_spiral,
    nanotube,
    verify_entry,
)
from resonantk import catalog as _catalog
from resonantk.errors import GraphError, GuardExceeded
from resonantk.plane_graph import canonical_code, emit_graph
from resonantk.resonance import ALL


def test_names_frozen():
    assert catalog_names() == (
        "F20",
        "F24",
        "F28",
        "F30",
        "F32",
        "F36_1",
        "F36_2",
        "F40",
        "F48",
        "C60",
        "C70",
    )
    assert set(THE_NINE) < set(catalog_names())
    assert len(THE_NINE) == 9


def test_every_entry_verifies(catalog):
    for name, entry in catalog.items():
        results = verify_entry(entry)
        bad = {k: v for k, v in results.items() if not v[2]}
        assert not bad, f"{name}: {bad}"


def test_verify_entry_reads_a_hand_built_entry(catalog):
    entry = catalog["F24"]
    cases = [
        (("x", None, None), "^expected facts must be an ExpectedFacts, got NoneType$"),
        (("x", entry.graph, ()), "^expected facts must be an ExpectedFacts, got tuple$"),
        (("x", None, entry.expected), "^graph must be a FullereneGraph, got NoneType$"),
    ]
    for fields, message in cases:
        with pytest.raises(GraphError, match=message):
            CatalogEntry(*fields)
    assert verify_entry(CatalogEntry("x", entry.graph, entry.expected)) == verify_entry(entry)
    # facts with a field at the edge of what it takes are built and compared
    for name, edge in (("tau", None), ("order", 0), ("order", ALL), ("hexagons", 0)):
        facts = dataclasses.replace(entry.expected, **{name: edge})
        assert verify_entry(CatalogEntry("x", entry.graph, facts))[name][0] == edge


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sextet", (), r"sextet must be a non-empty tuple of ints, got \(\)"),
        ("sextet", [1, 2, 1], r"sextet must be a non-empty tuple of ints, got \[1, 2, 1\]"),
        ("sextet", (1, True, 1), "sextet coefficient must be an integer, got True"),
        ("tau", 6.0, "tau must be an integer, got 6.0"),
        ("order", "all", "order must be an integer, got 'all'"),
        ("order", -1, "order must be at least 0, got -1"),
        ("hexagons", None, "hexagons must be an integer, got None"),
        ("hexagons", -2, "hexagons must be at least 0, got -2"),
    ],
)
def test_expected_facts_are_checked_when_built(catalog, field, value, message):
    facts = catalog["F24"].expected
    with pytest.raises(GraphError, match=f"^ExpectedFacts {message}$"):
        dataclasses.replace(facts, **{field: value})


def test_vertex_counts(graphs):
    expected = {
        "F20": 20, "F24": 24, "F28": 28, "F30": 30, "F32": 32,
        "F36_1": 36, "F36_2": 36, "F40": 40, "F48": 48, "C60": 60, "C70": 70,
    }
    for name, n in expected.items():
        assert graphs[name].n == n


# SHA-256 of emit_graph(entry.graph.graph): each entry's vertex labelling, so a
# mistyped spiral fails here by name.
EMIT_SHA256 = {
    "F20": "643b7ae589ef9e88c734c9ea08b29732726727d938003b56204db3f8d0f376ba",
    "F24": "057a8d0dda66a3982c13006044c78d9f24293dd141d34bd7ba4c8ffdcf5e9a58",
    "F28": "c959967500de7ab12e90bbf58598a9d02e713ad1bdfa57c22af27aafadcad7c3",
    "F30": "631981a542d2ebd340684bfac3943bf333f7530cf9bea9c685d3066a1f2e0aaf",
    "F32": "3b86fe847f61173230aadb81b4ac47d4e3e9c398e527fdc317e763354bb443bf",
    "F36_1": "103d5fcc288254f05eb564bf26991680361d8a5b117cec2fdd93d1c625cda788",
    "F36_2": "77d855e65ba7ad99e60c5ae410f5f0d6f49b9fba25e89ac66c8be69e164596dd",
    "F40": "7015d402e3de7b90d1836761daa95505d21869f2c157da529a1f12e5458247ca",
    "F48": "9119bbe385f219cd22033df94c0e5194e861c5d86072e8ab955cb55236ae5950",
    "C60": "5e7b9ac489b3b647f5594ecb117ad12cc158d0432408188b13d631be903d1045",
    "C70": "56933dc5923cba2772083abc2d3a037c35f0d435dd176007e6fe11f221e0b863",
}


@pytest.mark.parametrize("name", sorted(EMIT_SHA256))
def test_labelling_pinned(name, catalog):
    text = emit_graph(catalog[name].graph.graph)
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_SHA256[name]


def test_lookup_is_case_insensitive():
    assert canonical_code(catalog_graph("f24").graph) == canonical_code(
        catalog_graph("F24").graph
    )


def test_unknown_name_rejected():
    with pytest.raises(GraphError, match="unknown"):
        catalog_graph("F99")
    for bad in (None, 20, b"F20"):
        with pytest.raises(GraphError, match="unknown"):
            catalog_graph(bad)
        with pytest.raises(GraphError, match="unknown"):
            catalog_spiral(bad)


def test_nanotube_counts(tubes):
    assert tubes[("R5", 1)].n == 30
    assert tubes[("R5", 2)].n == 40
    assert tubes[("R5", 3)].n == 50
    assert tubes[("R6", 1)].n == 36
    assert tubes[("R6", 2)].n == 48
    assert tubes[("R6", 3)].n == 60


def test_nanotube_parameter_validation():
    with pytest.raises(GraphError):
        nanotube("R5", 0)
    with pytest.raises(GraphError):
        nanotube("R7", 1)
    for rings in ("two", True, 1.0, -1):
        with pytest.raises(GraphError, match="hex_rings"):
            nanotube("R5", rings)
    for cap in (5, None, b"R5"):
        with pytest.raises(GraphError, match="cap must be a string"):
            nanotube(cap, 1)


def test_nanotube_refuses_more_vertices_than_a_code_holds(monkeypatch):
    # 20 + 10k (R5) or 24 + 12k (R6) past 65,535 is refused before the
    # spiral is built or wound; the largest tubes that fit reach the winding
    wound = []
    monkeypatch.setattr(_catalog, "wind", lambda seq: wound.append(len(seq)))
    for cap, rings, n in (("R5", 6552, 65540), ("R6", 5460, 65544), ("r5", 10**9, 10**10 + 20)):
        with pytest.raises(GuardExceeded, match=f"{rings} hexagon rings has {n} vertices; .* 65535"):
            nanotube(cap, rings)
    assert wound == []
    for cap, rings, n in (("R5", 6551, 65530), ("R6", 5459, 65532)):
        # the spiral has one face per vertex pair and two more
        with pytest.raises(RuntimeError, match=f"does not wind to {n} vertices"):
            nanotube(cap, rings)
    assert wound == [65530 // 2 + 2, 65532 // 2 + 2]


def test_nanotube_distinct_from_catalog_isomers(graphs, tubes):
    # same vertex count, different plane graphs
    assert canonical_code(tubes[("R6", 2)]) != canonical_code(graphs["F48"])
    assert canonical_code(tubes[("R6", 1)]) != canonical_code(graphs["F36_1"])
    assert canonical_code(tubes[("R5", 1)]) != canonical_code(graphs["F30"])
    assert canonical_code(tubes[("R6", 3)]) != canonical_code(graphs["C60"])


def test_nanotube_deterministic():
    a = nanotube("r5", 2)
    b = nanotube("R5", 2)
    assert a.graph.rotation == b.graph.rotation


def test_spiral_search_reproduces_known_isomer_counts(gen_catalog, isomers):
    for n, found in isomers.items():
        assert len(found) == gen_catalog.KNOWN_COUNTS[n], n
