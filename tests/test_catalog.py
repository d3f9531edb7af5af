"""Catalog integrity and nanotube construction."""

from __future__ import annotations

import pytest

from resonantk.catalog import (
    THE_NINE,
    catalog_graph,
    catalog_names,
    nanotube,
    verify_entry,
)
from resonantk.errors import GraphError
from resonantk.plane_graph import canonical_code


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


def test_vertex_counts(graphs):
    expected = {
        "F20": 20, "F24": 24, "F28": 28, "F30": 30, "F32": 32,
        "F36_1": 36, "F36_2": 36, "F40": 40, "F48": 48, "C60": 60, "C70": 70,
    }
    for name, n in expected.items():
        assert graphs[name].n == n


def test_lookup_is_case_insensitive():
    assert canonical_code(catalog_graph("f24").graph) == canonical_code(
        catalog_graph("F24").graph
    )


def test_unknown_name_rejected():
    with pytest.raises(GraphError, match="unknown"):
        catalog_graph("F99")


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


def test_spiral_search_reproduces_known_isomer_counts():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "gen_catalog.py"
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    gen_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_catalog)
    for n in range(20, 31, 2):
        assert len(gen_catalog.search_isomers(n)) == gen_catalog.KNOWN_COUNTS[n], n
