"""Matchings: maximum/perfect, centrality, enumeration caps, witnesses."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_maximum_matching_size, count_perfect_matchings

from resonantk.errors import GraphError, GuardExceeded
from resonantk.matching import (
    Matching,
    alternating_faces,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_central,
    maximum_matching,
    resolve_pm_cap,
    symmetric_difference,
    tutte_witness,
)
from resonantk.plane_graph import delete_vertices
from resonantk.resonance import find_g_star


def _adj_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in sorted(set(edges)):
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


@pytest.mark.parametrize(
    "adj, message",
    [
        ("ab", "'a', not an integer vertex id"),
        ([[1.0], [0]], "1.0, not an integer vertex id"),
        ([1, 0], "row 0 is 1, not a sequence"),
        ([[1], [2]], "vertex 2 outside 0..1"),
    ],
)
def test_adjacency_rows_must_list_integer_ids(adj, message):
    with pytest.raises(GraphError, match=message):
        maximum_matching(adj)


def test_paths_and_cycles():
    path4 = _adj_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert maximum_matching(path4).size == 2
    assert has_perfect_matching(path4)
    cycle5 = _adj_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert maximum_matching(cycle5).size == 2
    assert not has_perfect_matching(cycle5)
    assert has_perfect_matching([])  # empty graph has the empty matching


def test_petersen_like_blossoms():
    # triangle pairs joined by a bridge: forces blossom handling
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    adj = _adj_from_edges(6, edges)
    got = maximum_matching(adj)
    assert got.size == brute_force_maximum_matching_size(6, edges)
    seen = set()
    for u, v in got.edges:
        assert (u, v) == (min(u, v), max(u, v))
        assert not {u, v} & seen
        seen |= {u, v}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_maximum_matching_matches_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), max_size=2 * n, unique=True))
    assert maximum_matching(_adj_from_edges(n, edges)).size == (
        brute_force_maximum_matching_size(n, edges)
    )


def test_matching_covers_and_contains(graphs):
    f = graphs["F20"]
    m = maximum_matching(f)
    assert m.size == 10
    assert m.covered() == frozenset(range(20))
    u, v = next(iter(m.edges))
    assert (v, u) in m
    assert m.covers(u)


def test_is_central(graphs):
    f = graphs["F24"]
    h1, h2 = f.hexagon_ids
    assert is_central(f, h1)
    assert is_central(f, [h1, h2])
    # deleting a single pentagon leaves odd order: never central
    assert not is_central(f, f.pentagon_ids[0])


def test_tutte_witness_on_claw_graph():
    # star K_{1,3}: deleting the centre leaves three odd components
    adj = _adj_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not has_perfect_matching(adj)
    w = tutte_witness(adj)
    assert w is not None
    assert w.deficit > 0
    assert len(w.odd_components) > len(w.deleted)


def test_tutte_witness_none_when_perfect(graphs):
    assert tutte_witness(graphs["F20"]) is None


def test_no_witness_for_any_two_disjoint_hexagons_of_f28(graphs):
    f = graphs["F28"]
    hexes = f.hexagon_ids
    pairs_seen = 0
    for i, a in enumerate(hexes):
        for b in hexes[i + 1 :]:
            if f.faces[a].vertices & f.faces[b].vertices:
                continue
            sub = delete_vertices(f, f.faces[a].vertices | f.faces[b].vertices)
            assert tutte_witness(sub) is None
            assert has_perfect_matching(sub)
            pairs_seen += 1
    assert pairs_seen == 4


def test_witness_isolated_vertex_after_obstruction_deletion(graphs):
    # deleting the three hexagons around the obstruction vertex strands it
    f = graphs["F30"]
    gs = find_g_star(f)
    assert gs is not None
    drop: set[int] = set()
    for h in gs.hexagons:
        drop |= f.faces[h].vertices
    sub = delete_vertices(f, drop)
    assert not has_perfect_matching(sub)
    w = tutte_witness(sub)
    assert w is not None
    singles = [c for c in w.odd_components if len(c) == 1]
    assert [sub.vertices[c[0]] for c in singles] == [gs.vertex]


def test_enumerate_counts_frozen(graphs):
    # counts frozen from the independent recursion in oracles.py
    f20 = graphs["F20"]
    ms = enumerate_perfect_matchings(f20)
    assert len(ms) == 36
    adj = [sorted(f20.graph.rotation[v]) for v in range(20)]
    assert count_perfect_matchings(20, adj) == 36
    f24 = graphs["F24"]
    assert len(enumerate_perfect_matchings(f24)) == 54


def test_enumeration_cap(graphs):
    with pytest.raises(GuardExceeded):
        enumerate_perfect_matchings(graphs["F20"], cap=35)
    assert len(enumerate_perfect_matchings(graphs["F20"], cap=36)) == 36


def test_pm_cap_resolution(monkeypatch):
    assert resolve_pm_cap(123) == 123
    monkeypatch.setenv("RESONANTK_PM_CAP", "77")
    assert resolve_pm_cap() == 77
    assert resolve_pm_cap(5) == 5  # explicit argument wins
    monkeypatch.setenv("RESONANTK_PM_CAP", "bogus")
    with pytest.raises(GraphError):
        resolve_pm_cap()
    monkeypatch.setenv("RESONANTK_PM_CAP", "-1")
    with pytest.raises(GraphError):
        resolve_pm_cap()
    monkeypatch.delenv("RESONANTK_PM_CAP")
    assert resolve_pm_cap() == 10**6


def test_pm_cap_must_be_an_integer(graphs):
    from resonantk.resonance import fries

    for bad in (0, 2.5, True, "5"):
        with pytest.raises(GraphError, match="perfect matching cap"):
            resolve_pm_cap(bad)
    with pytest.raises(GraphError, match="perfect matching cap"):
        fries(graphs["F20"], cap=2.5)


def test_symmetric_difference_flips_a_face(graphs):
    f = graphs["F24"]
    m = enumerate_perfect_matchings(f)[0]
    for h in f.hexagon_ids:
        cycle = f.faces[h].boundary
        hits = sum(1 for i in range(6) if (cycle[i], cycle[(i + 1) % 6]) in m)
        if hits == 3:
            flipped = symmetric_difference(m, cycle)
            assert flipped.size == m.size
            assert flipped.edges != m.edges
            back = symmetric_difference(flipped, cycle)
            assert back.edges == m.edges
            break
    else:
        pytest.fail("no alternating hexagon found in the first matching")


def test_symmetric_difference_rejects_non_alternating(graphs):
    f = graphs["F24"]
    m = enumerate_perfect_matchings(f)[0]
    p = f.pentagon_ids[0]
    with pytest.raises(GraphError):
        symmetric_difference(m, f.faces[p].boundary)  # odd cycle
    non_alt = None
    for h in f.hexagon_ids:
        cycle = f.faces[h].boundary
        hits = sum(1 for i in range(6) if (cycle[i], cycle[(i + 1) % 6]) in m)
        if hits != 3:
            non_alt = cycle
            break
    if non_alt is not None:
        with pytest.raises(GraphError):
            symmetric_difference(m, non_alt)


def test_alternating_faces_requires_perfect(graphs):
    f = graphs["F24"]
    with pytest.raises(GraphError):
        alternating_faces(f, Matching(frozenset(), f))


def test_serialize_frozen():
    m = Matching(frozenset({(1, 3), (0, 2)}), None)
    assert m.serialize() == "0-2\n1-3"
    assert (3, 1) in m and (0, 2) in m and (0, 1) not in m
