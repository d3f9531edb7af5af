"""Rotation-system parsing, face tracing, and canonical codes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonantk.errors import GraphError, NotFullereneError
from resonantk.plane_graph import (
    EmbeddedGraph,
    canonical_code,
    delete_vertices,
    emit_graph,
    faces,
    is_bipartite,
    parse_graph,
    validate_fullerene,
    verify_cyclic_edge_connectivity,
)

K4 = """4
0: 1 2 3
1: 0 3 2
2: 0 1 3
3: 0 2 1
"""

# Same adjacency, clockwise orders chosen so the arc partition closes on a
# torus instead of a sphere.
K4_TORUS = """4
0: 1 2 3
1: 0 2 3
2: 0 3 1
3: 0 1 2
"""


def test_parse_k4_faces():
    g = parse_graph(K4)
    assert g.n == 4
    fs = faces(g)
    assert len(fs) == 4
    assert sorted(f.boundary for f in fs) == [
        (0, 1, 3),
        (0, 2, 1),
        (0, 3, 2),
        (1, 2, 3),
    ]
    assert all(f.size == 3 for f in fs)


def test_parse_round_trip():
    g = parse_graph(K4)
    again = parse_graph(emit_graph(g, ["a comment line"]))
    assert again.rotation == g.rotation


def test_non_sphere_rotation_rejected():
    with pytest.raises(GraphError, match=r"V-E\+F = 4-6\+2 = 0"):
        parse_graph(K4_TORUS)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        ("x", "vertex count"),
        ("3\n0: 1 2\n1: 0 2\n2: 0 1", "too small"),
        ("4\n0: 1 2 3", "expected 4 vertex lines"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 2", "repeats a neighbour"),
        ("4\n0: 0 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", "lists itself"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 1 0 3\n3: 9 2 1", "outside"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 1 2 0\n# t", None),
    ],
)
def test_parse_rejections(text, message):
    with pytest.raises(GraphError, match=message):
        parse_graph(text)


def test_asymmetric_adjacency_rejected():
    # 4 and 5 claim neighbours that do not claim them back
    bad = "6\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n4: 0 1 2\n5: 0 1 2\n"
    with pytest.raises(GraphError, match="asymmetric"):
        parse_graph(bad)


def test_canonical_code_k4_frozen():
    g = parse_graph(K4)
    assert canonical_code(g).hex() == "04010203000302000103000201"


def _relabel(g: EmbeddedGraph, perm: list[int]) -> EmbeddedGraph:
    rot: list[tuple[int, int, int]] = [(-1, -1, -1)] * g.n
    for v in range(g.n):
        a, b, c = g.rotation[v]
        rot[perm[v]] = (perm[a], perm[b], perm[c])
    return parse_graph(
        f"{g.n}\n" + "\n".join(f"{i}: {a} {b} {c}" for i, (a, b, c) in enumerate(rot))
    )


def _reflect(g: EmbeddedGraph) -> EmbeddedGraph:
    rot = [(c, b, a) for a, b, c in g.rotation]
    return parse_graph(
        f"{g.n}\n" + "\n".join(f"{i}: {a} {b} {c}" for i, (a, b, c) in enumerate(rot))
    )


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_code_relabelling_invariant(rng):
    from resonantk.catalog import catalog_graph

    f = catalog_graph("F24").graph
    perm = list(range(f.n))
    rng.shuffle(perm)
    assert canonical_code(_relabel(f.graph, perm)) == canonical_code(f)


def test_canonical_code_reflection_invariant(graphs):
    for name in ("F20", "F36_1", "C60"):
        g = graphs[name].graph
        assert canonical_code(_reflect(g)) == canonical_code(g)


def test_canonical_code_separates_isomers(graphs):
    assert canonical_code(graphs["F36_1"]) != canonical_code(graphs["F36_2"])
    assert len({canonical_code(graphs[n]) for n in graphs}) == len(graphs)


def test_validate_fullerene_rejects_k4():
    with pytest.raises(NotFullereneError):
        validate_fullerene(parse_graph(K4))


def test_validate_fullerene_f20(graphs):
    f = graphs["F20"]
    assert f.n == 20
    assert len(f.pentagon_ids) == 12
    assert f.hexagon_ids == ()
    assert len(f.faces) == 12


def test_delete_vertices_and_bipartite(graphs):
    f = graphs["F24"]
    # dropping one hexagon's vertices leaves an odd-cycle (pentagons survive)
    h = f.hexagon_ids[0]
    sub = delete_vertices(f, f.faces[h].vertices)
    assert sub.n == f.n - 6
    ok, odd = is_bipartite(sub)
    assert not ok
    assert odd is not None and len(odd) % 2 == 1
    whole, cyc = is_bipartite(f.graph)
    assert not whole and cyc is not None  # odd faces force odd cycles


def test_cyclic_edge_connectivity(graphs):
    # fullerene graphs are cyclically 5-edge-connected; check no cut below 4
    assert verify_cyclic_edge_connectivity(graphs["F20"], 4)
    assert verify_cyclic_edge_connectivity(graphs["F24"], 4)


@pytest.fixture(scope="module")
def indexed(graphs, tubes):
    """Every catalog graph and tube, plus the leapfrog images of F20 and F24."""
    from resonantk.leapfrog import leapfrog

    out = dict(graphs)
    out.update({f"{cap}_{k}": tube for (cap, k), tube in tubes.items()})
    out.update({f"L({name})": leapfrog(graphs[name]).image for name in ("F20", "F24")})
    return out


def test_across_reverses_each_boundary_arc(indexed):
    for name, f in indexed.items():
        fs = f.faces
        for face in fs:
            assert fs.across(face.index) == tuple(
                fs.face_of_arc((b, a)) for a, b in face.boundary_arcs()
            ), name


def test_faces_meet_exactly_when_across(indexed):
    for name, f in indexed.items():
        fs = f.faces
        for a in fs:
            for b in fs:
                if a.index == b.index:
                    continue
                meet = bool(a.vertices & b.vertices)
                assert (b.index in fs.across(a.index)) == meet, (name, a.index, b.index)
                if meet:
                    assert fs.across(a.index).count(b.index) == 1
                    assert set(fs.shared_edge(a.index, b.index)) == a.vertices & b.vertices
                else:
                    assert fs.shared_edge(a.index, b.index) is None


def test_hexagon_conflicts_are_shared_vertices(indexed):
    from resonantk.resonance import disjoint_hexagon_sets

    for name, f in indexed.items():
        hexes = f.hexagon_ids
        disjoint = [
            (a, b)
            for i, a in enumerate(hexes)
            for b in hexes[i + 1 :]
            if not f.faces[a].vertices & f.faces[b].vertices
        ]
        assert list(disjoint_hexagon_sets(f, 2)) == disjoint, name
