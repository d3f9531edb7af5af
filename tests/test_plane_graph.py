"""Rotation-system parsing, face tracing, and canonical codes."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonantk.errors import GraphError, GuardExceeded, NotFullereneError
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


def _shuffled(g: EmbeddedGraph, seed: int) -> EmbeddedGraph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return _relabel(g, perm)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["F20", "F24", "C60", "R6_3"]),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_canonical_code_relabelling_invariant(name, rng, mirror):
    from resonantk.catalog import catalog_graph, nanotube

    f = nanotube("R6", 3) if name == "R6_3" else catalog_graph(name).graph
    perm = list(range(f.n))
    rng.shuffle(perm)
    g = _relabel(f.graph, perm)
    if mirror:
        g = _reflect(g)
    assert canonical_code(g) == canonical_code(f)


def test_canonical_code_reflection_invariant(graphs):
    for name in ("F20", "F36_1", "C60"):
        g = graphs[name].graph
        assert canonical_code(_reflect(g)) == canonical_code(g)


def test_canonical_code_separates_isomers(graphs):
    assert canonical_code(graphs["F36_1"]) != canonical_code(graphs["F36_2"])
    assert len({canonical_code(graphs[n]) for n in graphs}) == len(graphs)


@pytest.fixture(scope="module")
def coded(graphs):
    """Catalog graphs, their leapfrog images, R5/R6 tubes k = 1..8 and
    plane cubic non-fullerenes wound from spirals (prisms, K4, the cube and
    three spirals mixing faces of 3 to 7 sides)."""
    from resonantk._spiral import wind
    from resonantk.catalog import nanotube
    from resonantk.leapfrog import leapfrog

    out = {name: f.graph for name, f in graphs.items()}
    out.update({f"L({name})": leapfrog(f).image.graph for name, f in graphs.items()})
    out.update({f"{cap}_{k}": nanotube(cap, k).graph for cap in ("R5", "R6") for k in range(1, 9)})
    spirals = {f"prism{k}": [k] + [4] * k + [k] for k in range(3, 9)}
    spirals["K4"] = [3] * 4
    spirals["cube"] = [4] * 6
    spirals["mixed7"] = [3, 7, 4, 4, 6, 3, 3]
    spirals["mixed9"] = [7, 5, 3, 6, 3, 5, 4, 4, 5]
    spirals["mixed10"] = [5, 3, 6, 6, 6, 5, 5, 4, 5, 3]
    for name, seq in spirals.items():
        g = wind(seq)
        assert g is not None, name
        out[name] = g
    return out


def test_canonical_code_matches_full_build(coded):
    # The full build is label-invariant by construction, so one oracle code
    # per graph checks the pruned code under relabelling and reflection too.
    from oracles import canonical_code_by_full_build

    for seed, (name, g) in enumerate(coded.items()):
        expected = canonical_code_by_full_build(list(g.rotation))
        assert canonical_code(g) == expected, name
        assert canonical_code(_shuffled(g, seed)) == expected, name
        assert canonical_code(_reflect(g)) == expected, name


# SHA-256 of the canonical code of each catalog graph and of its leapfrog
# image, recorded before the code was pruned; `analyze` prints the first as
# the graph's identity.
IDENTITIES = {
    "F20": ("fff0a937c7a2ee3e1ed157d626b7be55607316117457f24678ee56bea4099a99",
            "a4198041f7d47898ec125e05262998b5d8d918e19bfa5e5d826158dc6a723e38"),
    "F24": ("556c45e9e38037d7fbe3acbc2213533a41b242299ccd7ed80976df76aca03017",
            "719e8a8c15c02c9abf2a1704194356442d9c57d7244bfce313f79ac5a9de785a"),
    "F28": ("85881b11e5e4cab510b960ace92eccf02dc0c667a67493c6a346dde5fceda1ff",
            "22dd2c0659e5ec0830c6d0f5fece00e520290ea2951a6c6f4ebe6c396e4727f0"),
    "F30": ("807760b0d11b6e355748aabee65009c2b1c4c206adb7c55327e635379f2f1cab",
            "f9027b98e0964f800c999705a541461f79e34c15ccb3cf86fb050d0232ab31e2"),
    "F32": ("ae953fbb80c8515de6a60e7f517444d99c242719fe6a149808ee23cf93f6b07c",
            "0ecd95fd520213542240fdb483a1d9a4cffda44b5adbaad6c0d65532b1871754"),
    "F36_1": ("ae0455760a63eabf1b1244d4d53afef4ef6a50ce478a20950669ae6f582b215b",
              "1eed5e3d993ef08b2d1a686f55c2ecde2e0d75bc5bb7b07d1c23b660cce2c752"),
    "F36_2": ("7414825d902605c153485f17c079a05d23830c00f2d12d00f4316c45000b4bc9",
              "77e25ca43b442649a955c8804fd3db30f85e39ad6a3e9f6ed40f087373260e0d"),
    "F40": ("67e04d86eae9d7b4930147f2d3af77d0578a87921ba37ed1bc0bbc24c585199e",
            "eacff95b65096b114f11dcedce09c485f51fa7174053547fb1b742e8fe0e4cb2"),
    "F48": ("a99c394c5ba0a566f4cd25716938162c6ca9b2350f71b2f946a303954bc6258c",
            "8f5bd7aa093655fc01f6bc329754830b809c30312330f4847c5e3327d27c72df"),
    "C60": ("a4198041f7d47898ec125e05262998b5d8d918e19bfa5e5d826158dc6a723e38",
            "e7f88839281e916c3e8101224600c00d6b115d434542d7b8767283eca04d74be"),
    "C70": ("6509768c434dedc042d935811e3404408aa30634e2cb31d6ff54c9ede25b6095",
            "79b07f103df0d9dca696b10e8e404e1445ce44fccfdc6daf53caedf45e72ea41"),
}


def test_canonical_code_identities_frozen(graphs, coded):
    assert set(IDENTITIES) == set(graphs)
    for name, (own, image) in IDENTITIES.items():
        assert hashlib.sha256(canonical_code(coded[name])).hexdigest() == own, name
        assert hashlib.sha256(canonical_code(coded[f"L({name})"])).hexdigest() == image, name


@pytest.fixture(scope="module")
def wide(graphs):
    """Graphs past the one-byte code: R6_25 and the second leapfrog images of
    the two 36-vertex catalog isomers, 324 vertices each."""
    from resonantk.catalog import nanotube
    from resonantk.leapfrog import leapfrog

    out = {"R6_25": nanotube("R6", 25).graph}
    for name in ("F36_1", "F36_2"):
        out[f"L2({name})"] = leapfrog(leapfrog(graphs[name]).image).image.graph
    assert {g.n for g in out.values()} == {324}
    return out


def test_canonical_code_past_255_vertices(wide):
    for seed, (name, g) in enumerate(wide.items()):
        code = canonical_code(g)
        # marker, then n and 3n labels as two big-endian bytes each
        assert code[:3] == b"\x00\x01\x44" and len(code) == 1 + 2 * (1 + 3 * 324), name
        labels = [int.from_bytes(code[i : i + 2], "big") for i in range(3, len(code), 2)]
        assert labels[:3] == [1, 2, 3] and max(labels) == 323, name
        assert canonical_code(_shuffled(g, seed)) == code, name
        assert canonical_code(_reflect(g)) == code, name
    assert canonical_code(wide["L2(F36_1)"]) != canonical_code(wide["L2(F36_2)"])
    assert canonical_code(wide["R6_25"]) != canonical_code(wide["L2(F36_1)"])
    with pytest.raises(GuardExceeded, match="65535"):
        canonical_code(EmbeddedGraph(((1, 2, 3),) * 65536))


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


def test_is_bipartite_accepts_a_fullerene(graphs):
    f = graphs["F24"]
    ok, cycle = is_bipartite(f)
    assert not ok and cycle is not None and len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in f.graph.rotation[a]


# Two K4s with one edge subdivided each, the two new vertices joined by a
# bridge (edge 4-9).
BRIDGED_K4S = """10
0: 4 3 2
1: 4 2 3
2: 0 3 1
3: 0 1 2
4: 0 1 9
5: 9 8 7
6: 9 7 8
7: 5 8 6
8: 5 6 7
9: 5 6 4
"""

# Two cubes, each without one edge, joined by edges 0-8 and 1-9 into a
# cyclic 2-edge cut.
JOINED_CUBES = """16
0: 3 4 8
1: 2 9 5
2: 1 6 3
3: 2 7 0
4: 5 0 7
5: 4 6 1
6: 5 7 2
7: 6 4 3
8: 11 12 0
9: 10 1 13
10: 9 14 11
11: 10 15 8
12: 13 8 15
13: 12 14 9
14: 13 15 10
15: 14 12 11
"""


def test_cyclic_edge_connectivity(graphs):
    bridged, cubes = parse_graph(BRIDGED_K4S), parse_graph(JOINED_CUBES)
    assert verify_cyclic_edge_connectivity(bridged, 1)
    assert not verify_cyclic_edge_connectivity(bridged, 2)
    assert verify_cyclic_edge_connectivity(cubes, 2)
    assert not verify_cyclic_edge_connectivity(cubes, 3)
    assert verify_cyclic_edge_connectivity(graphs["F20"], 4)
    assert verify_cyclic_edge_connectivity(graphs["F24"], 4)


def test_cyclic_connectivity_matches_brute_force(coded):
    from resonantk.kernels import has_small_cyclic_cut

    small = {name: g for name, g in coded.items() if g.n <= 40}
    small["bridged K4s"] = parse_graph(BRIDGED_K4S)
    small["joined cubes"] = parse_graph(JOINED_CUBES)
    for seed, (name, g) in enumerate(small.items()):
        shuffled = _shuffled(g, seed)
        for k in (2, 3, 4):
            expected = not has_small_cyclic_cut(g.n, g.edges(), k - 1)
            assert verify_cyclic_edge_connectivity(g, k) == expected, (name, k)
            assert verify_cyclic_edge_connectivity(shuffled, k) == expected, (name, k)


def test_doslic_cyclic_5_edge_connectivity(graphs, coded):
    # Every fullerene is cyclically 5-edge-connected (Doslic 2003); none is
    # cyclically 6-edge-connected, as the five edges leaving a pentagon cut
    # it off.  Catalog graphs go in with their faces, the rest as bare graphs.
    from resonantk.catalog import nanotube

    fullerenes = dict(graphs)
    fullerenes.update((name, g) for name, g in coded.items() if name.startswith(("L(", "R5_", "R6_")))
    fullerenes["R6_200"] = nanotube("R6", 200)
    assert fullerenes["R6_200"].n == 2424
    for name, f in fullerenes.items():
        assert verify_cyclic_edge_connectivity(f, 5), name
        assert not verify_cyclic_edge_connectivity(f, 6), name


def test_cyclic_connectivity_large_k(graphs, coded):
    # the walk stops at the first cut, and no dual cycle is longer than the
    # face count: K4 has no cyclic cut at all, the cube one of 4 edges
    assert verify_cyclic_edge_connectivity(coded["K4"], 10**6)
    assert not verify_cyclic_edge_connectivity(coded["cube"], 10**6)
    assert not verify_cyclic_edge_connectivity(graphs["F20"], 10**6)


def test_cyclic_connectivity_rejects_non_integer_k(graphs):
    f = graphs["F20"]
    for k in ("4", 2.5, True):
        with pytest.raises(GraphError, match="k must be an integer"):
            verify_cyclic_edge_connectivity(f, k)
    assert all(verify_cyclic_edge_connectivity(f, k) for k in (1, 0, -3))


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
