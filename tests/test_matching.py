"""Matchings: maximum/perfect, centrality, enumeration caps, witnesses."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_maximum_matching_size,
    count_perfect_matchings,
    odd_components_without,
    perfect_matching_count_by_pfaffian,
    tutte_witness_by_subsets,
)

from resonantk._spiral import wind
from resonantk.catalog import catalog_names, nanotube
from resonantk.errors import GraphError, GuardExceeded
from resonantk.leapfrog import leapfrog
from resonantk.matching import (
    Matching,
    alternating_faces,
    alternating_hexagon_count,
    enumerate_perfect_matchings,
    face_alternates,
    has_perfect_matching,
    is_central,
    maximum_matching,
    perfect_mate_tuples,
    resolve_pm_cap,
    symmetric_difference,
    tutte_witness,
)
from resonantk.plane_graph import delete_vertices, validate_fullerene
from resonantk.resonance import find_g_star, is_resonant_pattern, resonance_order


def _adj_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in sorted(set(edges)):
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


@pytest.mark.parametrize(
    "adj, message",
    [
        ("ab", "unsupported graph form: str"),
        ([[1.0], [0]], "1.0, not an integer vertex id"),
        ([1, 0], "row 0 is 1, not a sequence"),
        ([[1], [2]], "vertex 2 outside 0..1"),
        ([[True], [False]], "True, not an integer vertex id"),
    ],
)
def test_adjacency_rows_must_list_integer_ids(adj, message):
    with pytest.raises(GraphError, match=message):
        maximum_matching(adj)


ENTRY_POINTS = [
    maximum_matching,
    has_perfect_matching,
    tutte_witness,
    perfect_mate_tuples,
    lambda adj: enumerate_perfect_matchings(adj, cap=5),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_asymmetric_adjacency_rejected(entry):
    # 0 lists 1 but 1 lists nothing: a perfect matching by one reading, none by the other
    with pytest.raises(GraphError, match="asymmetric adjacency: 0 lists 1 but 1 does not list 0"):
        entry([[1], []])
    with pytest.raises(GraphError, match="asymmetric adjacency: 2 lists 0 but 0 does not list 2"):
        entry([[1], [0], [0, 3], [2]])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("text", ["", "ab", b"", bytearray(b"\x01\x00")], ids=repr)
def test_text_is_not_a_graph(entry, text):
    # a str, bytes or bytearray is a Sequence, but its items are no adjacency rows
    kind = type(text).__name__
    with pytest.raises(GraphError, match=f"unsupported graph form: {kind}"):
        entry(text)
    with pytest.raises(GraphError, match=f"adjacency row 0 is a {kind}, not a sequence"):
        entry((text,))


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


def test_a_loop_is_never_a_matching_edge():
    # vertex 0 lists itself first; a greedy start that took the loop left 0-1 unmatched
    m = maximum_matching([[0, 1], [0]])
    assert m.size == 1 and (0, 1) in m


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_maximum_matching_ignores_loops(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), max_size=2 * n, unique=True))
    looped = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    adj = _adj_from_edges(n, edges)
    for v in looped:
        adj[v].insert(data.draw(st.integers(min_value=0, max_value=len(adj[v]))), v)
    m = maximum_matching(adj)
    assert m.size == brute_force_maximum_matching_size(n, edges)
    assert all(u != v for u, v in m.edges)


def test_matching_covers_and_contains(graphs):
    f = graphs["F20"]
    m = maximum_matching(f)
    assert m.size == 10
    assert m.covered() == frozenset(range(20))
    u, v = next(iter(m.edges))
    assert (v, u) in m
    assert m.covers(u)


@pytest.mark.parametrize(
    "edge",
    [5, None, (1, 2, 3), (0,), [0, 1], (True, 1), (0, 1.0), "ab"],
    ids=["int", "none", "triple", "single", "list", "bool", "float", "str"],
)
def test_matching_contains_only_a_pair_of_ints(graphs, edge):
    # a GraphError naming the value, never a TypeError or a ValueError
    m = maximum_matching(graphs["F24"])
    message = f"an edge must be a pair of ints, got {re.escape(repr(edge))}"
    with pytest.raises(GraphError, match=f"^{message}$"):
        edge in m


@pytest.mark.parametrize("v", [None, True, 1.0, "0"], ids=["none", "bool", "float", "str"])
def test_matching_covers_only_an_int(graphs, v):
    # None and "0" were covered by no edge, and True as vertex 1
    m = maximum_matching(graphs["F24"])
    with pytest.raises(GraphError, match=f"^a vertex must be an int, got {re.escape(repr(v))}$"):
        m.covers(v)


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


def _deleting_hexagons(f, hexagons):
    return delete_vertices(f, set().union(*(f.faces[h].vertices for h in hexagons)))


def _checked_deficit(n, adj, w):
    """A witness's deficit, recounted: its odd components must be G - A's."""
    assert list(w.deleted) == sorted(set(w.deleted)) and all(0 <= a < n for a in w.deleted)
    odd = odd_components_without(n, adj, set(w.deleted))
    assert sorted(w.odd_components) == sorted(odd)
    return len(odd) - len(w.deleted)


def test_witness_isolated_vertex_after_obstruction_deletion(graphs):
    # deleting the three hexagons around the obstruction vertex strands it
    f = graphs["F30"]
    gs = find_g_star(f)
    assert gs is not None
    sub = _deleting_hexagons(f, gs.hexagons)
    assert not has_perfect_matching(sub)
    w = tutte_witness(sub)
    assert w is not None
    assert (sub.vertices.index(gs.vertex),) in w.odd_components
    assert w.deficit == sub.n - 2 * maximum_matching(sub).size


def test_every_failing_set_has_a_witness(graphs):
    tubes = {f"{cap}_{k}": nanotube(cap, k) for cap in ("R5", "R6") for k in (2, 4, 6, 8)}
    failing = []
    for name, f in [*((name, graphs[name]) for name in catalog_names()), *tubes.items()]:
        report = resonance_order(f)
        if report.failing is None:
            continue
        failing.append(name)
        sub = _deleting_hexagons(f, report.failing)
        w = tutte_witness(sub)
        deficit = _checked_deficit(sub.n, sub.adj, w)
        assert deficit % 2 == 0 and deficit >= 2, name
        gs = find_g_star(f)
        if gs is not None:
            sub = _deleting_hexagons(f, gs.hexagons)
            assert (sub.vertices.index(gs.vertex),) in tutte_witness(sub).odd_components, name
    assert failing == ["F30", "C70", *tubes]


def test_witness_is_exact_on_small_graphs():
    rng = random.Random(15)
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 10)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adj = _adj_from_edges(n, edges)
        w = tutte_witness(adj)
        assert (w is None) == has_perfect_matching(adj)
        deficit = 0 if w is None else _checked_deficit(n, adj, w)
        assert deficit == n - 2 * maximum_matching(adj).size
        small = tutte_witness_by_subsets(n, adj)
        if small is not None:
            found += 1
            assert deficit >= len(small[1]) - len(small[0])
    assert found > 500


@pytest.mark.parametrize("name, seed", [("F30", 3), ("F30", 4), ("C70", 5)])
def test_witness_does_not_depend_on_labels(graphs, relabel, name, seed):
    f = graphs[name]
    g = relabel(f, seed)
    perm = list(range(f.n))
    random.Random(seed).shuffle(perm)  # the relabel fixture's vertex map

    def parents(sub, vs):
        return frozenset(sub.vertices[v] for v in vs)

    for hexagons in (resonance_order(f).failing, find_g_star(f).hexagons):
        drop = set().union(*(f.faces[h].vertices for h in hexagons))
        sub, moved = delete_vertices(f, drop), delete_vertices(g, {perm[v] for v in drop})
        w, mw = tutte_witness(sub), tutte_witness(moved)
        assert {perm[v] for v in parents(sub, w.deleted)} == parents(moved, mw.deleted)
        assert {frozenset(perm[v] for v in parents(sub, c)) for c in w.odd_components} == {
            parents(moved, c) for c in mw.odd_components
        }


def test_enumerate_counts_frozen(graphs):
    # counts frozen from the independent recursion in oracles.py
    f20 = graphs["F20"]
    ms = enumerate_perfect_matchings(f20)
    assert len(ms) == 36
    adj = [sorted(f20.graph.rotation[v]) for v in range(20)]
    assert count_perfect_matchings(20, adj) == 36
    f24 = graphs["F24"]
    assert len(enumerate_perfect_matchings(f24)) == 54


def test_an_adjacency_list_is_checked_once_per_enumeration(monkeypatch):
    # The rows are read twice, by the kernel and for the order, but copied
    # and checked once.
    from resonantk import matching

    calls = []
    check = matching._check_adjacency
    monkeypatch.setattr(matching, "_check_adjacency", lambda *args: calls.append(args) or check(*args))
    square = [[1, 3], [0, 2], [1, 3], [0, 2]]
    found = enumerate_perfect_matchings(square)
    assert [m.edges for m in found] == [{(0, 1), (2, 3)}, {(0, 3), (1, 2)}]
    assert len(calls) == 1


@pytest.mark.parametrize("name", catalog_names())
def test_pfaffian_count_equals_enumeration(graphs, name):
    # Building a Matching for each of C60's 12,500 and C70's 52,168 matchings
    # takes hundreds of MiB; their mate tuples are the same enumeration.
    f = graphs[name]
    count = perfect_matching_count_by_pfaffian(f.graph.rotation)
    if f.n <= 48:
        assert count == len(enumerate_perfect_matchings(f))
    else:
        assert count == len(perfect_mate_tuples(f))
    if name == "C60":
        # Klein, Schmalz, Hite & Seitz, J. Am. Chem. Soc. 108 (1986)
        assert count == 12500


def test_pfaffian_count_on_leapfrog_images(graphs):
    # the images of up to 84 vertices; Le(F28)'s 504,691 matchings are counted
    # by the independent recursion, as enumerating them takes about 370 MiB
    counts = []
    for name in ("F20", "F24", "F28"):
        image = leapfrog(graphs[name]).image
        count = perfect_matching_count_by_pfaffian(image.graph.rotation)
        if image.n <= 72:
            assert count == len(perfect_mate_tuples(image)), name
        else:
            assert count == count_perfect_matchings(image.n, image.graph.rotation), name
        counts.append(count)
    assert counts == [12500, 77400, 504691]


def test_pfaffian_count_equals_enumeration_on_isomers(isomers, relabel):
    # every isomer with 20..30 vertices, as wound and under a labelling
    checked = 0
    for n, found in isomers.items():
        for i, (_, seq) in enumerate(found):
            f = validate_fullerene(wind(seq))
            for g in (f, relabel(f, n + i)):
                count = perfect_matching_count_by_pfaffian(g.graph.rotation)
                assert count == len(enumerate_perfect_matchings(g)), (n, i)
            checked += 1
    assert checked == 8


@pytest.mark.parametrize("name", ["F24", "F36_1", "C60"])
def test_pfaffian_count_ignores_labels_reflection_and_root(graphs, relabel, name):
    f = graphs[name]
    count = perfect_matching_count_by_pfaffian(f.graph.rotation)
    for root in range(len(f.faces)):
        assert perfect_matching_count_by_pfaffian(f.graph.rotation, root) == count, root
    mirrored = [tuple(reversed(ring)) for ring in f.graph.rotation]
    assert perfect_matching_count_by_pfaffian(mirrored) == count
    assert perfect_matching_count_by_pfaffian(mirrored, len(f.faces) - 1) == count
    for seed in (1, 2):
        moved = relabel(f, seed).graph.rotation
        assert perfect_matching_count_by_pfaffian(moved, seed) == count, seed


def test_mate_array_score_counts_alternating_faces(graphs, relabel):
    for f in (graphs["F24"], relabel(graphs["F24"], 3), graphs["F28"], relabel(graphs["F28"], 4)):
        hexagons = [f.faces[h].boundary for h in f.hexagon_ids]
        scores = set()
        for m in enumerate_perfect_matchings(f):
            mate = [-1] * f.n
            for u, v in m.edges:
                mate[u], mate[v] = v, u
            score = alternating_hexagon_count(hexagons, mate)
            assert score == len(alternating_faces(f, m))
            scores.add(score)
        assert len(scores) > 1  # the matchings do not all score alike


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


def test_symmetric_difference_rejects_a_non_matching(graphs):
    # An extra edge at a vertex of an alternating hexagon: the flip would put
    # that vertex in two edges.  Raised as GraphError, so also under python -O.
    f = graphs["F24"]
    m = enumerate_perfect_matchings(f)[0]
    ring = next(f.faces[h].boundary for h in f.hexagon_ids if face_alternates(f.faces[h], m))
    c = ring[0]
    x = next(w for w in f.graph.neighbors(c) if w not in ring)
    extra = Matching(m.edges | {(min(c, x), max(c, x))}, f)
    with pytest.raises(GraphError, match="share a vertex, so the input is not a matching"):
        symmetric_difference(extra, ring)
    assert symmetric_difference(m, ring).size == m.size


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
    # 0-1 and 10-11 are matched, but 1-10 and 11-0 are not edges of F20
    m20 = maximum_matching(graphs["F20"])
    assert (0, 1) in m20 and (10, 11) in m20
    with pytest.raises(GraphError, match="not an edge"):
        symmetric_difference(m20, [0, 1, 10, 11])
    for bad in ([[0], 1, 2, 3], [True, 2, 3, 4], [10.0, 11, 0, 1]):
        with pytest.raises(GraphError, match="must be an integer"):
            symmetric_difference(m20, bad)
    with pytest.raises(GraphError, match="no host graph"):
        symmetric_difference(Matching(m20.edges, None), [0, 1, 10, 11])


def test_symmetric_difference_names_a_repeat_and_a_non_alternating_cycle():
    square = [[1, 3], [0, 2], [1, 3], [0, 2]]
    m = Matching(frozenset({(0, 1)}), square)
    with pytest.raises(GraphError, match="alternating cycle repeats a vertex"):
        symmetric_difference(m, [0, 1, 0, 1])
    with pytest.raises(GraphError, match="cycle does not alternate with the matching"):
        symmetric_difference(m, [0, 1, 2, 3])
    assert symmetric_difference(Matching(frozenset({(0, 1), (2, 3)}), square), [0, 1, 2, 3]).edges == {
        (1, 2),
        (0, 3),
    }


def test_an_odd_vertex_count_has_no_perfect_matching():
    assert enumerate_perfect_matchings([[1, 2], [0, 2], [0, 1]]) == ()


def test_maximum_matching_rejects_an_unsupported_form():
    with pytest.raises(GraphError, match="unsupported graph form: dict"):
        maximum_matching({0: [1], 1: [0]})


def test_alternating_faces_requires_perfect(graphs):
    f = graphs["F24"]
    with pytest.raises(GraphError):
        alternating_faces(f, Matching(frozenset(), f))


def test_alternating_faces_rejects_pairs_that_are_not_edges(graphs):
    # the pairs (2i, 2i + 1) cover all 60 vertices, but 12 are not edges
    f = graphs["C60"]
    pairs = frozenset((2 * i, 2 * i + 1) for i in range(30))
    assert len(pairs - set(f.graph.edges())) == 12
    with pytest.raises(GraphError, match="not an edge"):
        alternating_faces(f, Matching(pairs, f))


def test_alternating_faces_rejects_pairs_stored_high_first(graphs):
    f = graphs["C60"]
    cert = is_resonant_pattern(f, [f.hexagon_ids[0]]).matching
    assert len(alternating_faces(f, cert)) == 5
    reversed_pairs = frozenset((v, u) for u, v in cert.edges)
    with pytest.raises(GraphError, match="u < v"):
        alternating_faces(f, Matching(reversed_pairs, f))


HAND_BUILT_EDGES = [
    (None, "^matching edges must be a frozenset, got NoneType$"),
    ([(0, 1)], "^matching edges must be a frozenset, got list$"),
    ({(0, 1)}, "^matching edges must be a frozenset, got set$"),
    (frozenset({(0, 1, 2)}), r"^matching edge \(0, 1, 2\) is not a pair of vertex ids$"),
    (frozenset({5}), "^matching vertex ids must be an iterable of integers, got 5$"),
    (frozenset({(0, "1")}), "^matching vertex id must be an integer, got '1'$"),
    (frozenset({(0, 1.0)}), "^matching vertex id must be an integer, got 1.0$"),
]


@pytest.mark.parametrize("edges, message", HAND_BUILT_EDGES)
def test_alternating_faces_reads_a_hand_built_matching(edges, message, graphs):
    f = graphs["F24"]
    with pytest.raises(GraphError, match=message):
        alternating_faces(f, Matching(edges, f))


@pytest.mark.parametrize("edges, message", HAND_BUILT_EDGES)
def test_symmetric_difference_reads_a_hand_built_matching(edges, message, graphs):
    # the edges are read before the cycle: F24's first hexagon is a valid
    # cycle, on which a set of edges used to give "cycle does not alternate"
    f = graphs["F24"]
    with pytest.raises(GraphError, match=message):
        symmetric_difference(Matching(edges, f), f.faces[f.hexagon_ids[0]].boundary)


def test_serialize_frozen():
    m = Matching(frozenset({(1, 3), (0, 2)}), None)
    assert m.serialize() == "0-2\n1-3"
    assert (3, 1) in m and (0, 2) in m and (0, 1) not in m
