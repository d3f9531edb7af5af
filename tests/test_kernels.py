"""The kernels on small graphs with known answers, and against their oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import perfect_matchings_lowest_first

from resonantk import kernels
from resonantk.errors import GuardExceeded
from resonantk.matching import enumerate_perfect_matchings

# Small graphs, adjacency in an arbitrary but fixed order.
C6 = [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [0, 4]]
K4 = [[1, 2, 3], [0, 3, 2], [3, 0, 1], [2, 1, 0]]
CUBE = [[1, 3, 4], [0, 2, 5], [1, 3, 6], [2, 0, 7], [5, 7, 0], [4, 6, 1], [5, 7, 2], [6, 4, 3]]
PRISM5 = [[(v + 1) % 5, (v + 4) % 5, v + 5] for v in range(5)] + [
    [v, 5 + (v + 4) % 5, 5 + (v + 1) % 5] for v in range(5)
]


def _ladder(rungs):
    """Rails 0...rungs - 1 and rungs...2 rungs - 1, with a rung from each v to v + rungs."""
    n = 2 * rungs
    return [
        [w for w in (v - 1, v + 1) if w >= 0 and w // rungs == v // rungs] + [(v + rungs) % n]
        for v in range(n)
    ]


def _disjoint(*parts):
    """The disjoint union of adjacency lists, each part's ids shifted past the last."""
    out, shift = [], 0
    for part in parts:
        out += [[w + shift for w in row] for row in part]
        shift += len(part)
    return out


def test_perfect_matchings_limit_semantics():
    # C6: two perfect matchings; limit 0 returns just over the limit
    adj = [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [0, 4]]
    assert len(kernels.perfect_matchings(6, adj, 0)) == 1
    assert len(kernels.perfect_matchings(6, adj, 10)) == 2
    assert kernels.perfect_matchings(5, [[]] * 5, 10) == []


def test_perfect_matchings_long_cycle_needs_no_recursion():
    # one stack frame per matched pair would exceed the recursion limit here
    n = 3000
    adj = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
    found = kernels.perfect_matchings(n, adj, 1)
    assert len(found) == 2
    assert found[0] != found[1] and -1 not in found[0] + found[1]


def test_augment_flips_a_path_or_leaves_mates_alone():
    # path 0-1-2-3 with 1-2 matched: the augmenting path 0-1-2-3 is flipped
    adj = [[1], [0, 2], [1, 3], [2]]
    mate = [-1, 2, 1, -1]
    assert kernels.augment(4, adj, [False] * 4, mate, 0)
    assert mate == [1, 0, 3, 2]
    # with 3 excluded no augmenting path from 0 exists
    mate = [-1, 2, 1, -1]
    assert not kernels.augment(4, adj, [False, False, False, True], mate, 0)
    assert mate == [-1, 2, 1, -1]
    # a triangle 0-1-2 with a pendant 3 on 2: the search must contract the blossom
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]
    mate = [-1, 2, 1, -1]
    assert kernels.augment(4, adj, [False] * 4, mate, 0)
    assert sorted((v, mate[v]) for v in range(4)) == [(0, 1), (1, 0), (2, 3), (3, 2)]


def test_cyclic_cut_two_triangles_bridge():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    assert kernels.has_small_cyclic_cut(6, edges, 1)
    assert not kernels.has_small_cyclic_cut(6, edges, 0)


def test_fullerene_pm_enumeration_count(graphs):
    f = graphs["F24"]
    adj = [sorted(f.graph.rotation[v]) for v in range(f.n)]
    assert len(kernels.perfect_matchings(f.n, adj, 10**6)) == 54


def _relabelled(adj, seed):
    perm = list(range(len(adj)))
    random.Random(seed).shuffle(perm)
    out = [[]] * len(adj)
    for v, row in enumerate(adj):
        out[perm[v]] = [perm[w] for w in row]
    return out


def _edge_sets(mate_tuples):
    return [frozenset((v, w) for v, w in enumerate(m) if v < w) for m in mate_tuples]


def _variants(adj):
    """The adjacency as given, relabelled with a fixed seed, and reflected."""
    return {
        "given": adj,
        "relabelled": _relabelled(adj, 8),
        "reflected": [list(reversed(row)) for row in adj],
    }


@pytest.mark.parametrize(
    "name",
    ["F20", "F24", "F28", "F30", "F32", "F36_1", "F36_2", "F40", "F48"]
    + ["R5_1", "R5_2", "R5_3", "R6_1", "R6_2"],
)
def test_perfect_matchings_keep_the_lowest_first_order(graphs, tubes, name):
    # The kernel returns its search order; enumerate_perfect_matchings sorts
    # it into the order of backtracking on the lowest unmatched vertex.
    f = tubes[name[:2], int(name[3:])] if name[:3] in ("R5_", "R6_") else graphs[name]
    rotation = [list(row) for row in f.graph.rotation]
    for label, adj in _variants(rotation).items():
        full = perfect_matchings_lowest_first(len(adj), adj, 10**6)
        enumerated = enumerate_perfect_matchings(adj, cap=10**6)
        assert [m.edges for m in enumerated] == _edge_sets(full), label
        found = kernels.perfect_matchings(len(adj), adj, 10**6)
        assert len(found) == len(set(found)) and set(found) == set(full), label


@pytest.mark.parametrize("adj", [C6, K4, CUBE, PRISM5], ids=["C6", "K4", "cube", "prism5"])
def test_perfect_matchings_small_graphs_and_caps(adj):
    n = len(adj)
    for label, g in _variants(adj).items():
        full = perfect_matchings_lowest_first(n, g, 10**6)
        enumerated = enumerate_perfect_matchings(g, cap=len(full))
        assert [m.edges for m in enumerated] == _edge_sets(full), label
        if len(full) > 1:
            with pytest.raises(GuardExceeded):
                enumerate_perfect_matchings(g, cap=len(full) - 1)
        for limit in (10**6, len(full)):
            found = kernels.perfect_matchings(n, g, limit)
            assert len(found) == len(set(found)) and set(found) == set(full), (label, limit)
        for limit in range(len(full)):
            # over the cap: limit + 1 distinct matchings, in any order
            over = kernels.perfect_matchings(n, g, limit)
            assert len(over) == limit + 1, (label, limit)
            assert len(set(over)) == limit + 1 and set(over) <= set(full), (label, limit)


def test_perfect_matchings_over_cap_on_a_fullerene(graphs):
    rotation = graphs["F28"].graph.rotation
    full = set(kernels.perfect_matchings(28, rotation, 10**6))
    assert len(full) == 90
    for limit in (0, 1, 45, 89):
        over = kernels.perfect_matchings(28, rotation, limit)
        assert len(over) == len(set(over)) == limit + 1 and set(over) <= full
    assert len(kernels.perfect_matchings(28, rotation, 90)) == 90


def test_perfect_matchings_without_any():
    # a vertex with no neighbour, and two triangles
    assert kernels.perfect_matchings(4, [[1], [0, 2], [1], []], 10) == []
    triangles = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
    assert kernels.perfect_matchings(6, triangles, 10) == []
    assert kernels.perfect_matchings(0, [], 10) == [()]


def test_a_repeated_neighbour_is_one_choice():
    # 0 and 1 list each other twice: the edge is one choice, not two
    adj = [[1, 1, 3], [0, 0, 2], [1, 3], [2, 0]]
    found = kernels.perfect_matchings(4, adj, 100)
    assert sorted(found) == [(1, 0, 3, 2), (3, 2, 1, 0)]
    assert [m.edges for m in enumerate_perfect_matchings(adj)] == [
        frozenset({(0, 1), (2, 3)}),
        frozenset({(0, 3), (1, 2)}),
    ]


def test_a_repeated_neighbour_is_tried_at_its_first_position():
    # 0 lists 2 first and again last: backtracking on 0 tries 2 before 1
    adj = [[2, 1, 2], [0, 3], [0, 0, 3], [1, 2]]
    assert [m.edges for m in enumerate_perfect_matchings(adj)] == [
        frozenset({(0, 2), (1, 3)}),
        frozenset({(0, 1), (2, 3)}),
    ]


def test_a_loop_is_never_a_matching_edge():
    assert kernels.perfect_matchings(2, [[0, 1], [0, 1]], 10) == [(1, 0)]
    assert kernels.perfect_matchings(2, [[0], [1]], 10) == []
    # a loop on every vertex of C6 leaves its two matchings
    looped = [row + [v] for v, row in enumerate(C6)]
    assert set(kernels.perfect_matchings(6, looped, 10)) == set(kernels.perfect_matchings(6, C6, 10))


def test_disjoint_components_multiply():
    two = _disjoint(C6, C6)
    full = kernels.perfect_matchings(12, two, 10)
    assert len(full) == len(set(full)) == 4
    assert set(full) == set(perfect_matchings_lowest_first(12, two, 10))
    for limit in range(4):
        over = kernels.perfect_matchings(12, two, limit)
        assert len(over) == len(set(over)) == limit + 1 and set(over) <= set(full)
    assert len(kernels.perfect_matchings(12, two, 4)) == 4


@pytest.mark.parametrize(
    "parts",
    [
        (C6, [[1, 2], [0, 2], [0, 1]], [[1, 2], [0, 2], [0, 1]]),  # two triangles
        (C6, [[1], [0, 2], [1]], [[]]),  # a path of three and an isolated vertex
        ([[1, 2, 3], [0], [0], [0]], C6),  # a star: even, but no perfect matching
        # a ladder of 40 rungs (165,580,141 matchings) before the star: its
        # matchings must not each be tried against the star
        (_ladder(40), [[1, 2, 3], [0], [0], [0]]),
    ],
    ids=["triangles", "odd-components", "star-first", "ladder-then-star"],
)
def test_a_component_without_a_perfect_matching_leaves_none(parts):
    adj = _disjoint(*parts)
    assert kernels.perfect_matchings(len(adj), adj, 10) == []


def test_a_dead_spot_midway_along_the_order_ends_the_search_at_once():
    # A vertex with two pendant leaves halfway along a ladder of 80 rungs:
    # no perfect matching, but every matching of the ladder's first half
    # reaches the leaves before it fails (more than 60 s without the check).
    ladder = _ladder(80)
    ladder[40].append(160)
    ladder[41].append(163)
    adj = ladder + [[40, 161, 162], [160], [160], [41]]
    assert kernels.perfect_matchings(164, adj, 10) == []


@st.composite
def _multigraphs(draw):
    """Up to 12 vertices with loops, repeated edges, isolated vertices and several components."""
    n = draw(st.integers(0, 12))
    adj = [[] for _ in range(n)]
    if n:
        vertex = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=24)):
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
    return adj


@settings(max_examples=300, deadline=None)
@given(_multigraphs(), st.integers(0, 12))
def test_perfect_matchings_equal_the_oracle_on_small_multigraphs(adj, limit):
    n = len(adj)
    # the oracle takes a simple graph: no loop, each neighbour once
    simple = [sorted(set(row) - {v}) for v, row in enumerate(adj)]
    full = set(perfect_matchings_lowest_first(n, simple, 10**6))
    found = kernels.perfect_matchings(n, adj, 10**6)
    assert len(found) == len(set(found)) and set(found) == full
    # the enumeration's order is the oracle's on the rows as listed, each
    # neighbour at its first position
    rows = [[u for u in dict.fromkeys(row) if u != v] for v, row in enumerate(adj)]
    lowest_first = perfect_matchings_lowest_first(n, rows, 10**6)
    assert [m.edges for m in enumerate_perfect_matchings(adj)] == _edge_sets(lowest_first)
    over = kernels.perfect_matchings(n, adj, limit)
    assert len(over) == len(set(over)) == min(limit + 1, len(full)) and set(over) <= full
