"""The kernels on small graphs with known answers, and against their oracles."""

from __future__ import annotations

import random

import pytest

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
    "name", ["F20", "F24", "F28", "F30", "F32", "F36_1", "F36_2", "F40", "F48"]
)
def test_perfect_matchings_keep_the_lowest_first_order(graphs, name):
    # The kernel returns its search order; enumerate_perfect_matchings sorts
    # it into the order of backtracking on the lowest unmatched vertex.
    rotation = [list(row) for row in graphs[name].graph.rotation]
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
