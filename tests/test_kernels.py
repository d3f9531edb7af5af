"""The three kernels on small graphs with known answers."""

from __future__ import annotations

from resonantk import kernels


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
