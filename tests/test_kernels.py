"""The three kernels on small graphs with known answers."""

from __future__ import annotations

from resonantk import kernels


def test_perfect_matchings_limit_semantics():
    # C6: two perfect matchings; limit 0 returns just over the limit
    adj = [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [0, 4]]
    assert len(kernels.perfect_matchings(6, adj, 0)) == 1
    assert len(kernels.perfect_matchings(6, adj, 10)) == 2
    assert kernels.perfect_matchings(5, [[]] * 5, 10) == []


def test_cyclic_cut_two_triangles_bridge():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    assert kernels.has_small_cyclic_cut(6, edges, 1)
    assert not kernels.has_small_cyclic_cut(6, edges, 0)


def test_fullerene_pm_enumeration_count(graphs):
    f = graphs["F24"]
    adj = [sorted(f.graph.rotation[v]) for v in range(f.n)]
    assert len(kernels.perfect_matchings(f.n, adj, 10**6)) == 54
