"""Resonant patterns, sextet polynomials, orders, and obstructions."""

from __future__ import annotations

import gc
from itertools import combinations

import pytest

from oracles import count_disjoint_hexagon_sets, resonant_by_brute_force

from resonantk import kernels, matching
from resonantk.catalog import catalog_graph, nanotube
from resonantk.errors import GraphError, GuardExceeded
from resonantk.matching import maximum_matching
from resonantk.plane_graph import delete_vertices
from resonantk.resonance import (
    ALL,
    OrderReport,
    clar,
    disjoint_hexagon_sets,
    find_g_star,
    fries,
    hexagon_dichotomy_report,
    is_resonant_pattern,
    resonance_order,
    sextet,
)


def test_sextet_f24_frozen(graphs):
    poly = sextet(graphs["F24"])
    assert poly.coefficients == (1, 2, 1)
    assert poly.degree == 2
    assert poly.sigma(0) == 1
    assert poly.sigma(1) == 2
    assert poly.sigma(2) == 1
    assert poly.sigma(9) == 0
    assert poly(1) == 4  # total number of resonant sets including the empty one
    assert poly.descending() == (1, 2, 1)[::-1]


def test_sextet_coefficients_count_disjoint_sets(graphs):
    f = graphs["F36_1"]
    poly = sextet(f)
    hex_sets = [frozenset(f.faces[h].vertices) for h in f.hexagon_ids]
    for i in range(1, poly.degree + 1):
        # here every disjoint set is resonant, so sigma == raw disjoint count
        assert poly.sigma(i) == count_disjoint_hexagon_sets(hex_sets, i)
        assert poly.sigma(i) == sum(1 for _ in disjoint_hexagon_sets(f, i))


def test_is_resonant_certificate_alternates(graphs):
    f = graphs["F24"]
    h = f.hexagon_ids[0]
    pat = is_resonant_pattern(f, [h])
    assert pat is not None
    assert pat.hexagons == (h,)
    m = pat.matching
    assert 2 * m.size == f.n
    cycle = f.faces[h].boundary
    hits = sum(1 for i in range(6) if (cycle[i], cycle[(i + 1) % 6]) in m)
    assert hits == 3


def test_resonant_certificate_matches_subgraph_construction(graphs):
    # Reference: match the vertex-deleted subgraph on its own, map the edges
    # back to parent ids and close each hexagon with its boundary edges 0, 2, 4.
    for name, f in graphs.items():
        if f.n > 48:
            continue
        for k in (1, 2):
            for ids in disjoint_hexagon_sets(f, k):
                pat = is_resonant_pattern(f, ids)
                if pat is None:
                    continue
                sub = delete_vertices(f, [v for h in ids for v in f.faces[h].vertices])
                edges = {
                    tuple(sorted((sub.to_parent(u), sub.to_parent(v))))
                    for u, v in maximum_matching(sub).edges
                }
                for h in ids:
                    b = f.faces[h].boundary
                    edges |= {tuple(sorted((b[i], b[i + 1]))) for i in (0, 2, 4)}
                assert pat.matching.edges == edges, (name, ids)


def test_is_resonant_rejections(graphs):
    f = graphs["F24"]
    with pytest.raises(GraphError):
        is_resonant_pattern(f, [f.pentagon_ids[0]])  # not a hexagon
    # a repeated id is just the same set; an overlapping pair must raise
    h = f.hexagon_ids[0]
    assert is_resonant_pattern(f, [h, h]).hexagons == (h,)
    c60 = graphs["C60"]
    a = c60.hexagon_ids[0]
    av = c60.faces[a].vertices
    b = next(x for x in c60.hexagon_ids if x != a and av & c60.faces[x].vertices)
    with pytest.raises(GraphError, match="share vertices"):
        is_resonant_pattern(c60, [a, b])


def test_non_resonant_set_returns_none(graphs):
    f = graphs["C70"]
    report = resonance_order(f)
    assert report.failing is not None
    assert is_resonant_pattern(f, report.failing) is None


def test_clar_values(graphs):
    assert clar(graphs["F20"]) == 0
    assert clar(graphs["F24"]) == 2
    assert clar(graphs["C60"]) == 8


def test_fries_values(graphs):
    assert fries(graphs["F20"]) == 0
    assert fries(graphs["F40"]) == 10
    assert fries(graphs["C60"]) == 20


def test_fries_cap(graphs):
    with pytest.raises(GuardExceeded):
        fries(graphs["C60"], cap=100)


def test_resonance_order_c70(graphs):
    rep = resonance_order(graphs["C70"])
    assert rep.order == 2
    assert rep.failing is not None and len(rep.failing) == 3
    assert not rep.capped


def test_resonance_order_all(graphs):
    rep = resonance_order(graphs["F24"])
    assert rep.order == ALL
    assert rep.failing is None


def test_resonance_order_capped(graphs):
    rep = resonance_order(graphs["C60"], max_k=2)
    assert rep.capped
    assert rep.order == 2
    assert rep.failing is None


def test_resonance_order_rejects_invalid_caps(graphs):
    f = graphs["F24"]
    assert resonance_order(f, max_k=0) == OrderReport(0, None, capped=True)
    for bad in (-1, 2.5, True, "2"):
        with pytest.raises(GraphError, match="max_k"):
            resonance_order(f, max_k=bad)


def test_g_star_c70_frozen(graphs):
    w = find_g_star(graphs["C70"])
    assert w is not None
    assert w.vertex == 20
    assert w.hexagons == (1, 15, 18)
    # the witness hexagons really surround the vertex's three neighbours
    f = graphs["C70"]
    for h in w.hexagons:
        assert f.faces[h].size == 6


def test_g_star_absent_when_fully_resonant(graphs):
    for name in ("F24", "F36_1", "C60"):
        assert find_g_star(graphs[name]) is None


def test_hexagon_dichotomy(graphs):
    f = graphs["C70"]
    reports = hexagon_dichotomy_report(f)
    assert len(reports) == 25
    for rep in reports:
        assert rep.resonant
        assert not rep.deletion_bipartite
        assert rep.odd_cycle is not None and len(rep.odd_cycle) % 2 == 1


def test_disjoint_hexagon_sets_lex_order(graphs):
    f = graphs["F36_1"]
    pairs = list(disjoint_hexagon_sets(f, 2))
    assert pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)


def _fresh(name):
    """A newly built graph, so its memo holds only what the test computes."""
    if name[:3] in ("R5_", "R6_"):
        return nanotube(name[:2], int(name[3:]))
    return catalog_graph(name).graph


def _brute_force_sextet(f):
    adj = [list(f.graph.rotation[v]) for v in range(f.n)]
    hexes = [f.faces[h].vertices for h in f.hexagon_ids]
    counts = []
    for k in range(len(hexes) + 1):
        sets = [c for c in combinations(hexes, k) if all(not a & b for a, b in combinations(c, 2))]
        if not sets:
            break
        counts.append(sum(resonant_by_brute_force(adj, frozenset().union(*c)) for c in sets))
    while counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def test_sextet_matches_brute_force_oracle(graphs, tubes):
    small = [f for f in graphs.values() if f.n <= 40]
    small += [tubes[cap, k] for cap in ("R5", "R6") for k in (1, 2)]
    for f in small:
        assert sextet(f).coefficients == _brute_force_sextet(f)


@pytest.mark.parametrize("name", ["F48", "R6_2"])
def test_walk_memo_agrees_with_is_central(name):
    f = _fresh(name)
    poly = sextet(f)
    memo = f._memo["resonant"]
    assert sum(memo.values()) == sum(poly.coefficients)
    for key, resonant in memo.items():
        assert resonant == matching.is_central(f, key), sorted(key)


@pytest.mark.parametrize("name", ["C60", "C70", "R6_3"])
def test_sextet_matches_once_and_feeds_the_order(name, monkeypatch):
    calls = {"mate_array": 0, "is_central": 0}

    def counted(fn_name, fn):
        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernels, "mate_array", counted("mate_array", kernels.mate_array))
    monkeypatch.setattr(matching, "is_central", counted("is_central", matching.is_central))
    f = _fresh(name)
    sextet(f)
    assert calls == {"mate_array": 1, "is_central": 0}
    resonance_order(f)
    assert calls == {"mate_array": 1, "is_central": 0}


def test_sextet_leaves_no_reference_cycles():
    gc.disable()
    try:
        f = _fresh("C70")
        gc.collect()
        sextet(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_resonance_order_leaves_no_reference_cycles():
    gc.disable()
    try:
        f = _fresh("C70")
        gc.collect()
        assert resonance_order(f).order == 2
        assert gc.collect() == 0
    finally:
        gc.enable()
