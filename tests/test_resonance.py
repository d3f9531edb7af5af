"""Resonant patterns, sextet polynomials, orders, and obstructions."""

from __future__ import annotations

import dataclasses
import gc
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    count_disjoint_hexagon_sets,
    disjoint_hexagon_sets,
    resonance_order_by_sweep,
    resonant_by_brute_force,
    sextet_by_unpruned_walk,
)

from resonantk import kernels, matching, plane_graph, resonance
from resonantk.catalog import catalog_graph, catalog_names, nanotube
from resonantk.cli import analyze_graph
from resonantk.errors import GraphError, GuardExceeded
from resonantk.leapfrog import leapfrog, two_resonance_certificate
from resonantk.matching import maximum_matching, symmetric_difference
from resonantk.plane_graph import (
    Automorphism,
    EmbeddedGraph,
    delete_vertices,
    emit_graph,
    is_bipartite,
    validate_fullerene,
)
from resonantk.rings_fragments import psi
from resonantk.resonance import (
    ALL,
    OrderReport,
    clar,
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


@pytest.mark.parametrize(
    "x", ["x", None, True, False, 1j, [2]], ids=["str", "none", "true", "false", "complex", "list"]
)
def test_sextet_polynomial_takes_an_int_or_a_float(graphs, x):
    # a GraphError naming the value, never a TypeError, and no value at a bool
    poly = sextet(graphs["F24"])
    message = f"sextet polynomial argument must be an int or a float, got {re.escape(repr(x))}"
    with pytest.raises(GraphError, match=f"^{message}$"):
        poly(x)
    assert (poly(2), poly(-1), poly(0.5)) == (9, 0, 2.25)


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
    # of several conflicting pairs, the lexicographically least is named
    for ids in ((1, 3, 4, 7), (7, 4, 3, 1)):
        with pytest.raises(GraphError) as raised:
            is_resonant_pattern(c60, ids)
        assert str(raised.value) == "hexagons 1 and 7 share vertices; the set must be disjoint"


@pytest.mark.parametrize(
    "call",
    [
        lambda f: is_resonant_pattern(f, [1.5]),
        lambda f: matching.is_central(f, 2.0),
        lambda f: matching.is_central(f, True),
        lambda f: two_resonance_certificate(leapfrog(f), 1.5, 3),
        lambda f: delete_vertices(f, [1.5]),
        lambda f: psi(f, 1.5),
        lambda f: psi(f, True),
        lambda f: sextet(f).sigma(True),
        lambda f: sextet(f).sigma(1.0),
    ],
    ids=[
        "pattern", "central-float", "central-bool", "certificate", "delete",
        "psi-float", "psi-bool", "sigma-bool", "sigma-float",
    ],
)
def test_ids_and_sizes_must_be_integers(graphs, call):
    with pytest.raises(GraphError, match="must be an integer"):
        call(graphs["F24"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: is_resonant_pattern(f, 5), "face ids must be an iterable of integers, got 5"),
        (lambda f: is_resonant_pattern(f, None), "face ids must be an iterable of integers, got None"),
        (lambda f: delete_vertices(f, 5), "vertex ids must be an iterable of integers, got 5"),
        (lambda f: emit_graph(f.graph, 5), "comments must be a sequence of strings, got 5"),
        (lambda f: emit_graph(f.graph, None), "comments must be a sequence of strings, got None"),
        (lambda f: emit_graph(f.graph, "abc"), "comments must be a sequence of strings, got 'abc'"),
        (lambda f: emit_graph(f.graph, [5]), "comment must be a string, got 5"),
        (
            lambda f: symmetric_difference(maximum_matching(f), 5),
            "cycle vertex ids must be an iterable of integers, got 5",
        ),
        (
            lambda f: symmetric_difference(maximum_matching(f), None),
            "cycle vertex ids must be an iterable of integers, got None",
        ),
    ],
    ids=[
        "pattern-int", "pattern-none", "delete-int", "emit-int", "emit-none", "emit-str",
        "emit-item", "cycle-int", "cycle-none",
    ],
)
def test_collection_arguments_are_checked(graphs, call, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        call(graphs["C60"])


def test_out_of_range_ids_keep_their_messages(graphs):
    f = graphs["F24"]
    with pytest.raises(GraphError, match="face id 26 outside 0..13"):
        is_resonant_pattern(f, [26])
    with pytest.raises(GraphError, match="face id 26 outside 0..13"):
        matching.is_central(f, 26)
    with pytest.raises(GraphError, match="not a hexagon of the leapfrog image"):
        two_resonance_certificate(leapfrog(f), -1, 3)
    with pytest.raises(GraphError, match="cannot delete vertex 24: outside 0..23"):
        delete_vertices(f, [24])


def test_is_resonant_pattern_matches_once(monkeypatch):
    calls = []
    mate_array = kernels.mate_array
    monkeypatch.setattr(kernels, "mate_array", lambda *a: calls.append(1) or mate_array(*a))
    f = _fresh("C70")
    failing = resonance_order(f).failing
    calls.clear()
    assert is_resonant_pattern(f, [f.hexagon_ids[0]]) is not None
    assert len(calls) == 1
    assert is_resonant_pattern(f, failing) is None
    assert len(calls) == 2
    assert is_resonant_pattern(f, failing) is None
    assert len(calls) == 3


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


def test_fries_does_not_depend_on_labels(graphs, relabel):
    # on this labelling of C60, backtracking on the lowest vertex id takes 49 s
    assert fries(relabel(graphs["C60"], 2)) == 20
    assert fries(relabel(graphs["F48"], 5)) == 12


def test_fries_checks_its_winner(graphs, monkeypatch):
    # a score that disagrees with alternating_faces must not pass silently
    monkeypatch.setattr(resonance, "alternating_hexagon_count", lambda hexagons, mate: 99)
    with pytest.raises(RuntimeError, match="scores 99"):
        fries(graphs["F24"])


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


def test_theorems_hold_on_every_isomer_with_20_to_30_vertices(isomers):
    # Every hexagon of a fullerene is resonant, so sigma_1 counts them all,
    # and every leapfrog image is 2-resonant.
    from resonantk._spiral import wind

    checked = 0
    for n, found in isomers.items():
        for i, (_, seq) in enumerate(found):
            f = validate_fullerene(wind(seq))
            assert all(is_resonant_pattern(f, [h]) is not None for h in f.hexagon_ids), (n, i)
            assert sextet(f).sigma(1) == len(f.hexagon_ids) == n // 2 - 10, (n, i)
            order = resonance_order(leapfrog(f).image, max_k=2).order
            assert order == ALL or order >= 2, (n, i)
            checked += 1
    assert checked == 8


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


def test_dichotomy_odd_cycles_lie_off_each_hexagon(graphs, relabel):
    # The odd cycle is read off a pentagon that misses the hexagon; it must
    # agree with a breadth-first search of F - V(h) and be an odd cycle there.
    fullerenes = dict(graphs)
    fullerenes.update((f"{cap}_{k}", nanotube(cap, k)) for cap in ("R5", "R6") for k in range(1, 7))
    for seed, (name, f) in enumerate(fullerenes.items()):
        for g in (f, relabel(f, seed)):
            for rep in hexagon_dichotomy_report(g):
                hexagon = g.faces[rep.face_id].vertices
                assert rep.deletion_bipartite == is_bipartite(delete_vertices(g, hexagon))[0], name
                cycle = rep.odd_cycle
                assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle), name
                assert not hexagon & set(cycle), name
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in g.graph.rotation[a], name


def _fresh(name):
    """A newly built graph, so it holds only the tables the test builds."""
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
def test_walk_counts_the_sets_is_central_accepts(name):
    # the walk keeps no sets, only counts: they add up to the disjoint sets
    # of every size that is_central accepts
    f = _fresh(name)
    accepted = 0
    for k in range(len(f.hexagon_ids) + 1):
        sets = list(disjoint_hexagon_sets(f, k))
        if not sets:
            break
        accepted += sum(matching.is_central(f, ids) for ids in sets)
    assert sum(sextet(f).coefficients) == accepted
    assert sum(f._walk.counts) == accepted


WALKED = catalog_names() + tuple(f"R5_{k}" for k in range(1, 7)) + tuple(
    f"R6_{k}" for k in range(1, 5)
)


def _order(g, cap):
    """``resonance_order(g, cap)`` as the sweep oracle gives it: (order, failing, capped)."""
    return dataclasses.astuple(resonance_order(g, cap))


def _reflected(f):
    return validate_fullerene(EmbeddedGraph(tuple((c, b, a) for a, b, c in f.graph.rotation)))


@pytest.mark.parametrize("name", WALKED)
def test_walk_matches_the_sweep(name, relabel):
    # The order and failing set of the former size-then-lex sweep, uncapped
    # and capped at 0 to 3, both from a fresh graph (bounded walks at 2 and
    # 3, then the full walk) and from the full walk that sextet keeps, and
    # the coefficients of the former unpruned walk; as given, relabelled,
    # and relabelled and reflected.
    seed = WALKED.index(name)
    caps = (None, 0, 1, 2, 3)
    coefficients = set()
    for g in (_fresh(name), relabel(_fresh(name), seed), _reflected(relabel(_fresh(name), seed + 50))):
        expected = [resonance_order_by_sweep(g, cap) for cap in caps]
        unpruned = sextet_by_unpruned_walk(g)
        assert [_order(g, cap) for cap in caps] == expected
        # The full walk is built exactly when the walks at 2 and 3 both
        # pass: every disjoint set of at most 3 hexagons is resonant, and
        # one of 3 exists.
        _, failing, _ = expected[0]
        assert ("_walk" in vars(g)) == ((failing is None or len(failing) > 3) and len(unpruned) > 3)
        coefficients.add(sextet(g).coefficients)
        assert coefficients == {unpruned}
        assert [_order(g, cap) for cap in caps] == expected


def _nonzero_counts(walk):
    # A walk may test a size at which every set fails; visiting fewer sets,
    # the orbit walk may not reach such a size.
    counts = list(walk.counts)
    while counts[-1] == 0:
        counts.pop()
    return counts


@pytest.mark.parametrize("name", WALKED)
def test_orbit_walk_matches_the_unreduced_walk(name, relabel, monkeypatch):
    # The full walk with the group cut down to the identity visits every
    # resonant set; as given, relabelled, and relabelled and reflected.
    seed = 300 + WALKED.index(name)
    graphs = (_fresh(name), relabel(_fresh(name), seed), _reflected(relabel(_fresh(name), seed + 50)))
    orbit = [resonance._walk(g) for g in graphs]
    monkeypatch.setattr(
        resonance, "automorphisms", lambda f: (Automorphism(tuple(range(f.n)), False),)
    )
    for g, walk in zip(graphs, orbit):
        plain = resonance._walk(g)
        assert _nonzero_counts(walk) == _nonzero_counts(plain)
        assert walk.singles == plain.singles
        assert walk.failed == plain.failed


def _face_maps(f):
    """Each automorphism of f, identity first, as a dict from hexagon to hexagon.

    A hexagon goes to the face whose vertex set is the image of its own.
    """
    face_of = {face.vertices: face.index for face in f.faces}
    return [
        {h: face_of[frozenset(perm[v] for v in f.faces[h].vertices)] for h in f.hexagon_ids}
        for perm, _ in plane_graph.automorphisms(f)
    ]


@pytest.mark.parametrize("name", ["C60", "C70", "F48", "R5_3", "R6_2"])
def test_orbit_pass_matches_brute_force_per_set(name, relabel, monkeypatch):
    # Every child the full walk decides, checked against the sorted image of
    # the set under every automorphism, identity included: not least exactly
    # when some image is below the set, else the stabiliser order and, for
    # each map but the identity, the mask of the image computed from scratch.
    least = resonance._least
    decided = 0

    def checked(mask, c, action):
        nonlocal decided
        decided += 1
        s = tuple(sorted(x for x in range(top + 1) if mask >> top - x & 1))
        assert s[-1] == c
        images = [tuple(sorted(m[x] for x in s)) for m in maps]
        found = least(mask, c, action)
        assert (found is None) == any(image < s for image in images)
        if found is not None:
            stab, child = found
            assert stab == images.count(s)
            assert [m for m, _ in child] == [m for m, _ in action]
            assert [image for _, image in child] == [
                sum(1 << top - x for x in image) for image in images[1:]
            ]
        return found

    monkeypatch.setattr(resonance, "_least", checked)
    for g in (_fresh(name), relabel(_fresh(name), 900 + len(name))):
        maps = _face_maps(g)
        top = len(g.faces) - 1
        before = decided
        resonance._walk(g)
        assert decided > before


@pytest.mark.parametrize("name, sizes", [("C60", [2, 3, None]), ("C70", [2, 3]), ("R6_8", [2])])
def test_resonance_order_reads_the_full_walk_past_3(name, sizes, monkeypatch):
    # A fresh graph runs bounded walks at 2 and 3, and the full walk (kept
    # on the graph) only when both pass; a kept walk is read, not run again.
    calls = []
    walk = resonance._walk
    monkeypatch.setattr(
        resonance, "_walk", lambda f, max_size=None: calls.append(max_size) or walk(f, max_size)
    )
    f = _fresh(name)
    report = resonance_order(f)
    assert calls == sizes
    assert ("_walk" in vars(f)) == (None in sizes)
    calls.clear()
    assert resonance_order(f) == report
    assert calls == ([] if None in sizes else sizes)


def test_canonical_pass_only_for_the_full_walk(monkeypatch):
    # Bounded walks take no group; analyze shares one pass between the
    # orbit walk and the graph's identity.
    passes = []
    canonical_pass = plane_graph._canonical_pass
    monkeypatch.setattr(plane_graph, "_canonical_pass", lambda g: passes.append(1) or canonical_pass(g))
    f = _fresh("C70")
    resonance_order(f)
    hexagon_dichotomy_report(f)
    find_g_star(f)
    assert passes == []
    analyze_graph(_fresh("C70"))
    assert len(passes) == 1


def test_sextet_polynomial_evaluates_exactly(graphs):
    # C70's value at 1000 is about 2.5e28, far past a float's 53 bits.
    poly = sextet(graphs["C70"])
    value = poly(1000)
    assert type(value) is int
    assert value == sum(c * 1000**i for i, c in enumerate(poly.coefficients))
    assert poly(0.5) == sum(c * 0.5**i for i, c in enumerate(poly.coefficients))


def test_walk_skips_supersets_of_failed_siblings(monkeypatch):
    # On R6_4 the walk runs 324 augment searches (2,896 when it visited every
    # member of each symmetry orbit, 4,709 before it started from a Clar
    # structure and composed disjoint repairs), the unpruned walk 9,525.
    calls = []
    augment = kernels.augment
    monkeypatch.setattr(kernels, "augment", lambda *a: calls.append(1) or augment(*a))
    f = _fresh("R6_4")
    resonance._walk(f)
    pruned = len(calls)
    calls.clear()
    sextet_by_unpruned_walk(f)
    assert pruned < 0.6 * len(calls)


@pytest.mark.parametrize(
    "name, searches, tests", [("C60", 20, 259), ("C70", 433, 1900), ("F48", 15, 74), ("R6_4", 265, 496)]
)
def test_walk_work_is_pinned(name, searches, tests, relabel, monkeypatch):
    # The full walk's augment searches and orbit tests under one labelling;
    # the same before and after the orbit test compared bitmasks.
    calls = {"augment": 0, "_least": 0}

    def counted(module, fn_name):
        fn = getattr(module, fn_name)

        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)

        monkeypatch.setattr(module, fn_name, wrapper)

    counted(kernels, "augment")
    counted(resonance, "_least")
    resonance._walk(relabel(_fresh(name), 46))
    assert calls == {"augment": searches, "_least": tests}


@pytest.mark.parametrize("name, most", [("C60", 50), ("C70", 600), ("R6_4", 450)])
def test_walk_search_count(name, most, monkeypatch):
    # The full walk's augment searches: 22, 437 and 324 visiting one set per
    # symmetry orbit; 51, 3,957 and 2,896 visiting every set, with the Clar
    # root and composed repairs; 3,670, 14,738 and 4,709 without them.
    calls = []
    augment = kernels.augment
    monkeypatch.setattr(kernels, "augment", lambda *a: calls.append(1) or augment(*a))
    resonance._walk(_fresh(name))
    assert len(calls) <= most


def test_walk_hands_augment_matchings_of_the_rest(relabel, monkeypatch):
    # Every mate array a search starts from, composed or not, is a matching
    # of the graph minus the excluded vertices, with the search's root free.
    names = list(catalog_names()) + [f"{cap}_{k}" for cap in ("R5", "R6") for k in (1, 2, 3, 4, 5)]
    augment = kernels.augment
    searches = 0

    def checked(n, adj, excluded, mate, root):
        nonlocal searches
        searches += 1
        assert mate[root] == -1 and not excluded[root]
        for v, w in enumerate(mate):
            if w >= 0:
                assert mate[w] == v and w in adj[v] and not excluded[v]
        return augment(n, adj, excluded, mate, root)

    monkeypatch.setattr(kernels, "augment", checked)
    for i, name in enumerate(names):
        resonance._walk(relabel(_fresh(name), 700 + i))
    assert searches > 1000


# catalog_names() runs from the smallest graph up
SMALL = catalog_names()[: catalog_names().index("F48") + 1] + ("R5_1", "R5_2", "R6_1", "R6_2")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.integers(0, 2**32), st.booleans())
def test_walk_does_not_depend_on_labels(relabel, name, seed, reflect):
    # The Clar root depends on the labelling; the walk's answers must not.
    g = relabel(_fresh(name), seed)
    if reflect:
        g = _reflected(g)
    caps = (None, 1, 2)
    assert [_order(g, cap) for cap in caps] == [resonance_order_by_sweep(g, cap) for cap in caps]
    assert sextet(g).coefficients == sextet_by_unpruned_walk(g)


def _tables(obj):
    """What obj keeps besides its fields: the cached tables it has built."""
    return set(vars(obj)) - {fld.name for fld in dataclasses.fields(obj)}


# What a FullereneGraph derives from its graph when it is built.
_BUILT_WITH = {"faces", "pentagon_ids", "hexagon_ids"}


def test_graph_keeps_the_walk_summary_and_no_resonant_sets():
    f = _fresh("C70")
    resonance_order(f)
    hexagon_dichotomy_report(f)
    find_g_star(f)
    assert _tables(f) == _BUILT_WITH and _tables(f.graph) == {"_turns", "_faces"}
    sextet(f)
    assert _tables(f) == _BUILT_WITH | {"_walk"} and _tables(f.graph) == {"_turns", "_faces", "_canonical"}
    f = _fresh("C70")
    analyze_graph(f)
    # C70 has no pentagonal ring, so the ring scan builds no ring and keeps no arcs
    assert _tables(f) == _BUILT_WITH | {"_walk", "_pentagonal_rings"}
    assert _tables(f.graph) == {"_turns", "_faces", "_canonical"}
    # the canonical pass keeps its code and the 20 automorphisms it closes,
    # identity first, and nothing else
    code, group = f.graph._canonical
    assert isinstance(code, bytes) and type(group) is tuple and len(group) == 20
    assert all(type(a) is Automorphism for a in group)
    assert group[0] == Automorphism(tuple(range(70)), False)
    # the walk keeps its counts and one least failing set
    walk = f._walk
    assert walk.counts == (1, 25, 255, 1355, 3940, 5958, 4715, 2065, 375, 25)
    assert walk.failed == (1, 10, 18)


def test_sextet_memory_stays_flat():
    # 46.6 MB at the former per-set memo, 0.21 MB measured for the walk
    f = nanotube("R6", 5)
    tracemalloc.start()
    try:
        poly = sextet(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly.coefficients == (1, 32, 358, 2124, 6672, 10866, 8694, 3252, 585, 54, 3)
    assert peak < 1_000_000, f"sextet(R6_5) peaked at {peak / 1e6:.2f} MB"


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
