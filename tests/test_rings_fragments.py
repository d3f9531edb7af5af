"""Polygonal rings, their invariants, cap detection, pentagon fragments."""

from __future__ import annotations

import dataclasses
import gc
import random
import warnings
from collections import Counter

import pytest

from resonantk.catalog import catalog_graph
from resonantk.errors import GraphError
from resonantk.plane_graph import EmbeddedGraph, emit_graph, parse_graph, validate_fullerene
from resonantk.rings_fragments import (
    ANY,
    PENTAGONS_ONLY,
    detect_r5_r6,
    find_polygonal_rings,
    maximal_pentagonal_fragments,
    psi,
    ring_stats,
    tau,
)


def test_dodecahedron_ring_census(graphs):
    rings = find_polygonal_rings(graphs["F20"], max_len=12, face_filter=ANY)
    assert len(rings) == 52
    assert min(r.l for r in rings) == 5
    assert all(r.all_pentagons for r in rings)  # no hexagons exist here
    by_len: dict[int, int] = {}
    for r in rings:
        by_len[r.l] = by_len.get(r.l, 0) + 1
    # frozen census: 12 faces give 12 face-bounded 5-rings, the rest longer
    assert by_len[5] == 12


def test_max_len_must_be_a_nonnegative_integer(graphs):
    f = graphs["F20"]
    for bad in (2.5, True, -1, "12"):
        with pytest.raises(GraphError, match="max_len"):
            find_polygonal_rings(f, max_len=bad)
    assert find_polygonal_rings(f, max_len=0) == []


def test_ring_structure_f20(graphs):
    f = graphs["F20"]
    rings = find_polygonal_rings(f, max_len=5, face_filter=ANY)
    assert all(r.l == 5 for r in rings)
    for r in rings:
        assert r.s == 0 and r.s_prime == 5
        assert len(r.inner_cycle) == r.l + r.s
        assert len(r.outer_cycle) == r.l + r.s_prime
        assert r.n5 == 6 + r.s - r.l == 1
        assert r.inner_faces and r.outer_faces
        assert len(r.shared_edges) == r.l
        # shared edges form a matching
        seen: set[int] = set()
        for u, v in r.shared_edges:
            assert u not in seen and v not in seen
            seen |= {u, v}


def test_ring_stats_recompute(graphs):
    f = graphs["F40"]
    rings = find_polygonal_rings(f, max_len=8, face_filter=ANY)
    assert rings
    for r in rings[:10]:
        assert ring_stats(f, r) == r
    with pytest.raises(RuntimeError, match="n6"):
        ring_stats(f, dataclasses.replace(rings[0], n6=rings[0].n6 + 1))


def _ring_counts(f, max_len):
    return Counter(
        (r.l, r.s, r.s_prime, r.r, r.n5, r.n6) for r in find_polygonal_rings(f, max_len, ANY)
    )


def test_ring_sides_do_not_depend_on_labels(graphs):
    # F40 has 40 rings of length <= 9 with s = s' whose sides differ in r
    f = graphs["F40"]
    perm = list(range(f.n))
    random.Random(40).shuffle(perm)
    rotation = [(0, 0, 0)] * f.n
    for v, (a, b, c) in enumerate(f.graph.rotation):
        rotation[perm[v]] = (perm[c], perm[b], perm[a])  # relabelled and mirrored
    mirror = validate_fullerene(parse_graph(emit_graph(EmbeddedGraph(tuple(rotation)))))
    assert _ring_counts(mirror, 9) == _ring_counts(f, 9)


def test_ring_scan_leaves_no_reference_cycles():
    gc.disable()
    try:
        f = catalog_graph("C60").graph
        gc.collect()
        find_polygonal_rings(f, 9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pentagonal_filter(graphs):
    f = graphs["F24"]
    pent = find_polygonal_rings(f, max_len=12, face_filter=PENTAGONS_ONLY)
    assert all(r.all_pentagons for r in pent)
    everything = find_polygonal_rings(f, max_len=12, face_filter=ANY)
    assert len(everything) >= len(pent)
    assert {r.faces for r in pent} <= {r.faces for r in everything}
    # s + s' = l holds exactly on all-pentagon rings
    for r in pent:
        assert r.s + r.s_prime == r.l


def test_tau_catalog_values(graphs):
    expected = {
        "F20": 5,
        "F24": 6,
        "F28": 8,
        "F30": 6,
        "F32": 9,
        "F36_1": None,
        "F36_2": 10,
        "F40": 10,
        "F48": 12,
        "C60": None,
        "C70": None,
    }
    for name, want in expected.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any sanity-breach warning fails
            assert tau(graphs[name]) == want, name


def test_psi_values(graphs):
    assert psi(graphs["F20"], 5) == 0
    assert psi(graphs["F20"], 4) is None
    assert psi(graphs["F24"], 6) == 0
    assert psi(graphs["F28"], 8) == 2
    assert psi(graphs["F36_1"], 6) is None  # no pentagonal rings at all


def test_f48_longest_pentagonal_ring(graphs):
    rings = [
        r
        for r in find_polygonal_rings(graphs["F48"], 12, PENTAGONS_ONLY)
        if r.l == 12
    ]
    assert len(rings) == 1
    (r,) = rings
    assert (r.s, r.s_prime, r.n5, r.n6) == (6, 6, 0, 7)
    assert r.n6 == 4 + r.r // 2


def test_length_five_ring_dichotomy(graphs, tubes):
    # every 5-ring either has a side bounding a single face, or both
    # boundary cycles have length 10 with all five ring faces hexagonal
    targets = list(graphs.values()) + list(tubes.values())
    for f in targets:
        for r in find_polygonal_rings(f, max_len=5, face_filter=ANY):
            one_face = len(r.inner_faces) == 1 or len(r.outer_faces) == 1
            both_ten = (
                len(r.inner_cycle) == 10
                and len(r.outer_cycle) == 10
                and all(f.faces[x].size == 6 for x in r.faces)
            )
            assert one_face or both_ten, r.faces


def test_side_balance_orientation(graphs):
    for name in ("F20", "F24", "F40"):
        for r in find_polygonal_rings(graphs[name], max_len=8, face_filter=ANY):
            assert r.s <= r.s_prime


def test_cap_without_exempt_shape_forces_low_order(graphs, tubes):
    from resonantk.plane_graph import canonical_code
    from resonantk.resonance import ALL, resonance_order

    exempt = {canonical_code(graphs["F20"]), canonical_code(graphs["F24"])}
    targets = list(graphs.values()) + list(tubes.values())
    for f in targets:
        if detect_r5_r6(f) and canonical_code(f) not in exempt:
            rep = resonance_order(f)
            assert rep.order != ALL and rep.order <= 1


def test_detect_caps(graphs, tubes):
    f20 = detect_r5_r6(graphs["F20"])
    assert len(f20) == 12 and all(w.kind == "R5" for w in f20)
    f24 = detect_r5_r6(graphs["F24"])
    assert len(f24) == 2 and all(w.kind == "R6" for w in f24)
    assert detect_r5_r6(graphs["C60"]) == []
    f30 = detect_r5_r6(graphs["F30"])
    assert f30 and {w.kind for w in f30} == {"R6"}
    for key, tube in tubes.items():
        witnesses = detect_r5_r6(tube)
        assert witnesses, key
        for w in witnesses:
            assert w.ring.s == 0
            assert len(w.ring.inner_faces) == 1


def test_cap_ring_bounds_single_face(graphs):
    for w in detect_r5_r6(graphs["F20"]):
        inner = next(iter(w.ring.inner_faces))
        assert graphs["F20"].faces[inner].size == len(w.ring.inner_cycle)


def test_fragment_shapes_frozen(graphs):
    shapes = {
        name: sorted(
            (fr.shape, len(fr.faces)) for fr in maximal_pentagonal_fragments(graphs[name])
        )
        for name in ("F20", "F24", "F36_1", "F40", "C60")
    }
    assert shapes["F20"] == [("OTHER", 12)]  # the whole sphere, no boundary
    assert shapes["F24"] == [("OTHER", 12)]  # annular belt
    assert shapes["F36_1"] == [("TURTLE", 6), ("TURTLE", 6)]
    assert shapes["F40"] == [("OTHER", 10), ("PENTAGON", 1), ("PENTAGON", 1)]
    assert shapes["C60"] == [("PENTAGON", 1)] * 12


def test_fragment_flags(graphs):
    f20 = maximal_pentagonal_fragments(graphs["F20"])[0]
    assert f20.boundary == () and not f20.maximal
    turtles = maximal_pentagonal_fragments(graphs["F36_1"])
    for t in turtles:
        assert t.maximal and t.pentagonal
        assert t.gamma == 1  # a turtle has a pentagon adjoining just one other
        assert len(t.boundary) == 1
    c60 = maximal_pentagonal_fragments(graphs["C60"])
    for fr in c60:
        assert fr.maximal and fr.gamma == 0
        assert len(fr.w_vertices) == 5  # isolated pentagon: all boundary free


def test_ipr_c70(graphs):
    frags = maximal_pentagonal_fragments(graphs["C70"])
    assert len(frags) == 12
    assert all(fr.shape == "PENTAGON" for fr in frags)
