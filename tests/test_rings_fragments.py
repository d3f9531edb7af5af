"""Polygonal rings, their invariants, cap detection, pentagon fragments."""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import random
import sys
import threading
import warnings
from collections import Counter
from itertools import combinations, permutations

import pytest

from oracles import _build_ring as build_ring_by_sets
from oracles import find_polygonal_rings_by_full_walk

from resonantk import rings_fragments
from resonantk.catalog import catalog_graph, catalog_names, nanotube
from resonantk.cli import analyze_graph
from resonantk.errors import GraphError
from resonantk.leapfrog import LeapfrogResult, leapfrog, two_resonance_certificate
from resonantk.plane_graph import (
    EmbeddedGraph,
    FaceSet,
    FullereneGraph,
    automorphisms,
    emit_graph,
    parse_graph,
    validate_fullerene,
)
from resonantk.resonance import sextet
from resonantk.rings_fragments import (
    ANY,
    PENTAGONS_ONLY,
    _is_turtle,
    detect_r5_r6,
    find_polygonal_rings,
    maximal_pentagonal_fragments,
    pentagonal_rings,
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
    # no ring has fewer than three faces
    for face_filter in (ANY, PENTAGONS_ONLY):
        for max_len in (0, 1, 2):
            assert find_polygonal_rings(f, max_len, face_filter) == [], (face_filter, max_len)


@pytest.mark.parametrize("face_filter", [ANY, PENTAGONS_ONLY])
def test_max_len_past_the_face_count_changes_nothing(graphs, face_filter):
    # no ring has more faces than the graph; the distance search stops when
    # its layer empties, so a huge bound costs no more than the face count
    for name in ("F20", "C60"):
        f = graphs[name]
        expected = find_polygonal_rings(f, len(f.faces), face_filter)
        assert find_polygonal_rings(f, 10**9, face_filter) == expected, name


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


@pytest.mark.parametrize("name", ["C60", "F48"])
def test_ring_stats_gives_back_the_ring_from_any_rotation_or_reversal(graphs, name):
    # ring_stats puts the faces in the scan's order before building, so the
    # faces, shared edges and cycle directions come back as the scan made them
    f = graphs[name]
    for ring in find_polygonal_rings(f, 9, ANY):
        faces = ring.faces
        for turned in (faces, faces[::-1]):
            for i in range(ring.l):
                again = ring_stats(f, dataclasses.replace(ring, faces=turned[i:] + turned[:i]))
                assert again == ring, (faces, turned[i:] + turned[:i])


def test_ring_stats_names_a_face_id_off_the_graph(graphs):
    # These ended in IndexError, or read -1 as the last face.
    c60, f20 = graphs["C60"], graphs["F20"]
    ring = max(find_polygonal_rings(c60, 9), key=lambda r: max(r.faces))
    off = next(fid for fid in ring.faces if fid >= len(f20.faces))
    cases = [
        (f20, ring.faces, f"ring face {off} is not a face of the graph, which has 12 faces"),
        (c60, (), "at least 3 faces, got 0"),
        (c60, (0, -1, 3), "ring face must be at least 0, got -1"),
        (c60, (0, True, 3), "ring face must be an integer, got True"),
        (c60, None, "ring faces must be an iterable of integers, got None"),
    ]
    for f, faces, message in cases:
        with pytest.raises(GraphError, match=message):
            ring_stats(f, dataclasses.replace(ring, faces=faces))
    # a face sequence that is no ring is a GraphError, raised before any of
    # its (previous, face, next) triples gets arcs in the graph's _ring_arcs
    arcs = c60._ring_arcs
    before = dict(arcs)
    first = ring.faces[:2]
    away = next(g for g in range(len(c60.faces)) if g not in c60.faces.across(first[1]))
    for faces in ((0, 0, 3), first + (away,)):
        with pytest.raises(GraphError, match="are consecutive but share no edge"):
            ring_stats(c60, dataclasses.replace(ring, faces=faces))
    assert arcs == before


@pytest.mark.parametrize(
    "faces, message",
    [
        ((0, 10, 20, 30), "ring faces 30 and 0 are consecutive but share no edge"),
        ((1, 1, 1), "ring faces 1 and 1 are consecutive but share no edge"),
        ((0, 1, 2), r"ring faces \(0, 1, 2\): their shared edges do not form a matching"),
    ],
    ids=["apart", "repeated", "around-a-vertex"],
)
def test_ring_stats_refuses_faces_that_make_no_ring(graphs, faces, message):
    # These raised the RuntimeError kept for a scanner or embedding bug.
    c60 = graphs["C60"]
    ring = find_polygonal_rings(c60, 9)[0]
    with pytest.raises(GraphError, match=f"^{message}$"):
        ring_stats(c60, dataclasses.replace(ring, faces=faces))


def test_ring_stats_refuses_non_consecutive_faces_that_meet(graphs):
    # four faces, each across the next, where the first and third meet too
    c60 = graphs["C60"]
    ring = find_polygonal_rings(c60, 9)[0]
    fs = c60.faces
    for a in range(len(fs)):
        for b in fs.across(a):
            for c in set(fs.across(b)) & set(fs.across(a)):
                d = next((d for d in fs.across(c) if d not in (a, b) and a in fs.across(d)), None)
                if d is not None:
                    with pytest.raises(GraphError, match="two that are not consecutive share a vertex"):
                        ring_stats(c60, dataclasses.replace(ring, faces=(a, b, c, d)))
                    return
    raise AssertionError("no such four faces")


def test_rung_check_needs_exactly_one_endpoint_on_each_cycle(graphs, monkeypatch):
    # _build_ring reads each shared edge from the graph's arcs: the entry of a
    # (previous, face, next) triple ends with the face's edge to the next
    # face and the bits of its two ends, the first on cycle A and the second
    # on cycle B.  Report an edge of each cycle, between two vertices on no
    # shared edge, as the first two shared edges.  The shared edges still
    # form a matching and each cycle still holds l of their endpoints, but
    # each forged edge has both ends on one cycle, so the rung check must
    # refuse them.
    f = graphs["F28"]

    def free_edge(ring, cyc):
        ends = {v for e in ring.shared_edges for v in e}
        for i in range(len(cyc)):
            if cyc[i - 1] not in ends and cyc[i] not in ends:
                return (min(cyc[i - 1], cyc[i]), max(cyc[i - 1], cyc[i]))
        return None

    ring = next(
        r
        for r in find_polygonal_rings(f, 6, ANY)
        if free_edge(r, r.inner_cycle) and free_edge(r, r.outer_cycle)
    )
    assert ring_stats(f, ring) == ring
    arcs = f._ring_arcs
    faces = ring.faces
    for i, cyc in ((0, ring.inner_cycle), (1, ring.outer_cycle)):
        key = (faces[i - 1], faces[i], faces[i + 1])
        u, v = free_edge(ring, cyc)
        monkeypatch.setitem(arcs, key, arcs[key][:7] + ((u, v), 1 << u, 1 << v))
    with pytest.raises(RuntimeError, match="each shared edge is a rung"):
        ring_stats(f, ring)


def test_rung_check_fixes_which_end_lies_on_which_cycle(graphs, monkeypatch):
    # A true shared edge whose A end and B end are swapped still has one end
    # on each cycle, but not the end the arcs put there: the table is wrong,
    # so the rung check must refuse it.
    f = graphs["F28"]
    ring = find_polygonal_rings(f, 6, ANY)[0]
    assert ring_stats(f, ring) == ring
    arcs = f._ring_arcs
    key = (ring.faces[-1], ring.faces[0], ring.faces[1])
    entry = arcs[key]
    monkeypatch.setitem(arcs, key, entry[:8] + (entry[9], entry[8]))
    with pytest.raises(RuntimeError, match="each shared edge is a rung"):
        ring_stats(f, ring)


def _closed_face_walks(fs, shortest, longest):
    """Every dual cycle of shortest..longest faces, least face first, in both directions."""
    out = []

    def grow(seq):
        if len(seq) >= shortest and seq[0] in fs.across(seq[-1]):
            out.append(tuple(seq))
        if len(seq) < longest:
            for g in sorted(set(fs.across(seq[-1]))):
                if g > seq[0] and g not in seq:
                    grow(seq + [g])

    for root in range(len(fs)):
        grow([root])
    return out


def test_face_walks_that_are_no_rings_fail_as_in_the_oracle(graphs):
    # The scan hands the builder only rings, so the scan comparisons never
    # see a face cycle whose shared edges or boundary are wrong.  Every
    # closed face walk must give the set-built oracle's Ring or its error.
    f = graphs["F28"]
    pentagons = sum(1 << p for p in f.pentagon_ids)
    outcomes = Counter()
    for walk in _closed_face_walks(f.faces, 3, 9):
        results = []
        for build in (
            lambda f, walk: rings_fragments._build_ring(f, walk, pentagons),
            build_ring_by_sets,
        ):
            try:
                results.append(build(f, walk))
            except RuntimeError as e:
                results.append(str(e))
        assert results[0] == results[1], walk
        outcomes[results[1].split(": ")[-1] if isinstance(results[1], str) else "ring"] += 1
    assert outcomes == {
        "ring": 340,
        "shared edges form a matching fails": 26404,
        "the boundary is two cycles fails": 12,
    }


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


def _variants(f, relabel, seed):
    """The graph as given, under a seeded relabelling, and reflected, each with its vertex map."""
    perm = list(range(f.n))
    random.Random(seed).shuffle(perm)  # the relabel fixture's vertex map
    same = list(range(f.n))
    reflected = EmbeddedGraph(tuple((c, b, a) for a, b, c in f.graph.rotation))
    return {
        "given": (f, same),
        "relabelled": (relabel(f, seed), perm),
        "reflected": (validate_fullerene(reflected), same),
    }


def _mapped_rings(rings, f, g, vertex_map):
    """The oracle's rings of f carried to g, rebuilt there by the oracle's own builder.

    Each face goes to the face of g on the mapped vertex set.  The mapped
    face cycle is put in the scan's order (least face first, then the
    smaller of its two neighbours) and the list in the oracle's (l, faces)
    order.
    """
    by_vertices = {face.vertices: face.index for face in g.faces}
    face_map = [by_vertices[frozenset(vertex_map[v] for v in face.vertices)] for face in f.faces]
    out = []
    for ring in rings:
        faces = [face_map[fid] for fid in ring.faces]
        least = faces.index(min(faces))
        faces = faces[least:] + faces[:least]
        if faces[-1] < faces[1]:
            faces = faces[:1] + faces[:0:-1]
        out.append(build_ring_by_sets(g, tuple(faces)))
    out.sort(key=lambda r: (r.l, r.faces))
    return out


@pytest.mark.parametrize("name", catalog_names())
def test_ring_scan_matches_full_walk(name, graphs, relabel):
    # the pruned scan and the mask-built rings equal the former scan ring for
    # ring, at every length bound and under relabelling and reflection; the
    # former scan walks the source graph once and its rings are carried over
    f = graphs[name]
    top = 12 if f.n <= 48 else 9
    variants = _variants(f, relabel, f.n)
    for face_filter in (ANY, PENTAGONS_ONLY):
        found = find_polygonal_rings_by_full_walk(f, top, face_filter)
        for kind, (g, vertex_map) in variants.items():
            want = _mapped_rings(found, f, g, vertex_map) if g is not f else found
            for max_len in range(3, top + 1):
                got = find_polygonal_rings(g, max_len, face_filter)
                label = (name, kind, face_filter, max_len)
                assert got == [r for r in want if r.l <= max_len], label


@pytest.mark.parametrize("cap", ["R5", "R6"])
def test_tube_ring_scan_matches_full_walk(cap, relabel):
    for k in range(1, 7):
        f = nanotube(cap, k)
        found = find_polygonal_rings_by_full_walk(f, 9, ANY)
        for kind, (g, vertex_map) in _variants(f, relabel, k).items():
            want = _mapped_rings(found, f, g, vertex_map) if g is not f else found
            assert find_polygonal_rings(g, 9, ANY) == want, (cap, k, kind)


@pytest.mark.parametrize("face_filter", [ANY, PENTAGONS_ONLY])
def test_ring_scan_reaches_each_ring_once_in_its_reported_direction(graphs, tubes, face_filter):
    # _ring_cycles walks a ring only from its least face, and only in the
    # direction whose second face is less than its last: no face set comes
    # twice, not even turned or reversed
    for f in list(graphs.values()) + list(tubes.values()):
        pentagons = set(f.pentagon_ids)
        candidate = [face_filter == ANY or fid in pentagons for fid in range(len(f.faces))]
        seen = set()
        for root in range(len(f.faces)):
            if not candidate[root]:
                continue
            for cycle in rings_fragments._ring_cycles(f.faces, candidate, 9, root):
                assert cycle[0] == root == min(cycle) and cycle[1] < cycle[-1], cycle
                assert all(candidate[fid] for fid in cycle), cycle
                assert frozenset(cycle) not in seen, cycle
                seen.add(frozenset(cycle))
        assert seen == {frozenset(r.faces) for r in find_polygonal_rings(f, 9, face_filter)}


def test_ring_appears_from_its_own_length(graphs, tubes):
    # the dual-distance prune must not need a larger bound than the ring itself
    for f in (graphs["F28"], graphs["F40"], graphs["C60"], tubes[("R6", 3)]):
        scans = {max_len: set(find_polygonal_rings(f, max_len, ANY)) for max_len in range(2, 10)}
        for ring in scans[9]:
            assert ring in scans[ring.l] and ring not in scans[ring.l - 1], ring.faces


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


def test_detect_caps_reads_the_pentagonal_scan(graphs):
    # detect_r5_r6 takes the l <= 6 prefix of pentagonal_rings; it must equal
    # a direct pentagonal scan to length 6
    tubes = [nanotube(cap, k) for cap in ("R5", "R6") for k in range(1, 7)]
    for f in list(graphs.values()) + tubes:
        direct = find_polygonal_rings(f, max_len=6, face_filter=PENTAGONS_ONLY)
        assert [r for r in pentagonal_rings(f) if r.l <= 6] == direct
        caps = [w.ring for w in detect_r5_r6(f)]
        assert caps == [r for r in direct if r.s == 0 and len(r.inner_faces) == 1]


def test_side_faces_are_the_sorted_sides(graphs, tubes):
    # Ring keeps each side as a face bitmask; inner_faces and outer_faces
    # list it ascending, equal to the side grown as a set from the face
    # beyond the cycle's first edge
    from oracles import _face_component

    for f in list(graphs.values()) + list(tubes.values()):
        fs = f.faces
        for r in find_polygonal_rings(f, 9, ANY):
            ring_faces = set(r.faces)
            sides = []
            for cyc in (r.inner_cycle, r.outer_cycle):
                (start,) = {fs.face_of_arc(cyc[:2]), fs.face_of_arc(cyc[1::-1])} - ring_faces
                sides.append(tuple(sorted(_face_component(fs, start, ring_faces))))
            assert (r.inner_faces, r.outer_faces) == tuple(sides), r.faces
            assert r.inner_face_mask == sum(1 << g for g in sides[0])
            assert r.outer_face_mask == sum(1 << g for g in sides[1])


def test_cap_witnesses_pinned(graphs, tubes):
    # SHA-256 over "name: kind faces inner_faces outer_faces" lines of every
    # cap, recorded while detect_r5_r6 still counted the listed inner faces
    h = hashlib.sha256()
    for name, f in list(graphs.items()) + [(f"{c}_{k}", g) for (c, k), g in tubes.items()]:
        for w in detect_r5_r6(f):
            r = w.ring
            h.update(f"{name}: {w.kind} {r.faces} {r.inner_faces} {r.outer_faces}\n".encode())
    assert h.hexdigest() == "ccc14a5cb45edac36ef41797439aa8d0aac20497acc8f35c3f8c3f223f8d03b1"


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


def test_turtle_is_the_connected_graph_with_degrees_1_1_3_3_3_3():
    # Reference: the former permutation check, a graph on six faces is the
    # turtle when some relabelling maps the turtle's seven edges onto its own.
    turtle = {(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)}
    images = {
        frozenset((min(p[a], p[b]), max(p[a], p[b])) for a, b in turtle)
        for p in permutations(range(6))
    }
    pairs = list(combinations(range(6), 2))
    by_degrees = set()
    for bits in range(1 << len(pairs)):
        edges = frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
        reached = {0}
        for _ in range(5):
            reached |= {v for e in edges if reached & set(e) for v in e}
        if len(reached) == 6 and _is_turtle([sum(v in e for e in edges) for v in range(6)]):
            by_degrees.add(edges)
    assert len(images) == 180
    assert by_degrees == images


def test_rings_and_fragments_build_the_face_masks_once(monkeypatch):
    # Every cached table of the classes that keep them, read off the classes
    # so that a table added later is counted too, is built at most once per
    # object.  Parsing reads the turns and traces the faces, and building
    # the FullereneGraph sorts them into pentagons and hexagons; the ring
    # scan, the fragments and ring_stats then build the FaceSet's three
    # tables, the ring scan and its arcs, and no table of any other object
    # (no canonical pass, no walk); analyze and every certificate pair of the
    # leapfrog image build the rest.
    built = Counter()
    counted_objects = []  # kept alive, so that no id is reused
    tables = set()
    for cls in (EmbeddedGraph, FaceSet, FullereneGraph, LeapfrogResult):
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, functools.cached_property):
                key = f"{cls.__name__}.{name}"
                tables.add(key)

                def counted(obj, build=attr.func, key=key):
                    built[key, id(obj)] += 1
                    counted_objects.append(obj)
                    return build(obj)

                wrapped = type(attr)(counted)
                wrapped.__set_name__(cls, name)
                monkeypatch.setattr(cls, name, wrapped)

    f = nanotube("R6", 2)
    parsed = Counter(
        [(key, id(f.graph)) for key in ("EmbeddedGraph._turns", "EmbeddedGraph._faces")]
        + [(f"FullereneGraph.{key}", id(f)) for key in ("faces", "pentagon_ids", "hexagon_ids")]
    )
    assert built == parsed
    ring_phase = parsed + Counter(
        [(key, id(f.faces)) for key in ("FaceSet.vertex_masks", "FaceSet.across_masks", "FaceSet.steps")]
        + [(key, id(f)) for key in ("FullereneGraph._pentagonal_rings", "FullereneGraph._ring_arcs")]
    )
    rings = pentagonal_rings(f)
    assert rings and built == ring_phase
    assert maximal_pentagonal_fragments(f)
    for ring in rings:
        assert ring_stats(f, ring) == ring
    assert built == ring_phase
    analyze_graph(f)
    lf = leapfrog(f)
    verts = lf.image.faces.vertex_masks
    for a, b in combinations(lf.image.hexagon_ids, 2):
        if not verts[a] & verts[b]:
            two_resonance_certificate(lf, a, b)
    assert {key for key, _ in built} == tables
    assert set(built.values()) == {1}


def test_threads_that_race_to_build_the_face_tables_agree():
    # the tables build without a lock, and the ring arcs and the certificate
    # table are filled check-then-set, so threads on fresh objects may each
    # build a table or fill an entry; each must still get what one thread
    # gets alone
    def fresh():
        f = nanotube("R6", 2)
        return EmbeddedGraph(f.graph.rotation), f, leapfrog(f)

    def report(g, f, lf):
        # two heritable hexagons, which are disjoint and need flips
        h1, h2 = sorted(h for h in lf.heritable if lf.image.is_hexagon(h))[:2]
        pentagonal = pentagonal_rings(f)
        return (
            automorphisms(g),
            sextet(f),
            pentagonal,
            maximal_pentagonal_fragments(f),
            find_polygonal_rings(f, 6, ANY),
            two_resonance_certificate(lf, h1, h2),
        )

    want = report(*fresh())
    objects = fresh()
    got = [None] * 6
    start = threading.Barrier(len(got), timeout=60)

    def work(i):
        start.wait()
        got[i] = report(*objects)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * len(got)
