"""Leapfrog transform: image structure, canonical matching, certificates."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import pytest

from oracles import (
    faces_by_sorted_trace,
    leapfrog_provenance,
    rings_by_edge,
    two_resonance_certificate_by_rebuild,
)

from resonantk.catalog import catalog_names
from resonantk.cli import run
from resonantk.errors import GraphError
from resonantk.leapfrog import LeapfrogResult, leapfrog, territory, two_resonance_certificate
from resonantk.matching import Matching, alternating_faces
from resonantk.plane_graph import EmbeddedGraph, canonical_code, emit_graph, parse_graph, validate_fullerene
from resonantk.resonance import is_resonant_pattern, resonance_order


@pytest.fixture(scope="module")
def lf20(graphs):
    return leapfrog(graphs["F20"])


def test_image_is_c60(graphs, lf20):
    assert lf20.image.n == 60
    assert canonical_code(lf20.image) == canonical_code(graphs["C60"])


def test_face_bookkeeping(graphs, lf20):
    f = graphs["F20"]
    assert len(lf20.heritable) == len(f.faces)
    assert len(lf20.fresh) == f.n
    assert set(lf20.heritable.values()) == set(range(len(f.faces)))
    assert set(lf20.fresh.values()) == set(range(f.n))
    # heritable face sizes equal their originals'
    for img_fid, orig_fid in lf20.heritable.items():
        assert lf20.image.faces[img_fid].size == f.faces[orig_fid].size
    # fresh faces are hexagons
    for img_fid in lf20.fresh:
        assert lf20.image.faces[img_fid].size == 6


def test_m0_is_perfect_and_fresh_faces_alternate(lf20):
    m0 = lf20.m0
    assert 2 * m0.size == lf20.image.n
    alt = set(alternating_faces(lf20.image, m0))
    assert set(lf20.fresh) <= alt
    # here every hexagon is fresh, so m0 alternates on all 20 at once
    assert alt == set(lf20.image.hexagon_ids)
    assert len(alt) == 20
    # heritable pentagons can never alternate (odd faces)
    for img_fid in lf20.heritable:
        assert img_fid not in alt


def test_heritable_faces_partition_vertices(lf20):
    seen: set[int] = set()
    for img_fid in lf20.heritable:
        vs = lf20.image.faces[img_fid].vertices
        assert not vs & seen
        seen |= vs
    assert seen == set(range(lf20.image.n))


def test_provenance_matches_vertex_set_oracle(graphs):
    for name, f in graphs.items():
        lf = leapfrog(f)
        heritable, fresh = leapfrog_provenance(
            [list(row) for row in f.graph.rotation],
            [list(face.boundary) for face in f.faces],
            [face.vertices for face in lf.image.faces],
        )
        assert lf.heritable == heritable, name
        assert lf.fresh == fresh, name


def test_territory_ring(lf20):
    some_heritable = min(lf20.heritable)
    t = territory(lf20, some_heritable)
    assert t.center == some_heritable
    assert len(t.ring) == lf20.image.faces[some_heritable].size
    assert all(r in lf20.fresh for r in t.ring)
    fresh_id = min(lf20.fresh)
    with pytest.raises(GraphError):
        territory(lf20, fresh_id)


@pytest.mark.parametrize("face_id", [True, 1.0, [1]], ids=["bool", "float", "list"])
def test_territory_face_id_must_be_an_integer(graphs, face_id):
    lf = leapfrog(graphs["F24"])
    assert 1 in lf.heritable
    with pytest.raises(GraphError, match="face id must be an integer"):
        territory(lf, face_id)


def test_a_ring_face_missing_from_fresh_is_refused_when_built(lf20):
    # no territory is ever read off a stale fresh map: the image, M0 and the
    # provenance are derived from the two fields, and none of them can be
    # passed in
    assert [field.name for field in dataclasses.fields(LeapfrogResult)] == ["original", "arc_of"]
    center = min(lf20.heritable)
    ring = territory(lf20, center).ring
    assert set(ring) <= lf20.fresh.keys()
    tables = (("fresh", {}), ("heritable", lf20.heritable), ("m0", lf20.m0), ("image", lf20.image))
    for name, value in tables:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            dataclasses.replace(lf20, **{name: value})


def test_certificates_for_all_disjoint_pairs(lf20):
    image = lf20.image
    hexes = image.hexagon_ids
    checked = 0
    for i, a in enumerate(hexes):
        av = image.faces[a].vertices
        for b in hexes[i + 1 :]:
            if av & image.faces[b].vertices:
                continue
            m = two_resonance_certificate(lf20, a, b)
            assert 2 * m.size == image.n
            alt = set(alternating_faces(image, m))
            assert a in alt and b in alt
            assert is_resonant_pattern(image, [a, b]) is not None
            checked += 1
    assert checked == 160


def _disjoint_pairs(image):
    faces = image.faces
    return [
        (a, b)
        for a, b in combinations(image.hexagon_ids, 2)
        if not faces[a].vertices & faces[b].vertices
    ]


@pytest.mark.parametrize("name", catalog_names())
def test_certificates_match_the_rebuild_oracle(graphs, relabel, name):
    # every catalog image, as given and under two labellings
    for f in (graphs[name], relabel(graphs[name], 19), relabel(graphs[name], 20)):
        lf = leapfrog(f)
        for a, b in _disjoint_pairs(lf.image):
            got = two_resonance_certificate(lf, a, b)
            assert got.edges == two_resonance_certificate_by_rebuild(lf, a, b), (name, a, b)


def _mirrored(f):
    """f with every rotation reversed: its mirror image."""
    return validate_fullerene(EmbeddedGraph(tuple(row[::-1] for row in f.graph.rotation)))


def test_ring_triples_are_disjoint_fresh_hexagons_alternating_with_m0(graphs, tubes, relabel):
    # What each flip of the certificate table relies on, computed with
    # oracle code only: the faces by the former trace, the provenance by
    # vertex sets and the rings off an edge -> faces map.  Every fresh
    # hexagon holds three M0 edges, and each heritable hexagon is ringed by
    # six distinct fresh hexagons whose odd and even triples are each
    # pairwise vertex-disjoint.  Each catalog graph is taken as built,
    # relabelled, and relabelled and mirrored.
    originals = list(tubes.values())
    for f in graphs.values():
        originals += [f, relabel(f, 5), _mirrored(relabel(f, 5))]
    checked = 0
    for f in originals:
        lf = leapfrog(f)
        faces = faces_by_sorted_trace(lf.image.graph)
        heritable, fresh = leapfrog_provenance(
            [list(row) for row in f.graph.rotation],
            [list(face.boundary) for face in faces_by_sorted_trace(f.graph)],
            [face.vertices for face in faces],
        )
        rings = rings_by_edge(faces)
        for x in fresh:
            assert faces[x].size == 6
            assert len(lf.m0.edges & set(faces[x].boundary_edges())) == 3, (f.n, x)
        for h in heritable:
            if faces[h].size != 6:
                continue
            ring = rings[h]
            assert len(set(ring)) == 6 and set(ring) <= fresh.keys(), (f.n, h, ring)
            for part in (ring[1::2], ring[0::2]):
                assert all(not faces[a].vertices & faces[b].vertices for a, b in combinations(part, 2))
            checked += 1
    assert checked == 378


def test_certificates_stay_small_in_memory(graphs):
    # Each certificate is kept, as a caller listing them all keeps them.
    # 12.5 MiB when each builds its own set of M0 with the flips toggled in
    # place; growing it from the flip set (frozenset.symmetric_difference)
    # doubles every hash table and measured 19.6 MiB.  Sharing one edge set
    # per set of flipped faces keeps 231 sets for the 2,950 certificates,
    # and measured 1.3 MiB; sharing the Matching itself, 1.1 MiB (CPython 3.11).
    lf = leapfrog(graphs["C60"])
    pairs = _disjoint_pairs(lf.image)
    assert len(pairs) == 2950
    tracemalloc.start()
    try:
        certificates = [two_resonance_certificate(lf, a, b) for a, b in pairs]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(certificates) == len(pairs)
    # one shared Matching per distinct edge set, and so per set of flipped faces
    assert len({id(m) for m in certificates}) == 231
    assert len({id(m.edges) for m in certificates}) == 231
    assert len({m.edges for m in certificates}) == 231
    assert peak <= 2 * 2**20


def test_fresh_fresh_certificate_is_m0(lf20):
    image = lf20.image
    fresh = sorted(lf20.fresh)
    a = fresh[0]
    av = image.faces[a].vertices
    b = next(h for h in fresh[1:] if not av & image.faces[h].vertices)
    m = two_resonance_certificate(lf20, a, b)
    assert set(m.edges) == set(lf20.m0.edges)


@pytest.mark.parametrize("name", ["F20", "F24", "C70"])
def test_two_fresh_targets_get_m0_itself(graphs, relabel, name):
    # fresh faces flip nothing, so the certificate shares M0's edge set
    for f in (graphs[name], relabel(graphs[name], 3)):
        lf = leapfrog(f)
        pairs = [(a, b) for a, b in _disjoint_pairs(lf.image) if a in lf.fresh and b in lf.fresh]
        assert pairs
        for a, b in pairs:
            assert two_resonance_certificate(lf, a, b).edges is lf.m0.edges, (name, a, b)


def test_territories_share_at_most_two_adjacent_faces(graphs, lf20):
    for lf in (lf20, leapfrog(graphs["F24"])):
        rings = {c: territory(lf, c).ring for c in lf.heritable}
        centers = sorted(rings)
        for i, a in enumerate(centers):
            for b in centers[i + 1 :]:
                common = set(rings[a]) & set(rings[b])
                assert len(common) <= 2
                if len(common) == 2:
                    f1, f2 = sorted(common)
                    e1 = set(lf.image.faces[f1].boundary_edges())
                    e2 = set(lf.image.faces[f2].boundary_edges())
                    assert e1 & e2, "shared territory faces must be adjacent"


def test_certificate_errors_keep_their_messages_and_order(graphs):
    lf = leapfrog(graphs["F24"])
    image = lf.image
    a, b = _disjoint_pairs(image)[0]
    near = next(h for h in image.hexagon_ids if h != a and image.faces[a].vertices & image.faces[h].vertices)
    p = image.pentagon_ids[0]
    cases = [
        ((image.graph, a, b), "leapfrog result must be a LeapfrogResult, got EmbeddedGraph"),
        ((image.graph, True, b), "leapfrog result must be a LeapfrogResult, got EmbeddedGraph"),
        ((lf, True, b), "face id must be an integer, got True"),
        ((lf, a, False), "face id must be an integer, got False"),
        ((lf, float(a), b), f"face id must be an integer, got {float(a)}"),
        ((lf, a, float(b)), f"face id must be an integer, got {float(b)}"),
        ((lf, -1, b), "face -1 is not a hexagon of the leapfrog image"),
        ((lf, a, len(image.faces)), f"face {len(image.faces)} is not a hexagon of the leapfrog image"),
        ((lf, p, b), f"face {p} is not a hexagon of the leapfrog image"),
        ((lf, p, True), f"face {p} is not a hexagon of the leapfrog image"),
        ((lf, a, near), f"hexagons {a} and {near} must be vertex-disjoint"),
        ((lf, a, a), f"hexagons {a} and {a} must be vertex-disjoint"),
    ]
    for args, message in cases:
        with pytest.raises(GraphError) as caught:
            two_resonance_certificate(*args)
        assert str(caught.value) == message, args
    assert two_resonance_certificate(lf, a, b) is two_resonance_certificate(lf, a, b)


def test_certificate_errors_on_a_broken_result_come_in_order(graphs):
    # With the candidates of heritable hexagon c1 emptied in a built table,
    # a pair with c1 finds no flip, as the first target or the second; the
    # checks on the targets still come first.
    lf = leapfrog(graphs["F24"])
    image = lf.image
    c1, c2 = [h for h in sorted(lf.heritable) if image.is_hexagon(h)]
    assert len(lf._table.flips[c1]) == 2
    lf._table.flips[c1].clear()
    p = image.pentagon_ids[0]
    with pytest.raises(GraphError, match=f"^face {p} is not a hexagon of the leapfrog image$"):
        two_resonance_certificate(lf, c1, p)
    for a, b in ((c1, c2), (c2, c1)):
        message = f"^no territory flip makes hexagons {a} and {b} alternate together$"
        with pytest.raises(RuntimeError, match=message):
            two_resonance_certificate(lf, a, b)


# A field replaced in F24's result, and the field the GraphError names.  A
# result built by hand must be the construction: arc_of must list the
# original's arcs, each once.
FORGED = {
    "original None": ("original", lambda lf, graphs: {"original": None}),
    "arc_of None": ("arc_of", lambda lf, graphs: {"arc_of": None}),
    "arc_of list": ("arc_of", lambda lf, graphs: {"arc_of": list(lf.arc_of)}),
    "arc_of pair of one": ("arc_of", lambda lf, graphs: {"arc_of": ((1,),) + lf.arc_of[1:]}),
    "arc_of bool pair": ("arc_of", lambda lf, graphs: {"arc_of": ((False, True),) + lf.arc_of[1:]}),
    "arc_of missing an arc": ("arc_of", lambda lf, graphs: {"arc_of": lf.arc_of[:-1]}),
    "arc_of repeating an arc": ("arc_of", lambda lf, graphs: {"arc_of": lf.arc_of[:-1] + lf.arc_of[:1]}),
    "another original": ("arc_of", lambda lf, graphs: {"original": graphs["F28"]}),
}


@pytest.mark.parametrize("call", [territory, two_resonance_certificate], ids=["territory", "certificate"])
@pytest.mark.parametrize("case", list(FORGED))
def test_a_forged_result_is_refused_when_built(graphs, case, call):
    lf = leapfrog(graphs["F24"])
    image = lf.image
    if call is territory:
        args = (next(h for h in sorted(lf.heritable) if image.is_hexagon(h)),)
    else:
        args = _disjoint_pairs(image)[0]
    field, edit = FORGED[case]
    with pytest.raises(GraphError, match=f"^LeapfrogResult {field}"):
        call(dataclasses.replace(lf, **edit(lf, graphs)), *args)


@pytest.mark.parametrize("name", ["F24", "C60"])
def test_any_order_of_the_arcs_labels_the_same_image(graphs, name):
    # Image vertex i is arc arc_of[i] whatever the order: the image is
    # leapfrog()'s up to labelling, M0 pairs each arc with its reversal, the
    # faces alternating with M0 are the fresh faces, and each certificate
    # alternates on its two targets.  The arcs are taken with two swapped,
    # each reversed, and shuffled.
    original = graphs[name]
    code = canonical_code(leapfrog(original).image)
    arcs = tuple(original.graph.arcs())
    shuffled = list(arcs)
    random.Random(45).shuffle(shuffled)
    for arc_of in ((arcs[1], arcs[0], *arcs[2:]), tuple((v, u) for u, v in arcs), tuple(shuffled)):
        lf = LeapfrogResult(original, arc_of)
        assert canonical_code(lf.image) == code
        index = {arc: i for i, arc in enumerate(arc_of)}
        assert lf.m0.edges == {tuple(sorted((i, index[v, u]))) for i, (u, v) in enumerate(arc_of)}
        assert set(alternating_faces(lf.image, lf.m0)) == lf.fresh.keys()
        for a, b in _disjoint_pairs(lf.image):
            alt = alternating_faces(lf.image, two_resonance_certificate(lf, a, b))
            assert a in alt and b in alt, (name, a, b)


@pytest.mark.parametrize("name", catalog_names())
def test_a_result_rebuilt_from_the_cli_files_builds_and_certifies_the_same(graphs, tmp_path, name):
    # A result rebuilt from the original and its sorted arcs derives the
    # image, M0 and provenance that ``resonantk leapfrog`` writes, and the
    # same certificates.
    original = graphs[name]
    src, paths = tmp_path / "in.rot", [tmp_path / "image.rot", tmp_path / "m0.txt", tmp_path / "prov.json"]
    src.write_text(emit_graph(original.graph))
    argv = ["leapfrog", str(src), "-o", str(paths[0])]
    argv += ["--emit-matching", str(paths[1]), "--provenance", str(paths[2])]
    assert run(argv) == 0
    text = paths[0].read_text()
    image = validate_fullerene(parse_graph(text))
    m0 = Matching(frozenset(tuple(map(int, line.split("-"))) for line in paths[1].read_text().split()), image)
    prov = json.loads(paths[2].read_text())
    heritable, fresh = ({int(k): v for k, v in prov[key].items()} for key in ("heritable", "fresh"))
    rebuilt = LeapfrogResult(original, tuple(original.graph.arcs()))
    data = [line for line in text.splitlines() if not line.startswith("#")]
    assert emit_graph(rebuilt.image.graph).splitlines() == data
    assert rebuilt.m0.edges == m0.edges
    assert (rebuilt.heritable, rebuilt.fresh) == (heritable, fresh)
    lf = leapfrog(original)
    for a, b in _disjoint_pairs(image):
        assert two_resonance_certificate(rebuilt, a, b).edges == two_resonance_certificate(lf, a, b).edges


def test_certificate_rejects_overlapping_pair(lf20):
    image = lf20.image
    a = image.hexagon_ids[0]
    av = image.faces[a].vertices
    b = next(h for h in image.hexagon_ids if h != a and av & image.faces[h].vertices)
    with pytest.raises(GraphError):
        two_resonance_certificate(lf20, a, b)


@pytest.mark.parametrize("name", catalog_names())
def test_leapfrog_images_are_exactly_2_resonant(graphs, name):
    # The paper proves every leapfrog image 2-resonant, and every 3-resonant
    # fullerene has at most 60 vertices, so among the images only C60 =
    # Le(F20) can be 3-resonant.
    image = leapfrog(graphs[name]).image
    report = resonance_order(image, max_k=3)
    if name == "F20":
        assert (report.order, report.failing, report.capped) == (3, None, True)
        assert canonical_code(image) == canonical_code(graphs["C60"])
        return
    assert (report.order, report.capped) == (2, False)
    failing = report.failing
    assert len(failing) == 3
    assert all(image.is_hexagon(h) for h in failing)
    faces = image.faces
    assert all(not faces[a].vertices & faces[b].vertices for a, b in combinations(failing, 2))
    assert is_resonant_pattern(image, failing) is None


def test_leapfrog_of_leapfrog(graphs):
    # F20 -> C60 -> C180: the tripling composes
    lf2 = leapfrog(leapfrog(graphs["F20"]).image)
    assert lf2.image.n == 180
    assert len(lf2.image.pentagon_ids) == 12


# SHA-256 over "a b: sorted certificate edges" lines for every disjoint
# hexagon pair (a, b) of each leapfrog image, in combinations order.
# Recorded before certificates were checked on their two targets only; the
# certificates must not change.
CERTIFICATE_DIGESTS = {
    "F20": "ee2905b1a8929479219327323e4be2c51e3218d36a4c4f6df924040c0f7be842",
    "F24": "4033c67f3fec31cbdb0d0c9200b3b0961be5b8f2a4cb8556137dc593a1120914",
    "F28": "33750f4e9bd17954945171c76534e79d676d1532e3843cd34a9928d560c89b63",
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_DIGESTS))
def test_two_resonance_certificates_pinned(graphs, name):
    lf = leapfrog(graphs[name])
    faces = lf.image.faces
    h = hashlib.sha256()
    for a, b in combinations(lf.image.hexagon_ids, 2):
        if not faces[a].vertices & faces[b].vertices:
            h.update(f"{a} {b}: {sorted(two_resonance_certificate(lf, a, b).edges)}\n".encode())
    assert h.hexdigest() == CERTIFICATE_DIGESTS[name]
