"""Leapfrog transform: image structure, canonical matching, certificates."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tracemalloc
from itertools import combinations

import pytest

from oracles import leapfrog_provenance, two_resonance_certificate_by_rebuild

from resonantk.catalog import catalog_names
from resonantk.cli import run
from resonantk.errors import GraphError
from resonantk.leapfrog import LeapfrogResult, leapfrog, territory, two_resonance_certificate
from resonantk.matching import Matching, alternating_faces
from resonantk.plane_graph import canonical_code, emit_graph, parse_graph, validate_fullerene
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
    # no territory is ever read off a stale fresh map
    center = min(lf20.heritable)
    ring = territory(lf20, center).ring
    message = "^LeapfrogResult fresh must take each of the 20 original vertices once$"
    with pytest.raises(GraphError, match=message):
        dataclasses.replace(lf20, fresh={k: v for k, v in lf20.fresh.items() if k != ring[0]})


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
            assert got.edges == two_resonance_certificate_by_rebuild(lf, a, b).edges, (name, a, b)


def _outcome(certify, lf, a, b):
    try:
        return certify(lf, a, b).edges
    except RuntimeError as e:
        return str(e)


@pytest.mark.parametrize("name", ["F20", "F24", "F28"])
def test_a_flipped_m0_matches_the_rebuild_oracle(graphs, name):
    # M0 flipped around one fresh face is still perfect, but the fresh
    # faces next to that face no longer alternate with it: a candidate that
    # flips one of them, or a fresh target among them, must be refused.
    lf = leapfrog(graphs[name])
    face = lf.image.faces[min(lf.fresh)]
    flipped = Matching(lf.m0.edges.symmetric_difference(face.boundary_edges()), lf.image)
    forged = dataclasses.replace(lf, m0=flipped)
    outcomes = set()
    for a, b in _disjoint_pairs(lf.image):
        got = _outcome(two_resonance_certificate, forged, a, b)
        assert got == _outcome(two_resonance_certificate_by_rebuild, forged, a, b), (a, b)
        outcomes.add(isinstance(got, str))
    assert outcomes == {False, True}


def test_an_imperfect_m0_gives_no_certificate(lf20):
    # refused when the result is built, so no certificate reads it
    a, b = _disjoint_pairs(lf20.image)[0]
    two_resonance_certificate(lf20, a, b)  # fills lf20's flip table
    short = Matching(lf20.m0.edges - {min(lf20.m0.edges)}, lf20.image)
    message = "^LeapfrogResult m0 is not a perfect matching of its 60-vertex image$"
    with pytest.raises(GraphError, match=message):
        dataclasses.replace(lf20, m0=short)
    assert len(_disjoint_pairs(lf20.image)) == 160


def test_an_edited_result_builds_its_own_flip_table(graphs):
    # F24's image has heritable hexagons, whose candidates read territories.
    # An edit with stale provenance is refused when built, once lf's table
    # exists too; one with M0 flipped round a fresh face keeps its provenance
    # and builds a table of its own, where the candidate flipping that face
    # again is dropped.
    lf = leapfrog(graphs["F24"])
    image = lf.image
    center = next(h for h in sorted(lf.heritable) if image.is_hexagon(h))
    other = next(b for a, b in _disjoint_pairs(image) if a == center)
    two_resonance_certificate(lf, center, other)
    ring = territory(lf, center).ring
    with pytest.raises(GraphError, match="^LeapfrogResult fresh"):
        dataclasses.replace(lf, fresh={k: v for k, v in lf.fresh.items() if k != ring[0]})
    flipped = Matching(lf.m0.edges.symmetric_difference(image.faces[ring[0]].boundary_edges()), image)
    edited = dataclasses.replace(lf, m0=flipped)
    assert edited._table is not lf._table
    assert [len(lf._table.flips[center]), len(edited._table.flips[center])] == [2, 1]


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
    lf = leapfrog(graphs["F24"])
    image = lf.image
    c1, c2 = [h for h in sorted(lf.heritable) if image.is_hexagon(h)]
    stale = {territory(lf, c).ring[0] for c in (c1, c2)}
    stale_fresh = {k: v for k, v in lf.fresh.items() if k not in stale}
    # A stale fresh map is refused when built, and an M0 that is not
    # perfect before it.
    message = "^LeapfrogResult fresh must take each of the 24 original vertices once$"
    with pytest.raises(GraphError, match=message):
        dataclasses.replace(lf, fresh=stale_fresh)
    with pytest.raises(GraphError, match="^LeapfrogResult m0 is not a perfect matching"):
        dataclasses.replace(lf, fresh=stale_fresh, m0=Matching(lf.m0.edges - {min(lf.m0.edges)}, image))
    # Flipped round two opposite faces of c1's territory, M0 stays perfect,
    # but the other four stop alternating: c1 keeps no candidate, as the
    # first target or the second.
    ring = territory(lf, c1).ring
    opposite = image.faces[ring[0]].boundary_edges() + image.faces[ring[3]].boundary_edges()
    forged = dataclasses.replace(lf, m0=Matching(lf.m0.edges.symmetric_difference(opposite), image))
    for a, b in ((c1, c2), (c2, c1)):
        with pytest.raises(RuntimeError, match=f"^no territory flip makes hexagons {a} and {b}"):
            two_resonance_certificate(forged, a, b)


def _swapped(lf, a, b):
    """lf's provenance with image faces a (heritable) and b (fresh) trading places."""
    heritable = {b if k == a else k: v for k, v in lf.heritable.items()}
    fresh = {a if k == b else k: v for k, v in lf.fresh.items()}
    return {"heritable": heritable, "fresh": fresh}


# A field replaced in F24's result, and the field the GraphError names.  The
# first six ended in a traceback from a certificate (AttributeError,
# TypeError or KeyError); another fullerene as the image fails on M0, whose
# edges are not its edges, and an M0 missing one edge is not perfect.  The
# provenance cases from "fresh key missing" on pass the type and range
# checks; only the ring check refuses the swapped hexagon, which keeps
# every face size.
FORGED = {
    "m0 None": ("m0", lambda lf, graphs: {"m0": None}),
    "image None": ("image", lambda lf, graphs: {"image": None}),
    "fresh None": ("fresh", lambda lf, graphs: {"fresh": None}),
    "m0 edges None": ("m0", lambda lf, graphs: {"m0": Matching(None, lf.image)}),
    "m0 pair of one": ("m0", lambda lf, graphs: {"m0": Matching(lf.m0.edges | {(1,)}, lf.image)}),
    "another image": ("m0", lambda lf, graphs: {"image": graphs["C70"]}),
    "m0 missing an edge": (
        "m0",
        lambda lf, graphs: {"m0": Matching(lf.m0.edges - {min(lf.m0.edges)}, lf.image)},
    ),
    "m0 pair reversed": (
        "m0",
        lambda lf, graphs: {"m0": Matching(frozenset((v, u) for u, v in lf.m0.edges), lf.image)},
    ),
    "original None": ("original", lambda lf, graphs: {"original": None}),
    "arc_of list": ("arc_of", lambda lf, graphs: {"arc_of": list(lf.arc_of)}),
    "heritable str keys": ("heritable", lambda lf, graphs: {"heritable": {str(k): 0 for k in lf.heritable}}),
    "fresh bool values": ("fresh", lambda lf, graphs: {"fresh": dict.fromkeys(lf.fresh, True)}),
    "fresh face out of range": ("fresh", lambda lf, graphs: {"fresh": {**lf.fresh, len(lf.image.faces): 0}}),
    "fresh key missing": (
        "fresh",
        lambda lf, graphs: {"fresh": {k: v for k, v in lf.fresh.items() if k != min(lf.fresh)}},
    ),
    "heritable value out of range": (
        "heritable",
        lambda lf, graphs: {"heritable": {**lf.heritable, min(lf.heritable): len(lf.original.faces)}},
    ),
    "heritable hexagon swapped with a fresh one": (
        "heritable",
        lambda lf, graphs: _swapped(lf, next(filter(lf.image.is_hexagon, lf.heritable)), min(lf.fresh)),
    ),
    "heritable key on a fresh face": (
        "heritable",
        lambda lf, graphs: _swapped(lf, min(lf.heritable), min(lf.fresh)) | {"fresh": lf.fresh},
    ),
    "fresh pentagon": ("fresh", lambda lf, graphs: _swapped(lf, lf.image.pentagon_ids[0], min(lf.fresh))),
    "another original": ("heritable", lambda lf, graphs: {"original": graphs["F28"]}),
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


@pytest.mark.parametrize("name", catalog_names())
def test_a_result_rebuilt_from_the_cli_files_builds_and_certifies_the_same(graphs, tmp_path, name):
    # The image, M0 and provenance that ``resonantk leapfrog`` writes pass
    # the same checks as leapfrog()'s result, and give the same certificates;
    # with one provenance entry edited, the rebuilt result is refused.
    original = graphs[name]
    src, paths = tmp_path / "in.rot", [tmp_path / "image.rot", tmp_path / "m0.txt", tmp_path / "prov.json"]
    src.write_text(emit_graph(original.graph))
    argv = ["leapfrog", str(src), "-o", str(paths[0])]
    argv += ["--emit-matching", str(paths[1]), "--provenance", str(paths[2])]
    assert run(argv) == 0
    image = validate_fullerene(parse_graph(paths[0].read_text()))
    m0 = Matching(frozenset(tuple(map(int, line.split("-"))) for line in paths[1].read_text().split()), image)
    prov = json.loads(paths[2].read_text())
    heritable, fresh = ({int(k): v for k, v in prov[key].items()} for key in ("heritable", "fresh"))
    arcs = tuple(original.graph.arcs())
    rebuilt = LeapfrogResult(original, image, arcs, m0, heritable, fresh)
    lf = leapfrog(original)
    for a, b in _disjoint_pairs(image):
        assert two_resonance_certificate(rebuilt, a, b).edges == two_resonance_certificate(lf, a, b).edges
    h = min(heritable)
    edited = {**heritable, h: (heritable[h] + 1) % len(original.faces)}
    with pytest.raises(GraphError, match="^LeapfrogResult heritable"):
        LeapfrogResult(original, image, arcs, m0, edited, fresh)


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
