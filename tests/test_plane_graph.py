"""Rotation-system parsing, face tracing, and canonical codes."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import random
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonantk
from resonantk.catalog import catalog_names
from resonantk.errors import GraphError, GuardExceeded, NotFullereneError
from resonantk import kernels, plane_graph
from resonantk.plane_graph import (
    Automorphism,
    EmbeddedGraph,
    FullereneGraph,
    Subgraph,
    automorphisms,
    canonical_code,
    delete_vertices,
    emit_graph,
    faces,
    is_bipartite,
    parse_graph,
    validate_fullerene,
    verify_cyclic_edge_connectivity,
)

K4 = """4
0: 1 2 3
1: 0 3 2
2: 0 1 3
3: 0 2 1
"""

# Same adjacency, clockwise orders chosen so the arc partition closes on a
# torus instead of a sphere.
K4_TORUS = """4
0: 1 2 3
1: 0 2 3
2: 0 3 1
3: 0 1 2
"""


def test_parse_k4_faces():
    g = parse_graph(K4)
    assert g.n == 4
    fs = faces(g)
    assert len(fs) == 4
    assert sorted(f.boundary for f in fs) == [
        (0, 1, 3),
        (0, 2, 1),
        (0, 3, 2),
        (1, 2, 3),
    ]
    assert all(f.size == 3 for f in fs)


def test_parse_round_trip():
    g = parse_graph(K4)
    again = parse_graph(emit_graph(g, ["a comment line"]))
    assert again.rotation == g.rotation
    # each line of a comment is its own comment line; an empty one stays one line
    for comment in ["a\nb", "a\rb", "a\r\nb", "", "a\n\nb\n"]:
        text = emit_graph(g, [comment, "last"])
        assert parse_graph(text) == g
        head = text.splitlines()[: -g.n - 1]
        assert all(line.startswith("#") for line in head)
        assert head[-1] == "# last"
        assert len(head) == 1 + max(1, len(comment.splitlines()))


def test_non_sphere_rotation_rejected():
    with pytest.raises(GraphError, match=r"V-E\+F = 4-6\+2 = 0"):
        parse_graph(K4_TORUS)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        ("x", "vertex count"),
        ("3\n0: 1 2\n1: 0 2\n2: 0 1", "too small"),
        ("4\n0: 1 2 3", "expected 4 vertex lines"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 2", "repeats a neighbour"),
        ("4\n0: 0 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", "lists itself"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 1 0 3\n3: 9 2 1", "outside"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 1 2 0\n# t", None),
        ("4\n0 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", "vertex line '0 1 2 3' lacks the 'i:' prefix"),
        ("4\n0: 1 x 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", "unparseable vertex line '0: 1 x 3'"),
        # only ASCII decimal digits are numbers, though int() takes all of these
        ("4\n0: 1 2 0_3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", "unparseable vertex line '0: 1 2 0_3'"),
        ("4\n0: +1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", r"unparseable vertex line '0: \+1 2 3'"),
        ("4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 \u0661", "unparseable vertex line '3: 0 2 \u0661'"),
        ("2_0", "first data line must be the vertex count, got '2_0'"),
        ("4\n1: 0 3 2\n0: 1 2 3\n2: 0 1 3\n3: 0 2 1", "vertex lines out of order: expected 0, got 1"),
        ("4\n0: 1 2\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1", "vertex 0 lists 2 neighbours; the graph must be cubic"),
        (b"4\n", "must be a str, got bytes"),
        (None, "must be a str, got NoneType"),
        (5, "must be a str, got int"),
    ],
)
def test_parse_rejections(text, message):
    with pytest.raises(GraphError, match=message):
        parse_graph(text)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.binary(),
        # mostly digits and separators, so more draws reach the vertex lines
        st.text(alphabet="0123456789 :#-\n", max_size=80),
    )
)
def test_parse_raises_only_graph_error(text):
    try:
        parse_graph(text)
    except GraphError:
        pass


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(catalog_names()), st.integers(0, 2**32))
def test_emit_parse_round_trip_relabelled(graphs, relabel, name, seed):
    g = relabel(graphs[name], seed).graph
    assert parse_graph(emit_graph(g, ["a comment line"])).rotation == g.rotation


def test_asymmetric_adjacency_rejected():
    # 4 and 5 claim neighbours that do not claim them back
    bad = "6\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n4: 0 1 2\n5: 0 1 2\n"
    with pytest.raises(GraphError, match="asymmetric"):
        parse_graph(bad)


def test_canonical_code_k4_frozen():
    g = parse_graph(K4)
    assert canonical_code(g).hex() == "04010203000302000103000201"


def _relabel(g: EmbeddedGraph, perm: list[int]) -> EmbeddedGraph:
    rot: list[tuple[int, int, int]] = [(-1, -1, -1)] * g.n
    for v in range(g.n):
        a, b, c = g.rotation[v]
        rot[perm[v]] = (perm[a], perm[b], perm[c])
    return parse_graph(
        f"{g.n}\n" + "\n".join(f"{i}: {a} {b} {c}" for i, (a, b, c) in enumerate(rot))
    )


def _reflect(g: EmbeddedGraph) -> EmbeddedGraph:
    rot = [(c, b, a) for a, b, c in g.rotation]
    return parse_graph(
        f"{g.n}\n" + "\n".join(f"{i}: {a} {b} {c}" for i, (a, b, c) in enumerate(rot))
    )


def _shuffled(g: EmbeddedGraph, seed: int) -> EmbeddedGraph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return _relabel(g, perm)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["F20", "F24", "C60", "R6_3"]),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_canonical_code_relabelling_invariant(name, rng, mirror):
    from resonantk.catalog import catalog_graph, nanotube

    f = nanotube("R6", 3) if name == "R6_3" else catalog_graph(name).graph
    perm = list(range(f.n))
    rng.shuffle(perm)
    g = _relabel(f.graph, perm)
    if mirror:
        g = _reflect(g)
    assert canonical_code(g) == canonical_code(f)


def test_canonical_code_reflection_invariant(graphs):
    for name in ("F20", "F36_1", "C60"):
        g = graphs[name].graph
        assert canonical_code(_reflect(g)) == canonical_code(g)


def test_canonical_code_separates_isomers(graphs):
    assert canonical_code(graphs["F36_1"]) != canonical_code(graphs["F36_2"])
    assert len({canonical_code(graphs[n]) for n in graphs}) == len(graphs)


@pytest.fixture(scope="module")
def coded(graphs):
    """Catalog graphs, their leapfrog images, R5/R6 tubes k = 1..8 and
    plane cubic non-fullerenes wound from spirals (prisms, K4, the cube and
    three spirals mixing faces of 3 to 7 sides)."""
    from resonantk._spiral import wind
    from resonantk.catalog import nanotube
    from resonantk.leapfrog import leapfrog

    out = {name: f.graph for name, f in graphs.items()}
    out.update({f"L({name})": leapfrog(f).image.graph for name, f in graphs.items()})
    out.update({f"{cap}_{k}": nanotube(cap, k).graph for cap in ("R5", "R6") for k in range(1, 9)})
    spirals = {f"prism{k}": [k] + [4] * k + [k] for k in range(3, 9)}
    spirals["K4"] = [3] * 4
    spirals["cube"] = [4] * 6
    spirals["mixed7"] = [3, 7, 4, 4, 6, 3, 3]
    spirals["mixed9"] = [7, 5, 3, 6, 3, 5, 4, 4, 5]
    spirals["mixed10"] = [5, 3, 6, 6, 6, 5, 5, 4, 5, 3]
    for name, seq in spirals.items():
        g = wind(seq)
        assert g is not None, name
        out[name] = g
    return out


def test_canonical_code_matches_full_build(coded):
    # The full build is label-invariant by construction, so one oracle code
    # per graph checks the pruned code under relabelling and reflection too.
    from oracles import canonical_code_by_full_build

    for seed, (name, g) in enumerate(coded.items()):
        expected = canonical_code_by_full_build(list(g.rotation))
        assert canonical_code(g) == expected, name
        assert canonical_code(_shuffled(g, seed)) == expected, name
        assert canonical_code(_reflect(g)) == expected, name


def _matches_every_start(graphs: dict[str, EmbeddedGraph]) -> set[int]:
    """Check the pass against the every-start oracle on each graph as given,
    relabelled with each rotation turned, and reflected; return the group orders.

    The oracle's tied starts are one per automorphism.  So a group of as many
    distinct automorphisms, identity first, is the whole group.
    """
    from conftest import relabelled_rotation
    from oracles import canonical_pass_by_every_start

    orders = set()
    for seed, (name, g) in enumerate(graphs.items()):
        reflected = EmbeddedGraph(tuple(ring[::-1] for ring in g.rotation))
        for variant in (g, relabelled_rotation(g, seed), reflected):
            code, ties = canonical_pass_by_every_start(variant)
            got, group = plane_graph._canonical_pass(variant)
            assert got == code, name
            assert len(group) == len(ties), name
            assert group[0] == Automorphism(tuple(range(variant.n)), False), name
            assert len({a.perm for a in group}) == len(group), name
            for a in group:
                _check_automorphism(variant, a)
            orders.add(len(group))
    return orders


def test_canonical_pass_matches_every_start(coded):
    # The pass labels only starts that no automorphism found so far maps
    # from an earlier start, and returns the group it closes; the former
    # pass labels all 6n starts.  Trivial groups (mixed10), order 2 (mixed7,
    # mixed9) up to Ih (F20, C60).
    assert {1, 2, 120} <= _matches_every_start(coded)


def test_canonical_pass_matches_every_start_on_isomers(isomers):
    # Every isomer with 20..30 vertices: C20 Ih, C24 D6d, C26 D3h, C28 Td
    # and D2, C30 D5h and two C2v (Fowler & Manolopoulos, An Atlas of
    # Fullerenes), so orders the catalog corpus lacks.
    from resonantk._spiral import wind

    wound = {}
    for n, found in isomers.items():
        for i, (code, seq) in enumerate(found):
            g = wound[f"C{n}:{i}"] = wind(seq)
            assert canonical_code(g) == code
    assert _matches_every_start(wound) == {4, 12, 20, 24, 120}


def _check_automorphism(g: EmbeddedGraph, a: Automorphism) -> None:
    """The map sends each rotation onto the image vertex's, reversed for a reflection."""
    assert sorted(a.perm) == list(range(g.n))
    for v, ring in enumerate(g.rotation):
        image = [a.perm[w] for w in (reversed(ring) if a.reverses else ring)]
        target = g.rotation[a.perm[v]]
        k = target.index(image[0])
        assert target[k:] + target[:k] == tuple(image), (a, v)


# Point-group orders (Fowler & Manolopoulos, An Atlas of Fullerenes): F20 and
# C60 are Ih, F24 D6d and C70 D5h; the R5 tubes (D5h or D5d) have 20
# automorphisms, the R6 tubes (D6h or D6d) 24.
SYMMETRY = {"F20": 120, "F24": 24, "C60": 120, "C70": 20}
SYMMETRY.update({f"R5_{k}": 20 for k in range(1, 6)})
SYMMETRY.update({f"R6_{k}": 24 for k in range(1, 5)})


@pytest.mark.parametrize("name", list(SYMMETRY))
def test_automorphisms_are_the_point_group(name, relabel):
    from resonantk.catalog import catalog_graph, nanotube

    f = nanotube(name[:2], int(name[3:])) if name[:3] in ("R5_", "R6_") else catalog_graph(name).graph
    group = automorphisms(f)
    assert len(group) == SYMMETRY[name]
    assert group[0] == Automorphism(tuple(range(f.n)), False)
    perms = {a.perm for a in group}
    assert len(perms) == len(group)
    for a in group:
        _check_automorphism(f.graph, a)
    # closed under composition, with as many reflections as rotations
    for p in perms:
        for q in perms:
            assert tuple(map(p.__getitem__, q)) in perms
    assert 2 * sum(a.reverses for a in group) == len(group)
    seed = list(SYMMETRY).index(name)
    assert len(automorphisms(relabel(f, seed))) == len(group)
    assert len(automorphisms(_reflect(f.graph))) == len(group)


def test_automorphisms_share_the_canonical_pass(graphs, monkeypatch):
    # the pass is kept on the EmbeddedGraph, so it runs once per rotation:
    # the FullereneGraph that wraps a graph shares the bare graph's pass
    from oracles import canonical_code_by_full_build

    passes = []
    canonical_pass = plane_graph._canonical_pass
    monkeypatch.setattr(plane_graph, "_canonical_pass", lambda g: passes.append(1) or canonical_pass(g))
    for name in ("F28", "C70"):
        # parsed afresh: the fixture's graph may already hold its pass
        f = validate_fullerene(parse_graph(emit_graph(graphs[name])))
        group = automorphisms(f)
        code = canonical_code(f)
        assert f.graph._canonical[0] == code
        assert len(f.graph._canonical[1]) == len(group)
        assert len(passes) == 1
        assert code == canonical_code(f.graph) == canonical_code_by_full_build(list(f.graph.rotation))
        g = parse_graph(emit_graph(graphs[name]))
        bare = canonical_code(g), automorphisms(g), canonical_code(g), canonical_code(validate_fullerene(g))
        assert bare == (code, group, code, code) and len(passes) == 2
        assert automorphisms(validate_fullerene(g)) is bare[1]
        passes.clear()


def test_each_rotation_builds_its_turn_table_once(graphs, monkeypatch):
    # The trace, the canonical pass's first orientation, the G* scan and the
    # leapfrog image read the table kept on the EmbeddedGraph; only the pass's
    # reversed orientation and the image's own rotation build another.
    from resonantk.cli import analyze_graph
    from resonantk.leapfrog import leapfrog
    from resonantk.resonance import find_g_star

    built = []
    turns = plane_graph._turns
    monkeypatch.setattr(plane_graph, "_turns", lambda rotation: built.append(len(rotation)) or turns(rotation))
    f = validate_fullerene(parse_graph(emit_graph(graphs["C70"])))
    analyze_graph(f)
    assert built == [70, 70]
    assert find_g_star(f) is not None
    leapfrog(f)
    assert built == [70, 70, 210]


def test_a_table_is_built_without_waiting_on_another_object():
    # one object's build of a table holds up no other object's build of the
    # same table (functools.cached_property's lock on 3.10 and 3.11 would),
    # and threads that race to build one object's table all get the one kept
    entered, release = threading.Event(), threading.Event()
    racing = threading.Barrier(2, timeout=10)

    class Owner:
        def __init__(self, mode):
            self.mode = mode

        @plane_graph._derived
        def table(self):
            if self.mode == "slow":
                entered.set()
                release.wait(30)
            elif self.mode == "race":
                racing.wait()  # both threads are inside the build
            return [self.mode]

    got = {}

    def read(key, obj):
        got.setdefault(key, []).append(obj.table)

    slow, quick, raced = Owner("slow"), Owner("quick"), Owner("race")
    waiting = threading.Thread(target=read, args=("slow", slow))
    waiting.start()
    try:
        assert entered.wait(30)
        pairs = (("quick", quick), ("race", raced), ("race", raced))
        threads = [threading.Thread(target=read, args=pair) for pair in pairs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert got["quick"] == [["quick"]]
        first, second = got["race"]
        assert first is second is raced.table
    finally:
        release.set()
        waiting.join(30)
    assert got["slow"] == [slow.table]


# SHA-256 of the canonical code of each catalog graph and of its leapfrog
# image, recorded before the code was pruned; `analyze` prints the first as
# the graph's identity.
IDENTITIES = {
    "F20": ("fff0a937c7a2ee3e1ed157d626b7be55607316117457f24678ee56bea4099a99",
            "a4198041f7d47898ec125e05262998b5d8d918e19bfa5e5d826158dc6a723e38"),
    "F24": ("556c45e9e38037d7fbe3acbc2213533a41b242299ccd7ed80976df76aca03017",
            "719e8a8c15c02c9abf2a1704194356442d9c57d7244bfce313f79ac5a9de785a"),
    "F28": ("85881b11e5e4cab510b960ace92eccf02dc0c667a67493c6a346dde5fceda1ff",
            "22dd2c0659e5ec0830c6d0f5fece00e520290ea2951a6c6f4ebe6c396e4727f0"),
    "F30": ("807760b0d11b6e355748aabee65009c2b1c4c206adb7c55327e635379f2f1cab",
            "f9027b98e0964f800c999705a541461f79e34c15ccb3cf86fb050d0232ab31e2"),
    "F32": ("ae953fbb80c8515de6a60e7f517444d99c242719fe6a149808ee23cf93f6b07c",
            "0ecd95fd520213542240fdb483a1d9a4cffda44b5adbaad6c0d65532b1871754"),
    "F36_1": ("ae0455760a63eabf1b1244d4d53afef4ef6a50ce478a20950669ae6f582b215b",
              "1eed5e3d993ef08b2d1a686f55c2ecde2e0d75bc5bb7b07d1c23b660cce2c752"),
    "F36_2": ("7414825d902605c153485f17c079a05d23830c00f2d12d00f4316c45000b4bc9",
              "77e25ca43b442649a955c8804fd3db30f85e39ad6a3e9f6ed40f087373260e0d"),
    "F40": ("67e04d86eae9d7b4930147f2d3af77d0578a87921ba37ed1bc0bbc24c585199e",
            "eacff95b65096b114f11dcedce09c485f51fa7174053547fb1b742e8fe0e4cb2"),
    "F48": ("a99c394c5ba0a566f4cd25716938162c6ca9b2350f71b2f946a303954bc6258c",
            "8f5bd7aa093655fc01f6bc329754830b809c30312330f4847c5e3327d27c72df"),
    "C60": ("a4198041f7d47898ec125e05262998b5d8d918e19bfa5e5d826158dc6a723e38",
            "e7f88839281e916c3e8101224600c00d6b115d434542d7b8767283eca04d74be"),
    "C70": ("6509768c434dedc042d935811e3404408aa30634e2cb31d6ff54c9ede25b6095",
            "79b07f103df0d9dca696b10e8e404e1445ce44fccfdc6daf53caedf45e72ea41"),
}


def test_canonical_code_identities_frozen(graphs, coded):
    assert set(IDENTITIES) == set(graphs)
    for name, (own, image) in IDENTITIES.items():
        assert hashlib.sha256(canonical_code(coded[name])).hexdigest() == own, name
        assert hashlib.sha256(canonical_code(coded[f"L({name})"])).hexdigest() == image, name


@pytest.fixture(scope="module")
def wide(graphs):
    """Graphs past the one-byte code: R6_25 and the second leapfrog images of
    the two 36-vertex catalog isomers, 324 vertices each."""
    from resonantk.catalog import nanotube
    from resonantk.leapfrog import leapfrog

    out = {"R6_25": nanotube("R6", 25).graph}
    for name in ("F36_1", "F36_2"):
        out[f"L2({name})"] = leapfrog(leapfrog(graphs[name]).image).image.graph
    assert {g.n for g in out.values()} == {324}
    return out


def test_canonical_code_past_255_vertices(wide):
    for seed, (name, g) in enumerate(wide.items()):
        code = canonical_code(g)
        # marker, then n and 3n labels as two big-endian bytes each
        assert code[:3] == b"\x00\x01\x44" and len(code) == 1 + 2 * (1 + 3 * 324), name
        labels = [int.from_bytes(code[i : i + 2], "big") for i in range(3, len(code), 2)]
        assert labels[:3] == [1, 2, 3] and max(labels) == 323, name
        assert canonical_code(_shuffled(g, seed)) == code, name
        assert canonical_code(_reflect(g)) == code, name
    # leapfrogging keeps the symmetry: R6_25 is D6h, F36_1 D2d and F36_2 D2
    for name, order in (("R6_25", 24), ("L2(F36_1)", 8), ("L2(F36_2)", 4)):
        group = automorphisms(wide[name])
        assert len(group) == order, name
        for a in group:
            _check_automorphism(wide[name], a)
    assert canonical_code(wide["L2(F36_1)"]) != canonical_code(wide["L2(F36_2)"])
    assert canonical_code(wide["R6_25"]) != canonical_code(wide["L2(F36_1)"])
    from resonantk._spiral import wind

    assert canonical_code(_prism(7)) == canonical_code(wind([7] + [4] * 7 + [7]))
    with pytest.raises(GuardExceeded, match="65535"):
        canonical_code(_prism(32768))


def _prism(k: int) -> EmbeddedGraph:
    """The k-gonal prism, 2k vertices: outer cycle 0..k-1, inner cycle k..2k-1."""
    outer = tuple(((i + 1) % k, (i - 1) % k, k + i) for i in range(k))
    inner = tuple((k + (i - 1) % k, k + (i + 1) % k, i) for i in range(k))
    return EmbeddedGraph(outer + inner)


def test_validate_fullerene_rejects_k4():
    with pytest.raises(NotFullereneError):
        validate_fullerene(parse_graph(K4))


def test_validate_fullerene_f20(graphs):
    f = graphs["F20"]
    assert f.n == 20
    assert len(f.pentagon_ids) == 12
    assert f.hexagon_ids == ()
    assert len(f.faces) == 12


def _f20_plus_k33(graphs):
    """F20 beside a K3,3 on vertices 20..25 embedded on the torus.

    Its faces are 12 pentagons and 3 hexagons, so every face count of a
    26-vertex fullerene holds, and only connectivity tells it apart.
    """
    k33 = ((23, 24, 25),) * 3 + ((20, 21, 22),) * 3
    return EmbeddedGraph(graphs["F20"].graph.rotation + k33)


DISCONNECTED = r"graph is disconnected \(20 of 26 vertices reachable\)"


def test_validate_fullerene_rejects_a_disconnected_graph(graphs):
    from oracles import faces_by_sorted_trace

    g = _f20_plus_k33(graphs)
    assert sorted(face.size for face in faces_by_sorted_trace(g)) == [5] * 12 + [6] * 3
    for check in (faces, validate_fullerene):
        with pytest.raises(GraphError, match=DISCONNECTED):
            check(g)


def test_parse_rejects_a_disconnected_graph(graphs):
    with pytest.raises(GraphError, match=DISCONNECTED):
        parse_graph(emit_graph(_f20_plus_k33(graphs)))


@pytest.mark.parametrize(
    "row, message",
    [
        ((1, 2, 3), "asymmetric adjacency: 0 lists 2 but 2 does not list 0"),
        ((0, 7, 4), r"vertex 0 lists itself \(loops are not allowed\)"),
        ((1, 7, 99), "adjacency row 0 lists vertex 99 outside 0..19"),
        ((1, 7), "vertex 0 lists 2 neighbours; the graph must be cubic"),
        ((1, 1, 4), r"vertex 0 repeats a neighbour \(multi-edges are not allowed\)"),
    ],
    ids=["asymmetric", "loop", "out-of-range", "short", "repeated"],
)
def test_a_directly_built_rotation_is_checked_as_parsed(graphs, row, message):
    # F20 with vertex 0's rotation (1, 7, 4) replaced, as built and as parsed
    rotation = graphs["F20"].graph.rotation
    assert rotation[0] == (1, 7, 4)
    text = emit_graph(graphs["F20"]).replace("\n0: 1 7 4\n", f"\n0: {' '.join(map(str, row))}\n")
    for build in (lambda: EmbeddedGraph((row,) + rotation[1:]), lambda: parse_graph(text)):
        with pytest.raises(GraphError, match=f"^{message}$"):
            build()


@st.composite
def _rotations(draw):
    """A rotation and whether it is of a simple cubic graph.

    Random rows of 2-4 ints, or K4, a prism (the cube is the 4-prism) or
    K3,3 (simple cubic, not planar) relabelled, mirrored and turned at each
    vertex, or with each row in any order, which leaves most of them off
    the sphere.
    """
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        row = st.lists(st.integers(-1, n), min_size=2, max_size=4).map(tuple)
        return tuple(draw(st.lists(row, min_size=n, max_size=n))), False
    k33 = ((3, 4, 5),) * 3 + ((0, 1, 2),) * 3
    prisms = [_prism(k).rotation for k in range(3, 7)]
    rotation = draw(st.sampled_from([parse_graph(K4).rotation, k33, *prisms]))
    perm = draw(st.permutations(range(len(rotation))))
    mirror, scramble = draw(st.booleans()), draw(st.booleans())
    rows = [()] * len(rotation)
    for v, ring in enumerate(rotation):
        nbrs = [perm[w] for w in (reversed(ring) if mirror else ring)]
        k = draw(st.integers(0, 2))
        rows[perm[v]] = tuple(draw(st.permutations(nbrs)) if scramble else nbrs[k:] + nbrs[:k])
    return tuple(rows), True


@settings(max_examples=200, deadline=None)
@given(_rotations())
def test_a_rotation_never_ends_in_a_traceback(drawn):
    # Refused when built, or every function of a plane cubic graph answers
    # or raises GraphError or GuardExceeded.
    rotation, simple = drawn
    try:
        g = EmbeddedGraph(rotation)
    except GraphError:
        assert not simple
        return
    for name in sorted(EITHER_GRAPH_TYPE):
        call = getattr(resonantk, name)
        try:
            call(g, [0]) if name == "delete_vertices" else call(g)
        except (GraphError, GuardExceeded):
            pass


def _k33_plus_two_prisms():
    """K3,3 on the torus beside two pentagonal prisms: 26 vertices, like F20 + K3,3."""
    from resonantk._spiral import wind

    prism = wind([5] + [4] * 5 + [5]).rotation
    k33 = ((3, 4, 5),) * 3 + ((0, 1, 2),) * 3
    return EmbeddedGraph(
        k33 + tuple(tuple(w + shift for w in ring) for shift in (6, 16) for ring in prism)
    )


def test_canonical_code_rejects_a_disconnected_graph(graphs):
    # The two are not isomorphic but share their smallest component, K3,3,
    # so no code of one component can tell them apart.
    for g in (_f20_plus_k33(graphs), _k33_plus_two_prisms()):
        assert g.n == 26
        for check in (canonical_code, automorphisms):
            with pytest.raises(GraphError, match=r"graph is disconnected \((20|6) of 26"):
                check(g)


def test_a_loaded_graph_is_checked_and_traced_once(graphs, monkeypatch):
    # validate_fullerene(parse_graph(text)) and catalog_graph check the
    # rotation, flood-fill the graph, trace its faces and sort them into
    # pentagons and hexagons once each.
    from resonantk.catalog import catalog_graph

    calls = []
    for module, name in ((plane_graph, "_check_rotation"), (kernels, "_sweep"), (plane_graph, "_trace")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    face_ids = FullereneGraph.pentagon_ids.func
    counted = plane_graph._derived(lambda f: calls.append("pentagon_ids") or face_ids(f))
    counted.__set_name__(FullereneGraph, "pentagon_ids")
    monkeypatch.setattr(FullereneGraph, "pentagon_ids", counted)
    once = ["_check_rotation", "_sweep", "_trace", "pentagon_ids"]
    for name in ("F20", "C70"):
        text = emit_graph(graphs[name].graph)
        for load in (lambda: validate_fullerene(parse_graph(text)), lambda: catalog_graph(name).graph):
            f = load()
            assert sorted(calls) == once, name
            assert f.faces is f.graph._faces
            assert canonical_code(f.graph) == canonical_code(graphs[name])
            verify_cyclic_edge_connectivity(f.graph)
            assert sorted(calls) == once, name
            calls.clear()


def test_faces_match_the_sorted_trace(graphs):
    # The one-pass trace against the former one, which rotated each cycle to
    # its least arc and sorted the cycles: catalog graphs, R5/R6 tubes
    # k = 1..6, prisms, K4, the cube, the disconnected F20 + K3,3, and two
    # graphs whose faces meet a vertex twice; as given, relabelled and
    # reflected.  The bridged K4s' 10-face crosses the bridge both ways, so
    # a trace that stopped at its start vertex, not its start arc, would
    # cut that face short.
    from conftest import relabelled_rotation
    from oracles import faces_by_sorted_trace
    from resonantk._spiral import wind
    from resonantk.catalog import nanotube

    traced = {name: f.graph for name, f in graphs.items()}
    traced.update({f"{cap}_{k}": nanotube(cap, k).graph for cap in ("R5", "R6") for k in range(1, 7)})
    traced.update({f"prism{k}": wind([k] + [4] * k + [k]) for k in range(3, 9)})
    traced.update(K4=wind([3] * 4), cube=wind([4] * 6), F20_K33=_f20_plus_k33(graphs))
    traced.update(bridged_K4s=parse_graph(BRIDGED_K4S), joined_cubes=parse_graph(JOINED_CUBES))
    for seed, (name, g) in enumerate(traced.items()):
        reflected = EmbeddedGraph(tuple(ring[::-1] for ring in g.rotation))
        for variant in (g, relabelled_rotation(g, seed), reflected):
            # the private tracer, which traces the disconnected one too
            got, want = plane_graph._trace(variant), faces_by_sorted_trace(variant)
            assert [(f.index, f.boundary, f.vertices, f.boundary_edges()) for f in got] == [
                (f.index, f.boundary, f.vertices, f.boundary_edges()) for f in want
            ], name
            assert [got.across(i) for i in range(len(got))] == [
                want.across(i) for i in range(len(want))
            ], name
            assert got._arc_face == want._arc_face, name


@pytest.mark.parametrize("image", [False, True], ids=["given", "leapfrog"])
@pytest.mark.parametrize("name", catalog_names())
def test_faces_do_not_depend_on_where_each_row_starts(graphs, name, image):
    # A clockwise order may start at any neighbour: with every row shifted
    # by one place, by two, or by one and two in turn, the faces keep their
    # boundaries, ids and the faces across them.  So a rotation read from a
    # file that starts its rows elsewhere is traced into the same face ids.
    from resonantk.leapfrog import leapfrog

    g = leapfrog(graphs[name]).image.graph if image else graphs[name].graph
    rows, want = g.rotation, faces(g)
    for shifts in ((1,), (2,), (1, 2)):
        shifted = EmbeddedGraph(tuple(row[s:] + row[:s] for row, s in zip(rows, shifts * len(rows))))
        assert shifted.rotation != rows
        got = faces(shifted)
        assert [f.boundary for f in got] == [f.boundary for f in want], shifts
        assert [f.index for f in got] == list(range(len(want))), shifts
        assert [got.across(i) for i in range(len(got))] == [want.across(i) for i in range(len(want))], shifts


@pytest.mark.parametrize(
    "name, shape, found",
    [
        # faces, canonical_code, emit_graph and is_bipartite ended in a TypeError
        ("F20", lambda rows: None, "NoneType"),
        # validate_fullerene ended in a TypeError inside the face trace
        ("F24", lambda rows: tuple(tuple(map(float, row)) for row in rows), "float"),
        ("F24", lambda rows: ((True, 2, 3),) + rows[1:], "bool"),
        # rows kept as lists could be edited under the faces traced from
        # them: F20 with two entries of row 0 swapped, off the sphere, went
        # on returning the sphere's faces
        ("F20", lambda rows: tuple(map(list, rows)), "list"),
        ("F20", list, "list"),
    ],
    ids=["none", "floats", "bools", "list rows", "list of rows"],
)
def test_a_rotation_is_a_tuple_of_tuples_of_ints_when_built(graphs, name, shape, found):
    with pytest.raises(GraphError, match=f"rotation must be a tuple of tuples of ints, found {found}$"):
        EmbeddedGraph(shape(graphs[name].graph.rotation))


def test_an_empty_rotation_is_too_small():
    for check in (validate_fullerene, canonical_code):
        with pytest.raises(GraphError, match="vertex count 0 too small"):
            check(EmbeddedGraph(()))


def test_delete_vertices_and_bipartite(graphs):
    f = graphs["F24"]
    # dropping one hexagon's vertices leaves an odd-cycle (pentagons survive)
    h = f.hexagon_ids[0]
    sub = delete_vertices(f, f.faces[h].vertices)
    assert sub.n == f.n - 6
    ok, odd = is_bipartite(sub)
    assert not ok
    assert odd is not None and len(odd) % 2 == 1
    whole, cyc = is_bipartite(f.graph)
    assert not whole and cyc is not None  # odd faces force odd cycles


@pytest.mark.parametrize(
    "vertices, adj, message",
    [
        # is_bipartite, maximum_matching and enumerate_perfect_matchings
        # ended in a TypeError on the first and an IndexError on the eighth
        (None, None, "a Subgraph's vertices must be a tuple of ints, found NoneType"),
        ((0, True), ((1,), (0,)), "a Subgraph's vertices must be a tuple of ints, found bool"),
        ([0, 1], ((1,), (0,)), "a Subgraph's vertices must be a tuple of ints, found list"),
        ((0, 1), None, "a Subgraph's adj must be a tuple of tuples of ints, found NoneType"),
        ((0, 1), ([1], (0,)), "a Subgraph's adj must be a tuple of tuples of ints, found list"),
        ((0, 1), ((1.0,), (0,)), "a Subgraph's adj must be a tuple of tuples of ints, found float"),
        ((0, 1), ((1,),), "a Subgraph's adj has 1 rows for 2 vertices"),
        ((0, 1), ((5,), (0,)), "Subgraph adj row 0 lists vertex 5 outside 0..1"),
        ((0, 1), ((-1,), (0,)), "Subgraph adj row 0 lists vertex -1 outside 0..1"),
        ((0, 1), ((1,), ()), "asymmetric Subgraph adj: 0 lists 1 but 1 does not list 0"),
    ],
)
def test_a_subgraph_is_checked_when_built(vertices, adj, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        Subgraph(None, vertices, adj)


def test_a_subgraph_built_by_hand_is_used_as_given(graphs):
    f = graphs["F24"]
    sub = delete_vertices(f, f.faces[f.hexagon_ids[0]].vertices)
    again = Subgraph(None, sub.vertices, sub.adj)
    assert is_bipartite(again) == is_bipartite(sub)
    assert resonantk.maximum_matching(again).edges == resonantk.maximum_matching(sub).edges
    pair = Subgraph(None, (7, 3), ((1, 1), (0, 0)))
    assert [m.edges for m in resonantk.enumerate_perfect_matchings(pair)] == [frozenset({(0, 1)})]


def test_is_bipartite_two_colours_the_cube_and_an_even_prism():
    from resonantk._spiral import wind

    for seq in ([4] * 6, [6] + [4] * 6 + [6]):
        assert is_bipartite(wind(seq)) == (True, None)


def test_is_bipartite_finds_an_odd_cycle_past_the_first_component(graphs):
    # Without its neighbours, vertex 0 of F20 is a component of its own
    # (bipartite) ahead of the rest, which keeps six whole pentagons.
    f = graphs["F20"]
    dropped = set(f.graph.rotation[0])
    sub = delete_vertices(f, dropped)
    assert sub.to_parent(0) == 0 and sub.adj[0] == ()
    ok, cycle = is_bipartite(sub)
    assert not ok and len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
    assert 0 not in cycle and not dropped & set(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in f.graph.rotation[a]


def test_is_bipartite_witnesses_pinned(graphs):
    # the exact witness of every catalog graph, of it without each face, and
    # of it without seeded random vertex sets, hashed in order
    digest = hashlib.sha256()
    rng = random.Random(28)
    for name in catalog_names():
        f = graphs[name]
        digest.update(repr(is_bipartite(f)).encode())
        for face in f.faces:
            digest.update(repr(is_bipartite(delete_vertices(f, face.vertices))).encode())
        for _ in range(20):
            drop = rng.sample(range(f.n), rng.randrange(1, f.n // 2))
            digest.update(repr(is_bipartite(delete_vertices(f, drop))).encode())
    assert digest.hexdigest() == "bd341c7a2a6b9deaf3acf0dd1fdf094856600e946357f3bf3740bf45f7fab46a"


def test_is_bipartite_accepts_a_fullerene(graphs):
    f = graphs["F24"]
    ok, cycle = is_bipartite(f)
    assert not ok and cycle is not None and len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in f.graph.rotation[a]


# Two K4s with one edge subdivided each, the two new vertices joined by a
# bridge (edge 4-9).
BRIDGED_K4S = """10
0: 4 3 2
1: 4 2 3
2: 0 3 1
3: 0 1 2
4: 0 1 9
5: 9 8 7
6: 9 7 8
7: 5 8 6
8: 5 6 7
9: 5 6 4
"""

# Two cubes, each without one edge, joined by edges 0-8 and 1-9 into a
# cyclic 2-edge cut.
JOINED_CUBES = """16
0: 3 4 8
1: 2 9 5
2: 1 6 3
3: 2 7 0
4: 5 0 7
5: 4 6 1
6: 5 7 2
7: 6 4 3
8: 11 12 0
9: 10 1 13
10: 9 14 11
11: 10 15 8
12: 13 8 15
13: 12 14 9
14: 13 15 10
15: 14 12 11
"""


def test_cyclic_edge_connectivity(graphs):
    bridged, cubes = parse_graph(BRIDGED_K4S), parse_graph(JOINED_CUBES)
    assert verify_cyclic_edge_connectivity(bridged, 1)
    assert not verify_cyclic_edge_connectivity(bridged, 2)
    assert verify_cyclic_edge_connectivity(cubes, 2)
    assert not verify_cyclic_edge_connectivity(cubes, 3)
    assert verify_cyclic_edge_connectivity(graphs["F20"], 4)
    assert verify_cyclic_edge_connectivity(graphs["F24"], 4)


def test_cyclic_connectivity_matches_brute_force(coded):
    from resonantk.kernels import has_small_cyclic_cut

    small = {name: g for name, g in coded.items() if g.n <= 40}
    small["bridged K4s"] = parse_graph(BRIDGED_K4S)
    small["joined cubes"] = parse_graph(JOINED_CUBES)
    for seed, (name, g) in enumerate(small.items()):
        shuffled = _shuffled(g, seed)
        for k in (2, 3, 4):
            expected = not has_small_cyclic_cut(g.n, g.edges(), k - 1)
            assert verify_cyclic_edge_connectivity(g, k) == expected, (name, k)
            assert verify_cyclic_edge_connectivity(shuffled, k) == expected, (name, k)


def test_doslic_cyclic_5_edge_connectivity(graphs, coded):
    # Every fullerene is cyclically 5-edge-connected (Doslic 2003); none is
    # cyclically 6-edge-connected, as the five edges leaving a pentagon cut
    # it off.  Catalog graphs go in with their faces, the rest as bare graphs.
    from resonantk.catalog import nanotube

    fullerenes = dict(graphs)
    fullerenes.update((name, g) for name, g in coded.items() if name.startswith(("L(", "R5_", "R6_")))
    fullerenes["R6_200"] = nanotube("R6", 200)
    assert fullerenes["R6_200"].n == 2424
    for name, f in fullerenes.items():
        assert verify_cyclic_edge_connectivity(f, 5), name
        assert not verify_cyclic_edge_connectivity(f, 6), name


def test_cyclic_connectivity_large_k(graphs, coded):
    # the walk stops at the first cut, and no dual cycle is longer than the
    # face count: K4 has no cyclic cut at all, the cube one of 4 edges.  The
    # lengths go up one at a time, so C60 and the tube stop at a pentagon's
    # 5-cut; one depth-first pass over all lengths at once dives into long
    # dual paths first and did not end on C60 within 25 s.
    assert verify_cyclic_edge_connectivity(coded["K4"], 10**6)
    assert not verify_cyclic_edge_connectivity(coded["cube"], 10**6)
    for g in (graphs["F20"], graphs["C60"], coded["R6_4"]):
        assert not verify_cyclic_edge_connectivity(g, 10**6)


def test_cyclic_connectivity_rejects_non_integer_k(graphs):
    f = graphs["F20"]
    for k in ("4", 2.5, True):
        with pytest.raises(GraphError, match="k must be an integer"):
            verify_cyclic_edge_connectivity(f, k)
    assert all(verify_cyclic_edge_connectivity(f, k) for k in (1, 0, -3))


@pytest.fixture(scope="module")
def indexed(graphs, tubes):
    """Every catalog graph and tube, plus the leapfrog images of F20 and F24."""
    from resonantk.leapfrog import leapfrog

    out = dict(graphs)
    out.update({f"{cap}_{k}": tube for (cap, k), tube in tubes.items()})
    out.update({f"L({name})": leapfrog(graphs[name]).image for name in ("F20", "F24")})
    return out


def _set_bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def test_across_reverses_each_boundary_arc(indexed):
    for name, f in indexed.items():
        fs = f.faces
        for face in fs:
            b = face.boundary
            assert fs.across(face.index) == tuple(
                fs.face_of_arc((b[(i + 1) % len(b)], b[i])) for i in range(len(b))
            ), name


def test_faces_meet_exactly_when_across(indexed):
    from oracles import shared_edge

    for name, f in indexed.items():
        fs = f.faces
        for a in fs:
            assert _set_bits(fs.vertex_masks[a.index]) == a.vertices, (name, a.index)
            for b in fs:
                if a.index == b.index:
                    continue
                meet = bool(a.vertices & b.vertices)
                assert (b.index in fs.across(a.index)) == meet, (name, a.index, b.index)
                if meet:
                    assert fs.across(a.index).count(b.index) == 1
                    assert set(shared_edge(a, b)) == a.vertices & b.vertices
                    # the ring scan's first mask: the ends of the one shared edge
                    both = fs.vertex_masks[a.index] & fs.vertex_masks[b.index]
                    assert _set_bits(both) == set(shared_edge(a, b)), (name, a.index, b.index)
                else:
                    assert shared_edge(a, b) is None


# ---------------------------------------------------------------------------
# one rule for graph arguments
# ---------------------------------------------------------------------------

# The public functions whose meaning holds for any plane cubic graph: they
# take an EmbeddedGraph or a FullereneGraph, and every other public function
# that takes a graph takes a FullereneGraph only.
EITHER_GRAPH_TYPE = {
    "emit_graph", "faces", "validate_fullerene", "canonical_code", "automorphisms",
    "delete_vertices", "is_bipartite", "verify_cyclic_edge_connectivity",
    "maximum_matching", "has_perfect_matching", "tutte_witness", "enumerate_perfect_matchings",
}

# Parameter names of a graph, and of a Matching, Ring, LeapfrogResult or CatalogEntry.
GRAPH_PARAMS = {"f", "g", "s"}
CHECKED_PARAMS = GRAPH_PARAMS | {"m", "ring", "lf", "entry"}


@pytest.fixture(scope="module")
def good_arguments(graphs, catalog):
    """Documented arguments for each public function that takes a checked argument, on F24."""
    rk = resonantk
    f = graphs["F24"]
    lf = rk.leapfrog(f)
    verts = lf.image.faces.vertex_masks
    h1, h2 = next(
        (a, b) for a in lf.image.hexagon_ids for b in lf.image.hexagon_ids
        if a < b and not verts[a] & verts[b]
    )
    m = next(m for m in rk.enumerate_perfect_matchings(f) if rk.alternating_faces(f, m))
    face = f.faces[rk.alternating_faces(f, m)[0]]
    h = f.hexagon_ids[0]
    return {
        "alternating_faces": [f, m],
        "automorphisms": [f],
        "canonical_code": [f],
        "clar": [f],
        "delete_vertices": [f, [0]],
        "detect_r5_r6": [f],
        "emit_graph": [f],
        "enumerate_perfect_matchings": [f],
        "faces": [f],
        "find_g_star": [f],
        "find_polygonal_rings": [f, 6],
        "fries": [f],
        "has_perfect_matching": [f],
        "hexagon_dichotomy_report": [f],
        "is_bipartite": [f],
        "is_central": [f, [h]],
        "is_resonant_pattern": [f, [h]],
        "leapfrog": [f],
        "maximal_pentagonal_fragments": [f],
        "maximum_matching": [f],
        "psi": [f, 6],
        "resonance_order": [f],
        "ring_stats": [f, rk.find_polygonal_rings(f, 6)[0]],
        "sextet": [f],
        "symmetric_difference": [m, list(face.boundary)],
        "tau": [f],
        "territory": [lf, next(iter(lf.heritable))],
        "tutte_witness": [f],
        "two_resonance_certificate": [lf, h1, h2],
        "validate_fullerene": [f],
        "verify_cyclic_edge_connectivity": [f],
        "verify_entry": [catalog["F24"]],
    }


def _checked_positions():
    """(function name, position, parameter) of every checked argument of a public function."""
    out = []
    for name in resonantk.__all__:
        fn = getattr(resonantk, name)
        if inspect.isfunction(fn):
            for i, param in enumerate(inspect.signature(fn).parameters):
                if param in CHECKED_PARAMS:
                    out.append((name, i, param))
    return out


_CASES = [
    (name, i, param, kind)
    for name, i, param in _checked_positions()
    for kind in ("None", "5") + (("fullerene", "embedded") if param in GRAPH_PARAMS else ())
]


def test_the_argument_table_covers_every_public_function(good_arguments):
    names = {name for name, _, _ in _checked_positions()}
    assert names == set(good_arguments)
    assert len(names) == 32
    assert EITHER_GRAPH_TYPE <= names


@pytest.mark.parametrize(
    "name, position, param, kind", _CASES, ids=[f"{n}-{p}-{k}" for n, _, p, k in _CASES]
)
def test_a_public_argument_ends_in_a_result_or_a_graph_error(
    good_arguments, name, position, param, kind
):
    # None, 5 and the other graph type ended in an AttributeError or a
    # TypeError in most of these functions.  A generator is advanced once,
    # so that a check it left to its first set would show.
    args = list(good_arguments[name])
    if kind in ("None", "5"):
        args[position] = None if kind == "None" else 5
    elif kind == "embedded":
        args[position] = args[position].graph
    accepted = kind == "fullerene" or (kind == "embedded" and name in EITHER_GRAPH_TYPE)

    def call():
        out = getattr(resonantk, name)(*args)
        if inspect.isgenerator(out):
            next(out, None)

    if accepted:
        call()
    else:
        with pytest.raises(GraphError):
            call()


def test_either_graph_type_gives_the_same_answer(graphs):
    f = graphs["C60"]
    assert validate_fullerene(f) is f
    assert emit_graph(f, ["c"]) == emit_graph(f.graph, ["c"])
    assert faces(f) is faces(f.graph) is f.faces
    assert canonical_code(f) == canonical_code(f.graph)
    assert automorphisms(f) == automorphisms(f.graph)
    assert is_bipartite(f) == is_bipartite(f.graph)
    assert delete_vertices(f, [0]).adj == delete_vertices(f.graph, [0]).adj
    assert verify_cyclic_edge_connectivity(f, 5) == verify_cyclic_edge_connectivity(f.graph, 5)


@pytest.mark.parametrize(
    "value", [None, True, 1.0, -1, "high"], ids=["none", "bool", "float", "negative", "high"]
)
def test_neighbors_and_is_hexagon_take_only_an_id_in_range(graphs, value):
    # None and 1.0 ended in a TypeError, 24 and 14 in an IndexError, and
    # True and -1 read a row or face
    f = graphs["F24"]
    vertex = f.n if value == "high" else value
    message = f"vertex must be an int from 0 to 23, got {re.escape(repr(vertex))}"
    with pytest.raises(GraphError, match=f"^{message}$"):
        f.graph.neighbors(vertex)
    face = len(f.faces) if value == "high" else value
    message = f"face id must be an int from 0 to 13, got {re.escape(repr(face))}"
    with pytest.raises(GraphError, match=f"^{message}$"):
        f.is_hexagon(face)
    assert f.graph.neighbors(23) == f.graph.rotation[23]
    assert [f.is_hexagon(i) for i in range(14)] == [len(x.boundary) == 6 for x in f.faces]


# Bad arguments for one-argument public methods; (0, 99) is no arc of F24.
_BAD = [None, 99, -1, "x", True, 1.5, (0, 99)]
# The protocol methods among them, called as obj[x], x in obj and obj(x).
_PROTOCOL = ("__getitem__", "__contains__", "__call__")


def _one_argument_methods(cls):
    """The names of cls's public methods, its protocol ones included, that take one argument."""
    out = []
    for name, fn in inspect.getmembers(cls, inspect.isfunction):
        if fn.__module__.startswith("resonantk") and (not name.startswith("_") or name in _PROTOCOL):
            if len(inspect.signature(fn).parameters) == 2:
                out.append(name)
    return out


def test_every_one_argument_public_method_ends_in_an_answer_or_a_graph_error(catalog):
    # Introspected from resonantk.__all__, so that a new method is covered
    # with no table edit.  FaceSet's indexing, across and face_of_arc ended
    # in a TypeError, an IndexError or a KeyError, and faces[-1] and
    # faces[True] read another face.
    entry = catalog["F24"]
    f = entry.graph
    lf = resonantk.leapfrog(f)
    built = [
        f, f.graph, f.faces, f.faces[0], resonantk.maximum_matching(f), lf, resonantk.sextet(f),
        resonantk.resonance_order(f), resonantk.find_polygonal_rings(f, 6)[0],
        resonantk.maximal_pentagonal_fragments(f)[0], entry, delete_vertices(f, [0]),
    ]
    by_class = {type(obj): obj for obj in built}
    called = set()
    for name in resonantk.__all__:
        cls = getattr(resonantk, name)
        if not inspect.isclass(cls):
            continue
        for method in _one_argument_methods(cls):
            assert cls in by_class, f"{name}.{method} has no built instance to call it on"
            bound = getattr(by_class[cls], method)
            for value in _BAD:
                try:
                    bound(value)
                except GraphError:
                    pass
            called.add(f"{name}.{method}")
    assert {
        "EmbeddedGraph.neighbors", "FaceSet.__getitem__", "FaceSet.across", "FaceSet.face_of_arc",
        "FullereneGraph.is_hexagon", "Matching.__contains__", "Matching.covers",
        "SextetPolynomial.__call__", "SextetPolynomial.sigma", "Subgraph.to_parent",
    } <= called
    for value in (-1, True):
        with pytest.raises(GraphError, match=f"^face id must be an int from 0 to 13, got {value!r}$"):
            f.faces[value]
        with pytest.raises(GraphError, match=f"^face id must be an int from 0 to 13, got {value!r}$"):
            f.faces.across(value)
    for arc in (None, 99, (0, 99), (True, 1), [0, 1], (0.0, 1)):
        message = f"^{re.escape(repr(arc))} is not an arc: a pair \\(u, v\\) of ints with v a neighbour of u$"
        with pytest.raises(GraphError, match=message):
            f.faces.face_of_arc(arc)
    assert [f.faces.face_of_arc(arc) for arc in f.graph.arcs()] == [
        f.faces._arc_face[arc] for arc in f.graph.arcs()
    ]
    assert [f.faces[i] for i in range(14)] == list(f.faces)
    assert [f.faces.across(i) for i in range(14)] == list(f.faces._across)
    with pytest.raises(GraphError, match="^local vertex must be an int from 0 to 22, got -1$"):
        delete_vertices(f, [0]).to_parent(-1)


def test_a_fullerene_graph_holds_only_its_graph(graphs):
    # Its faces and face ids are derived from its graph when it is built,
    # so none can disagree with its graph.
    f = graphs["C60"]
    assert [fld.name for fld in dataclasses.fields(FullereneGraph)] == ["graph"]
    with pytest.raises(GraphError, match="^FullereneGraph graph must be an EmbeddedGraph, got NoneType$"):
        FullereneGraph(None)
    k4 = parse_graph(K4)
    for build in (lambda: FullereneGraph(k4), lambda: dataclasses.replace(f, graph=k4)):
        with pytest.raises(NotFullereneError, match="face 0 has size 3"):
            build()
    rebuilt = FullereneGraph(f.graph)
    assert rebuilt.faces is f.graph._faces
    assert (rebuilt.pentagon_ids, rebuilt.hexagon_ids) == (f.pentagon_ids, f.hexagon_ids)
    # a FullereneGraph comes back as itself, its tables and all
    arcs = rebuilt._ring_arcs
    assert validate_fullerene(rebuilt) is rebuilt and validate_fullerene(rebuilt)._ring_arcs is arcs


def test_a_graph_argument_names_the_types_it_takes(graphs):
    with pytest.raises(GraphError, match="^graph must be a FullereneGraph, got EmbeddedGraph$"):
        resonantk.sextet(graphs["F20"].graph)
    message = "^unsupported graph form: NoneType; expected an EmbeddedGraph or a FullereneGraph$"
    with pytest.raises(GraphError, match=message):
        emit_graph(None)
