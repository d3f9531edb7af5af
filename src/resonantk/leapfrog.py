"""The leapfrog construction and its induced matching and face structure.

The leapfrog image of a plane cubic graph has one vertex per directed edge
(arc).  An arc keeps three image neighbours, in clockwise order: its
face-tracing predecessor, its face-tracing successor, and its own reversal.
Both are read off the graph's kept ``_turns`` table, the one reading of the
clockwise order, as the face trace reads them.  The reversal pairs form a
perfect matching M0 of the image.  Image faces come in exactly two kinds:

* *heritable* faces - the arc cycle of an original face, same size;
* *fresh* faces - the six arcs touching one original vertex, always
  hexagons, and always M0-alternating.

The provenance of every image face is read off the construction: the image
arc from an original face's first boundary arc to its second lies on the
heritable face of that face, and the image arc from (u, v) to its reversal
lies on the fresh face at v.  Both faces are then looked up in the image's
face index.

Around each heritable face sits its *territory*: the ring of fresh faces
met across its boundary edges, listed in boundary order starting at the
face's least boundary arc.  Flipping M0 around a choice of ring faces is
what turns a heritable hexagon alternating; ``two_resonance_certificate``
searches those flips to make any two disjoint image hexagons alternate at
once.

The certificate splits its checks in two.  Once per image it builds a
table, ``LeapfrogResult._table`` (which ``dataclasses.replace`` starts
afresh): M0 as a bitmask over the image's sorted edges and each face's
edge bitmask; the faces' vertex bitmasks are the image ``FaceSet``'s, and
M0 was checked perfect when the result was built.  Once per hexagon it
checks, by popcounts on those masks, that each candidate's faces are
pairwise disjoint and each alternates with M0, and keeps the candidate as
face, vertex and edge bitmasks.  Per pair it only tests, by popcounts,
that the two candidates' faces stay disjoint and that both targets
alternate.  The matching that passes is still perfect:
flipping pairwise disjoint M0-alternating cycles of a perfect matching
gives a perfect matching, and the per-image checks drop exactly the
candidates whose flips would not (a flipped hexagon holding k < 3 M0 edges
changes the size by 6 - 2k).  The winning ``Matching`` is built once per
set of flipped faces and is the one immutable object that every
certificate flipping them returns; with no flip it is M0 itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import GraphError, check_int, check_type
from .matching import Matching, _checked_edges, _matching_from_mates
from .plane_graph import (
    Arc,
    Edge,
    EmbeddedGraph,
    FullereneGraph,
    _derived,
    validate_fullerene,
)


@dataclass(frozen=True, eq=False)
class LeapfrogResult:
    """The image graph with its reversal matching and face provenance maps.

    Checked when built, however it is built, for what the certificates read
    without checking: ``original`` and ``image`` must be ``FullereneGraph``s
    and ``arc_of`` a tuple; ``m0`` a perfect matching of the image, a
    ``Matching`` whose every edge is an image edge stored as (u, v) with
    u < v; ``heritable`` and ``fresh`` dicts from image face ids to ints.
    That the faces are classified right is checked where a territory or
    certificate needs it.

    Raises:
        GraphError: naming the field that fails.
    """

    original: FullereneGraph
    image: FullereneGraph
    arc_of: tuple[Arc, ...]
    m0: Matching
    heritable: dict[int, int]  # image face id -> original face id
    fresh: dict[int, int]  # image face id -> original vertex

    def __post_init__(self) -> None:
        check_type("LeapfrogResult original", self.original, FullereneGraph)
        image = check_type("LeapfrogResult image", self.image, FullereneGraph)
        check_type("LeapfrogResult arc_of", self.arc_of, tuple)
        try:
            edges = _checked_edges(self.m0)
        except GraphError as e:
            raise GraphError(f"LeapfrogResult m0: {e}") from None
        rotation = image.graph.rotation
        n = len(rotation)
        for u, v in edges:
            if not (0 <= u < v < n and v in rotation[u]):
                raise GraphError(
                    f"LeapfrogResult m0 edge {(u, v)} is not an edge of its image "
                    "stored as (u, v) with u < v"
                )
        if 2 * len(edges) != n or len(self.m0.covered()) != n:
            raise GraphError(f"LeapfrogResult m0 is not a perfect matching of its {n}-vertex image")
        for name, provenance in (("heritable", self.heritable), ("fresh", self.fresh)):
            check_type(f"LeapfrogResult {name}", provenance, dict)
            if (
                {*map(type, provenance), *map(type, provenance.values())} - {int}
                or min(provenance, default=0) < 0
                or max(provenance, default=0) >= len(image.faces)
            ):
                raise GraphError(f"LeapfrogResult {name} must map image face ids to ints")

    @_derived
    def _table(self) -> _Table:
        """The image's certificate table."""
        image, m0 = self.image, self.m0
        bit = {e: i for i, e in enumerate(image.graph.edges())}
        return _Table(
            sum(1 << bit[e] for e in m0.edges),
            [sum(1 << bit[e] for e in face.boundary_edges()) for face in image.faces],
            {},
            {0: m0},
        )


@dataclass(frozen=True)
class Territory:
    """A heritable face and the fresh faces ringing it, in boundary order."""

    center: int
    ring: tuple[int, ...]


def leapfrog(f: FullereneGraph) -> LeapfrogResult:
    """Construct the leapfrog image, its reversal matching, and provenance.

    Raises:
        GraphError: if f is not a ``FullereneGraph``.
        RuntimeError: if the image faces do not split into one heritable face
            of equal size per original face and one fresh hexagon per
            original vertex.
    """
    g = check_type("graph", f, FullereneGraph).graph
    arcs = g.arcs()
    index = {a: i for i, a in enumerate(arcs)}

    turns = g._turns
    reversal = [index[(a[1], a[0])] for a in arcs]
    # the face-tracing predecessor and successor of (u, v), then its reversal
    rotation = tuple(
        (index[(turns[u][v][1], u)], index[(v, turns[v][u][0])], r)
        for (u, v), r in zip(arcs, reversal)
    )
    image = validate_fullerene(EmbeddedGraph(rotation))
    m0 = _matching_from_mates(reversal, image)

    face_of_arc = image.faces.face_of_arc
    heritable: dict[int, int] = {}
    for face in f.faces:
        a, b, c = face.boundary[:3]
        heritable[face_of_arc((index[(a, b)], index[(b, c)]))] = face.index
    fresh: dict[int, int] = {}
    for v in range(f.n):
        u = g.rotation[v][0]
        fresh[face_of_arc((index[(u, v)], index[(v, u)]))] = v

    if (
        len(heritable) != len(f.faces)
        or len(fresh) != f.n
        or len(heritable.keys() | fresh.keys()) != len(image.faces)
    ):
        raise RuntimeError(
            f"leapfrog provenance does not classify each of the {len(image.faces)} image "
            f"faces exactly once: {len(heritable)} heritable, {len(fresh)} fresh"
        )
    for img, orig in heritable.items():
        if image.faces[img].size != f.faces[orig].size:
            raise RuntimeError(
                f"heritable image face {img} has size {image.faces[img].size}, "
                f"but its original face {orig} has size {f.faces[orig].size}"
            )
    for img, v in fresh.items():
        if image.faces[img].size != 6:
            raise RuntimeError(
                f"fresh image face {img} at original vertex {v} has size "
                f"{image.faces[img].size}, not 6"
            )
    return LeapfrogResult(f, image, tuple(arcs), m0, heritable, fresh)


def territory(lf: LeapfrogResult, image_face_id: int) -> Territory:
    """The ring of faces met across a heritable face's boundary edges.

    Ring position i is the face on the far side of boundary edge i, with the
    boundary read from the face's least arc.  For leapfrog images every ring
    face is fresh.

    Raises:
        GraphError: if lf is not a ``LeapfrogResult``, the face id is not an
            integer or the face is not heritable.
        RuntimeError: if the ring repeats a face or holds a face that is not
            fresh.
    """
    check_type("leapfrog result", lf, LeapfrogResult)
    if check_int("face id", image_face_id) not in lf.heritable:
        raise GraphError(f"face {image_face_id} is not heritable; territories surround heritable faces")
    ring = lf.image.faces.across(image_face_id)
    if len(set(ring)) != len(ring):
        raise RuntimeError(f"territory of face {image_face_id} repeats a face: {ring}")
    stale = [r for r in ring if r not in lf.fresh]
    if stale:
        raise RuntimeError(f"territory of face {image_face_id} holds faces that are not fresh: {stale}")
    return Territory(image_face_id, ring)


def _flip_candidates(lf: LeapfrogResult, image_face_id: int) -> list[frozenset[int]]:
    """Ring subsets whose flip makes the face M0-alternating.

    Fresh faces already alternate (no flip).  A heritable hexagon needs
    every other ring face flipped; both alternating triples are candidates,
    odd positions first.
    """
    if image_face_id in lf.fresh:
        return [frozenset()]
    ring = territory(lf, image_face_id).ring
    return [frozenset((ring[1], ring[3], ring[5])), frozenset((ring[0], ring[2], ring[4]))]


# A flip candidate as bitmasks: its faces, their vertices and their boundary edges.
_Flip = tuple[int, int, int]


class _Table(NamedTuple):
    """What certificates read of one image, built once as ``LeapfrogResult._table``.

    Edge i is the i-th of ``image.graph.edges()``.  ``winners`` holds the
    certificates themselves, one immutable ``Matching`` per set of flipped
    faces, built on first use; flipping nothing gives ``lf.m0`` itself.
    """

    m0: int  # bit i set when edge i is in M0
    edges: list[int]  # per face, bit i set when edge i bounds it
    flips: dict[int, list[_Flip]]  # per hexagon, its checked candidates
    winners: dict[int, Matching]  # per flipped-face mask, the certificate


def _checked_flips(lf: LeapfrogResult, table: _Table, h: int) -> list[_Flip]:
    """Build into the table the candidates of ``_flip_candidates`` whose flip keeps M0 perfect.

    A candidate is dropped when two of its faces share a vertex or one of
    them does not alternate with M0, that is holds fewer than half its
    boundary edges in M0 (read off the table's edge masks).
    """
    masks = lf.image.faces.vertex_masks
    kept = []
    for flips in _flip_candidates(lf, h):
        verts = edges = 0
        for x in flips:
            verts |= masks[x]
            edges |= table.edges[x]
        if verts.bit_count() == sum(masks[x].bit_count() for x in flips) and all(
            2 * (table.edges[x] & table.m0).bit_count() == masks[x].bit_count() for x in flips
        ):
            kept.append((sum(1 << x for x in flips), verts, edges))
    table.flips[h] = kept
    return kept


def _winner(lf: LeapfrogResult, table: _Table, flips: int) -> Matching:
    """M0 with the faces of the non-empty mask ``flips`` flipped, built once per mask."""
    faces = lf.image.faces
    toggled = set(lf.m0.edges)
    rest = flips
    while rest:
        low = rest & -rest
        rest ^= low
        toggled.symmetric_difference_update(faces[low.bit_length() - 1].boundary_edges())
    winner = table.winners[flips] = Matching(frozenset(toggled), lf.image)
    return winner


def two_resonance_certificate(lf: LeapfrogResult, h1: int, h2: int) -> Matching:
    """A perfect matching of the image alternating on two disjoint hexagons.

    Starts from the reversal matching M0 and flips a set of fresh hexagons
    chosen from the targets' territories.  Candidate flip sets are tried in
    a fixed order; each must be pairwise vertex-disjoint.  The first
    candidate that alternates on both targets is returned.

    M0 was checked perfect when lf was built.  What does not depend on the
    pair is checked once per image: each hexagon's candidates have pairwise
    disjoint faces that alternate with M0 (``_checked_flips``).  Per pair,
    on the image's bitmasks (``lf._table`` and ``FaceSet.vertex_masks``),
    the two candidates' faces must cover six vertices for each face they
    flip, so they are pairwise disjoint (two fullerene faces share a vertex
    exactly when they share an edge), and each target must hold three edges
    of M0 with the flipped edges toggled.
    The certificate is built once per set of flipped faces and kept in the
    image's table: every pair that flips the same faces gets the same
    immutable ``Matching``, and flipping nothing gives ``lf.m0`` itself.  It
    is perfect: flipping pairwise disjoint M0-alternating cycles keeps every
    vertex matched once, while a flipped hexagon holding k < 3 M0 edges
    would change the size by 6 - 2k, and those candidates are never kept.

    No winner flips a face sharing an edge with a fresh target: both faces
    alternate with M0, so each end of the shared edge is matched along both,
    and as they share no other edge, it is an M0 edge.  The flip removes it
    and, by the same argument, adds no target edge, so the target fails the
    alternation test.

    Raises:
        GraphError: if lf is not a ``LeapfrogResult`` or the faces are not
            disjoint image hexagons.
        RuntimeError: if no candidate flip set produces a valid matching.
    """
    # Called once per pair, so the exact types skip the general checks (which
    # they would pass), and the two targets are checked one after the other.
    if type(lf) is not LeapfrogResult:
        check_type("leapfrog result", lf, LeapfrogResult)
    table = lf._table
    verts = lf.image.faces.vertex_masks
    # a fullerene face is a hexagon exactly when it has six vertices
    if type(h1) is not int:
        check_int("face id", h1)
    if not 0 <= h1 < len(verts) or verts[h1].bit_count() != 6:
        raise GraphError(f"face {h1} is not a hexagon of the leapfrog image")
    if type(h2) is not int:
        check_int("face id", h2)
    if not 0 <= h2 < len(verts) or verts[h2].bit_count() != 6:
        raise GraphError(f"face {h2} is not a hexagon of the leapfrog image")
    if h1 == h2 or verts[h1] & verts[h2]:
        raise GraphError(f"hexagons {h1} and {h2} must be vertex-disjoint")

    t1, t2 = table.edges[h1], table.edges[h2]
    m0 = table.m0
    first = table.flips.get(h1)
    if first is None:
        first = _checked_flips(lf, table, h1)
    # h2's territory is read only when some pair would use it
    second = table.flips.get(h2) if first else []
    if second is None:
        second = _checked_flips(lf, table, h2)
    for a_faces, a_verts, a_edges in first:
        for b_faces, b_verts, b_edges in second:
            flips = a_faces | b_faces
            # every kept face alternates with M0, so it is a hexagon
            if (a_verts | b_verts).bit_count() != 6 * flips.bit_count():
                continue  # two flipped faces share a vertex
            toggled = m0 ^ (a_edges | b_edges)
            if (toggled & t1).bit_count() == 3 and (toggled & t2).bit_count() == 3:
                return table.winners.get(flips) or _winner(lf, table, flips)
    raise RuntimeError(
        f"no territory flip makes hexagons {h1} and {h2} alternate together"
    )
