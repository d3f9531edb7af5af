"""The leapfrog construction and its induced matching and face structure.

The leapfrog image of a plane cubic graph has one vertex per directed edge
(arc).  An arc keeps three image neighbours, in clockwise order: its
face-tracing predecessor, its face-tracing successor, and its own reversal
(``_rotation``, read off the graph's kept ``_turns`` table, the one reading
of the clockwise order, as the face trace reads it).  The reversal pairs
form a perfect matching M0 of the image.  Image faces come in exactly two
kinds:

* *heritable* faces - the arc cycle of an original face, same size;
* *fresh* faces - the six arcs touching one original vertex, always
  hexagons, and always M0-alternating.

A ``LeapfrogResult`` holds the original, the image and ``arc_of``, the arc
each image vertex is; it is checked when built, however it is built, to be
exactly this construction.  M0 and the provenance of every image face are
derived from it: the image arc from an original face's first boundary arc
to its second lies on the heritable face of that face, and the image arc
from (u, v) to its reversal lies on the fresh face at v; both faces are
looked up in the image's face index.

Around each heritable face sits its *territory*: the ring of fresh faces
met across its boundary edges, listed in boundary order starting at the
face's least boundary arc.  Flipping M0 around a choice of ring faces is
what turns a heritable hexagon alternating; ``two_resonance_certificate``
searches those flips to make any two disjoint image hexagons alternate at
once.  That the fresh faces are hexagons and ring each heritable face as
distinct faces, which territories and certificates then read without a
second check, is checked (RuntimeError) when the result is built.

The certificate splits its work in two.  Once per image it builds a
table, ``LeapfrogResult._table`` (which ``dataclasses.replace`` starts
afresh): M0 as a bitmask over the image's sorted edges, each face's edge
bitmask, and the checked flip candidates of every image hexagon; the
faces' vertex bitmasks are the image ``FaceSet``'s.  A candidate is kept
when, by popcounts on those masks, its faces are pairwise disjoint and
each alternates with M0, as face, vertex and edge bitmasks.  Per pair it
only tests, by popcounts, that the two candidates' faces stay disjoint and
that both targets alternate.  The matching that passes is still perfect:
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
from .matching import Matching, _matching_from_mates
from .plane_graph import (
    Arc,
    EmbeddedGraph,
    FullereneGraph,
    _derived,
    _stray_types,
    validate_fullerene,
)


@dataclass(frozen=True, eq=False)
class LeapfrogResult:
    """The leapfrog image of ``original``, with the arc each image vertex is.

    Image vertex i is the arc ``arc_of[i]`` of the original.  Checked when
    built, however it is built, to be the construction: ``original`` and
    ``image`` must be ``FullereneGraph``s and ``arc_of`` a tuple of pairs
    of ints listing each arc of the original once; the image must have one
    vertex per arc, and vertex i the clockwise neighbours ``_rotation``
    gives arc ``arc_of[i]``, from any of the three.  ``m0``, ``heritable``
    and ``fresh`` are tables derived from the three; the check builds the
    last two.

    Raises:
        GraphError: naming the field that fails.
        RuntimeError: if a heritable face is not ringed by distinct fresh
            hexagons (a construction bug).
    """

    original: FullereneGraph
    image: FullereneGraph
    arc_of: tuple[Arc, ...]  # image vertex -> original arc

    def __post_init__(self) -> None:
        original = check_type("LeapfrogResult original", self.original, FullereneGraph)
        image = check_type("LeapfrogResult image", self.image, FullereneGraph)
        arc_of = self.arc_of
        found = _stray_types(arc_of)
        if found:
            raise GraphError(f"LeapfrogResult arc_of must be a tuple of pairs of ints, found {found}")
        arcs = original.graph.arcs()
        if sorted(arc_of) != arcs:
            raise GraphError(f"LeapfrogResult arc_of must list each of the original's {len(arcs)} arcs once")
        rows = image.graph.rotation
        if len(rows) != len(arcs):
            raise GraphError(f"LeapfrogResult image has {len(rows)} vertices, not one per original arc")
        want = _rotation(original.graph, self._index)
        if rows != want:
            for i, (row, (a, b, c)) in enumerate(zip(rows, want)):
                if row not in ((a, b, c), (b, c, a), (c, a, b)):
                    raise GraphError(
                        f"LeapfrogResult image vertex {i} has neighbours {row}, not those of"
                        f" arc {arc_of[i]} in the leapfrog, {(a, b, c)} clockwise"
                    )
        # what territories and certificates read without a check
        fresh_hexagons = self.fresh.keys() & set(image.hexagon_ids)
        for img in self.heritable:
            ring = image.faces.across(img)
            if len(set(ring)) != len(ring) or not fresh_hexagons.issuperset(ring):
                raise RuntimeError(f"leapfrog face {img} is ringed by {ring}, not distinct fresh hexagons")

    @_derived
    def _index(self) -> dict[Arc, int]:
        """Each arc of the original -> its image vertex."""
        return {arc: i for i, arc in enumerate(self.arc_of)}

    @_derived
    def m0(self) -> Matching:
        """The reversal matching: each image vertex with the vertex of its reversed arc."""
        index = self._index
        return _matching_from_mates([index[v, u] for u, v in self.arc_of], self.image)

    @_derived
    def fresh(self) -> dict[int, int]:
        """Image face id -> original vertex v: the face on the image arc from (u, v) to (v, u)."""
        index, face_of_arc = self._index, self.image.faces.face_of_arc
        rotation = self.original.graph.rotation
        return {face_of_arc((index[u, v], index[v, u])): v for v, (u, _, _) in enumerate(rotation)}

    @_derived
    def heritable(self) -> dict[int, int]:
        """Image face id -> original face id: the face on the image arc from its first arc to its second."""
        index, face_of_arc = self._index, self.image.faces.face_of_arc
        heritable: dict[int, int] = {}
        for face in self.original.faces:
            a, b, c = face.boundary[:3]
            heritable[face_of_arc((index[a, b], index[b, c]))] = face.index
        return heritable

    @_derived
    def _table(self) -> _Table:
        """The image's certificate table, with the flip candidates of every image hexagon."""
        image, m0 = self.image, self.m0
        bit = {e: i for i, e in enumerate(image.graph.edges())}
        m0_mask = sum(1 << bit[e] for e in m0.edges)
        edges = [sum(1 << bit[e] for e in face.boundary_edges()) for face in image.faces]
        flips = [
            _checked_flips(self, m0_mask, edges, h) if image.is_hexagon(h) else []
            for h in range(len(image.faces))
        ]
        return _Table(m0_mask, edges, flips, {0: m0})


@dataclass(frozen=True)
class Territory:
    """A heritable face and the fresh faces ringing it, in boundary order."""

    center: int
    ring: tuple[int, ...]


def _rotation(g: EmbeddedGraph, index: dict[Arc, int]) -> tuple[tuple[int, int, int], ...]:
    """The leapfrog image's rotation, one row per arc in ``index`` order.

    The row of (u, v) holds the image vertices of its face-tracing
    predecessor and successor, then of its reversal.
    """
    turns = g._turns
    return tuple((index[turns[u][v][1], u], index[v, turns[v][u][0]], index[v, u]) for u, v in index)


def leapfrog(f: FullereneGraph) -> LeapfrogResult:
    """Construct the leapfrog image on the sorted arcs of f.

    The result is checked when built, as every ``LeapfrogResult`` is.

    Raises:
        GraphError: if f is not a ``FullereneGraph``.
    """
    g = check_type("graph", f, FullereneGraph).graph
    arcs = tuple(g.arcs())
    image = validate_fullerene(EmbeddedGraph(_rotation(g, {a: i for i, a in enumerate(arcs)})))
    return LeapfrogResult(f, image, arcs)


def territory(lf: LeapfrogResult, image_face_id: int) -> Territory:
    """The ring of faces met across a heritable face's boundary edges.

    Ring position i is the face on the far side of boundary edge i, with the
    boundary read from the face's least arc.  The ring faces are distinct
    and fresh, as checked when lf was built.

    Raises:
        GraphError: if lf is not a ``LeapfrogResult``, the face id is not an
            integer or the face is not heritable.
    """
    check_type("leapfrog result", lf, LeapfrogResult)
    if check_int("face id", image_face_id) not in lf.heritable:
        raise GraphError(f"face {image_face_id} is not heritable; territories surround heritable faces")
    return Territory(image_face_id, lf.image.faces.across(image_face_id))


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
    faces, built on first use; flipping nothing gives ``lf.m0`` itself.  It
    is the one entry written after the table is built.
    """

    m0: int  # bit i set when edge i is in M0
    edges: list[int]  # per face, bit i set when edge i bounds it
    flips: list[list[_Flip]]  # per face, its checked candidates; none for a pentagon
    winners: dict[int, Matching]  # per flipped-face mask, the certificate


def _checked_flips(lf: LeapfrogResult, m0: int, edges: list[int], h: int) -> list[_Flip]:
    """The candidates of ``_flip_candidates`` for hexagon h whose flip keeps M0 perfect.

    A candidate is dropped when two of its faces share a vertex or one of
    them does not alternate with M0, that is holds fewer than half its
    boundary edges in M0 (read off the M0 mask and the faces' edge masks).
    """
    masks = lf.image.faces.vertex_masks
    kept = []
    for flips in _flip_candidates(lf, h):
        verts = flipped = 0
        for x in flips:
            verts |= masks[x]
            flipped |= edges[x]
        if verts.bit_count() == sum(masks[x].bit_count() for x in flips) and all(
            2 * (edges[x] & m0).bit_count() == masks[x].bit_count() for x in flips
        ):
            kept.append((sum(1 << x for x in flips), verts, flipped))
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

    M0 pairs each arc with its reversal, so it is perfect.  What does not
    depend on the pair is checked once per image, when its table is built:
    each hexagon's candidates have pairwise disjoint faces that alternate
    with M0 (``_checked_flips``).  Per pair, on the image's bitmasks
    (``lf._table`` and ``FaceSet.vertex_masks``), the two candidates' faces
    must cover six vertices for each face they flip, so they are pairwise
    disjoint (two fullerene faces share a vertex exactly when they share an
    edge), and each target must hold three edges of M0 with the flipped
    edges toggled.
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
    for a_faces, a_verts, a_edges in table.flips[h1]:
        for b_faces, b_verts, b_edges in table.flips[h2]:
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
