"""The leapfrog construction and its induced matching and face structure.

The leapfrog image of a plane cubic graph has one vertex per directed edge
(arc).  An arc keeps three image neighbours: its face-tracing successor, its
face-tracing predecessor, and its own reversal.  The reversal pairs form a
perfect matching M0 of the image.  Image faces come in exactly two kinds:

* *heritable* faces - the arc cycle of an original face, same size;
* *fresh* faces - the six arcs touching one original vertex, always
  hexagons, and always M0-alternating.

Around each heritable face sits its *territory*: the ring of fresh faces
met across its boundary edges, listed in boundary order starting at the
face's least boundary arc.  Flipping M0 around a choice of ring faces is
what turns a heritable hexagon alternating; ``two_resonance_certificate``
searches those flips to make any two disjoint image hexagons alternate at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError
from .matching import Matching, alternating_faces
from .plane_graph import (
    Arc,
    EmbeddedGraph,
    FullereneGraph,
    validate_fullerene,
)


@dataclass(frozen=True, eq=False)
class LeapfrogResult:
    """The image graph with its reversal matching and face provenance maps."""

    original: FullereneGraph
    image: FullereneGraph
    arc_of: tuple[Arc, ...]
    m0: Matching
    heritable: dict[int, int]  # image face id -> original face id
    fresh: dict[int, int]  # image face id -> original vertex
    _heritable_inv: dict[int, int] = field(repr=False)
    _fresh_inv: dict[int, int] = field(repr=False)

    def heritable_face_of(self, original_face_id: int) -> int:
        return self._heritable_inv[original_face_id]

    def fresh_face_at(self, original_vertex: int) -> int:
        return self._fresh_inv[original_vertex]


@dataclass(frozen=True)
class Territory:
    """A heritable face and the fresh faces ringing it, in boundary order."""

    center: int
    ring: tuple[int, ...]


def leapfrog(f: FullereneGraph) -> LeapfrogResult:
    """Construct the leapfrog image, its reversal matching, and provenance."""
    g = f.graph
    arcs = g.arcs()
    index = {a: i for i, a in enumerate(arcs)}

    rotation = tuple(
        (index[g.prev_arc(a)], index[g.next_arc(a)], index[(a[1], a[0])]) for a in arcs
    )
    image_graph = EmbeddedGraph(rotation)
    image = validate_fullerene(image_graph)

    m0 = Matching(
        frozenset(
            (i, index[(a[1], a[0])]) for i, a in enumerate(arcs) if i < index[(a[1], a[0])]
        ),
        image,
    )

    heritable, fresh = classify_faces(f, image, arcs)
    result = LeapfrogResult(
        f,
        image,
        tuple(arcs),
        m0,
        heritable,
        fresh,
        {orig: img for img, orig in heritable.items()},
        {v: img for img, v in fresh.items()},
    )
    assert len(heritable) == len(f.faces) and len(fresh) == f.n
    assert all(image.faces[img].size == f.faces[orig].size for img, orig in heritable.items())
    assert all(image.faces[img].size == 6 for img in fresh)
    return result


def classify_faces(
    f: FullereneGraph, image: FullereneGraph, arcs: list[Arc] | tuple[Arc, ...]
) -> tuple[dict[int, int], dict[int, int]]:
    """Assign every image face to its original face or original vertex.

    Works by vertex-set identity: a heritable face consists of the arcs of
    one original face's boundary cycle; a fresh face of the six arcs
    touching one original vertex.  Every image face must match exactly one
    of these patterns.
    """
    index = {a: i for i, a in enumerate(arcs)}
    by_vertexset: dict[frozenset[int], tuple[str, int]] = {}
    for face in f.faces:
        key = frozenset(index[a] for a in face.boundary_arcs())
        by_vertexset[key] = ("heritable", face.index)
    for v in range(f.n):
        key = frozenset(
            index[a] for w in f.graph.neighbors(v) for a in ((v, w), (w, v))
        )
        by_vertexset[key] = ("fresh", v)

    heritable: dict[int, int] = {}
    fresh: dict[int, int] = {}
    for face in image.faces:
        kind, ref = by_vertexset[frozenset(face.vertices)]
        if kind == "heritable":
            heritable[face.index] = ref
        else:
            fresh[face.index] = ref
    return heritable, fresh


def territory(lf: LeapfrogResult, image_face_id: int) -> Territory:
    """The ring of faces met across a heritable face's boundary edges.

    Ring position i is the face on the far side of boundary edge i, with the
    boundary read from the face's least arc.  For leapfrog images every ring
    face is fresh.

    Raises:
        GraphError: if the face is not heritable.
    """
    if image_face_id not in lf.heritable:
        raise GraphError(f"face {image_face_id} is not heritable; territories surround heritable faces")
    ring = lf.image.faces.across(image_face_id)
    assert len(set(ring)) == len(ring)
    assert all(r in lf.fresh for r in ring)
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


def two_resonance_certificate(lf: LeapfrogResult, h1: int, h2: int) -> Matching:
    """A perfect matching of the image alternating on two disjoint hexagons.

    Starts from the reversal matching M0 and flips a set of fresh hexagons
    chosen from the targets' territories.  Candidate flip sets are tried in
    a fixed order; each must be pairwise vertex-disjoint and, when a target
    is fresh, must not share an edge with it.  The first candidate that
    validates is returned.

    Raises:
        GraphError: if the faces are not disjoint image hexagons.
        RuntimeError: if no candidate flip set produces a valid matching.
    """
    image = lf.image
    for h in (h1, h2):
        if not 0 <= h < len(image.faces) or not image.is_hexagon(h):
            raise GraphError(f"face {h} is not a hexagon of the leapfrog image")
    if h1 == h2 or image.faces[h1].vertices & image.faces[h2].vertices:
        raise GraphError(f"hexagons {h1} and {h2} must be vertex-disjoint")

    across = image.faces.across
    fresh_targets = [h for h in (h1, h2) if h in lf.fresh]
    for a_set in _flip_candidates(lf, h1):
        for b_set in _flip_candidates(lf, h2):
            flips = a_set | b_set
            if any(b in across(a) for a in flips for b in flips):
                continue  # two flipped faces share a vertex
            if any(flip in across(t) for t in fresh_targets for flip in flips):
                continue
            edges = set(lf.m0.edges)
            for fid in flips:
                edges.symmetric_difference_update(image.faces[fid].boundary_edges())
            candidate = Matching(frozenset(edges), image)
            if 2 * candidate.size != image.n:
                continue
            if len(candidate.covered()) != image.n:
                continue
            if {h1, h2} <= set(alternating_faces(image, candidate)):
                return candidate
    raise RuntimeError(
        f"no territory flip makes hexagons {h1} and {h2} alternate together"
    )
