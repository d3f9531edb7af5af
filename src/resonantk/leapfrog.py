"""The leapfrog construction and its induced matching and face structure.

The leapfrog image of a plane cubic graph has one vertex per directed edge
(arc).  An arc keeps three image neighbours: its face-tracing successor, its
face-tracing predecessor, and its own reversal.  The reversal pairs form a
perfect matching M0 of the image.  Image faces come in exactly two kinds:

* *heritable* faces - the arc cycle of an original face, same size;
* *fresh* faces - the six arcs touching one original vertex, always
  hexagons, and always M0-alternating.

The provenance of every image face is read off the construction: the image
arc from an original arc to its successor lies on the heritable face of the
original face, and the image arc from (u, v) to its reversal lies on the
fresh face at v.  Both faces are then looked up in the image's face index.

Around each heritable face sits its *territory*: the ring of fresh faces
met across its boundary edges, listed in boundary order starting at the
face's least boundary arc.  Flipping M0 around a choice of ring faces is
what turns a heritable hexagon alternating; ``two_resonance_certificate``
searches those flips to make any two disjoint image hexagons alternate at
once, and checks each candidate on its two target hexagons only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError, check_int
from .matching import Matching, _matching_from_mates, face_alternates
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


@dataclass(frozen=True)
class Territory:
    """A heritable face and the fresh faces ringing it, in boundary order."""

    center: int
    ring: tuple[int, ...]


def leapfrog(f: FullereneGraph) -> LeapfrogResult:
    """Construct the leapfrog image, its reversal matching, and provenance.

    Raises:
        RuntimeError: if the image faces do not split into one heritable face
            of equal size per original face and one fresh hexagon per
            original vertex.
    """
    g = f.graph
    arcs = g.arcs()
    index = {a: i for i, a in enumerate(arcs)}

    reversal = [index[(a[1], a[0])] for a in arcs]
    rotation = tuple(
        (index[g.prev_arc(a)], index[g.next_arc(a)], r) for a, r in zip(arcs, reversal)
    )
    image = validate_fullerene(EmbeddedGraph(rotation))
    m0 = _matching_from_mates(reversal, image)

    face_of_arc = image.faces.face_of_arc
    heritable: dict[int, int] = {}
    for face in f.faces:
        a = face.boundary_arcs()[0]
        heritable[face_of_arc((index[a], index[g.next_arc(a)]))] = face.index
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
        GraphError: if the face id is not an integer or the face is not
            heritable.
        RuntimeError: if the ring repeats a face or holds a face that is not
            fresh.
    """
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


def two_resonance_certificate(lf: LeapfrogResult, h1: int, h2: int) -> Matching:
    """A perfect matching of the image alternating on two disjoint hexagons.

    Starts from the reversal matching M0 and flips a set of fresh hexagons
    chosen from the targets' territories.  Candidate flip sets are tried in
    a fixed order; each must be pairwise vertex-disjoint and, when a target
    is fresh, must not share an edge with it.  The first candidate that is
    a perfect matching alternating on both targets is returned.

    Raises:
        GraphError: if the faces are not disjoint image hexagons.
        RuntimeError: if no candidate flip set produces a valid matching.
    """
    image = lf.image
    for h in (h1, h2):
        check_int("face id", h)
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
            if (
                2 * candidate.size == image.n
                and len(candidate.covered()) == image.n
                and face_alternates(image.faces[h1], candidate)
                and face_alternates(image.faces[h2], candidate)
            ):
                return candidate
    raise RuntimeError(
        f"no territory flip makes hexagons {h1} and {h2} alternate together"
    )
