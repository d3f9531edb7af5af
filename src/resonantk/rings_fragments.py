"""Polygonal rings, pentagonal fragments, and their Euler bookkeeping.

A *polygonal ring* is a cyclic sequence of l >= 3 faces in which consecutive
faces share exactly one edge (and no other vertex), non-consecutive faces are
vertex-disjoint, and the l shared edges form a matching.  The union of the
ring faces is bounded by two disjoint cycles; writing s and s' for the number
of vertices on each cycle lying in only one ring face, the cycle lengths are
l + s and l + s', and the faces strictly inside the cycle with the smaller
count (the inner side) satisfy four counting identities:

    n5 + n6 = (s + r + 2) / 2          5*n5 + 6*n6 = 2*s + 3*r + l
    n5 = 6 + s - l                     n6 = l + (r - s)/2 - 5

with r the number of vertices strictly inside, and r == s (mod 2).  When
s = s', the side with the smaller r is inner, so the choice does not depend
on vertex labels; only when r ties too does the lexicographically smaller
sorted cycle decide.  For pentagonal rings (all ring faces pentagons)
additionally s + s' = l.

A *pentagonal fragment* is a disk bounded by a cycle whose interior faces
are all pentagons.  Connected pentagon clusters are grown by flood fill over
shared edges; clusters whose union is not a disk (the whole sphere for the
dodecahedron, or an annular pentagon belt) are reported with shape OTHER and
not treated as maximal fragments.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Literal

from .errors import GraphError, check_int
from .plane_graph import Edge, FaceSet, FullereneGraph

PENTAGONS_ONLY = "PENTAGONS_ONLY"
ANY = "ANY"

_TURTLE_EDGES = frozenset(
    {(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)}
)


@dataclass(frozen=True)
class Ring:
    """A polygonal ring with its cycles and verified counting data."""

    faces: tuple[int, ...]
    shared_edges: tuple[Edge, ...]
    inner_cycle: tuple[int, ...]
    outer_cycle: tuple[int, ...]
    inner_faces: tuple[int, ...]
    outer_faces: tuple[int, ...]
    l: int
    s: int
    s_prime: int
    r: int
    n5: int
    n6: int
    all_pentagons: bool


@dataclass(frozen=True)
class Fragment:
    """A connected pentagon cluster with disk/shape classification.

    ``boundary`` holds the boundary cycles of the union: one cycle for a
    disk, none when the cluster covers the whole sphere, two or more for
    annular belts.  Only disk clusters are true fragments; the others keep
    shape OTHER and maximal=False.
    """

    faces: tuple[int, ...]
    boundary: tuple[tuple[int, ...], ...]
    w_vertices: frozenset[int]
    gamma: int
    pentagonal: bool
    maximal: bool
    shape: Literal["PENTAGON", "TURTLE", "OTHER"]


@dataclass(frozen=True)
class CapWitness:
    """An R5 or R6 cap: a pentagonal ring with s=0 closing around one face."""

    kind: Literal["R5", "R6"]
    ring: Ring


# ---------------------------------------------------------------------------
# ring scanning
# ---------------------------------------------------------------------------


def find_polygonal_rings(
    f: FullereneGraph, max_len: int = 12, face_filter: str = ANY
) -> list[Ring]:
    """All polygonal rings of length 3..max_len, each reported once.

    The scan anchors every ring at its least face id and canonicalises the
    direction, so each ring appears exactly once.  ``face_filter`` narrows
    candidate faces to pentagons (PENTAGONS_ONLY) or allows all (ANY).

    Raises:
        GraphError: if ``max_len`` is not an integer >= 0 or the filter is
            unknown.
    """
    check_int("max_len", max_len, 0)
    if face_filter not in (PENTAGONS_ONLY, ANY):
        raise GraphError(f"unknown face filter {face_filter!r}")
    if face_filter == PENTAGONS_ONLY:
        candidates = frozenset(f.pentagon_ids)
    else:
        candidates = frozenset(range(len(f.faces)))
    rings = [
        _build_ring(f, cycle)
        for root in sorted(candidates)
        for cycle in _ring_cycles(f.faces, candidates, max_len, root)
    ]
    rings.sort(key=lambda r: (r.l, r.faces))
    return rings


def _ring_cycles(
    fs: FaceSet, candidates: frozenset[int], max_len: int, root: int
) -> list[tuple[int, ...]]:
    """The face cycles of the rings whose least face is ``root``.

    A depth-first walk grows a face path from ``root`` over the dual.  Each
    step adds a face across one edge of the last face, meeting it in that
    edge only; ``used`` holds the endpoints of the edges shared along the
    path.  A ring is reported in the direction whose second face is less
    than its last, so each ring appears once.
    """
    out: list[tuple[int, ...]] = []
    seq = [root]
    used: set[int] = set()
    # Frames [(edge, far face) pairs of seq[-1] left to try, edge into seq[-1]].
    stack = [[zip(fs[root].boundary_edges(), fs.across(root)), ()]]
    while stack:
        frame = stack[-1]
        step = next(frame[0], None)
        if step is None:
            stack.pop()
            seq.pop()
            used.difference_update(frame[1])
            continue
        e, g = step
        if g <= root or g not in candidates or g in seq or fs.across(seq[-1]).count(g) != 1:
            continue
        if e[0] in used or e[1] in used:
            continue
        # vertex-disjoint from every earlier non-consecutive face: faces
        # share a vertex exactly when one is across the other
        if any(g in fs.across(x) for x in seq[1:-1]):
            continue
        # close the ring with g as its final face
        if len(seq) >= 2 and len(seq) < max_len and seq[1] < g:
            ce = fs.shared_edge(g, root)
            if ce is not None and not {ce[0], ce[1]} & (used | {e[0], e[1]}):
                out.append(tuple(seq) + (g,))
        if len(seq) >= 2 and root in fs.across(g):
            continue  # beyond position 1, touching the root means closing only
        if len(seq) + 2 <= max_len:
            seq.append(g)
            used.update(e)
            stack.append([zip(fs[g].boundary_edges(), fs.across(g)), e])
    return out


def _check(ok: bool, identity: str, faces: tuple[int, ...]) -> None:
    if not ok:
        raise RuntimeError(f"ring {faces}: {identity} fails")


def _build_ring(f: FullereneGraph, faces_cycle: tuple[int, ...]) -> Ring:
    """Compute cycles, sides, and counts for a validated face cycle.

    Raises:
        RuntimeError: naming the ring structure or counting identity that
            fails (a scanner or embedding bug).
    """
    fs = f.faces
    l = len(faces_cycle)
    shared = [fs.shared_edge(faces_cycle[i], faces_cycle[(i + 1) % l]) for i in range(l)]
    _check(None not in shared, "consecutive faces meet in one edge", faces_cycle)
    shared_vs = [frozenset(e) for e in shared]
    _check(len(frozenset().union(*shared_vs)) == 2 * l, "shared edges form a matching", faces_cycle)

    ring_faces = set(faces_cycle)
    cycles = _edge_cycles(_rim(fs, faces_cycle))
    _check(len(cycles) == 2, "the boundary is two cycles", faces_cycle)

    # rung structure: each shared edge has one endpoint on each cycle
    for cyc in cycles:
        on = set(cyc)
        rungs = all(len(ev & on) == 1 for ev in shared_vs)
        _check(rungs, "each shared edge is a rung", faces_cycle)

    vertex_faces = _faces_per_vertex(fs, faces_cycle)

    # the two sides: the faces reached from each cycle without crossing the ring
    sides = []
    for cyc in cycles:
        owners = {
            fs.face_of_arc(arc)
            for i in range(len(cyc))
            for arc in ((cyc[i - 1], cyc[i]), (cyc[i], cyc[i - 1]))
        } - ring_faces
        side = _face_component(fs, min(owners), ring_faces)
        _check(owners <= side, "one side owns each cycle", faces_cycle)
        s = sum(1 for v in cyc if vertex_faces[v] == 1)
        _check(len(cyc) == l + s, "cycle length l + s", faces_cycle)
        vertices = set().union(*(fs[fid].vertices for fid in side))
        _check(vertices >= set(cyc), "the side holds its cycle", faces_cycle)
        sides.append((s, len(vertices) - len(cyc), tuple(sorted(cyc)), cyc, side))

    # the inner side: smaller s, then fewer interior vertices r, then the
    # lexicographically smaller cycle
    inner_side, outer_side = sorted(sides, key=lambda side: side[:3])
    s, r, _, inner_cyc, inner = inner_side
    s_prime, _, _, outer_cyc, outer = outer_side
    _check(
        not inner & outer and len(inner) + len(outer) + l == len(fs),
        "the ring splits the other faces into two sides",
        faces_cycle,
    )
    n5 = sum(1 for fid in inner if fs[fid].size == 5)
    n6 = sum(1 for fid in inner if fs[fid].size == 6)

    all_pent = all(fs[fid].size == 5 for fid in faces_cycle)
    _check(s != 1 and s_prime != 1, "s, s' != 1", faces_cycle)
    _check(r % 2 == s % 2, "r = s (mod 2)", faces_cycle)
    _check(2 * (n5 + n6) == s + r + 2, "n5 + n6 = (s + r + 2)/2", faces_cycle)
    _check(5 * n5 + 6 * n6 == 2 * s + 3 * r + l, "5 n5 + 6 n6 = 2s + 3r + l", faces_cycle)
    _check(n5 == 6 + s - l, "n5 = 6 + s - l", faces_cycle)
    _check(2 * n6 == 2 * l + (r - s) - 10, "n6 = l + (r - s)/2 - 5", faces_cycle)
    _check(not all_pent or s + s_prime == l, "s + s' = l on a pentagonal ring", faces_cycle)

    return Ring(
        tuple(faces_cycle),
        tuple(shared),
        tuple(inner_cyc),
        tuple(outer_cyc),
        tuple(sorted(inner)),
        tuple(sorted(outer)),
        l,
        s,
        s_prime,
        r,
        n5,
        n6,
        all_pent,
    )


def _edge_cycles(edges: list[Edge]) -> list[tuple[int, ...]]:
    """Decompose a 2-regular edge set into vertex cycles (least vertex first)."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(ns) != 2 for ns in adj.values()):
        raise RuntimeError("the edge set is not 2-regular, so it is no union of cycles")
    seen: set[int] = set()
    cycles = []
    for start in sorted(adj):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            a, b = adj[cur]
            prev, cur = cur, b if a == prev else a
        cycles.append(tuple(cyc))
    return cycles


def _rim(fs: FaceSet, faces: tuple[int, ...]) -> list[Edge]:
    """The edges on exactly one of ``faces``, in face then boundary order."""
    inside = set(faces)
    return [
        e
        for fid in faces
        for e, g in zip(fs[fid].boundary_edges(), fs.across(fid))
        if g not in inside
    ]


def _faces_per_vertex(fs: FaceSet, faces: tuple[int, ...]) -> Counter[int]:
    """How many of ``faces`` each of their vertices lies on."""
    return Counter(v for fid in faces for v in fs[fid].vertices)


def _face_component(fs: FaceSet, start: int, blocked: set[int] | frozenset[int]) -> set[int]:
    """The faces reached from ``start`` across edges, never entering ``blocked``."""
    comp = {start}
    stack = [start]
    while stack:
        for g in fs.across(stack.pop()):
            if g not in comp and g not in blocked:
                comp.add(g)
                stack.append(g)
    return comp


def ring_stats(f: FullereneGraph, ring: Ring) -> Ring:
    """Recompute a ring's statistics from the embedding, checking the identities.

    Raises:
        RuntimeError: if a counting identity fails (scanner or embedding
            bug) or the recomputed (l, s, s', r, n5, n6) differ from the ring's.
    """
    rebuilt = _build_ring(f, ring.faces)
    stats = ("l", "s", "s_prime", "r", "n5", "n6")
    differ = [k for k in stats if getattr(rebuilt, k) != getattr(ring, k)]
    if differ:
        raise RuntimeError(
            f"ring {ring.faces}: recomputed {', '.join(differ)} differ from the ring's"
        )
    return rebuilt


def pentagonal_rings(f: FullereneGraph) -> tuple[Ring, ...]:
    """All pentagonal rings of length at most 12, scanned once per graph.

    A fullerene has 12 pentagons, so this is every pentagonal ring; ``tau``,
    ``psi`` and the CLI report share the one scan.
    """
    rings = f._memo.get("pentagonal_rings")
    if rings is None:
        rings = tuple(find_polygonal_rings(f, max_len=12, face_filter=PENTAGONS_ONLY))
        f._memo["pentagonal_rings"] = rings
    return rings


def tau(f: FullereneGraph) -> int | None:
    """Minimum pentagonal-ring length, or None when no pentagonal ring exists.

    Out-of-band values (outside 5..12, or the impossible 7) are reported as
    warnings rather than errors: they would contradict the structure theory,
    so a hit is a finding about the input or a bug worth surfacing loudly.
    """
    rings = pentagonal_rings(f)
    if not rings:
        return None
    value = min(r.l for r in rings)
    if not 5 <= value <= 12:
        warnings.warn(f"pentagonal-ring minimum {value} outside the expected range 5..12")
    if value == 7:
        warnings.warn("pentagonal-ring minimum 7 should be impossible for fullerene graphs")
    return value


def psi(f: FullereneGraph, l: int) -> int | None:
    """Minimum s over pentagonal rings of length l, or None when none exist."""
    values = [r.s for r in pentagonal_rings(f) if r.l == l]
    return min(values) if values else None


def detect_r5_r6(f: FullereneGraph) -> list[CapWitness]:
    """All R5/R6 caps: pentagonal rings of length 5 or 6 closing around one face.

    Also checks that every pentagonal ring of length 5 has s = 0 (they are
    always caps), raising RuntimeError otherwise.
    """
    rings = find_polygonal_rings(f, max_len=6, face_filter=PENTAGONS_ONLY)
    out = []
    for ring in rings:
        if ring.l == 5:
            _check(ring.s == 0, "s = 0 on a pentagonal 5-ring", ring.faces)
        if ring.l in (5, 6) and ring.s == 0 and len(ring.inner_faces) == 1:
            out.append(CapWitness("R5" if ring.l == 5 else "R6", ring))
    return out


# ---------------------------------------------------------------------------
# pentagonal fragments
# ---------------------------------------------------------------------------


def maximal_pentagonal_fragments(f: FullereneGraph) -> list[Fragment]:
    """Classify every connected pentagon cluster of the graph.

    Clusters are grown over pentagon-pentagon shared edges.  A cluster whose
    union is a disk is a genuine fragment: its shape is PENTAGON (one face),
    TURTLE (the six-pentagon pattern), or OTHER, and it is maximal exactly
    when every face sharing an edge with it is a hexagon.  Non-disk clusters
    (whole sphere, annular belts) are reported with shape OTHER, maximal
    False, and their boundary cycles as found.
    """
    hexagons = frozenset(f.hexagon_ids)
    seen: set[int] = set()
    out: list[Fragment] = []
    for start in f.pentagon_ids:
        if start in seen:
            continue
        cluster = _face_component(f.faces, start, hexagons)
        seen |= cluster
        out.append(_classify_cluster(f, tuple(sorted(cluster))))
    out.sort(key=lambda fr: fr.faces)
    return out


def _classify_cluster(f: FullereneGraph, cluster: tuple[int, ...]) -> Fragment:
    fs = f.faces
    members = set(cluster)
    boundary_edges = _rim(fs, cluster)

    degrees: dict[int, int] = {}
    for u, v in boundary_edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    is_disk = False
    cycles: tuple[tuple[int, ...], ...] = ()
    if boundary_edges and all(d == 2 for d in degrees.values()):
        cycles = tuple(_edge_cycles(boundary_edges))
        is_disk = len(cycles) == 1

    # boundary vertices in exactly one cluster face
    vertex_faces = _faces_per_vertex(fs, cluster)
    w = frozenset(v for v in degrees if vertex_faces[v] == 1)

    gamma = min(len(members.intersection(fs.across(fid))) for fid in cluster)

    if not is_disk:
        return Fragment(cluster, cycles, w, gamma, True, False, "OTHER")

    neighbours = {g for fid in cluster for g in fs.across(fid)} - members
    maximal = all(fs[nb].size == 6 for nb in neighbours)

    if len(cluster) == 1:
        shape = "PENTAGON"
    elif len(cluster) == 6 and _is_turtle(fs, cluster):
        shape = "TURTLE"
    else:
        shape = "OTHER"
    return Fragment(cluster, cycles, w, gamma, True, maximal, shape)


def _is_turtle(fs: FaceSet, cluster: tuple[int, ...]) -> bool:
    """Whether six pentagons form the turtle adjacency pattern."""
    adj = {
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if fs.shared_edge(cluster[i], cluster[j]) is not None
    }
    if len(adj) != len(_TURTLE_EDGES):
        return False
    for perm in permutations(range(6)):
        mapped = {
            (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
            for a, b in _TURTLE_EDGES
        }
        if mapped == adj:
            return True
    return False
