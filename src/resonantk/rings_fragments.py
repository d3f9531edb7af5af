"""Polygonal rings, pentagonal fragments, and their Euler bookkeeping.

A *polygonal ring* is a cyclic sequence of l >= 3 faces in which consecutive
faces share exactly one edge (and no other vertex), non-consecutive faces are
vertex-disjoint, and the l shared edges form a matching.  The union of the
ring faces is bounded by two disjoint cycles; writing s and s' for the number
of vertices on each cycle lying in only one ring face, the cycle lengths are
l + s and l + s', and the faces strictly inside the cycle with the smaller
count (ties broken lexicographically) satisfy four counting identities:

    n5 + n6 = (s + r + 2) / 2          5*n5 + 6*n6 = 2*s + 3*r + l
    n5 = 6 + s - l                     n6 = l + (r - s)/2 - 5

with r the number of vertices strictly inside, and r == s (mod 2).  For
pentagonal rings (all ring faces pentagons) additionally s + s' = l.

A *pentagonal fragment* is a disk bounded by a cycle whose interior faces
are all pentagons.  Connected pentagon clusters are grown by flood fill over
shared edges; clusters whose union is not a disk (the whole sphere for the
dodecahedron, or an annular pentagon belt) are reported with shape OTHER and
not treated as maximal fragments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations
from typing import Literal

from .errors import GraphError
from .plane_graph import Edge, Face, FullereneGraph

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


def _face_relation(a: Face, b: Face) -> Edge | None:
    """The unique properly shared edge, or None.

    Proper means the faces intersect in exactly that edge's two endpoints.
    """
    common = a.vertices & b.vertices
    if len(common) != 2:
        return None
    shared = set(a.boundary_edges()) & set(b.boundary_edges())
    if len(shared) != 1:
        return None
    edge = next(iter(shared))
    return edge if set(edge) == common else None


def find_polygonal_rings(
    f: FullereneGraph, max_len: int = 12, face_filter: str = ANY
) -> list[Ring]:
    """All polygonal rings of length 3..max_len, each reported once.

    The scan anchors every ring at its least face id and canonicalises the
    direction, so each ring appears exactly once.  ``face_filter`` narrows
    candidate faces to pentagons (PENTAGONS_ONLY) or allows all (ANY).
    """
    if face_filter not in (PENTAGONS_ONLY, ANY):
        raise GraphError(f"unknown face filter {face_filter!r}")
    if face_filter == PENTAGONS_ONLY:
        candidates = set(f.pentagon_ids)
    else:
        candidates = set(range(len(f.faces)))

    relation: dict[tuple[int, int], Edge | None] = {}

    def rel(a: int, b: int) -> Edge | None:
        key = (a, b) if a < b else (b, a)
        if key not in relation:
            relation[key] = _face_relation(f.faces[key[0]], f.faces[key[1]])
        return relation[key]

    rings: list[Ring] = []
    order = sorted(candidates)
    for root in order:
        root_vs = f.faces[root].vertices
        seq = [root]
        used_edge_vs: list[frozenset[int]] = []

        def extend() -> None:
            last = seq[-1]
            for g in order:
                if g <= root or g in seq:
                    continue
                e = rel(last, g)
                if e is None:
                    continue
                ev = frozenset(e)
                if any(ev & prev for prev in used_edge_vs):
                    continue
                gvs = f.faces[g].vertices
                # vertex-disjoint from every earlier non-consecutive face
                if any(gvs & f.faces[seq[i]].vertices for i in range(1, len(seq) - 1)):
                    continue
                rvs = gvs & root_vs
                # close the ring with g as its final face (direction: seq[1] < g)
                if len(seq) >= 2 and len(seq) + 1 <= max_len and seq[1] < g:
                    ce = rel(g, root)
                    if ce is not None and set(ce) == rvs:
                        cev = frozenset(ce)
                        if not (cev & ev) and not any(cev & prev for prev in used_edge_vs):
                            rings.append(_build_ring(f, tuple(seq) + (g,)))
                if rvs and len(seq) >= 2:
                    continue  # beyond position 1, touching the root means closing only
                if len(seq) + 2 <= max_len:
                    seq.append(g)
                    used_edge_vs.append(ev)
                    extend()
                    seq.pop()
                    used_edge_vs.pop()

        extend()
    rings.sort(key=lambda r: (r.l, r.faces))
    return rings


def _build_ring(f: FullereneGraph, faces_cycle: tuple[int, ...]) -> Ring:
    """Compute cycles, sides, and counts for a validated face cycle."""
    l = len(faces_cycle)
    shared = []
    for i in range(l):
        e = _face_relation(f.faces[faces_cycle[i]], f.faces[faces_cycle[(i + 1) % l]])
        assert e is not None
        shared.append(e)
    shared_vs = [frozenset(e) for e in shared]
    for i in range(l):
        for j in range(i + 1, l):
            assert not (shared_vs[i] & shared_vs[j])

    ring_faces = set(faces_cycle)
    # boundary edges: on exactly one ring face
    edge_count: dict[Edge, int] = {}
    for fid in faces_cycle:
        for e in f.faces[fid].boundary_edges():
            edge_count[e] = edge_count.get(e, 0) + 1
    assert all(c <= 2 for c in edge_count.values())
    boundary_edges = [e for e, c in edge_count.items() if c == 1]
    cycles = _edge_cycles(boundary_edges)
    assert len(cycles) == 2, f"ring boundary fell apart into {len(cycles)} cycles"
    cyc_a, cyc_b = cycles

    # rung structure: each shared edge has one endpoint on each cycle
    set_a, set_b = set(cyc_a), set(cyc_b)
    for ev in shared_vs:
        assert len(ev & set_a) == 1 and len(ev & set_b) == 1

    # single-face vertex counts per cycle
    vertex_faces: dict[int, int] = {}
    for fid in faces_cycle:
        for v in f.faces[fid].vertices:
            vertex_faces[v] = vertex_faces.get(v, 0) + 1
    s_a = sum(1 for v in cyc_a if vertex_faces[v] == 1)
    s_b = sum(1 for v in cyc_b if vertex_faces[v] == 1)
    assert len(cyc_a) == l + s_a and len(cyc_b) == l + s_b

    # the two sides: components of face adjacency once ring faces are removed
    comp = _side_components(f, ring_faces)
    assert len(comp) == 2, f"removing the ring leaves {len(comp)} face components"
    side_of_cycle = []
    for cyc in (cyc_a, cyc_b):
        cyc_edges = set()
        for i in range(len(cyc)):
            u, v = cyc[i], cyc[(i + 1) % len(cyc)]
            cyc_edges.add((u, v) if u < v else (v, u))
        owners = set()
        for fid in range(len(f.faces)):
            if fid in ring_faces:
                continue
            if set(f.faces[fid].boundary_edges()) & cyc_edges:
                owners.add(0 if fid in comp[0] else 1)
        assert len(owners) == 1
        side_of_cycle.append(owners.pop())
    assert side_of_cycle[0] != side_of_cycle[1]

    # choose the inner side: smaller s, then lexicographically smaller cycle
    if (s_a, tuple(sorted(cyc_a))) <= (s_b, tuple(sorted(cyc_b))):
        inner_cyc, outer_cyc, s, s_prime = cyc_a, cyc_b, s_a, s_b
        inner_faces = tuple(sorted(comp[side_of_cycle[0]]))
        outer_faces = tuple(sorted(comp[side_of_cycle[1]]))
    else:
        inner_cyc, outer_cyc, s, s_prime = cyc_b, cyc_a, s_b, s_a
        inner_faces = tuple(sorted(comp[side_of_cycle[1]]))
        outer_faces = tuple(sorted(comp[side_of_cycle[0]]))

    inner_vertices = set()
    for fid in inner_faces:
        inner_vertices |= f.faces[fid].vertices
    r = len(inner_vertices) - len(inner_cyc)
    assert inner_vertices >= set(inner_cyc)
    n5 = sum(1 for fid in inner_faces if f.faces[fid].size == 5)
    n6 = sum(1 for fid in inner_faces if f.faces[fid].size == 6)

    all_pent = all(f.faces[fid].size == 5 for fid in faces_cycle)
    assert s != 1 and s_prime != 1
    assert r % 2 == s % 2
    assert 2 * (n5 + n6) == s + r + 2
    assert 5 * n5 + 6 * n6 == 2 * s + 3 * r + l
    assert n5 == 6 + s - l
    assert 2 * n6 == 2 * l + (r - s) - 10
    if all_pent:
        assert s + s_prime == l

    return Ring(
        tuple(faces_cycle),
        tuple(shared),
        tuple(inner_cyc),
        tuple(outer_cyc),
        inner_faces,
        outer_faces,
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
    assert all(len(ns) == 2 for ns in adj.values())
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


def _side_components(f: FullereneGraph, removed: set[int]) -> list[set[int]]:
    """Connected components of face adjacency after deleting ``removed``."""
    remaining = [fid for fid in range(len(f.faces)) if fid not in removed]
    adjacency: dict[int, set[int]] = {fid: set() for fid in remaining}
    for arc, fid in f.faces._arc_face.items():
        if fid in removed:
            continue
        other = f.faces.face_of_arc((arc[1], arc[0]))
        if other in removed or other == fid:
            continue
        adjacency[fid].add(other)
    seen: set[int] = set()
    comps = []
    for fid in remaining:
        if fid in seen:
            continue
        stack, comp = [fid], set()
        seen.add(fid)
        while stack:
            x = stack.pop()
            comp.add(x)
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def ring_stats(f: FullereneGraph, ring: Ring) -> Ring:
    """Recompute a ring's statistics from the embedding, asserting the identities.

    Raises:
        AssertionError: if any counting identity fails (scanner or embedding bug).
    """
    rebuilt = _build_ring(f, ring.faces)
    assert (rebuilt.l, rebuilt.s, rebuilt.s_prime, rebuilt.r, rebuilt.n5, rebuilt.n6) == (
        ring.l,
        ring.s,
        ring.s_prime,
        ring.r,
        ring.n5,
        ring.n6,
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

    Also asserts that every pentagonal ring of length 5 has s = 0 (they are
    always caps).
    """
    rings = find_polygonal_rings(f, max_len=6, face_filter=PENTAGONS_ONLY)
    out = []
    for ring in rings:
        if ring.l == 5:
            assert ring.s == 0, "a length-5 pentagonal ring must close around a single face"
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
    pent = set(f.pentagon_ids)
    seen: set[int] = set()
    out: list[Fragment] = []
    for start in f.pentagon_ids:
        if start in seen:
            continue
        cluster = {start}
        stack = [start]
        seen.add(start)
        while stack:
            fid = stack.pop()
            for nb in _adjacent_faces(f, fid):
                if nb in pent and nb not in seen:
                    seen.add(nb)
                    cluster.add(nb)
                    stack.append(nb)
        out.append(_classify_cluster(f, tuple(sorted(cluster))))
    out.sort(key=lambda fr: fr.faces)
    return out


def _adjacent_faces(f: FullereneGraph, fid: int) -> set[int]:
    face = f.faces[fid]
    return {
        f.faces.face_of_arc((b, a))
        for a, b in face.boundary_arcs()
    }


def _classify_cluster(f: FullereneGraph, cluster: tuple[int, ...]) -> Fragment:
    edge_count: dict[Edge, int] = {}
    for fid in cluster:
        for e in f.faces[fid].boundary_edges():
            edge_count[e] = edge_count.get(e, 0) + 1
    boundary_edges = [e for e, c in edge_count.items() if c == 1]

    degrees: dict[int, int] = {}
    for u, v in boundary_edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    is_disk = False
    cycles: tuple[tuple[int, ...], ...] = ()
    if boundary_edges and all(d == 2 for d in degrees.values()):
        cycles = tuple(_edge_cycles(boundary_edges))
        is_disk = len(cycles) == 1

    # vertices in exactly one cluster face
    vertex_faces: dict[int, int] = {}
    for fid in cluster:
        for v in f.faces[fid].vertices:
            vertex_faces[v] = vertex_faces.get(v, 0) + 1
    boundary_vs = {v for e in boundary_edges for v in e}
    w = frozenset(v for v in boundary_vs if vertex_faces[v] == 1)

    gamma = min(
        sum(1 for nb in _adjacent_faces(f, fid) if nb in cluster) for fid in cluster
    )

    if not is_disk:
        return Fragment(cluster, cycles, w, gamma, True, False, "OTHER")

    neighbours = set()
    for fid in cluster:
        neighbours |= _adjacent_faces(f, fid)
    neighbours -= set(cluster)
    maximal = all(f.faces[nb].size == 6 for nb in neighbours)

    if len(cluster) == 1:
        shape = "PENTAGON"
    elif len(cluster) == 6 and _is_turtle(f, cluster):
        shape = "TURTLE"
    else:
        shape = "OTHER"
    return Fragment(cluster, cycles, w, gamma, True, maximal, shape)


def _is_turtle(f: FullereneGraph, cluster: tuple[int, ...]) -> bool:
    """Whether six pentagons form the turtle adjacency pattern."""
    ids = list(cluster)
    adj = set()
    for i in range(6):
        for j in range(i + 1, 6):
            if _face_relation(f.faces[ids[i]], f.faces[ids[j]]) is not None:
                adj.add((i, j))
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
