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

``_build_ring`` checks the first two, which imply the rest: over the
integers 2(n5 + n6) = s + r + 2 forces r == s (mod 2); six times the first
less the second gives n5 = 3(s + r + 2) - (2s + 3r + l) = 6 + s - l; then
n6 = (s + r + 2)/2 - n5 = l + (r - s)/2 - 5.

A *pentagonal fragment* is a disk bounded by a cycle whose interior faces
are all pentagons.  Connected pentagon clusters are grown by flood fill over
shared edges; clusters whose union is not a disk (the whole sphere for the
dodecahedron, or an annular pentagon belt) are reported with shape OTHER and
not treated as maximal fragments.  A six-pentagon disk is a TURTLE exactly
when its faces meet 1, 1, 3, 3, 3 and 3 others of the cluster.

Rings and fragments share one representation of a face region: the
bitmask of each face's vertices, which the graph's ``FaceSet`` builds
once.  The "vertices on exactly one face" mask (``_once``) serves both;
the one flood fill, ``kernels._sweep``, grows the pentagon clusters, and
a ring reads its sides off spanning-tree parities.

The ring scan steps from face to face across the edges of the last face
(``FaceSet._across``) and tests each step against one vertex bitmask:
two fullerene faces share at most one edge, so the vertices of two faces
meet exactly when one is across the other, and then in the two ends of
that edge.  It walks each ring once, from its least face and in the
direction it is reported in.  A ring's two boundary cycles are read off
its faces: each face's boundary splits, at its edges to the previous and
next ring face, into one arc of each cycle, and the arcs of one side,
taken in ring order, make that cycle.  The arcs of each
(previous, face, next) triple are kept in the graph's ``_ring_arcs``,
since the rings of a graph pass through the same triples many times; the
face's edge to the next face, the edge the two share, is fixed by the
same triple, so it is kept with them and a ring looks up no shared edge.
So are the triple's parities, read off the graph's two spanning trees
(``_spanning_trees``): the XOR, over each arc's edges, of the faces below
each edge's dual tree edge, and the vertices below the shared edge's tree
edge.  A ring XORs these into its two sides and the vertices of each (see
``_build_ring``), keeps the sides as face bitmasks and lists their faces
only when asked.  Fragments find their boundary cycles by the rim walk
(``_rim``) and ``_edge_cycles``, which also fix the direction each ring
cycle is reported in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Literal

from . import kernels
from .errors import GraphError, check_int, check_ints, check_type
from .plane_graph import Edge, FaceSet, FullereneGraph, _cross

PENTAGONS_ONLY = "PENTAGONS_ONLY"
ANY = "ANY"


@dataclass(frozen=True)
class Ring:
    """A polygonal ring with its cycles and verified counting data.

    ``faces`` starts at the ring's least face, then goes to the smaller of
    its two neighbours in the ring.  Each cycle starts at its least vertex
    and leaves it along that vertex's rim edge (an edge on exactly one ring
    face) that comes first in rim order: by the position of its face in
    ``faces``, then by its index in that face's boundary.

    The faces of each side are kept as a bitmask (bit g set when face g
    lies on that side); ``inner_faces`` and ``outer_faces`` list them in
    ascending order.  Equality and hashing compare the masks.
    """

    faces: tuple[int, ...]
    shared_edges: tuple[Edge, ...]
    inner_cycle: tuple[int, ...]
    outer_cycle: tuple[int, ...]
    inner_face_mask: int
    outer_face_mask: int
    l: int
    s: int
    s_prime: int
    r: int
    n5: int
    n6: int
    all_pentagons: bool

    @property
    def inner_faces(self) -> tuple[int, ...]:
        """The faces strictly inside the inner cycle, ascending."""
        return _bits(self.inner_face_mask)

    @property
    def outer_faces(self) -> tuple[int, ...]:
        """The faces strictly beyond the outer cycle, ascending."""
        return _bits(self.outer_face_mask)


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
        GraphError: if f is not a ``FullereneGraph``, as every function of
            this module does, ``max_len`` is not an integer >= 0 or the
            filter is unknown.
    """
    check_type("graph", f, FullereneGraph)
    check_int("max_len", max_len, 0)
    if face_filter not in (PENTAGONS_ONLY, ANY):
        raise GraphError(f"unknown face filter {face_filter!r}")
    fs = f.faces
    roots = sorted(f.pentagon_ids) if face_filter == PENTAGONS_ONLY else range(len(fs))
    candidate = [False] * len(fs)
    for fid in roots:
        candidate[fid] = True
    pentagons = sum(1 << p for p in f.pentagon_ids)
    rings = [
        _build_ring(f, cycle, pentagons)
        for root in roots
        for cycle in _ring_cycles(fs, candidate, max_len, root)
    ]
    rings.sort(key=lambda r: (r.l, r.faces))
    return rings


def _ring_cycles(
    fs: FaceSet, candidate: list[bool], max_len: int, root: int
) -> list[tuple[int, ...]]:
    """The face cycles of the rings whose least face is ``root``, each once.

    A depth-first walk grows a face path ``seq`` from ``root`` over the
    dual, one step to a face across an edge of the last face.  A fullerene
    is cyclically 5-edge-connected (Došlić 2003), so two faces share at
    most one edge: the vertex masks of two distinct faces meet exactly when
    each is across the other, and then in the two ends of their one shared
    edge (``FaceSet``).

    A ring is reported in the one direction whose second face is less than
    its last, and only that direction is walked.  Let ``near`` be the
    candidates above the root that are across it.  Two faces of a ring
    share a vertex only when they are consecutive, so a face of ``near``
    can only be the second or the last face of a ring through the root.
    For each second face a in ``near``, ascending, the walk starts at
    ``(root, a)``: the faces of ``near`` above a are its closers, and those
    at or below a are out of reach (a itself, or a last face that would
    report the ring the other way round).  The root, the faces below it and
    the non-candidates are out of reach too.

    The walk is pruned by dual distance: ``dist[g]`` is the length of a
    shortest dual path from g to a closer, counting the closer, over the
    candidates above the root that are not in ``near``.  A ring through g
    still needs at least ``dist[g] - 1`` faces after g, so g is entered
    only when such a ring fits in ``max_len``; a face out of reach has a
    distance past any bound.  A closer (distance 1) only closes the ring.
    Each frame holds its whole path, built on push and dropped on pop:
    ``seq`` as a tuple, and one bitmask that a step must miss.  The mask
    starts as the ends of the root's edge to a, and each push ORs in the
    vertices of the face that was last, so from the third face on it is
    the vertices of ``seq[1:-1]``.  Missing it keeps non-consecutive faces
    vertex-disjoint, and keeps the edges shared along ``seq`` a matching:
    from the third face on, each shared edge lies on a face of
    ``seq[1:-1]`` (the root's edge to a on a, each later one on the earlier
    of its two faces), and the step's edge lies on the face it enters; at
    ``(root, a)`` a step to g meets the mask exactly in the ends that its
    edge to a shares with the root's edge to a.

    No face of ``seq`` is entered again: the root and a are out of reach,
    and a face of ``seq[1:-1]`` meets the mask.  A closer g that misses the
    mask closes the ring with no test of its edge to the root.  Its ends
    lie on the root, and of the faces of ``seq`` only the root and a are
    across the root, so it could meet a shared edge only at the root's edge
    to a, at a vertex of root, a and g.  That vertex is an end of the
    root's edge to a, which the mask holds from the start, so g was refused.
    """
    across = fs._across
    vertices = fs.vertex_masks
    out_of_reach = max_len + 1
    near = {g for g in across[root] if g > root and candidate[g]}
    middle = [g > root and candidate[g] and g not in near for g in range(len(across))]
    order = sorted(near)
    out: list[tuple[int, ...]] = []
    for i, a in enumerate(order[:-1]):
        layer = order[i + 1 :]
        dist = [out_of_reach] * len(across)
        for b in layer:
            dist[b] = 1
        for d in range(2, max_len - 1):
            if not layer:
                break  # every face in reach has its distance
            nxt = []
            for x in layer:
                for g in across[x]:
                    if middle[g] and dist[g] > d:
                        dist[g] = d
                        nxt.append(g)
            layer = nxt

        # Frames (the faces across seq[-1] left to try, the faces of seq,
        # the vertices a step must miss).
        stack = [(iter(across[a]), (root, a), vertices[root] & vertices[a])]
        while stack:
            todo, seq, mask = stack[-1]
            room = max_len - len(seq)
            for g in todo:
                if dist[g] > room or vertices[g] & mask:
                    continue
                if dist[g] == 1:
                    out.append(seq + (g,))
                    continue
                stack.append((iter(across[g]), seq + (g,), mask | vertices[seq[-1]]))
                break
            else:
                stack.pop()
    return out


def _check(ok: bool, identity: str, faces: tuple[int, ...]) -> None:
    if not ok:
        raise RuntimeError(f"ring {faces}: {identity} fails")


def _build_ring(f: FullereneGraph, faces_cycle: tuple[int, ...], pentagons: int) -> Ring:
    """Compute cycles, sides, and counts for a validated face cycle.

    ``pentagons`` is the bitmask of the graph's pentagons; the caller builds
    it once for all the rings it builds.

    The faces must be a cycle of faces each across the next, as the scan
    and ``ring_stats`` give them.  One pass over the (previous, face, next)
    triples reads each face's arcs and its edge to the next face from
    ``_arc``'s table, the graph's ``_ring_arcs``.  The two boundary
    cycles are walked along the arcs (see the module docstring): the
    boundary is two cycles when neither walk meets a vertex twice and they
    share none.  Each shared edge is a rung when its end that ``_arc`` puts
    on cycle A (a bit of ``xs``) lies on A and its other end (a bit of
    ``ys``) on B.  Face and vertex sets are int bitmasks (``f.faces`` holds
    one per face).

    The sides come from two breadth-first spanning trees, one of the dual
    from face 0 and one of the graph from vertex 0 (the graph's
    ``_spanning_trees``), with no flood fill.
    The dual tree path from face 0 to a face g crosses an edge's dual exactly
    when g lies below that edge's dual tree edge, and it crosses a cycle an
    odd number of times exactly when the cycle separates g from face 0.  So
    the XOR over a cycle's edges of the faces below each is the set of faces
    the cycle separates from face 0: for cycle A, side A when face 0 is not
    on it, else the ring and side B.  Side A is that XOR, or its complement
    when the XOR meets the ring; side B is read off cycle B alike, never as
    the complement of side A, so that the check that the ring splits the
    other faces into two sides still tests something.  Each arc of the
    ``_ring_arcs`` keeps the XOR over its own edges, so a ring XORs l of
    them per side.  The rungs are the edges between the vertices on the
    faces of side A (cycle A and those inside it) and those on side B's, so
    by the same argument on the graph's tree the XOR over the rungs of the
    vertices below each is the one of these two sets that misses vertex 0.
    A side's vertices are that set or its complement, whichever holds its
    cycle, and they must miss the other cycle; r is their popcount less the
    cycle's length, and s a popcount of the cycle's vertices on exactly one
    ring face.  The cycles are sorted only when s and r tie, to pick the
    inner side.

    Raises:
        RuntimeError: naming the ring structure or counting identity that
            fails (a scanner or embedding bug).
    """
    fs = f.faces
    l = len(faces_cycle)
    nexts = faces_cycle[1:] + faces_cycle[:1]
    # Each ring face's boundary between its two shared edges: the edges after
    # the one to the previous face form an arc of cycle A, the edges after
    # the one to the next face an arc of cycle B.  Both walks take the arcs
    # in ring order, A running each arc forward and B backward.
    shared: list[Edge] = []
    a_vs: list[int] = []
    b_vs: list[int] = []
    a_cm = b_cm = a_own = b_own = firsts = xs = ys = ring = a_par = b_par = cut = 0
    arcs = f._ring_arcs
    prev = faces_cycle[-1]
    for fid, nxt in zip(faces_cycle, nexts):
        arc = arcs.get((prev, fid, nxt))
        if arc is None:
            arc = _arc(f, arcs, prev, fid, nxt)
        a_arc, b_arc, a_bits, b_bits, a_far, b_far, first, edge, x, y, a_x, b_x, rung = arc
        prev = fid
        shared.append(edge)
        a_vs += a_arc
        b_vs += b_arc
        a_cm |= a_bits
        b_cm |= b_bits
        a_own |= a_far
        b_own |= b_far
        firsts |= first
        xs |= x
        ys |= y
        a_par ^= a_x
        b_par ^= b_x
        cut ^= rung
        ring |= 1 << fid
    ends = xs | ys
    _check(ends.bit_count() == 2 * l, "shared edges form a matching", faces_cycle)
    # a vertex in two arcs of one walk loses a bit of its mask
    _check(
        a_cm.bit_count() == len(a_vs) and b_cm.bit_count() == len(b_vs) and not a_cm & b_cm,
        "the boundary is two cycles",
        faces_cycle,
    )
    cycles = (_oriented(a_vs, True, ends, firsts), _oriented(b_vs, False, ends, firsts))
    # rung structure: each shared edge has one endpoint on each cycle
    _check(
        not (xs & ~a_cm | ys & a_cm | ys & ~b_cm | xs & b_cm),
        "each shared edge is a rung",
        faces_cycle,
    )

    once = _once(fs, faces_cycle)

    # the two sides: the faces each cycle parts from the ring, and their vertices
    all_faces = (1 << len(fs)) - 1
    all_vertices = (1 << f.n) - 1
    sides = []
    for cyc, cm, other, own, parity in zip(
        cycles, (a_cm, b_cm), (b_cm, a_cm), (a_own, b_own), (a_par, b_par)
    ):
        side = all_faces ^ parity if parity & ring else parity
        _check(not own & ~side, "one side owns each cycle", faces_cycle)
        s = (cm & once).bit_count()
        _check(len(cyc) == l + s, "cycle length l + s", faces_cycle)
        covered = cut if not cm & ~cut else all_vertices ^ cut
        _check(not cm & ~covered and not other & covered, "the side holds its cycle", faces_cycle)
        sides.append((s, covered.bit_count() - len(cyc), cyc, side))

    # the inner side: smaller s, then fewer interior vertices r, then the
    # lexicographically smaller sorted cycle (two disjoint cycles never tie)
    inner_side, outer_side = sides
    if outer_side[:2] < inner_side[:2] or (
        outer_side[:2] == inner_side[:2] and sorted(outer_side[2]) < sorted(inner_side[2])
    ):
        inner_side, outer_side = outer_side, inner_side
    s, r, inner_cyc, inner = inner_side
    s_prime, _, outer_cyc, outer = outer_side
    _check(
        not inner & outer
        and not (inner | outer) & ring
        and inner.bit_count() + outer.bit_count() + l == len(fs),
        "the ring splits the other faces into two sides",
        faces_cycle,
    )
    n5 = (inner & pentagons).bit_count()
    n6 = inner.bit_count() - n5

    all_pent = not ring & ~pentagons
    _check(s != 1 and s_prime != 1, "s, s' != 1", faces_cycle)
    _check(2 * (n5 + n6) == s + r + 2, "n5 + n6 = (s + r + 2)/2", faces_cycle)
    _check(5 * n5 + 6 * n6 == 2 * s + 3 * r + l, "5 n5 + 6 n6 = 2s + 3r + l", faces_cycle)
    _check(not all_pent or s + s_prime == l, "s + s' = l on a pentagonal ring", faces_cycle)

    return Ring(
        faces_cycle,
        tuple(shared),
        inner_cyc,
        outer_cyc,
        inner,
        outer,
        l,
        s,
        s_prime,
        r,
        n5,
        n6,
        all_pent,
    )


def _arc(f: FullereneGraph, arcs: dict, prev: int, fid: int, nxt: int) -> tuple:
    """Face ``fid``'s two arcs between its edges to ``prev`` and ``nxt``, kept in ``arcs``.

    The caller has checked that ``fid`` meets both faces.  Returns the A
    arc's vertices (edges p + 1 .. q - 1 of the face, p and q the positions
    of ``prev`` and ``nxt`` in ``fs._across[fid]``), the B arc's vertices
    (edges q + 1 .. p - 1, run backward), the vertex mask of each, the mask
    of the faces across the edges of each, the bit of the face's first
    boundary vertex, the edge q that ``fid`` shares with ``nxt``, and the
    bits of that edge's ends: ``1 << vs[q]``, where the A arc ends, and
    ``1 << vs[q + 1]``, where the B arc ends (``vs`` the boundary).  A walk
    lists the first vertex of each of its edges, so an arc's last edge ends
    where the next face's arc starts.  Last come the parities read off the
    graph's ``_spanning_trees``: the XOR over the A arc's edges and over the B
    arc's edges of the faces below each in the dual's tree, and the vertices
    below edge q in the graph's.
    """
    fs = f.faces
    vs2 = fs.faces[fid].boundary * 2
    far2 = fs._across[fid] * 2
    size = len(vs2) >> 1
    p = far2.index(prev)
    q = far2.index(nxt)
    qa = q + size if q < p else q
    pb = p + size if p < q else p
    a_vs, b_vs = vs2[p + 1 : qa], vs2[pb : q + 1 : -1]
    faces_tree, vertices_tree = f._spanning_trees
    arc = arcs[prev, fid, nxt] = (
        a_vs,
        b_vs,
        sum(1 << v for v in a_vs),
        sum(1 << v for v in b_vs),
        sum(1 << g for g in set(far2[p + 1 : qa])),
        sum(1 << g for g in set(far2[q + 1 : pb])),
        1 << vs2[0],
        fs.faces[fid].boundary_edges()[q],
        1 << vs2[q],
        1 << vs2[q + 1],
        _cross(faces_tree, fid, far2[p + 1 : qa]),
        _cross(faces_tree, fid, far2[q + 1 : pb]),
        _cross(vertices_tree, vs2[q], (vs2[q + 1],)),
    )
    return arc


def _oriented(vs: list[int], forward: bool, ends: int, firsts: int) -> tuple[int, ...]:
    """The closed walk ``vs`` in the direction ``_edge_cycles`` gives it on the rim.

    ``_edge_cycles`` starts at the least vertex m and leaves it along the
    rim edge of m that comes first in rim order: by the position i of its
    face in the ring, then by its index j in the face boundary (key
    8 * i + j).  The walk's edge t runs from ``vs[t]`` to ``vs[t + 1]``;
    it runs each face arc ``forward`` in boundary order or against it, face
    0's arc first.  So at m = ``vs[t]``:

    - t = 0: m starts face 0's arc, and its outgoing edge comes first;
    - m ends a shared edge (a bit of ``ends``): it joins two arcs, and its
      incoming edge lies in the earlier face and comes first;
    - otherwise both edges lie in the one ring face m is on, at consecutive
      indices, and the edge leaving m in boundary order comes first only at
      the face's first boundary vertex (then a bit of ``firsts``), where the
      other edge has the last index.
    """
    t = vs.index(min(vs))
    m = vs[t]
    if t == 0 or (not ends >> m & 1 and bool(firsts >> m & 1) == forward):
        return tuple(vs[t:] + vs[:t])
    return tuple(vs[t::-1] + vs[:t:-1])


def _rim(fs: FaceSet, faces: Iterable[int], inside: int) -> list[Edge]:
    """The edges on exactly one of ``faces``.

    ``inside`` is the bitmask of ``faces``.  The edges come in face then
    boundary order, which fixes the direction ``_edge_cycles`` gives each
    fragment boundary cycle; ``_build_ring`` orients ring cycles by the same
    order without building the rim.
    """
    return [
        e
        for fid in faces
        for e, g in zip(fs.faces[fid].boundary_edges(), fs._across[fid])
        if not inside >> g & 1
    ]


def _once(fs: FaceSet, faces: Iterable[int]) -> int:
    """The bitmask of the vertices on exactly one of ``faces``."""
    vertices = fs.vertex_masks
    seen = twice = 0
    for fid in faces:
        twice |= seen & vertices[fid]
        seen |= vertices[fid]
    return seen & ~twice


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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


def ring_stats(f: FullereneGraph, ring: Ring) -> Ring:
    """Recompute a ring's statistics from the embedding, checking the identities.

    The faces must make a polygonal ring as the module docstring defines
    it, checked on the face masks before any ring structure is built: each
    is across the next, faces that are not consecutive share no vertex
    (which keeps the faces distinct, as no face is across itself), and the
    edges consecutive faces share form a matching (two fullerene faces
    across each other share exactly one edge's ends).  They are then put in
    the scan's order (least face first, then the smaller of its two
    neighbours), so a rotated or reversed face order of a ring gives back
    the ring in its documented form.

    Raises:
        GraphError: if f is not a ``FullereneGraph`` or ring not a
            ``Ring``, naming the face id that is not an integer face of
            ``f``, or if the faces are fewer than 3 or make no polygonal ring.
        RuntimeError: if a counting identity fails (scanner or embedding
            bug) or the recomputed (l, s, s', r, n5, n6) differ from the ring's.
    """
    check_type("graph", f, FullereneGraph)
    faces = tuple(check_ints("ring face", check_type("ring", ring, Ring).faces))
    if len(faces) < 3:
        raise GraphError(f"a ring has at least 3 faces, got {len(faces)}")
    for fid in faces:
        if check_int("ring face", fid, 0) >= len(f.faces):
            raise GraphError(
                f"ring face {fid} is not a face of the graph, which has {len(f.faces)} faces"
            )
    vertices = f.faces.vertex_masks
    ends = 0
    for i, a in enumerate(faces):
        if faces[i - 1] not in f.faces._across[a]:
            raise GraphError(f"ring faces {faces[i - 1]} and {a} are consecutive but share no edge")
        ends |= vertices[a] & vertices[faces[i - 1]]
        # the faces after a that are not consecutive to it
        if any(vertices[a] & vertices[c] for c in faces[i + 2 : len(faces) - (i == 0)]):
            raise GraphError(f"ring faces {faces}: two that are not consecutive share a vertex")
    if ends.bit_count() != 2 * len(faces):
        raise GraphError(f"ring faces {faces}: their shared edges do not form a matching")
    least = faces.index(min(faces))
    faces = faces[least:] + faces[:least]
    if faces[-1] < faces[1]:
        faces = faces[:1] + faces[:0:-1]
    rebuilt = _build_ring(f, faces, sum(1 << p for p in f.pentagon_ids))
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
    ``psi``, ``detect_r5_r6`` and the CLI report share the one scan, and its
    check of f.
    """
    return check_type("graph", f, FullereneGraph)._pentagonal_rings


def tau(f: FullereneGraph) -> int | None:
    """Minimum pentagonal-ring length, or None when no pentagonal ring exists.

    The value lies in 5..12: the scan stops at 12, and a ring's l shared
    edges part its two boundary cycles, a cyclic cut, so l >= 5 (Došlić
    2003).  A minimum of 7 is warned of rather than raised, since no
    argument rules it out here: a hit would be a finding about the input
    or a bug worth surfacing loudly.
    """
    rings = pentagonal_rings(f)
    if not rings:
        return None
    value = min(r.l for r in rings)
    if value == 7:
        warnings.warn("pentagonal-ring minimum 7 should be impossible for fullerene graphs")
    return value


def psi(f: FullereneGraph, l: int) -> int | None:
    """Minimum s over pentagonal rings of length l, or None when none exist."""
    check_int("ring length", l)
    values = [r.s for r in pentagonal_rings(f) if r.l == l]
    return min(values) if values else None


def detect_r5_r6(f: FullereneGraph) -> list[CapWitness]:
    """All R5/R6 caps: pentagonal rings of length 5 or 6 closing around one face.

    Also checks that every pentagonal ring of length 5 has s = 0 (they are
    always caps), raising RuntimeError otherwise.  Reads the graph's one
    pentagonal ring scan, which is sorted by (l, faces).
    """
    out = []
    for ring in pentagonal_rings(f):
        if ring.l > 6:
            break
        if ring.l == 5:
            _check(ring.s == 0, "s = 0 on a pentagonal 5-ring", ring.faces)
        if ring.l in (5, 6) and ring.s == 0 and ring.inner_face_mask.bit_count() == 1:
            out.append(CapWitness("R5" if ring.l == 5 else "R6", ring))
    return out


# ---------------------------------------------------------------------------
# pentagonal fragments
# ---------------------------------------------------------------------------


def maximal_pentagonal_fragments(f: FullereneGraph) -> list[Fragment]:
    """Classify every connected pentagon cluster of the graph.

    Each cluster is one ``kernels._sweep`` over the faces across faces, with
    the hexagons marked first.  A cluster whose union is a disk is a genuine
    fragment: its shape is PENTAGON (one face), TURTLE (the six-pentagon
    pattern), or OTHER, and it is maximal exactly when every face sharing an
    edge with it is a hexagon.
    Non-disk clusters (whole sphere, annular belts) are reported with shape
    OTHER, maximal False, and their boundary cycles as found.
    """
    check_type("graph", f, FullereneGraph)
    mark = [0] * len(f.faces)
    for h in f.hexagon_ids:
        mark[h] = 1
    out = [
        _classify_cluster(f, sum(1 << x for x in kernels._sweep(f.faces._across, mark, p, 1)))
        for p in f.pentagon_ids
        if not mark[p]
    ]
    out.sort(key=lambda fr: fr.faces)
    return out


def _classify_cluster(f: FullereneGraph, members: int) -> Fragment:
    """Boundary, free vertices, gamma and shape of the cluster whose face mask is ``members``.

    The rim of a face set in a cubic plane graph is always 2-regular (a rim
    vertex lies on one or two of the set's three faces around it, and in
    either case on exactly two rim edges), so ``_edge_cycles`` splits it
    into cycles; a vertex on exactly one cluster face is always on the rim.
    """
    fs = f.faces
    cluster = _bits(members)
    cycles = tuple(_edge_cycles(_rim(fs, cluster, members)))
    w = frozenset(_bits(_once(fs, cluster)))
    # the number of cluster faces sharing an edge with each cluster face
    degrees = [sum(members >> g & 1 for g in fs._across[fid]) for fid in cluster]
    gamma = min(degrees)

    if len(cycles) != 1:
        return Fragment(cluster, cycles, w, gamma, True, False, "OTHER")

    if len(cluster) == 1:
        shape = "PENTAGON"
    elif len(cluster) == 6 and _is_turtle(degrees):
        shape = "TURTLE"
    else:
        shape = "OTHER"
    # maximal: the sweep grows the cluster until only hexagons are across it
    return Fragment(cluster, cycles, w, gamma, True, True, shape)


def _is_turtle(degrees: list[int]) -> bool:
    """Whether six pentagons, with these cluster degrees, form the turtle pattern.

    The turtle is K4 minus an edge with a pendant face on each end of the
    missing edge.  A cluster is connected and two faces share at most one
    edge, and the turtle is the one connected graph on six vertices with
    degrees 1, 1, 3, 3, 3, 3.
    """
    return sorted(degrees) == [1, 1, 3, 3, 3, 3]
