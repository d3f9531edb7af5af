"""Plane cubic graphs as rotation systems.

A graph is given by listing, for every vertex, its three neighbours in
clockwise order.  That is enough to recover the whole embedding: faces are
traced arc by arc, where the successor of the directed edge (u, v) is (v, w)
with w the neighbour immediately following u in the clockwise rotation at v.
Under this convention each face keeps its interior on the right of its
directed boundary, and the traced faces partition the 3V arcs; V - E + F = 2
then certifies a sphere embedding.

The module provides parsing/serialisation of the ``.rot`` text format,
face tracing, fullerene validation, vertex deletion (induced subgraphs),
bipartiteness with an odd-cycle witness, a canonical code deciding
plane-isomorphism (reflections included), and a cyclic edge-connectivity
check.  That check reads cuts off short dual cycles: a graph has a cyclic
cut of fewer than k edges exactly when its dual has a cycle of some length
l < k with at least l vertices on each side.  It costs O(n) for each fixed
k and has no size guard.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import GraphError, GuardExceeded, NotFullereneError, check_int

Arc = tuple[int, int]
Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedGraph:
    """A connected plane cubic simple graph, stored as a rotation system.

    ``rotation[v]`` lists the three neighbours of v in clockwise order.
    Instances are produced by :func:`parse_graph` (or trusted internal
    constructions) and are immutable.
    """

    rotation: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        return len(self.rotation)

    def neighbors(self, v: int) -> tuple[int, int, int]:
        return self.rotation[v]

    def edges(self) -> list[Edge]:
        """All undirected edges as (u, v) pairs with u < v, sorted."""
        return sorted(
            (v, w) if v < w else (w, v)
            for v in range(self.n)
            for w in self.rotation[v]
            if v < w
        )

    def arcs(self) -> list[Arc]:
        """All 3V directed edges, sorted."""
        return sorted((v, w) for v in range(self.n) for w in self.rotation[v])

    def cw_next(self, u: int, v: int) -> int:
        """The neighbour of v immediately following u in clockwise order."""
        ring = self.rotation[v]
        return ring[(ring.index(u) + 1) % 3]

    def cw_prev(self, u: int, v: int) -> int:
        """The neighbour of v immediately preceding u in clockwise order."""
        ring = self.rotation[v]
        return ring[(ring.index(u) - 1) % 3]

    def next_arc(self, arc: Arc) -> Arc:
        """Face-tracing successor of ``arc``; the face stays on the right."""
        u, v = arc
        return (v, self.cw_next(u, v))

    def prev_arc(self, arc: Arc) -> Arc:
        """Face-tracing predecessor of ``arc``."""
        u, v = arc
        return (self.cw_prev(v, u), u)


@dataclass(frozen=True)
class Face:
    """One traced face: its boundary vertex cycle, starting at the least arc."""

    index: int
    boundary: tuple[int, ...]
    vertices: frozenset[int]
    _edges: tuple[Edge, ...] = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.boundary)

    def boundary_edges(self) -> tuple[Edge, ...]:
        """The boundary's undirected edges, in cycle order."""
        return self._edges

    def boundary_arcs(self) -> tuple[Arc, ...]:
        b = self.boundary
        return tuple((b[i], b[(i + 1) % len(b)]) for i in range(len(b)))


@dataclass(frozen=True, eq=False)
class FaceSet:
    """All faces of an embedding, indexed by their least boundary arc.

    Face ids are assigned in increasing order of each face's
    lexicographically least boundary arc, which makes them stable across
    runs for identical input.

    The set is also the graph's one face-adjacency (dual) index:
    :meth:`across` lists the face beyond each boundary edge.  In a simple
    cubic plane graph whose faces are simple cycles (every fullerene), the
    three faces at a vertex pairwise share an edge there, so two distinct
    faces share a vertex exactly when each is across the other.
    """

    faces: tuple[Face, ...]
    _arc_face: dict[Arc, int] = field(repr=False)
    _across: tuple[tuple[int, ...], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self) -> Iterator[Face]:
        return iter(self.faces)

    def __getitem__(self, face_id: int) -> Face:
        return self.faces[face_id]

    def face_of_arc(self, arc: Arc) -> int:
        """Id of the unique face whose boundary uses the directed edge."""
        return self._arc_face[arc]

    def across(self, face_id: int) -> tuple[int, ...]:
        """The face beyond each boundary edge, in boundary order from the least arc.

        Entry i is ``face_of_arc((b, a))`` for the i-th boundary arc (a, b).
        """
        return self._across[face_id]

    def shared_edge(self, a: int, b: int) -> Edge | None:
        """The edge faces a and b meet in, or None unless they meet in exactly one edge.

        Faces meet properly when b is across exactly one boundary edge of a;
        they then share that edge's two endpoints and no other vertex.
        """
        around = self._across[a]
        if around.count(b) != 1:
            return None
        return self.faces[a].boundary_edges()[around.index(b)]


@dataclass(frozen=True, eq=False)
class FullereneGraph:
    """A validated fullerene graph: cubic, plane, 12 pentagons, rest hexagons."""

    graph: EmbeddedGraph
    faces: FaceSet
    pentagon_ids: tuple[int, ...]
    hexagon_ids: tuple[int, ...]
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def is_hexagon(self, face_id: int) -> bool:
        return self.faces[face_id].size == 6


@dataclass(frozen=True, eq=False)
class Subgraph:
    """An induced subgraph, remembering its parent and original vertex ids.

    ``vertices[i]`` is the parent id of local vertex i; ``adj[i]`` lists local
    neighbour indices in the order inherited from the parent rotation.
    """

    parent: object
    vertices: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def to_parent(self, local: int) -> int:
        return self.vertices[local]


# ---------------------------------------------------------------------------
# parsing and serialisation (.rot format)
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> EmbeddedGraph:
    """Parse the ``.rot`` format into a validated plane cubic graph.

    Format: optional ``#`` comment lines; the first data line holds the vertex
    count n; then n lines ``i: a b c`` giving vertex i's neighbours in
    clockwise order (0-based, listed in ascending i).

    Raises:
        GraphError: on malformed text, a non-cubic vertex, asymmetric
            adjacency, loops or repeated neighbours (multi-edges), a
            disconnected graph, or an arc partition failing Euler's formula
            (not a sphere embedding).
    """
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty input: expected a vertex count line")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphError(f"first data line must be the vertex count, got {lines[0]!r}") from None
    if n < 4:
        raise GraphError(f"vertex count {n} too small for a cubic graph")
    if len(lines) - 1 != n:
        raise GraphError(f"expected {n} vertex lines, found {len(lines) - 1}")

    rotation: list[tuple[int, int, int]] = []
    for i, line in enumerate(lines[1:]):
        head, _, tail = line.partition(":")
        if not _:
            raise GraphError(f"vertex line {line!r} lacks the 'i:' prefix")
        try:
            idx = int(head)
            nbrs = [int(tok) for tok in tail.split()]
        except ValueError:
            raise GraphError(f"unparseable vertex line {line!r}") from None
        if idx != i:
            raise GraphError(f"vertex lines out of order: expected {i}, got {idx}")
        if len(nbrs) != 3:
            raise GraphError(f"vertex {i} lists {len(nbrs)} neighbours; the graph must be cubic")
        for w in nbrs:
            if not 0 <= w < n:
                raise GraphError(f"vertex {i} lists neighbour {w} outside 0..{n - 1}")
            if w == i:
                raise GraphError(f"vertex {i} lists itself (loops are not allowed)")
        if len(set(nbrs)) != 3:
            raise GraphError(f"vertex {i} repeats a neighbour (multi-edges are not allowed)")
        rotation.append((nbrs[0], nbrs[1], nbrs[2]))

    for v in range(n):
        for w in rotation[v]:
            if v not in rotation[w]:
                raise GraphError(f"asymmetric adjacency: {v} lists {w} but {w} does not list {v}")

    g = EmbeddedGraph(tuple(rotation))
    _check_connected(g)
    _check_euler(g)
    return g


def emit_graph(g: EmbeddedGraph, comments: Sequence[str] = ()) -> str:
    """Serialise to the ``.rot`` format (inverse of :func:`parse_graph`)."""
    out = [f"# {c}" for c in comments]
    out.append(str(g.n))
    for v in range(g.n):
        a, b, c = g.rotation[v]
        out.append(f"{v}: {a} {b} {c}")
    return "\n".join(out) + "\n"


def _check_connected(g: EmbeddedGraph) -> None:
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in g.rotation[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    if count != g.n:
        raise GraphError(f"graph is disconnected ({count} of {g.n} vertices reachable)")


def _check_euler(g: EmbeddedGraph) -> None:
    n_faces = len(_trace_face_cycles(g))
    v, e = g.n, 3 * g.n // 2
    chi = v - e + n_faces
    if chi != 2:
        raise GraphError(
            f"rotation system is not a sphere embedding: V-E+F = {v}-{e}+{n_faces} = {chi}"
        )


# ---------------------------------------------------------------------------
# face tracing
# ---------------------------------------------------------------------------


def _trace_face_cycles(g: EmbeddedGraph) -> list[tuple[Arc, ...]]:
    """Partition all arcs into face cycles, each rotated to start at its least arc."""
    seen: set[Arc] = set()
    cycles: list[tuple[Arc, ...]] = []
    for start in g.arcs():
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        arc = g.next_arc(start)
        while arc != start:
            cycle.append(arc)
            seen.add(arc)
            arc = g.next_arc(arc)
        k = cycle.index(min(cycle))
        cycles.append(tuple(cycle[k:] + cycle[:k]))
    cycles.sort(key=lambda c: c[0])
    return cycles


def faces(g: EmbeddedGraph) -> FaceSet:
    """Trace all faces of the embedding and index which faces meet.

    Face ids follow the order of each face's least boundary arc.
    """
    cycles = _trace_face_cycles(g)
    built: list[Face] = []
    arc_face: dict[Arc, int] = {}
    for idx, cycle in enumerate(cycles):
        boundary = tuple(a[0] for a in cycle)
        edges = tuple((a, b) if a < b else (b, a) for a, b in cycle)
        built.append(Face(idx, boundary, frozenset(boundary), edges))
        for a in cycle:
            arc_face[a] = idx
    across = tuple(tuple(arc_face[(b, a)] for a, b in cycle) for cycle in cycles)
    return FaceSet(tuple(built), arc_face, across)


def validate_fullerene(g: EmbeddedGraph) -> FullereneGraph:
    """Check the fullerene face condition and wrap the graph.

    Raises:
        NotFullereneError: if any face is not a pentagon or hexagon, or the
            pentagon count differs from 12.
    """
    fs = faces(g)
    for f in fs:
        if f.size not in (5, 6):
            raise NotFullereneError(
                f"face {f.index} has size {f.size}; fullerene faces are pentagons and hexagons"
            )
    pentagons = tuple(f.index for f in fs if f.size == 5)
    hexagons = tuple(f.index for f in fs if f.size == 6)
    if len(pentagons) != 12:
        raise NotFullereneError(f"found {len(pentagons)} pentagonal faces; a fullerene has exactly 12")
    # Implied by Euler's formula once all faces are 5s and 6s:
    assert len(hexagons) == g.n // 2 - 10
    assert g.n >= 20 and g.n % 2 == 0
    return FullereneGraph(g, fs, pentagons, hexagons)


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------


def delete_vertices(g: EmbeddedGraph | FullereneGraph, drop: Iterable[int]) -> Subgraph:
    """Induced subgraph on the complement of ``drop`` (parent ids).

    Neighbour order is inherited from the parent rotation. Deleting nothing
    yields a subgraph with the full vertex set and identical adjacency.
    """
    base = g.graph if isinstance(g, FullereneGraph) else g
    dropped = set(drop)
    for v in dropped:
        if not 0 <= v < base.n:
            raise GraphError(f"cannot delete vertex {v}: outside 0..{base.n - 1}")
    kept = tuple(v for v in range(base.n) if v not in dropped)
    local = {v: i for i, v in enumerate(kept)}
    adj = tuple(
        tuple(local[w] for w in base.rotation[v] if w not in dropped) for v in kept
    )
    return Subgraph(g, kept, adj)


def is_bipartite(
    s: Subgraph | EmbeddedGraph | FullereneGraph,
) -> tuple[bool, tuple[int, ...] | None]:
    """Two-colourability plus an odd-cycle witness.

    Returns ``(True, None)`` or ``(False, cycle)`` where ``cycle`` is an
    odd vertex cycle in parent ids (for subgraphs) or the graph's own ids.
    """
    if isinstance(s, FullereneGraph):
        s = s.graph
    if isinstance(s, EmbeddedGraph):
        n, adj, labels = s.n, s.rotation, range(s.n)
    else:
        n, adj, labels = s.n, s.adj, s.vertices
    color = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    cycle = _odd_cycle(v, w, parent)
                    return False, tuple(labels[x] for x in cycle)
    return True, None


def _odd_cycle(v: int, w: int, parent: list[int]) -> list[int]:
    seen_at = {}
    x = v
    while x != -1:
        seen_at[x] = True
        x = parent[x]
    x = w
    while x not in seen_at:
        x = parent[x]
    meet = x
    path_v = []
    x = v
    while x != meet:
        path_v.append(x)
        x = parent[x]
    path_w = []
    x = w
    while x != meet:
        path_w.append(x)
        x = parent[x]
    cycle = path_v + [meet] + list(reversed(path_w))
    assert len(cycle) % 2 == 1
    return cycle


# ---------------------------------------------------------------------------
# canonical code
# ---------------------------------------------------------------------------


def canonical_code(g: EmbeddedGraph | FullereneGraph) -> bytes:
    """A canonical byte string deciding plane-isomorphism, reflections included.

    For every directed start arc and both rotation orientations, vertices are
    labelled breadth-first in discovery order; each vertex contributes its
    three neighbour labels listed from its entry arc onward in the chosen
    orientation. The code is the lexicographic minimum over all starts. Two
    graphs get equal codes iff some sphere homeomorphism (orientation
    preserving or reversing) maps one embedding onto the other.

    Each candidate is compared with the best code so far as its labels are
    produced. It is dropped at the first vertex whose three labels are larger
    than the best code's at that position; once they are smaller, comparing
    stops and the candidate is finished as the new best. Every candidate has
    3n labels, so this is the exact minimum.

    Encoding: for n <= 255 the byte n, then one byte per label. For larger n
    a 0x00 marker (a one-byte code never starts with 0), n as two bytes, then
    two bytes per label, all big-endian so byte order is numeric order.

    Raises:
        GuardExceeded: if the graph has more than 65,535 vertices, which two
            bytes per label cannot hold.
    """
    base = g.graph if isinstance(g, FullereneGraph) else g
    n = base.n
    if n > 0xFFFF:
        raise GuardExceeded(f"canonical code supports at most 65535 vertices, got {n}")
    rotation = base.rotation
    best: list[tuple[int, int, int]] | None = None
    for direction in (1, -1):
        # the two neighbours after each entry, in this orientation
        if direction == 1:
            after = [{a: (b, c), b: (c, a), c: (a, b)} for a, b, c in rotation]
        else:
            after = [{a: (c, b), b: (a, c), c: (b, a)} for a, b, c in rotation]
        for u in range(n):
            for v in rotation[u]:
                label = [-1] * n
                label[u] = 0
                label[v] = 1
                order = [(u, v), (v, u)]  # (vertex, entry neighbour) by label
                code: list[tuple[int, int, int]] = []
                tied = best is not None
                for w, e in order:
                    x1, x2 = after[w][e]
                    l1 = label[x1]
                    if l1 < 0:
                        l1 = label[x1] = len(order)
                        order.append((x1, w))
                    l2 = label[x2]
                    if l2 < 0:
                        l2 = label[x2] = len(order)
                        order.append((x2, w))
                    triple = (label[e], l1, l2)
                    if tied:
                        other = best[len(code)]
                        if triple > other:
                            break
                        tied = triple == other
                    code.append(triple)
                else:
                    if not tied:
                        best = code
    assert best is not None
    labels = [x for triple in best for x in triple]
    if n <= 255:
        return bytes([n, *labels])
    return b"\0" + struct.pack(f">{len(labels) + 1}H", n, *labels)


# ---------------------------------------------------------------------------
# cyclic edge connectivity
# ---------------------------------------------------------------------------


def verify_cyclic_edge_connectivity(g: EmbeddedGraph | FullereneGraph, k: int = 4) -> bool:
    """Whether no edge cut of fewer than k edges separates two cycles.

    True iff the graph is cyclically k-edge connected: removing any fewer than
    k edges never leaves two components that each contain a cycle.

    A smallest such cut is a bond (a minimal cut, both sides connected), and
    the bonds of a connected plane graph are exactly the cycles of its dual.
    A side with t vertices and l cut edges has (3t - l)/2 edges, so it holds
    a cycle exactly when t >= l.  The check therefore walks dual cycles of
    length l = 1, 2, ..., k - 1 and tests both sides of each with flood fills
    that stop at l vertices; it stops at the first cut.  For each fixed k
    this costs O(n), on any number of vertices.

    Raises:
        GraphError: if k is not an integer.
    """
    check_int("k", k)
    if isinstance(g, FullereneGraph):
        rotation, fs = g.graph.rotation, g.faces
    else:
        rotation, fs = g.rotation, faces(g)
    for l in range(1, min(k - 1, len(fs)) + 1):
        for root in range(len(fs)):
            if _short_cyclic_cut(rotation, fs, root, l):
                return False
    return True


def _short_cyclic_cut(
    rotation: Sequence[tuple[int, int, int]], fs: FaceSet, root: int, l: int
) -> bool:
    """Whether some dual cycle of length l, with least face ``root``, is a cyclic cut.

    A depth-first walk grows a path of distinct faces from ``root``, each
    across an edge of the last one; the crossed edges are distinct and form
    the cut.  A path of l faces closes back onto ``root``, so a loop (a
    bridge) closes at l = 1 and two faces that share two edges at l = 2.
    """
    path = [root]
    cut: list[Edge] = []
    # One iterator per face of the path over its (edge, face across) pairs.
    stack = [zip(fs[root].boundary_edges(), fs.across(root))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            path.pop()
            if cut:
                cut.pop()
            continue
        e, x = step
        if e in cut:
            continue
        if x == root:
            if len(path) == l:
                edges = {*cut, e}
                if _side_reaches(rotation, edges, e[0], l) and _side_reaches(rotation, edges, e[1], l):
                    return True
        elif x > root and len(path) < l and x not in path:
            # the last face of the path must close onto the root
            if len(path) == l - 1 and root not in fs.across(x):
                continue
            path.append(x)
            cut.append(e)
            stack.append(zip(fs[x].boundary_edges(), fs.across(x)))
    return False


def _side_reaches(
    rotation: Sequence[tuple[int, int, int]], cut: set[Edge], start: int, size: int
) -> bool:
    """Whether the side of ``cut`` that holds ``start`` has at least ``size`` vertices."""
    seen = {start}
    stack = [start]
    while stack and len(seen) < size:
        v = stack.pop()
        for w in rotation[v]:
            if w not in seen and ((v, w) if v < w else (w, v)) not in cut:
                seen.add(w)
                stack.append(w)
    return len(seen) >= size
