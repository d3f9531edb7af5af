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
l < k with at least l vertices on each side, and a side's vertices are read
off a spanning tree (``_tree``, ``_cross``).  Its walk costs O(n) for each
fixed k, the tree's masks n^2 bits, and it has no size guard.

``_turns`` is the one reading of the clockwise order: per vertex, each
neighbour mapped to the next and the previous one after it.  The face
trace, both orientations of the canonical pass (the reversed one reads
each pair swapped), the leapfrog image and the G* scan of ``resonance``
all step round a vertex through it.  Each rotation's table is built once
and kept (``EmbeddedGraph._turns``).

``_embedded`` is the one resolver of a graph argument, and the one place
that tells the two graph types apart.  A function whose meaning holds for
any plane cubic graph (``emit_graph``, ``faces``, ``validate_fullerene``,
``canonical_code``, ``automorphisms``, ``delete_vertices``,
``is_bipartite``, ``verify_cyclic_edge_connectivity``, and the
``maximum_matching``, ``has_perfect_matching``, ``tutte_witness`` and
``enumerate_perfect_matchings`` of ``matching``) takes an ``EmbeddedGraph``
or a ``FullereneGraph`` through it, and any other value raises GraphError.
Every other public function that takes a graph takes a ``FullereneGraph``
only, checked by ``errors.check_type``.

An ``EmbeddedGraph`` is checked to be a simple cubic graph when built
(``_check_rotation``); ``EmbeddedGraph._faces`` decides once per graph that
it is connected (``kernels._sweep``, the package's one flood fill, reaches
every vertex) and on the sphere, and keeps the one trace, which ``faces``
returns.  A ``FullereneGraph`` holds only its graph and derives its face
ids from it when built.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import kernels
from .errors import GraphError, GuardExceeded, NotFullereneError, check_int, check_ints, check_type

if TYPE_CHECKING:
    from .resonance import _Walk
    from .rings_fragments import Ring

Arc = tuple[int, int]
Edge = tuple[int, int]

# The most vertices a canonical code holds: two bytes per label.
_CODE_LIMIT = 0xFFFF


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


def _stray_types(rows: object) -> str:
    """The names of the types that keep ``rows`` from being a tuple of tuples of ints, or ""."""
    # the outer type first, so the rows are read only from a tuple
    found = (
        {type(rows)} - {tuple}
        or set(map(type, rows)) - {tuple}
        or set(map(type, chain.from_iterable(rows))) - {int}
    )
    return ", ".join(sorted(t.__name__ for t in found))


def _check_adjacency(name: str, rows: Sequence[Sequence[int]]) -> None:
    """Raise GraphError naming ``name`` unless every neighbour is in range and lists the vertex back."""
    n = len(rows)
    for v, row in enumerate(rows):
        for w in row:
            if not 0 <= w < n:
                raise GraphError(f"{name} row {v} lists vertex {w} outside 0..{n - 1}")
    for v, row in enumerate(rows):
        for w in row:
            if v not in rows[w]:
                raise GraphError(f"asymmetric {name}: {v} lists {w} but {w} does not list {v}")


class _derived(cached_property):
    """A table derived from an object's fields, built on first read into the object's dict.

    A build that raises keeps nothing.  No lock is taken (on 3.10 and 3.11 ``cached_property``
    shares one per attribute among all instances); threads racing on one object get the first kept.
    """

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return vars(obj).setdefault(self.attrname, self.func(obj))


def _built(obj: object, name: str):
    """The ``_derived`` table ``name`` if obj has built it, else None; builds nothing."""
    return vars(obj).get(name)


@dataclass(frozen=True)
class EmbeddedGraph:
    """A plane cubic simple graph, stored as a rotation system.

    ``rotation[v]`` lists the three neighbours of v in clockwise order.
    Instances come from :func:`parse_graph` or are built directly; the
    rotation is immutable, and the tables derived from it (``_turns``,
    ``_faces``, ``_canonical``) are built on first use and kept.

    Checked when built, however it is built: ``rotation`` must be a tuple of
    tuples of ints (a bool is not one) and of a simple cubic graph
    (``_check_rotation``).  That it is connected and on the sphere is
    checked where it is first traced (``_faces``).

    Raises:
        GraphError: naming the types found that are not a tuple of tuples
            of ints, or as :func:`parse_graph` for a graph that is not
            simple and cubic.
    """

    rotation: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        found = _stray_types(self.rotation)
        if found:
            raise GraphError(f"an EmbeddedGraph's rotation must be a tuple of tuples of ints, found {found}")
        _check_rotation(self.rotation)

    @_derived
    def _turns(self) -> list[dict[int, tuple[int, int]]]:
        """The module's ``_turns`` of the rotation, read by every step round a vertex."""
        return _turns(self.rotation)

    @_derived
    def _faces(self) -> FaceSet:
        """The faces, once connectivity and Euler's formula pass (GraphError)."""
        fs = _trace(self)
        count = len(kernels._sweep(self.rotation, [0] * self.n, 0, 1))
        if count != self.n:
            raise GraphError(f"graph is disconnected ({count} of {self.n} vertices reachable)")
        v, e, n_faces = self.n, 3 * self.n // 2, len(fs)
        chi = v - e + n_faces
        if chi != 2:
            raise GraphError(
                f"rotation system is not a sphere embedding: V-E+F = {v}-{e}+{n_faces} = {chi}"
            )
        return fs

    @_derived
    def _canonical(self) -> tuple[bytes, tuple[Automorphism, ...]]:
        """The code and the group of ``_canonical_pass``; GuardExceeded first past 65,535 vertices."""
        if self.n > _CODE_LIMIT:
            raise GuardExceeded(f"canonical code supports at most {_CODE_LIMIT} vertices, got {self.n}")
        return _canonical_pass(self)

    @property
    def n(self) -> int:
        return len(self.rotation)

    def neighbors(self, v: int) -> tuple[int, int, int]:
        """Vertex v's neighbours, clockwise.

        Raises:
            GraphError: if v is not an int id of a vertex.
        """
        if type(v) is not int or not 0 <= v < self.n:
            raise GraphError(f"vertex must be an int from 0 to {self.n - 1}, got {v!r}")
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

    It also keeps one per-face bitmask table, ``vertex_masks``, built on
    first use and read by the ring scan, the fragments, the leapfrog
    certificates and the resonance walks.  Two fullerene faces share at most
    one edge (the graph is cyclically 5-edge-connected, Došlić 2003), so the
    masks of two distinct faces meet exactly when each is across the other,
    and then in exactly the two ends of their shared edge.

    Indexing, :meth:`face_of_arc` and :meth:`across` check their argument
    (a ``GraphError`` names a bad one); the package's own loops read the
    fields ``faces``, ``_arc_face`` and ``_across`` directly.
    """

    faces: tuple[Face, ...]
    _arc_face: dict[Arc, int] = field(repr=False)
    _across: tuple[tuple[int, ...], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self) -> Iterator[Face]:
        return iter(self.faces)

    def __getitem__(self, face_id: int) -> Face:
        """The face with id ``face_id``.

        Raises:
            GraphError: if face_id is not an int id of a face.
        """
        if type(face_id) is not int or not 0 <= face_id < len(self.faces):
            raise GraphError(f"face id must be an int from 0 to {len(self.faces) - 1}, got {face_id!r}")
        return self.faces[face_id]

    def face_of_arc(self, arc: Arc) -> int:
        """Id of the unique face whose boundary uses the directed edge.

        Raises:
            GraphError: if arc is not a pair (u, v) of ints with v a neighbour of u.
        """
        if type(arc) is tuple and len(arc) == 2 and type(arc[0]) is int and type(arc[1]) is int:
            face = self._arc_face.get(arc)
            if face is not None:
                return face
        raise GraphError(f"{arc!r} is not an arc: a pair (u, v) of ints with v a neighbour of u")

    def across(self, face_id: int) -> tuple[int, ...]:
        """The face beyond each boundary edge, in boundary order from the least arc.

        Entry i is ``face_of_arc((b, a))`` for the i-th boundary arc (a, b).

        Raises:
            GraphError: if face_id is not an int id of a face.
        """
        if type(face_id) is not int or not 0 <= face_id < len(self.faces):
            raise GraphError(f"face id must be an int from 0 to {len(self.faces) - 1}, got {face_id!r}")
        return self._across[face_id]

    @_derived
    def vertex_masks(self) -> tuple[int, ...]:
        """Per face, the bitmask of its vertices (bit v set when v is on it)."""
        return tuple([sum(1 << v for v in face.vertices) for face in self.faces])


def _tree(adjacent: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """A breadth-first spanning tree from node 0: each node's parent and the mask of the nodes below it.

    ``adjacent[x]`` lists node x's neighbours; the graph must be connected.
    The root is its own parent, and each node is below itself, so a node's
    mask is that of the tree edge to its parent.
    """
    up = [0] + [-1] * (len(adjacent) - 1)
    order = [0]
    for x in order:
        for y in adjacent[x]:
            if up[y] < 0:
                up[y] = x
                order.append(y)
    below = [1 << x for x in range(len(adjacent))]
    for y in reversed(order[1:]):
        below[up[y]] |= below[y]
    return up, below


def _cross(tree: tuple[list[int], list[int]], x: int, ys: Iterable[int]) -> int:
    """The XOR, over the edges from node x to each of ``ys``, of the nodes below each in ``tree``.

    ``tree`` is a spanning tree as ``_tree`` gives it, each node's parent
    and the bitmask of the nodes below it; an edge not in the tree counts
    0.  An edge is named by its ends, so the dual's edges are named by the
    two faces across them (two fullerene faces share at most one edge).
    Over a bond's edges it is, by tree-cotree parity, the side without node 0.
    """
    up, below = tree
    out = 0
    for y in ys:
        if up[y] == x:
            out ^= below[y]
        elif up[x] == y:
            out ^= below[x]
    return out


@dataclass(frozen=True, eq=False)
class FullereneGraph:
    """A validated fullerene graph: cubic, plane, 12 pentagons, rest hexagons.

    Its one field is ``graph``, an ``EmbeddedGraph``; ``faces`` (the
    graph's ``_faces``), ``pentagon_ids`` and ``hexagon_ids`` are tables
    derived from it when the object is built, so they cannot disagree.

    Raises:
        GraphError: if ``graph`` is not an ``EmbeddedGraph`` or is not a
            plane cubic graph (as :func:`parse_graph`).
        NotFullereneError: if the graph is not a fullerene.
    """

    graph: EmbeddedGraph

    def __post_init__(self) -> None:
        check_type("FullereneGraph graph", self.graph, EmbeddedGraph)
        self.hexagon_ids  # checks the face sizes

    @_derived
    def faces(self) -> FaceSet:
        """The faces of ``graph`` (its ``_faces``), checked as :func:`parse_graph` checks."""
        return self.graph._faces

    @_derived
    def pentagon_ids(self) -> tuple[int, ...]:
        """The pentagons' ids; the one pass over the face sizes (NotFullereneError).

        Once every face is a pentagon or a hexagon there are exactly 12
        pentagons: the faces are traced on the sphere (``_faces``), and with
        V - E + F = 2 and 3V = 2E, the sizes sum to 2E = 6F - 12, so
        the sum of 6 - size over the faces is 12.
        """
        pentagons: list[int] = []
        for f in self.faces:
            size = len(f.boundary)
            if size == 5:
                pentagons.append(f.index)
            elif size != 6:
                raise NotFullereneError(
                    f"face {f.index} has size {size}; fullerene faces are pentagons and hexagons"
                )
        return tuple(pentagons)

    @_derived
    def hexagon_ids(self) -> tuple[int, ...]:
        """The other faces' ids, all hexagons by ``pentagon_ids``."""
        pentagons = set(self.pentagon_ids)
        hexagons = tuple(i for i in range(len(self.faces)) if i not in pentagons)
        # Implied by Euler's formula once all faces are 5s and 6s:
        assert len(hexagons) == self.n // 2 - 10
        assert self.n >= 20 and self.n % 2 == 0
        return hexagons

    @property
    def n(self) -> int:
        return self.graph.n

    def is_hexagon(self, face_id: int) -> bool:
        """Whether face ``face_id`` is a hexagon.

        Raises:
            GraphError: if face_id is not an int id of a face.
        """
        return self.faces[face_id].size == 6

    # Derived tables (see ``_derived``); the builders import modules that import this one.
    @_derived
    def _walk(self) -> _Walk:
        """The full resonance walk's summary, which ``sextet`` reads."""
        from .resonance import _walk
        return _walk(self)

    @_derived
    def _ring_arcs(self) -> dict[tuple[int, int, int], tuple]:
        """The ring scan's arcs per (previous, face, next) triple, filled by ``rings_fragments._arc``."""
        return {}

    @_derived
    def _spanning_trees(self) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
        """The ``_tree`` of the dual from face 0 and of the graph from vertex 0, which the ring arcs read."""
        return _tree(self.faces._across), _tree(self.graph.rotation)

    @_derived
    def _pentagonal_rings(self) -> tuple[Ring, ...]:
        """Every pentagonal ring, which ``pentagonal_rings`` returns."""
        from .rings_fragments import PENTAGONS_ONLY, find_polygonal_rings
        return tuple(find_polygonal_rings(self, 12, PENTAGONS_ONLY))


@dataclass(frozen=True, eq=False)
class Subgraph:
    """An induced subgraph, remembering its parent and original vertex ids.

    ``vertices[i]`` is the parent id of local vertex i; ``adj[i]`` lists local
    neighbour indices in the order inherited from the parent rotation.

    Checked when built, since the matching kernels read ``adj`` as it is:
    ``vertices`` must be a tuple of ints, and ``adj`` a tuple of as many
    tuples of local ids in range, each neighbour listing the vertex back (a
    bool is not an int).  ``parent`` is not read.

    Raises:
        GraphError: naming the field that fails.
    """

    parent: object
    vertices: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # vertices as the one row of a tuple of rows
        found = _stray_types((self.vertices,))
        if found:
            raise GraphError(f"a Subgraph's vertices must be a tuple of ints, found {found}")
        rows = self.adj
        found = _stray_types(rows)
        if found:
            raise GraphError(f"a Subgraph's adj must be a tuple of tuples of ints, found {found}")
        if len(rows) != len(self.vertices):
            raise GraphError(f"a Subgraph's adj has {len(rows)} rows for {len(self.vertices)} vertices")
        _check_adjacency("Subgraph adj", rows)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def to_parent(self, local: int) -> int:
        """The parent id of local vertex ``local``.

        Raises:
            GraphError: if local is not an int id of a local vertex.
        """
        if type(local) is not int or not 0 <= local < len(self.vertices):
            raise GraphError(f"local vertex must be an int from 0 to {len(self.vertices) - 1}, got {local!r}")
        return self.vertices[local]


def _embedded(g: object) -> tuple[EmbeddedGraph, FullereneGraph | None]:
    """The rotation system of either graph type, and the ``FullereneGraph`` if g is one.

    The one resolver of a graph argument that may be either type.

    Raises:
        GraphError: naming both types if g is neither.
    """
    if isinstance(g, FullereneGraph):
        return g.graph, g
    if isinstance(g, EmbeddedGraph):
        return g, None
    raise GraphError(
        f"unsupported graph form: {type(g).__name__}; expected an EmbeddedGraph or a FullereneGraph"
    )


# ---------------------------------------------------------------------------
# parsing and serialisation (.rot format)
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> EmbeddedGraph:
    """Parse the ``.rot`` format into a validated plane cubic graph.

    Format: optional ``#`` comment lines; the first data line holds the vertex
    count n; then n lines ``i: a b c`` giving vertex i's neighbours in
    clockwise order (0-based, listed in ascending i).

    Raises:
        GraphError: on input that is not a ``str``, malformed text, a
            non-cubic vertex, asymmetric adjacency, loops or repeated
            neighbours (multi-edges), a disconnected graph, or an arc
            partition failing Euler's formula (not a sphere embedding).
    """
    if not isinstance(text, str):
        raise GraphError(f"graph text must be a str, got {type(text).__name__}")
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty input: expected a vertex count line")
    # the numbers are ASCII decimal digits only: int() alone would also take
    # signs, underscores and other scripts' digits
    if not (lines[0].isdigit() and lines[0].isascii()):
        raise GraphError(f"first data line must be the vertex count, got {lines[0]!r}")
    n = int(lines[0])
    if n < 4:
        raise GraphError(f"vertex count {n} too small for a cubic graph")
    if len(lines) - 1 != n:
        raise GraphError(f"expected {n} vertex lines, found {len(lines) - 1}")

    rotation: list[tuple[int, ...]] = []
    for i, line in enumerate(lines[1:]):
        head, _, tail = line.partition(":")
        if not _:
            raise GraphError(f"vertex line {line!r} lacks the 'i:' prefix")
        head = head.strip()
        tokens = tail.split()
        digits = head + "".join(tokens)
        if not (head.isdigit() and digits.isdigit() and digits.isascii()):
            raise GraphError(f"unparseable vertex line {line!r}")
        idx = int(head)
        nbrs = tuple(map(int, tokens))
        if idx != i:
            raise GraphError(f"vertex lines out of order: expected {i}, got {idx}")
        rotation.append(nbrs)

    g = EmbeddedGraph(tuple(rotation))
    g._faces  # checks the embedding
    return g


def emit_graph(g: EmbeddedGraph | FullereneGraph, comments: Sequence[str] = ()) -> str:
    """Serialise to the ``.rot`` format (inverse of :func:`parse_graph`).

    A ``FullereneGraph`` is written as its ``graph``.  Each line of a comment
    becomes its own ``#`` line, so a comment with line breaks cannot leak a
    data line; an empty comment is one ``#`` line.

    Raises:
        GraphError: if g is neither graph type, or ``comments`` is not a
            sequence of strings.
    """
    g, _ = _embedded(g)
    if isinstance(comments, str) or not isinstance(comments, Iterable):
        raise GraphError(f"comments must be a sequence of strings, got {comments!r}")
    notes = list(comments)
    for c in notes:
        if not isinstance(c, str):
            raise GraphError(f"comment must be a string, got {c!r}")
    out = [f"# {line}" for c in notes for line in c.splitlines() or [""]]
    out.append(str(g.n))
    for v in range(g.n):
        a, b, c = g.rotation[v]
        out.append(f"{v}: {a} {b} {c}")
    return "\n".join(out) + "\n"


def _check_rotation(rotation: Sequence[Sequence[int]]) -> None:
    """Raise GraphError unless the rotation is of a simple cubic graph.

    Every vertex must list three distinct neighbours, none of them itself;
    ``_check_adjacency`` then checks that each is in range and lists it
    back.  Run by ``EmbeddedGraph.__post_init__`` on every graph built.
    """
    n = len(rotation)
    if n < 4:
        raise GraphError(f"vertex count {n} too small for a cubic graph")
    for i, nbrs in enumerate(rotation):
        if len(nbrs) != 3:
            raise GraphError(f"vertex {i} lists {len(nbrs)} neighbours; the graph must be cubic")
        if i in nbrs:
            raise GraphError(f"vertex {i} lists itself (loops are not allowed)")
        if len(set(nbrs)) != 3:
            raise GraphError(f"vertex {i} repeats a neighbour (multi-edges are not allowed)")
    _check_adjacency("adjacency", rotation)


# ---------------------------------------------------------------------------
# face tracing
# ---------------------------------------------------------------------------


def _turns(rotation: Sequence[tuple[int, int, int]]) -> list[dict[int, tuple[int, int]]]:
    """Per vertex v, each neighbour u mapped to (the next, the previous) after u clockwise at v."""
    return [{a: (b, c), b: (c, a), c: (a, b)} for a, b, c in rotation]


def faces(g: EmbeddedGraph | FullereneGraph) -> FaceSet:
    """All faces of the embedding and which faces meet: the one trace kept (``EmbeddedGraph._faces``).

    Raises:
        GraphError: if g is neither graph type, or a bare ``EmbeddedGraph``
            is disconnected or off the sphere (as :func:`parse_graph`).
    """
    return _embedded(g)[0]._faces


def _trace(g: EmbeddedGraph) -> FaceSet:
    """Trace the faces from the sorted arcs, each from its least; only ``EmbeddedGraph._faces`` calls it."""
    turns = g._turns
    built: list[Face] = []
    cycles: list[list[Arc]] = []
    arc_face: dict[Arc, int] = {}
    for start in g.arcs():
        if start in arc_face:
            continue
        idx = len(built)
        cycle = []
        arc = start
        # a face may pass a vertex twice, but each arc once
        while True:
            cycle.append(arc)
            arc_face[arc] = idx
            u, v = arc
            arc = (v, turns[v][u][0])
            if arc == start:
                break
        cycles.append(cycle)
        boundary = tuple(a for a, _ in cycle)
        edges = tuple((a, b) if a < b else (b, a) for a, b in cycle)
        built.append(Face(idx, boundary, frozenset(boundary), edges))
    across = tuple(tuple(arc_face[(b, a)] for a, b in cycle) for cycle in cycles)
    return FaceSet(tuple(built), arc_face, across)


def validate_fullerene(g: EmbeddedGraph | FullereneGraph) -> FullereneGraph:
    """The graph as a ``FullereneGraph``, checked as one is built; one is returned as it is, tables and all.

    Raises:
        GraphError: if g is neither graph type; else as :func:`parse_graph`
            and in its order, before any face size is read.
        NotFullereneError: if any face is not a pentagon or hexagon, or the
            pentagon count differs from 12.
    """
    g, fullerene = _embedded(g)
    return fullerene or FullereneGraph(g)


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------


def delete_vertices(g: EmbeddedGraph | FullereneGraph, drop: Iterable[int]) -> Subgraph:
    """Induced subgraph on the complement of ``drop`` (parent ids).

    Neighbour order is inherited from the parent rotation. Deleting nothing
    yields a subgraph with the full vertex set and identical adjacency.

    Raises:
        GraphError: if g is neither graph type, or ``drop`` is not an
            iterable of vertex ids in range.
    """
    base, _ = _embedded(g)
    dropped = set(check_ints("vertex id", drop))
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
    A breadth-first search from each unreached vertex in turn records
    depths; the first edge found between two vertices of equal depth closes
    the cycle.  Both ends climb their BFS parents in step to their common
    ancestor, and the cycle runs from the scanned end up to it and down to
    the other end.

    Raises:
        GraphError: if s is not a ``Subgraph`` or either graph type.
    """
    if isinstance(s, Subgraph):
        n, adj, labels = s.n, s.adj, s.vertices
    else:
        base, _ = _embedded(s)
        n, adj, labels = base.n, base.rotation, range(base.n)
    depth = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif depth[w] == depth[v]:
                    up, down = [v], [w]
                    while up[-1] != down[-1]:
                        up.append(parent[up[-1]])
                        down.append(parent[down[-1]])
                    return False, tuple(labels[x] for x in up + down[-2::-1])
    return True, None


# ---------------------------------------------------------------------------
# canonical code
# ---------------------------------------------------------------------------


class Automorphism(NamedTuple):
    """A map of the embedding onto itself: vertex v goes to ``perm[v]``.

    ``reverses`` marks a reflection, which maps each clockwise rotation onto
    the counter-clockwise rotation of the image vertex.
    """

    perm: tuple[int, ...]
    reverses: bool


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

    In a fullerene only the starts on a pentagon, and on two pentagons when
    two meet, can hold the minimum, and the pass lists only those: at most
    120.  A listed start is skipped when an earlier labelled start maps onto it under an
    orientation-preserving automorphism already found when the earlier
    start was labelled: the automorphism maps one labelling onto the other,
    so the two codes are equal (the argument is on ``_canonical_pass``).  A
    map found later marks no image of a start labelled before it.  Under
    ten random labellings C60 labelled 4-5 of its 360 starts, its leapfrog
    image 4-5 of 1,080 and C70 18-32 of 420; a fullerene with no symmetry
    labels every start it keeps, and any other plane cubic graph with none
    labels every start.

    Encoding: for n <= 255 the byte n, then one byte per label. For larger n
    a 0x00 marker (a one-byte code never starts with 0), n as two bytes, then
    two bytes per label, all big-endian so byte order is numeric order.

    The pass also closes the automorphism group, which :func:`automorphisms`
    returns; both are kept on the ``EmbeddedGraph`` (a ``FullereneGraph``'s
    ``graph``), so the pass runs at most once per rotation.

    Raises:
        GuardExceeded: if the graph has more than 65,535 vertices, which two
            bytes per label cannot hold.
        GraphError: if g is neither graph type, or a bare ``EmbeddedGraph``
            is not a connected plane cubic graph on the sphere (the checks
            of :func:`parse_graph`).
    """
    return _embedded(g)[0]._canonical[0]


def automorphisms(g: EmbeddedGraph | FullereneGraph) -> tuple[Automorphism, ...]:
    """Every automorphism of the embedding, reflections included; identity first.

    The group is the one the canonical pass closes while it labels its
    starts (see ``_canonical_pass`` for why it is the whole group), so each
    automorphism appears exactly once.  After the identity the maps come in
    the order ``_close`` adds them, which is fixed for a given rotation
    system and version but means nothing more: it depends on which starts
    the pass labels, and may change from one version to the next.

    Raises:
        GuardExceeded, GraphError: as :func:`canonical_code`.
    """
    return _embedded(g)[0]._canonical[1]


def _canonical_pass(base: EmbeddedGraph) -> tuple[bytes, tuple[Automorphism, ...]]:
    """The canonical code and the automorphism group, identity first.

    A start (d, u, v), an orientation d and an arc (u, v), comes from one
    list (below) in a fixed order: orientation, then u, then v's place in
    ``rotation[u]``.  Orientation 1 reads the graph's ``_turns`` with each
    pair swapped, the table of the reversed rotation.  An automorphism a
    sends the labelling from start t to the labelling from a(t) (vertex by
    vertex, with the orientation reversed when a is a reflection), so the
    two codes are equal.  Each labelled start marks its images under the
    orientation-preserving automorphisms found so far, the map of its own
    tie included, and a marked start is skipped: its code is known.  Only
    the identity fixes a start, and the loop never returns to a passed one.
    A map found later marks no image of an earlier start: such an image is
    labelled unless another start marks it.

    In a fullerene most starts cannot hold the minimum, and they are left
    out of the list.  Its girth is 5, and every 5-cycle bounds a face: the
    cycle has no chord, and of the 5 edges leaving it at most 2 go to one
    side, which is then empty, as a fullerene is 3-edge-connected.
    So every code begins (1,2,3), (0,4,5), (0,6,7), (0,8,9).  The start's
    face is ``_arc_face[(u, v)]`` in orientation 0 and ``[(v, u)]`` in
    orientation 1.  Vertex 4 follows v round it, and vertex 5 comes before v
    round the edge's other face.  A neighbour of 4 labelled before it closes
    a 5-cycle through u, v and 4, which can only be the start's face, and a
    neighbour of 5 labelled before it one through 5, v and u, which can only
    be the other face.  So:

    - Rule 1: the fifth triple is (1,9,10) when the start's face is a
      pentagon and (1,10,11) when it is not.
    - Rule 2: after (1,9,10), the sixth triple is (1,11,6) when the other
      face is a pentagon too and (1,11,12) when it is not.

    The list is read off the faces of the arcs: each pentagon arc (a, b)
    gives the starts (0, a, b) and (1, b, a), whose face it lies on, and
    when some pentagon arc lies between two pentagons only those arcs give
    starts: at most 120 of the 6n.  Whether a start is kept is read off its
    code, so starts with equal codes are kept alike and every start that
    holds the minimum is kept; an automorphism keeps face sizes, so it maps
    kept starts onto kept starts.  A plane cubic graph with a face of
    another size lists every start.  The result is exact:

    - A start left out of the list has a code above the minimum.  A marked
      start has the code of an earlier start, and the best only goes down,
      so a marked start never beats the best and is dropped with no outcome
      kept.
    - A labelled start that ties with the best gives the map from the
      best's first labelling (``first``: that start's orientation and its
      vertices in label order) to its own, and that map goes through
      ``_close``, which keeps the group closed under composition.
    - Every automorphism maps the first start of the final best onto a
      start that ties with it.  A labelled tie's map is in the group; a
      marked tie is the image of an earlier tie under a known map, so its
      map is a composition of maps in the group.  So the closed group is the
      whole group: an automorphism of a connected plane map is fixed by the
      image of one start, and each tie gives one.
    - A reflection would mark no later start.  One joins the group only
      at a tie in orientation 1 while the best is in orientation 0 (a best
      found in orientation 1 beats every orientation-0 code, and then no
      reflection exists, since it would give an orientation-0 start the
      same code).  From then on every start is in orientation 1, and a
      reflection maps it into orientation 0, behind the current start.

    After the identity the maps come in the order ``_close`` adds them.
    """
    n = base.n
    rotation = base.rotation
    turns = base._turns
    fs = base._faces  # checks the embedding
    sizes = [face.size for face in fs.faces]
    on = fs._arc_face
    arcs = list(on)
    if set(sizes) <= {5, 6}:
        # A fullerene: the pentagon arcs (rule 1), or those between two pentagons (rule 2).
        arcs = [arc for arc in arcs if sizes[on[arc]] == 5]
        arcs = [(a, b) for a, b in arcs if sizes[on[(b, a)]] == 5] or arcs
    # Arc (a, b) lies on the face of start (a, b) in orientation 0 and of (b, a) in 1;
    # (d, u, v's place round u, v) sorts the starts into the order above.
    starts = sorted(
        [(0, a, rotation[a].index(b), b) for a, b in arcs]
        + [(1, b, rotation[b].index(a), a) for a, b in arcs]
    )
    best: list[tuple[int, int, int]] | None = None
    first: tuple[int, tuple[int, ...]] = (0, ())
    group = [Automorphism(tuple(range(n)), False)]
    gens: list[Automorphism] = []
    marked: set[tuple[int, int, int]] = set()
    for d, u, _, v in starts:
        if (d, u, v) in marked:
            continue
        label = [-1] * n
        label[u] = 0
        label[v] = 1
        order = [(u, v), (v, u)]  # (vertex, entry neighbour) by label
        code: list[tuple[int, int, int]] = []
        tied = best is not None
        for w, e in order:
            x1, x2 = turns[w][e]
            if d:
                x1, x2 = x2, x1
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
            if tied:
                perm = [0] * n
                for x, (y, _) in zip(first[1], order):
                    perm[x] = y
                _close(group, gens, Automorphism(tuple(perm), d != first[0]))
            else:
                best = code
                first = (d, tuple(w for w, _ in order))
        marked.update((d, perm[u], perm[v]) for perm, reverses in group[1:] if not reverses)
    assert best is not None
    labels = [x for triple in best for x in triple]
    if n <= 255:
        return bytes([n, *labels]), tuple(group)
    return b"\0" + struct.pack(f">{len(labels) + 1}H", n, *labels), tuple(group)


def _close(group: list[Automorphism], gens: list[Automorphism], new: Automorphism) -> None:
    """Grow ``group``, generated by ``gens``, by ``new``, in place.

    Dimino's coset method: the grown group is a union of right cosets H r of
    the old group H, and it is closed once r g falls in a known coset for
    every coset representative r and every generator g; the identity's
    coset is H itself.  ``itemgetter(*q)(p)`` is the map p after q.
    """
    old = list(group)
    known = {a.perm for a in old}
    gens.append(new)
    steps = [(itemgetter(*g.perm), g.reverses) for g in gens]
    reps = [old[0]]
    for r in reps:
        for step, flip in steps:
            perm = step(r.perm)
            if perm not in known:
                x = Automorphism(perm, r.reverses != flip)
                reps.append(x)
                take = itemgetter(*perm)
                for h in old:
                    y = Automorphism(take(h.perm), h.reverses != x.reverses)
                    known.add(y.perm)
                    group.append(y)


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
    length l = 1, 2, ..., k - 1 and reads the vertices of one side off a
    spanning tree of the graph (``_cross``); it stops at the first cut.  For
    each fixed k the walk costs O(n), on any number of vertices; the tree
    keeps an n-bit mask per vertex (46 MB at 24,024 vertices).

    Raises:
        GraphError: if g is neither graph type, k is not an integer, or a
            bare ``EmbeddedGraph`` fails the checks of :func:`parse_graph`.
    """
    g, _ = _embedded(g)
    check_int("k", k)
    fs, tree = g._faces, _tree(g.rotation)
    for l in range(1, min(k - 1, len(fs)) + 1):
        for root in range(len(fs)):
            if _short_cyclic_cut(fs, tree, root, l):
                return False
    return True


def _short_cyclic_cut(fs: FaceSet, tree: tuple[list[int], list[int]], root: int, l: int) -> bool:
    """Whether some dual cycle of length l, with least face ``root``, is a cyclic cut.

    A depth-first walk grows a path of distinct faces from ``root``, each
    across an edge of the last one; the crossed edges are distinct and form
    the cut.  A path of l faces closes back onto ``root``, so a loop (a
    bridge) closes at l = 1 and two faces that share two edges at l = 2.
    Each frame holds its path and its crossed edges as tuples, built on push
    and dropped on pop, and the side they cut off, their ``_cross`` in ``tree``.
    """
    # Frames (the (edge, face across) pairs of path[-1] left to try, the
    # path's faces, the edges crossed along it, the XOR of their parities).
    stack = [(zip(fs.faces[root].boundary_edges(), fs._across[root]), (root,), (), 0)]
    while stack:
        todo, path, cut, side = stack[-1]
        for e, x in todo:
            if e in cut:
                continue
            if x == root and len(path) == l:
                if l <= (side ^ _cross(tree, e[0], e[1:])).bit_count() <= len(tree[0]) - l:
                    return True
            elif x > root and len(path) < l and x not in path:
                # the last face of the path must close onto the root
                if len(path) == l - 1 and root not in fs._across[x]:
                    continue
                steps = zip(fs.faces[x].boundary_edges(), fs._across[x])
                stack.append((steps, path + (x,), cut + (e,), side ^ _cross(tree, e[0], e[1:])))
                break
        else:
            stack.pop()
    return False
