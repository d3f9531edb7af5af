"""Matchings: maximum, perfect, enumerated, and face-alternation queries.

The heavy lifting (blossom maximum matching, perfect-matching enumeration)
lives in ``resonantk.kernels``; this module wraps those in graph-aware types,
adds the exact Tutte witness for graphs without perfect matchings,
and provides the face-deletion test used throughout the resonance analysis:
a face set is *central* when the graph minus those face vertices still has a
perfect matching.

``face_alternates`` is the one alternation test on a ``Matching``:
``alternating_faces`` and the resonant-set certificate decide through it
whether a face alternates.  The 2-resonance certificate reads the same
count off edge bitmasks, for M0's flip candidates and for its two targets
with the flipped edges toggled, without building a ``Matching`` per
candidate.
``alternating_hexagon_count`` reads the same thing off a mate array, for
callers that score many matchings; the Fries number checks its winner with
``alternating_faces``.

``_checked_edges`` is the one read of a caller's ``Matching`` edges,
shared by ``symmetric_difference`` and ``_perfect_edges``, the check
``alternating_faces`` makes that a matching is perfect on its graph.
``_matching_from_mates`` is the one conversion of a mate array into a
``Matching``, for the leapfrog and resonance modules too; ``_rest_mates``
is the one maximum matching with faces masked out, which ``is_central``
and ``resonance.is_resonant_pattern`` share.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from . import kernels
from .errors import GraphError, GuardExceeded, check_int, check_ints, check_type
from .plane_graph import (
    Edge,
    EmbeddedGraph,
    Face,
    FullereneGraph,
    Subgraph,
    _check_adjacency,
    _embedded,
)

DEFAULT_PM_CAP = 10**6
_PM_CAP_ENV = "RESONANTK_PM_CAP"


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges, each stored as (u, v) with u < v."""

    edges: frozenset[Edge]
    host: object = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.edges)

    def covered(self) -> frozenset[int]:
        return frozenset(chain.from_iterable(self.edges))

    def covers(self, v: int) -> bool:
        return any(v in e for e in self.edges)

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return ((u, v) if u < v else (v, u)) in self.edges

    def serialize(self) -> str:
        """One ``u-v`` line per edge, sorted; the canonical text form."""
        return "\n".join(f"{u}-{v}" for u, v in sorted(self.edges))


@dataclass(frozen=True)
class TutteWitness:
    """A vertex set whose removal leaves more odd components than its size.

    Such a set certifies that no perfect matching exists.
    """

    deleted: tuple[int, ...]
    odd_components: tuple[tuple[int, ...], ...]

    @property
    def deficit(self) -> int:
        return len(self.odd_components) - len(self.deleted)


def _adjacency(x: object) -> tuple[int, Sequence[Sequence[int]]]:
    """Vertex count and adjacency lists for any supported graph form.

    Stored graphs (either graph type, through ``plane_graph._embedded``, or
    a ``Subgraph``) were checked when built and pass their own adjacency
    tuples through; a caller-supplied sequence is copied and checked as a
    ``Subgraph``'s ``adj`` is: integer ids in range, each neighbour listing
    the vertex back (a loop lists itself).
    """
    if isinstance(x, Subgraph):
        return x.n, x.adj
    if isinstance(x, Sequence):
        n = len(x)
        adj = []
        for v, row in enumerate(x):
            if not isinstance(row, Iterable):
                raise GraphError(f"adjacency row {v} is {row!r}, not a sequence of vertex ids")
            adj.append(list(row))
            for w in adj[v]:
                if isinstance(w, bool) or not isinstance(w, int):
                    raise GraphError(f"adjacency row {v} lists {w!r}, not an integer vertex id")
        _check_adjacency("adjacency", adj)
        return n, adj
    base, _ = _embedded(x)
    return base.n, base.rotation


def _matching_from_mates(mates: Sequence[int], host: object) -> Matching:
    """The matching a mate array describes; a vertex with mate -1 is exposed."""
    return Matching(frozenset((v, w) for v, w in enumerate(mates) if v < w), host)


def maximum_matching(g: object) -> Matching:
    """A maximum matching, deterministic for a fixed input."""
    n, adj = _adjacency(g)
    return _matching_from_mates(kernels.mate_array(n, adj), g)


def has_perfect_matching(g: object) -> bool:
    """Whether every vertex can be matched.

    A maximum matching leaves no vertex exposed exactly then: the empty
    graph counts as matched, and a graph of odd order always has one exposed.
    """
    n, adj = _adjacency(g)
    return -1 not in kernels.mate_array(n, adj)


def is_central(f: FullereneGraph, face_ids: int | Iterable[int]) -> bool:
    """Whether the graph minus the given faces' vertices keeps a perfect matching.

    Accepts a single face id or any iterable of them.  Implemented by masking
    the face vertices out of the matching kernel rather than rebuilding the
    graph.

    Raises:
        GraphError: if f is not a ``FullereneGraph`` or a face id is not an
            integer face of f.
    """
    check_type("graph", f, FullereneGraph)
    ids = set(check_ints("face id", face_ids if isinstance(face_ids, Iterable) else [face_ids]))
    for fid in ids:
        if not 0 <= fid < len(f.faces):
            raise GraphError(f"face id {fid} outside 0..{len(f.faces) - 1}")
    return _rest_mates(f, ids) is not None


def _rest_mates(f: FullereneGraph, face_ids: Iterable[int]) -> list[int] | None:
    """One maximum matching of f minus the (valid) faces' vertices, as a mate array.

    The face vertices keep mate -1; None if any other vertex is exposed.
    """
    excluded = [False] * f.n
    for fid in face_ids:
        for v in f.faces[fid].vertices:
            excluded[v] = True
    mates = kernels.mate_array(f.n, f.graph.rotation, excluded)
    return mates if all(m >= 0 or x for m, x in zip(mates, excluded)) else None


def tutte_witness(g: object) -> TutteWitness | None:
    """The Gallai–Edmonds barrier, or None exactly when a perfect matching exists.

    D holds the vertices that some maximum matching misses, and the barrier
    every vertex outside D with a neighbour in D.  The odd components left
    without the barrier are D's, and they outnumber it by the exposed
    vertices of any maximum matching (Lovász & Plummer, *Matching Theory*,
    1986, ch. 3).  A matched v is in D when a search from its freed mate u,
    v excluded, augments: the matching was maximum, so paths end at u.
    """
    n, adj = _adjacency(g)
    mate = kernels.mate_array(n, adj)
    exposed = mate.count(-1)
    if not exposed:
        return None
    in_d = [u < 0 for u in mate]
    for v, u in enumerate(mate):
        if u >= 0:
            trial = list(mate)
            trial[v] = trial[u] = -1
            in_d[v] = kernels.augment(n, adj, [w == v for w in range(n)], trial, u)
    barrier = tuple(v for v in range(n) if not in_d[v] and any(in_d[w] for w in adj[v]))
    # with the barrier marked first, each sweep walks one component left without it
    mark = [0] * n
    for v in barrier:
        mark[v] = 1
    components = [tuple(sorted(kernels._sweep(adj, mark, root, 1))) for root in range(n) if not mark[root]]
    odd = tuple(c for c in components if len(c) % 2)
    if len(odd) - len(barrier) != exposed:
        raise RuntimeError(
            f"barrier {barrier} leaves {len(odd)} odd components; {exposed} vertices are exposed"
        )
    return TutteWitness(barrier, odd)


def _checked_edges(m: Matching) -> frozenset[Edge]:
    """The edges of m, once m is a ``Matching`` and they a frozenset of pairs of integers.

    Raises:
        GraphError: naming the matching, its edges or the first bad edge.
    """
    edges = check_type("matching edges", check_type("matching", m, Matching).edges, frozenset)
    for e in edges:
        if len(check_ints("matching vertex id", e)) != 2:
            raise GraphError(f"matching edge {e!r} is not a pair of vertex ids")
    return edges


def _perfect_edges(m: Matching, g: EmbeddedGraph) -> frozenset[Edge]:
    """The edges of m, once they are a perfect matching of g, each stored as (u, v) with u < v.

    Raises:
        GraphError: as ``_checked_edges``, or naming the least pair that is
            not such an edge, or that m is not perfect.
    """
    edges = _checked_edges(m)
    rotation = g.rotation
    n = len(rotation)
    bad = min((e for e in edges if not (0 <= e[0] < e[1] < n and e[1] in rotation[e[0]])), default=None)
    if bad is not None:
        raise GraphError(f"matching pair {bad} is not an edge of its graph stored as (u, v) with u < v")
    if 2 * len(edges) != n or len(set(chain.from_iterable(edges))) != n:
        raise GraphError(f"matching is not a perfect matching of its {n}-vertex graph")
    return edges


def symmetric_difference(m: Matching, cycle: Sequence[int]) -> Matching:
    """Flip a matching along an alternating cycle of vertices.

    ``cycle`` lists the vertices in order; the closing edge is implicit.
    Every step must be an edge of the matching's host graph, every other
    cycle edge must lie in the matching, and the flipped edges must still
    form a matching (they do whenever the input is one), else GraphError;
    so too if m is not a ``Matching`` whose edges are a frozenset of pairs
    of vertex ids, or the cycle not one of integers.
    """
    edges = _checked_edges(m)
    if m.host is None:
        raise GraphError("matching has no host graph to check the cycle against")
    n, adj = _adjacency(m.host)
    cycle = check_ints("cycle vertex id", cycle)
    length = len(cycle)
    if length < 4 or length % 2:
        raise GraphError(f"alternating cycle must have even length >= 4, got {length}")
    cyc_edges = []
    for i in range(length):
        u, v = cycle[i], cycle[(i + 1) % length]
        if not (0 <= u < n and v in adj[u]):
            raise GraphError(f"cycle step {u}-{v} is not an edge of the graph")
        cyc_edges.append((u, v) if u < v else (v, u))
    if len(set(cycle)) != length:
        raise GraphError("alternating cycle repeats a vertex")
    inside = [e in edges for e in cyc_edges]
    if not all(inside[i] != inside[i - 1] for i in range(length)):
        raise GraphError("cycle does not alternate with the matching")
    flipped = edges.symmetric_difference(cyc_edges)
    if len({v for e in flipped for v in e}) != 2 * len(flipped):
        raise GraphError("the flipped edges share a vertex, so the input is not a matching")
    return Matching(flipped, m.host)


def face_alternates(face: Face, m: Matching) -> bool:
    """Whether the face's boundary alternates with the matching.

    A face of size 2k alternates exactly when k of its boundary edges lie in
    the matching; odd faces never alternate, as twice the count is even.
    """
    return 2 * sum(1 for e in face.boundary_edges() if e in m.edges) == face.size


def alternating_hexagon_count(hexagons: Iterable[Sequence[int]], mate: Sequence[int]) -> int:
    """How many of the hexagon boundaries alternate with a perfect matching.

    The matching is given by its mate array.  A hexagon b0..b5 alternates
    exactly when it holds the edges b0b1, b2b3, b4b5 or the edges b1b2,
    b3b4, b5b0; this is ``face_alternates`` without building a ``Matching``.
    """
    count = 0
    for b0, b1, b2, b3, b4, b5 in hexagons:
        if (mate[b0] == b1 and mate[b2] == b3 and mate[b4] == b5) or (
            mate[b1] == b2 and mate[b3] == b4 and mate[b5] == b0
        ):
            count += 1
    return count


def alternating_faces(f: FullereneGraph, m: Matching) -> tuple[int, ...]:
    """Face ids whose boundaries alternate with a perfect matching.

    Raises:
        GraphError: if f is not a ``FullereneGraph``, m is not a
            ``Matching`` whose edges are a frozenset of pairs of vertex
            ids, it holds a pair that is not an edge of f stored as (u, v)
            with u < v, or it is not perfect on f (``_perfect_edges``).
    """
    _perfect_edges(m, check_type("graph", f, FullereneGraph).graph)
    return tuple(face.index for face in f.faces if face_alternates(face, m))


def resolve_pm_cap(cap: int | None = None) -> int:
    """Effective perfect-matching enumeration cap.

    Priority: explicit argument, then the RESONANTK_PM_CAP environment
    variable, then the built-in default.

    Raises:
        GraphError: if the cap in use is not an integer >= 1.
    """
    if cap is not None:
        return check_int("perfect matching cap", cap, 1)
    raw = os.environ.get(_PM_CAP_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise GraphError(f"{_PM_CAP_ENV} must be an integer, got {raw!r}") from None
        return check_int(_PM_CAP_ENV, value, 1)
    return DEFAULT_PM_CAP


def perfect_mate_tuples(g: object, cap: int | None = None) -> list[tuple[int, ...]]:
    """All perfect matchings as mate tuples, in the kernel's search order.

    The one call into ``kernels.perfect_matchings`` (made through the module,
    so that a tracer patching it sees every call); callers that only score
    matchings use the tuples without building ``Matching`` objects, and
    need no order.  The kernel itself returns none for a graph of odd order.

    Raises:
        GuardExceeded: if the graph has more perfect matchings than the cap
            (no partial results are returned).
    """
    limit = resolve_pm_cap(cap)
    n, adj = _adjacency(g)
    found = kernels.perfect_matchings(n, adj, limit)
    if len(found) > limit:
        raise GuardExceeded(
            f"perfect matching count exceeds the cap of {limit}; "
            f"raise it via the cap argument or {_PM_CAP_ENV}"
        )
    return found


def enumerate_perfect_matchings(g: object, cap: int | None = None) -> tuple[Matching, ...]:
    """All perfect matchings, lowest first.

    The order is that of backtracking on the lowest unmatched vertex, each
    vertex trying its neighbours in adjacency order; it does not depend on
    how the search itself branches.  The matchings are sorted by a key that
    lists, for each vertex v in ascending order, the first position of its
    mate in v's adjacency row (where the backtracking meets it) if v is
    below its mate, else -1: the backtracking matches each such v by
    choosing from it, and two matchings first differ at a common chooser,
    whose choice orders them.

    Raises:
        GuardExceeded: if the graph has more perfect matchings than the cap
            (no partial results are returned).
    """
    found = perfect_mate_tuples(g, cap)
    _, adj = _adjacency(g)
    pos = [{u: i for i, u in enumerate(dict.fromkeys(row))} for row in adj]
    found.sort(key=lambda mates: tuple(pos[v][w] if v < w else -1 for v, w in enumerate(mates)))
    return tuple(_matching_from_mates(mates, g) for mates in found)
