"""Matchings: maximum, perfect, enumerated, and face-alternation queries.

The heavy lifting (blossom maximum matching, perfect-matching enumeration)
lives in ``resonantk.kernels``; this module wraps those in graph-aware types,
adds the Tutte-style witness search for graphs without perfect matchings,
and provides the face-deletion test used throughout the resonance analysis:
a face set is *central* when the graph minus those face vertices still has a
perfect matching.

``face_alternates`` is the one alternation test: ``alternating_faces``, the
leapfrog 2-resonance certificate and the resonant-set certificate all decide
through it whether a face alternates with a matching.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from . import kernels
from .errors import GraphError, GuardExceeded, check_int
from .plane_graph import Edge, EmbeddedGraph, Face, FullereneGraph, Subgraph

DEFAULT_PM_CAP = 10**6
_PM_CAP_ENV = "RESONANTK_PM_CAP"
_WITNESS_WORK_CAP = 2_000_000


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges, each stored as (u, v) with u < v."""

    edges: frozenset[Edge]
    host: object = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.edges)

    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

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

    Stored graphs pass their own adjacency tuples through; a caller-supplied
    sequence is copied and its vertex ids are checked to be integers in range.
    """
    if isinstance(x, FullereneGraph):
        x = x.graph
    if isinstance(x, EmbeddedGraph):
        return x.n, x.rotation
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
                if not isinstance(w, int):
                    raise GraphError(f"adjacency row {v} lists {w!r}, not an integer vertex id")
                if not 0 <= w < n:
                    raise GraphError(f"adjacency row {v} lists vertex {w} outside 0..{n - 1}")
        return n, adj
    raise GraphError(f"unsupported graph form: {type(x).__name__}")


def _matching_from_mates(mates: Sequence[int], host: object) -> Matching:
    edges = frozenset(
        (v, mates[v]) for v in range(len(mates)) if 0 <= mates[v] and v < mates[v]
    )
    return Matching(edges, host)


def maximum_matching(g: object) -> Matching:
    """A maximum matching, deterministic for a fixed input."""
    n, adj = _adjacency(g)
    return _matching_from_mates(kernels.mate_array(n, adj), g)


def has_perfect_matching(g: object) -> bool:
    """Whether every vertex can be matched; the empty graph counts as matched."""
    n, adj = _adjacency(g)
    if n == 0:
        return True
    if n % 2:
        return False
    mates = kernels.mate_array(n, adj)
    return all(m >= 0 for m in mates)


def is_central(f: FullereneGraph, face_ids: int | Iterable[int]) -> bool:
    """Whether the graph minus the given faces' vertices keeps a perfect matching.

    Accepts a single face id or any iterable of them.  Implemented by masking
    the face vertices out of the matching kernel rather than rebuilding the
    graph.
    """
    ids = {face_ids} if isinstance(face_ids, int) else set(face_ids)
    for fid in ids:
        if not 0 <= fid < len(f.faces):
            raise GraphError(f"face id {fid} outside 0..{len(f.faces) - 1}")
    excluded = [False] * f.n
    for fid in ids:
        for v in f.faces[fid].vertices:
            excluded[v] = True
    n, adj = _adjacency(f)
    mates = kernels.mate_array(n, adj, excluded)
    return all(mates[v] >= 0 for v in range(n) if not excluded[v])


def tutte_witness(g: object, bound: int = 4) -> TutteWitness | None:
    """Search for a small vertex set certifying that no perfect matching exists.

    Tries deletion sets in order of size (then lexicographically) up to
    ``bound`` vertices and returns the first whose removal leaves more odd
    components than deleted vertices.  Returns None if no witness that small
    exists - which is inconclusive on its own, but the usual callers pair it
    with a failed matching attempt.

    Raises:
        GuardExceeded: if the subset search would be too large.
    """
    n, adj = _adjacency(g)
    work = sum(comb(n, k) for k in range(min(bound, n) + 1))
    if work > _WITNESS_WORK_CAP:
        raise GuardExceeded(
            f"tutte witness guard: ~{work} deletion sets exceeds {_WITNESS_WORK_CAP}"
        )
    for k in range(min(bound, n) + 1):
        for deleted in combinations(range(n), k):
            comps = _components_without(n, adj, set(deleted))
            odd = tuple(c for c in comps if len(c) % 2)
            if len(odd) > k:
                return TutteWitness(deleted, odd)
    return None


def _components_without(
    n: int, adj: Sequence[Sequence[int]], deleted: set[int]
) -> list[tuple[int, ...]]:
    seen = [False] * n
    comps: list[tuple[int, ...]] = []
    for root in range(n):
        if seen[root] or root in deleted:
            continue
        stack = [root]
        seen[root] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w] and w not in deleted:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def symmetric_difference(m: Matching, cycle: Sequence[int]) -> Matching:
    """Flip a matching along an alternating cycle of vertices.

    ``cycle`` lists the vertices in order; the closing edge is implicit.
    Every other cycle edge must lie in the matching, else GraphError.
    """
    length = len(cycle)
    if length < 4 or length % 2:
        raise GraphError(f"alternating cycle must have even length >= 4, got {length}")
    if len(set(cycle)) != length:
        raise GraphError("alternating cycle repeats a vertex")
    cyc_edges = []
    for i in range(length):
        u, v = cycle[i], cycle[(i + 1) % length]
        cyc_edges.append((u, v) if u < v else (v, u))
    inside = [e in m.edges for e in cyc_edges]
    if not all(inside[i] != inside[i - 1] for i in range(length)):
        raise GraphError("cycle does not alternate with the matching")
    flipped = m.edges.symmetric_difference(cyc_edges)
    result = Matching(frozenset(flipped), m.host)
    touched: set[int] = set()
    for u, v in result.edges:
        assert u not in touched and v not in touched
        touched.update((u, v))
    return result


def face_alternates(face: Face, m: Matching) -> bool:
    """Whether the face's boundary alternates with the matching.

    A face of size 2k alternates exactly when k of its boundary edges lie in
    the matching; odd faces never alternate, as twice the count is even.
    """
    return 2 * sum(1 for e in face.boundary_edges() if e in m.edges) == face.size


def alternating_faces(f: FullereneGraph, m: Matching) -> tuple[int, ...]:
    """Face ids whose boundaries alternate with a perfect matching.

    Raises:
        GraphError: if the matching is not perfect on f.
    """
    if 2 * m.size != f.n or m.covered() != frozenset(range(f.n)):
        raise GraphError("alternating faces are defined against a perfect matching")
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


def enumerate_perfect_matchings(g: object, cap: int | None = None) -> tuple[Matching, ...]:
    """All perfect matchings, in the enumeration's deterministic order.

    Raises:
        GuardExceeded: if the graph has more perfect matchings than the cap
            (no partial results are returned).
    """
    limit = resolve_pm_cap(cap)
    n, adj = _adjacency(g)
    if n % 2:
        return ()
    found = kernels.perfect_matchings(n, adj, limit)
    if len(found) > limit:
        raise GuardExceeded(
            f"perfect matching count exceeds the cap of {limit}; "
            f"raise it via the cap argument or {_PM_CAP_ENV}"
        )
    return tuple(_matching_from_mates(mates, g) for mates in found)
