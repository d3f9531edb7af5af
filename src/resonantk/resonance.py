"""Resonance analysis: which disjoint hexagon sets support alternating matchings.

A set H of pairwise vertex-disjoint hexagons is *resonant* when some perfect
matching makes every hexagon of H alternating - equivalently, when the graph
minus V(H) still has a perfect matching (each hexagon can then be closed with
three of its own boundary edges).  Everything in this module builds on that
equivalence: the sextet polynomial counts resonant sets by size, the Clar
number is its degree, k-resonance asks that all disjoint k-sets be resonant,
and the resonance order is the largest such k (with "ALL" when every size is
exhausted vacuously).

Results per hexagon set are memoised on the graph, so computing the sextet
polynomial, the resonance order, and spot checks in one process shares work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from . import kernels, matching
from .errors import GraphError, check_int
from .matching import (
    Matching,
    alternating_faces,
    enumerate_perfect_matchings,
    face_alternates,
)
from .plane_graph import FullereneGraph, delete_vertices, is_bipartite

ALL = "ALL"


@dataclass(frozen=True)
class ResonantPattern:
    """A resonant hexagon set with its certifying perfect matching."""

    hexagons: tuple[int, ...]
    matching: Matching


@dataclass(frozen=True)
class SextetPolynomial:
    """Counts of resonant hexagon sets by size; coefficients[i] is the i-count."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def sigma(self, i: int) -> int:
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    def __call__(self, x: float) -> float:
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def descending(self) -> tuple[int, ...]:
        """Coefficients from the leading term down; the serialised order."""
        return tuple(reversed(self.coefficients))


@dataclass(frozen=True)
class OrderReport:
    """Resonance order plus the smallest failing set when the order is finite.

    ``order`` is either an int k (all disjoint sets of size <= k resonant,
    some (k+1)-set is not) or the string "ALL" when no failing set of any
    size exists.  ``failing`` is the size-then-lex first non-resonant set.
    ``capped`` marks an early stop at a caller-imposed maximum, in which case
    ``order`` is a lower bound.
    """

    order: Union[int, str]
    failing: tuple[int, ...] | None
    capped: bool = False


@dataclass(frozen=True)
class GStarWitness:
    """Three disjoint hexagons jointly covering a vertex's whole neighbourhood.

    Removing them isolates the vertex, so the set can never be resonant.
    """

    vertex: int
    hexagons: tuple[int, int, int]


@dataclass(frozen=True)
class HexagonReport:
    """Resonance and bipartiteness data for one hexagon's deletion."""

    face_id: int
    resonant: bool
    deletion_bipartite: bool
    odd_cycle: tuple[int, ...] | None


def _check_hexagon_set(f: FullereneGraph, hexagon_ids: Iterable[int]) -> tuple[int, ...]:
    ids = tuple(sorted(set(hexagon_ids)))
    for h in ids:
        if not 0 <= h < len(f.faces):
            raise GraphError(f"face id {h} outside 0..{len(f.faces) - 1}")
        if not f.is_hexagon(h):
            raise GraphError(f"face {h} is a pentagon; resonant sets contain hexagons only")
    for i in range(len(ids)):
        around = f.faces.across(ids[i])
        for j in range(i + 1, len(ids)):
            if ids[j] in around:
                raise GraphError(
                    f"hexagons {ids[i]} and {ids[j]} share vertices; the set must be disjoint"
                )
    return ids


def _resonant(f: FullereneGraph, ids: tuple[int, ...]) -> bool:
    """Memoised resonance decision for a validated disjoint hexagon set."""
    memo = f._memo.setdefault("resonant", {})
    key = frozenset(ids)
    hit = memo.get(key)
    if hit is None:
        hit = matching.is_central(f, ids)
        memo[key] = hit
    return hit


def is_resonant_pattern(
    f: FullereneGraph, hexagon_ids: Iterable[int]
) -> ResonantPattern | None:
    """Decide resonance of a disjoint hexagon set; certificate on success.

    The certificate is a perfect matching of the whole graph that alternates
    on every hexagon of the set: the kernel's maximum matching of the graph
    with the hexagons' vertices masked out, which is perfect on the rest and
    already in the graph's own vertex ids, closed with three boundary edges
    in each hexagon.  It is checked once for perfectness and for alternation
    on the set's hexagons.

    Raises:
        GraphError: if a face id is not a hexagon or two hexagons intersect.
    """
    ids = _check_hexagon_set(f, hexagon_ids)
    if not _resonant(f, ids):
        return None
    excluded = [False] * f.n
    for h in ids:
        for v in f.faces[h].vertices:
            excluded[v] = True
    mate = kernels.mate_array(f.n, f.graph.rotation, excluded)
    edges = {(v, w) for v, w in enumerate(mate) if v < w}
    for h in ids:
        b = f.faces[h].boundary
        for i in (0, 2, 4):
            u, v = b[i], b[i + 1]
            edges.add((u, v) if u < v else (v, u))
    cert = Matching(frozenset(edges), f)
    if 2 * cert.size != f.n or len(cert.covered()) != f.n:
        raise RuntimeError(
            f"hexagons {ids} were decided resonant, but the certificate built from "
            f"a maximum matching of the rest covers {len(cert.covered())} of {f.n} vertices"
        )
    missing = [h for h in ids if not face_alternates(f.faces[h], cert)]
    if missing:
        raise RuntimeError(
            f"the certificate for {ids} does not alternate on hexagons {missing}"
        )
    return ResonantPattern(ids, cert)


def disjoint_hexagon_sets(f: FullereneGraph, k: int) -> Iterator[tuple[int, ...]]:
    """All k-sets of pairwise vertex-disjoint hexagons, lexicographically.

    Hexagons conflict when they share a vertex, that is when one is across
    an edge of the other.
    """
    if k < 0:
        raise GraphError(f"set size must be non-negative, got {k}")
    if k == 0:
        yield ()
        return
    # Frames [set so far, hexagons that may extend it, index of the next one to try].
    stack = [[(), f.hexagon_ids, 0]]
    while stack:
        frame = stack[-1]
        ids, cands, i = frame
        if i + k - len(ids) > len(cands):
            stack.pop()
            continue
        frame[2] = i + 1
        h = cands[i]
        if len(ids) + 1 == k:
            yield ids + (h,)
        else:
            bad = f.faces.across(h)
            stack.append([ids + (h,), [c for c in cands[i + 1 :] if c not in bad], 0])


def sextet(f: FullereneGraph) -> SextetPolynomial:
    """The polynomial whose i-th coefficient counts resonant i-sets.

    One depth-first walk visits the resonant sets, each extended only by
    hexagons later in ``f.hexagon_ids`` that miss it, so every set is reached
    once, from the set without its last hexagon.  A node carries a perfect
    matching of G - V(H) as a mate array.  A child H + h copies it, excludes
    h's six vertices and frees their partners outside h, then runs one
    ``kernels.augment`` search from each freed vertex still unmatched: if h
    already alternates nothing is freed and no search runs.  A failed search
    proves the child non-resonant (Edmonds), and its subtree is skipped,
    since a resonant set's subsets are resonant.  Every child's outcome is
    written to the resonance memo, which then holds every set the
    size-then-lex sweep of ``resonance_order`` reaches.
    """
    memo = f._memo.setdefault("resonant", {})
    adj = f.graph.rotation
    n = f.n
    root = kernels.mate_array(n, adj)
    if -1 in root:
        raise RuntimeError("the graph has no perfect matching, so the empty set is not resonant")
    memo[frozenset()] = True
    coeffs = [1]
    # Frames [H, mate of G - V(H), exclusion mask of V(H), hexagons that may
    # extend H, index of the next one to try].
    stack = [[(), root, [False] * n, f.hexagon_ids, 0]]
    while stack:
        frame = stack[-1]
        ids, mate, excluded, cands, i = frame
        if i == len(cands):
            stack.pop()
            continue
        frame[4] = i + 1
        h = cands[i]
        ring = f.faces[h].boundary
        exc = excluded[:]
        for v in ring:
            exc[v] = True
        freed = [mate[v] for v in ring if not exc[mate[v]]]
        child = mate[:]
        for v in ring:
            child[v] = -1
        for u in freed:
            child[u] = -1
        ok = all(child[u] >= 0 or kernels.augment(n, adj, exc, child, u) for u in freed)
        ids = ids + (h,)
        memo[frozenset(ids)] = ok
        if ok:
            if len(ids) == len(coeffs):
                coeffs.append(0)
            coeffs[len(ids)] += 1
            bad = f.faces.across(h)
            stack.append([ids, child, exc, [c for c in cands[i + 1 :] if c not in bad], 0])
    return SextetPolynomial(tuple(coeffs))


def clar(f: FullereneGraph) -> int:
    """Largest size of a resonant hexagon set (the sextet polynomial's degree)."""
    return sextet(f).degree


def fries(f: FullereneGraph, cap: int | None = None) -> int:
    """Largest number of alternating hexagons over all perfect matchings.

    Raises:
        GuardExceeded: if the matching count exceeds the enumeration cap.
    """
    best = 0
    for m in enumerate_perfect_matchings(f, cap):
        best = max(best, len(alternating_faces(f, m)))
    return best


def resonance_order(f: FullereneGraph, max_k: int | None = None) -> OrderReport:
    """Largest k such that every disjoint k-set of hexagons is resonant.

    Sizes are swept upward.  A size with no disjoint sets at all ends the
    sweep with order "ALL" (every later size is empty too).  The first
    non-resonant set encountered - smallest size, lexicographically first -
    is reported as the failing witness.

    Raises:
        GraphError: if ``max_k`` is given and is not an integer >= 0.
    """
    if max_k is not None:
        check_int("max_k", max_k, 0)
    k = 1
    while True:
        if max_k is not None and k > max_k:
            return OrderReport(max_k, None, capped=True)
        any_set = False
        for ids in disjoint_hexagon_sets(f, k):
            any_set = True
            if not _resonant(f, ids):
                return OrderReport(k - 1, ids)
        if not any_set:
            return OrderReport(ALL, None)
        k += 1


def find_g_star(f: FullereneGraph) -> GStarWitness | None:
    """Scan for a vertex whose three opposite faces are disjoint hexagons.

    The face "opposite" a neighbour w of v is the one containing w but not v.
    If all three are hexagons and pairwise vertex-disjoint, removing them
    isolates v, so they witness a non-resonant 3-set.  Vertices are scanned
    in ascending order; the first hit is returned.
    """
    g = f.graph
    for v in range(f.n):
        # The face along (w, x), x the neighbour before v at w, turns at w
        # between the two edges other than wv; faces have no chords, so it misses v.
        opposite = [f.faces.face_of_arc((w, g.cw_prev(v, w))) for w in g.neighbors(v)]
        if not all(f.is_hexagon(fid) for fid in opposite):
            continue
        a, b, c = (f.faces[x].vertices for x in opposite)
        if a & b or a & c or b & c:
            continue
        witness = GStarWitness(v, tuple(sorted(opposite)))
        ids = _check_hexagon_set(f, witness.hexagons)
        if _resonant(f, ids):
            raise RuntimeError(f"G* witness {witness} isolates vertex {v} but was decided resonant")
        return witness
    return None


def hexagon_dichotomy_report(f: FullereneGraph) -> tuple[HexagonReport, ...]:
    """Per-hexagon record: is it resonant, and is the graph minus it bipartite?

    For fullerene graphs the expected pattern is resonant=True with a
    non-bipartite remainder (witnessed by an odd cycle).
    """
    out = []
    for h in f.hexagon_ids:
        resonant = _resonant(f, (h,))
        sub = delete_vertices(f, f.faces[h].vertices)
        bip, cycle = is_bipartite(sub)
        out.append(HexagonReport(h, resonant, bip, cycle))
    return tuple(out)
