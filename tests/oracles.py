"""Independent brute-force oracles used to freeze expected test values.

These deliberately share no code with the package: maximum matchings come
from exhaustive search over edge subsets and perfect-matching counts from a
textbook recursion on the lowest uncovered vertex.  The package's former
kernels are kept here, unchanged, as references for the faster ones that
replaced them.  They are only usable on small graphs, which is the point -
package results on small inputs must agree with these, and frozen constants
in the test-suite were produced by them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence


def brute_force_maximum_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Exact maximum matching size by branching on the first usable edge."""

    edges = sorted(set((min(u, v), max(u, v)) for u, v in edges))

    def best(idx: int, used: int) -> int:
        while idx < len(edges) and (used >> edges[idx][0] & 1 or used >> edges[idx][1] & 1):
            idx += 1
        if idx == len(edges):
            return 0
        u, v = edges[idx]
        take = 1 + best(idx + 1, used | 1 << u | 1 << v)
        skip = best(idx + 1, used)
        return max(take, skip)

    return best(0, 0)


def count_perfect_matchings(n: int, adj: list[list[int]]) -> int:
    """Count perfect matchings by pairing the lowest uncovered vertex."""

    neighbour_mask = [0] * n
    for v in range(n):
        for w in adj[v]:
            neighbour_mask[v] |= 1 << w

    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def count(covered: int) -> int:
        if covered == full:
            return 1
        missing = covered ^ full
        v = (missing & -missing).bit_length() - 1  # lowest uncovered vertex
        total = 0
        free = neighbour_mask[v] & ~covered
        w = 0
        while free:
            low = free & -free
            w = low.bit_length() - 1
            total += count(covered | 1 << v | 1 << w)
            free ^= low
        return total

    result = count(0)
    count.cache_clear()
    return result


def perfect_matchings_lowest_first(
    n: int, adj: Sequence[Sequence[int]], limit: int
) -> list[tuple[int, ...]]:
    """All perfect matchings as mate tuples, stopping after limit + 1.

    Backtracks on the lowest unmatched vertex, trying its unmatched
    neighbours in the order ``adj`` lists them, so the output order is a
    fixed lexicographic order of the pairing choices.  A result longer than
    ``limit`` signals to the caller that the cap was exceeded.
    """
    out: list[tuple[int, ...]] = []
    if n % 2 or limit < 0:
        return out
    if n == 0:
        return [()]
    mate = [-1] * n
    # The lowest unmatched vertex v and the iterator over its remaining
    # choices; the stack holds the same pair for every vertex matched before
    # it, so the depth is not bounded by the interpreter's recursion limit.
    stack: list[tuple[int, Iterator[int]]] = []
    v = 0
    choices = iter(adj[0])
    while True:
        for u in choices:
            if mate[u] < 0:
                break
        else:
            if not stack:
                return out
            v, choices = stack.pop()
            mate[mate[v]] = -1
            mate[v] = -1
            continue
        mate[u] = v
        mate[v] = u
        w = v + 1
        while w < n and mate[w] >= 0:
            w += 1
        if w < n:
            stack.append((v, choices))
            v = w
            choices = iter(adj[w])
            continue
        out.append(tuple(mate))
        if len(out) > limit:
            return out
        mate[u] = -1
        mate[v] = -1


def resonant_by_brute_force(adj: list[list[int]], removed: set[int] | frozenset[int]) -> bool:
    """Whether the graph minus ``removed`` has a perfect matching, by counting them."""

    keep = [v for v in range(len(adj)) if v not in removed]
    index = {v: i for i, v in enumerate(keep)}
    sub = [[index[w] for w in adj[v] if w in index] for v in keep]
    return count_perfect_matchings(len(keep), sub) > 0


def count_disjoint_hexagon_sets(hexagon_vertex_sets: list[frozenset[int]], k: int) -> int:
    """Number of k-element sets of pairwise vertex-disjoint hexagons."""

    from itertools import combinations

    total = 0
    for combo in combinations(hexagon_vertex_sets, k):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if combo[i] & combo[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def leapfrog_provenance(
    adj: list[list[int]],
    face_boundaries: list[list[int]],
    image_face_vertex_sets: list[frozenset[int]],
) -> tuple[dict[int, int], dict[int, int]]:
    """Classify leapfrog image faces by vertex-set identity.

    Image vertex i is the i-th arc of the original graph in sorted order.  A
    heritable image face consists of the arcs of one original face's
    boundary cycle, a fresh one of the six arcs touching one original
    vertex.  Returns (image face -> original face, image face -> vertex).
    """
    arcs = sorted((v, w) for v in range(len(adj)) for w in adj[v])
    index = {a: i for i, a in enumerate(arcs)}
    by_vertex_set: dict[frozenset[int], tuple[str, int]] = {}
    for fid, cycle in enumerate(face_boundaries):
        key = frozenset(index[(cycle[i], cycle[(i + 1) % len(cycle)])] for i in range(len(cycle)))
        by_vertex_set[key] = ("heritable", fid)
    for v in range(len(adj)):
        key = frozenset(index[a] for w in adj[v] for a in ((v, w), (w, v)))
        by_vertex_set[key] = ("fresh", v)
    heritable: dict[int, int] = {}
    fresh: dict[int, int] = {}
    for fid, vertex_set in enumerate(image_face_vertex_sets):
        kind, ref = by_vertex_set[vertex_set]
        (heritable if kind == "heritable" else fresh)[fid] = ref
    return heritable, fresh


def canonical_code_by_full_build(rotation: list[tuple[int, int, int]]) -> bytes:
    """The plane canonical code as the minimum over every candidate built in full.

    One candidate per directed start arc and orientation: breadth-first
    labels in discovery order, each vertex giving its three neighbour labels
    from its entry arc onward.  Encoded as the byte n and one byte per label
    up to 255 vertices, else a 0x00 marker, then n and every label as two
    big-endian bytes.
    """
    n = len(rotation)
    best: list[int] | None = None
    for u in range(n):
        for v in rotation[u]:
            for direction in (1, -1):
                label = [-1] * n
                entry = [-1] * n
                label[u] = 0
                entry[u] = v
                order = [u]
                code: list[int] = []
                for w in order:
                    ring = rotation[w]
                    k = ring.index(entry[w])
                    for j in range(3):
                        x = ring[(k + direction * j) % 3]
                        if label[x] < 0:
                            label[x] = len(order)
                            entry[x] = w
                            order.append(x)
                        code.append(label[x])
                if best is None or code < best:
                    best = code
    assert best is not None
    if n <= 255:
        return bytes([n, *best])
    return b"\0" + b"".join(x.to_bytes(2, "big") for x in [n, *best])
