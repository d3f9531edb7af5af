"""Computational kernels.

The hot primitives used throughout the package, and one brute force kept
for the tests:

* ``mate_array`` — maximum matching on a general graph (blossom contraction),
  with an optional excluded-vertex mask so callers can test matchings of
  vertex-deleted subgraphs without rebuilding adjacency.
* ``augment`` — the single-root blossom search that ``mate_array`` runs from
  each free vertex after its greedy start.  It is public so that a caller
  holding a matching can repair it after freeing a few vertices (the sextet
  walk in ``resonance`` does this) instead of matching from scratch.
* ``perfect_matchings`` — exhaustive perfect-matching enumeration by
  backtracking on the most constrained unmatched vertex, so that the search
  does not depend on the labelling; it returns the matchings in search
  order (``matching.enumerate_perfect_matchings`` sorts them).
* ``has_small_cyclic_cut`` — brute force over small edge subsets looking for a
  cut that separates two cycle-containing components.  The library no longer
  calls it: ``plane_graph.verify_cyclic_edge_connectivity`` reads cuts off
  dual cycles.  It stays as the tests' oracle for that check, under this
  name, which the tracer in ``perfbench/spans.py`` looks up.

All are deterministic: they scan vertices in ascending id and each
vertex's neighbours in the order the caller lists them (callers pass rotation
order, which need not be sorted), so equal inputs give equal outputs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Sequence

# perfbench/run.py records this name with every run; it is the only backend.
BACKEND = "pure"


def mate_array(
    n: int,
    adj: Sequence[Sequence[int]],
    excluded: Sequence[int] | None = None,
) -> list[int]:
    """Maximum matching; returns mate[v] (or -1) for every vertex.

    Excluded vertices (mask value 1) are treated as absent and always end
    up with mate -1, and a loop is never a matching edge.  Greedy
    initialisation followed by an ``augment`` search from each remaining
    free vertex in ascending order.
    """
    exc = [False] * n if excluded is None else [bool(x) for x in excluded]
    mate = [-1] * n

    for v in range(n):
        if not exc[v] and mate[v] < 0:
            for u in adj[v]:
                if u != v and not exc[u] and mate[u] < 0:
                    mate[v] = u
                    mate[u] = v
                    break

    for root in range(n):
        if not exc[root] and mate[root] < 0:
            augment(n, adj, exc, mate, root)
    return mate


def augment(
    n: int,
    adj: Sequence[Sequence[int]],
    excluded: Sequence[int],
    mate: list[int],
    root: int,
) -> bool:
    """One blossom search for an augmenting path from the free vertex ``root``.

    On success the path is flipped in ``mate`` (in place), matching ``root``
    and one other free vertex, and True is returned.  On failure ``mate`` is
    unchanged and, by Edmonds' theorem, no maximum matching that extends the
    present one covers ``root``.  Vertices with a true ``excluded`` entry
    are treated as absent.
    """
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if excluded[to]:
                continue
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] >= 0 and p[mate[to]] >= 0):
                # An odd cycle (blossom) closes; contract it to its base.
                curbase = _lca(n, mate, p, base, v, to)
                blossom = [False] * n
                _mark_path(mate, p, base, blossom, v, curbase, to)
                _mark_path(mate, p, base, blossom, to, curbase, v)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] < 0:
                p[to] = v
                if mate[to] < 0:
                    while to >= 0:
                        pv = p[to]
                        ppv = mate[pv]
                        mate[to] = pv
                        mate[pv] = to
                        to = ppv
                    return True
                used[mate[to]] = True
                queue.append(mate[to])
    return False


def _lca(n: int, mate: list[int], p: list[int], base: list[int], a: int, b: int) -> int:
    hit = [False] * n
    x = base[a]
    while True:
        hit[x] = True
        if mate[x] < 0:
            break
        x = base[p[mate[x]]]
    y = base[b]
    while not hit[y]:
        y = base[p[mate[y]]]
    return y


def _mark_path(
    mate: list[int], p: list[int], base: list[int], blossom: list[bool], v: int, b: int, child: int
) -> None:
    while base[v] != b:
        blossom[base[v]] = True
        blossom[base[mate[v]]] = True
        p[v] = child
        child = mate[v]
        v = p[mate[v]]


def perfect_matchings(
    n: int, adj: Sequence[Sequence[int]], limit: int
) -> list[tuple[int, ...]]:
    """All perfect matchings as mate tuples in search order, stopping after limit + 1.

    Backtracks on the most constrained unmatched vertex: the one with the
    fewest unmatched neighbours, the lowest id among those.  Matching an
    edge lowers its endpoints' neighbours' counts, and a branch ends as soon
    as an unmatched vertex has none left, so the search does not depend on
    how the vertices are labelled.  Each vertex tries its unmatched
    neighbours in the order ``adj`` lists them.  Each matching appears once.
    A result longer than ``limit`` signals to the caller that the cap was
    exceeded.
    """
    if n % 2 or limit < 0:
        return []
    if n == 0:
        return [()]
    # free[v]: unmatched neighbours of v; counts[c]: the unmatched vertices
    # with c of them.  A loop is never a matching edge, so it is dropped.
    rows = [[u for u in row if u != v] for v, row in enumerate(adj)]
    free = [len(row) for row in rows]
    counts: list[set[int]] = [set() for _ in range(max(free) + 1)]
    for v in range(n):
        counts[free[v]].add(v)
    if counts[0]:
        return []
    nonzero = counts[1:]
    # around[v][i]: the neighbours of both ends of the edge from v to
    # rows[v][i], whose counts change when it is matched or unmatched.
    around = [[(*row, *rows[u]) for u in row] for row in rows]
    mate = [-1] * n
    found: list[tuple[int, ...]] = []
    # The chooser v and the index of its next choice in rows[v]; the stack
    # holds the same pair for every chooser matched so far, so the depth is
    # not bounded by the interpreter's recursion limit.
    stack: list[tuple[int, int]] = []
    v = _most_constrained(nonzero)
    i = 0
    while True:
        row = rows[v]
        while i < len(row) and mate[row[i]] >= 0:
            i += 1
        if i < len(row):
            u = row[i]
            mate[v] = u
            mate[u] = v
            counts[free[v]].remove(v)
            counts[free[u]].remove(u)
            stack.append((v, i))
            alive = True
            for w in around[v][i]:
                c = free[w]
                free[w] = c - 1
                if mate[w] < 0:
                    counts[c].remove(w)
                    counts[c - 1].add(w)
                    if c == 1:
                        alive = False
            if alive:
                w = _most_constrained(nonzero)
                if w >= 0:
                    v = w
                    i = 0
                    continue
                found.append(tuple(mate))
                if len(found) > limit:
                    return found
        if not stack:
            break
        v, i = stack.pop()
        u = mate[v]
        for w in around[v][i]:
            c = free[w]
            free[w] = c + 1
            if mate[w] < 0:
                counts[c].remove(w)
                counts[c + 1].add(w)
        mate[v] = -1
        mate[u] = -1
        counts[free[v]].add(v)
        counts[free[u]].add(u)
        i += 1
    return found


def _most_constrained(nonzero: list[set[int]]) -> int:
    """The lowest vertex in the first nonempty count set, or -1 if none is."""
    for b in nonzero:
        if b:
            return min(b)
    return -1


def has_small_cyclic_cut(
    n: int, edges: Sequence[tuple[int, int]], max_size: int
) -> bool:
    """Whether removing some <= max_size edges leaves >= 2 cyclic components.

    A component is cyclic when it has at least as many surviving edges as
    vertices.  Subsets are tried in ascending size, lexicographic order.
    """
    m = len(edges)
    if max_size <= 0:
        return False
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append((v, idx))
        incident[v].append((u, idx))
    alive = [True] * m
    comp = [-1] * n

    for size in range(1, max_size + 1):
        for combo in combinations(range(m), size):
            for i in combo:
                alive[i] = False
            if _counts_cyclic_split(n, incident, alive, comp):
                for i in combo:
                    alive[i] = True
                return True
            for i in combo:
                alive[i] = True
    return False


def _counts_cyclic_split(
    n: int,
    incident: list[list[tuple[int, int]]],
    alive: list[bool],
    comp: list[int],
) -> bool:
    for i in range(n):
        comp[i] = -1
    n_comp = 0
    cyclic = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = n_comp
        stack = [start]
        verts = 0
        ends = 0  # edge endpoints seen within the component
        while stack:
            v = stack.pop()
            verts += 1
            for w, idx in incident[v]:
                if not alive[idx]:
                    continue
                ends += 1
                if comp[w] < 0:
                    comp[w] = n_comp
                    stack.append(w)
        if ends // 2 >= verts:
            cyclic += 1
            if cyclic >= 2:
                return True
        n_comp += 1
        if n_comp == 1 and verts == n:
            return False  # still connected
    return False
