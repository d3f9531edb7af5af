"""Computational kernels.

Three hot primitives used throughout the package:

* ``mate_array`` — maximum matching on a general graph (blossom contraction),
  with an optional excluded-vertex mask so callers can test matchings of
  vertex-deleted subgraphs without rebuilding adjacency.
* ``perfect_matchings`` — exhaustive perfect-matching enumeration by
  backtracking on the lowest unmatched vertex.
* ``has_small_cyclic_cut`` — brute force over small edge subsets looking for a
  cut that separates two cycle-containing components.

All three are deterministic: they scan vertices in ascending id and each
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
    up with mate -1.  Greedy initialisation followed by blossom augmenting
    searches from each remaining free vertex in ascending order.
    """
    exc = [False] * n if excluded is None else [bool(x) for x in excluded]
    mate = [-1] * n

    for v in range(n):
        if not exc[v] and mate[v] < 0:
            for u in adj[v]:
                if not exc[u] and mate[u] < 0:
                    mate[v] = u
                    mate[u] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
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

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            p[v] = child
            child = mate[v]
            v = p[mate[v]]

    for root in range(n):
        if exc[root] or mate[root] >= 0:
            continue
        for i in range(n):
            p[i] = -1
            base[i] = i
            used[i] = False
        used[root] = True
        queue = deque([root])
        finish = -1
        while queue and finish < 0:
            v = queue.popleft()
            for to in adj[v]:
                if exc[to]:
                    continue
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] >= 0 and p[mate[to]] >= 0):
                    # An odd cycle (blossom) closes; contract it to its base.
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] < 0:
                    p[to] = v
                    if mate[to] < 0:
                        finish = to
                        break
                    used[mate[to]] = True
                    queue.append(mate[to])
        if finish >= 0:
            v = finish
            while v >= 0:
                pv = p[v]
                ppv = mate[pv]
                mate[v] = pv
                mate[pv] = v
                v = ppv
    return mate


def perfect_matchings(
    n: int, adj: Sequence[Sequence[int]], limit: int
) -> list[tuple[int, ...]]:
    """All perfect matchings as mate tuples, stopping after limit + 1.

    Backtracks on the lowest unmatched vertex, trying its unmatched
    neighbours in the order ``adj`` lists them, so the output order is a
    fixed lexicographic order of the pairing choices.  A result longer than
    ``limit`` signals to the caller that the cap was exceeded.
    """
    out: list[tuple[int, ...]] = []
    if n % 2:
        return out
    mate = [-1] * n

    def backtrack(lo: int) -> None:
        if len(out) > limit:
            return
        v = lo
        while v < n and mate[v] >= 0:
            v += 1
        if v == n:
            out.append(tuple(mate))
            return
        for u in adj[v]:
            if mate[u] < 0:
                mate[v] = u
                mate[u] = v
                backtrack(v + 1)
                mate[v] = -1
                mate[u] = -1
                if len(out) > limit:
                    return

    backtrack(0)
    return out


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
