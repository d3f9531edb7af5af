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
* ``perfect_matchings`` — exhaustive perfect-matching enumeration on
  bitmasks, backtracking on the first free vertex of a breadth-first order
  from a pseudo-peripheral vertex of each component, after one
  ``mate_array`` call has shown that a perfect matching exists; it returns
  the matchings in search order (``matching.enumerate_perfect_matchings``
  sorts them).
* ``has_small_cyclic_cut`` — brute force over small edge subsets looking for a
  cut that separates two cycle-containing components.  The library no longer
  calls it: ``plane_graph.verify_cyclic_edge_connectivity`` reads cuts off
  dual cycles.  It stays as the tests' oracle for that check, under this
  name, which the tracer in ``perfbench/spans.py`` looks up.

All are deterministic: they scan vertices in ascending id (the enumeration
builds its breadth-first order that way) and each vertex's neighbours in
the order the caller lists them (callers pass rotation order, which need
not be sorted), so equal inputs give equal outputs.
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

    The vertices are put in ``_breadth_first_order`` and the search keeps
    its free vertices as a bitmask over that order.  It matches the first
    free vertex to a free neighbour, lowest position first; a vertex with
    one free neighbour takes it without a backtracking frame, since each
    frame holds the free mask from before its choice.  A branch ends when
    the first free vertex has no free neighbour.  Neighbour rows are masks,
    so a loop is never a matching edge and a repeated neighbour is one
    choice: each matching appears once.  A result longer than ``limit``
    signals to the caller that the cap was exceeded.

    A graph that ``mate_array`` cannot match perfectly gives none at once:
    the search would meet a dead spot far along the order again under every
    matching of the part before it, for exponential time.
    """
    if n % 2 or limit < 0 or -1 in mate_array(n, adj):
        return []
    order = _breadth_first_order(n, adj)
    at = [0] * n
    for i, v in enumerate(order):
        at[v] = i
    rows = [0] * n
    for i, v in enumerate(order):
        for u in adj[v]:
            if u != v:
                rows[i] |= 1 << at[u]
    free = (1 << n) - 1
    # A frame holds a chooser's position, the free mask before its choice
    # and its untried neighbours, so the depth is not bounded by the
    # interpreter's recursion limit.  A mate entry is never cleared: a
    # backtrack returns to a prefix of the path, and a complete path
    # rewrites every entry.
    mate = [-1] * n
    found: list[tuple[int, ...]] = []
    stack: list[tuple[int, int, int]] = []
    # The step is written out twice, forward and after a backtrack: one
    # shared tail made the search about 8% slower on C60.
    while True:
        if free:
            low = free & -free
            i = low.bit_length() - 1
            choices = rows[i] & free
            if choices:
                pick = choices & -choices
                if choices != pick:
                    stack.append((i, free, choices ^ pick))
                v = order[i]
                u = order[pick.bit_length() - 1]
                mate[v] = u
                mate[u] = v
                free ^= low | pick
                continue
        else:
            found.append(tuple(mate))
            if len(found) > limit:
                return found
        if not stack:
            return found
        i, free, choices = stack.pop()
        pick = choices & -choices
        if choices != pick:
            stack.append((i, free, choices ^ pick))
        v = order[i]
        u = order[pick.bit_length() - 1]
        mate[v] = u
        mate[u] = v
        free ^= 1 << i | pick


def _breadth_first_order(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Every vertex, component by component, each breadth first from a pseudo-peripheral vertex.

    Components come in the order of their least vertex.  A first sweep
    from that vertex ends at a farthest one, and the second sweep, from
    there, gives the component's order (Gibbs, Poole & Stockmeyer, 1976):
    the frontier between matched and free vertices stays narrow.
    """
    order: list[int] = []
    # 0: not reached yet; 1: reached by the first sweep; 2: placed
    mark = [0] * n
    for root in range(n):
        if not mark[root]:
            order += _sweep(adj, mark, _sweep(adj, mark, root, 1)[-1], 2)
    return order


def _sweep(adj: Sequence[Sequence[int]], mark: list[int], root: int, stamp: int) -> list[int]:
    """Breadth first from root over the nodes not yet marked ``stamp``, marking them.

    The package's one flood fill; ``adj`` may be any adjacency, faces across faces too.
    """
    mark[root] = stamp
    queue = [root]
    for v in queue:
        for u in adj[v]:
            if mark[u] != stamp:
                mark[u] = stamp
                queue.append(u)
    return queue


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
