"""Face-spiral winding: build a plane cubic graph from a list of face sizes.

Faces are attached one at a time around a growing disk patch.  The patch is
an immutable value ``(boundary, at, full, next_id, faces)``: the boundary's
vertices as a list in winding order, the index of the growth point in it, an
int bitmask with a bit set for each vertex that already has degree 3, the id
the next fresh vertex gets, and the face cycles placed so far as a cons list
``(cycle, rest)`` ending in None.  ``_first`` lays the first face,
``_attach`` glues one more face on and returns a new patch, and ``_close``
checks that the last face fills what is left.  Each attach builds its new
boundary list, so a patch is never changed after it is made, and a search
can branch from one without undoing anything.

Every new face glues onto the "pocket" at the growth point: the attachment
path starts at the nearest degree-2 vertex at or behind the growth point,
runs forward through the following run of degree-3 vertices, and ends at the
next degree-2 vertex, the new growth point.  The face contributes
``size - len(path)`` fresh vertices.  The last face must close the remaining
boundary exactly.

Each edge ends up traversed once in each direction over all recorded face
cycles, so a rotation system can be synthesised from the local constraint
"in the cycle ... a -> b -> d ..., d follows a in the rotation at b".
``_assemble`` does so with no check, because none can fail.  A patch is a
disk whose boundary lists distinct vertices of degree 2 or 3, and its
faces run each boundary edge against the winding order: a face glued into
the pocket runs the path forward and its fresh vertices backward, the
path's inner vertices leave the boundary and its ends reach degree 3.  (A
face glued along all boundary edges but one, with no fresh vertex, leaves
a boundary of two vertices that no later face fits.)  The closing face
runs round the boundary in winding order, so with the patch it makes a
sphere on which each arc lies on one face.  The F sizes sum to
3(2F - 4), twice the edge count, so Euler's formula gives V = 2F - 4 and
the degrees sum to 3V; none is above 3, so each vertex has degree 3 and
its three faces turn once round it.

``wind`` is a fold of ``_attach`` over the sizes between the first and the
last.  It returns None whenever an integer sequence does not wind to a valid
sphere embedding; callers treat that as "this spiral does not exist", which
is the right semantics both for parameterised constructions (where the
sequence is known good) and for exhaustive isomer searches (where most
sequences fail).  A size that is not an integer is a ``GraphError``, and so
is an argument that is not iterable.

``_spirals(n)`` searches the 5/6 spirals of order n depth first over their
prefixes, a pentagon before a hexagon, through the same ``_attach``: a
prefix that fails to attach cuts off every spiral that starts with it.  It
yields each spiral that winds with its graph, in the order
``itertools.combinations`` gives the pentagon positions, and the graph is
the one ``wind`` makes of that spiral.  It finds every fullerene of order n
that has a face spiral (Fowler and Manolopoulos, *An Atlas of Fullerenes*,
1995); the smallest fullerene without one has 380 vertices.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import check_ints
from .plane_graph import EmbeddedGraph

# (boundary, growth point index, degree-3 bitmask, next vertex id, face cycles)
_Patch = tuple[list[int], int, int, int, tuple | None]


def wind(sequence: Sequence[int]) -> EmbeddedGraph | None:
    """Wind a spiral of face sizes into an embedded graph, or return None.

    Raises:
        GraphError: naming a size that is not an integer, a bool included,
            or an argument that is not iterable.
    """
    sizes = check_ints("face size", sequence)
    n_faces = len(sizes)
    # a cubic sphere with F faces has V = 2F - 4 vertices, and its sizes sum to 2E = 3V
    if n_faces < 4 or min(sizes) < 3 or sum(sizes) != 3 * (2 * n_faces - 4):
        return None
    patch = _first(sizes[0])
    for size in sizes[1:-1]:
        patch = _attach(patch, size)
        if patch is None:
            return None
    return _close(patch, sizes[-1])


def _spirals(n: int) -> Iterator[tuple[list[int], EmbeddedGraph]]:
    """Every 5/6 face spiral of order n that winds, with its graph, pentagons first."""
    n_faces = n // 2 + 2
    # (prefix, its pentagon count, its patch or None before the first face);
    # the top of the stack is searched first
    stack: list[tuple[list[int], int, _Patch | None]] = [([], 0, None)]
    while stack:
        seq, pentagons, patch = stack.pop()
        if len(seq) == n_faces - 1:
            last = 5 if pentagons == 11 else 6
            g = _close(patch, last)
            if g is not None:
                yield seq + [last], g
            continue
        for size, fits in ((6, len(seq) - pentagons < n_faces - 12), (5, pentagons < 12)):
            if not fits:
                continue
            child = _first(size) if patch is None else _attach(patch, size)
            if child is not None:
                stack.append((seq + [size], pentagons + (size == 5), child))


def _first(size: int) -> _Patch:
    """The patch of one face: its cycle runs 0, 1, ..., the boundary the other way."""
    return [0, *range(size - 1, 0, -1)], 0, 0, size, (list(range(size)), None)


def _attach(patch: _Patch, size: int) -> _Patch | None:
    """The patch with a face of ``size`` glued into its pocket, or None."""
    ring, at, full, next_id, faces = patch
    n = len(ring)
    start = at
    while full >> ring[start] & 1:
        start -= 1
        if start == at - n:
            return None  # boundary saturated before the last face
    end = start + 1
    while full >> ring[end % n] & 1:
        end += 1
    if end - start == n:
        return None  # single degree-2 vertex left: cannot glue
    fresh = size - (end - start + 1)
    if fresh < 0:
        return None  # face smaller than the pocket it must cover
    new = list(range(next_id + fresh - 1, next_id - 1, -1))
    if start < 0:
        start += n
        end += n
    # the path's inner vertices leave the boundary and the new ones, in
    # reverse, take their place; the path's last vertex is the new growth point
    if end < n:
        path = ring[start:end + 1]
        ring = ring[:start + 1] + new + ring[end:]
        at = start + 1 + fresh
    else:
        path = ring[start:] + ring[:end - n + 1]
        ring = ring[end - n:start + 1] + new
        at = 0
    full |= 1 << path[0] | 1 << path[-1]
    return ring, at, full, next_id + fresh, (path + new[::-1], faces)


def _close(patch: _Patch, size: int) -> EmbeddedGraph | None:
    """The graph the patch makes when a face of ``size`` fills its boundary, or None."""
    ring, _, _, next_id, faces = patch
    if len(ring) != size:
        return None
    # the closing face runs round the boundary in winding order, from any vertex
    cycles = [ring]
    while faces is not None:
        cycle, faces = faces
        cycles.append(cycle)
    return _assemble(next_id, cycles)


def _assemble(nv: int, face_cycles: list[list[int]]) -> EmbeddedGraph:
    """Synthesise the rotations of the sphere the oriented face cycles make."""
    cw: list[dict[int, int]] = [{} for _ in range(nv)]
    for cyc in face_cycles:
        size = len(cyc)
        for i in range(size):
            cw[cyc[i]][cyc[i - 1]] = cyc[(i + 1) % size]
    rotation = []
    for ring in cw:
        a0 = min(ring)
        rotation.append((a0, ring[a0], ring[ring[a0]]))
    return EmbeddedGraph(tuple(rotation))
