"""Random simple orthogonal polygons by cell aggregation.

Grow a 4-connected, hole-free set of unit grid cells, then trace the
boundary. A cell joins only when the occupied cells around it form one
arc, which refuses every cell that would make two parts of the blob touch
at a corner or seal off a pocket (see _arcs). Simplicity never needs
checking afterwards: it holds by construction. Growth stops exactly when
the boundary has the requested number of vertices, which changes by an
even amount per cell, so any even target from 4 up is reachable; a
seed-derived retry covers runs that overshoot and strand themselves.

Each step tries the frontier cells (kept as a sorted list) in a random
order. The RNG stream is random.shuffle's draws over that list, inlined in
_shuffled: every polygon depends on it, so it must not change.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from .geom import OrthoPolygon, Point, validate_polygon

_ORTHO = ((1, 0), (-1, 0), (0, 1), (0, -1))
_RING = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))


def _corner_delta(cells, x, y):
    """Vertex-count change at the four lattice corners of adding cell (x,y)."""
    delta = 0
    for cx, cy in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
        occ = sum(
            (cx + dx, cy + dy) in cells
            for dx, dy in ((0, 0), (-1, 0), (0, -1), (-1, -1))
        )
        # occ counts neighbors before the addition; the corner gains one.
        # 0->1 and 2->3 create a vertex, 1->2 and 3->4 remove one (the
        # diagonal 2-pattern cannot occur: it is a pinch, and _arcs refuses
        # every cell that would make one).
        delta += 1 if occ in (0, 2) else -1
    return delta


def _arcs(cells, x, y):
    """Number of runs of occupied cells in the 8-ring around (x,y).

    _attempt accepts a frontier cell only when this is at most one, and
    that single test refuses exactly the cells that would pinch the blob
    (two parts touching at a corner) or seal off an empty pocket:
    - every frontier cell has an orthogonal neighbor in the blob;
    - so a pinch, a diagonal cell whose two shared ring neighbors are
      empty, is an arc of its own beside that neighbor's: two arcs at least;
    - two arcs that are not pinches each hold an orthogonal cell, and a
      blob path between them plus the new cell closes a 4-connected loop
      with an empty ring cell inside: a pocket.
    One arc leaves the empty ring cells, and with them the space around
    the blob, connected. A full ring has no arc and cannot occur, as the
    blob has no holes.
    """
    ring = [(x + dx, y + dy) in cells for dx, dy in _RING]
    return sum(ring[i] and not ring[i - 1] for i in range(8))


def _trace(cells) -> list[Point]:
    """CCW boundary of a pinch-free, hole-free cell set, collinear merged."""
    edges = {}
    for x, y in cells:
        if (x, y - 1) not in cells:
            edges[(x, y)] = (x + 1, y)
        if (x + 1, y) not in cells:
            edges[(x + 1, y)] = (x + 1, y + 1)
        if (x, y + 1) not in cells:
            edges[(x + 1, y + 1)] = (x, y + 1)
        if (x - 1, y) not in cells:
            edges[(x, y + 1)] = (x, y)
    start = min(edges)
    walk = [start]
    cur = edges[start]
    while cur != start:
        walk.append(cur)
        cur = edges[cur]
    assert len(walk) == len(edges), "boundary is a single cycle by construction"
    out = []
    for i, p in enumerate(walk):
        a = walk[i - 1]
        b = walk[(i + 1) % len(walk)]
        if (a[0] == p[0] == b[0]) or (a[1] == p[1] == b[1]):
            continue
        out.append(p)
    return [Point(x, y) for x, y in out]


def _shuffled(rng: random.Random, items: list) -> list:
    """A copy of items in the order rng.shuffle would leave it.

    Fisher-Yates with the getrandbits draws of random.Random.shuffle and
    _randbelow_with_getrandbits (CPython 3.10-3.13), made here without a
    Python call per index: the same draws in the same order, so the order
    and the RNG state after it are exactly those of rng.shuffle.
    """
    x = list(items)
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]
    return x


def _attempt(rng: random.Random, target: int, max_cells: int):
    cells = {(0, 0)}
    vcount = 4
    frontier = sorted(((1, 0), (-1, 0), (0, 1), (0, -1)))
    while vcount != target and len(cells) < max_cells:
        placed = False
        for c in _shuffled(rng, frontier):
            x, y = c
            if _arcs(cells, x, y) > 1:
                continue
            delta = _corner_delta(cells, x, y)
            if vcount + delta > target:
                continue
            cells.add(c)
            vcount += delta
            del frontier[bisect_left(frontier, c)]
            for dx, dy in _ORTHO:
                n = (x + dx, y + dy)
                if n not in cells:
                    i = bisect_left(frontier, n)
                    if i == len(frontier) or frontier[i] != n:
                        frontier.insert(i, n)
            placed = True
            break
        if not placed:
            return None
    if vcount != target:
        return None
    return cells


def generate_polygon(seed: int, vertices: int) -> OrthoPolygon:
    """Deterministic random polygon with exactly the given vertex count.

    seed must be non-negative (random.Random would seed -s like s), and
    vertices must be even and at least 4. The polygon is translated so its
    bounding box starts at the origin.
    """
    if seed < 0:
        raise ValueError("seed must not be negative")
    if vertices < 4 or vertices % 2:
        raise ValueError("vertex count must be even and at least 4")
    max_cells = max(16, 4 * vertices)
    for attempt in range(200):
        rng = random.Random(seed * 1000003 + attempt)
        cells = _attempt(rng, vertices, max_cells)
        if cells is not None:
            pts = _trace(cells)
            min_x = min(p.x for p in pts)
            min_y = min(p.y for p in pts)
            shifted = [Point(p.x - min_x, p.y - min_y) for p in pts]
            return validate_polygon(shifted)
    raise RuntimeError(f"gave up generating a {vertices}-vertex polygon")
