"""Leftover regions after the grid cover, and the patch that guards them.

Covering the guarding grid does not always cover the polygon: pockets can
remain that no chosen track sees. Each connected leftover piece is a
staircase-shaped region, every such piece can be seen entirely by at least
one grid track, and one track can finish off at most two pieces. That turns
the patching step into a minimum edge cover problem on a graph whose nodes
are leftover pieces and whose edges say "some single track sees both".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matching
from .errors import NonStaircaseResidue, UnguardableRegion
from .geom import OrthoPolygon, OrthoSegment
from .region import (
    RectilinearRegion,
    polygon_region,
    region_cells,
    region_components,
    region_difference,
)
from .visibility import guards_entirely, visible_union


def uncovered_region(P: OrthoPolygon, cameras) -> RectilinearRegion:
    """Part of the polygon no listed camera sees (regularized)."""
    return region_difference(polygon_region(P), visible_union(P, cameras))


def critical_regions(P: OrthoPolygon, cameras) -> list[RectilinearRegion]:
    """Connected leftover pieces, sorted canonically.

    Components touching only at a corner count as separate pieces. Each
    piece must be staircase-shaped, and a piece that is not raises
    NonStaircaseResidue. That happens for some optimal grid covers too
    (tests/test_pipeline.py pins two), so run_pipeline moves on to the next
    optimum when it does.
    """
    comps = region_components(uncovered_region(P, cameras))
    for c in comps:
        if not is_staircase(c):
            raise NonStaircaseResidue(f"leftover piece is not a staircase: {c.rects}")
    return comps


def _boundary_cycle(r: RectilinearRegion):
    """Single CCW boundary cycle of r as merged step vectors, or None when
    the boundary is pinched or has several cycles (hole or disconnection)."""
    cells = region_cells(r)
    xs = sorted({x for c in cells for x in (c[0], c[1])})
    ys = sorted({y for c in cells for y in (c[2], c[3])})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    occ = {(xi[c[0]], yi[c[2]]) for c in cells}
    edges = {}
    for i, j in occ:
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[j], ys[j + 1]
        sides = []
        if (i, j - 1) not in occ:
            sides.append(((x0, y0), (x1, y0)))
        if (i + 1, j) not in occ:
            sides.append(((x1, y0), (x1, y1)))
        if (i, j + 1) not in occ:
            sides.append(((x1, y1), (x0, y1)))
        if (i - 1, j) not in occ:
            sides.append(((x0, y1), (x0, y0)))
        for a, b in sides:
            if a in edges:  # two outgoing edges: pinch vertex
                return None
            edges[a] = b
    start = min(edges)
    walk = [start]
    cur = edges[start]
    while cur != start:
        walk.append(cur)
        cur = edges[cur]
    if len(walk) != len(edges):
        return None
    steps = []
    for t in range(len(walk)):
        a = walk[t]
        b = walk[(t + 1) % len(walk)]
        d = (b[0] - a[0], b[1] - a[1])
        if steps and (steps[-1][0] == 0) == (d[0] == 0):
            steps[-1] = (steps[-1][0] + d[0], steps[-1][1] + d[1])
        else:
            steps.append(d)
    if len(steps) > 1 and (steps[0][0] == 0) == (steps[-1][0] == 0):
        steps[0] = (steps[0][0] + steps[-1][0], steps[0][1] + steps[-1][1])
        steps.pop()
    return steps


def is_staircase(r: RectilinearRegion) -> bool:
    """Is r connected, hole-free and staircase-shaped?

    Staircase-shaped: the merged boundary cycle has a corner whose two
    incident straight runs, once removed, leave a chain that is monotone
    (all horizontal runs one way, all vertical runs one way). A rectangle
    qualifies with an empty chain aside from its two far sides. The empty
    region does not qualify.
    """
    if r.is_empty:
        return False
    steps = _boundary_cycle(r)
    if steps is None:
        return False
    m = len(steps)
    for rot in range(m):
        rest = [steps[(rot + 1 + t) % m] for t in range(m - 2)]
        hs = {dx > 0 for dx, dy in rest if dx != 0}
        vs = {dy > 0 for dx, dy in rest if dy != 0}
        if len(hs) <= 1 and len(vs) <= 1:
            return True
    return False


@dataclass(frozen=True)
class RegionGraph:
    """Patch instance: which grid tracks see which leftover pieces whole.

    Nodes are piece indices. An edge (i, j) means one track sees both piece
    i and piece j entirely; edge_witness carries the smallest such track
    index (into candidates). Pieces no track shares with another get a loop
    with their own best track in loop_witness.
    """

    regions: tuple[RectilinearRegion, ...]
    candidates: tuple[OrthoSegment, ...]
    edges: tuple[tuple[int, int], ...]
    edge_witness: dict[tuple[int, int], int]
    loops: tuple[int, ...]
    loop_witness: dict[int, int]


def build_region_graph(P: OrthoPolygon, regions, candidates) -> RegionGraph:
    """Match leftover pieces with tracks that see them entirely.

    Raises UnguardableRegion when some piece is seen whole by no candidate
    track; a grid cover never produces such a piece.
    """
    regions = tuple(regions)
    candidates = list(candidates)
    seers: list[list[int]] = []
    for idx, r in enumerate(regions):
        who = [k for k, s in enumerate(candidates) if guards_entirely(P, s, r)]
        if not who:
            raise UnguardableRegion(f"no track sees leftover piece {idx} whole")
        seers.append(who)
    sets = [set(w) for w in seers]
    edges = []
    witness = {}
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            common = sets[i] & sets[j]
            if common:
                edges.append((i, j))
                witness[(i, j)] = min(common)
    linked = {v for e in edges for v in e}
    loops = tuple(i for i in range(len(regions)) if i not in linked)
    loop_witness = {i: seers[i][0] for i in loops}
    return RegionGraph(
        regions, tuple(candidates), tuple(edges), witness, loops, loop_witness
    )


def min_edge_cover(g: RegionGraph) -> list[tuple[int, int]]:
    """Minimum edge cover of the patch instance, loops included."""
    return matching.min_edge_cover(len(g.regions), g.edges, loops=g.loops)


def guards_from_cover(g: RegionGraph, cover) -> list[OrthoSegment]:
    """Translate chosen cover edges back into camera tracks, deduplicated."""
    out = set()
    for i, j in cover:
        if i == j:
            out.add(g.candidates[g.loop_witness[i]])
        else:
            out.add(g.candidates[g.edge_witness[(min(i, j), max(i, j))]])
    return sorted(out)
