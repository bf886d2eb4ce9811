"""The guarding grid: maximal chords through reflex vertices.

Every reflex vertex contributes its maximal horizontal and vertical chord.
A chord whose visible set is contained in the visible set of another chord
of the SAME orientation is redundant and gets pruned. Domination across
orientations never prunes: dropping a vertical chord because some
horizontal sees more would disconnect the grid (the survivors can end up
as parallel tracks that never touch), and connectedness is what the cover
solver's guardedness leans on. The survivors still cover the whole
polygon, and their pairwise crossings form the graph the solver works on.

The prune never builds a visible set. A camera sees a point exactly when
the perpendicular from the point to the track lies in P, so for two
distinct maximal chords d and c of one orientation, vis(d) contains vis(c)
exactly when d guards c as a track: c's span lies inside d's, and the strip
between the two tracks lies inside P (tests/test_visibility.py checks the
equivalence against region containment). The strip test is exact as a
range check. Inside one open slab of c's span the polygon's cross-section
does not change, and the perpendicular through c there meets P in one
chord, so the strip's piece in that slab lies in P exactly when d's anchor
lies in that chord. Intersecting the chords of all slabs once gives c's
clearance, and d passes when its anchor falls in it. Event lines between
slabs are ignored, as they are by the regularized visible sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .geom import (
    BOUNDARY,
    HORIZONTAL,
    VERTICAL,
    OrthoPolygon,
    OrthoSegment,
    Point,
    contains_point,
    max_chord,
    reflex_vertices,
)
# Unused here: perfbench/spans.py wraps both names on this module and fails
# when they are missing.
from .region import region_contains  # noqa: F401
from .visibility import camera_visibility  # noqa: F401


@dataclass(frozen=True)
class Grid:
    """Pruned chord set. segments is sorted and duplicate-free; origins[i]
    lists the reflex vertices whose maximal chord is exactly segments[i]."""

    segments: tuple[OrthoSegment, ...]
    origins: tuple[tuple[Point, ...], ...]

    def __len__(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class IntersectionGraph:
    """Undirected graph on track indices 0..n-1; edges sorted (i < j)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]

    def neighbor_masks(self) -> list[int]:
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks


def reflex_chords(P: OrthoPolygon) -> list[OrthoSegment]:
    """Maximal H and V chords through every reflex vertex, sorted, deduped.

    Distinct chords of one orientation never intersect: two collinear
    maximal chords would have merged, and non-collinear parallel segments
    are disjoint by definition.
    """
    return sorted(chord_origins(P))


def chord_origins(P: OrthoPolygon) -> dict[OrthoSegment, tuple[Point, ...]]:
    """Which reflex vertices generate each maximal chord (cached on P)."""
    out = P._cache.get("chord_origins")
    if out is None:
        acc: dict[OrthoSegment, list[Point]] = {}
        for v in reflex_vertices(P):
            for o in (HORIZONTAL, VERTICAL):
                acc.setdefault(max_chord(P, v, o), []).append(v)
        out = {c: tuple(sorted(vs)) for c, vs in acc.items()}
        P._cache["chord_origins"] = out
    return out


def _clearance(P: OrthoPolygon, c: OrthoSegment) -> tuple[int, int]:
    """Scaled range (lo, hi) shared by every perpendicular chord through an
    interior slab of c's span; c itself lies in P, so every slab has one."""
    if c.is_vertical:
        P, c = P.transposed(), c.transposed()
    xs = P.vertex_xs()
    cuts = [c.lo, *xs[bisect_right(xs, c.lo) : bisect_left(xs, c.hi)], c.hi]
    Y = 2 * c.anchor
    ivs = [P.chord_scaled(a + b, Y, VERTICAL) for a, b in zip(cuts, cuts[1:])]
    return max(lo for lo, _ in ivs), min(hi for _, hi in ivs)


def prune_dominated(P: OrthoPolygon, chords) -> Grid:
    """Drop chords dominated by a chord of the same orientation.

    The chords must be maximal chords through reflex vertices (what
    reflex_chords returns): only for maximal chords is domination the
    parallel-guarding test of the module docstring, which needs c's
    clearance alone and no visible set. d guards c when d's span covers
    c's and 2*d.anchor lies in c's clearance.

    Mutually guarding chords have equal visible sets and keep only the
    lexicographically smallest one; a chord guarded one way only is
    dropped. The union of visible sets is unchanged, so a cover of the
    pruned set still covers the polygon, and within each orientation the
    survivors form an antichain under domination. A horizontal survivor
    may well be dominated by a vertical one; that pair is kept
    deliberately (see the module docstring).
    """
    chords = sorted(set(chords))
    clearance = {c: _clearance(P, c) for c in chords}

    def guards(d: OrthoSegment, c: OrthoSegment) -> bool:
        lo, hi = clearance[c]
        return d.lo <= c.lo and c.hi <= d.hi and lo <= 2 * d.anchor <= hi

    kept = []
    for orientation in (HORIZONTAL, VERTICAL):
        group = [c for c in chords if c.orientation == orientation]
        anchors = [c.anchor for c in group]
        for c in group:
            # Only chords anchored inside c's clearance can guard it.
            lo, hi = clearance[c]
            first = bisect_left(anchors, (lo + 1) // 2)
            rivals = group[first : bisect_right(anchors, hi // 2)]
            if not any(
                d != c and guards(d, c) and (d < c or not guards(c, d)) for d in rivals
            ):
                kept.append(c)
    origin_map = chord_origins(P)
    origins = tuple(origin_map.get(c, ()) for c in kept)
    return Grid(tuple(kept), origins)


def guarding_grid(P: OrthoPolygon) -> Grid:
    """Convenience: reflex chords with the domination prune applied."""
    return prune_dominated(P, reflex_chords(P))


def _segments_of(g) -> tuple[OrthoSegment, ...]:
    return g.segments if isinstance(g, Grid) else tuple(g)


def intersection_graph(g) -> IntersectionGraph:
    """Closed pairwise intersections of a Grid (or raw segment list)."""
    segments = _segments_of(g)
    edges = []
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if segments[i].intersects(segments[j]):
                edges.append((i, j))
    return IntersectionGraph(len(segments), tuple(edges))


def is_simple_grid(g, P: OrthoPolygon) -> bool:
    """Do all segment endpoints lie on the polygon boundary?

    For grids made of maximal chords this is exactly the outer-face and
    epsilon-extension condition of simple grids.
    """
    for s in _segments_of(g):
        if any(contains_point(P, e) != BOUNDARY for e in s.endpoints()):
            return False
    return True


def is_connected(g) -> bool:
    """Is the intersection graph connected? Empty and single-segment grids
    count as connected."""
    graph = g if isinstance(g, IntersectionGraph) else intersection_graph(g)
    if graph.n <= 1:
        return True
    adj = graph.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == graph.n
