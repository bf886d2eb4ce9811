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
equivalence against region containment), which is a range check on d's
anchor against c's clearance (visibility._clearance): the common part of
c's per-slab chords.
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
# region_contains and camera_visibility are unused here: perfbench/spans.py
# wraps both names on this module and fails when they are missing.
from .region import region_contains  # noqa: F401
from .visibility import _clearance, camera_visibility  # noqa: F401


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
    kept = []
    for orientation in (HORIZONTAL, VERTICAL):
        kept += _undominated(P, [c for c in chords if c.orientation == orientation])
    origin_map = chord_origins(P)
    origins = tuple(origin_map.get(c, ()) for c in kept)
    return Grid(tuple(kept), origins)


def _undominated(P: OrthoPolygon, group: list[OrthoSegment]) -> list[OrthoSegment]:
    """prune_dominated's survivors among one orientation's sorted chords.

    Chords are compared by index: within one orientation index order is
    segment order, so on mutual guarding the lower index wins.
    """
    anchors = [c.anchor for c in group]
    los = [c.lo for c in group]
    his = [c.hi for c in group]
    clearance = [_clearance(P, c) for c in group]

    def guards(j: int, i: int) -> bool:
        lo, hi = clearance[i]
        return los[j] <= los[i] and his[i] <= his[j] and lo <= 2 * anchors[j] <= hi

    kept = []
    for i, (lo, hi) in enumerate(clearance):
        # Only chords anchored inside the clearance can guard chord i.
        first = bisect_left(anchors, (lo + 1) // 2)
        last = bisect_right(anchors, hi // 2)
        if not any(
            j != i and guards(j, i) and (j < i or not guards(i, j))
            for j in range(first, last)
        ):
            kept.append(group[i])
    return kept


def guarding_grid(P: OrthoPolygon) -> Grid:
    """Convenience: reflex chords with the domination prune applied."""
    return prune_dominated(P, reflex_chords(P))


def _segments_of(g) -> tuple[OrthoSegment, ...]:
    return g.segments if isinstance(g, Grid) else tuple(g)


def intersection_graph(g) -> IntersectionGraph:
    """Closed pairwise intersections of a Grid (or raw segment list).

    A sweep, not a test of all pairs. Each vertical bisects the horizontals,
    sorted by anchor, for those whose line its span reaches, and keeps the
    ones whose span reaches its own line. Parallel segments meet only when
    collinear: sorted by (orientation, anchor, lo), each meets the run of
    followers on its line that start by its hi.
    """
    segments = _segments_of(g)
    order = sorted(range(len(segments)), key=lambda i: segments[i])
    edges = []
    for p, i in enumerate(order):
        s = segments[i]
        for j in order[p + 1 :]:
            t = segments[j]
            if t.orientation != s.orientation or t.anchor != s.anchor or t.lo > s.hi:
                break
            edges.append((min(i, j), max(i, j)))
    horizontals = [i for i in order if segments[i].is_horizontal]
    anchors = [segments[i].anchor for i in horizontals]
    for j in order[len(horizontals) :]:
        v = segments[j]
        for i in horizontals[bisect_left(anchors, v.lo) : bisect_right(anchors, v.hi)]:
            if segments[i].lo <= v.anchor <= segments[i].hi:
                edges.append((min(i, j), max(i, j)))
    edges.sort()
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
    masks = graph.neighbor_masks()
    seen = todo = 1
    while todo:
        low = todo & -todo
        todo ^= low
        fresh = masks[low.bit_length() - 1] & ~seen
        seen |= fresh
        todo |= fresh
    return seen == (1 << graph.n) - 1
