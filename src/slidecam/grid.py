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

Chords, origins and clearances come from one table per orientation, read
straight off P's two column tables with no point query. A reflex vertex
lies on an event line of one table, so its chord is the interval of that
line holding it, and the chord's clearance is read off the other table's
columns over its span. The prune then compares the table's rows by index
and builds no segment. The table also keeps each chord's per-slab
intervals, and the prune writes the survivors' intervals into
visibility._slab_chords' cache, so no later phase rebuilds a grid track's
chords.
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
    _touching_pairs,
    contains_point,
    reflex_vertices,
)
from .visibility import _cache_slab_chords
# region_contains and camera_visibility are unused here: perfbench/spans.py
# wraps both names on this module and fails when they are missing.
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
    return [s for segments, *_ in _chord_table(P) for s in segments]


def chord_origins(P: OrthoPolygon) -> dict[OrthoSegment, tuple[Point, ...]]:
    """Which reflex vertices generate each maximal chord."""
    return {
        s: o
        for segments, origins, *_ in _chord_table(P)
        for s, o in zip(segments, origins)
    }


def _chord_table(P: OrthoPolygon):
    """The reflex chords of P, one table per orientation, H then V.

    A table is (segments, origins, clearances, slabs), aligned and in
    segment order: each distinct chord, its reflex vertices sorted, its
    clearance as _clearance gives it, and the scaled los and his of its
    chord over the open slabs of its span, left to right in its horizontal
    frame (the intervals of visibility._slab_chords). Cached on P.
    """
    out = P._cache.get("chord_table")
    if out is None:
        reflex = reflex_vertices(P)
        T = P.transposed()
        out = (
            _frame_chords(T, HORIZONTAL, sorted((v.y, v.x, v) for v in reflex)),
            _frame_chords(P, VERTICAL, sorted((v.x, v.y, v) for v in reflex)),
        )
        P._cache["chord_table"] = out
    return out


def _frame_chords(Q: OrthoPolygon, orientation: str, points):
    """The vertical chords of Q through points, (x, y, origin) triples
    sorted by (x, y) in Q's frame, as a _chord_table table whose segments
    take `orientation`.

    A reflex vertex lies on an event line of Q's column table, so its
    chord is the interval of that line's stack holding it. Its clearance
    comes off the columns of Q's transpose: over each open slab of the
    chord's span, the interval holding the chord's line. Points of one
    chord are consecutive, so each chord is read once.
    """
    XS, _gaps, events = Q._columns()
    YS, gaps, _events = Q.transposed()._columns()
    segments, origins, clearances, per_slab = [], [], [], []
    last = None
    for x, y, v in points:
        # A column's intervals are sorted and disjoint, so the one holding
        # a coordinate Z is the last to start by Z: the last below (Z + 1,).
        X = 2 * x
        column = events[bisect_left(XS, X)]
        lo, hi = column[bisect_left(column, (2 * y + 1,)) - 1]
        if last == (x, lo):
            origins[-1].append(v)
            continue
        last = (x, lo)
        # The chord ends on vertex coordinates, so its slabs are the
        # columns from its lo's up to its hi's.
        first = bisect_left(YS, lo)
        slabs = gaps[first : bisect_left(YS, hi, first)]
        key = (X + 1,)
        los, his = zip(*[column[bisect_left(column, key) - 1] for column in slabs])
        segments.append(OrthoSegment(orientation, x, lo // 2, hi // 2))
        origins.append([v])
        clearances.append((max(los), min(his)))
        per_slab.append((los, his))
    return segments, [tuple(vs) for vs in origins], clearances, per_slab


def prune_dominated(P: OrthoPolygon, chords) -> Grid:
    """Drop chords dominated by a chord of the same orientation.

    The chords must be maximal chords through reflex vertices of P (what
    reflex_chords returns); anything else raises ValueError. Only for
    those is domination the parallel-guarding test of the module
    docstring, which needs c's clearance alone and no visible set. d
    guards c when d's span covers c's and 2*d.anchor lies in c's
    clearance.

    Mutually guarding chords have equal visible sets and keep only the
    lexicographically smallest one; a chord guarded one way only is
    dropped. The union of visible sets is unchanged, so a cover of the
    pruned set still covers the polygon, and within each orientation the
    survivors form an antichain under domination. A horizontal survivor
    may well be dominated by a vertical one; that pair is kept
    deliberately (see the module docstring).

    Each survivor's slab chords go into visibility._slab_chords' cache
    from the intervals the chord table has already read, so the phases
    after the prune find every grid track's chords there.
    """
    wanted = set(chords)
    kept, kept_origins = [], []
    matched = 0
    for segments, origins, clearances, slabs in _chord_table(P):
        rows = [k for k, s in enumerate(segments) if s in wanted]
        matched += len(rows)
        for k in _undominated([segments[k] for k in rows], [clearances[k] for k in rows]):
            kept.append(segments[rows[k]])
            kept_origins.append(origins[rows[k]])
            _cache_slab_chords(P, segments[rows[k]], *slabs[rows[k]])
    if matched != len(wanted):
        raise ValueError("prune_dominated takes maximal chords through reflex vertices of P")
    return Grid(tuple(kept), tuple(kept_origins))


def _undominated(group: list[OrthoSegment], clearance: list[tuple[int, int]]) -> list[int]:
    """Indices of prune_dominated's survivors among one orientation's
    sorted chords, given their clearances.

    Chords are compared by index: within one orientation index order is
    segment order, so on mutual guarding the lower index wins.
    """
    anchors = [c.anchor for c in group]
    los = [c.lo for c in group]
    his = [c.hi for c in group]

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
            kept.append(i)
    return kept


def guarding_grid(P: OrthoPolygon) -> Grid:
    """Convenience: reflex chords with the domination prune applied."""
    return prune_dominated(P, reflex_chords(P))


def _segments_of(g) -> tuple[OrthoSegment, ...]:
    return g.segments if isinstance(g, Grid) else tuple(g)


def intersection_graph(g) -> IntersectionGraph:
    """Closed pairwise intersections of a Grid (or raw segment list), from
    geom._touching_pairs: the sweep validate_polygon runs on P's edges."""
    segments = _segments_of(g)
    return IntersectionGraph(len(segments), tuple(_touching_pairs(segments)))


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
