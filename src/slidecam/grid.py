"""The guarding grid: maximal chords through reflex vertices.

Every reflex vertex contributes its maximal horizontal and vertical chord.
A chord whose visible set is contained in the visible set of another chord
of the SAME orientation is redundant and gets pruned. Domination across
orientations never prunes: dropping a vertical chord because some
horizontal sees more would disconnect the grid (the survivors can end up
as parallel tracks that never touch), and connectedness is what the cover
solver's guardedness leans on. The survivors still cover the whole
polygon, and their pairwise crossings form the graph the solver works on.
The guarding grid of P is prune_dominated(P, reflex_chords(P)), the Grid
that run_pipeline builds and keeps on its result.

The prune never builds a visible set. A camera sees a point exactly when
the perpendicular from the point to the track lies in P, so for two
distinct maximal chords d and c of one orientation, vis(d) contains vis(c)
exactly when d guards c as a track: c's span lies inside d's, and the strip
between the two tracks lies inside P (tests/test_visibility.py checks the
equivalence against region containment), which is a range check on d's
anchor against c's clearance (visibility._clearance): the common part of
c's per-slab chords.

Chords, origins and clearances come from one table per orientation, read
straight off P's column and row tables with no point query. A reflex
vertex lies on an event line of one table, so its chord is the interval of
that line holding it, and the chord's clearance is climbed off the same
table: from the chord's line, up and down one section at a time, to the
first section whose intervals do not hold the chord's span. The prune then
compares the table's rows by index and builds no segment; handed the
table's own list, as reflex_chords gives it, it takes every row without
looking a chord up. The later phases read a grid track's own per-slab
chords through visibility._slab_chords, which fills its cache on first use.

The intersection graph of a Grid is one sorted pass. Distinct maximal
chords of one orientation never meet (see reflex_chords), so every edge
joins a horizontal to a vertical, and in segment order every horizontal
comes first. Each horizontal, in order, bisects the verticals' anchors
over its span and keeps the verticals whose span holds its line
(geom._crossings); the verticals are in anchor order, so the pairs come
out sorted, with no sort and no pair tested twice.
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
    _crossings,
    _interval_at,
    _touching_pairs,
    contains_point,
    reflex_vertices,
)
# region_contains and camera_visibility are unused here: perfbench/spans.py
# wraps both names on this module and fails when they are missing.
from .region import region_contains  # noqa: F401
from .visibility import camera_visibility  # noqa: F401


@dataclass(frozen=True)
class Grid:
    """Pruned chord set. segments is sorted and duplicate-free, and no two
    of one orientation meet; origins[i] lists the reflex vertices whose
    maximal chord is exactly segments[i]."""

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

    A table is (segments, origins, clearances), aligned and in segment
    order: each distinct chord, its reflex vertices sorted, and its
    clearance as _clearance gives it. Cached on P.
    """
    out = P._cache.get("chord_table")
    if out is None:
        reflex = reflex_vertices(P)
        out = (
            _frame_chords(P, HORIZONTAL, sorted((v.y, v.x, v) for v in reflex)),
            _frame_chords(P, VERTICAL, sorted((v.x, v.y, v) for v in reflex)),
        )
        P._cache["chord_table"] = out
    return out


def _frame_chords(P: OrthoPolygon, orientation: str, points):
    """The chords of P of `orientation` through points, (anchor, along,
    origin) triples sorted, as a _chord_table table.

    A chord lies on an event line of the sections that perpendicular
    tracks see along (P's columns for a vertical chord, its rows for a
    horizontal one), so a reflex vertex's chord is the interval of that
    line holding it. Its clearance is climbed off the same sections, from
    the chord's line outward one section at a time: within a section
    intervals never touch, so the open span lies in P across it exactly
    when one interval holds the closed span. The first section that fails
    each way bounds the clearance at its line, which is where some slab's
    chord through the chord's line ends (the slab-by-slab reading,
    visibility._clearance). Points of one chord are consecutive, so each
    chord is read once.
    """
    across = VERTICAL if orientation == HORIZONTAL else HORIZONTAL
    XS, gaps, events = P._sections(across)
    segments, origins, clearances = [], [], []
    last = None
    for x, y, v in points:
        i = bisect_left(XS, 2 * x)
        lo, hi = _interval_at(events[i], 2 * y)
        if last == (x, lo):
            origins[-1].append(v)
            continue
        last = (x, lo)
        up = i
        while up < len(gaps) and (iv := _interval_at(gaps[up], lo)) and iv[1] >= hi:
            up += 1
        down = i
        while down and (iv := _interval_at(gaps[down - 1], lo)) and iv[1] >= hi:
            down -= 1
        segments.append(OrthoSegment(orientation, x, lo // 2, hi // 2))
        origins.append([v])
        clearances.append((XS[down], XS[up]))
    return segments, [tuple(vs) for vs in origins], clearances


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
    """
    tables = _chord_table(P)
    chords = list(chords)
    if chords == reflex_chords(P):
        # The whole table, as reflex_chords lists it; the comparison
        # short-circuits on identity, so no chord is hashed.
        picks = [range(len(segments)) for segments, *_ in tables]
    else:
        wanted = set(chords)
        picks = [[k for k, s in enumerate(segments) if s in wanted] for segments, *_ in tables]
        if sum(map(len, picks)) != len(wanted):
            raise ValueError("prune_dominated takes maximal chords through reflex vertices of P")
    kept, kept_origins = [], []
    for (segments, origins, clearances), rows in zip(tables, picks):
        for k in _undominated([segments[k] for k in rows], [clearances[k] for k in rows]):
            kept.append(segments[rows[k]])
            kept_origins.append(origins[rows[k]])
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
        # Only chords anchored inside the clearance can guard chord i, and
        # each of those does exactly when its span covers chord i's.
        first = bisect_left(anchors, (lo + 1) // 2)
        last = bisect_right(anchors, hi // 2)
        a, b = los[i], his[i]
        for j in range(first, last):
            if los[j] <= a and b <= his[j] and j != i and (j < i or not guards(i, j)):
                break
        else:
            kept.append(i)
    return kept


def _segments_of(g) -> tuple[OrthoSegment, ...]:
    return g.segments if isinstance(g, Grid) else tuple(g)


def intersection_graph(g) -> IntersectionGraph:
    """Closed pairwise intersections of a Grid (or raw segment list).

    A Grid's edges come from one geom._crossings pass, horizontals
    bisecting the verticals (see the module docstring). A raw list may
    hold collinear segments that meet, in any order, so it goes through
    geom._touching_pairs: the sweep validate_polygon runs on P's edges.
    """
    keys = [(s.orientation, s.anchor, s.lo, s.hi) for s in _segments_of(g)]
    if isinstance(g, Grid):
        h = bisect_left(keys, (VERTICAL,))
        pairs = _crossings(keys, range(h), range(h, len(keys)))
    else:
        pairs = _touching_pairs(keys)
    return IntersectionGraph(len(keys), tuple(pairs))


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
