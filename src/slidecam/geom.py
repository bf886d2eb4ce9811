"""Exact integer geometry: points, axis-parallel segments, orthogonal polygons.

All coordinates are integers and every predicate is exact. Queries that need
half-integer resolution (slab midpoints, cell centers) run on coordinates
scaled by two, so nothing is ever rounded. Polygons are closed regions: the
boundary belongs to the polygon, and a segment may run along a boundary edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import (
    CollinearRedundantVertex,
    NonOrthogonalEdge,
    NotClosed,
    PointOutside,
    SelfIntersecting,
)

HORIZONTAL = "H"
VERTICAL = "V"

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass(frozen=True, order=True)
class Point:
    x: int
    y: int


@dataclass(frozen=True, order=True)
class OrthoSegment:
    """Closed axis-parallel segment.

    `anchor` is the fixed coordinate (y for horizontal, x for vertical) and
    [lo, hi] is the span on the moving coordinate. Degenerate spans
    (lo == hi) are tolerated as intermediate values but are not valid camera
    tracks.

    Field order gives the (orientation, anchor, lo, hi) lexicographic order
    used for deterministic tie-breaking throughout the library.
    """

    orientation: str
    anchor: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.orientation not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"bad orientation: {self.orientation!r}")
        if self.lo > self.hi:
            raise ValueError("segment span is reversed")

    @classmethod
    def horizontal(cls, y: int, x0: int, x1: int) -> "OrthoSegment":
        return cls(HORIZONTAL, y, min(x0, x1), max(x0, x1))

    @classmethod
    def vertical(cls, x: int, y0: int, y1: int) -> "OrthoSegment":
        return cls(VERTICAL, x, min(y0, y1), max(y0, y1))

    @property
    def is_horizontal(self) -> bool:
        return self.orientation == HORIZONTAL

    @property
    def is_vertical(self) -> bool:
        return self.orientation == VERTICAL

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def endpoints(self) -> tuple[Point, Point]:
        if self.is_horizontal:
            return Point(self.lo, self.anchor), Point(self.hi, self.anchor)
        return Point(self.anchor, self.lo), Point(self.anchor, self.hi)

    def contains(self, p: Point) -> bool:
        if self.is_horizontal:
            return p.y == self.anchor and self.lo <= p.x <= self.hi
        return p.x == self.anchor and self.lo <= p.y <= self.hi

    def intersects(self, other: "OrthoSegment") -> bool:
        """Closed intersection test; touching endpoints count."""
        if self.orientation == other.orientation:
            return (
                self.anchor == other.anchor
                and max(self.lo, other.lo) <= min(self.hi, other.hi)
            )
        h, v = (self, other) if self.is_horizontal else (other, self)
        return h.lo <= v.anchor <= h.hi and v.lo <= h.anchor <= v.hi

    def transposed(self) -> "OrthoSegment":
        flipped = VERTICAL if self.is_horizontal else HORIZONTAL
        return OrthoSegment(flipped, self.anchor, self.lo, self.hi)

    def __str__(self) -> str:
        return f"{self.orientation} {self.anchor} {self.lo} {self.hi}"


class OrthoPolygon:
    """Simple rectilinear polygon, vertices in counterclockwise order.

    Instances are immutable by convention and should be built through
    validate_polygon; the constructor trusts its input. _cache holds only
    what one solve reads more than once: the column and row tables here,
    and, filled by their readers, the reflex vertices, the grid's chord
    table, the tracks' slab chords and the oracles' candidates. The edge
    list and bounding box are cheap and rarely read, so each call rebuilds
    them.
    """

    __slots__ = ("vertices", "_cache")

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self._cache = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, OrthoPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        pts = ", ".join(f"({v.x},{v.y})" for v in self.vertices)
        return f"OrthoPolygon[{pts}]"

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        vs = self.vertices
        return list(zip(vs, vs[1:] + vs[:1]))

    def bbox(self) -> tuple[int, int, int, int]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def transposed(self) -> "OrthoPolygon":
        """Mirror across the main diagonal (x and y swapped), still CCW.
        A fresh polygon, cached on neither side."""
        swapped = [Point(v.y, v.x) for v in self.vertices]
        return OrthoPolygon([swapped[0]] + swapped[1:][::-1])

    # -- slab tables (scaled coordinates) ----------------------------------

    def _sections(self, orientation: str):
        """The cross-sections a track of `orientation` sees along, scaled by
        two: P's columns for HORIZONTAL, P's rows for VERTICAL.

        Returns (XS, gaps, events) in the track's horizontal frame, where x
        runs along the track and y across it. XS is the sorted list of
        scaled vertex x-coordinates. gaps[i] holds the closed y-intervals of
        the region on any line x = X strictly between XS[i] and XS[i+1];
        events[i] holds them on the line x = XS[i] itself (the union of the
        closures of both adjacent gaps, which is exactly the closed region
        on that line). Cached on P, one table per orientation.
        """
        key = "columns" if orientation == HORIZONTAL else "rows"
        out = self._cache.get(key)
        if out is not None:
            return out
        # In this frame a horizontal edge's y toggles in and out of the
        # crossing set at its end x's, and every vertex ends exactly one
        # horizontal edge, so the toggles at X are the y's of the vertices
        # on x = X/2. Validation keeps two horizontal edges at one y from
        # touching, so no line crosses both and toggling is exact.
        toggles: dict[int, list[int]] = {}
        for v in self.vertices:
            x, y = (v.x, v.y) if orientation == HORIZONTAL else (v.y, v.x)
            toggles.setdefault(2 * x, []).append(2 * y)
        XS = sorted(toggles)
        crossing: set[int] = set()
        gaps = []
        for X in XS[:-1]:
            crossing.symmetric_difference_update(toggles[X])
            ys = sorted(crossing)
            gaps.append(tuple(zip(ys[::2], ys[1::2])))
        padded = [(), *gaps, ()]
        events = [
            _merge_closed(left + right) if left and right else left or right
            for left, right in zip(padded, padded[1:])
        ]
        out = (XS, gaps, events)
        self._cache[key] = out
        return out

    def _line_intervals(self, orientation: str, X: int):
        """Closed intervals of the region on the line x = X/2 of the frame
        of _sections(orientation)."""
        XS, gaps, events = self._sections(orientation)
        if X < XS[0] or X > XS[-1]:
            return ()
        i = bisect_left(XS, X)
        if XS[i] == X:
            return events[i]
        return gaps[i - 1]

    def chord_scaled(self, X: int, Y: int, orientation: str):
        """Maximal inside interval through (X/2, Y/2), or None if outside.

        For VERTICAL the returned (lo, hi) is a y-range off P's columns, for
        HORIZONTAL an x-range off its rows, both scaled by two.
        """
        if orientation == HORIZONTAL:
            return _interval_at(self._line_intervals(VERTICAL, Y), X)
        return _interval_at(self._line_intervals(HORIZONTAL, X), Y)


def _interval_at(intervals, Y: int):
    """The interval of a sorted, disjoint closed stack holding Y, or None.

    Only the last to start by Y, the last below (Y + 1,), can hold it. With
    none starting by Y that index is -1, which must not wrap to the top."""
    i = bisect_left(intervals, (Y + 1,)) - 1
    if i >= 0 and Y <= intervals[i][1]:
        return intervals[i]
    return None


def _merge_closed(intervals):
    """Coalesce closed intervals; touching endpoints merge."""
    if len(intervals) < 2:
        return tuple(intervals)
    intervals = sorted(intervals)
    out = []
    lo, hi = intervals[0]
    for a, b in intervals:
        if a > hi:
            out.append((lo, hi))
            lo = a
        if b > hi:
            hi = b
    out.append((lo, hi))
    return tuple(out)


def _as_points(vertices) -> list[Point]:
    pts = []
    for v in vertices:
        if isinstance(v, Point):
            pts.append(v)
            continue
        x, y = v
        if not isinstance(x, int) or not isinstance(y, int):
            raise TypeError("vertex coordinates must be integers")
        pts.append(Point(x, y))
    return pts


def validate_polygon(vertices, collinear: str = "normalize") -> OrthoPolygon:
    """Check and normalize a vertex list into an OrthoPolygon.

    Accepts Points or (x, y) pairs, in either rotation order, optionally with
    the first vertex repeated at the end. The result is counterclockwise with
    no collinear redundant vertices. With collinear="reject" a redundant
    vertex raises CollinearRedundantVertex instead of being dropped.

    Raises NotClosed, NonOrthogonalEdge or SelfIntersecting on bad input.
    Edges that touch, other than consecutive ones at their shared vertex,
    are found by _touching_pairs' sweep, run on each edge's (orientation,
    anchor, lo, hi) tuple, so no OrthoSegment is built.
    """
    if collinear not in ("normalize", "reject"):
        raise ValueError("collinear must be 'normalize' or 'reject'")
    pts = _as_points(vertices)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 4:
        raise NotClosed("a rectilinear polygon needs at least 4 vertices")
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        if a == b:
            raise NotClosed(f"zero-length edge at {a}")
        if a.x != b.x and a.y != b.y:
            raise NonOrthogonalEdge(f"edge {a} -> {b} is not axis-parallel")

    # Merge straight runs; a reversal inside a run means the boundary folds
    # back onto itself. Dropping a straight vertex leaves the directions of
    # its neighbours' edges as they were, so one pass against the original
    # neighbours finds the same vertices, in the same order, as rescanning
    # after each drop.
    n = len(pts)
    kept = []
    for i, b in enumerate(pts):
        a, c = pts[i - 1], pts[(i + 1) % n]
        if (b.x == a.x) != (c.x == b.x):
            kept.append(b)
            continue
        if (b.x - a.x) * (c.x - b.x) < 0 or (b.y - a.y) * (c.y - b.y) < 0:
            raise SelfIntersecting(f"boundary doubles back at {b}")
        if collinear == "reject":
            raise CollinearRedundantVertex(f"redundant vertex {b}")
        if len(kept) + n - 1 - i < 4:
            raise NotClosed("polygon degenerates after removing redundant vertices")
    pts = kept

    if len(set(pts)) != len(pts):
        raise SelfIntersecting("repeated vertex")

    n = len(pts)
    edges = list(zip(pts, pts[1:] + pts[:1]))
    keys = [
        (HORIZONTAL, a.y, min(a.x, b.x), max(a.x, b.x))
        if a.y == b.y
        else (VERTICAL, a.x, min(a.y, b.y), max(a.y, b.y))
        for a, b in edges
    ]
    # Merged runs leave consecutive edges meeting only at their shared vertex.
    for i, j in _touching_pairs(keys):
        if j != i + 1 and (i, j) != (0, n - 1):
            (a, b), (c, d) = edges[i], edges[j]
            raise SelfIntersecting(f"edges {a}->{b} and {c}->{d} touch")

    area2 = sum(a.x * b.y - b.x * a.y for a, b in edges)
    if area2 == 0:
        raise SelfIntersecting("polygon has zero area")
    if area2 < 0:
        pts = [pts[0]] + pts[1:][::-1]
    return OrthoPolygon(pts)


def _touching_pairs(keys) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of the closed orthogonal segments
    that meet, each given as its (orientation, anchor, lo, hi) tuple: the
    fields, and the order, of OrthoSegment, without building one.

    Perpendicular pairs come from _crossings, each vertical bisecting the
    horizontals sorted by anchor. Parallel segments meet only when
    collinear: sorted by (orientation, anchor, lo), each meets the run of
    followers on its line that start by its hi.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pairs = []
    for p, i in enumerate(order):
        o, anchor, _lo, hi = keys[i]
        for q in range(p + 1, len(order)):
            o2, anchor2, lo2, _hi2 = keys[order[q]]
            if o2 != o or anchor2 != anchor or lo2 > hi:
                break
            pairs.append((min(i, order[q]), max(i, order[q])))
    horizontals = [i for i in order if keys[i][0] == HORIZONTAL]
    crossing = _crossings(keys, order[len(horizontals) :], horizontals)
    pairs += [(min(i, j), max(i, j)) for i, j in crossing]
    pairs.sort()
    return pairs


def _crossings(keys, movers, fixed) -> list[tuple[int, int]]:
    """Pairs (i, j), i from movers and j from fixed, of perpendicular
    segments that meet, each given as its keys entry (orientation, anchor,
    lo, hi). fixed must be sorted by anchor. Each mover bisects the fixed
    segments for those whose line its span reaches, and keeps those whose
    span reaches its line; pairs come in movers order, then fixed order.
    """
    anchors = [keys[j][1] for j in fixed]
    pairs = []
    for i in movers:
        _o, a, lo, hi = keys[i]
        for j in fixed[bisect_left(anchors, lo) : bisect_right(anchors, hi)]:
            if keys[j][2] <= a <= keys[j][3]:
                pairs.append((i, j))
    return pairs


def reflex_vertices(P: OrthoPolygon) -> list[Point]:
    """Vertices with a 270 degree interior angle, in boundary order
    (cached on P)."""
    out = P._cache.get("reflex")
    if out is None:
        vs = P.vertices
        out = []
        for i in range(len(vs)):
            a, b, c = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
            cross = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
            if cross < 0:
                out.append(b)
        P._cache["reflex"] = out
    return out


def contains_point(P: OrthoPolygon, p: Point) -> str:
    """Classify p as INTERIOR, BOUNDARY or OUTSIDE. Exact."""
    for a, b in P.edges():
        if a.y == b.y:
            if p.y == a.y and min(a.x, b.x) <= p.x <= max(a.x, b.x):
                return BOUNDARY
        else:
            if p.x == a.x and min(a.y, b.y) <= p.y <= max(a.y, b.y):
                return BOUNDARY
    inside = P.chord_scaled(2 * p.x, 2 * p.y, VERTICAL) is not None
    return INTERIOR if inside else OUTSIDE


def max_chord(P: OrthoPolygon, p: Point, orientation: str) -> OrthoSegment:
    """Maximal axis-parallel segment through p inside the closed polygon.

    The chord may run along a boundary edge or pass through a boundary seam
    between two parts of the polygon; at a convex corner it may be exactly an
    edge. Raises PointOutside when p is not in the polygon.
    """
    iv = P.chord_scaled(2 * p.x, 2 * p.y, orientation)
    if iv is None:
        raise PointOutside(f"{p} is outside the polygon")
    lo, hi = iv
    if orientation == HORIZONTAL:
        return OrthoSegment.horizontal(p.y, lo // 2, hi // 2)
    return OrthoSegment.vertical(p.x, lo // 2, hi // 2)
