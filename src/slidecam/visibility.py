"""Sliding-camera visibility.

A camera travels along a closed axis-parallel track segment s inside the
polygon and sees a point p when the perpendicular from p onto the line
through s meets s and lies entirely inside the polygon. Over each column of
P (an open slab between consecutive vertex x's) P's cross-section is fixed,
so a horizontal track sees, within its span, exactly the whole column
interval that holds its line. Those slab chords are the primitive:
_slab_chords reads them off P's column table, _clearance takes their common
part, and guards_entirely reads them directly. Vertical tracks work the
same way on P's row table, with the axes swapped. The grid prune reads the
same common part for every reflex chord at once, in grid._chord_table,
straight off the two tables, and camera_guards_camera uses _clearance for
one parallel pair at a time.
_slab_chords alone fills its cache on P, for any track on first use.

The solve path builds no visible set and runs no region algebra.
uncovered_region (behind covers_polygon and critical_regions) marks the
column intervals that some horizontal track crosses whole, cuts the spans
of tracks that end inside a column from the intervals they hit, and keeps
every other interval unseen. Vertical tracks do the same on P's rows. An
unseen column piece can meet an unseen row piece only inside one cell
between consecutive vertex lines, so the two leftovers are met row by row
and canonicalised once.
camera_visibility, visible_union, dominates and polygon_region build
regions, for callers and tests that want them.

The visible set is regularized. True visibility may additionally include
zero-area whiskers on event lines (a chord can be longer on a single line
than on both sides of it); those never matter for covering full-dimensional
regions, but they do matter for camera-to-camera guarding, which is why
camera_guards_camera works on exact chords instead of regions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import SegmentNotInside
from .geom import HORIZONTAL, VERTICAL, OrthoPolygon, OrthoSegment, _interval_at
from .region import (
    EMPTY_REGION,
    RectilinearRegion,
    from_rects,
    region_contains,
    region_union_all,
)
# region_difference is unused here: perfbench/spans.py wraps the name on
# this module and fails when it is missing.
from .region import region_difference  # noqa: F401


def _slab_chords(P: OrthoPolygon, s: OrthoSegment):
    """(x0, x1, lo, hi) per open slab of s's span, in s's horizontal frame:
    the chord through s over x0 < x < x1, with lo and hi scaled by two.
    None when some slab has no chord. Cached on P under s.

    s's anchor, lo and hi mean the same in either frame, so s is read as it
    is against P's sections for its orientation (P._sections). Past s.lo the
    cuts are consecutive vertex coordinates, so the slabs lie in consecutive
    sections, starting just past s.lo, and each slab's chord is the interval
    of its section holding s's line. A track reaching past P's first or last
    coordinate has a slab in no section, and so no chord there.
    """
    cache = P._cache.setdefault("slab_chords", {})
    if s in cache:
        return cache[s]
    Y = 2 * s.anchor
    if s.is_degenerate:
        # One slab of zero width: the chord on the line x = s.lo itself.
        iv = _interval_at(P._line_intervals(s.orientation, 2 * s.lo), Y)
        out = None if iv is None else [(s.lo, s.hi, *iv)]
    else:
        XS, gaps, _events = P._sections(s.orientation)
        first, last = bisect_right(XS, 2 * s.lo), bisect_left(XS, 2 * s.hi)
        cuts = [s.lo, *(X // 2 for X in XS[first:last]), s.hi]
        out = None
        if first > 0 and last < len(XS):
            ivs = [_interval_at(column, Y) for column in gaps[first - 1 : last]]
            if None not in ivs:
                out = [(a, b, *iv) for a, b, iv in zip(cuts, cuts[1:], ivs)]
    cache[s] = out
    return out


def _inside_chords(P: OrthoPolygon, s: OrthoSegment):
    """Slab chords of a camera track, or ValueError when it is degenerate
    and SegmentNotInside when it leaves P: for a track of positive length,
    a slab without a chord is exactly a piece of it outside closed P."""
    if s.is_degenerate:
        raise ValueError("camera track must have positive length")
    chords = _slab_chords(P, s)
    if chords is None:
        raise SegmentNotInside(f"track {s} leaves the polygon")
    return chords


def camera_visibility(P: OrthoPolygon, s: OrthoSegment) -> RectilinearRegion:
    """Regularized visible set of a camera sliding along s.

    The track may be a boundary edge or touch the boundary; it must not be
    degenerate. Raises SegmentNotInside when s is not contained in P.
    """
    # One rect per slab, left to right, with equal neighbours joined: the
    # canonical form of a horizontal track's visible set.
    rects = []
    for x0, x1, lo, hi in _inside_chords(P, s):
        y0, y1 = lo // 2, hi // 2
        if rects and rects[-1][2:] == (y0, y1):
            rects[-1] = (rects[-1][0], x1, y0, y1)
        else:
            rects.append((x0, x1, y0, y1))
    out = RectilinearRegion(tuple(rects))
    return out.transposed() if s.is_vertical else out


def _clearance(P: OrthoPolygon, c: OrthoSegment) -> tuple[int, int] | None:
    """Scaled range (lo, hi) of anchors from which a parallel track sees all
    of c, given the span; None when some slab has no chord. Over one open
    slab of c's span the strip between c and the track lies in P exactly
    when the track's anchor lies in the slab's chord through c; event lines
    are ignored, as by visible sets."""
    chords = _slab_chords(P, c)
    if chords is None:
        return None
    return max(ch[2] for ch in chords), min(ch[3] for ch in chords)


def visible_union(P: OrthoPolygon, segments) -> RectilinearRegion:
    return region_union_all(camera_visibility(P, s) for s in segments)


def _section_rects(P: OrthoPolygon, orientation: str):
    """((k, y_lo), rect) per interval of P's sections for tracks of
    `orientation` (P._sections), section by section and up each section:
    k is the section's index, y_lo the interval's scaled floor, and rect
    the interval as a closed rect in that frame. Cached on P."""
    key = "column_rects" if orientation == HORIZONTAL else "row_rects"
    out = P._cache.get(key)
    if out is None:
        XS, gaps, _events = P._sections(orientation)
        out = [
            ((k, y_lo), (XS[k] // 2, XS[k + 1] // 2, y_lo // 2, y_hi // 2))
            for k, column in enumerate(gaps)
            for y_lo, y_hi in column
        ]
        P._cache[key] = out
    return out


def polygon_region(P: OrthoPolygon) -> RectilinearRegion:
    """The closed polygon as a canonical region: its column intervals."""
    return from_rects(rect for _key, rect in _section_rects(P, HORIZONTAL))


def _unseen_rects(P: OrthoPolygon, orientation: str, tracks) -> list[tuple[int, int, int, int]]:
    """Rects of P, in the horizontal frame of tracks of `orientation`, that
    no listed track of that orientation sees.

    tracks holds (lo, chords) per track, chords as _slab_chords gives them:
    the chord over the slab in section k is the interval of that section
    holding the track's line, cut to the track's span. So a track sees
    whole every section interval it crosses, and only where it ends inside
    a section does it see part of one. Intervals that no track crosses but
    some track ends in keep their x-range minus the spans that hit them,
    found by one walk up those spans sorted; the others are seen whole or
    not at all.
    """
    XS = P._sections(orientation)[0]
    whole: set[tuple[int, int]] = set()
    partial: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for lo, chords in tracks:
        k = bisect_right(XS, 2 * lo) - 1
        for a, b, y_lo, _ in chords:
            if 2 * a == XS[k] and 2 * b == XS[k + 1]:
                whole.add((k, y_lo))
            else:
                partial.setdefault((k, y_lo), []).append((a, b))
            k += 1
    rects = []
    for key, rect in _section_rects(P, orientation):
        if key in whole:
            continue
        spans = partial.get(key)
        if spans is None:
            rects.append(rect)
            continue
        x, x1, y0, y1 = rect
        for a, b in sorted(spans):
            if x < a:
                rects.append((x, a, y0, y1))
            x = max(x, b)
        if x < x1:
            rects.append((x, x1, y0, y1))
    return rects


def uncovered_region(P: OrthoPolygon, cameras) -> RectilinearRegion:
    """Part of the polygon no listed camera sees (regularized).

    Built from P's column and row tables, with no visible set and no
    region algebra: what the horizontal tracks leave unseen of each column
    interval of P, met with what the vertical tracks leave unseen of each
    row interval of P. A column piece and a row piece can only meet inside
    one cell of P's grid of vertex lines, so each column piece is met, row
    by row, with the row pieces of the rows it spans, and the pieces are
    canonicalised once.
    Empty as soon as either side leaves nothing unseen. Raises like
    camera_visibility for the first bad track in input order.
    """
    chords = [(s, _inside_chords(P, s)) for s in cameras]
    unseen_h = _unseen_rects(P, HORIZONTAL, [(s.lo, ch) for s, ch in chords if s.is_horizontal])
    if not unseen_h:
        return EMPTY_REGION
    unseen_v = _unseen_rects(P, VERTICAL, [(s.lo, ch) for s, ch in chords if s.is_vertical])
    if not unseen_v:
        return EMPTY_REGION
    YS = P._sections(VERTICAL)[0]
    rows: list[list[tuple[int, int, int, int]]] = [[] for _ in YS[1:]]
    for y0, y1, x0, x1 in unseen_v:
        rows[bisect_right(YS, 2 * y0) - 1].append((x0, x1, y0, y1))
    pieces = []
    for x0, x1, y0, y1 in unseen_h:
        for row in rows[bisect_left(YS, 2 * y0) : bisect_left(YS, 2 * y1)]:
            for u0, u1, v0, v1 in row:
                if u0 < x1 and x0 < u1:
                    pieces.append((max(x0, u0), min(x1, u1), v0, v1))
    return from_rects(pieces)


def covers_polygon(P: OrthoPolygon, segments) -> bool:
    return uncovered_region(P, segments).is_empty


def guards_entirely(P: OrthoPolygon, s: OrthoSegment, r: RectilinearRegion) -> bool:
    """Does the camera on s see every point of the full-dimensional region r?

    Each rect of r must lie inside s's span and, over every slab it overlaps
    with positive width, inside that slab's chord. Raises like
    camera_visibility for a bad track.
    """
    chords = _inside_chords(P, s)
    rects = r.rects
    if s.is_vertical:
        rects = [(y0, y1, x0, x1) for x0, x1, y0, y1 in rects]
    for x0, x1, y0, y1 in rects:
        if x0 < s.lo or s.hi < x1:
            return False
        for a, b, lo, hi in chords:
            if a < x1 and x0 < b and not (lo <= 2 * y0 and 2 * y1 <= hi):
                return False
    return True


def dominates(P: OrthoPolygon, a: OrthoSegment, b: OrthoSegment) -> bool:
    """vis(a) superseteq vis(b) as regularized regions."""
    return region_contains(camera_visibility(P, a), camera_visibility(P, b))


def camera_guards_camera(
    P: OrthoPolygon, guard: OrthoSegment, target: OrthoSegment
) -> bool:
    """Does the camera on `guard` see every point of the segment `target`?

    Exact: works on chords, so zero-width visibility along event lines is
    honored. Intersecting perpendicular tracks always guard each other;
    non-intersecting perpendicular tracks can still guard one way.
    """
    if guard.orientation == target.orientation:
        # Parallel tracks: the target's span must sit inside the guard's and
        # the strip between them inside P, which _clearance decides in
        # either orientation.
        if target.lo < guard.lo or target.hi > guard.hi:
            return False
        span = _clearance(P, target)
        return span is not None and span[0] <= 2 * guard.anchor <= span[1]
    # Perpendicular: only points of the target on the guard's span can be
    # seen, so the whole target is seen iff its line crosses the span and
    # the chord along it through the crossing (X, Y) of the two lines runs
    # past both the guard and the target.
    if not (guard.lo <= target.anchor <= guard.hi):
        return False
    X, Y = (target.anchor, guard.anchor) if guard.is_horizontal else (guard.anchor, target.anchor)
    iv = P.chord_scaled(2 * X, 2 * Y, target.orientation)
    if iv is None:
        return False
    lo = 2 * min(guard.anchor, target.lo)
    hi = 2 * max(guard.anchor, target.hi)
    return iv[0] <= lo and hi <= iv[1]
