"""Sliding-camera visibility.

A camera travels along a closed axis-parallel track segment s inside the
polygon and sees a point p when the perpendicular from p onto the line
through s meets s and lies entirely inside the polygon. Over each column of
P (an open slab between consecutive vertex x's) P's cross-section is fixed,
so a horizontal track sees, within its span, exactly the whole column
interval that holds its line. Those slab chords are the primitive:
_slab_chords reads them off P's column table, _clearance takes their common
part, and guards_entirely reads them directly. Vertical tracks work
transposed. The grid prune reads the same common part for every reflex
chord at once, in grid._chord_table, straight off the column tables, and
camera_guards_camera uses _clearance for one parallel pair at a time.
_slab_chords' cache is filled in two places: grid.prune_dominated hands
every grid track's intervals from the chord table to _cache_slab_chords,
and _slab_chords itself builds any other track's on first use.

The solve path builds no visible set. uncovered_region (behind
covers_polygon and critical_regions) subtracts, from each column interval,
the spans of the horizontal tracks whose line it holds, does the same for
vertical tracks on the transposed table, and intersects the two leftovers.
camera_visibility, visible_union and dominates build visible sets as
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
from .geom import VERTICAL, OrthoPolygon, OrthoSegment, _interval_at
from .region import (
    RectilinearRegion,
    from_rects,
    region_contains,
    region_intersection,
    region_union_all,
)
# region_difference is unused here: perfbench/spans.py wraps the name on
# this module and fails when it is missing.
from .region import region_difference  # noqa: F401


def _slab_chords(P: OrthoPolygon, s: OrthoSegment):
    """(x0, x1, lo, hi) per open slab of s's span, in s's horizontal frame:
    the chord through s over x0 < x < x1, with lo and hi scaled by two.
    None when some slab has no chord. Cached on P under s, where
    grid.prune_dominated has already put every grid track's.

    Past s.lo the cuts are consecutive vertex x's, so the slabs lie in
    consecutive columns of P's slab table, starting with the column just
    right of s.lo, and each slab's chord is read off its column's
    intervals. A track reaching past P's first or last x has a slab in no
    column, and so no chord there.
    """
    cache = P._cache.setdefault("slab_chords", {})
    if s in cache:
        return cache[s]
    Q, t = (P.transposed(), s.transposed()) if s.is_vertical else (P, s)
    Y = 2 * t.anchor
    if t.is_degenerate:
        # One slab of zero width: the chord on the line x = t.lo itself.
        iv = Q.chord_scaled(2 * t.lo, Y, VERTICAL)
        out = None if iv is None else [(t.lo, t.hi, *iv)]
    else:
        xs, gaps = Q.vertex_xs(), Q._columns()[1]
        first, last = bisect_right(xs, t.lo), bisect_left(xs, t.hi)
        cuts = [t.lo, *xs[first:last], t.hi]
        out = None
        if first > 0 and last < len(xs):
            ivs = [_interval_at(column, Y) for column in gaps[first - 1 : last]]
            if None not in ivs:
                out = [(a, b, *iv) for a, b, iv in zip(cuts, cuts[1:], ivs)]
    cache[s] = out
    return out


def _cache_slab_chords(P: OrthoPolygon, s: OrthoSegment, los, his) -> None:
    """Cache what _slab_chords gives for a track s of positive length
    inside P, from the scaled lo and hi of its chord over each slab of its
    span, left to right."""
    cache = P._cache.setdefault("slab_chords", {})
    if s not in cache:
        xs = (P.transposed() if s.is_vertical else P).vertex_xs()
        cuts = [s.lo, *xs[bisect_right(xs, s.lo) : bisect_left(xs, s.hi)], s.hi]
        cache[s] = list(zip(cuts, cuts[1:], los, his))


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
    cache = P._cache.setdefault("vis", {})
    out = cache.get(s)
    if out is None:
        # One rect per slab, left to right, with equal neighbours joined:
        # the canonical form of a horizontal track's visible set.
        rects = []
        for x0, x1, lo, hi in _inside_chords(P, s):
            y0, y1 = lo // 2, hi // 2
            if rects and rects[-1][2:] == (y0, y1):
                rects[-1] = (rects[-1][0], x1, y0, y1)
            else:
                rects.append((x0, x1, y0, y1))
        out = RectilinearRegion(tuple(rects))
        if s.is_vertical:
            out = out.transposed()
        cache[s] = out
    return out


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


def _unseen_rects(P: OrthoPolygon, tracks) -> list[tuple[int, int, int, int]]:
    """Rects of P, in P's frame, that no listed horizontal track sees.

    tracks holds (lo, chords) per track, chords as _slab_chords gives them
    in P's frame: the chord over the slab in P's column k is the interval of
    that column holding the track's line, cut to the track's span. So each
    column interval keeps its x-range minus the spans of the tracks that
    hit it, found by one walk up the column's hits sorted by interval.
    """
    xs, gaps = P.vertex_xs(), P._columns()[1]
    hits: list[list[tuple[int, int, int]]] = [[] for _ in gaps]
    for lo, chords in tracks:
        k = bisect_right(xs, lo) - 1
        for a, b, y_lo, _ in chords:
            hits[k].append((y_lo, a, b))
            k += 1
    rects = []
    for k, column in enumerate(gaps):
        spans = sorted(hits[k])
        i = 0
        for y_lo, y_hi in column:
            y0, y1 = y_lo // 2, y_hi // 2
            x = xs[k]
            while i < len(spans) and spans[i][0] == y_lo:
                _, a, b = spans[i]
                i += 1
                if x < a:
                    rects.append((x, a, y0, y1))
                x = max(x, b)
            if x < xs[k + 1]:
                rects.append((x, xs[k + 1], y0, y1))
    return rects


def uncovered_region(P: OrthoPolygon, cameras) -> RectilinearRegion:
    """Part of the polygon no listed camera sees (regularized).

    Built from P's two column tables, with no visible set: what the
    horizontal tracks leave unseen of each column interval of P, intersected
    with what the vertical tracks leave unseen of each column interval of
    P's transpose. Raises like camera_visibility for the first bad track in
    input order.
    """
    chords = [(s, _inside_chords(P, s)) for s in cameras]
    unseen_h = _unseen_rects(P, [(s.lo, ch) for s, ch in chords if s.is_horizontal])
    unseen_v = _unseen_rects(
        P.transposed(), [(s.lo, ch) for s, ch in chords if s.is_vertical]
    )
    return region_intersection(
        from_rects(unseen_h), from_rects((y0, y1, x0, x1) for x0, x1, y0, y1 in unseen_v)
    )


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
    if guard.is_vertical:
        return camera_guards_camera(
            P.transposed(), guard.transposed(), target.transposed()
        )
    if target.is_horizontal:
        # Parallel tracks: the target's span must sit inside the guard's and
        # the strip between them inside P, which _clearance decides.
        if target.lo < guard.lo or target.hi > guard.hi:
            return False
        span = _clearance(P, target)
        return span is not None and span[0] <= 2 * guard.anchor <= span[1]
    # Perpendicular: only points of the target on the guard's x-span can be
    # seen, so the whole target is seen iff its column crosses the span and
    # the vertical chord there runs past both the guard and the target.
    if not (guard.lo <= target.anchor <= guard.hi):
        return False
    iv = P.chord_scaled(2 * target.anchor, 2 * guard.anchor, VERTICAL)
    if iv is None:
        return False
    lo = 2 * min(guard.anchor, target.lo)
    hi = 2 * max(guard.anchor, target.hi)
    return iv[0] <= lo and hi <= iv[1]
