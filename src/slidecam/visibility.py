"""Sliding-camera visibility.

A camera travels along a closed axis-parallel track segment s inside the
polygon and sees a point p when the perpendicular from p onto the line
through s meets s and lies entirely inside the polygon. Over each open slab
of a horizontal track's span between polygon x-events P's cross-section is
fixed, so the track sees one vertical chord there. Those slab chords are the
primitive: camera_visibility is their union, _clearance their common part,
and guards_entirely reads them directly. Vertical tracks work transposed.

The visible set is regularized. True visibility may additionally include
zero-area whiskers on event lines (a chord can be longer on a single line
than on both sides of it); those never matter for covering full-dimensional
regions, but they do matter for camera-to-camera guarding, which is why
camera_guards_camera works on exact chords instead of regions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import SegmentNotInside
from .geom import VERTICAL, OrthoPolygon, OrthoSegment
from .region import (
    RectilinearRegion,
    from_rects,
    polygon_region,
    region_contains,
    region_difference,
    region_union_all,
)


def _slab_chords(P: OrthoPolygon, s: OrthoSegment):
    """(x0, x1, lo, hi) per open slab of s's span, in s's horizontal frame:
    the chord through s over x0 < x < x1, with lo and hi scaled by two.
    None when some slab has no chord. Cached on P under s."""
    cache = P._cache.setdefault("slab_chords", {})
    if s in cache:
        return cache[s]
    Q, t = (P.transposed(), s.transposed()) if s.is_vertical else (P, s)
    xs = Q.vertex_xs()
    cuts = [t.lo, *xs[bisect_right(xs, t.lo) : bisect_left(xs, t.hi)], t.hi]
    slabs = list(zip(cuts, cuts[1:]))
    ivs = [Q.chord_scaled(a + b, 2 * t.anchor, VERTICAL) for a, b in slabs]
    out = None if None in ivs else [ab + iv for ab, iv in zip(slabs, ivs)]
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
    cache = P._cache.setdefault("vis", {})
    out = cache.get(s)
    if out is None:
        chords = _inside_chords(P, s)
        out = from_rects((x0, x1, lo // 2, hi // 2) for x0, x1, lo, hi in chords)
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


def covers_polygon(P: OrthoPolygon, segments) -> bool:
    return region_difference(polygon_region(P), visible_union(P, segments)).is_empty


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
