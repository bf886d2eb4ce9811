"""Sliding-camera visibility.

A camera travels along a closed axis-parallel track segment s inside the
polygon and sees a point p when the perpendicular from p onto the line
through s meets s and lies entirely inside the polygon. The full-area part
of the visible set of a horizontal track is a union of slabs: over each
x-range between polygon events the visible points form one rectangle, namely
the vertical chord through the track clipped to nothing (the chord itself).

camera_visibility returns that region in regularized form. True visibility
may additionally include zero-area whiskers on event lines (a chord can be
longer on a single line than on both sides of it); those never matter for
covering full-dimensional regions, but they do matter for camera-to-camera
guarding, which is why camera_guards_camera works on exact chords instead of
regions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import SegmentNotInside
from .geom import HORIZONTAL, VERTICAL, OrthoPolygon, OrthoSegment
from .region import (
    EMPTY_REGION,
    RectilinearRegion,
    from_rects,
    polygon_region,
    region_contains,
    region_difference,
    region_union_all,
)


def _check_track(P: OrthoPolygon, s: OrthoSegment) -> None:
    """A track must lie inside the closed polygon. Horizontal tracks only."""
    iv = P.chord_scaled(2 * s.lo, 2 * s.anchor, HORIZONTAL)
    if iv is None or iv[1] < 2 * s.hi:
        raise SegmentNotInside(f"track {s} leaves the polygon")


def camera_visibility(P: OrthoPolygon, s: OrthoSegment) -> RectilinearRegion:
    """Regularized visible set of a camera sliding along s.

    The track may be a boundary edge or touch the boundary; it must not be
    degenerate. Raises SegmentNotInside when s is not contained in P.
    """
    if s.is_degenerate:
        raise ValueError("camera track must have positive length")
    if s.is_vertical:
        return camera_visibility(P.transposed(), s.transposed()).transposed()
    _check_track(P, s)
    cache = P._cache.setdefault("vis", {})
    hit = cache.get(s)
    if hit is not None:
        return hit
    xs = [s.lo] + [x for x in P.vertex_xs() if s.lo < x < s.hi] + [s.hi]
    rects = []
    Y = 2 * s.anchor
    for i in range(len(xs) - 1):
        X = xs[i] + xs[i + 1]  # doubled midpoint of the slab
        iv = P.chord_scaled(X, Y, VERTICAL)
        # The track is inside P, so every slab it spans has a chord.
        assert iv is not None
        rects.append((xs[i], xs[i + 1], iv[0] // 2, iv[1] // 2))
    out = from_rects(rects)
    cache[s] = out
    return out


def _clearance(P: OrthoPolygon, c: OrthoSegment) -> tuple[int, int] | None:
    """Scaled range (lo, hi) of anchors from which a parallel track sees all
    of c, given the span; None when some slab has no chord. Over one open
    slab of c's span P's cross-section is fixed, so the strip between c and
    the track lies in P there exactly when the track's anchor lies in the
    slab's chord through c; event lines are ignored, as by visible sets."""
    if c.is_vertical:
        P, c = P.transposed(), c.transposed()
    xs = P.vertex_xs()
    cuts = [c.lo, *xs[bisect_right(xs, c.lo) : bisect_left(xs, c.hi)], c.hi]
    Y = 2 * c.anchor
    ivs = [P.chord_scaled(a + b, Y, VERTICAL) for a, b in zip(cuts, cuts[1:])]
    if None in ivs:
        return None
    return max(lo for lo, _ in ivs), min(hi for _, hi in ivs)


def visible_union(P: OrthoPolygon, segments) -> RectilinearRegion:
    return region_union_all(camera_visibility(P, s) for s in segments)


def covers_polygon(P: OrthoPolygon, segments) -> bool:
    return region_difference(polygon_region(P), visible_union(P, segments)).is_empty


def guards_entirely(P: OrthoPolygon, s: OrthoSegment, r: RectilinearRegion) -> bool:
    """Does the camera on s see every point of the full-dimensional region r?"""
    return region_contains(camera_visibility(P, s), r)


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
