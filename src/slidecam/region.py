"""Canonical rectilinear regions and exact set algebra on them.

A RectilinearRegion is a finite union of closed axis-parallel rectangles
with positive area, stored in a canonical slab form: rectangles are split on
the sorted x-events, y-intervals are merged per slab, and adjacent slabs
with identical interval stacks are re-joined. Two regions are equal as point
sets exactly when their canonical rect tuples are equal, so regions can be
hashed and compared directly.

Two private pieces carry the algebra: _slabs gives each slab's merged
closed y-intervals (from_rects is built on it), and _overlay walks the
joint slabs of two regions, keeping each positive-length y-piece of the
first whose membership in the second matches a flag (out of it for
difference, in it for intersection). _slabs looks each rect's x0 and x1 up
in the slab index and places the rect only on the slabs between them, so
its work is the number of (rect, slab) incidences, not rects times slabs.

The algebra is regularized: degenerate slivers (zero width or height) are
dropped by construction, and difference is the closure of the open
difference. Containment, emptiness and connectivity are exact for the
closed regions represented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import OrthoPolygon, _merge_closed

Rect = tuple[int, int, int, int]  # (x0, x1, y0, y1), closed


@dataclass(frozen=True)
class RectilinearRegion:
    rects: tuple[Rect, ...]

    @property
    def is_empty(self) -> bool:
        return not self.rects

    def area(self) -> int:
        return sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in self.rects)

    def transposed(self) -> "RectilinearRegion":
        return from_rects((y0, y1, x0, x1) for x0, x1, y0, y1 in self.rects)

    def contains_point_scaled(self, X: int, Y: int) -> bool:
        """Closed containment of (X/2, Y/2)."""
        return any(
            2 * x0 <= X <= 2 * x1 and 2 * y0 <= Y <= 2 * y1
            for x0, x1, y0, y1 in self.rects
        )


EMPTY_REGION = RectilinearRegion(())


def _slabs(rects, xs):
    """Merged closed y-intervals of the rects spanning each slab of xs.

    xs must hold every rect's x0 and x1, so a rect spans exactly the slabs
    from its x0's index up to its x1's and is placed on those alone.
    """
    index = {x: i for i, x in enumerate(xs)}
    stacks: list[list[tuple[int, int]]] = [[] for _ in xs[1:]]
    for x0, x1, y0, y1 in rects:
        for k in range(index[x0], index[x1]):
            stacks[k].append((y0, y1))
    return [_merge_closed(stack) for stack in stacks]


def from_rects(rects) -> RectilinearRegion:
    """Canonicalize an arbitrary rect collection into a region."""
    rects = [r for r in rects if r[0] < r[1] and r[2] < r[3]]
    if not rects:
        return EMPTY_REGION
    xs = sorted({x for r in rects for x in (r[0], r[1])})
    merged = []
    for x0, x1, ivs in zip(xs, xs[1:], _slabs(rects, xs)):
        if merged and merged[-1][1] == x0 and merged[-1][2] == ivs:
            merged[-1] = (merged[-1][0], x1, ivs)
        else:
            merged.append((x0, x1, ivs))
    out = tuple((x0, x1, y0, y1) for x0, x1, ivs in merged for y0, y1 in ivs)
    return RectilinearRegion(out)


def region_union(a: RectilinearRegion, b: RectilinearRegion) -> RectilinearRegion:
    return from_rects(a.rects + b.rects)


def region_union_all(regions) -> RectilinearRegion:
    return from_rects([r for region in regions for r in region.rects])


def _overlay(a: RectilinearRegion, b: RectilinearRegion, inside_b: bool) -> RectilinearRegion:
    """The closure of the open points of a whose membership in b is inside_b.

    Over each joint slab, both stacks' endpoints cut the slab into
    positive-length pieces, each wholly in or out of an operand. Walking up,
    one pointer per stack skips intervals ending at or below the piece's
    floor y0, and the piece lies in the next interval if that starts by y0.
    """
    xs = sorted({x for r in a.rects + b.rects for x in (r[0], r[1])})
    out = []
    for x0, x1, a_ivs, b_ivs in zip(xs, xs[1:], _slabs(a.rects, xs), _slabs(b.rects, xs)):
        if not a_ivs:
            continue
        ys = sorted({y for iv in a_ivs + b_ivs for y in iv})
        na, nb = len(a_ivs), len(b_ivs)
        i = j = 0
        for y0, y1 in zip(ys, ys[1:]):
            while i < na and a_ivs[i][1] <= y0:
                i += 1
            while j < nb and b_ivs[j][1] <= y0:
                j += 1
            if i < na and a_ivs[i][0] <= y0 and (j < nb and b_ivs[j][0] <= y0) == inside_b:
                out.append((x0, x1, y0, y1))
    return from_rects(out)


def region_difference(a: RectilinearRegion, b: RectilinearRegion) -> RectilinearRegion:
    """Regularized difference: the closure of interior(a) minus b."""
    return _overlay(a, b, False)


def region_intersection(a: RectilinearRegion, b: RectilinearRegion) -> RectilinearRegion:
    return _overlay(a, b, True)


def region_contains(a: RectilinearRegion, b: RectilinearRegion) -> bool:
    """Point-set containment b subseteq a (both regular closed)."""
    return region_difference(b, a).is_empty


def region_components(r: RectilinearRegion) -> list[RectilinearRegion]:
    """Edge-connected components; rects that only share a corner are split.

    Components are returned sorted by their canonical rect tuples.
    """
    rects = r.rects
    n = len(rects)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for i in range(n):
        x0, x1, y0, y1 = rects[i]
        for j in range(i + 1, n):
            u0, u1, v0, v1 = rects[j]
            # Canonical form guarantees rects in one column are disjoint, so
            # only rects of touching columns can share positive-length border.
            if x1 == u0 or u1 == x0:
                if min(y1, v1) > max(y0, v0):
                    union(i, j)
    groups: dict[int, list[Rect]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(rects[i])
    comps = [from_rects(g) for g in groups.values()]
    comps.sort(key=lambda c: c.rects)
    return comps


def polygon_region(P: OrthoPolygon) -> RectilinearRegion:
    """The closed polygon as a canonical region."""
    out = P._cache.get("region")
    if out is None:
        XS, gaps, _events = P._columns()
        rects = []
        for i in range(len(XS) - 1):
            for Y0, Y1 in gaps[i]:
                rects.append((XS[i] // 2, XS[i + 1] // 2, Y0 // 2, Y1 // 2))
        out = from_rects(rects)
        P._cache["region"] = out
    return out

