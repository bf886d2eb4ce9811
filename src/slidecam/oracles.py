"""Brute-force optima on small instances.

These are the ground truth the approximation bounds are tested against.
They deliberately avoid the solver modules' search code: candidate pruning
is redone here with bitmask subset tests over an exact cell decomposition,
and optima come from plain subset enumeration in increasing cardinality.
One rasteriser (_CellMasks._cells, a bisect walk over the overlay grid)
both indexes the target's cells and turns each tool into a bitmask, and one
enumeration (_first_cover) answers every cardinality-first search except
the guarded one, which weighs doubled tracks and keeps its own loop.

Candidates are restricted to the pruned maximal chords (plus duplicate
tracks where a camera needs a guard); any camera set can be converted
member for member into such a set without losing coverage, so the restricted
optimum is what the bounds compare against.

All searches return (value, witness) with the witness deterministic:
minimum cardinality first, lexicographically smallest second.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .errors import TooLarge
from .geom import HORIZONTAL, VERTICAL, OrthoPolygon, OrthoSegment, max_chord, reflex_vertices
from .grid import IntersectionGraph
from .guarded_cover import is_guarded_cover
from .region import RectilinearRegion, from_rects, polygon_region
from .visibility import camera_guards_camera, camera_visibility


def _left_edge_camera(P: OrthoPolygon) -> OrthoSegment:
    x0, y0, _x1, y1 = P.bbox()
    return OrthoSegment.vertical(x0, y0, y1)


class _CellMasks:
    """Exact coverage arithmetic on the overlay of target and tool regions.

    The overlay grid refines every rectangle of the target region and of
    each tool region, so each cell is entirely inside or outside any of
    them; a tool set covers the target iff the OR of tool masks has every
    target cell bit set.
    """

    def __init__(self, target: RectilinearRegion, tools: list[RectilinearRegion]):
        xs = {x for r in target.rects for x in (r[0], r[1])}
        ys = {y for r in target.rects for y in (r[2], r[3])}
        for t in tools:
            xs.update(x for r in t.rects for x in (r[0], r[1]))
            ys.update(y for r in t.rects for y in (r[2], r[3]))
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        # canonical rects meet only along edges, so no cell is listed twice
        cells = sorted(c for r in target.rects for c in self._cells(r))
        self.index = {c: a for a, c in enumerate(cells)}
        self.full = (1 << len(cells)) - 1
        self.masks = [self._rasterize(t) for t in tools]

    def _cells(self, rect):
        """The (i, j) overlay cells inside a rect, which the grid refines."""
        x0, x1, y0, y1 = rect
        js = range(bisect_left(self.ys, y0), bisect_left(self.ys, y1))
        for i in range(bisect_left(self.xs, x0), bisect_left(self.xs, x1)):
            for j in js:
                yield i, j

    def _rasterize(self, region: RectilinearRegion) -> int:
        mask = 0
        for rect in region.rects:
            for c in self._cells(rect):
                a = self.index.get(c)
                if a is not None:
                    mask |= 1 << a
        return mask


def _kept_candidates(P: OrthoPolygon, cap: int):
    """Independent rederivation of the pruned chord set with cell masks.

    Returns (segments, masks, full) where segments are the maximal reflex
    chords surviving same-orientation coverage containment (ties keep the
    lexicographically smallest) and masks are their coverage bitmasks over
    the polygon's own cell decomposition. Containment across orientations
    is deliberately not pruned, matching the grid the pipeline covers.
    The result is cached on P; raises TooLarge past `cap` segments.
    """
    out = P._cache.get("oracle_candidates")
    if out is None:
        chords = set()
        for v in reflex_vertices(P):
            chords.add(max_chord(P, v, HORIZONTAL))
            chords.add(max_chord(P, v, VERTICAL))
        chords = sorted(chords)
        vis = [camera_visibility(P, c) for c in chords]
        cm = _CellMasks(polygon_region(P), vis)
        by_mask: dict[tuple[str, int], OrthoSegment] = {}
        for c, m in zip(chords, cm.masks):
            by_mask.setdefault((c.orientation, m), c)
        pairs = sorted((c, m) for (_o, m), c in by_mask.items())
        kept = [
            (c, m)
            for c, m in pairs
            if not any(
                c2.orientation == c.orientation and m != m2 and m | m2 == m2
                for c2, m2 in pairs
            )
        ]
        out = (tuple(c for c, _m in kept), tuple(m for _c, m in kept), cm.full)
        P._cache["oracle_candidates"] = out
    n = len(out[0])
    if n > cap:
        raise TooLarge(f"{n} candidate tracks exceed the cap of {cap}")
    return out


def _first_cover(masks, full):
    """Smallest k and the first k-combination of indices into masks, in
    itertools order, whose OR holds every bit of full."""
    for k in range(len(masks) + 1):
        for combo in combinations(range(len(masks)), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if full & ~acc == 0:
                return k, combo
    raise AssertionError("the candidates fail to cover the target")


def opt_cameras(P: OrthoPolygon, cap: int = 22):
    """Minimum number of covering cameras and the smallest witness set."""
    if not reflex_vertices(P):
        return 1, (_left_edge_camera(P),)
    segments, masks, full = _kept_candidates(P, cap)
    k, combo = _first_cover(masks, full)
    return k, tuple(segments[i] for i in combo)


def opt_guarded_cameras(P: OrthoPolygon, cap: int = 22):
    """Minimum covering camera multiset in which every camera is watched by
    another (a twin on the same track counts). Returns (size, witness)."""
    if not reflex_vertices(P):
        cam = _left_edge_camera(P)
        return 2, (cam, cam)
    segments, masks, full = _kept_candidates(P, cap)
    n = len(segments)
    guard_mask = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and camera_guards_camera(P, segments[j], segments[i]):
                guard_mask[i] |= 1 << j
    best_cost = None
    best_witness = None
    m = 1
    while best_cost is None or m <= best_cost:
        if m > n:
            break
        for combo in combinations(range(n), m):
            acc = 0
            cmask = 0
            for i in combo:
                acc |= masks[i]
                cmask |= 1 << i
            if acc != full:
                continue
            witness = []
            cost = m
            for i in combo:
                witness.append(segments[i])
                if guard_mask[i] & cmask == 0:
                    # nothing else watches this track; staff it twice
                    witness.append(segments[i])
                    cost += 1
            witness = tuple(sorted(witness))
            if best_cost is None or (cost, witness) < (best_cost, best_witness):
                best_cost, best_witness = cost, witness
        m += 1
    assert best_cost is not None
    return best_cost, best_witness


def opt_grid_cover(graph: IntersectionGraph, cap: int = 18):
    """Exhaustive minimum guarded cover of an intersection graph."""
    n = graph.n
    if n > cap:
        raise TooLarge(f"{n} nodes exceed the cap of {cap}")
    if n == 0:
        return 0, ()
    adj = graph.neighbor_masks()
    isolated = [v for v in range(n) if adj[v] == 0]
    rest = [v for v in range(n) if adj[v] != 0]
    _k, combo = _first_cover([adj[v] for v in rest], sum(1 << v for v in rest))
    witness = tuple(sorted(isolated + [rest[i] for i in combo]))
    assert is_guarded_cover(graph, witness)
    return len(witness), witness


def opt_region_cover(P: OrthoPolygon, regions, cap: int = 22):
    """Minimum subset of the pruned chords whose visible sets jointly cover
    all given regions; collective guarding is allowed."""
    regions = list(regions)
    if not regions:
        return 0, ()
    segments, _masks, _full = _kept_candidates(P, cap)
    target = from_rects(r for reg in regions for r in reg.rects)
    cm = _CellMasks(target, [camera_visibility(P, s) for s in segments])
    k, combo = _first_cover(cm.masks, cm.full)
    return k, tuple(segments[i] for i in combo)
