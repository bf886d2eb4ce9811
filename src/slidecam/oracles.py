"""Brute-force optima on small instances.

These are the ground truth the approximation bounds are tested against.
They deliberately avoid the solver modules' search code: candidate pruning
is redone here with bitmask subset tests over an exact cell decomposition,
and optima come from plain subset enumeration in increasing cardinality.
Each candidate's visible set is read as rects straight off P's column and
row tables (_track_rects), and so is which candidates watch which
(_watch_masks), never off a cache the solver fills. One rasteriser
(_CellMasks, one big-int multiply per rect on a column-major cell
numbering) turns the target and every tool into bitmasks, and one
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

from bisect import bisect_left, bisect_right
from itertools import combinations

from .errors import TooLarge
from .geom import (
    HORIZONTAL,
    VERTICAL,
    OrthoPolygon,
    OrthoSegment,
    _interval_at,
    max_chord,
    reflex_vertices,
)
from .grid import IntersectionGraph
from .guarded_cover import is_guarded_cover
# camera_visibility and camera_guards_camera are unused here:
# perfbench/spans.py wraps both names on this module and fails when they
# are missing.
from .visibility import camera_guards_camera, camera_visibility  # noqa: F401


def _left_edge_camera(P: OrthoPolygon) -> OrthoSegment:
    x0, y0, _x1, y1 = P.bbox()
    return OrthoSegment.vertical(x0, y0, y1)


class _CellMasks:
    """Exact coverage arithmetic on the overlay of target and tool rects.

    The overlay grid refines every target rect and every tool rect, so each
    cell is entirely inside or outside any of them. Cell (i, j), in the
    grid's i-th column and j-th row, is bit i*H + j with H rows, so a rect's
    mask is a run of set bits repeated once per column it spans: one
    multiply by a ruler of one-bits H apart. Tool masks are cut to the
    target's cells, and a tool set covers the target iff the OR of its
    masks equals full, the target's own mask.
    """

    def __init__(self, target, tools):
        """target is a rect list, tools one rect list per tool."""
        xs = {x for r in target for x in (r[0], r[1])}
        ys = {y for r in target for y in (r[2], r[3])}
        for rects in tools:
            xs.update(x for r in rects for x in (r[0], r[1]))
            ys.update(y for r in rects for y in (r[2], r[3]))
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        self.H = len(self.ys) - 1
        self._col = {x: i for i, x in enumerate(self.xs)}
        self._row = {y: j for j, y in enumerate(self.ys)}
        self._rulers = [0]  # _rulers[k]: k one-bits, H apart
        self.full = self._rasterize(target)
        self.masks = [self._rasterize(rects) & self.full for rects in tools]

    def _rasterize(self, rects) -> int:
        col, row, rulers, H = self._col, self._row, self._rulers, self.H
        mask = 0
        for x0, x1, y0, y1 in rects:
            i0, j0 = col[x0], row[y0]
            k = col[x1] - i0
            while len(rulers) <= k:
                rulers.append((rulers[-1] << H) | 1)
            mask |= (((1 << (row[y1] - j0)) - 1) * rulers[k]) << (i0 * H + j0)
        return mask


def _polygon_rects(P: OrthoPolygon):
    """P as one rect per interval of each column of its slab table."""
    XS, gaps, _events = P._sections(HORIZONTAL)
    return [
        (XS[k] // 2, XS[k + 1] // 2, lo // 2, hi // 2)
        for k, column in enumerate(gaps)
        for lo, hi in column
    ]


def _track_rects(P: OrthoPolygon, s: OrthoSegment):
    """What a camera on the track s sees, as rects in P's frame.

    Over each slab of s's span the camera sees exactly the interval of that
    section of P that holds s's line, so the rects are read straight off
    P's column table for a horizontal s, or off its row table with the
    axes swapped back for a vertical s. s must lie inside P.
    """
    XS, gaps, _events = P._sections(s.orientation)
    first, last = bisect_right(XS, 2 * s.lo), bisect_left(XS, 2 * s.hi)
    cuts = [s.lo, *(X // 2 for X in XS[first:last]), s.hi]
    Y = 2 * s.anchor
    rects = []
    for a, b, column in zip(cuts, cuts[1:], gaps[first - 1 : last]):
        lo, hi = _interval_at(column, Y)
        rects.append((a, b, lo // 2, hi // 2))
    if s.is_vertical:
        rects = [(y0, y1, x0, x1) for x0, x1, y0, y1 in rects]
    return rects


def _watch_masks(P: OrthoPolygon, segments):
    """masks[i] has bit j set when a camera on segments[j] sees every point
    of the track segments[i] (i != j), each track inside P.

    A parallel track sees all of t exactly when its span holds t's and, over
    every slab of t's span, its line crosses the column interval that holds
    t's line: the rects of _track_rects(P, t). A perpendicular track g sees
    all of t exactly when g's span holds t's line and the chord along t's
    line through the crossing of the two lines holds that crossing and all
    of t. Both read P's column and row tables, never the slab chords the
    solver caches.
    """
    clearance = []
    for t in segments:
        k = 0 if t.is_vertical else 2  # the rect's extent across t's line
        rects = _track_rects(P, t)
        clearance.append((max(r[k] for r in rects), min(r[k + 1] for r in rects)))
    masks = [0] * len(segments)
    for i, t in enumerate(segments):
        lo, hi = clearance[i]
        for j, g in enumerate(segments):
            if i == j:
                continue
            if g.orientation == t.orientation:
                seen = g.lo <= t.lo and t.hi <= g.hi and lo <= g.anchor <= hi
            elif g.lo <= t.anchor <= g.hi:
                X, Y = (t.anchor, g.anchor) if t.is_vertical else (g.anchor, t.anchor)
                iv = P.chord_scaled(2 * X, 2 * Y, t.orientation)
                seen = (
                    iv is not None
                    and iv[0] <= 2 * min(g.anchor, t.lo)
                    and 2 * max(g.anchor, t.hi) <= iv[1]
                )
            else:
                seen = False
            if seen:
                masks[i] |= 1 << j
    return masks


def _kept_candidates(P: OrthoPolygon, cap: int):
    """Independent rederivation of the pruned chord set with cell masks.

    Returns (segments, masks, full) where segments are the maximal reflex
    chords surviving same-orientation coverage containment (ties keep the
    lexicographically smallest) and masks are their coverage bitmasks over
    the polygon's cells, each chord's read off P's column and row tables
    by _track_rects: no visible set is built and nothing the solver cached
    is read. Containment across orientations is deliberately not pruned,
    matching the grid the pipeline covers.
    The result is cached on P; raises TooLarge past `cap` segments.
    """
    out = P._cache.get("oracle_candidates")
    if out is None:
        chords = set()
        for v in reflex_vertices(P):
            chords.add(max_chord(P, v, HORIZONTAL))
            chords.add(max_chord(P, v, VERTICAL))
        chords = sorted(chords)
        cm = _CellMasks(_polygon_rects(P), [_track_rects(P, c) for c in chords])
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
    guard_mask = _watch_masks(P, segments)
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
    target = [r for reg in regions for r in reg.rects]
    cm = _CellMasks(target, [_track_rects(P, s) for s in segments])
    k, combo = _first_cover(cm.masks, cm.full)
    return k, tuple(segments[i] for i in combo)
