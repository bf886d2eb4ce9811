"""Leftover regions after the grid cover, and the patch that guards them.

Covering the guarding grid does not always cover the polygon: pockets can
remain that no chosen track sees. The patch is a minimum edge cover on a
graph of the connected leftover pieces whose edges say "one grid track sees
both whole"; a piece no track shares with another gets a loop. This module
builds that graph (build_region_graph) and turns the chosen edges back into
tracks (guards_from_cover); the cover itself is matching.min_edge_cover on
the graph's nodes, edges and loops, as run_pipeline calls it.

The patch needs one property of the grid only: some grid track sees each
leftover piece whole (build_region_graph raises UnguardableRegion where
none does). The paper's ratio argument asks for two more, and the pruned
grid keeps neither. A piece need not be a staircase: the smallest known
polygon whose cover leaves one is tests/data/nonstaircase_36.poly, where the
grid has a single optimum. And one track can see more than two pieces whole:
on generate_polygon(16, 86) V 9 3 18 sees three, and on
generate_polygon(47, 188) H 3 12 20 sees four (both pinned in
tests/test_critical.py). The patch stays valid either way; its ratio is
checked against the oracles rather than proved.

A track sees a piece whole exactly when its span holds the piece's extent
and its line lies in the piece's clearance (visibility._piece_clearance),
so the graph is built from one read of P's section tables per piece, with
guards_entirely as the one-pair reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnguardableRegion
from .geom import HORIZONTAL, VERTICAL, OrthoPolygon, OrthoSegment
from .region import RectilinearRegion, region_components
# region_difference is unused here: perfbench/spans.py wraps the name on
# this module and fails when it is missing.
from .region import region_difference  # noqa: F401
from .visibility import _piece_clearance, uncovered_region
# guards_entirely is unused here: perfbench/spans.py wraps the name on
# this module and fails when it is missing.
from .visibility import guards_entirely  # noqa: F401


def critical_regions(P: OrthoPolygon, cameras) -> list[RectilinearRegion]:
    """Connected leftover pieces, sorted canonically.

    Components touching only at a corner count as separate pieces. A piece
    may have any shape; is_staircase tells the staircases apart.
    """
    return region_components(uncovered_region(P, cameras))


def is_staircase(r: RectilinearRegion) -> bool:
    """Is r connected, hole-free and staircase-shaped?

    Read straight off the canonical slab form: r passes when it is
    non-empty, each rect abuts the next (a[1] == b[0]), and either all
    bottoms are equal and the tops are monotone, or all tops are equal and
    the bottoms are monotone (either direction in both cases).

    Why that is the whole test: from_rects gives one rect per column
    interval, sorted by x, with equal neighbours merged. A staircase with
    its corner at the bottom left is {x0 <= x <= x1, y0 <= y <= g(x)} with g
    non-increasing: one interval per column, no gaps, a common bottom and
    falling tops. The other three corners are its mirror images. Abutting
    rects rule out two intervals in one column (a hole, say) and a gap
    between columns; a corner touch, a T, a Z or a plus breaks the common
    side or the monotone one. A rectangle is one rect and qualifies. The
    empty region does not.
    """
    rects = r.rects
    if not rects or any(a[1] != b[0] for a, b in zip(rects, rects[1:])):
        return False
    bottoms = [rect[2] for rect in rects]
    tops = [rect[3] for rect in rects]

    def monotone(v):
        return v == sorted(v) or v == sorted(v, reverse=True)

    return (len(set(bottoms)) == 1 and monotone(tops)) or (
        len(set(tops)) == 1 and monotone(bottoms)
    )


@dataclass(frozen=True)
class RegionGraph:
    """Patch instance: which grid tracks see which leftover pieces whole.

    Nodes are piece indices. seers[i] lists, in ascending order, the
    indices into candidates of the tracks that see piece i entirely. An
    edge (i, j) means one track sees both piece i and piece j entirely;
    pieces no track shares with another get a loop.
    """

    regions: tuple[RectilinearRegion, ...]
    candidates: tuple[OrthoSegment, ...]
    seers: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    loops: tuple[int, ...]


def build_region_graph(P: OrthoPolygon, regions, candidates) -> RegionGraph:
    """Match leftover pieces with tracks that see them entirely.

    regions are non-empty pieces of P and candidates are tracks inside P,
    as critical_regions and grid.segments give them; neither is checked
    here. A candidate sees a piece whole exactly when its span holds the
    piece's extent along it and twice its anchor lies in the piece's
    clearance for its orientation (_piece_clearance, read once per piece),
    so no candidate's slab chords are read. A bad track therefore raises
    nothing here; one that ends up chosen still raises SegmentNotInside in
    checked_cover.

    Raises UnguardableRegion when some piece is seen whole by no candidate
    track; no grid cover tried has left such a piece.
    """
    regions = tuple(regions)
    candidates = tuple(candidates)
    seers: list[tuple[int, ...]] = []
    for idx, r in enumerate(regions):
        # Canonical rects run left to right, so the first and last give the
        # x-extent; the y-extent takes a pass.
        x0, x1 = r.rects[0][0], r.rects[-1][1]
        y0, y1 = min(rect[2] for rect in r.rects), max(rect[3] for rect in r.rects)
        h_lo, h_hi = _piece_clearance(P, HORIZONTAL, r.rects)
        v_lo, v_hi = _piece_clearance(P, VERTICAL, r.rects)
        who = tuple(
            k
            for k, s in enumerate(candidates)
            if (
                s.lo <= y0 and y1 <= s.hi and v_lo <= 2 * s.anchor <= v_hi
                if s.is_vertical
                else s.lo <= x0 and x1 <= s.hi and h_lo <= 2 * s.anchor <= h_hi
            )
        )
        if not who:
            raise UnguardableRegion(f"no track sees leftover piece {idx} whole")
        seers.append(who)
    sets = [set(w) for w in seers]
    edges = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if sets[i] & sets[j]:
                edges.append((i, j))
    linked = {v for e in edges for v in e}
    loops = tuple(i for i in range(len(regions)) if i not in linked)
    return RegionGraph(regions, candidates, tuple(seers), tuple(edges), loops)


def guards_from_cover(g: RegionGraph, cover) -> list[OrthoSegment]:
    """Translate chosen cover edges back into camera tracks, deduplicated.

    Each chosen edge (i, j) gets the smallest track that sees both pieces
    whole; a loop (i, i) gets piece i's smallest seer."""
    return sorted(
        {g.candidates[min(set(g.seers[i]).intersection(g.seers[j]))] for i, j in cover}
    )
