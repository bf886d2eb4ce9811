"""End-to-end guard placement.

camera_cover chains the phases: reflex chords, domination prune,
intersection graph, exact minimum guarded cover of the grid, leftover
critical regions, and the edge-cover patch. The result covers the polygon
with at most 3.5 times the optimal number of cameras.

The grid cover is the first optimum optimal_covers yields, the
lexicographically smallest one. Its leftover pieces need not be
staircases, as the paper's ratio argument assumes: on some polygons no
optimum of the pruned grid leaves only staircases
(tests/data/nonstaircase_36.poly has one optimum, and it does not). The
patch needs only that some grid track sees each piece whole, and
build_region_graph raises UnguardableRegion where none does. The ratio
there rests on the oracle checks (slidecam verify and the tests), not on
the paper's proof.

guarded_camera_cover returns the same cameras (checked_cover of one run)
and watched_cover enforces that every camera's track is watched by another
camera (at most 2.5 times the optimum of that harder problem). The CLI
passes its own run_pipeline result to both, so it solves once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .critical import (
    RegionGraph,
    build_region_graph,
    critical_regions,
    guards_from_cover,
    min_edge_cover,
)
from .errors import CoverageViolation, GuardednessViolation
from .geom import OrthoPolygon, OrthoSegment, reflex_vertices
from .grid import Grid, IntersectionGraph, intersection_graph, prune_dominated, reflex_chords
from .guarded_cover import optimal_covers
from .region import RectilinearRegion
from .visibility import camera_guards_camera, covers_polygon

FROM_S = "from_S"
FROM_SC = "from_SC"


@dataclass(frozen=True)
class RunStats:
    vertex_count: int
    reflex_count: int
    chord_count: int
    grid_size: int
    edge_count: int
    cover_size: int
    critical_count: int
    patch_size: int
    phase_seconds: dict[str, float]


@dataclass(frozen=True)
class GuardSet:
    cameras: tuple[OrthoSegment, ...]
    provenance: tuple[str, ...]
    stats: RunStats


@dataclass(frozen=True)
class PipelineRun:
    """Every intermediate artifact, for reports, rendering and tests."""

    polygon: OrthoPolygon
    chords: tuple[OrthoSegment, ...]
    grid: Grid
    graph: IntersectionGraph
    chosen: tuple[int, ...]
    cover_segments: tuple[OrthoSegment, ...]
    regions: tuple[RectilinearRegion, ...]
    region_graph: RegionGraph | None
    cover_edges: tuple[tuple[int, int], ...]
    patch_segments: tuple[OrthoSegment, ...]
    stats: RunStats


def _left_edge_camera(P: OrthoPolygon) -> OrthoSegment:
    x0, y0, _x1, y1 = P.bbox()
    return OrthoSegment.vertical(x0, y0, y1)


def run_pipeline(P: OrthoPolygon) -> PipelineRun:
    timings: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timings[name] = now - mark
        mark = now

    reflex = reflex_vertices(P)
    chords = tuple(reflex_chords(P))
    lap("chords")
    grid = prune_dominated(P, chords)
    lap("prune")
    graph = intersection_graph(grid)
    lap("graph")
    if not reflex:
        # A polygon without reflex vertices is a rectangle; one camera
        # along the left edge sweeps it and no grid machinery applies.
        chosen: tuple[int, ...] = ()
        cover_segments: tuple[OrthoSegment, ...] = (_left_edge_camera(P),)
        regions: tuple[RectilinearRegion, ...] = ()
    else:
        # minimum_guarded_cover's answer, drawn through this module's
        # optimal_covers name, which perfbench/spans.py wraps.
        chosen = next(optimal_covers(graph))
        cover_segments = tuple(grid.segments[i] for i in chosen)
        regions = tuple(critical_regions(P, cover_segments))
    lap("cover")
    if regions:
        rg = build_region_graph(P, regions, grid.segments)
        cover_edges = tuple(min_edge_cover(rg))
        patch_segments = tuple(guards_from_cover(rg, cover_edges))
    else:
        rg = None
        cover_edges = ()
        patch_segments = ()
    lap("patch")

    stats = RunStats(
        vertex_count=P.n,
        reflex_count=len(reflex),
        chord_count=len(chords),
        grid_size=len(grid),
        edge_count=len(graph.edges),
        cover_size=len(cover_segments),
        critical_count=len(regions),
        patch_size=len(patch_segments),
        phase_seconds=timings,
    )
    return PipelineRun(
        polygon=P,
        chords=chords,
        grid=grid,
        graph=graph,
        chosen=chosen,
        cover_segments=cover_segments,
        regions=regions,
        region_graph=rg,
        cover_edges=cover_edges,
        patch_segments=patch_segments,
        stats=stats,
    )


def merged_cameras(run: PipelineRun) -> tuple[tuple[OrthoSegment, ...], tuple[str, ...]]:
    """Dedup cover and patch cameras; a track in both counts as cover."""
    cover = set(run.cover_segments)
    cameras = sorted(cover | set(run.patch_segments))
    provenance = tuple(FROM_S if c in cover else FROM_SC for c in cameras)
    return tuple(cameras), provenance


def checked_cover(run: PipelineRun) -> GuardSet:
    """The run's merged cameras; CoverageViolation if they miss any of P."""
    cameras, provenance = merged_cameras(run)
    if not covers_polygon(run.polygon, cameras):
        raise CoverageViolation("camera set fails to cover the polygon")
    return GuardSet(cameras, provenance, run.stats)


def watched_cover(P: OrthoPolygon, found: GuardSet) -> GuardSet:
    """guarded_camera_cover's check: a cover track watches every camera.
    A lone camera has no distinct guard, so its track is staffed twice."""
    if len(found.cameras) == 1:
        return GuardSet(found.cameras * 2, found.provenance * 2, found.stats)
    # In camera order, so the work done is the same in every process.
    cover = [c for c, p in zip(found.cameras, found.provenance) if p == FROM_S]
    for cam in found.cameras:
        if not any(g != cam and camera_guards_camera(P, g, cam) for g in cover):
            raise GuardednessViolation(f"no cover track watches {cam}")
    return found


def camera_cover(P: OrthoPolygon) -> GuardSet:
    """Cameras covering the whole polygon, at most 3.5x the optimum."""
    return checked_cover(run_pipeline(P))


def guarded_camera_cover(P: OrthoPolygon) -> GuardSet:
    """Covering cameras whose tracks also watch each other, at most 2.5x
    the optimum of the guarded problem.

    Tracks in the cover pairwise intersect enough to watch each other, and
    every patch track crosses a cover track; both facts are re-verified
    camera by camera. With one cover track and nothing else, the same track
    is staffed twice, since a lone camera has no distinct guard; the
    oracle opt_guarded_cameras counts it the same way.
    """
    return watched_cover(P, checked_cover(run_pipeline(P)))
