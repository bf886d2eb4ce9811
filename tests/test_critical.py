"""Staircase recognition, leftover extraction and the patch graph."""

import random
from pathlib import Path

import pytest

import slidecam as sc
from slidecam.visibility import _piece_clearance
from conftest import (
    EAR,
    LSHAPE,
    PLUS,
    comb_polygon,
    corpus_target,
    images,
    notched_square,
    serpentine_polygon,
    staircase_polygon,
)

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical


def R(*rects):
    return sc.from_rects(rects)


def test_staircase_accepts_rectangle():
    assert sc.is_staircase(R((0, 3, 0, 2)))
    assert sc.is_staircase(R((0, 1, 0, 1)))


def test_staircase_accepts_l_and_young_shapes():
    assert sc.is_staircase(R((0, 2, 0, 1), (0, 1, 1, 2)))
    assert sc.is_staircase(R((0, 3, 0, 1), (0, 2, 1, 2), (0, 1, 2, 3)))
    # orientation of the steps does not matter
    assert sc.is_staircase(R((0, 1, 0, 3), (1, 2, 0, 2), (2, 3, 0, 1)))


def test_staircase_rejects_t_z_and_plus():
    assert not sc.is_staircase(R((0, 3, 1, 2), (1, 2, 0, 1)))
    assert not sc.is_staircase(R((0, 2, 0, 1), (1, 3, 1, 2)))
    assert not sc.is_staircase(
        R((1, 2, 0, 3), (0, 3, 1, 2))
    )


def boundary_staircase(r):
    """The boundary-walk recogniser is_staircase replaced, kept as the
    reference: refine r into the cells of its own coordinate arrangement,
    walk the single CCW boundary cycle (None when pinched, holed or
    disconnected), merge it into straight runs, and accept when some corner's
    two runs, once removed, leave a chain monotone in x and in y."""
    if r.is_empty:
        return False
    xs = sorted({x for rect in r.rects for x in (rect[0], rect[1])})
    ys = sorted({y for rect in r.rects for y in (rect[2], rect[3])})
    occ = {
        (i, j)
        for i in range(len(xs) - 1)
        for j in range(len(ys) - 1)
        if r.contains_point_scaled(xs[i] + xs[i + 1], ys[j] + ys[j + 1])
    }
    edges = {}
    for i, j in occ:
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[j], ys[j + 1]
        sides = []
        if (i, j - 1) not in occ:
            sides.append(((x0, y0), (x1, y0)))
        if (i + 1, j) not in occ:
            sides.append(((x1, y0), (x1, y1)))
        if (i, j + 1) not in occ:
            sides.append(((x1, y1), (x0, y1)))
        if (i - 1, j) not in occ:
            sides.append(((x0, y1), (x0, y0)))
        for a, b in sides:
            if a in edges:  # two outgoing edges: pinch vertex
                return False
            edges[a] = b
    start = min(edges)
    walk = [start]
    cur = edges[start]
    while cur != start:
        walk.append(cur)
        cur = edges[cur]
    if len(walk) != len(edges):
        return False
    steps = []
    for t in range(len(walk)):
        a, b = walk[t], walk[(t + 1) % len(walk)]
        d = (b[0] - a[0], b[1] - a[1])
        if steps and (steps[-1][0] == 0) == (d[0] == 0):
            steps[-1] = (steps[-1][0] + d[0], steps[-1][1] + d[1])
        else:
            steps.append(d)
    if len(steps) > 1 and (steps[0][0] == 0) == (steps[-1][0] == 0):
        steps[0] = (steps[0][0] + steps[-1][0], steps[0][1] + steps[-1][1])
        steps.pop()
    m = len(steps)
    for rot in range(m):
        rest = [steps[(rot + 1 + t) % m] for t in range(m - 2)]
        hs = {dx > 0 for dx, dy in rest if dx != 0}
        vs = {dy > 0 for dx, dy in rest if dy != 0}
        if len(hs) <= 1 and len(vs) <= 1:
            return True
    return False


@pytest.mark.parametrize("w,h", [(3, 4), (4, 3)])
def test_staircase_matches_boundary_walk_on_grid_subsets(w, h):
    cells = [(i, i + 1, j, j + 1) for i in range(w) for j in range(h)]
    stairs = 0
    for mask in range(1 << len(cells)):
        r = sc.from_rects(c for k, c in enumerate(cells) if mask >> k & 1)
        got = sc.is_staircase(r)
        assert got == boundary_staircase(r), r.rects
        stairs += got
    assert 0 < stairs < 1 << len(cells)


def test_staircase_matches_boundary_walk_on_pipeline_pieces():
    # seeds 119 and 386 at 240 vertices leave non-staircase pieces
    seen = set()
    cases = [(seed, corpus_target(seed)) for seed in range(1, 201)]
    cases += [(119, 240), (386, 240)]
    for seed, n in cases:
        for r in sc.run_pipeline(sc.generate_polygon(seed, n)).regions:
            got = sc.is_staircase(r)
            assert got == boundary_staircase(r), r.rects
            seen.add(got)
    assert seen == {True, False}


def test_staircase_rejects_empty_pinched_disconnected_holed():
    from slidecam.region import EMPTY_REGION

    assert not sc.is_staircase(EMPTY_REGION)
    assert not sc.is_staircase(R((0, 1, 0, 1), (1, 2, 1, 2)))
    assert not sc.is_staircase(R((0, 1, 0, 1), (2, 3, 0, 1)))
    ring = R((0, 3, 0, 1), (0, 3, 2, 3), (0, 1, 0, 3), (2, 3, 0, 3))
    assert not sc.is_staircase(ring)


def test_uncovered_region_on_ear():
    P = sc.validate_polygon(EAR)
    left = sc.uncovered_region(P, [H(2, 0, 5), V(1, 1, 3)])
    assert left == R((4, 6, 3, 4))
    assert sc.uncovered_region(P, [H(2, 0, 5), V(1, 1, 3), H(3, 0, 6)]).is_empty


def test_critical_regions_sorted_components():
    P = sc.validate_polygon(EAR)
    regions = sc.critical_regions(P, [H(2, 0, 5), V(1, 1, 3)])
    assert [r.rects for r in regions] == [((4, 6, 3, 4),)]


def test_critical_regions_returns_a_non_staircase_leftover():
    P = sc.validate_polygon(PLUS)
    [piece] = sc.critical_regions(P, [])
    assert piece.rects == ((0, 1, 1, 2), (1, 2, 0, 3), (2, 3, 1, 2))
    assert not sc.is_staircase(piece)


def test_region_graph_on_ear_loop():
    P = sc.validate_polygon(EAR)
    run = sc.run_pipeline(P)
    g = run.region_graph
    assert g.edges == () and g.loops == (0,)
    assert str(g.candidates[g.loop_witness[0]]) == "H 3 0 6"
    assert [str(s) for s in run.patch_segments] == ["H 3 0 6"]


def test_region_graph_shared_edge():
    # two leftover pieces watched whole by one and the same track
    P = sc.generate_polygon(416, corpus_target(416))
    run = sc.run_pipeline(P)
    g = run.region_graph
    assert len(g.regions) == 2
    assert g.edges == ((0, 1),)
    assert str(g.candidates[g.edge_witness[(0, 1)]]) == "V 5 0 9"
    assert [str(s) for s in run.patch_segments] == ["V 5 0 9"]


def test_region_graph_requires_a_whole_seer():
    P = sc.validate_polygon(EAR)
    regions = sc.critical_regions(P, [H(2, 0, 5), V(1, 1, 3)])
    with pytest.raises(sc.UnguardableRegion):
        sc.build_region_graph(P, regions, [H(2, 0, 5), V(1, 1, 3)])


def test_guards_from_cover_deduplicates():
    segs = (H(0, 0, 2), V(1, 0, 2))
    g = sc.RegionGraph(
        regions=(R((0, 1, 0, 1)), R((1, 2, 1, 2)), R((3, 4, 0, 1))),
        candidates=segs,
        edges=((0, 1),),
        edge_witness={(0, 1): 1},
        loops=(2,),
        loop_witness={2: 1},
    )
    cover = sc.min_edge_cover(len(g.regions), g.edges, loops=g.loops)
    assert sorted(cover) == [(0, 1), (2, 2)]
    assert sc.guards_from_cover(g, cover) == [V(1, 0, 2)]


def test_at_most_two_regions_per_track_on_sample(corpus_runs):
    # The paper's patch argument: one grid track sees at most two leftover
    # pieces whole. Over corpus seeds 1-1000 and ladder sizes 240 (seeds
    # 1-20), 320 and 400 (seeds 1-4) that holds on every track but one: on
    # generate_polygon(2, 320) one track sees three pieces, so
    # build_region_graph gets a triangle from a single track. The next test
    # pins smaller and worse cases.
    from slidecam.visibility import guards_entirely

    runs = [(("corpus", seed), P, run) for seed, P, run in corpus_runs]
    inputs = [(corpus_target(seed), seed) for seed in range(501, 1001)]
    inputs += [(240, seed) for seed in range(1, 21)]
    inputs += [(n, seed) for n in (320, 400) for seed in range(1, 5)]
    for n, seed in inputs:
        P = sc.generate_polygon(seed, n)
        runs.append(((n, seed), P, sc.run_pipeline(P)))
    patched = 0
    over = {}
    for key, P, run in runs:
        if not run.regions:
            continue
        patched += 1
        for t in run.grid.segments:
            seen = tuple(i for i, r in enumerate(run.regions) if guards_entirely(P, t, r))
            if len(seen) > 2:
                over[key, str(t)] = seen
    assert patched > 200
    assert over == {((320, 2), "V 21 3 38"): (0, 1, 2)}
    # The edge cover still finds a 4-track patch there; fixing the grid so
    # that the bound holds again is open work on the pruned grid.
    [(P, run)] = [(P, run) for key, P, run in runs if key == (320, 2)]
    rg = sc.build_region_graph(P, run.regions, run.grid.segments)
    assert {(0, 1), (0, 2), (1, 2)} <= set(rg.edges)
    assert str(rg.candidates[rg.edge_witness[0, 2]]) == "V 21 3 38"
    assert run.stats.patch_size == 4


@pytest.mark.parametrize(
    "seed, n, track, seen",
    [(16, 86, "V 9 3 18", (2, 3, 4)), (47, 188, "H 3 12 20", (0, 1, 2, 3))],
)
def test_one_track_can_see_three_or_four_pieces_whole(seed, n, track, seen):
    # The smallest generated polygon known where a grid track sees three
    # leftover pieces whole, and one where a track sees four.
    from slidecam.visibility import guards_entirely

    P = sc.generate_polygon(seed, n)
    run = sc.run_pipeline(P)
    [t] = [t for t in run.grid.segments if str(t) == track]
    assert tuple(i for i, r in enumerate(run.regions) if guards_entirely(P, t, r)) == seen
    assert sc.covers_polygon(P, sc.camera_cover(P).cameras)


def reference_region_graph(P, regions, candidates):
    """build_region_graph without the span filter or the clearances: every
    candidate against every piece through guards_entirely."""
    from slidecam.visibility import guards_entirely

    seers = [[k for k, s in enumerate(candidates) if guards_entirely(P, s, r)] for r in regions]
    edges, witness = [], {}
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            common = set(seers[i]) & set(seers[j])
            if common:
                edges.append((i, j))
                witness[(i, j)] = min(common)
    linked = {v for e in edges for v in e}
    loops = tuple(i for i in range(len(regions)) if i not in linked)
    return sc.RegionGraph(
        tuple(regions),
        tuple(candidates),
        tuple(edges),
        witness,
        loops,
        {i: seers[i][0] for i in loops},
    )


def test_region_graph_span_skip_matches_a_full_scan(corpus_runs_1000):
    runs = [run for _seed, _P, run in corpus_runs_1000]
    families = (notched_square(10), staircase_polygon(40), comb_polygon(30), serpentine_polygon(30))
    polygons = [Q for F in families for Q in images(F)]
    polygons += [
        sc.parse_polygon(path.read_text())
        for path in sorted((Path(__file__).parent / "data").glob("*.poly"))
    ]
    polygons += [sc.generate_polygon(seed, n) for seed, n in ((119, 240), (386, 240))]
    polygons += [sc.generate_polygon(seed, n) for seed, n in ((16, 86), (47, 188), (2, 320))]
    runs += [sc.run_pipeline(Q) for Q in polygons]
    patched = 0
    for run in runs:
        if not run.regions:
            continue
        patched += 1
        P, segments = run.polygon, run.grid.segments
        want = reference_region_graph(P, run.regions, segments)
        assert sc.build_region_graph(P, run.regions, segments) == want
        assert run.region_graph == want
        # Reversed, the vertical tracks come first and win the witnesses.
        want = reference_region_graph(P, run.regions, segments[::-1])
        assert sc.build_region_graph(P, run.regions, segments[::-1]) == want
    assert patched > 200


def extent(r, orientation):
    """The piece's extent along tracks of `orientation`."""
    if orientation == sc.HORIZONTAL:
        return r.rects[0][0], r.rects[-1][1]
    return min(rect[2] for rect in r.rects), max(rect[3] for rect in r.rects)


def test_piece_clearance_matches_guards_entirely():
    # Pieces that random subsets of the grid leave, against every grid
    # track: a track sees a piece whole exactly when its span holds the
    # piece's extent and twice its anchor lies in the piece's clearance.
    rng = random.Random(29)
    polygons = [sc.generate_polygon(seed, corpus_target(seed)) for seed in range(1, 501)]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 11)]
    families = (notched_square(6), staircase_polygon(20), comb_polygon(12), serpentine_polygon(12))
    polygons += [Q for F in families for Q in images(F)]
    seen = {sc.HORIZONTAL: set(), sc.VERTICAL: set()}
    pairs = 0
    for P in polygons:
        segments = sc.prune_dominated(P, sc.reflex_chords(P)).segments
        for _ in range(4):
            keep = rng.random()
            chosen = [s for s in segments if rng.random() < keep]
            for r in sc.critical_regions(P, chosen):
                for o in (sc.HORIZONTAL, sc.VERTICAL):
                    e0, e1 = extent(r, o)
                    lo, hi = _piece_clearance(P, o, r.rects)
                    for s in segments:
                        if s.orientation != o:
                            continue
                        want = sc.guards_entirely(P, s, r)
                        got = s.lo <= e0 and e1 <= s.hi and lo <= 2 * s.anchor <= hi
                        assert got == want, (sc.format_polygon(P), str(s), r.rects)
                        seen[o].add(want)
                        pairs += 1
    assert seen == {sc.HORIZONTAL: {True, False}, sc.VERTICAL: {True, False}}
    assert pairs > 20000, pairs
