"""Brute-force optima: frozen values on the hand-checked shapes and
feasibility of every witness they return, the oracles' cell masks and
cover enumeration against the code they replaced, and their independence
from what the solver caches."""

from bisect import bisect_left
from itertools import combinations
from pathlib import Path

import pytest

import slidecam as sc
from conftest import EAR, LSHAPE, PLUS, RECT, STAIR2, comb_polygon

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical
DATA = Path(__file__).parent / "data"


def test_opt_cameras_named():
    cases = [
        (RECT, 1, ["V 0 0 3"]),
        (LSHAPE, 1, ["H 2 0 4"]),
        (PLUS, 1, ["H 1 0 3"]),
        (STAIR2, 1, ["H 2 0 6"]),
        (EAR, 2, ["H 2 0 5", "H 3 0 6"]),
    ]
    for verts, want, witness in cases:
        P = sc.validate_polygon(verts)
        val, w = sc.opt_cameras(P)
        assert val == want
        assert [str(s) for s in w] == witness
        assert sc.covers_polygon(P, w)


def test_opt_guarded_cameras_named():
    cases = [
        (RECT, 2, ["V 0 0 3", "V 0 0 3"]),
        (LSHAPE, 2, ["H 2 0 4", "H 2 0 4"]),
        (PLUS, 2, ["H 1 0 3", "H 1 0 3"]),
        (STAIR2, 2, ["H 2 0 6", "H 2 0 6"]),
        (EAR, 2, ["H 2 0 5", "V 3 0 5"]),
    ]
    for verts, want, witness in cases:
        P = sc.validate_polygon(verts)
        val, w = sc.opt_guarded_cameras(P)
        assert val == want
        assert [str(s) for s in w] == witness
        assert sc.covers_polygon(P, w)
        for i, c in enumerate(w):
            others = list(w[:i]) + list(w[i + 1 :])
            assert any(sc.camera_guards_camera(P, o, c) for o in others)


def test_opt_grid_cover_small_graphs():
    assert sc.opt_grid_cover(sc.IntersectionGraph(0, ())) == (0, ())
    assert sc.opt_grid_cover(sc.IntersectionGraph(2, ((0, 1),))) == (2, (0, 1))
    path4 = sc.IntersectionGraph(4, ((0, 1), (1, 2), (2, 3)))
    assert sc.opt_grid_cover(path4) == (2, (1, 2))
    lonely = sc.IntersectionGraph(3, ((1, 2),))
    assert sc.opt_grid_cover(lonely) == (3, (0, 1, 2))
    assert sc.opt_grid_cover(sc.IntersectionGraph(2, ())) == (2, (0, 1))


def test_opt_grid_cover_matches_solver_on_ear():
    P = sc.validate_polygon(EAR)
    run = sc.run_pipeline(P)
    val, witness = sc.opt_grid_cover(run.graph)
    assert val == len(run.chosen) == 2
    assert witness == run.chosen == (0, 2)


def test_opt_region_cover_on_ear():
    P = sc.validate_polygon(EAR)
    run = sc.run_pipeline(P)
    val, w = sc.opt_region_cover(P, run.regions)
    assert val == 1
    assert [str(s) for s in w] == ["H 3 0 6"]
    assert sc.opt_region_cover(P, []) == (0, ())


def test_opt_region_cover_allows_collective_cover():
    # one track covers the left half of the strip, another the right;
    # neither sees it whole, together they do
    P = sc.validate_polygon(LSHAPE)
    target = sc.from_rects([(0, 4, 0, 1)])
    val, w = sc.opt_region_cover(P, [target])
    assert val == 1  # H 2 0 4 alone already sees the strip
    val2, w2 = sc.opt_region_cover(P, [sc.from_rects([(0, 2, 2, 4)])])
    assert val2 == 1


def test_caps_raise_too_large():
    P = comb_polygon(22)
    with pytest.raises(sc.TooLarge):
        sc.opt_cameras(P)
    with pytest.raises(sc.TooLarge):
        sc.opt_guarded_cameras(P)
    with pytest.raises(sc.TooLarge):
        sc.opt_grid_cover(sc.IntersectionGraph(19, ()))
    val, _ = sc.opt_cameras(P, cap=30)
    assert val == 1


def test_witnesses_are_lexicographically_first():
    # ties between optimal witnesses resolve to the smallest tuple
    P = sc.validate_polygon(LSHAPE)
    _val, w = sc.opt_cameras(P)
    assert [str(s) for s in w] == ["H 2 0 4"]  # H sorts before V 2 0 4


def reference_index(xs, ys, target):
    """The overlay cells inside the target, by a centre point test per
    cell, each at bit i*H + j for column i and row j of H rows."""
    H = len(ys) - 1
    index = {}
    for i in range(len(xs) - 1):
        for j in range(H):
            if target.contains_point_scaled(xs[i] + xs[i + 1], ys[j] + ys[j + 1]):
                index[(i, j)] = i * H + j
    return index


def reference_rasterize(xs, ys, index, rects):
    mask = 0
    for x0, x1, y0, y1 in rects:
        for i in range(bisect_left(xs, x0), bisect_left(xs, x1)):
            for j in range(bisect_left(ys, y0), bisect_left(ys, y1)):
                if (i, j) in index:
                    mask |= 1 << index[(i, j)]
    return mask


def reference_camera_loop(masks, full):
    """opt_cameras' own enumeration: k from 1, OR equal to full."""
    for k in range(1, len(masks) + 1):
        for combo in combinations(range(len(masks)), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return k, combo


def reference_grid_loop(adj, rest):
    """opt_grid_cover's own enumeration: k from 0 over the non-isolated
    nodes, until they are all dominated."""
    rest_mask = 0
    for v in rest:
        rest_mask |= 1 << v
    for k in range(len(rest) + 1):
        for combo in combinations(rest, k):
            dom = 0
            for v in combo:
                dom |= adj[v]
            if rest_mask & ~dom == 0:
                return k, combo


def reference_region_loop(masks, full):
    """opt_region_cover's own enumeration: k from 0, OR equal to full."""
    for k in range(len(masks) + 1):
        for combo in combinations(range(len(masks)), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return k, combo


def check_cell_masks(target, tools):
    cm = sc.oracles._CellMasks(target, tools)
    rects = [r for rs in [target, *tools] for r in rs]
    assert cm.xs == sorted({x for r in rects for x in r[:2]})
    assert cm.ys == sorted({y for r in rects for y in r[2:]})
    index = reference_index(cm.xs, cm.ys, sc.from_rects(target))
    assert cm.full == sum(1 << a for a in index.values())
    assert cm.masks == [reference_rasterize(cm.xs, cm.ys, index, t) for t in tools]
    return cm


def test_cell_masks_and_first_cover_match_references(corpus_runs):
    # overlapping target rects, a tool rect spanning several columns and
    # rows, and tools partly and wholly outside the target
    target = [(0, 2, 0, 1), (0, 2, 2, 3), (1, 3, 0, 3)]
    check_cell_masks(target, [[(1, 2, 0, 3)], [(0, 4, 0, 2), (-1, 1, 1, 3)], [(5, 6, 0, 1)]])
    loops = 0
    for seed, P, run in corpus_runs[:100]:
        if not sc.reflex_vertices(P):
            continue
        segments, masks, full = sc.oracles._kept_candidates(P, 30)
        # _kept_candidates reads each track off P's column tables; these
        # masks come from the visible sets as regions instead
        chords = sorted({
            sc.max_chord(P, v, o)
            for v in sc.reflex_vertices(P)
            for o in (sc.HORIZONTAL, sc.VERTICAL)
        })
        vis = [sc.camera_visibility(P, c).rects for c in chords]
        cm = check_cell_masks(sc.polygon_region(P).rects, vis)
        assert cm.full == full
        assert masks == tuple(cm.masks[chords.index(s)] for s in segments)
        got = sc.oracles._first_cover(masks, full)
        assert got == reference_camera_loop(masks, full), seed
        adj = run.graph.neighbor_masks()
        rest = [v for v in range(run.graph.n) if adj[v]]
        full = sum(1 << v for v in rest)
        k, combo = sc.oracles._first_cover([adj[v] for v in rest], full)
        assert (k, tuple(rest[i] for i in combo)) == reference_grid_loop(adj, rest), seed
        if run.regions:
            target = [r for reg in run.regions for r in reg.rects]
            cm = check_cell_masks(target, [sc.camera_visibility(P, s).rects for s in segments])
            got = sc.oracles._first_cover(cm.masks, cm.full)
            assert got == reference_region_loop(cm.masks, cm.full), seed
            assert sc.opt_region_cover(P, run.regions, 30) == (
                got[0], tuple(segments[i] for i in got[1])
            ), seed
            loops += 1
    assert loops > 0


def test_kept_candidates_read_nothing_the_solver_cached(corpus):
    # A solve caches the slab chords of every track it reads on P.
    # Corrupted, they must not reach the oracles' candidates or masks.
    compared = 0
    for seed, P0 in corpus:
        if not sc.reflex_vertices(P0):
            continue
        text = sc.format_polygon(P0)
        P = sc.parse_polygon(text)
        sc.run_pipeline(P)
        cache = P._cache["slab_chords"]
        assert any(chords is not None for chords in cache.values()), seed
        for s, chords in cache.items():
            if chords is not None:
                Y = 2 * s.anchor
                cache[s] = [(a, b, Y, Y) for a, b, _lo, _hi in chords]
        got = sc.oracles._kept_candidates(P, 1000)
        assert got == sc.oracles._kept_candidates(sc.parse_polygon(text), 1000), seed
        compared += 1
    assert compared > 400


def test_opt_guarded_cameras_read_nothing_the_solver_cached(corpus):
    # As above for the guarded optimum's watch test: slab chords widened
    # after a solve must not change who watches whom.
    compared = 0
    for seed, P0 in corpus:
        if not sc.reflex_vertices(P0):
            continue
        text = sc.format_polygon(P0)
        P = sc.parse_polygon(text)
        sc.run_pipeline(P)
        cache = P._cache["slab_chords"]
        assert any(chords is not None for chords in cache.values()), seed
        for s, chords in cache.items():
            if chords is not None:
                cache[s] = [(a, b, -(10**6), 10**6) for a, b, _lo, _hi in chords]
        try:
            got = sc.opt_guarded_cameras(P)
        except sc.TooLarge:
            continue
        assert got == sc.opt_guarded_cameras(sc.parse_polygon(text)), seed
        compared += 1
    assert compared > 400


def test_watch_masks_match_camera_guards_camera(corpus):
    # The oracle's own watch test against the solver's predicate, each on a
    # fresh polygon, over every pair of candidate tracks.
    for seed, P0 in corpus:
        text = sc.format_polygon(P0)
        segments = sc.oracles._kept_candidates(sc.parse_polygon(text), 1000)[0]
        Q = sc.parse_polygon(text)
        want = [
            sum(
                1 << j
                for j, g in enumerate(segments)
                if j != i and sc.camera_guards_camera(Q, g, t)
            )
            for i, t in enumerate(segments)
        ]
        P = sc.parse_polygon(text)
        assert sc.oracles._watch_masks(P, segments) == want, seed


def test_kept_candidates_at_scale():
    # the domination arithmetic far past the corpus sizes
    P = sc.parse_polygon((DATA / "generated_676_124.poly").read_text())
    assert len(sc.oracles._kept_candidates(P, 27)[0]) == 27
    P = sc.parse_polygon((DATA / "generated_2_1600.poly").read_text())
    with pytest.raises(sc.TooLarge, match="^341 candidate tracks exceed the cap of 22$"):
        sc.opt_cameras(P)
