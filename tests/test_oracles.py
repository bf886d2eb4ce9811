"""Brute-force optima: frozen values on the hand-checked shapes and
feasibility of every witness they return, and the oracles' cell masks and
cover enumeration against the code they replaced."""

from bisect import bisect_left
from itertools import combinations

import pytest

import slidecam as sc
from conftest import EAR, LSHAPE, PLUS, RECT, STAIR2, comb_polygon

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical


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
    """The overlay cells as first indexed: a centre point test per cell."""
    index = {}
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            if target.contains_point_scaled(xs[i] + xs[i + 1], ys[j] + ys[j + 1]):
                index[(i, j)] = len(index)
    return index


def reference_rasterize(xs, ys, index, region):
    mask = 0
    for x0, x1, y0, y1 in region.rects:
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
    index = reference_index(cm.xs, cm.ys, target)
    assert cm.index == index
    assert cm.full == (1 << len(index)) - 1
    assert cm.masks == [reference_rasterize(cm.xs, cm.ys, index, t) for t in tools]
    return cm


def test_cell_masks_and_first_cover_match_references(corpus_runs):
    # two target rects in one column run that the tool splits in two: the
    # cells of one rect do not come before the other's in index order
    target = sc.from_rects([(0, 2, 0, 1), (0, 2, 2, 3)])
    check_cell_masks(target, [sc.from_rects([(1, 2, 0, 3)])])
    loops = 0
    for seed, P, run in corpus_runs[:100]:
        if not sc.reflex_vertices(P):
            continue
        segments, masks, full = sc.oracles._kept_candidates(P, 30)
        chords = sorted({
            sc.max_chord(P, v, o)
            for v in sc.reflex_vertices(P)
            for o in (sc.HORIZONTAL, sc.VERTICAL)
        })
        vis = [sc.camera_visibility(P, c) for c in chords]
        cm = check_cell_masks(sc.polygon_region(P), vis)
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
            target = sc.from_rects(r for reg in run.regions for r in reg.rects)
            cm = check_cell_masks(target, [sc.camera_visibility(P, s) for s in segments])
            got = sc.oracles._first_cover(cm.masks, cm.full)
            assert got == reference_region_loop(cm.masks, cm.full), seed
            loops += 1
    assert loops > 0
