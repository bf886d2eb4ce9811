"""Camera visibility against direct evaluation of the defining rule.

The reference implementation in brute.py samples the doubled integer
lattice, so agreement is checked two ways: exact equality at unit-cell
centers (which determines the region, since every feature has integer
coordinates) and one-sided soundness at every lattice point including
region edges, where the library's closed regions must never claim a point
the rule denies.
"""

import random

import pytest

import brute
import slidecam as sc
from conftest import EAR, LSHAPE, NAMED, corpus_target

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical


def check_against_brute(P, cam):
    verts = [(p.x, p.y) for p in P.vertices]
    vis = sc.camera_visibility(P, cam)
    x0, y0, x1, y1 = P.bbox()
    for i in range(x0, x1):
        for j in range(y0, y1):
            want = brute.sees(verts, cam, 2 * i + 1, 2 * j + 1)
            got = vis.contains_point_scaled(2 * i + 1, 2 * j + 1)
            assert got == want, (str(cam), i, j)
    for X in range(2 * x0, 2 * x1 + 1):
        for Y in range(2 * y0, 2 * y1 + 1):
            if vis.contains_point_scaled(X, Y):
                assert brute.sees(verts, cam, X, Y), (str(cam), X, Y)


def tracks_of(P):
    out = list(sc.reflex_chords(P))
    v = P.vertices[0]
    out.append(sc.max_chord(P, v, sc.HORIZONTAL))
    out.append(sc.max_chord(P, v, sc.VERTICAL))
    return out


def test_named_shapes_match_brute():
    for name, verts in NAMED.items():
        P = sc.validate_polygon(verts)
        for cam in tracks_of(P):
            check_against_brute(P, cam)


def test_subsegment_tracks_match_brute():
    rng = random.Random(3)
    P = sc.validate_polygon(EAR)
    for cam in sc.reflex_chords(P):
        for _ in range(3):
            a = rng.randint(cam.lo, cam.hi)
            b = rng.randint(cam.lo, cam.hi)
            if a == b:
                continue
            sub = sc.OrthoSegment(cam.orientation, cam.anchor, min(a, b), max(a, b))
            check_against_brute(P, sub)


def test_lshape_visibility_regions():
    P = sc.validate_polygon(LSHAPE)
    assert sc.camera_visibility(P, H(2, 0, 4)) == sc.polygon_region(P)
    assert sc.camera_visibility(P, H(0, 0, 4)) == sc.from_rects(
        [(0, 4, 0, 2), (0, 2, 2, 4)]
    )
    # a short track sees only what lies across its own span
    assert sc.camera_visibility(P, H(0, 3, 4)) == sc.from_rects([(3, 4, 0, 2)])


def test_track_sees_itself():
    P = sc.validate_polygon(LSHAPE)
    for cam in tracks_of(P):
        assert sc.camera_guards_camera(P, cam, cam)


def test_track_must_lie_inside():
    P = sc.validate_polygon(LSHAPE)
    with pytest.raises(sc.SegmentNotInside):
        sc.camera_visibility(P, H(3, 0, 4))
    with pytest.raises(sc.SegmentNotInside):
        sc.camera_visibility(P, H(2, 0, 5))


def test_covers_polygon_and_visible_union():
    P = sc.validate_polygon(LSHAPE)
    assert sc.covers_polygon(P, [H(2, 0, 4)])
    # the bottom edge also covers the whole L: its sweeps run up both legs
    assert sc.covers_polygon(P, [H(0, 0, 4)])
    assert not sc.covers_polygon(P, [H(3, 0, 2)])
    assert sc.covers_polygon(P, [H(3, 0, 2), H(0, 2, 4)])
    u = sc.visible_union(P, [H(3, 0, 2), H(0, 2, 4)])
    both = sc.region_union(
        sc.camera_visibility(P, H(3, 0, 2)), sc.camera_visibility(P, H(0, 2, 4))
    )
    assert u == both


def test_dominates_on_lshape():
    P = sc.validate_polygon(LSHAPE)
    assert sc.dominates(P, H(2, 0, 4), H(3, 0, 2))
    assert not sc.dominates(P, H(3, 0, 2), H(2, 0, 4))
    # equal visible sets dominate both ways
    assert sc.dominates(P, H(2, 0, 4), V(2, 0, 4))
    assert sc.dominates(P, V(2, 0, 4), H(2, 0, 4))


def test_guards_brute_equivalence():
    for name, verts in NAMED.items():
        P = sc.validate_polygon(verts)
        pverts = [(p.x, p.y) for p in P.vertices]
        cams = tracks_of(P)
        for a in cams:
            for b in cams:
                got = sc.camera_guards_camera(P, a, b)
                assert got == brute.guards(pverts, a, b), (name, str(a), str(b))


def test_perpendicular_guarding_needs_crossing_both_ways():
    # crossing perpendicular tracks watch each other
    P = sc.validate_polygon(LSHAPE)
    assert sc.camera_guards_camera(P, H(2, 0, 4), V(2, 0, 4))
    assert sc.camera_guards_camera(P, V(2, 0, 4), H(2, 0, 4))
    # one-directional guarding without intersection: the long horizontal
    # watches the short vertical across the leg, never the reverse
    a, b = H(0, 0, 4), V(3, 1, 2)
    assert not a.intersects(b)
    assert sc.camera_guards_camera(P, a, b)
    assert not sc.camera_guards_camera(P, b, a)


def test_parallel_guarding_requires_span_and_clearance():
    P = sc.validate_polygon(LSHAPE)
    assert sc.camera_guards_camera(P, H(0, 0, 4), H(1, 0, 4))
    assert sc.camera_guards_camera(P, H(0, 0, 4), H(2, 0, 4))
    # span containment fails
    assert not sc.camera_guards_camera(P, H(1, 3, 4), H(0, 0, 4))
    P2 = sc.validate_polygon(EAR)
    # same spans but the strip between them leaves the polygon
    assert not sc.camera_guards_camera(P2, V(1, 1, 3), V(3, 1, 3))


def test_random_pairs_match_brute():
    rng = random.Random(11)
    checked = 0
    seed = 0
    while checked < 25:
        seed += 1
        P = sc.generate_polygon(seed, corpus_target(seed))
        x0, y0, x1, y1 = P.bbox()
        if x1 > 8 or y1 > 8:
            continue
        for _ in range(2):
            p = sc.Point(rng.randint(x0, x1), rng.randint(y0, y1))
            if sc.contains_point(P, p) == sc.OUTSIDE:
                continue
            cam = sc.max_chord(P, p, rng.choice([sc.HORIZONTAL, sc.VERTICAL]))
            check_against_brute(P, cam)
            checked += 1


def test_parallel_guarding_equals_domination_on_reflex_chords():
    # the fact the grid prune rests on: between distinct maximal chords of
    # one orientation, guarding the track is seeing everything it sees
    for seed in range(1, 81):
        P = sc.generate_polygon(seed, corpus_target(seed))
        chords = sc.reflex_chords(P)
        for d in chords:
            for c in chords:
                if d != c and d.orientation == c.orientation:
                    got = sc.camera_guards_camera(P, d, c)
                    assert got == sc.dominates(P, d, c), (seed, str(d), str(c))


def strip_guards(P, guard, target):
    """Region-algebra reference for parallel tracks: the strip between
    them, over the target's span, lies inside P."""
    if guard.is_vertical:
        P, guard, target = P.transposed(), guard.transposed(), target.transposed()
    if target.lo < guard.lo or target.hi > guard.hi:
        return False
    if target.anchor == guard.anchor:
        return True
    y0, y1 = sorted((guard.anchor, target.anchor))
    strip = sc.from_rects([(target.lo, target.hi, y0, y1)])
    return sc.region_contains(sc.polygon_region(P), strip)


def boundary_edges(P):
    for a, b in P.edges():
        yield H(a.y, a.x, b.x) if a.y == b.y else V(a.x, a.y, b.y)


def test_parallel_guarding_matches_strip_containment():
    # ordered same-orientation pairs of reflex chords and boundary edges
    outcomes = {True: 0, False: 0}
    for seed in range(1, 201):
        P = sc.generate_polygon(seed, corpus_target(seed))
        tracks = sorted(set(sc.reflex_chords(P)) | set(boundary_edges(P)))
        for d in tracks:
            for c in tracks:
                if d.orientation != c.orientation:
                    continue
                want = strip_guards(P, d, c)
                assert sc.camera_guards_camera(P, d, c) == want, (seed, str(d), str(c))
                if d.anchor != c.anchor and d.lo <= c.lo and c.hi <= d.hi:
                    outcomes[want] += 1
    # the strip test itself decided many pairs each way
    assert min(outcomes.values()) > 1000, outcomes


def test_parallel_guarding_of_a_track_leaving_the_polygon():
    # no vertical chord of the L meets y = 3 over 2 < x < 4
    P = sc.validate_polygon(LSHAPE)
    assert not sc.camera_guards_camera(P, H(0, 0, 4), H(3, 0, 4))
    assert not sc.camera_guards_camera(P, V(0, 0, 4), V(3, 0, 4))


def outcome(f, *args):
    """f's result, or the class of the error it raised."""
    try:
        return f(*args)
    except (ValueError, sc.SegmentNotInside) as e:
        return type(e)


def region_guards(P, s, r):
    return sc.region_contains(sc.camera_visibility(P, s), r)


def test_guards_entirely_matches_region_containment_on_pipeline_pieces(monkeypatch):
    # every grid track against every leftover piece the pipeline examines,
    # the non-staircase pieces of discarded optima included
    from slidecam import critical

    pieces = []

    def recorded(r):
        pieces.append(r)
        return sc.is_staircase(r)

    monkeypatch.setattr(critical, "is_staircase", recorded)
    cases = [(seed, corpus_target(seed)) for seed in range(1, 201)]
    cases += [(119, 240), (386, 240)]
    seen = set()
    for seed, n in cases:
        P = sc.generate_polygon(seed, n)
        pieces.clear()
        run = sc.run_pipeline(P)
        for r in set(pieces):
            for s in run.grid.segments:
                want = region_guards(P, s, r)
                assert sc.guards_entirely(P, s, r) == want, (seed, str(s), r.rects)
                seen.add(want)
    assert seen == {True, False}


def test_guards_entirely_matches_region_containment_on_random_input():
    rng = random.Random(5)
    seen = set()
    for seed in range(1, 61):
        P = sc.generate_polygon(seed, corpus_target(seed))
        x0, y0, x1, y1 = P.bbox()
        chords = sc.reflex_chords(P)
        tracks = chords + list(boundary_edges(P))
        for c in chords:
            a, b = rng.randint(c.lo, c.hi), rng.randint(c.lo, c.hi)
            tracks.append(sc.OrthoSegment(c.orientation, c.anchor, min(a, b), max(a, b)))
            tracks.append(sc.OrthoSegment(c.orientation, c.anchor, c.lo, c.hi + 1))
        for _ in range(4):
            o = rng.choice([sc.HORIZONTAL, sc.VERTICAL])
            lo, hi = (x0, x1) if o == sc.HORIZONTAL else (y0, y1)
            a, b = rng.randint(lo, hi), rng.randint(lo, hi)
            anchor = rng.randint(y0, y1) if o == sc.HORIZONTAL else rng.randint(x0, x1)
            tracks.append(sc.OrthoSegment(o, anchor, min(a, b), max(a, b)))
        cells = sc.polygon_region(P).rects
        regions = []
        for _ in range(12):
            rects = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    # part of the polygon, often touching its boundary
                    u0, u1, v0, v1 = rng.choice(cells)
                    a, b = sorted(rng.sample(range(u0, u1 + 1), 2))
                    c, d = sorted(rng.sample(range(v0, v1 + 1), 2))
                else:
                    a, b = sorted(rng.sample(range(x0 - 1, x1 + 2), 2))
                    c, d = sorted(rng.sample(range(y0 - 1, y1 + 2), 2))
                rects.append((a, b, c, d))
            regions.append(sc.from_rects(rects))
        for s in tracks:
            for r in regions:
                want = outcome(region_guards, P, s, r)
                got = outcome(sc.guards_entirely, P, s, r)
                assert got == want, (seed, str(s), r.rects)
                seen.add(want)
    assert seen == {True, False, ValueError, sc.SegmentNotInside}
