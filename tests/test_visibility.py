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
