"""Polygon validation, point classification and maximal chords."""

import random

import pytest

import brute
import slidecam as sc
from conftest import EAR, LSHAPE, NAMED, PLUS, RECT, STAIR2, corpus_target


def test_validate_accepts_named_shapes():
    for name, verts in NAMED.items():
        P = sc.validate_polygon(verts)
        assert P.n == len(verts), name


def test_validate_rejects_too_few_vertices():
    with pytest.raises(sc.NotClosed):
        sc.validate_polygon([(0, 0), (1, 0), (1, 1)])


def test_validate_rejects_diagonal_edge():
    with pytest.raises(sc.NonOrthogonalEdge):
        sc.validate_polygon([(0, 0), (2, 0), (2, 2), (1, 1)])


def test_validate_rejects_zero_length_edge():
    with pytest.raises(sc.NotClosed):
        sc.validate_polygon([(0, 0), (2, 0), (2, 0), (2, 2), (0, 2)])


def test_validate_rejects_self_touching_boundary():
    # bowtie of two squares pinched at (1, 1)
    verts = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1)]
    with pytest.raises(sc.SelfIntersecting):
        sc.validate_polygon(verts)


def test_validate_rejects_crossing_boundary():
    verts = [(0, 0), (3, 0), (3, 2), (1, 2), (1, 3), (2, 3), (2, 1), (0, 1)]
    with pytest.raises(sc.SelfIntersecting):
        sc.validate_polygon(verts)


def test_validate_normalizes_collinear_vertices():
    verts = [(0, 0), (2, 0), (4, 0), (4, 3), (0, 3)]
    P = sc.validate_polygon(verts)
    assert P.n == 4
    with pytest.raises(sc.CollinearRedundantVertex):
        sc.validate_polygon(verts, collinear="reject")


def test_validate_accepts_clockwise_input():
    P = sc.validate_polygon(list(reversed(RECT)))
    Q = sc.validate_polygon(RECT)
    assert P.n == 4
    assert {(a, b) for a, b in P.edges()} == {(a, b) for a, b in Q.edges()}


def test_reflex_vertices_on_named_shapes():
    assert sc.reflex_vertices(sc.validate_polygon(RECT)) == []
    assert [(p.x, p.y) for p in sc.reflex_vertices(sc.validate_polygon(LSHAPE))] == [
        (2, 2)
    ]
    assert len(sc.reflex_vertices(sc.validate_polygon(PLUS))) == 4
    assert len(sc.reflex_vertices(sc.validate_polygon(STAIR2))) == 2
    assert len(sc.reflex_vertices(sc.validate_polygon(EAR))) == 7


def test_convex_minus_reflex_is_four():
    for seed in range(1, 60):
        P = sc.generate_polygon(seed, corpus_target(seed))
        assert P.n - 2 * len(sc.reflex_vertices(P)) == 4


def test_contains_point_matches_ray_casting():
    rng = random.Random(7)
    for seed in range(1, 40):
        P = sc.generate_polygon(seed, corpus_target(seed))
        verts = [(p.x, p.y) for p in P.vertices]
        x0, y0, x1, y1 = P.bbox()
        for _ in range(60):
            x2 = rng.randint(2 * x0 - 2, 2 * x1 + 2)
            y2 = rng.randint(2 * y0 - 2, 2 * y1 + 2)
            want = brute.classify(verts, x2, y2)
            if x2 % 2 == 0 and y2 % 2 == 0:
                got = sc.contains_point(P, sc.Point(x2 // 2, y2 // 2))
                assert got == want, (seed, x2, y2)
            else:
                inside = P.chord_scaled(x2, y2, sc.VERTICAL) is not None
                assert inside == (want != brute.OUTSIDE)


def test_contains_point_labels():
    P = sc.validate_polygon(LSHAPE)
    assert sc.contains_point(P, sc.Point(1, 1)) == sc.INTERIOR
    assert sc.contains_point(P, sc.Point(2, 2)) == sc.BOUNDARY
    assert sc.contains_point(P, sc.Point(0, 0)) == sc.BOUNDARY
    assert sc.contains_point(P, sc.Point(3, 3)) == sc.OUTSIDE


def test_max_chord_on_lshape():
    P = sc.validate_polygon(LSHAPE)
    assert str(sc.max_chord(P, sc.Point(2, 2), sc.HORIZONTAL)) == "H 2 0 4"
    assert str(sc.max_chord(P, sc.Point(2, 2), sc.VERTICAL)) == "V 2 0 4"
    assert str(sc.max_chord(P, sc.Point(1, 3), sc.HORIZONTAL)) == "H 3 0 2"


def test_max_chord_requires_inside_point():
    P = sc.validate_polygon(LSHAPE)
    with pytest.raises(sc.PointOutside):
        sc.max_chord(P, sc.Point(3, 3), sc.HORIZONTAL)


def reference_max_chord(P, p, orientation):
    """max_chord as it was: classify p with the edge scan first."""
    if sc.contains_point(P, p) == sc.OUTSIDE:
        raise sc.PointOutside(f"{p} is outside the polygon")
    lo, hi = P.chord_scaled(2 * p.x, 2 * p.y, orientation)
    if orientation == sc.HORIZONTAL:
        return sc.OrthoSegment.horizontal(p.y, lo // 2, hi // 2)
    return sc.OrthoSegment.vertical(p.x, lo // 2, hi // 2)


def test_max_chord_matches_edge_scan_reference():
    rng = random.Random(11)
    polygons = [sc.generate_polygon(s, corpus_target(s)) for s in range(1, 31)]
    polygons += [sc.generate_polygon(s, 120) for s in (1, 2)]
    kinds = set()
    for P in polygons:
        x0, y0, x1, y1 = P.bbox()
        points = list(P.vertices) + [
            sc.Point(rng.randint(x0 - 1, x1 + 1), rng.randint(y0 - 1, y1 + 1))
            for _ in range(150)
        ]
        for p in points:
            kinds.add(sc.contains_point(P, p))
            for orientation in (sc.HORIZONTAL, sc.VERTICAL):
                try:
                    want = reference_max_chord(P, p, orientation)
                except sc.PointOutside:
                    with pytest.raises(sc.PointOutside):
                        sc.max_chord(P, p, orientation)
                    continue
                assert sc.max_chord(P, p, orientation) == want, (p, orientation)
    assert kinds == {sc.INTERIOR, sc.BOUNDARY, sc.OUTSIDE}


def reference_columns(P):
    """_columns by rescanning every horizontal edge for each column."""
    XS = [2 * x for x in P.vertex_xs()]
    hedges = [
        (2 * a.y, 2 * min(a.x, b.x), 2 * max(a.x, b.x)) for a, b in P.edges() if a.y == b.y
    ]
    gaps = []
    for i in range(len(XS) - 1):
        X = XS[i] + 1
        ys = sorted(Y for Y, A, B in hedges if A < X < B)
        gaps.append(tuple((ys[k], ys[k + 1]) for k in range(0, len(ys), 2)))
    events = []
    for i in range(len(XS)):
        left = gaps[i - 1] if i > 0 else ()
        right = gaps[i] if i < len(gaps) else ()
        events.append(sc.geom._merge_closed(list(left) + list(right)))
    return XS, gaps, events


def test_columns_match_rescan_reference(corpus):
    polygons = [P for _seed, P in corpus]
    polygons += [sc.generate_polygon(s, 240) for s in (1, 2)]
    polygons += [sc.validate_polygon(v) for v in NAMED.values()]
    for P in polygons:
        for Q in (P, P.transposed()):
            assert Q._columns() == reference_columns(Q), Q


def test_segment_basics():
    h = sc.OrthoSegment.horizontal(2, 0, 4)
    v = sc.OrthoSegment.vertical(3, 1, 5)
    assert h.orientation == sc.HORIZONTAL and v.orientation == sc.VERTICAL
    assert str(h) == "H 2 0 4" and str(v) == "V 3 1 5"
    assert h.length == 4 and v.length == 4
    assert h.intersects(v) and v.intersects(h)
    assert h.contains(sc.Point(3, 2)) and not h.contains(sc.Point(3, 3))
    assert h.transposed() == sc.OrthoSegment.vertical(2, 0, 4)
    assert not h.intersects(sc.OrthoSegment.horizontal(3, 0, 4))
    # closed endpoints: touching counts
    assert h.intersects(sc.OrthoSegment.vertical(4, 2, 9))


def test_segment_span_normalization():
    assert sc.OrthoSegment.horizontal(0, 5, 1) == sc.OrthoSegment.horizontal(0, 1, 5)
    with pytest.raises(ValueError):
        sc.OrthoSegment(sc.HORIZONTAL, 0, 5, 1)
    with pytest.raises(ValueError):
        sc.OrthoSegment("D", 0, 0, 1)


def test_transposed_polygon_swaps_chords():
    P = sc.validate_polygon(EAR)
    T = P.transposed()
    chords = {str(c.transposed()) for c in sc.reflex_chords(P)}
    assert chords == {str(c) for c in sc.reflex_chords(T)}
