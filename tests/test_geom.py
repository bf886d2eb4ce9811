"""Polygon validation, point classification and maximal chords."""

import random
from collections import Counter

import pytest

import brute
import slidecam as sc
from conftest import (
    EAR, LSHAPE, NAMED, PLUS, RECT, STAIR2, comb_polygon, corpus_target, images
)


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


def reference_merge(pts, collinear):
    """validate_polygon's straight-run merge as it was: rescan after each drop."""
    pts = list(pts)
    changed = True
    while changed:
        changed = False
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            d1 = (b.x - a.x, b.y - a.y)
            d2 = (c.x - b.x, c.y - b.y)
            if (d1[0] == 0) == (d2[0] == 0):
                if d1[0] * d2[0] < 0 or d1[1] * d2[1] < 0:
                    raise sc.SelfIntersecting(f"boundary doubles back at {b}")
                if collinear == "reject":
                    raise sc.CollinearRedundantVertex(f"redundant vertex {b}")
                del pts[i]
                changed = True
                break
        if len(pts) < 4:
            raise sc.NotClosed("polygon degenerates after removing redundant vertices")
    return pts


def outcome(fn, *args):
    try:
        return fn(*args).vertices
    except sc.PolygonError as e:
        return type(e), str(e)


def with_inserted_runs(rng, verts):
    """verts scaled by 4 and rotated, with straight vertices and reversals
    put inside some edges; every edge stays axis-parallel and non-empty."""
    pts = [(4 * x, 4 * y) for x, y in verts]
    k = rng.randrange(len(pts))
    pts = pts[k:] + pts[:k]
    if rng.random() < 0.5:
        pts.reverse()
    out = []
    for i, (ax, ay) in enumerate(pts):
        bx, by = pts[(i + 1) % len(pts)]
        out.append((ax, ay))
        ts = sorted(rng.sample(range(1, 4), rng.choice((0, 0, 1, 2))))
        if ts and rng.random() < 0.2:
            ts.reverse()  # steps back along the edge: a reversal
        out += [(ax + (bx - ax) * t // 4, ay + (by - ay) * t // 4) for t in ts]
    return out


def test_one_pass_merge_matches_rescan_reference():
    rng = random.Random(5)
    inputs = [[(1, 0), (2, 0), (1, 0), (0, 0)]]
    for _ in range(300):
        inputs.append(with_inserted_runs(rng, rng.choice(list(NAMED.values()))))
    for _ in range(300):
        # runs along one line: reversals and degenerate polygons
        xs = [rng.randrange(6)]
        while len(xs) < rng.randrange(4, 9):
            xs.append(rng.choice([x for x in range(6) if x != xs[-1]]))
        inputs.append([(x, 0) for x in xs] if rng.random() < 0.5 else [(0, x) for x in xs])
    kinds = set()
    for verts in inputs:
        pts = [sc.Point(x, y) for x, y in verts]
        if pts[0] == pts[-1]:
            continue
        for collinear in ("normalize", "reject"):
            want = outcome(
                lambda: sc.validate_polygon(reference_merge(pts, collinear), collinear)
            )
            assert outcome(sc.validate_polygon, verts, collinear) == want, verts
            kinds.add(want[0] if isinstance(want[0], type) else "ok")
    assert outcome(sc.validate_polygon, inputs[0])[0] is sc.NotClosed
    assert kinds == {
        "ok", sc.SelfIntersecting, sc.NotClosed, sc.CollinearRedundantVertex
    }


def test_validate_accepts_clockwise_input():
    P = sc.validate_polygon(list(reversed(RECT)))
    Q = sc.validate_polygon(RECT)
    assert P.n == 4
    assert {(a, b) for a, b in P.edges()} == {(a, b) for a, b in Q.edges()}


def all_pairs_validate(vertices):
    """validate_polygon as it was before the touching-segment sweep: the
    same checks in the same order, with every pair of edges tested."""
    pts = [sc.Point(x, y) for x, y in vertices]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 4:
        raise sc.NotClosed("a rectilinear polygon needs at least 4 vertices")
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        if a == b:
            raise sc.NotClosed(f"zero-length edge at {a}")
        if a.x != b.x and a.y != b.y:
            raise sc.NonOrthogonalEdge(f"edge {a} -> {b} is not axis-parallel")
    n = len(pts)
    kept = []
    for i, b in enumerate(pts):
        a, c = pts[i - 1], pts[(i + 1) % n]
        if (b.x == a.x) != (c.x == b.x):
            kept.append(b)
            continue
        if (b.x - a.x) * (c.x - b.x) < 0 or (b.y - a.y) * (c.y - b.y) < 0:
            raise sc.SelfIntersecting(f"boundary doubles back at {b}")
        if len(kept) + n - 1 - i < 4:
            raise sc.NotClosed("polygon degenerates after removing redundant vertices")
    pts = kept
    if len(set(pts)) != len(pts):
        raise sc.SelfIntersecting("repeated vertex")
    n = len(pts)
    segs = []
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a.y == b.y:
            segs.append(sc.OrthoSegment.horizontal(a.y, a.x, b.x))
        else:
            segs.append(sc.OrthoSegment.vertical(a.x, a.y, b.y))
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if segs[i].intersects(segs[j]):
                raise sc.SelfIntersecting(
                    f"edges {pts[i]}->{pts[(i + 1) % n]} and "
                    f"{pts[j]}->{pts[(j + 1) % n]} touch"
                )
    area2 = 0
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        area2 += a.x * b.y - b.x * a.y
    if area2 == 0:
        raise sc.SelfIntersecting("polygon has zero area")
    if area2 < 0:
        pts = [pts[0]] + pts[1:][::-1]
    return sc.OrthoPolygon(pts)


def lattice_walk(rng):
    """A closed orthogonal walk on the 5x5 lattice through 2-8 corners.

    Half are L-paths between random corners, which give zero-length
    edges, straight runs and reversals; the other half alternate
    horizontal and vertical steps, which give every edge non-zero length
    and no straight run, so most of them reach the edge-pair test.
    """
    k = rng.randrange(2, 9)
    if rng.random() < 0.5:
        corners = [(rng.randrange(5), rng.randrange(5)) for _ in range(k)]
        out = []
        for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
            out += [(ax, ay), (bx, ay) if rng.random() < 0.5 else (ax, by)]
        return out

    def cycle():
        # k values on 0..4, each unlike the next, cyclically
        while True:
            vs = [rng.randrange(5)]
            while len(vs) < k:
                vs.append(rng.choice([v for v in range(5) if v != vs[-1]]))
            if vs[0] != vs[-1]:
                return vs

    xs, ys = cycle(), cycle()
    return [p for m in range(k) for p in ((xs[m], ys[m]), (xs[(m + 1) % k], ys[m]))]


def bent_comb(teeth):
    """comb_polygon(teeth) scaled by two, with a hook on the left side of
    its middle tooth that reaches over the gap onto its neighbour's side."""
    pts = [(2 * v.x, 2 * v.y) for v in comb_polygon(teeth).vertices]
    x = 4 * (teeth // 2)
    k = pts.index((x, 6))
    assert pts[k + 1] == (x, 2)
    return pts[: k + 1] + [(x, 4), (x - 2, 4), (x - 2, 3), (x, 3)] + pts[k + 1 :]


def test_sweep_validation_matches_all_pairs_reference(corpus):
    rng = random.Random(17)
    inputs = [lattice_walk(rng) for _ in range(20000)]
    inputs += [[(v.x, v.y) for v in P.vertices] for _seed, P in corpus]
    inputs += [[(v.x, v.y) for v in Q.vertices] for Q in images(sc.generate_polygon(1, 240))]
    inputs += [[(v.x, v.y) for v in comb_polygon(500).vertices], bent_comb(500)]
    kinds = Counter()
    for verts in inputs:
        want = outcome(all_pairs_validate, verts)
        assert outcome(sc.validate_polygon, verts) == want, verts
        if isinstance(want[0], sc.Point):
            kinds["ok"] += 1
        else:
            kinds[want[0].__name__, want[1].split()[0]] += 1
    assert want[0] is sc.SelfIntersecting and want[1].endswith("touch")
    # every check is reached many times; "edges" is the edge-pair test
    assert kinds["ok"] > 2000
    assert kinds["SelfIntersecting", "edges"] > 1000
    assert kinds["SelfIntersecting", "repeated"] > 1000
    assert kinds["SelfIntersecting", "boundary"] > 1000
    assert kinds["NotClosed", "zero-length"] > 1000


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
