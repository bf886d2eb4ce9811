"""Reflex chords, the domination prune and the intersection graph."""

import random
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest

import slidecam as sc
from slidecam import grid
from slidecam.grid import _chord_table
from slidecam.visibility import _clearance
from conftest import (
    EAR,
    LSHAPE,
    PLUS,
    RECT,
    STAIR2,
    comb_polygon,
    corpus_target,
    images,
    notched_square,
    serpentine_polygon,
    staircase_polygon,
)

DATA = Path(__file__).parent / "data"

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical


def test_reflex_chords_named():
    assert sc.reflex_chords(sc.validate_polygon(RECT)) == []
    assert [str(c) for c in sc.reflex_chords(sc.validate_polygon(LSHAPE))] == [
        "H 2 0 4",
        "V 2 0 4",
    ]
    assert [str(c) for c in sc.reflex_chords(sc.validate_polygon(EAR))] == [
        "H 1 3 5",
        "H 2 0 5",
        "H 3 0 6",
        "H 4 2 6",
        "V 1 1 3",
        "V 2 2 5",
        "V 3 0 5",
        "V 4 0 4",
    ]


def test_chord_origins():
    P = sc.validate_polygon(STAIR2)
    origins = max_chord_origins(P)
    assert origins[H(2, 0, 6)] == (sc.Point(2, 2),)
    assert origins[V(4, 0, 6)] == (sc.Point(4, 4),)
    # A chord's reflex vertices are the reflex vertices lying on it, in
    # point order: what demos/walkthrough.py prints for each grid track.
    polygons = [P] + [sc.generate_polygon(seed, corpus_target(seed)) for seed in range(1, 101)]
    for P in polygons:
        reflex = sc.reflex_vertices(P)
        for chord, vs in max_chord_origins(P).items():
            assert vs == tuple(sorted(v for v in reflex if chord.contains(v))), (P, str(chord))


def test_prune_keeps_perpendicular_twins():
    # equal visible sets across orientations are never pruned against
    # each other; dropping one would leave a single-track grid
    P = sc.validate_polygon(LSHAPE)
    g = sc.prune_dominated(P, sc.reflex_chords(P))
    assert [str(s) for s in g.segments] == ["H 2 0 4", "V 2 0 4"]
    assert sc.dominates(P, g.segments[0], g.segments[1])


def test_prune_drops_same_orientation_dominated():
    P = sc.validate_polygon(STAIR2)
    g = sc.prune_dominated(P, sc.reflex_chords(P))
    assert [str(s) for s in g.segments] == ["H 2 0 6", "V 4 0 6"]
    # the dropped chords really were dominated within their orientation
    assert sc.dominates(P, H(2, 0, 6), H(4, 2, 6))
    assert sc.dominates(P, V(4, 0, 6), V(2, 0, 4))


def test_prune_on_ear():
    P = sc.validate_polygon(EAR)
    g = sc.prune_dominated(P, sc.reflex_chords(P))
    assert [str(s) for s in g.segments] == ["H 2 0 5", "H 3 0 6", "V 1 1 3", "V 3 0 5"]


def test_prune_preserves_visible_union():
    for seed in range(1, 80):
        P = sc.generate_polygon(seed, corpus_target(seed))
        chords = sc.reflex_chords(P)
        g = sc.prune_dominated(P, chords)
        assert sc.visible_union(P, g.segments) == sc.visible_union(P, chords)


def test_survivors_form_antichain_per_orientation():
    for seed in range(1, 80):
        P = sc.generate_polygon(seed, corpus_target(seed))
        g = sc.prune_dominated(P, sc.reflex_chords(P))
        for a in g.segments:
            for b in g.segments:
                if a is not b and a.orientation == b.orientation:
                    assert not sc.dominates(P, a, b), (seed, str(a), str(b))


def test_grid_origins_cover_all_reflex_vertices():
    # every grid track is the maximal chord of each reflex vertex on it
    for seed in range(1, 40):
        P = sc.generate_polygon(seed, corpus_target(seed))
        reflex = sc.reflex_vertices(P)
        g = sc.prune_dominated(P, sc.reflex_chords(P))
        for s in g.segments:
            vs = [v for v in reflex if s.contains(v)]
            assert vs, (seed, str(s))
            for v in vs:
                assert sc.max_chord(P, v, s.orientation) == s


def test_intersection_graph_plus():
    P = sc.validate_polygon(PLUS)
    g = sc.prune_dominated(P, sc.reflex_chords(P))
    assert [str(s) for s in g.segments] == ["H 1 0 3", "V 1 0 3"]
    assert sc.intersection_graph(g).edges == ((0, 1),)


def test_intersection_graph_closed_touching():
    tracks = [H(0, 0, 4), V(0, 0, 3), V(4, 0, 3), H(3, 5, 9)]
    graph = sc.intersection_graph(tracks)
    assert graph.n == 4
    assert graph.edges == ((0, 1), (0, 2))
    masks = graph.neighbor_masks()
    assert masks == [0b0110, 0b0001, 0b0001, 0b0000]


def test_is_simple_grid():
    P = sc.validate_polygon(LSHAPE)
    assert sc.is_simple_grid(sc.prune_dominated(P, sc.reflex_chords(P)), P)
    # a track stopping mid-polygon is not a maximal chord
    assert not sc.is_simple_grid([H(1, 0, 3)], P)


def test_is_connected():
    assert sc.is_connected([])
    assert sc.is_connected([H(0, 0, 1)])
    assert sc.is_connected([H(0, 0, 4), V(2, 0, 3)])
    assert not sc.is_connected([V(0, 0, 3), V(2, 0, 3)])
    assert not sc.is_connected(sc.IntersectionGraph(3, ((0, 1),)))


def test_grid_simple_and_connected_on_sample():
    for seed in range(1, 80):
        P = sc.generate_polygon(seed, corpus_target(seed))
        g = sc.prune_dominated(P, sc.reflex_chords(P))
        assert sc.is_simple_grid(g, P), seed
        assert sc.is_connected(g), seed


def containment_prune(P, chords):
    """The prune by region containment: equal visible sets of one
    orientation keep the smallest chord, and a chord goes when a chord of
    its orientation sees strictly more."""
    rep = {}
    for c in sorted(set(chords)):
        rep.setdefault((c.orientation, sc.camera_visibility(P, c).rects), c)
    reps = sorted(rep.values())
    kept = [
        c
        for c in reps
        if not any(
            d != c and d.orientation == c.orientation and sc.dominates(P, d, c)
            for d in reps
        )
    ]
    return sc.Grid(tuple(kept))


def test_prune_matches_region_containment():
    cases = [(seed, corpus_target(seed)) for seed in range(1, 81)]
    cases += [(seed, n) for n in (160, 240) for seed in (1, 2, 3)]
    for seed, n in cases:
        P = sc.generate_polygon(seed, n)
        chords = sc.reflex_chords(P)
        assert sc.prune_dominated(P, chords) == containment_prune(P, chords), (seed, n)


def all_pairs_graph(segments):
    """intersection_graph by testing every pair of segments."""
    edges = [
        (i, j)
        for i in range(len(segments))
        for j in range(i + 1, len(segments))
        if segments[i].intersects(segments[j])
    ]
    return sc.IntersectionGraph(len(segments), tuple(edges))


def random_raw_segments(rng):
    """An unsorted raw list on a few lines, so collinear segments touch,
    overlap, nest and repeat."""
    out = []
    for _ in range(rng.randint(0, 14)):
        o = rng.choice([sc.HORIZONTAL, sc.VERTICAL])
        a, b = sorted(rng.randint(0, 8) for _ in range(2))
        out.append(sc.OrthoSegment(o, rng.randint(0, 4), a, b))
    if out:
        out.append(rng.choice(out))
    rng.shuffle(out)
    return out


def test_intersection_graph_matches_all_pairs(corpus):
    """A Grid's graph comes from one crossing pass, a raw list's from the
    touching-pairs sweep; both must equal the all-pairs graph, on pruned
    grids, on the unpruned reflex chords and on those shuffled."""
    rng = random.Random(13)
    polygons = [P for _seed, P in corpus[:300]]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 11)]
    for F in (comb_polygon(12), serpentine_polygon(12), staircase_polygon(16), notched_square(6)):
        polygons += list(images(F))
    for P in polygons:
        chords = sc.reflex_chords(P)
        grid = sc.prune_dominated(P, sc.reflex_chords(P))
        unpruned = sc.Grid(tuple(chords))
        shuffled = rng.sample(chords, len(chords))
        for g, segments in (
            (grid, grid.segments),
            (unpruned, chords),
            (chords, chords),
            (shuffled, shuffled),
        ):
            assert sc.intersection_graph(g) == all_pairs_graph(segments), P
    collinear = 0
    for _ in range(3000):
        segments = random_raw_segments(rng)
        want = all_pairs_graph(segments)
        assert sc.intersection_graph(segments) == want, [str(s) for s in segments]
        collinear += sum(segments[i].orientation == segments[j].orientation for i, j in want.edges)
    assert collinear > 1000


def clearance_dict_prune(P, chords):
    """prune_dominated keyed by segment: one clearance dict, and rivals
    compared as segments."""
    chords = sorted(set(chords))
    clearance = {c: _clearance(P, c) for c in chords}

    def guards(d, c):
        lo, hi = clearance[c]
        return d.lo <= c.lo and c.hi <= d.hi and lo <= 2 * d.anchor <= hi

    kept = []
    for orientation in (sc.HORIZONTAL, sc.VERTICAL):
        group = [c for c in chords if c.orientation == orientation]
        anchors = [c.anchor for c in group]
        for c in group:
            lo, hi = clearance[c]
            rivals = group[bisect_left(anchors, (lo + 1) // 2) : bisect_right(anchors, hi // 2)]
            if not any(
                d != c and guards(d, c) and (d < c or not guards(c, d)) for d in rivals
            ):
                kept.append(c)
    return sc.Grid(tuple(kept))


def test_prune_matches_clearance_dict_reference(corpus):
    polygons = [P for _seed, P in corpus[:300]]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 11)]
    dropped = 0
    for P in polygons:
        chords = sc.reflex_chords(P)
        got = sc.prune_dominated(P, chords)
        assert got == clearance_dict_prune(P, chords), P
        dropped += len(set(chords)) - len(got)
    assert dropped > 1000


def max_chord_origins(P):
    """Each maximal chord's reflex vertices, sorted, by one max_chord point
    query per reflex vertex and orientation."""
    acc = {}
    for v in sc.reflex_vertices(P):
        for o in (sc.HORIZONTAL, sc.VERTICAL):
            acc.setdefault(sc.max_chord(P, v, o), []).append(v)
    return {c: tuple(sorted(vs)) for c, vs in acc.items()}


def test_chord_table_matches_max_chord_and_clearance(corpus):
    polygons = [P for _seed, P in corpus]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 11)]
    polygons += [sc.generate_polygon(seed, 400) for seed in range(1, 5)]
    polygons += list(images(sc.generate_polygon(1, 240)))
    # The clearance climbs run longest here: a staircase chord climbs past
    # every step below it, a comb's base chord under every tooth.
    for P in (comb_polygon(30), serpentine_polygon(30), staircase_polygon(40), notched_square(10)):
        polygons += list(images(P))
    polygons += [sc.parse_polygon(path.read_text()) for path in sorted(DATA.glob("*.poly"))]
    shared = 0
    for P in polygons:
        want = max_chord_origins(P)
        assert sc.reflex_chords(P) == sorted(want), P
        shared += sum(len(vs) > 1 for vs in want.values())
        for segments, clearances in _chord_table(P):
            for s, clearance in zip(segments, clearances):
                assert clearance == _clearance(P, s), (P, str(s))
    assert shared > 100


@pytest.mark.parametrize(
    "name, P",
    [
        ("notched_square_1604.poly", notched_square(100)),
        ("staircase_2002.poly", staircase_polygon(1000)),
    ],
)
def test_family_fixtures_are_their_builders_output(name, P):
    text = (DATA / name).read_text()
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    assert body == sc.format_polygon(P)


def test_chord_table_work_is_linear_on_the_notched_square(monkeypatch):
    # Each clearance climbs from the chord's line until a section fails to
    # hold its span. On the notched square every climb stops near the line,
    # so the interval reads grow with n: 912 -> 3,612 for k = 25 -> 100,
    # 3.96x against n's 3.97x. Reading every slab of every chord's span
    # grew them with n^2: 16,287 -> 245,112, 15.05x.
    reads = 0
    real = grid._interval_at

    def counted(*args):
        nonlocal reads
        reads += 1
        return real(*args)

    monkeypatch.setattr(grid, "_interval_at", counted)
    counts = []
    for k in (25, 100):
        P = notched_square(k)
        reads = 0
        _chord_table(P)
        counts.append(reads)
    assert counts[1] / counts[0] <= 4.5, counts


def test_prune_rejects_chords_not_through_reflex_vertices():
    P = sc.validate_polygon(LSHAPE)
    edge = sc.max_chord(P, sc.Point(0, 0), sc.HORIZONTAL)
    with pytest.raises(ValueError):
        sc.prune_dominated(P, [*sc.reflex_chords(P), edge])
    assert sc.prune_dominated(P, sc.reflex_chords(P)[:1]).segments == (H(2, 0, 4),)


def test_prune_reads_any_listing_of_the_reflex_chords_alike():
    """reflex_chords' own list skips the lookup of each chord; a tuple, a
    reordering with repeats and equal copies take the lookup and must
    prune the same, and a list of the same length with one chord that is
    not a reflex chord must still raise."""
    for P in [sc.generate_polygon(seed, 240) for seed in (1, 2)] + [notched_square(6)]:
        chords = sc.reflex_chords(P)
        want = sc.prune_dominated(P, chords)
        copies = [sc.OrthoSegment(c.orientation, c.anchor, c.lo, c.hi) for c in chords]
        for listing in (tuple(chords), chords[::-1] + chords[:3], copies):
            assert sc.prune_dominated(P, listing) == want
        lowest = min(P.vertices, key=lambda v: (v.y, v.x))
        edge = sc.max_chord(P, lowest, sc.HORIZONTAL)
        with pytest.raises(ValueError):
            sc.prune_dominated(P, [edge, *chords[1:]])
