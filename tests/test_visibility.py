"""Camera visibility against direct evaluation of the defining rule.

The reference implementation in brute.py samples the doubled integer
lattice, so agreement is checked two ways: exact equality at unit-cell
centers (which determines the region, since every feature has integer
coordinates) and one-sided soundness at every lattice point including
region edges, where the library's closed regions must never claim a point
the rule denies.
"""

import random
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest

import brute
import slidecam as sc
from slidecam.visibility import _slab_chords
from conftest import EAR, LSHAPE, NAMED, corpus_target, notched_square

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical
DATA = Path(__file__).parent / "data"


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
    both = sc.region_union_all(
        [sc.camera_visibility(P, H(3, 0, 2)), sc.camera_visibility(P, H(0, 2, 4))]
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


def test_a_guarded_solve_caches_no_polygon_on_p(monkeypatch, capsys):
    # Both axes are read off P's own column and row tables, so a solve
    # caches no second polygon on P, and with it no cycle between the two.
    # Nor does it cache anything reshaped from those tables: each key is a
    # table the solve reads more than once.
    keys = {"chord_table", "columns", "reflex", "rows", "slab_chords"}
    texts = {seed: sc.format_polygon(sc.generate_polygon(seed, 240)) for seed in range(1, 11)}
    texts.update((path.name, path.read_text()) for path in sorted(DATA.glob("*.poly")))
    for name, text in texts.items():
        P = sc.parse_polygon(text)
        sc.guarded_camera_cover(P)
        assert not any(isinstance(v, sc.OrthoPolygon) for v in P._cache.values()), name
        assert set(P._cache) == keys, name
    # verify adds the oracles' candidates, within their caps and past them
    import slidecam.cli

    loaded = []

    def parse(text):
        loaded.append(sc.parse_polygon(text))
        return loaded[-1]

    monkeypatch.setattr(slidecam.cli, "parse_polygon", parse)
    for name in ("nonstaircase_36.poly", "generated_1_3000.poly"):
        assert slidecam.cli.main(["verify", str(DATA / name)]) == 0
        assert set(loaded[-1]._cache) == keys | {"oracle_candidates"}, name
    capsys.readouterr()


def outcome(f, *args):
    """f's result, or the class of the error it raised."""
    try:
        return f(*args)
    except (ValueError, sc.SegmentNotInside) as e:
        return type(e)


def region_guards(P, s, r):
    return sc.region_contains(sc.camera_visibility(P, s), r)


def test_guards_entirely_matches_region_containment_on_pipeline_pieces():
    # every grid track against every leftover piece the pipeline patches;
    # seeds 119 and 386 at 240 vertices leave non-staircase pieces
    cases = [(seed, corpus_target(seed)) for seed in range(1, 201)]
    cases += [(119, 240), (386, 240)]
    seen = set()
    for seed, n in cases:
        P = sc.generate_polygon(seed, n)
        run = sc.run_pipeline(P)
        for r in run.regions:
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


def reference_slab_chords(P, s):
    """_slab_chords by one chord_scaled point query per slab midpoint."""
    Q, t = (P.transposed(), s.transposed()) if s.is_vertical else (P, s)
    xs = sorted({v.x for v in Q.vertices})
    cuts = [t.lo, *xs[bisect_right(xs, t.lo) : bisect_left(xs, t.hi)], t.hi]
    slabs = list(zip(cuts, cuts[1:]))
    ivs = [Q.chord_scaled(a + b, 2 * t.anchor, sc.VERTICAL) for a, b in slabs]
    return None if None in ivs else [ab + iv for ab, iv in zip(slabs, ivs)]


def reference_visibility(P, s):
    """camera_visibility through the general from_rects."""
    chords = reference_slab_chords(P, s)
    out = sc.from_rects((x0, x1, lo // 2, hi // 2) for x0, x1, lo, hi in chords)
    return out.transposed() if s.is_vertical else out


def probe_tracks(P, rng):
    """Reflex chords, boundary edges, and random tracks: degenerate ones,
    pieces of chords, and ones reaching past P's first or last x or y."""
    x0, y0, x1, y1 = P.bbox()
    chords = sc.reflex_chords(P)
    tracks = chords + list(boundary_edges(P))
    for c in chords:
        a, b = sorted(rng.randint(c.lo, c.hi) for _ in range(2))
        tracks.append(sc.OrthoSegment(c.orientation, c.anchor, a, b))
        tracks.append(sc.OrthoSegment(c.orientation, c.anchor, a, a))
    for o in (sc.HORIZONTAL, sc.VERTICAL):
        lo, hi = (x0, x1) if o == sc.HORIZONTAL else (y0, y1)
        across = (y0, y1) if o == sc.HORIZONTAL else (x0, x1)
        for _ in range(6):
            anchor = rng.randint(across[0], across[1])
            a, b = sorted(rng.randint(lo - 2, hi + 2) for _ in range(2))
            tracks.append(sc.OrthoSegment(o, anchor, a, b))
            tracks.append(sc.OrthoSegment(o, anchor, a, a))
            tracks.append(sc.OrthoSegment(o, anchor, lo - 1, rng.randint(lo, hi)))
            tracks.append(sc.OrthoSegment(o, anchor, rng.randint(lo, hi), hi + 1))
        for anchor in across:
            tracks.append(sc.OrthoSegment(o, anchor, lo, hi))
            tracks.append(sc.OrthoSegment(o, anchor, lo, lo))
    return tracks


def test_slab_chords_match_per_slab_point_queries(corpus):
    rng = random.Random(11)
    polygons = [P for _seed, P in corpus[:300]]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 6)]
    found = {True: 0, False: 0}
    for P in polygons:
        for s in probe_tracks(P, rng):
            want = reference_slab_chords(P, s)
            assert _slab_chords(P, s) == want, (P, str(s))
            found[want is None] += 1
            if want is not None and not s.is_degenerate:
                assert sc.camera_visibility(P, s) == reference_visibility(P, s), (P, str(s))
    # both outcomes occur many times
    assert min(found.values()) > 1000, found


def test_a_solve_caches_exactly_the_slab_chords_it_read(corpus):
    # _slab_chords is the cache's one writer and fills it on first use, and
    # only the coverage and guarding checks read camera tracks' chords: the
    # grid prune and the patch read clearances off P's tables. So after a
    # guarded solve on a fresh parse the cache holds the cameras and nothing
    # else, and every entry is what a fresh polygon's point queries give.
    texts = [sc.format_polygon(P) for _seed, P in corpus]
    texts += [
        sc.format_polygon(sc.generate_polygon(seed, corpus_target(seed)))
        for seed in range(501, 1001)
    ]
    texts += [sc.format_polygon(sc.generate_polygon(seed, 240)) for seed in range(1, 41)]
    texts.append((Path(__file__).parent / "data" / "generated_2_1600.poly").read_text())
    # One piece is left, and all 4k + 2 grid tracks pass its span filter.
    texts += [sc.format_polygon(notched_square(k)) for k in (25, 100)]
    tracks = entries = 0
    for text in texts:
        P = sc.parse_polygon(text)
        found = sc.pipeline.watched_cover(P, sc.pipeline.checked_cover(sc.run_pipeline(P)))
        cache = P._cache["slab_chords"]
        assert cache.keys() == set(found.cameras), text
        fresh = sc.parse_polygon(text)
        for s, chords in cache.items():
            assert chords == reference_slab_chords(fresh, s), (text, str(s))
            tracks += 1
            entries += len(chords or ())
    assert tracks > 3000 and entries > 24000, (tracks, entries)


def reference_uncovered(P, cameras):
    """The unseen part of P through visible sets and general region algebra."""
    seen = sc.region_union_all(sc.camera_visibility(P, s) for s in cameras)
    return sc.region_difference(sc.polygon_region(P), seen)


def check_uncovered(P, cameras):
    # A fresh copy of P, so that neither side reads the other's caches.
    fresh = sc.validate_polygon([(v.x, v.y) for v in P.vertices])
    got = sc.uncovered_region(fresh, cameras)
    want = reference_uncovered(P, cameras)
    assert got == want, (P, [str(s) for s in cameras])
    assert sc.covers_polygon(fresh, cameras) == want.is_empty
    return want


def camera_sets(run, rng):
    """Cover tracks, all cameras, and random subsets of the grid tracks."""
    grid = list(run.grid.segments)
    yield run.cover_segments
    yield sc.merged_cameras(run)[0]
    for _ in range(3):
        yield rng.sample(grid, rng.randint(0, len(grid)))


def test_uncovered_region_matches_visible_sets_on_corpus(corpus_runs_1000):
    rng = random.Random(17)
    runs = [run for _seed, _P, run in corpus_runs_1000]
    runs += [sc.run_pipeline(sc.generate_polygon(seed, 240)) for seed in range(1, 11)]
    found = {True: 0, False: 0}
    for run in runs:
        for cameras in camera_sets(run, rng):
            found[check_uncovered(run.polygon, cameras).is_empty] += 1
    assert min(found.values()) > 500, found


def test_uncovered_region_honours_track_ends_inside_columns():
    # Scaled by three, P has no vertex x or y off the multiples of three, so
    # every track end off them falls inside a column of P or its transpose.
    rng = random.Random(19)
    cases = [(seed, corpus_target(seed)) for seed in range(1, 61)] + [(2, 240)]
    inside = {sc.HORIZONTAL: 0, sc.VERTICAL: 0}
    for seed, n in cases:
        base = sc.generate_polygon(seed, n)
        P = sc.validate_polygon([(3 * v.x, 3 * v.y) for v in base.vertices])
        tracks = sc.reflex_chords(P) + list(boundary_edges(P))
        for _ in range(4):
            cameras = []
            for c in rng.sample(tracks, rng.randint(1, len(tracks))):
                a, b = sorted(rng.sample(range(c.lo, c.hi + 1), 2))
                cameras.append(sc.OrthoSegment(c.orientation, c.anchor, a, b))
                inside[c.orientation] += a % 3 != 0 or b % 3 != 0
            check_uncovered(P, cameras)
    assert min(inside.values()) > 500, inside


def test_uncovered_region_on_all_images():
    from conftest import images

    rng = random.Random(23)
    bases = [sc.validate_polygon(EAR), sc.generate_polygon(416, corpus_target(416))]
    bases += [sc.generate_polygon(seed, 240) for seed in (1, 2)]
    for base in bases:
        for P in images(base):
            run = sc.run_pipeline(P)
            for cameras in camera_sets(run, rng):
                check_uncovered(P, cameras)


def test_uncovered_region_whole_and_partial_hits():
    # LSHAPE scaled by three: its columns (0, 6) and (6, 12) hold one
    # interval each, [0, 12] and [0, 6], and it is its own transpose, so
    # each horizontal case turned vertical works on its rows the same way.
    P = sc.validate_polygon([(3 * x, 3 * y) for x, y in LSHAPE])
    whole, part = H(3, 0, 12), H(4, 1, 4)
    cases = {
        "listed twice": [whole, whole],
        "partial listed twice": [part, part],
        "whole then partial": [whole, part],
        "partial then whole": [part, whole],
        "spans touching end to end": [H(3, 1, 3), H(9, 3, 5)],
        "span ending on a column boundary": [H(3, 2, 6)],
        "span starting on a column boundary": [H(3, 6, 9)],
        "whole alone": [whole],
        "partial alone": [part],
    }
    for horizontal in cases.values():
        vertical = [s.transposed() for s in horizontal]
        # Alone, the other side leaves the whole polygon unseen, so these
        # are empty exactly when `whole` or its transpose sees all of P:
        # the horizontal side's and then the vertical side's early return.
        assert check_uncovered(P, horizontal).is_empty == (whole in horizontal)
        assert check_uncovered(P, vertical).is_empty == (whole in horizontal)
        for other in cases.values():
            check_uncovered(P, horizontal + [s.transposed() for s in other])


def test_uncovered_region_of_no_cameras_is_the_polygon():
    for verts in NAMED.values():
        P = sc.validate_polygon(verts)
        assert sc.uncovered_region(P, []) == sc.polygon_region(P)
        assert not sc.covers_polygon(P, [])


def test_uncovered_region_raises_for_the_first_bad_track():
    P = sc.validate_polygon(LSHAPE)
    good, outside, flat = H(2, 0, 4), V(3, 0, 4), H(1, 2, 2)
    cases = [
        ([flat], ValueError, "positive length"),
        ([outside], sc.SegmentNotInside, "V 3 0 4"),
        ([good, V(0, 0, 5), outside], sc.SegmentNotInside, "V 0 0 5"),
        ([good, outside, flat], sc.SegmentNotInside, "V 3 0 4"),
        ([good, flat, outside], ValueError, "positive length"),
        ([V(1, 3, 3), H(3, 0, 4)], ValueError, "positive length"),
        ([H(3, 0, 4), V(1, 3, 3)], sc.SegmentNotInside, "H 3 0 4"),
    ]
    for cameras, error, message in cases:
        for f in (sc.uncovered_region, sc.covers_polygon, reference_uncovered):
            with pytest.raises(error, match=message):
                f(P, cameras)
