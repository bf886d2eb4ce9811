"""End-to-end guard placement on the hand-checked shapes."""

import gc
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import slidecam as sc
from slidecam import cli
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
    xmonotone_polygon,
)

H = sc.OrthoSegment.horizontal
V = sc.OrthoSegment.vertical


def test_rectangle_needs_one_camera():
    P = sc.validate_polygon(RECT)
    run = sc.run_pipeline(P)
    assert run.chosen == ()
    assert run.cover_segments == (V(0, 0, 3),)
    assert run.regions == () and run.patch_segments == ()
    gs = sc.camera_cover(P)
    assert gs.cameras == (V(0, 0, 3),)
    assert gs.provenance == (sc.FROM_S,)


def test_lshape_run():
    P = sc.validate_polygon(LSHAPE)
    run = sc.run_pipeline(P)
    assert [str(s) for s in run.grid.segments] == ["H 2 0 4", "V 2 0 4"]
    assert run.chosen == (0, 1)
    assert run.regions == ()
    gs = sc.camera_cover(P)
    assert [str(c) for c in gs.cameras] == ["H 2 0 4", "V 2 0 4"]


def test_plus_run():
    P = sc.validate_polygon(PLUS)
    gs = sc.camera_cover(P)
    assert [str(c) for c in gs.cameras] == ["H 1 0 3", "V 1 0 3"]


def test_stair_run():
    P = sc.validate_polygon(STAIR2)
    run = sc.run_pipeline(P)
    assert [str(s) for s in run.cover_segments] == ["H 2 0 6", "V 4 0 6"]
    assert run.regions == ()


def test_ear_run_patches_the_leftover():
    P = sc.validate_polygon(EAR)
    run = sc.run_pipeline(P)
    assert [str(s) for s in run.grid.segments] == [
        "H 2 0 5",
        "H 3 0 6",
        "V 1 1 3",
        "V 3 0 5",
    ]
    assert run.graph.edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert run.chosen == (0, 2)
    assert [r.rects for r in run.regions] == [((4, 6, 3, 4),)]
    assert [str(s) for s in run.patch_segments] == ["H 3 0 6"]
    gs = sc.camera_cover(P)
    assert [str(c) for c in gs.cameras] == ["H 2 0 5", "H 3 0 6", "V 1 1 3"]
    assert gs.provenance == (sc.FROM_S, sc.FROM_SC, sc.FROM_S)
    assert sc.covers_polygon(P, gs.cameras)


def test_patch_looks_the_edge_cover_up_when_it_runs(monkeypatch):
    # the benchmark's tracer wraps slidecam.matching.min_edge_cover after
    # import, so the pipeline must reach it through the module attribute
    from slidecam import matching

    calls = []
    real = matching.min_edge_cover

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matching, "min_edge_cover", counted)
    run = sc.run_pipeline(sc.validate_polygon(EAR))
    assert len(calls) == 1
    assert [str(s) for s in run.patch_segments] == ["H 3 0 6"]


def test_run_stats():
    P = sc.validate_polygon(EAR)
    run = sc.run_pipeline(P)
    s = run.stats
    assert s.vertex_count == 18 and s.reflex_count == 7
    assert s.chord_count == 8 and s.grid_size == 4 and s.edge_count == 4
    assert s.cover_size == 2 and s.critical_count == 1 and s.patch_size == 1
    assert set(s.phase_seconds) == {"chords", "prune", "graph", "cover", "patch"}
    assert all(t >= 0 for t in s.phase_seconds.values())


def test_guarded_rectangle_doubles_the_track():
    P = sc.validate_polygon(RECT)
    gs = sc.guarded_camera_cover(P)
    assert gs.cameras == (V(0, 0, 3), V(0, 0, 3))


def test_guarded_lshape_pair_watches_itself():
    P = sc.validate_polygon(LSHAPE)
    gs = sc.guarded_camera_cover(P)
    assert [str(c) for c in gs.cameras] == ["H 2 0 4", "V 2 0 4"]


def test_guarded_every_camera_watched_on_sample():
    for seed in range(1, 80):
        P = sc.generate_polygon(seed, corpus_target(seed))
        gs = sc.guarded_camera_cover(P)
        cams = list(gs.cameras)
        assert sc.covers_polygon(P, cams)
        for i, c in enumerate(cams):
            others = cams[:i] + cams[i + 1 :]
            assert any(
                sc.camera_guards_camera(P, o, c) for o in others
            ), (seed, str(c))


@pytest.mark.parametrize(
    "build, size", [(staircase_polygon, 150), (notched_square, 20)], ids=["staircase", "notched"]
)
def test_both_covers_of_the_adversarial_families(build, size):
    # 302 and 324 vertices. Each solve builds its polygon afresh, so the
    # second one rebuilds every table cached on it.
    def output(found):
        return found.cameras, found.provenance, replace(found.stats, phase_seconds=None)

    solves = [
        [output(solve(build(size))) for solve in (sc.camera_cover, sc.guarded_camera_cover)]
        for _ in range(2)
    ]
    assert solves[0] == solves[1]
    P = build(size)
    for cams, _provenance, _stats in solves[0]:
        assert sc.covers_polygon(P, cams)
    guarded = solves[0][1][0]
    for i, c in enumerate(guarded):
        others = guarded[:i] + guarded[i + 1 :]
        assert any(sc.camera_guards_camera(P, o, c) for o in others), str(c)


def test_cover_on_sample():
    for seed in range(1, 80):
        P = sc.generate_polygon(seed, corpus_target(seed))
        gs = sc.camera_cover(P)
        assert sc.covers_polygon(P, gs.cameras), seed
        assert len(gs.cameras) == len(set(gs.cameras))


def test_comb_is_polynomial_even_when_oracles_are_not():
    P = comb_polygon(22)
    run = sc.run_pipeline(P)
    assert len(run.grid.segments) == 23
    assert sc.covers_polygon(P, sc.camera_cover(P).cameras)
    with pytest.raises(sc.TooLarge):
        sc.opt_cameras(P)


def test_merged_cameras_prefers_cover_provenance():
    P = sc.validate_polygon(EAR)
    run = sc.run_pipeline(P)
    cams, prov = sc.merged_cameras(run)
    assert list(cams) == sorted(cams)
    d = dict(zip(cams, prov))
    assert d[H(2, 0, 5)] == sc.FROM_S
    assert d[H(3, 0, 6)] == sc.FROM_SC


@pytest.mark.parametrize(
    "seed, piece",
    [
        (119, ((9, 11, 4, 6), (11, 12, 1, 7))),
        (386, ((20, 21, 5, 6), (21, 22, 4, 6), (22, 24, 5, 6))),
    ],
)
def test_pipeline_patches_the_non_staircase_piece_of_the_first_optimum(seed, piece):
    # The lexicographically smallest optimal grid cover of these 240-vertex
    # polygons leaves a piece that is not a staircase; run_pipeline keeps
    # that optimum and patches the piece with a track that sees it whole.
    P = sc.generate_polygon(seed, 240)
    run = sc.run_pipeline(P)
    assert run.chosen == sc.minimum_guarded_cover(run.graph)
    assert piece in [r.rects for r in run.regions]
    assert not sc.is_staircase(sc.from_rects(piece))
    assert sc.covers_polygon(P, sc.camera_cover(P).cameras)


def unpruned_first_optimum_regions(P):
    """Leftover pieces of the first optimum of the grid of all reflex
    chords, with no domination prune."""
    chords = sc.reflex_chords(P)
    first = sc.minimum_guarded_cover(sc.intersection_graph(chords))
    return sc.critical_regions(P, [chords[i] for i in first])


def test_unpruned_grid_first_optimum_leaves_only_staircases(corpus):
    # On the unpruned grid the first optimum leaves only staircase pieces,
    # which points at the same-orientation prune, not the cover, as what
    # lets non-staircase pieces through on the pruned grid.
    for seed in (119, 386):
        regions = unpruned_first_optimum_regions(sc.generate_polygon(seed, 240))
        assert all(sc.is_staircase(r) for r in regions)
    polygons = [P for _seed, P in corpus]
    polygons += [sc.generate_polygon(seed, corpus_target(seed)) for seed in range(501, 1001)]
    swept = 0
    for P in polygons:
        if sc.reflex_vertices(P):
            assert all(sc.is_staircase(r) for r in unpruned_first_optimum_regions(P))
            swept += 1
    assert swept == 947


DATA = Path(__file__).parent / "data"
# camera_cover's camera count on the fixtures below
FIXTURE_CAMERAS = {
    "generated_2_1600.poly": 125,
    "generated_1_3000.poly": 201,
    "nonstaircase_36.poly": 5,
    "generated_676_124.poly": 11,
}


@pytest.mark.parametrize("name", ["generated_2_1600.poly", "generated_1_3000.poly"])
def test_camera_cover_covers_the_large_walk_failures(name):
    # None of the first 5,000 optima of the pruned grid leaves only
    # staircase pieces here; the first optimum and its patch cover P.
    P = sc.parse_polygon((DATA / name).read_text())
    found = sc.camera_cover(P)
    assert sc.covers_polygon(P, found.cameras)
    assert len(found.cameras) == FIXTURE_CAMERAS[name]
    assert sc.guarded_camera_cover(P).cameras == found.cameras


def test_both_covers_of_a_thousand_track_serpentine():
    # The grid optimum is rebuilt one pick at a time; 1,000 picks must not
    # meet Python's recursion limit.
    P = sc.parse_polygon((DATA / "serpentine_4000.poly").read_text())
    assert P.vertices == serpentine_polygon(1000).vertices
    for found in (sc.camera_cover(P), sc.guarded_camera_cover(P)):
        assert len(found.cameras) == 1000
        assert sc.covers_polygon(P, found.cameras)


# Counts watched_cover's guarding checks in a fresh interpreter.
COUNT_GUARD_CHECKS = """
import sys
from pathlib import Path

import slidecam as sc
from slidecam import pipeline

calls = 0
guards = pipeline.camera_guards_camera


def counted(*args):
    global calls
    calls += 1
    return guards(*args)


pipeline.camera_guards_camera = counted
sc.guarded_camera_cover(sc.parse_polygon(Path(sys.argv[1]).read_text()))
print(calls)
"""


def test_guarding_checks_do_not_depend_on_string_hashing():
    # Work counts are compared between runs, so the order watched_cover
    # tries its cover tracks in must not come from hashing, which is
    # seeded per process for strings.
    src = str(Path(sc.__file__).resolve().parents[1])
    counts = []
    for hashseed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", COUNT_GUARD_CHECKS, str(DATA / "generated_2_1600.poly")],
            env=env, capture_output=True, text=True, check=True,
        )
        counts.append(int(done.stdout))
    assert counts[0] == counts[1] > 0, counts


# (file, opt_cameras, opt_guarded_cameras). The 124-vertex polygon's optima
# come from the oracles with cap=27, which take about 18 s there for the
# guarded one; test_oracles_on_the_non_staircase_fixture checks the other.
NON_STAIRCASE = [("nonstaircase_36.poly", 4, 5), ("generated_676_124.poly", 8, 10)]


@pytest.mark.parametrize("guarded", [False, True])
@pytest.mark.parametrize("name, opt, opt_guarded", NON_STAIRCASE)
def test_covers_within_the_bounds_where_no_optimum_is_staircase_clean(
    name, opt, opt_guarded, guarded
):
    # Every optimum of the pruned grid leaves a piece that is not a
    # staircase, which the paper's ratio argument does not cover; the
    # bounds hold all the same.
    P = sc.parse_polygon((DATA / name).read_text())
    if guarded:
        cameras, bound = sc.guarded_camera_cover(P).cameras, 2.5 * opt_guarded
    else:
        cameras, bound = sc.camera_cover(P).cameras, 3.5 * opt
    assert sc.covers_polygon(P, cameras)
    assert len(cameras) <= bound
    assert len(cameras) == FIXTURE_CAMERAS[name]


def test_oracles_on_the_non_staircase_fixture():
    P = sc.parse_polygon((DATA / "nonstaircase_36.poly").read_text())
    assert sc.opt_cameras(P)[0] == 4
    assert sc.opt_guarded_cameras(P)[0] == 5


def test_xmonotone_covers_within_the_bounds():
    # x-monotone polygons in a 6x6 box (at most 24 vertices): a family on
    # which camera_cover meets the optimum far less often than on the
    # corpus, so the bounds are checked against the oracles on each.
    for seed in range(1, 201):
        P = xmonotone_polygon(seed, 6, 6)
        run = sc.run_pipeline(P)
        assert sc.is_simple_grid(run.grid, P) and sc.is_connected(run.graph), seed
        cover = sc.camera_cover(P)
        guarded = sc.guarded_camera_cover(P)
        assert sc.camera_cover(P).cameras == cover.cameras, seed
        assert sc.guarded_camera_cover(P).cameras == guarded.cameras, seed
        assert 2 * len(cover.cameras) <= 7 * sc.opt_cameras(P)[0], seed
        assert 2 * len(guarded.cameras) <= 5 * sc.opt_guarded_cameras(P)[0], seed


def test_grid_and_cover_sizes_agree_on_all_eight_images(corpus):
    # Transposing or mirroring P changes no guarantee, so the pruned grid
    # and the grid cover keep their sizes. Total cameras and the number of
    # leftover pieces may differ between images by tie-breaking.
    for seed, P in corpus:
        sizes = set()
        for Q in images(P):
            run = sc.run_pipeline(Q)
            sizes.add((len(run.grid), len(run.chosen)))
        assert len(sizes) == 1, (seed, sizes)


# (seed, vertices, cameras): generator inputs where no optimum of the
# pruned grid leaves only staircase pieces, and (878, 74), the smallest
# input found whose first optimum leaves a non-staircase piece.
NON_STAIRCASE_SCAN = [
    (676, 124, 11),
    (397, 140, 10),
    (397, 142, 10),
    (100, 168, 16),
    (100, 172, 16),
    (100, 176, 16),
    (878, 74, 5),
]


@pytest.mark.parametrize("seed, n, cameras", NON_STAIRCASE_SCAN)
def test_first_optimum_solves_the_non_staircase_scan_inputs(seed, n, cameras):
    P = sc.generate_polygon(seed, n)
    run = sc.run_pipeline(P)
    assert run.chosen == sc.minimum_guarded_cover(run.graph)
    assert not all(sc.is_staircase(r) for r in run.regions)
    found = sc.camera_cover(P)
    assert len(found.cameras) == cameras
    assert sc.guarded_camera_cover(P).cameras == found.cameras


# sha256 of camera_cover's cameras and provenance on generate_polygon seeds
# 1-4 at each benchmark ladder size, as cover_digest writes them.
LADDER_DIGESTS = {
    160: "3975607c506afff91403068012d8092c29c9c70f36bb496645e0fcb274c834a6",
    240: "dc1100dbfebc179647a14f2c181d3c8a03552bf12340e06192941039307f7226",
    320: "16ddfb4ac2883e25dec5a88cdd981897da521e7acedfb4c4c5d560ddce33fc4c",
    400: "bb674fe8ff99ead25aa10dcbf1eae36150f967d0da4f71544c27af2feab9a880",
}


def cover_digest(n):
    h = hashlib.sha256()
    for seed in range(1, 5):
        found = sc.camera_cover(sc.generate_polygon(seed, n))
        for cam, origin in zip(found.cameras, found.provenance):
            h.update(f"{seed} {cam} {origin}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(LADDER_DIGESTS))
def test_ladder_covers_are_pinned(n):
    # The exact-camera tests above use small shapes; these pin the output
    # where the benchmark runs.
    assert cover_digest(n) == LADDER_DIGESTS[n]


def _solve_file(path):
    P = sc.parse_polygon(Path(path).read_text())
    sc.camera_cover(P)
    sc.guarded_camera_cover(P)
    return 0


SOLVES = {
    "api": _solve_file,
    "verify": lambda path: cli.main(["verify", path]),
    "solve-report": lambda path: cli.main(["solve", path, "--report"]),
}


@pytest.mark.parametrize("solve", sorted(SOLVES))
@pytest.mark.parametrize("seed, n", [(1, 240), (5, 40), (3, 20)])
def test_a_solve_leaves_no_cyclic_garbage(solve, seed, n, tmp_path):
    # Everything a solve builds should be freed by reference counting, so
    # that the cyclic collector has nothing to find afterwards.
    path = tmp_path / "p.poly"
    path.write_text(sc.format_polygon(sc.generate_polygon(seed, n)))
    assert SOLVES[solve](str(path)) == 0
    gc.collect()
    gc.disable()
    try:
        assert SOLVES[solve](str(path)) == 0
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
