"""Release gate: every guarantee the library makes, swept in one file.

Run with output on to read the verdict line by line:

    python3 -m pytest -s -v tests/test_acceptance.py

Each criterion prints exactly one PASS/FAIL line (FAIL lines also surface
in the captured output of the failing test). The corpus is the 500
generated polygons shared through conftest; brute-force optima are computed
once per module and reused. Nothing here trusts solver internals: bounds
are checked against the enumeration oracles, visibility against the
independent sampling reference in brute.py.
"""

import random
import time

import pytest

import brute
import slidecam as sc
from conftest import CORPUS_SIZE, corpus_target


def report(num, name, violations, detail=""):
    ok = not violations
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num:02d} {name}: {violations[:5]}"


@pytest.fixture(scope="module")
def optima(corpus_runs):
    """(cover, guarded, grid) optimum per seed, computed once for the sweep."""
    out = {}
    for seed, P, run in corpus_runs:
        out[seed] = (
            sc.opt_cameras(P)[0],
            sc.opt_guarded_cameras(P)[0],
            sc.opt_grid_cover(run.graph)[0],
        )
    return out


def test_01_feasibility():
    # fresh generate/solve/check loop so the timing covers the whole path
    t0 = time.perf_counter()
    bad = []
    for seed in range(1, CORPUS_SIZE + 1):
        P = sc.generate_polygon(seed, corpus_target(seed))
        got = sc.camera_cover(P)
        if not sc.covers_polygon(P, got.cameras):
            bad.append(seed)
    elapsed = time.perf_counter() - t0
    if elapsed > 60.0:
        bad.append(f"took {elapsed:.1f}s, budget 60s")
    report(1, "every corpus cover is feasible", bad,
           f"{CORPUS_SIZE} polygons in {elapsed:.1f}s")


def test_02_cover_ratio(corpus_runs, optima):
    bad = []
    checked = 0
    for seed, P, run in corpus_runs:
        if run.stats.grid_size > 22:
            continue
        checked += 1
        cameras, _prov = sc.merged_cameras(run)
        # len <= floor(3.5 * opt), kept in integers
        if 2 * len(cameras) > 7 * optima[seed][0]:
            bad.append((seed, len(cameras), optima[seed][0]))
    report(2, "cover within 7/2 of optimum", bad, f"{checked} instances")


def test_03_guarded_ratio(corpus, optima):
    bad = []
    checked = 0
    for seed, P in corpus:
        got = sc.guarded_camera_cover(P)
        if got.stats.grid_size > 22:
            continue
        checked += 1
        if 2 * len(got.cameras) > 5 * optima[seed][1]:
            bad.append((seed, len(got.cameras), optima[seed][1]))
    report(3, "guarded cover within 5/2 of optimum", bad, f"{checked} instances")


def test_04_patch_ratio(corpus_runs):
    bad = []
    checked = 0
    for seed, P, run in corpus_runs:
        if not run.regions:
            continue
        checked += 1
        opt, _witness = sc.opt_region_cover(P, run.regions)
        if 2 * len(run.patch_segments) > 3 * opt:
            bad.append((seed, len(run.patch_segments), opt))
    if checked == 0:
        bad.append("no instance with a leftover region")
    report(4, "patch within 3/2 of optimum", bad,
           f"{checked} instances with leftovers")


def test_05_grid_simple_connected(corpus_runs):
    bad = [
        seed
        for seed, P, run in corpus_runs
        if not (sc.is_simple_grid(run.grid, P) and sc.is_connected(run.grid))
    ]
    report(5, "pruned grids simple and connected", bad,
           f"{len(corpus_runs)} instances")


def test_06_staircase_residue(corpus_runs):
    bad = []
    for seed, P, run in corpus_runs:
        components = sc.critical_regions(P, run.cover_segments)
        if not all(sc.is_staircase(c) for c in components):
            bad.append((seed, "shape"))
    report(6, "every leftover component is a staircase", bad,
           f"{len(corpus_runs)} instances")


def test_07_two_regions_per_track(corpus_runs):
    bad = []
    checked = 0
    for seed, P, run in corpus_runs:
        if not run.regions:
            continue
        checked += 1
        for c in run.grid.segments:
            whole = sum(1 for r in run.regions if sc.guards_entirely(P, c, r))
            if whole >= 3:
                bad.append((seed, str(c), whole))
    report(7, "no track guards three regions entirely", bad,
           f"{checked} instances with leftovers")


def test_08_optimum_chain(corpus_runs, optima):
    bad = []
    for seed, P, run in corpus_runs:
        cover_opt, guarded_opt, grid_opt = optima[seed]
        if not grid_opt <= guarded_opt <= 2 * cover_opt:
            bad.append((seed, grid_opt, guarded_opt, cover_opt))
    report(8, "grid opt <= guarded opt <= 2x cover opt", bad,
           f"{len(corpus_runs)} instances")


def test_09_exact_solvers_vs_enumeration():
    bad = []
    rng = random.Random(97)
    for trial in range(200):
        n = rng.randint(0, 18)
        edges = brute.random_graph(rng, n, rng.uniform(0.05, 0.6))
        g = sc.IntersectionGraph(n, tuple(sorted(edges)))
        value, _witness = sc.opt_grid_cover(g)
        got = sc.minimum_guarded_cover(g)
        if len(got) != value or not sc.is_guarded_cover(g, got):
            bad.append(("grid cover", trial, n))
    rng = random.Random(101)
    for trial in range(200):
        n = rng.randint(1, 12)
        edges = brute.random_graph(rng, n, rng.uniform(0.15, 0.9))
        covered = {v for e in edges for v in e}
        loops = tuple(v for v in range(n) if v not in covered)
        got = sc.min_edge_cover(n, edges, loops=loops)
        want = brute.edge_cover_size(n, edges, loops)
        matching = brute.matching_size(n, edges)
        gallai = len(got) - len(loops) == len(covered) - matching
        if len(got) != want or not gallai:
            bad.append(("edge cover", trial, n))
    report(9, "exact solvers match enumeration", bad, "200 graphs each")


def test_10_residue_fixture(ear):
    # the ear shape was built so the smallest grid cover leaves a dark pocket
    run = sc.run_pipeline(ear)
    value, _witness = sc.opt_grid_cover(run.graph)
    bad = []
    if len(run.chosen) != value:
        bad.append("grid cover is not optimal")
    if not run.regions:
        bad.append("no leftover region")
    cameras, _prov = sc.merged_cameras(run)
    if not sc.covers_polygon(ear, cameras):
        bad.append("patched cover misses the polygon")
    detail = f"leftover {[r.rects for r in run.regions]}, patch {len(run.patch_segments)}"
    report(10, "fixture leaves a region after an optimal grid cover", bad, detail)


def test_11_visibility_vs_sampling():
    rng = random.Random(7)
    bad = []
    pairs = 0
    seed = 0
    while pairs < 100:
        seed += 1
        P = sc.generate_polygon(seed, 4 + 2 * (seed % 7))
        x0, y0, x1, y1 = P.bbox()
        if x1 > 8 or y1 > 8:
            continue
        verts = [(p.x, p.y) for p in P.vertices]
        p = sc.Point(rng.randint(x0, x1), rng.randint(y0, y1))
        if sc.contains_point(P, p) == sc.OUTSIDE:
            continue
        cam = sc.max_chord(P, p, rng.choice([sc.HORIZONTAL, sc.VERTICAL]))
        if rng.random() < 0.5 and cam.hi - cam.lo >= 2:
            # sub-spans exercise the sweep clipping, not just full chords
            lo = rng.randint(cam.lo, cam.hi - 1)
            hi = rng.randint(lo + 1, cam.hi)
            cam = sc.OrthoSegment(cam.orientation, cam.anchor, lo, hi)
        pairs += 1
        vis = sc.camera_visibility(P, cam)
        for i in range(x0, x1):
            for j in range(y0, y1):
                want = brute.sees(verts, cam, 2 * i + 1, 2 * j + 1)
                got = vis.contains_point_scaled(2 * i + 1, 2 * j + 1)
                if got != want:
                    bad.append((seed, str(cam), i, j))
    report(11, "visibility equals the sampled rule", bad, f"{pairs} pairs")
