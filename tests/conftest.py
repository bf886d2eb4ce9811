"""Shared fixtures: a handful of hand-checked polygons plus the generated
corpus the acceptance suite sweeps.

The named shapes are small enough that every expectation in the tests was
derived on paper: chord lists, pruned grids, covers, leftovers, optima.
EAR is the one shape here whose smallest grid cover leaves part of the
polygon dark (the 2x1 ear on the upper right), which is what the patching
stage exists for.
"""

import random
from itertools import product

import pytest

import slidecam as sc
from slidecam.generator import _trace

RECT = [(0, 0), (4, 0), (4, 3), (0, 3)]

LSHAPE = [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]

PLUS = [
    (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2),
    (2, 3), (1, 3), (1, 2), (0, 2), (0, 1), (1, 1),
]

STAIR2 = [(0, 0), (6, 0), (6, 6), (4, 6), (4, 4), (2, 4), (2, 2), (0, 2)]

EAR = [
    (0, 1), (1, 1), (1, 2), (3, 2), (3, 0), (4, 0),
    (4, 1), (5, 1), (5, 2), (4, 2), (4, 3), (6, 3),
    (6, 4), (3, 4), (3, 5), (2, 5), (2, 3), (0, 3),
]

NAMED = {
    "rect": RECT,
    "lshape": LSHAPE,
    "plus": PLUS,
    "stair2": STAIR2,
    "ear": EAR,
}

CORPUS_SIZE = 500


def corpus_target(seed: int) -> int:
    # vertex counts cycle over 4, 6, ..., 40
    return 4 + 2 * ((seed - 1) % 19)


def comb_polygon(teeth: int):
    """Base strip with `teeth` upward prongs; 4*teeth + 2 vertices."""
    verts = [(0, 0), (2 * teeth, 0), (2 * teeth, 1)]
    for i in range(teeth - 1, 0, -1):
        verts += [(2 * i + 1, 1), (2 * i + 1, 3), (2 * i, 3), (2 * i, 1)]
    verts += [(1, 1), (1, 3), (0, 3)]
    return sc.validate_polygon(verts)


def serpentine_polygon(rows: int):
    """A corridor winding up through `rows` rows of four unit cells, joined
    at alternate ends; 4*rows vertices."""
    cells = {(x, 2 * r) for x in range(4) for r in range(rows)}
    cells |= {(3 if r % 2 == 0 else 0, 2 * r + 1) for r in range(rows - 1)}
    return sc.validate_polygon(_trace(cells))


def staircase_polygon(steps: int):
    """The region between the two axes and `steps` unit stairs descending
    from (0, steps) to (steps, 0); 2*steps + 2 vertices."""
    verts = [(0, 0), (steps, 0)]
    for i in range(1, steps + 1):
        verts += [(steps - i + 1, i), (steps - i, i)]
    return sc.validate_polygon(verts)


def notched_square(k: int):
    """A square of side 4k + 4 with k unit notches cut into each side,
    staggered so that every vertical reflex chord crosses every horizontal
    one; 16k + 4 vertices. Bottom notches are [4i+2, 4i+3] x [0, 1], top
    ones [4i+4, 4i+5] x [W-1, W], left ones [0, 1] x [4i+2, 4i+3] and right
    ones [W-1, W] x [4i+3, 4i+4]."""
    W = 4 * k + 4
    verts = [(0, 0)]
    for i in range(k):
        verts += [(4 * i + 2, 0), (4 * i + 2, 1), (4 * i + 3, 1), (4 * i + 3, 0)]
    verts.append((W, 0))
    for i in range(k):
        verts += [(W, 4 * i + 3), (W - 1, 4 * i + 3), (W - 1, 4 * i + 4), (W, 4 * i + 4)]
    verts.append((W, W))
    for i in reversed(range(k)):
        verts += [(4 * i + 5, W), (4 * i + 5, W - 1), (4 * i + 4, W - 1), (4 * i + 4, W)]
    verts.append((0, W))
    for i in reversed(range(k)):
        verts += [(0, 4 * i + 3), (1, 4 * i + 3), (1, 4 * i + 2), (0, 4 * i + 2)]
    return sc.validate_polygon(verts)


def xmonotone_polygon(seed: int, width: int, height: int):
    """An x-monotone polygon in a width x height box: each unit column holds
    one random interval of cells, sharing at least one cell row with the
    column before it; at most 4*width vertices."""
    rng = random.Random(seed)
    cells = set()
    prev = (0, height)
    for x in range(width):
        lo, hi = rng.choice([
            (lo, hi)
            for lo in range(height)
            for hi in range(lo + 1, height + 1)
            if lo < prev[1] and prev[0] < hi
        ])
        cells |= {(x, y) for y in range(lo, hi)}
        prev = (lo, hi)
    return sc.validate_polygon(_trace(cells))


def images(P):
    """All 8 transposed and mirrored images of P, through validate_polygon
    (which reverses the clockwise ones)."""
    pts = [(v.x, v.y) for v in P.vertices]
    for sx, sy, swap in product((1, -1), (1, -1), (False, True)):
        moved = [(sx * x, sy * y) for x, y in pts]
        yield sc.validate_polygon([(y, x) for x, y in moved] if swap else moved)


@pytest.fixture
def rect():
    return sc.validate_polygon(RECT)


@pytest.fixture
def lshape():
    return sc.validate_polygon(LSHAPE)


@pytest.fixture
def plus():
    return sc.validate_polygon(PLUS)


@pytest.fixture
def stair2():
    return sc.validate_polygon(STAIR2)


@pytest.fixture
def ear():
    return sc.validate_polygon(EAR)


@pytest.fixture(scope="session")
def corpus():
    return [
        (seed, sc.generate_polygon(seed, corpus_target(seed)))
        for seed in range(1, CORPUS_SIZE + 1)
    ]


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    return [(seed, P, sc.run_pipeline(P)) for seed, P in corpus]


@pytest.fixture(scope="session")
def corpus_runs_1000(corpus_runs):
    """corpus_runs carried on through corpus seeds 501-1000."""
    more = [
        (seed, sc.generate_polygon(seed, corpus_target(seed)))
        for seed in range(CORPUS_SIZE + 1, 1001)
    ]
    return corpus_runs + [(seed, P, sc.run_pipeline(P)) for seed, P in more]
