"""Random polygon generator: validity, determinism, vertex counts."""

import hashlib
import random

import pytest

import slidecam as sc
from slidecam import generator
from conftest import corpus_target


def test_deterministic():
    a = sc.generate_polygon(42, 20)
    b = sc.generate_polygon(42, 20)
    assert a == b
    assert sc.generate_polygon(43, 20) != a


def test_output_is_valid_simple_polygon():
    for seed in range(1, 120):
        P = sc.generate_polygon(seed, corpus_target(seed))
        verts = [(p.x, p.y) for p in P.vertices]
        assert sc.validate_polygon(verts, collinear="reject") == P, seed


def test_vertex_count_hits_target():
    for seed in range(1, 60):
        target = corpus_target(seed)
        P = sc.generate_polygon(seed, target)
        assert P.n == target, seed


def test_four_vertices_is_a_rectangle():
    P = sc.generate_polygon(1, 4)
    assert P.n == 4
    assert sc.reflex_vertices(P) == []


def test_rejects_bad_targets():
    with pytest.raises(ValueError):
        sc.generate_polygon(1, 5)
    with pytest.raises(ValueError):
        sc.generate_polygon(1, 2)


def test_rejects_negative_seed():
    # random.Random seeds -1 like 1, so -1 would repeat seed 1's polygon.
    with pytest.raises(ValueError, match="seed"):
        sc.generate_polygon(-1, 40)
    assert sc.generate_polygon(0, 40).n == 40


def test_nonnegative_coordinates():
    for seed in range(1, 40):
        P = sc.generate_polygon(seed, corpus_target(seed))
        x0, y0, _x1, _y1 = P.bbox()
        assert x0 == 0 and y0 == 0, seed


def test_output_is_stable():
    # Pins the RNG stream and the growth rule: every benchmark input and
    # every pinned camera set downstream depends on these exact polygons.
    cases = [(seed, corpus_target(seed)) for seed in range(1, 501)]
    cases += [(seed, n) for n in (80, 160, 240) for seed in range(1, 5)]
    h = hashlib.sha256()
    for seed, n in cases:
        h.update(sc.format_polygon(sc.generate_polygon(seed, n)).encode())
    assert h.hexdigest() == (
        "3608b4cf5c64ea2e1285b41c218bed66acc59f528e7b1e5750e8a751547ddc08"
    )


def test_large_output_is_stable():
    # The ladder's 320- and 400-vertex rungs and two larger inputs, which
    # test_output_is_stable does not reach.
    cases = [(seed, n) for n in (320, 400) for seed in range(1, 5)]
    cases += [(1, 640), (1, 960)]
    h = hashlib.sha256()
    for seed, n in cases:
        h.update(sc.format_polygon(sc.generate_polygon(seed, n)).encode())
    assert h.hexdigest() == (
        "084e772949bcd9abf35b2f2b5ca77f9ac5b7f412635ca003f6752bacfa4b1184"
    )


def test_shuffled_matches_random_shuffle():
    # _shuffled must make rng.shuffle's exact draws: same order, and the
    # same generator state after it. Sizes 0-300 and both sides of each
    # power of two up to 2**13, where the draw's bit count steps.
    sizes = set(range(301)) | {2**p + d for p in range(9, 14) for d in (-1, 0, 1)}
    for size in sorted(sizes):
        for s in (size, size + 7919):
            items = list(range(size))
            a, b = random.Random(s), random.Random(s)
            expected = list(items)
            a.shuffle(expected)
            assert generator._shuffled(b, items) == expected, (size, s)
            assert items == list(range(size))
            assert a.random() == b.random(), (size, s)


_ORTHO = ((1, 0), (-1, 0), (0, 1), (0, -1))


def pinched(cells, x, y):
    """Would (x,y) touch a blob cell at a corner only?"""
    return any(
        (x + dx, y + dy) in cells and (x + dx, y) not in cells and (x, y + dy) not in cells
        for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


def creates_hole(cells, x, y):
    """Would adding (x,y) seal off an empty pocket? Floods each empty
    orthogonal neighbor and requires escape past the blob's bounding box."""
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    lo_x, hi_x = min(xs) - 1, max(xs) + 1
    lo_y, hi_y = min(ys) - 1, max(ys) + 1
    blocked = cells | {(x, y)}
    for dx, dy in _ORTHO:
        start = (x + dx, y + dy)
        if start in blocked:
            continue
        seen = {start}
        stack = [start]
        escaped = False
        while stack:
            cx, cy = stack.pop()
            if cx < lo_x or cx > hi_x or cy < lo_y or cy > hi_y:
                escaped = True
                break
            for ex, ey in _ORTHO:
                nxt = (cx + ex, cy + ey)
                if nxt not in blocked and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if not escaped:
            return True
    return False


def refused(cells, x, y):
    return pinched(cells, x, y) or creates_hole(cells, x, y)


def test_arc_count_matches_pinch_and_flood(monkeypatch):
    arcs = generator._arcs
    examined = []

    def checked(cells, x, y):
        out = arcs(cells, x, y)
        assert (out > 1) == refused(cells, x, y), (sorted(cells), x, y)
        examined.append(out > 1)
        return out

    monkeypatch.setattr(generator, "_arcs", checked)
    for seed in range(1, 201):
        sc.generate_polygon(seed, corpus_target(seed))
    assert any(examined) and not all(examined)


def test_arc_count_refuses_pinch_and_pocket():
    # U open to the left, without its top-left cell: (0,1) would touch (1,2)
    # at a corner only.
    u = {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2)}
    assert pinched(u, 0, 1)
    assert generator._arcs(u, 0, 1) == 2
    # The full U: (0,1) closes it around the empty (1,1), with no pinch.
    u.add((0, 2))
    assert not pinched(u, 0, 1) and creates_hole(u, 0, 1)
    assert generator._arcs(u, 0, 1) == 2
    # Extending the U's top arm leaves one arc.
    assert generator._arcs(u, -1, 2) == 1 and not refused(u, -1, 2)
