"""Rectilinear region algebra against a unit-cell set model.

A region built from integer rectangles is just a set of unit cells, so
union, intersection, difference and containment have obvious reference
semantics. The properties below check the slab representation against that
model and pin down the canonical-form invariants everything else relies on
(sorted slabs, no mergeable neighbors, deterministic equality).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import slidecam as sc
from slidecam.geom import _merge_closed
from slidecam.region import EMPTY_REGION, _slabs

rect_st = st.tuples(
    st.integers(-4, 4), st.integers(1, 5), st.integers(-4, 4), st.integers(1, 5)
).map(lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3]))

rects_st = st.lists(rect_st, max_size=6)


def cells(rects):
    out = set()
    for x0, x1, y0, y1 in rects:
        out |= {(i, j) for i in range(x0, x1) for j in range(y0, y1)}
    return out


def region_cell_set(r):
    return cells(r.rects)


@given(rects_st)
def test_from_rects_matches_cell_model(rs):
    assert region_cell_set(sc.from_rects(rs)) == cells(rs)


@given(rects_st)
def test_canonical_form(rs):
    r = sc.from_rects(rs)
    assert list(r.rects) == sorted(r.rects)
    for x0, x1, y0, y1 in r.rects:
        assert x0 < x1 and y0 < y1
    # no two rects share a full vertical edge or stack within one column
    by_col = {}
    for x0, x1, y0, y1 in r.rects:
        by_col.setdefault((x0, x1), []).append((y0, y1))
    for spans in by_col.values():
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 < b0
    cols = sorted(by_col)
    for (a, b), (c, d) in zip(cols, cols[1:]):
        if b == c:
            assert by_col[(a, b)] != by_col[(c, d)]


@given(rects_st, rects_st)
def test_union_intersection_difference(rs, ss):
    a, b = sc.from_rects(rs), sc.from_rects(ss)
    assert region_cell_set(sc.region_union_all([a, b])) == cells(rs) | cells(ss)
    assert region_cell_set(sc.region_intersection(a, b)) == cells(rs) & cells(ss)
    assert region_cell_set(sc.region_difference(a, b)) == cells(rs) - cells(ss)


def reference_slabs(rects, xs):
    """_slabs by testing every rect against every slab."""
    return [
        _merge_closed([(r[2], r[3]) for r in rects if r[0] <= x0 and x1 <= r[1]])
        for x0, x1 in zip(xs, xs[1:])
    ]


def test_slabs_match_per_slab_filter():
    # xs holds every rect's x0 and x1, and sometimes x's of no rect, as
    # when _overlay slabs one operand on the joint x's of both
    rng = random.Random(7)
    for _ in range(2000):
        rects = []
        for _ in range(rng.randint(0, 8)):
            x0, y0 = rng.randint(-6, 6), rng.randint(-6, 6)
            rects.append((x0, x0 + rng.randint(1, 6), y0, y0 + rng.randint(1, 6)))
        xs = {x for r in rects for x in r[:2]}
        xs |= {rng.randint(-8, 14) for _ in range(rng.randint(0, 3))}
        xs = sorted(xs)
        assert _slabs(rects, xs) == reference_slabs(rects, xs), rects


@given(rects_st, rects_st)
def test_equality_is_canonical(rs, ss):
    a, b = sc.from_rects(rs), sc.from_rects(ss)
    assert (a == b) == (cells(rs) == cells(ss))


@given(rects_st, rects_st)
def test_containment(rs, ss):
    a, b = sc.from_rects(rs), sc.from_rects(ss)
    assert sc.region_contains(a, b) == (cells(ss) <= cells(rs))


@given(rects_st)
def test_area_and_cells(rs):
    r = sc.from_rects(rs)
    assert r.area() == len(cells(rs))


@given(rects_st)
def test_components_partition(rs):
    r = sc.from_rects(rs)
    comps = sc.region_components(r)
    assert sum(c.area() for c in comps) == r.area()
    assert region_cell_set(sc.region_union_all(comps)) == region_cell_set(r)
    # components are edge-connected and pairwise cell-disjoint
    seen = set()
    for c in comps:
        cc = region_cell_set(c)
        assert not cc & seen
        seen |= cc
        frontier = {min(cc)}
        grown = set(frontier)
        while frontier:
            nxt = set()
            for i, j in frontier:
                for q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if q in cc and q not in grown:
                        grown.add(q)
                        nxt.add(q)
            frontier = nxt
        assert grown == cc


def from_cells(cs):
    return sc.from_rects((i, i + 1, j, j + 1) for i, j in cs)


def test_algebra_matches_cell_model_on_pipeline_inputs(corpus):
    # Visible sets and polygon regions of real inputs: tens of rects, many
    # sharing edges and event lines. Each result must equal the canonical
    # region of its cell set, which also pins the canonical form.
    for _seed, P in corpus[:100]:
        whole = sc.polygon_region(P)
        vis = [sc.camera_visibility(P, c) for c in sc.reflex_chords(P)]
        regions = [whole] + vis
        joined = [r for reg in regions for r in reg.rects]
        assert region_cell_set(sc.from_rects(joined)) == cells(joined)
        for a, b in zip(regions, regions[1:] + regions[:1]):
            ca, cb = region_cell_set(a), region_cell_set(b)
            assert sc.region_union_all([a, b]) == from_cells(ca | cb)
            assert sc.region_difference(a, b) == from_cells(ca - cb)
            assert sc.region_intersection(a, b) == from_cells(ca & cb)
            assert sc.region_contains(a, b) == (cb <= ca)
            assert sc.region_contains(whole, b)
        seen = cells(r for reg in vis for r in reg.rects)
        left = sc.region_difference(whole, sc.region_union_all(vis))
        assert left == from_cells(region_cell_set(whole) - seen)


def test_corner_touch_splits():
    r = sc.from_rects([(0, 1, 0, 1), (1, 2, 1, 2)])
    assert len(sc.region_components(r)) == 2


@given(rects_st)
def test_contains_point_scaled(rs):
    r = sc.from_rects(rs)
    cs = cells(rs)
    for i in range(-5, 6):
        for j in range(-5, 6):
            assert r.contains_point_scaled(2 * i + 1, 2 * j + 1) == ((i, j) in cs)
    # closed boundary: corners of member cells are inside
    for i, j in list(cs)[:8]:
        assert r.contains_point_scaled(2 * i, 2 * j)
        assert r.contains_point_scaled(2 * i + 2, 2 * j + 2)


def test_empty_region():
    assert EMPTY_REGION.is_empty
    assert EMPTY_REGION.area() == 0
    assert sc.from_rects([]) == EMPTY_REGION
    assert sc.region_components(EMPTY_REGION) == []


def test_polygon_region_area():
    P = sc.validate_polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
    r = sc.polygon_region(P)
    assert r.area() == 12
    assert region_cell_set(r) == cells([(0, 4, 0, 2), (0, 2, 2, 4)])


@settings(max_examples=30)
@given(rects_st)
def test_transposed_region(rs):
    r = sc.from_rects(rs)
    t = r.transposed()
    assert {(j, i) for i, j in region_cell_set(r)} == region_cell_set(t)
    assert t.transposed() == r
