"""Exact guarded cover solver on intersection graphs.

The solver must agree with plain subset enumeration on size, return the
lexicographically smallest optimum, and enumerate all optima in order.
"""

import random
from itertools import combinations, count, islice
from pathlib import Path

import pytest

import brute
import slidecam as sc
from conftest import notched_square, serpentine_polygon
from slidecam import guarded_cover
from slidecam.guarded_cover import _domination_matrix, _search


def graph_of(n, edges):
    return sc.IntersectionGraph(n, tuple(sorted(edges)))


def brute_optima(graph):
    """All minimum guarded covers by direct enumeration, in lex order."""
    n = graph.n
    masks = graph.neighbor_masks()
    isolated = [v for v in range(n) if masks[v] == 0]
    rest = [v for v in range(n) if masks[v] != 0]
    for k in range(len(rest) + 1):
        found = [
            tuple(sorted(isolated + list(combo)))
            for combo in combinations(rest, k)
            if all(masks[v] & sum(1 << c for c in combo) for v in rest)
        ]
        if found:
            return found
    return [tuple(isolated)]


def test_empty_graph():
    assert sc.minimum_guarded_cover(graph_of(0, [])) == ()


def test_single_isolated_node_forced():
    g = graph_of(1, [])
    assert sc.minimum_guarded_cover(g) == (0,)
    assert sc.is_guarded_cover(g, (0,))
    assert not sc.is_guarded_cover(g, ())


def test_single_edge():
    g = graph_of(2, [(0, 1)])
    assert sc.minimum_guarded_cover(g) == (0, 1)


def test_star_needs_center_plus_leaf():
    g = graph_of(5, [(0, i) for i in range(1, 5)])
    assert sc.minimum_guarded_cover(g) == (0, 1)


def test_path_three_takes_lex_smallest_pair():
    g = graph_of(3, [(0, 1), (1, 2)])
    assert sc.minimum_guarded_cover(g) == (0, 1)
    assert sc.is_guarded_cover(g, (1, 2))
    assert not sc.is_guarded_cover(g, (0, 2))


def test_path_four_takes_middle():
    g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    assert sc.minimum_guarded_cover(g) == (1, 2)


def test_isolated_nodes_join_but_do_not_need_guards():
    g = graph_of(4, [(1, 3)])
    assert sc.minimum_guarded_cover(g) == (0, 1, 2, 3)


def test_all_isolated():
    g = graph_of(3, [])
    assert sc.minimum_guarded_cover(g) == (0, 1, 2)


def test_optima_enumeration_on_k22():
    # the EAR grid graph: two horizontals each crossing two verticals
    g = graph_of(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert list(sc.optimal_covers(g)) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_optima_enumeration_matches_brute():
    rng = random.Random(5)
    for trial in range(120):
        n = rng.randint(0, 9)
        g = graph_of(n, brute.random_graph(rng, n, rng.uniform(0.1, 0.7)))
        want = brute_optima(g)
        assert list(sc.optimal_covers(g)) == want, (trial, g.edges)


def random_bipartite(rng, n):
    """Edges of a random bipartite graph on n shuffled nodes: up to two
    isolated nodes, the rest in one to three connected components."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    lonely = min(n, rng.choice((0, 0, 1, 2)))
    rest = nodes[lonely:]
    if len(rest) < 2:
        return []
    k = rng.randint(1, min(3, len(rest) // 2))
    sizes = [2] * k
    for _ in range(len(rest) - 2 * k):
        sizes[rng.randrange(k)] += 1
    p = rng.uniform(0.1, 0.8)
    edges = set()
    for size in sizes:
        group, rest = rest[:size], rest[size:]
        colour = [0, 1] + [rng.randrange(2) for _ in group[2:]]
        for i in range(1, size):
            # a spanning tree keeps the component connected
            j = rng.choice([j for j in range(i) if colour[j] != colour[i]])
            edges.add((group[i], group[j]))
            for j in range(i):
                if colour[j] != colour[i] and rng.random() < p:
                    edges.add((group[i], group[j]))
    return [tuple(sorted(e)) for e in edges]


def components_with_edges(n, edges):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        parent[root(i)] = root(j)
    return len({root(i) for e in edges for i in e})


def random_tree(rng, n):
    """Edges of a random tree on n shuffled nodes."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    return [tuple(sorted((nodes[i], nodes[rng.randrange(i)]))) for i in range(1, n)]


def interval_point_bigraph(rng, n):
    """Edges of a random bigraph on n shuffled nodes: points 0..a-1 on a
    line, and intervals over them, each joined to the points it holds."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    a = rng.randint(1, max(1, n - 1))
    edges = []
    for interval in nodes[a:]:
        lo, hi = sorted(rng.randrange(a) for _ in range(2))
        edges += [tuple(sorted((interval, nodes[x]))) for x in range(lo, hi + 1)]
    return edges


def long_cycle_bigraph(rng, n):
    """Edges of an induced even cycle of 6 or more of n >= 6 shuffled nodes,
    with the other nodes hung on it as a random forest: bipartite, but not
    totally balanced."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = rng.randrange(6, n + 1, 2)
    edges = [(nodes[i], nodes[(i + 1) % size]) for i in range(size)]
    edges += [(nodes[i], nodes[rng.randrange(i)]) for i in range(size, n)]
    return [tuple(sorted(e)) for e in edges]


def odd_cycle_graph(rng, n):
    """Edges of an odd cycle of 3 or more of n >= 3 shuffled nodes, the
    other nodes hung on it as a random forest, and a few random chords:
    never bipartite."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = rng.randrange(3, n + 1, 2)
    edges = {(nodes[i], nodes[(i + 1) % size]) for i in range(size)}
    edges |= {(nodes[i], nodes[rng.randrange(i)]) for i in range(size, n)}
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(nodes, 2)
        edges.add((i, j))
    return sorted({tuple(sorted(e)) for e in edges})


def neighbor_lists(graph):
    masks = graph.neighbor_masks()
    return {v: [u for u in range(graph.n) if (m >> u) & 1] for v, m in enumerate(masks) if m}


def doubly_lexical_order(nbrs):
    """The reference order: the whole domination matrix, rows and columns
    alike, in a doubly lexical order by alternating stable sorts, with the
    final sort keys and whether that order is Γ-free. The solver orders
    only a bipartite graph's biadjacency block instead.

    Returns (rows, cols, row_key, col_key, gamma_free). row_key[v] is v's
    neighbours as column-order bits (bit p for cols[p]) and col_key[u] is
    u's neighbours as row-order bits (bit p for rows[p]).
    """

    def keys(order):
        # each node's neighbors as a binary number, digit p for order[p]
        digit = {u: 1 << p for p, u in enumerate(order)}
        return {v: sum(map(digit.__getitem__, nbrs[v])) for v in nbrs}

    rows, cols = list(nbrs), list(nbrs)
    moved = True
    while moved:
        # once the cols stay put, the rows just sorted against them do too
        row_key = keys(cols)
        rows = sorted(rows, key=row_key.__getitem__)
        col_key = keys(rows)
        new_cols = sorted(cols, key=col_key.__getitem__)
        moved = new_cols != cols
        cols = new_cols
    # Γ-free: per column, each two consecutive rows holding it are nested
    # in the columns after it. A column's rows come lowest bit first.
    for p, u in enumerate(cols):
        held, a = col_key[u], 0
        while held:
            low = held & -held
            held ^= low
            b = row_key[rows[low.bit_length() - 1]]
            if (a & ~b) >> (p + 1):
                return rows, cols, row_key, col_key, False
            a = b
    return rows, cols, row_key, col_key, True


def takes_greedy_path(graph):
    """Whether optimal_covers answers `graph` by the greedy pass rather
    than by `_search`: the solver found a Γ-free order."""
    return _domination_matrix(neighbor_lists(graph))[4]


def test_optima_enumeration_matches_brute_on_bipartite_graphs():
    rng = random.Random(23)
    kinds = {"isolated": 0, "connected": 0, "split": 0}
    paths = {"greedy": 0, "search": 0}
    # trees and interval-point bigraphs are totally balanced, long induced
    # cycles are not
    makers = [(random_bipartite, 1)] * 250
    makers += [(random_tree, 1), (interval_point_bigraph, 1), (long_cycle_bigraph, 6)] * 50
    for trial, (make, smallest) in enumerate(makers):
        n = rng.randint(smallest, 12)
        edges = make(rng, n)
        g = graph_of(n, edges)
        if any(m == 0 for m in g.neighbor_masks()):
            kinds["isolated"] += 1
        elif components_with_edges(n, edges) > 1:
            kinds["split"] += 1
        else:
            kinds["connected"] += 1
        if edges:
            paths["greedy" if takes_greedy_path(g) else "search"] += 1
        assert list(sc.optimal_covers(g)) == brute_optima(g), (trial, g.edges)
    assert min(kinds.values()) >= 25, kinds
    assert min(paths.values()) >= 50, paths


def test_greedy_path_exactly_where_the_whole_matrix_order_is_gamma_free():
    """The solver orders a bipartite graph's biadjacency block and sends
    any other graph straight to the search; either way it must take the
    greedy pass exactly when the whole matrix's doubly lexical order is
    Γ-free. An odd cycle never has such an order."""
    rng = random.Random(31)
    makers = [random_bipartite, random_tree, interval_point_bigraph, long_cycle_bigraph]
    makers += [odd_cycle_graph, brute.random_graph]
    verdicts = {make.__name__: set() for make in makers}
    for trial in range(1800):
        make = makers[trial % len(makers)]
        n = rng.randint(6, 13)
        if make is brute.random_graph:
            edges = make(rng, n, rng.uniform(0.1, 0.7))
        else:
            edges = make(rng, n)
        g = graph_of(n, edges)
        nbrs = neighbor_lists(g)
        if not nbrs:
            continue
        want = doubly_lexical_order(nbrs)[4]
        assert takes_greedy_path(g) == want, (make.__name__, g.edges)
        verdicts[make.__name__].add(want)
        if make is odd_cycle_graph:
            assert not want, g.edges
            assert list(sc.optimal_covers(g)) == brute_optima(g), g.edges
    assert verdicts == {
        "random_bipartite": {False, True},
        "random_tree": {True},
        "interval_point_bigraph": {True},
        "long_cycle_bigraph": {False},
        "odd_cycle_graph": {False},
        "random_graph": {False, True},
    }


def test_solver_matches_brute_on_larger_graphs():
    rng = random.Random(17)
    for trial in range(200):
        n = rng.randint(1, 13)
        g = graph_of(n, brute.random_graph(rng, n, rng.uniform(0.05, 0.8)))
        got = sc.minimum_guarded_cover(g)
        want = brute_optima(g)[0]
        assert got == want, (trial, g.edges)
        assert sc.is_guarded_cover(g, got)


def test_is_guarded_cover_requires_neighbor_inside():
    g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    assert sc.is_guarded_cover(g, (1, 2))
    # 0 and 3 are dominated but do not watch each other
    assert not sc.is_guarded_cover(g, (0, 3))
    # supersets of a guarded cover stay guarded only if newcomers are watched
    assert sc.is_guarded_cover(g, (0, 1, 2))
    assert not sc.is_guarded_cover(g, ())


def reference_covers(graph):
    """optimal_covers with the whole-graph `_search` answering every size
    question, as the solver's fallback does on graphs without a Γ-free
    order, but without its node budget; `k` comes from iterative
    deepening."""
    n = graph.n
    adj = graph.neighbor_masks()
    isolated = [v for v in range(n) if adj[v] == 0]
    rest = [v for v in range(n) if adj[v]]
    rows, cols, row_keys, col_keys, _ = _domination_matrix(neighbor_lists(graph))
    col_key = dict(zip(cols, col_keys))
    col_bit = {u: 1 << p for p, u in enumerate(cols)}
    # the columns of the nodes after rest[t]
    later = [sum(col_bit[u] for u in rest[t + 1 :]) for t in range(len(rest))]
    full = (1 << len(rows)) - 1

    def fits(undominated, allowed, left):
        return _search(row_keys, col_keys, undominated, allowed, left, count())

    k = 0
    while not fits(full, (1 << len(cols)) - 1, k):
        k += 1
    picks = []

    def emit(undominated, first):
        if len(picks) == k:
            yield tuple(sorted(isolated + picks))
            return
        for t in range(first, len(rest)):
            nxt = undominated & ~col_key[rest[t]]
            if fits(nxt, later[t], k - len(picks) - 1):
                picks.append(rest[t])
                yield from emit(nxt, t + 1)
                picks.pop()

    return k, emit(full, 0)


def grid_graph(P):
    return sc.intersection_graph(sc.prune_dominated(P, tuple(sc.reflex_chords(P))))


def test_first_optima_match_whole_graph_search(corpus):
    polygons = [P for _seed, P in corpus[:200]]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 5)]
    for g in map(grid_graph, polygons):
        _k, want = reference_covers(g)
        assert list(islice(sc.optimal_covers(g), 20)) == list(islice(want, 20)), g.edges


def per_row_greedy_covers(graph):
    """optimal_covers' greedy path with the per-row rebuild it replaced:
    every size question walks all rows in order and scans each undominated
    row's sources, last in column order first, for an allowed one."""
    n = graph.n
    adj = graph.neighbor_masks()
    isolated = [v for v in range(n) if adj[v] == 0]
    rest = [v for v in range(n) if adj[v]]
    full = sum(1 << v for v in rest)
    nbrs = neighbor_lists(graph)
    rows, cols = _domination_matrix(nbrs)[:2]
    col_pos = {u: p for p, u in enumerate(cols)}
    choices = {v: sorted(nbrs[v], key=col_pos.__getitem__, reverse=True) for v in rest}

    def greedy(dominated, allowed):
        count = 0
        for v in rows:
            if not (dominated >> v) & 1:
                u = next((u for u in choices[v] if (allowed >> u) & 1), None)
                if u is None:
                    return n + 1
                dominated |= adj[u]
                count += 1
        return count

    k = greedy(0, full)
    picks = []

    def emit(dominated, allowed):
        if len(picks) == k:
            yield tuple(sorted(isolated + picks))
            return
        for j in range(n):
            if not (allowed >> j) & 1:
                continue
            nxt_allowed = allowed & ~((1 << (j + 1)) - 1)
            if greedy(dominated | adj[j], nxt_allowed) <= k - len(picks) - 1:
                picks.append(j)
                yield from emit(dominated | adj[j], nxt_allowed)
                picks.pop()

    return emit(0, full)


def same_optima(graph, limit):
    """Compare the first `limit` optima with the per-row rebuild's; how
    many there were."""
    assert takes_greedy_path(graph)
    want = list(islice(per_row_greedy_covers(graph), limit))
    assert list(islice(sc.optimal_covers(graph), limit)) == want, graph.edges
    return len(want)


def test_rebuild_matches_the_per_row_greedy_rebuild(corpus_runs_1000):
    compared = sum(same_optima(run.graph, 30) for _seed, _P, run in corpus_runs_1000 if run.graph.n)
    assert compared > 2000, compared
    polygons = [sc.generate_polygon(seed, 240) for seed in range(1, 41)]
    polygons += [sc.generate_polygon(seed, n) for n in (320, 400) for seed in range(1, 5)]
    compared = sum(same_optima(grid_graph(P), 100) for P in polygons)
    assert compared > 3000, compared
    # the first 4 and 97 optima, up to the first that leaves only
    # staircase pieces on these polygons
    for seed, walk in ((119, 4), (386, 97)):
        run = sc.run_pipeline(sc.generate_polygon(seed, 240))
        assert same_optima(run.graph, walk) == walk


@pytest.mark.parametrize("name", ["generated_2_1600.poly", "generated_1_3000.poly"])
def test_first_optimum_matches_the_per_row_greedy_rebuild_on_large_grids(name):
    P = sc.parse_polygon((Path(__file__).parent / "data" / name).read_text())
    g = grid_graph(P)
    assert takes_greedy_path(g)
    assert sc.minimum_guarded_cover(g) == next(per_row_greedy_covers(g))


def test_size_matches_whole_graph_search_at_400_vertices():
    for seed in range(1, 5):
        g = grid_graph(sc.generate_polygon(seed, 400))
        got = sc.minimum_guarded_cover(g)
        assert sc.is_guarded_cover(g, got)
        k, _emit = reference_covers(g)
        assert len(got) == k, seed


def chordal_bipartite(graph):
    """Whether deleting bisimplicial edges one at a time, keeping their
    ends, deletes every edge; for a bipartite graph that holds exactly when
    it has no induced cycle longer than 4 (Golumbic & Goss 1978)."""
    nb = graph.neighbor_masks()
    edges = set(graph.edges)

    def bisimplicial(u, v):
        # every neighbor of u is adjacent to every neighbor of v
        return all(nb[v] & ~nb[x] == 0 for x in range(graph.n) if (nb[u] >> x) & 1)

    while edges:
        e = next((e for e in sorted(edges) if bisimplicial(*e)), None)
        if e is None:
            return False
        edges.remove(e)
        u, v = e
        nb[u] &= ~(1 << v)
        nb[v] &= ~(1 << u)
    return True


def test_fallback_search_budget_raises_too_large():
    # An odd cycle has no Γ-free order, so it takes the exhaustive search;
    # at 61 nodes that would run for ages without the node budget.
    n = 61
    g = graph_of(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    with pytest.raises(sc.TooLarge):
        sc.minimum_guarded_cover(g)


def test_cycle_controls():
    c4 = graph_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c6 = graph_of(6, [(i, i + 1) for i in range(5)] + [(0, 5)])
    assert chordal_bipartite(c4) and takes_greedy_path(c4)
    assert not chordal_bipartite(c6) and not takes_greedy_path(c6)


def test_grid_graphs_are_chordal_bipartite_and_take_the_greedy_path(corpus):
    polygons = [P for _seed, P in corpus[:300]]
    polygons += [sc.generate_polygon(seed, 240) for seed in range(1, 11)]
    for P in polygons:
        grid = sc.prune_dominated(P, tuple(sc.reflex_chords(P)))
        g = sc.intersection_graph(grid)
        segments = grid.segments
        assert all(segments[i].orientation != segments[j].orientation for i, j in g.edges)
        assert chordal_bipartite(g), g.edges
        assert takes_greedy_path(g), g.edges


@pytest.mark.parametrize("seed, n", [(2, 960), (1, 640)])
def test_pipeline_cover_certified_by_a_packing(seed, n):
    """No two targets of a packing share a neighbor, so a guarded cover
    picks a distinct node for each; a packing as large as the cover's
    non-isolated picks proves it minimum without any search."""
    run = sc.run_pipeline(sc.generate_polygon(seed, n))
    g = run.graph
    adj = g.neighbor_masks()
    assert sc.is_guarded_cover(g, run.chosen)
    nbrs = neighbor_lists(g)
    rows, cols = _domination_matrix(nbrs)[:2]
    col_pos = {u: p for p, u in enumerate(cols)}
    # the targets where the greedy pass picks
    packing = []
    dominated = watched = 0
    for v in rows:
        if not (dominated >> v) & 1:
            assert adj[v] & watched == 0, v
            watched |= adj[v]
            packing.append(v)
            dominated |= adj[max(nbrs[v], key=col_pos.__getitem__)]
    assert len(run.chosen) - adj.count(0) == len(packing) > 0


def greedy_calls(monkeypatch, graph):
    """How many times optimal_covers runs the greedy pass up to its first
    optimum, and that optimum's size."""
    calls = 0
    greedy = guarded_cover._greedy

    def counted(*args):
        nonlocal calls
        calls += 1
        return greedy(*args)

    with monkeypatch.context() as patch:
        patch.setattr(guarded_cover, "_greedy", counted)
        first = next(sc.optimal_covers(graph))
    return calls, len(first)


def test_first_optimum_tries_no_candidate_twice(monkeypatch):
    """The rebuild tests each candidate once on its way to the first
    optimum: at most one greedy pass per node with a neighbour, plus the
    one that finds the optimum's size. The pinned counts depend on the
    graph alone, since every size question has one exact answer."""
    pinned = [
        (serpentine_polygon(250), 500, 250),
        (serpentine_polygon(500), 1000, 500),
        (notched_square(25), 53, None),
        (notched_square(100), 203, None),
        (sc.generate_polygon(1, 240), 44, None),
    ]
    pinned += [(sc.generate_polygon(seed, 240), None, None) for seed in range(2, 11)]
    for P, want_calls, want_k in pinned:
        g = grid_graph(P)
        assert takes_greedy_path(g)
        calls, k = greedy_calls(monkeypatch, g)
        assert calls <= g.n - g.neighbor_masks().count(0) + 1, P.n
        if want_calls is not None:
            assert calls == want_calls, P.n
        if want_k is not None:
            assert k == want_k, P.n
