"""Exact minimum guarded cover on an intersection graph.

A guarded cover is a subset S of tracks such that every track has a
neighbor in S (tracks in S included, so cameras in S watch each other).
Tracks with no neighbors at all cannot satisfy that; they are forced into S
and exempted from the neighbor rule, since nothing could ever watch them.

The solver is exact and returns the lexicographically smallest optimum as a
sorted index tuple. It rebuilds the answer one smallest feasible index at a
time, asking at each step how many picks the rest still needs. A grid graph
is bipartite (chords of one orientation never meet), so that size question
splits by colour class: picks of one class dominate only the other class,
and the fewest picks that can do it is the sum of two independent set-cover
minima, each found by a bitmask branch and bound on its half alone and
remembered for the rest of the enumeration. The sum is exactly the
whole-graph answer, so the optima and their order do not depend on the
split. A graph with an odd cycle is one half whose targets and sources are
all of it.
"""

from __future__ import annotations

from .grid import IntersectionGraph


def _most_covered(adj: list[int], targets: int, sources: int) -> int:
    """The most targets that one pick from `sources` dominates."""
    most = 0
    m = sources
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        w = bin(adj[u] & targets).count("1")
        if w > most:
            most = w
    return most


def _coverage_bound(adj: list[int], targets: int, sources: int) -> int:
    """Fewest picks that could dominate `targets` by count alone, the bound
    `_search` prunes with; 0 when no source reaches any target."""
    most = _most_covered(adj, targets, sources)
    return -(-bin(targets).count("1") // most) if most else 0


def _search(adj: list[int], full: int, left: int, dominated: int, allowed: int) -> bool:
    """Can `left` more picks from `allowed` dominate everything in `full`?"""
    undom = full & ~dominated
    if undom == 0:
        return True
    if left == 0:
        return False
    # Every missing node needs an allowed neighbor picked eventually; branch
    # later on the one with the fewest options.
    pick_node = -1
    pick_cover = -1
    m = undom
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        cand = adj[v] & allowed
        if cand == 0:
            return False
        c = bin(cand).count("1")
        if pick_node < 0 or c < pick_cover:
            pick_node, pick_cover = v, c
    # Bound: one pick newly dominates at most cover_max missing nodes.
    cover_max = _most_covered(adj, undom, allowed)
    if cover_max == 0 or bin(undom).count("1") > left * cover_max:
        return False
    # Branch on the most constrained missing node: one of its allowed
    # neighbors must be picked.
    cand = adj[pick_node] & allowed
    while cand:
        u = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if _search(adj, full, left - 1, dominated | adj[u], allowed & ~(1 << u)):
            return True
    return False


def _colour_classes(adj: list[int], full: int) -> tuple[tuple[int, int], ...]:
    """(targets, sources) halves of the cover problem on the nodes of `full`.

    A BFS 2-colouring gives two halves, each colour class dominated from the
    other; an odd cycle gives one half with the whole graph on both sides.
    """
    side = [0, 0]
    seen = 0
    todo = full
    while todo:
        frontier = todo & -todo
        c = 0
        side[0] |= frontier
        seen |= frontier
        while frontier:
            reach = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                reach |= adj[v]
            if reach & side[c]:
                return ((full, full),)
            c ^= 1
            frontier = reach & ~seen
            side[c] |= frontier
            seen |= frontier
        todo &= ~seen
    return ((side[0], side[1]), (side[1], side[0]))


def optimal_covers(graph: IntersectionGraph):
    """Yield every minimum guarded cover, smallest index tuple first.

    All optima share the same forced isolated nodes, so sorting them in
    keeps the lexicographic order of the yielded tuples intact. Callers
    that only need one answer should stop after the first item; the full
    enumeration exists for downstream phases that must pick an optimum
    with extra geometric properties.
    """
    n = graph.n
    if n == 0:
        yield ()
        return
    adj = graph.neighbor_masks()
    isolated = [v for v in range(n) if adj[v] == 0]
    rest = [v for v in range(n) if adj[v] != 0]
    if not rest:
        yield tuple(isolated)
        return
    full = 0
    for v in rest:
        full |= 1 << v
    allowed0 = full
    halves = _colour_classes(adj, full)

    # (targets, sources) -> (lower bound, whether it is the minimum)
    memo: dict[tuple[int, int], tuple[int, bool]] = {}

    def least(key: tuple[int, int], floor: int, cap: int) -> int:
        """Fewest picks from key's sources that dominate its targets, given
        that it is at least `floor`; any number above `cap` if it is more."""
        lo, exact = memo.get(key) or (_coverage_bound(adj, *key), False)
        lo = max(lo, floor)
        while not exact and lo <= cap:
            exact = _search(adj, key[0], lo, 0, key[1])
            if not exact:
                lo += 1
        memo[key] = (lo, exact)
        return lo

    def fits(dominated: int, allowed: int, left: int) -> bool:
        """Can `left` more picks from `allowed` dominate the rest?

        Every remainder needs at least `left` picks, or the picks so far
        would complete a cover smaller than k; so the last half needs at
        least what the others leave.
        """
        *others, last = [(t & ~dominated, s & allowed) for t, s in halves]
        for key in others:
            left -= least(key, 0, left)
            if left < 0:
                return False
        return least(last, left, left) <= left

    k = sum(least(key, 0, len(rest)) for key in halves)

    picks: list[int] = []

    def emit(dominated: int, allowed: int):
        if len(picks) == k:
            yield tuple(sorted(isolated + picks))
            return
        m = allowed
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            nxt_allowed = allowed & ~((1 << (j + 1)) - 1)
            if fits(dominated | adj[j], nxt_allowed, k - len(picks) - 1):
                picks.append(j)
                yield from emit(dominated | adj[j], nxt_allowed)
                picks.pop()

    yield from emit(0, allowed0)


def minimum_guarded_cover(graph: IntersectionGraph) -> tuple[int, ...]:
    """Smallest S with every node adjacent to S, isolated nodes forced.

    Ties in size resolve to the lexicographically smallest sorted tuple.
    """
    return next(optimal_covers(graph))


def is_guarded_cover(graph: IntersectionGraph, chosen) -> bool:
    """Independent check: every node outside S has a neighbor in S, every
    node of S has a neighbor in S unless it is isolated in the whole graph."""
    n = graph.n
    adj = graph.neighbor_masks()
    smask = 0
    for v in chosen:
        if not (0 <= v < n):
            return False
        smask |= 1 << v
    for v in range(n):
        if adj[v] == 0:
            if not (smask >> v) & 1:
                return False
            continue
        if adj[v] & smask == 0:
            return False
    return True
