"""Exact minimum guarded cover on an intersection graph.

A guarded cover is a subset S of tracks such that every track has a
neighbor in S (tracks in S included, so cameras in S watch each other).
Tracks with no neighbors at all cannot satisfy that; they are forced into S
and exempted from the neighbor rule, since nothing could ever watch them.

The solver is exact and returns the lexicographically smallest optimum as a
sorted index tuple. It rebuilds the answer one smallest feasible index at a
time, asking at each step whether the picks left can still dominate the
nodes left. That question is set cover on the domination matrix: a row per
non-isolated node as a target, a column per node as a source, and a 1 where
the two are adjacent.

On a grid graph one greedy pass answers it exactly. Order the matrix so
that no 2x2 submatrix reads [[1, 1], [1, 0]] (a Γ), walk the rows in order,
and pick for each row not yet dominated its allowed column that comes last.
The rows before it are dominated already, and with no Γ that last column
holds every later row that any other column of this row holds, so some
optimum makes the same pick (Hoffman, Kolen & Sakarovitch, 1985). Deleting
dominated rows and disallowed columns leaves a Γ-free matrix Γ-free in the
induced order, so the pass is exact for every question the rebuild asks.

A matrix has a Γ-free order exactly when it is totally balanced, and then
every doubly lexical order is one (Lubiw, 1987). A grid graph is bipartite
(chords of one orientation never meet) and chordal bipartite (a maximal
chord through a reflex corner of the region that a longer induced cycle
would bound runs on across it, since P has no holes). The domination matrix
of a bipartite graph is two disjoint copies of its biadjacency matrix, one
per colour class, so it is totally balanced, and one pass over the whole
graph answers both classes at once.

The order comes from alternating two stable sorts until neither moves
anything: rows ascending as binary numbers whose digits are the columns,
the last column most significant, then columns the same way over the rows.
Read row by row from its bottom-right corner, the matrix is
lexicographically no smaller after each sort, and strictly larger whenever
anything moved, so the loop ends. The last sort keys stay as the matrix:
each row is its columns as column-order bits, each column its rows as
row-order bits. The Γ check and every pass run on those masks. A pass
keeps the undominated rows as one mask; its next row is the lowest bit
left, its pick the highest bit of that row's mask within the allowed
columns, and the pick's column mask clears the rows it dominates. A pass
stops as soon as it needs more picks than the question allows, so each
candidate the rebuild tests costs O(picks) big-int steps, not a walk over
every row.

Where a Γ remains (an odd cycle, or a bipartite graph that is not chordal,
reachable only through the public API) the question goes to an exhaustive
bitmask search on the whole graph, and the size of an optimum comes from
iterative deepening. One optimal_covers call may spend at most
SEARCH_NODES nodes of that search and raises TooLarge past them.
"""

from __future__ import annotations

from .errors import TooLarge
from .grid import IntersectionGraph

# Fallback search nodes one optimal_covers call may spend: about half a
# second, where the test suite's graphs need at most about 600.
SEARCH_NODES = 100_000


def _search(adj: list[int], full: int, left: int, dominated: int, allowed: int, nodes) -> bool:
    """Can `left` more picks from `allowed` dominate everything in `full`?
    Each call spends one item of the node budget, the iterator `nodes`."""
    if next(nodes, None) is None:
        raise TooLarge("fallback cover search ran out of its node budget")
    undom = full & ~dominated
    if undom == 0:
        return True
    if left == 0:
        return False
    # Every missing node needs an allowed neighbor picked eventually; branch
    # on the one with the fewest options.
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
    cand = adj[pick_node] & allowed
    while cand:
        u = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if _search(adj, full, left - 1, dominated | adj[u], allowed & ~(1 << u), nodes):
            return True
    return False


def _gamma_free_order(
    nbrs: dict[int, list[int]],
) -> tuple[list[int], list[int], dict[int, int], dict[int, int]] | None:
    """Rows and columns of the domination matrix in a doubly lexical
    order, with the final sort keys, or None if that order still holds a Γ.

    Returns (rows, cols, row_key, col_key). row_key[v] is v's neighbours as
    column-order bits (bit p for cols[p]) and col_key[u] is u's neighbours
    as row-order bits (bit p for rows[p]).
    """

    def keys(order: list[int]) -> dict[int, int]:
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
                return None
            a = b
    return rows, cols, row_key, col_key


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
    nbrs: dict[int, list[int]] = {v: [] for v in rest}
    for i, j in graph.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    order = _gamma_free_order(nbrs)

    # The rebuild carries a state (what is still to dominate, in the path's
    # own bits) and, once rest[t] is picked, may still pick from after[t]:
    # the nodes rest[t+1:], in the same bits.
    if order is None:
        nodes = iter(range(SEARCH_NODES))
        bit = {v: 1 << v for v in rest}
        full = sum(bit.values())
        start = 0

        def take(dominated: int, j: int) -> int:
            return dominated | adj[j]

        def fits(dominated: int, allowed: int, left: int) -> bool:
            """Can `left` more picks from `allowed` dominate the rest?"""
            return _search(adj, full, left, dominated, allowed, nodes)

        k = 0
        while not fits(start, full, k):
            k += 1
    else:
        # the pass of the module docstring, on row-order and column-order bits
        rows, cols, row_key, col_key = order
        bit = {u: 1 << p for p, u in enumerate(cols)}
        row_keys = [row_key[v] for v in rows]
        col_keys = [col_key[u] for u in cols]
        start = (1 << len(rows)) - 1

        def take(undominated: int, j: int) -> int:
            return undominated & ~col_key[j]

        def greedy(undominated: int, allowed: int, left: int) -> int:
            """Picks from `allowed` the pass makes to dominate the rows in
            `undominated`; left + 1 once it needs more than `left`."""
            count = 0
            while undominated:
                cand = row_keys[(undominated & -undominated).bit_length() - 1] & allowed
                if count == left or not cand:
                    return left + 1
                undominated &= ~col_keys[cand.bit_length() - 1]
                count += 1
            return count

        def fits(undominated: int, allowed: int, left: int) -> bool:
            """Can `left` more picks from `allowed` dominate the rest?"""
            return greedy(undominated, allowed, left) <= left

        k = greedy(start, (1 << len(cols)) - 1, n)

    after = [0] * len(rest)
    for t in range(len(rest) - 1, 0, -1):
        after[t - 1] = after[t] | bit[rest[t]]
    picks: list[int] = []

    def emit(state: int, first: int):
        if len(picks) == k:
            yield tuple(sorted(isolated + picks))
            return
        left = k - len(picks) - 1
        for t in range(first, len(rest)):
            j = rest[t]
            nxt = take(state, j)
            if fits(nxt, after[t], left):
                picks.append(j)
                yield from emit(nxt, t + 1)
                picks.pop()

    yield from emit(start, 0)


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
