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
of a bipartite graph with colour classes A and B is two disjoint blocks:
the biadjacency block X, rows A against columns B, and its transpose, rows
B against columns A. Only X is ordered. A Γ's three 1s share a row and a
column, so all four of its cells lie in one block, and transposing maps a
Γ to a Γ, so X^T is Γ-free in X's order with rows and columns swapped. The
whole matrix takes rows A then B and columns B then A, in X's orders, and
its keys are X's keys shifted past the other block. It is Γ-free exactly
when X is, and X is totally balanced exactly when the whole matrix is, so
the greedy pass, the rebuild and the optimum they give do not change; the
sorts and the Γ check run on half the rows, columns and 1s. A graph with an
odd cycle is not ordered at all: its shortest odd cycle is induced, and
the rows and columns of an induced odd cycle of length L hold an L x L
cycle submatrix, so no order is Γ-free and the search takes it in index
order.

The order of X comes from alternating two stable sorts until neither moves
anything: rows ascending as binary numbers whose digits are the columns,
the last column most significant, then columns the same way over the rows.
Read row by row from its bottom-right corner, the matrix is
lexicographically no smaller after each sort, and strictly larger whenever
anything moved, so the loop ends. The last sort keys stay as the matrix:
each row is its columns as column-order bits, each column its rows as
row-order bits. The Γ check reads those masks, and every question runs
on them with one state, the undominated rows as one mask, which a picked
column's mask clears. A pass picks, for the lowest row left, the highest
bit of its mask within the allowed columns. It stops as soon as it needs
more picks than the question allows, so each candidate the rebuild tests
costs O(picks) big-int steps, not a walk over every row.

Where a Γ remains (an odd cycle, or a bipartite graph that is not chordal,
reachable only through the public API) the same question goes to an
exhaustive search on the matrix's masks. It branches on the undominated
row with the fewest allowed columns, and the size of an optimum comes from
iterative deepening. One optimal_covers call may spend at most
SEARCH_NODES nodes of that search and raises TooLarge past them. Deepening
to size k spends at least k nodes per size, so the budget also keeps the
search's recursion under about 450 levels.

The rebuild is one loop over a stack of (candidate, state before its
pick), not a call per pick, so no recursion limit caps an optimum's size.
Each depth advances to the next candidate that fits; depth k yields, and a
yield or a dead end backs up one level. A prefix that fits always extends
to an optimum, so no candidate before the first answer is tried twice.
"""

from __future__ import annotations

from functools import partial

from .errors import TooLarge
from .grid import IntersectionGraph

# Fallback search nodes one optimal_covers call may spend: about half a
# second, where the test suite's graphs need at most about 600.
SEARCH_NODES = 100_000


def _search(row_keys, col_keys, undominated: int, allowed: int, left: int, nodes) -> bool:
    """Can `left` more picks from the columns in `allowed` dominate the rows
    in `undominated`? Each call spends one item of the node budget, the
    iterator `nodes`; its depth is at most `left`."""
    if next(nodes, None) is None:
        raise TooLarge("fallback cover search ran out of its node budget")
    if undominated == 0:
        return True
    if left == 0:
        return False
    # Every undominated row needs an allowed column picked eventually;
    # branch on the one with the fewest options.
    fewest = -1
    m = undominated
    while m:
        low = m & -m
        m ^= low
        cand = row_keys[low.bit_length() - 1] & allowed
        if cand == 0:
            return False
        c = bin(cand).count("1")
        if fewest < 0 or c < fewest:
            fewest, options = c, cand
    while options:
        low = options & -options
        options ^= low
        rows = col_keys[low.bit_length() - 1]
        if _search(row_keys, col_keys, undominated & ~rows, allowed & ~low, left - 1, nodes):
            return True
    return False


def _greedy(row_keys, col_keys, undominated: int, allowed: int, left: int) -> int:
    """Picks from the columns in `allowed` the pass makes to dominate the
    rows in `undominated`; left + 1 once it needs more than `left`."""
    count = 0
    while undominated:
        cand = row_keys[(undominated & -undominated).bit_length() - 1] & allowed
        if count == left or not cand:
            return left + 1
        undominated &= ~col_keys[cand.bit_length() - 1]
        count += 1
    return count


def _two_colouring(nbrs: dict[int, list[int]]) -> dict[int, int] | None:
    """0 or 1 per node, neighbours apart, each component breadth first
    from its smallest node, which gets 0; None if an odd cycle forbids it."""
    colour: dict[int, int] = {}
    for s in nbrs:
        if s in colour:
            continue
        colour[s] = 0
        todo = [s]
        for v in todo:
            c = 1 - colour[v]
            for u in nbrs[v]:
                if u not in colour:
                    colour[u] = c
                    todo.append(u)
                elif colour[u] != c:
                    return None
    return colour


def _block_order(nbrs: dict[int, list[int]], rows: list[int], cols: list[int]):
    """rows and cols, the two sides of a biadjacency block, in a doubly
    lexical order, with the final sort keys: row_key[v] is v's neighbours
    as column-order bits, col_key[u] is u's as row-order bits.

    Returns (rows, cols, row_key, col_key).
    """

    def keys(nodes: list[int], order: list[int]) -> dict[int, int]:
        # each node's neighbors as a binary number, digit p for order[p]
        digit = {u: 1 << p for p, u in enumerate(order)}
        return {v: sum(map(digit.__getitem__, nbrs[v])) for v in nodes}

    moved = True
    while moved:
        # once the cols stay put, the rows just sorted against them do too
        row_key = keys(rows, cols)
        rows = sorted(rows, key=row_key.__getitem__)
        col_key = keys(cols, rows)
        new_cols = sorted(cols, key=col_key.__getitem__)
        moved = new_cols != cols
        cols = new_cols
    return rows, cols, row_key, col_key


def _gamma_free(row_keys: list[int], col_keys: list[int]) -> bool:
    """Does the matrix with these row and column keys hold no Γ? Per
    column, each two consecutive rows holding it must be nested in the
    columns after it. A column's rows come lowest bit first."""
    for p, held in enumerate(col_keys):
        a = 0
        while held:
            low = held & -held
            held ^= low
            b = row_keys[low.bit_length() - 1]
            if (a & ~b) >> (p + 1):
                return False
            a = b
    return True


def _domination_matrix(nbrs: dict[int, list[int]]) -> tuple[list, list, list, list, bool]:
    """The domination matrix of the nodes in nbrs (each with a neighbour),
    ordered, and whether that order is Γ-free.

    Returns (rows, cols, row_keys, col_keys, gamma_free): the nodes at
    each row and column position, each row's columns as column-position
    bits and each column's rows as row-position bits. A bipartite graph is
    ordered by its biadjacency block, rows by colour then columns the other
    way round (see the module docstring); any other graph keeps index order.
    """
    colour = _two_colouring(nbrs)
    if colour is None:
        # An odd cycle: no order is Γ-free, and the search takes any.
        bit = {v: 1 << p for p, v in enumerate(nbrs)}
        keys = [sum(map(bit.__getitem__, vs)) for vs in nbrs.values()]
        return list(nbrs), list(nbrs), keys, keys, False
    a, b, a_key, b_key = _block_order(
        nbrs, [v for v in nbrs if not colour[v]], [v for v in nbrs if colour[v]]
    )
    a_keys = [a_key[v] for v in a]
    b_keys = [b_key[u] for u in b]
    row_keys = a_keys + [k << len(b) for k in b_keys]
    col_keys = b_keys + [k << len(a) for k in a_keys]
    return a + b, b + a, row_keys, col_keys, _gamma_free(a_keys, b_keys)


def optimal_covers(graph: IntersectionGraph):
    """Yield every minimum guarded cover, smallest index tuple first.

    All optima share the same forced isolated nodes, so sorting them in
    keeps the lexicographic order of the yielded tuples intact. Callers
    that only need one answer should stop after the first item, as
    minimum_guarded_cover and run_pipeline do; the full enumeration is for
    tests and callers that compare optima.
    """
    n = graph.n
    if n == 0:
        yield ()
        return
    lists: list[list[int]] = [[] for _ in range(n)]
    for i, j in graph.edges:
        lists[i].append(j)
        lists[j].append(i)
    isolated = [v for v in range(n) if not lists[v]]
    nbrs = {v: vs for v, vs in enumerate(lists) if vs}
    if not nbrs:
        yield tuple(isolated)
        return
    rest = list(nbrs)
    rows, cols, row_keys, col_keys, gamma_free = _domination_matrix(nbrs)
    start, everything = (1 << len(rows)) - 1, (1 << len(cols)) - 1
    if gamma_free:

        def fits(undominated: int, allowed: int, left: int) -> bool:
            return _greedy(row_keys, col_keys, undominated, allowed, left) <= left

        k = _greedy(row_keys, col_keys, start, everything, len(cols))
    else:
        fits = partial(_search, row_keys, col_keys, nodes=iter(range(SEARCH_NODES)))
        k = 0
        while not fits(start, everything, k):
            k += 1

    # After picking rest[t], the picks may come from after[t]: the columns
    # of rest[t+1:]. The walk keeps (t, state before the pick) per pick.
    col_key = dict(zip(cols, col_keys))
    col_bit = {u: 1 << p for p, u in enumerate(cols)}
    after = [0] * len(rest)
    for t in range(len(rest) - 1, 0, -1):
        after[t - 1] = after[t] | col_bit[rest[t]]
    stack: list[tuple[int, int]] = []
    t, state = 0, start
    while True:
        if len(stack) == k:
            yield tuple(sorted(isolated + [rest[p] for p, _ in stack]))
            t = len(rest)  # nothing more at this depth: back up
        left = k - len(stack) - 1
        while t < len(rest) and not fits(state & ~col_key[rest[t]], after[t], left):
            t += 1
        if t < len(rest):
            stack.append((t, state))
            state &= ~col_key[rest[t]]
            t += 1
        elif stack:
            t, state = stack.pop()
            t += 1
        else:
            return


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
