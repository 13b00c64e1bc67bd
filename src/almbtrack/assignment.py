"""Ranked track-to-measurement assignments.

A problem of k rows (tracks) and m measurements gives every row one
option: ``j = 0``, its miss, or ``j in 1..m``, measurement ``j - 1``,
each measurement taken at most once.  Such a map ``row -> j`` costs the
sum of its rows' costs; forbidden options cost +inf.  Maps come out in
nondecreasing cost with deterministic tie-breaking.

Two rankers, one per size.  ``ranked_stack`` enumerates: it ranks many
problems of one shape with k * m at most ``ENUMERATE_LIMIT`` at once,
from their stacked costs ``cost[h, i, j]``, through one table of every
map.  ``ranked_assignments`` runs Murty's algorithm on one larger
problem's padded matrix of ``m + k`` columns: the ``m`` measurements,
then in column ``m + i`` row ``i``'s private miss, which is +inf in every
other row.
"""

import functools
import heapq
import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import UsageError

# Up to this many cells (rows times measurements) exhaustive enumeration
# is cheaper than Murty's algorithm and exact by construction.
ENUMERATE_LIMIT = 16


@functools.lru_cache(maxsize=None)
def _maps(k, m):
    """Every map of ``k`` rows over ``m`` measurements, a read-only (maps,
    k) int array in lexicographic order: each prefix extended by the miss,
    then by each measurement it has not taken, ascending."""
    maps = [()]
    for _ in range(k):
        maps = [t + (j,) for t in maps for j in range(m + 1)
                if not j or j not in t]
    table = np.array(maps, dtype=int).reshape(len(maps), k)
    table.flags.writeable = False
    return table


def ranked_stack(cost, quota):
    """Rank the stacked problems of one shape: ``cost[h, i, j]`` is
    problem h's cost of giving row i option j, and ``quota[h]`` bounds its
    maps.  Returns the problem, map (a row of k options) and score of
    every kept map, problem by problem, best first.

    A map's score adds its rows' costs in row order to 0.0.  A map with a
    cost that is not finite, or whose sum overflows, is dropped, and each
    problem's maps are sorted stably by score, so that equal scores rank
    in lexicographic map order.
    """
    g, k, width = cost.shape
    # A cost that is not finite reads +inf, and so does a map holding one.
    cost = np.where(np.isfinite(cost), cost + 0.0, np.inf)
    if k == 1:
        # The map table is the identity.
        score, maps = cost[:, 0], None
    else:
        maps = _maps(k, width - 1)
        score = np.zeros((g, len(maps)))
        for i in range(k):
            score += cost[:, i, maps[:, i]]
    order = score.argsort(1, kind="stable")
    ranked = score[np.arange(g)[:, None], order]
    hyp, rank = (np.isfinite(ranked) & (np.arange(score.shape[1])
                                        < quota[:, None])).nonzero()
    pick = order[hyp, rank]
    return hyp, pick[:, None] if k == 1 else maps[pick], ranked[hyp, rank]


def _to_map(cols, m):
    return tuple(0 if c >= m else c + 1 for c in cols)


def _solve(cost):
    """Best assignment of all rows, or None if no finite one exists."""
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return None
    value = float(cost[rows, cols].sum())
    if not np.isfinite(value):
        return None
    order = np.argsort(rows)
    return tuple(int(c) for c in cols[order]), value


def ranked_assignments(cost, k):
    """Up to ``k`` best assignments of a padded cost matrix, as
    ``(map, cost)`` pairs, by Murty's partitioning over the Hungarian
    solver (Murty, Operations Research 1968)."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise UsageError("cost must be a matrix")
    n = cost.shape[0]
    m = cost.shape[1] - n
    if m < 0:
        raise UsageError("cost matrix needs one miss column per row")
    k = int(k)
    if k <= 0:
        return []
    if n == 0:
        return [((), 0.0)]
    first = _solve(cost)
    if first is None:
        return []
    seq = itertools.count()
    heap = [(first[1], next(seq), first[0], cost)]
    out = []
    while heap and len(out) < k:
        value, _, cols, matrix = heapq.heappop(heap)
        out.append((_to_map(cols, m), value))
        # Partition: child i bans row i's current column and pins the
        # assignments of all earlier rows.
        for i in range(n):
            child = matrix.copy()
            child[i, cols[i]] = np.inf
            for r in range(i):
                keep = child[r, cols[r]]
                child[r, :] = np.inf
                child[r, cols[r]] = keep
            sol = _solve(child)
            if sol is not None:
                heapq.heappush(heap, (sol[1], next(seq), sol[0], child))
    return out
