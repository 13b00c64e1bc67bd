"""Ranked track-to-measurement assignments.

Cost matrices have one row per track and ``m + n`` columns: the first
``m`` columns are measurements, column ``m + i`` is row ``i``'s private
missed-detection column (set to +inf for every other row).  Forbidden
pairings carry +inf.  An assignment gives every row exactly one column,
using each measurement column at most once.

Assignments are reported as maps ``row -> j`` with ``j = 0`` for a miss
and ``j in 1..m`` for measurement ``j - 1``, together with their total
cost.  Results come out in nondecreasing cost with deterministic
tie-breaking.  ``ranked_assignments`` checks the matrix and enumerates
small problems exhaustively, handing larger ones to Murty's algorithm;
``ranked_one_label`` ranks many one-row problems at once with the same
results.
"""

import heapq
import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import UsageError

# Below this problem size exhaustive enumeration is cheaper than Murty's
# algorithm and exact by construction.
ENUMERATE_LIMIT = 16


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


def enumerate_assignments(cost, k):
    """The ``k`` cheapest finite assignments of the float matrix ``cost``
    by recursive enumeration, sorted by cost."""
    n = cost.shape[0]
    m = cost.shape[1] - n
    results = []

    def recurse(row, used, cols, acc):
        if row == n:
            results.append((_to_map(cols, m), acc))
            return
        for j in range(m):
            c = cost[row, j]
            if j not in used and np.isfinite(c):
                recurse(row + 1, used | {j}, cols + (j,), acc + float(c))
        c = cost[row, m + row]
        if np.isfinite(c):
            recurse(row + 1, used, cols + (m + row,), acc + float(c))

    recurse(0, frozenset(), (), 0.0)
    results.sort(key=lambda t: (t[1], t[0]))
    return results[: int(k)]


def murty_assignments(cost, k):
    """The ``k`` best assignments of the float matrix ``cost`` via Murty
    partitioning over the Hungarian solver."""
    n = cost.shape[0]
    m = cost.shape[1] - n
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


def ranked_assignments(cost, k):
    """Up to ``k`` best assignments of a padded cost matrix.

    Enumerates every valid assignment when ``rows * measurements <= 16``
    and runs Murty's algorithm otherwise.
    """
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
    if n * m <= ENUMERATE_LIMIT:
        return enumerate_assignments(cost, k)
    return murty_assignments(cost, k)


def ranked_one_label(cost, quota):
    """``ranked_assignments`` of one-row problems, stacked: row h of the
    (g, m + 1) ``cost`` holds problem h's cost of map j in column j, the
    miss in column 0, and ``quota[h]`` bounds its maps.  Returns the
    problem, map and score of every kept map, problem by problem, best
    first.

    Up to ``ENUMERATE_LIMIT`` measurements ``ranked_assignments``
    enumerates: the finite maps sorted by (score, j), its scores summed
    from 0.0, which one stable sort of the stacked rows gives.  Above it,
    Murty's algorithm orders bit-equal costs by its own rule, so every
    row takes ``ranked_assignments``' own maps."""
    g, width = cost.shape
    if width - 1 > ENUMERATE_LIMIT:
        maps = [(h, theta[0], s) for h, (row, q) in enumerate(zip(
            cost, quota.tolist())) for theta, s in ranked_assignments(
                np.append(row[1:], row[0])[None], q)]
        return tuple(np.array(part, dtype=dtype) for part, dtype in zip(
            zip(*maps) if maps else ((), (), ()), (int, int, float)))
    # Maps of a cost that is not finite rank last, as +inf.
    score = np.where(np.isfinite(cost), cost + 0.0, np.inf)
    order = score.argsort(1, kind="stable")
    ranked = score[np.arange(g)[:, None], order]
    hyp, rank = (np.isfinite(ranked) & (np.arange(width) < quota[:, None])
                 ).nonzero()
    return hyp, order[hyp, rank], ranked[hyp, rank]
