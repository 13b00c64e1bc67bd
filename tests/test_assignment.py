"""Ranked assignment search: the stacked ranking, Murty's algorithm and
the recursive enumeration of ``oracles.py`` agree and are ordered."""

import numpy as np
import pytest

from almbtrack import UsageError
from almbtrack.assignment import (ENUMERATE_LIMIT, murty_assignments,
                                  ranked_assignments, ranked_stack)

from conftest import CAP
from oracles import enumerate_assignments

INF = np.inf


def pad(cost_z, miss):
    """Assemble the padded matrix from an n x m block and miss costs."""
    cost_z = np.asarray(cost_z, dtype=float)
    n = cost_z.shape[0]
    out = np.full((n, cost_z.shape[1] + n), INF)
    out[:, : cost_z.shape[1]] = cost_z
    for i in range(n):
        out[i, cost_z.shape[1] + i] = miss[i]
    return out


def test_single_row_orderings():
    # One track, one measurement: hit cost 1, miss cost 2.
    cost = pad([[1.0]], [2.0])
    out = ranked_assignments(cost, CAP)
    assert out == [((1,), 1.0), ((0,), 2.0)]
    # Cheaper miss flips the order.
    out = ranked_assignments(pad([[3.0]], [2.0]), CAP)
    assert out == [((0,), 2.0), ((1,), 3.0)]


def test_two_by_two_complete_list():
    cost = pad([[1.0, 4.0], [3.0, 2.0]], [10.0, 10.0])
    out = ranked_assignments(cost, CAP)
    maps = [a for a, _ in out]
    # 7 valid maps: 2 full matchings, 4 single-hit, 1 double miss.
    assert len(maps) == 7
    assert out[0] == ((1, 2), 3.0)
    assert out[-1] == ((0, 0), 20.0)
    costs = [c for _, c in out]
    assert costs == sorted(costs)


def test_forbidden_pairings_excluded():
    cost = pad([[INF, 5.0]], [1.0])
    maps = [a for a, _ in ranked_assignments(cost, CAP)]
    assert (1,) not in maps
    assert maps == [(0,), (2,)]


def test_k_larger_than_count_returns_all():
    cost = pad([[1.0]], [2.0])
    assert len(ranked_assignments(cost, 99)) == 2
    assert len(murty_assignments(cost, 99)) == 2


def test_k_zero_and_empty_problem():
    cost = pad([[1.0]], [2.0])
    assert ranked_assignments(cost, 0) == []
    empty = np.zeros((0, 0))
    assert ranked_assignments(empty, 5) == [((), 0.0)]


def test_murty_matches_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 5))
        block = rng.normal(0.0, 3.0, (n, m))
        block[rng.random((n, m)) < 0.2] = INF
        miss = rng.normal(0.0, 3.0, n)
        cost = pad(block, miss)
        full = enumerate_assignments(cost, CAP)
        murty = murty_assignments(cost, len(full) + 5)
        assert len(murty) == len(full)
        np.testing.assert_allclose([c for _, c in murty],
                                   [c for _, c in full], atol=1e-9)
        assert sorted(a for a, _ in murty) == sorted(a for a, _ in full)


def test_murty_prefix_of_full_ordering(rng):
    # The k-best list scores must match the first k enumeration scores.
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        cost = pad(rng.normal(0.0, 2.0, (n, m)), rng.normal(0.0, 2.0, n))
        full = enumerate_assignments(cost, CAP)
        k = max(1, len(full) // 2)
        murty = murty_assignments(cost, k)
        np.testing.assert_allclose([c for _, c in murty],
                                   [c for _, c in full[:k]], atol=1e-9)


def test_maps_are_distinct(rng):
    cost = pad(rng.normal(0.0, 1.0, (3, 3)), rng.normal(0.0, 1.0, 3))
    for out in (ranked_assignments(cost, 100),
                murty_assignments(cost, 100)):
        maps = [a for a, _ in out]
        assert len(maps) == len(set(maps))


def test_measurement_used_at_most_once():
    cost = pad([[0.0], [0.0]], [5.0, 5.0])
    for a, _ in ranked_assignments(cost, CAP):
        hits = [j for j in a if j > 0]
        assert len(hits) == len(set(hits))


def test_bad_inputs_raise():
    with pytest.raises(UsageError):
        ranked_assignments(np.zeros((2, 1)), 3)
    with pytest.raises(UsageError):
        ranked_assignments(np.zeros(4), 3)


# Every shape the stacked ranking takes: k rows over m measurements with
# k * m at most ENUMERATE_LIMIT, and rows over no measurement.
SHAPES = [(k, m) for k in range(17) for m in range(17)
          if k * m <= ENUMERATE_LIMIT and (k or m in (0, 3))] + [(20, 0)]


def padded(cost):
    """The padded matrix of one problem's (k, m + 1) costs, miss first."""
    k, m = cost.shape[0], cost.shape[1] - 1
    out = np.full((k, m + k), INF)
    out[:, :m] = cost[:, 1:]
    out[np.arange(k), m + np.arange(k)] = cost[:, 0]
    return out


def bits(ranked):
    """A ranked list's maps and the bytes of its scores."""
    ranked = list(ranked)
    return ([tuple(t) for t, _ in ranked],
            np.array([s for _, s in ranked], dtype=float).tobytes())


@pytest.mark.parametrize("k, m", SHAPES)
def test_stack_ranks_like_the_enumeration(k, m):
    # Costs drawn from a few values tie often, bit for bit; +-0.0 tie
    # too, +inf forbids an option, and NaN and -inf are not finite
    # either.  Quotas run from 0 to past the count of maps.  Each
    # problem's maps and score bits, in the stacked call and alone, are
    # the recursion's, and ranked_assignments gives them too.
    rng = np.random.default_rng(100 * k + m)
    pool = [0.5, 1.0, 2.5, 0.0, -0.0, -1.5, INF, -INF, np.nan]
    for _ in range(3):
        cost = rng.normal(size=(6, k, m + 1))
        cost[1:] = np.where(rng.random(cost[1:].shape) < 0.6,
                            rng.choice(pool, cost[1:].shape), cost[1:])
        quota = rng.integers(0, 30, len(cost))
        quota[0] = CAP
        hyp, maps, score = ranked_stack(cost, quota)
        assert maps.shape == (len(hyp), k)
        for h, (problem, q) in enumerate(zip(cost, quota.tolist())):
            want = bits(enumerate_assignments(padded(problem), q))
            alone = ranked_stack(problem[None], quota[h:h + 1])
            for hyp_, maps_, score_ in [(hyp, maps, score), alone]:
                got = hyp_ == (h if hyp_ is hyp else 0)
                assert bits(zip(maps_[got].tolist(),
                                score_[got].tolist())) == want
            assert bits(ranked_assignments(padded(problem), q)) == \
                (want if q else ([], b""))


def test_stack_of_no_problem():
    hyp, maps, score = ranked_stack(np.zeros((0, 2, 4)),
                                    np.zeros(0, dtype=int))
    assert hyp.shape == score.shape == (0,) and maps.shape == (0, 2)
