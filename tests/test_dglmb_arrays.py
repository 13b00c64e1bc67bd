"""Array-backed delta-GLMB operations against their object-loop references.

Random densities have 1-4 labels, up to 30 hypotheses and mixtures shared
between hypotheses and labels.  Every operation must reproduce the
reference of ``oracles.py`` bit for bit (arrays by ``np.array_equal``,
floats by ``==``) and keep the density invariants.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from almbtrack import (GaussianMixture, Label,  # noqa: E402
                       NumericalError, dglmb_cardinality, dglmb_prune,
                       dglmb_to_lmb, gm_reduce)
from almbtrack.assignment import ranked_assignments  # noqa: E402
from almbtrack.dglmb import (_CONSOLIDATE_ATOL, _consolidate,  # noqa: E402
                             _finalize, _normalized, _ranked,
                             dglmb_drop_labels)
from almbtrack.pipeline import (DGLMB_PRUNE, CAP, GM_CAP,  # noqa: E402
                                GM_MERGE, GM_PRUNE, _cross_product,
                                _marginalize)

from conftest import random_mixture  # noqa: E402
from oracles import (dglmb_from_rows, enumerate_assignments,  # noqa: E402
                     ref_consolidate, ref_cross_product, ref_dedup,
                     ref_dglmb_cardinality, ref_dglmb_prune,
                     ref_dglmb_to_lmb, ref_drop_labels, ref_marginalize,
                     ref_mixture_average, ref_ranking, rows_of,
                     same_components, same_mixture)

SETTINGS = settings(max_examples=60, deadline=None)


def random_density(seed, n_labels, n_hyps, birth_step=0):
    """Hypotheses over ``n_labels`` labels drawing their mixtures from a
    small pool, so hypotheses and labels share mixtures; weights repeat
    often enough to exercise the label-set tie break."""
    rng = np.random.default_rng(seed)
    labels = [Label(birth_step, i) for i in range(n_labels)]
    pool = [random_mixture(rng, n_comp=int(rng.integers(1, 3)))
            for _ in range(int(rng.integers(1, 6)))]
    hyps = []
    for _ in range(n_hyps):
        chosen = tuple(lab for lab in labels if rng.random() < 0.6)
        weight = rng.choice([0.125, 0.25, rng.uniform(1e-7, 1.0)])
        hyps.append((chosen, float(weight), {
            lab: pool[int(rng.integers(len(pool)))] for lab in chosen}))
    return dglmb_from_rows(labels, hyps)


densities = st.builds(random_density, st.integers(0, 2 ** 32 - 1),
                      st.integers(1, 4), st.integers(1, 30))


def assert_matches(density, label_space, expected):
    """``density`` holds the (labels, weight, spatial) list ``expected``,
    weights by ``==`` and mixtures by identity or equal components."""
    assert density.label_space == tuple(label_space)
    rows = rows_of(density)
    assert len(rows) == len(expected)
    for (got_labels, got_weight, got_spatial), (labels, weight, spatial) \
            in zip(rows, expected):
        assert got_labels == tuple(labels)
        assert got_weight == weight
        assert all(same_mixture(got_spatial[lab], spatial[lab])
                   for lab in labels)


def assert_invariants(density):
    w = density.w
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    for r in dglmb_to_lmb(density).r:
        assert 0.0 <= r <= 1.0


def existence(density, label):
    return sum(weight for labels, weight, _ in rows_of(density)
               if label in labels)


@SETTINGS
@given(densities)
def test_to_lmb_matches_object_loop(d):
    view = dglmb_to_lmb(d)
    expected = ref_dglmb_to_lmb(d)
    assert view.label_space == tuple(expected)
    for (label, (r, components)), got_r, gm in zip(
            expected.items(), view.r, view.mixtures):
        assert got_r == r
        assert 0.0 <= got_r <= 1.0
        assert same_components(gm, components)
    assert dglmb_to_lmb(d) is view


@SETTINGS
@given(densities)
def test_cardinality_matches_object_loop(d):
    assert np.array_equal(dglmb_cardinality(d), ref_dglmb_cardinality(d))


@SETTINGS
@given(densities, st.sampled_from([0.0, 1e-5, 0.05, 0.3]),
       st.sampled_from([1, 3, 50]))
def test_prune_matches_object_loop(d, threshold, cap):
    d = d.normalized()
    out = dglmb_prune(d, threshold, cap)
    assert_matches(out, d.label_space,
                   ref_dglmb_prune(rows_of(d), threshold, cap))
    assert_invariants(out)


@SETTINGS
@given(densities, st.builds(random_density, st.integers(0, 2 ** 32 - 1),
                            st.integers(1, 4), st.integers(1, 30),
                            st.just(1)))
def test_cross_product_matches_object_loop(a, b):
    a, b = a.normalized(), b.normalized()
    out = _cross_product(a, b)
    assert_matches(out, sorted(a.label_space + b.label_space),
                   ref_cross_product(a, b, DGLMB_PRUNE, CAP))
    assert_invariants(out)


@SETTINGS
@given(densities, st.integers(0, 2 ** 4 - 1))
def test_drop_labels_matches_object_loop(d, mask):
    d = d.normalized()
    doomed = {lab for k, lab in enumerate(d.label_space) if mask >> k & 1}
    out = dglmb_drop_labels(d, doomed)
    assert_matches(out, [lab for lab in d.label_space if lab not in doomed],
                   ref_drop_labels(d, doomed))
    assert_invariants(out)


def reference_reduce(parts, weight):
    return gm_reduce(GaussianMixture(*zip(*ref_mixture_average(
        parts, weight))), GM_PRUNE, GM_MERGE, GM_CAP)


@SETTINGS
@given(densities, st.integers(1, 2 ** 4 - 1))
def test_marginalize_matches_object_loop_and_keeps_existence(d, mask):
    d = d.normalized()
    members = {lab for k, lab in enumerate(d.label_space) if mask >> k & 1} \
        or {d.label_space[0]}
    out = _marginalize(d, members)
    assert_matches(out, sorted(members),
                   ref_marginalize(d, members, reference_reduce))
    assert_invariants(out)
    for label in members:
        assert abs(existence(out, label) - existence(d, label)) <= 1e-12


def near_copy(gm, offset):
    # ``gm`` with every mean entry shifted by ``offset``.
    return GaussianMixture(gm.w, gm.m + offset, gm.P)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(2, 30))
def test_consolidate_matches_concatenated_compare(seed, n_labels, n_rows):
    # Mixtures come in families of near copies, so many rows are close.
    rng = np.random.default_rng(seed)
    labels = [Label(0, i) for i in range(n_labels)]
    mixtures = []
    for _ in range(3):
        base = random_mixture(rng, n_comp=int(rng.integers(1, 3)))
        mixtures += [base] + [near_copy(base, off) for off in (
            0.5 * _CONSOLIDATE_ATOL, _CONSOLIDATE_ATOL,
            2.0 * _CONSOLIDATE_ATOL)]
    index = np.where(rng.random((n_rows, n_labels)) < 0.7,
                     rng.integers(len(mixtures), size=(n_rows, n_labels)), -1)
    log_w = rng.choice([-1.0, -2.0, -3.0], n_rows) + np.where(
        rng.random(n_rows) < 0.5, 0.0, rng.normal(0.0, 0.1, n_rows))
    kept, merged = _consolidate(index, log_w.tolist(), mixtures)
    entries = [(tuple(lab for lab, i in zip(labels, row) if i >= 0), lw,
                {lab: mixtures[i] for lab, i in zip(labels, row) if i >= 0},
                e) for e, (row, lw) in enumerate(zip(index, log_w))]
    assert list(zip(kept, merged)) == ref_consolidate(entries,
                                                      _CONSOLIDATE_ATOL)


def reference_finalize(rows, log_w, mixtures, cap):
    """``_finalize`` of list rows by the loops: ``ref_dedup``, the finite
    rows, ``ref_consolidate``, ``ref_ranking`` where rows merged, the cap
    and ``_normalized``."""
    labels = [Label(0, k) for k in range(len(rows[0]))]
    entries, first = [], {}
    for e, (row, lw) in enumerate(zip(rows, log_w)):
        spatial = {lab: mixtures[i] for lab, i in zip(labels, row) if i >= 0}
        entries.append((tuple(spatial), lw, spatial))
        first.setdefault(tuple(row), e)
    kept = []
    for labs, lw, spatial in ref_dedup(entries):
        row = tuple(mixtures.index(spatial[lab]) if lab in spatial else -1
                    for lab in labels)
        if np.isfinite(lw):
            kept.append((labs, lw, spatial, first[row]))
    if not kept:
        raise NumericalError("all hypothesis weights vanished")
    merged = ref_consolidate(kept, _CONSOLIDATE_ATOL)
    if len(merged) < len(kept):
        order = ref_ranking([rows[e] for e, _ in merged],
                            [lw for _, lw in merged])
        merged = [merged[i] for i in order]
    merged = merged[: int(cap)]
    return [e for e, _ in merged], _normalized([lw for _, lw in merged])


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 40),
       st.sampled_from([1, 3, 50]), st.sampled_from([0.0, 0.2, 1.0]))
def test_finalize_matches_the_loops(seed, n_labels, n_rows, cap, vanish):
    # Rows drawn from a few candidates repeat; weights from a few values
    # tie, also between a label set and its extensions ([0] against
    # [0, 1]); a share ``vanish`` of the rows is at -inf.  Mixtures of one
    # and two components come in families of near copies, so rows merge.
    rng = np.random.default_rng(seed)
    mixtures = []
    for _ in range(3):
        base = random_mixture(rng, n_comp=int(rng.integers(1, 3)))
        mixtures += [base] + [near_copy(base, off) for off in (
            0.5 * _CONSOLIDATE_ATOL, 2.0 * _CONSOLIDATE_ATOL)]
    candidates = np.where(
        rng.random((max(1, n_rows // 2), n_labels)) < 0.7,
        rng.integers(len(mixtures), size=(max(1, n_rows // 2), n_labels)),
        -1)
    rows = candidates[rng.integers(len(candidates), size=n_rows)]
    log_w = rng.choice([-1.0, -2.0, rng.normal()], n_rows)
    log_w[rng.random(n_rows) < vanish] = -np.inf
    try:
        expected = reference_finalize(rows.tolist(), log_w.tolist(),
                                      mixtures, cap)
    except NumericalError:
        with pytest.raises(NumericalError):
            _finalize(rows, log_w, mixtures, cap)
        return
    keep, w = _finalize(rows, log_w, mixtures, cap)
    assert keep.tolist() == expected[0]
    assert w.tolist() == expected[1].tolist()


def test_finalize_of_no_rows_raises():
    # Every hypothesis lost all its maps, as at p_D = 1 with an empty gate.
    with pytest.raises(NumericalError):
        _finalize(np.zeros((0, 2), dtype=int), np.zeros(0), [], 50)


def test_finalize_breaks_a_prefix_tie_by_label_set():
    # Equal weights: the label set [0] ranks before its extension [0, 1]
    # and the empty set before both, whatever the row order.
    mixtures = [GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)]),
                GaussianMixture([1.0], [[50.0, 0.0]], [np.eye(2)])]
    rows = np.array([[0, 1], [0, -1], [-1, -1]])
    keep, w = _finalize(rows, np.array([-1.0, -1.0, -1.0]), mixtures, 50)
    assert keep.tolist() == [2, 1, 0]
    assert keep.tolist() == reference_finalize(
        rows.tolist(), [-1.0] * 3, mixtures, 50)[0]


@pytest.mark.parametrize("m", [3, 16, 17, 18, 19, 20])
def test_one_label_maps_rank_like_ranked_assignments(m):
    # Costs repeat bit for bit, a measurement may tie the miss, +inf
    # forbids a map, and NaN and -inf costs are not finite either; every
    # quota from 1 to m + 1, all rows in one stacked call and each alone.
    # Up to 16 measurements the maps are the recursive enumeration's.
    # Above, ranked_assignments runs Murty's algorithm, whose order of
    # tied costs is its own, and every row takes its maps.
    rng = np.random.default_rng(m)
    for _ in range(4):
        cost = rng.choice([0.5, 1.0, 2.5, np.inf], (8, m + 1))
        cost[:3] = rng.normal(size=(3, m + 1))  # no ties
        cost[3, 1:] = np.where(rng.random(m) < 0.3, np.inf,
                               rng.normal(size=m))
        cost[3, 1 + int(rng.integers(m))] = cost[3, 0]  # ties the miss
        cost[4, 0] = np.inf  # p_D = 1: no miss
        cost[5, 1 + int(rng.integers(m))] = np.nan
        cost[6, 1 + int(rng.integers(m))] = -np.inf
        for quota in range(1, m + 2):
            quotas = np.full(len(cost), quota)
            hyp, j, score = _ranked(cost[:, None], quotas)
            for h, row in enumerate(cost):
                padded = np.append(row[1:], row[0])[None]
                expected = (enumerate_assignments if m <= 16 else
                            ranked_assignments)(padded, quota)
                alone = _ranked(row[None, None], quotas[:1])
                for hyp_, j_, score_, h_ in [(hyp, j, score, h),
                                             (*alone, 0)]:
                    assert [tuple(x) for x in j_[hyp_ == h_].tolist()] == \
                        [theta for theta, _ in expected]
                    assert score_[hyp_ == h_].tolist() == \
                        [s for _, s in expected]
