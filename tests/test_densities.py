"""Labeled density containers and the LMB <-> delta-GLMB conversions."""

import itertools

import numpy as np
import pytest

from almbtrack import (Label, NumericalError, dglmb_cardinality,
                       dglmb_to_lmb, lmb_cardinality, lmb_to_dglmb)
from almbtrack.densities import segment_sums, top_weighted_subsets

from conftest import CAP, single
from oracles import (dglmb_from_rows, existence_from_dglmb,
                     lmb_from_tracks, mean_cardinality, rows_of, tracks_of)


def make_lmb(existences):
    return lmb_from_tracks({Label(0, i): (r, single([float(i), 0.0],
                                                     np.eye(2)))
                            for i, r in enumerate(existences)})


def hyp_map(d):
    return {labels: weight for labels, weight, _ in rows_of(d)}


def test_label_ordering_and_repr():
    assert Label(1, 0) < Label(1, 1) < Label(2, 0)
    assert repr(Label(3, 2)) == "L(3,2)"


@pytest.mark.parametrize("weight", [0.0, np.nan, np.inf])
def test_dglmb_normalized_rejects_a_total_not_positive_and_finite(weight):
    label = Label(0, 0)
    d = dglmb_from_rows([label], [((), weight, {}), (
        (label,), 0.0, {label: single([0.0, 0.0], np.eye(2))})])
    with pytest.raises(NumericalError) as err:
        d.normalized()
    total = err.value.diagnostics["total"]
    assert total == weight or np.isnan(total) and np.isnan(weight)


def test_expand_single_half():
    d = lmb_to_dglmb(make_lmb([0.5]), CAP)
    w = hyp_map(d)
    assert w[()] == pytest.approx(0.5, abs=1e-12)
    assert w[(Label(0, 0),)] == pytest.approx(0.5, abs=1e-12)


def test_expand_two_tracks_uniform():
    d = lmb_to_dglmb(make_lmb([0.5, 0.5]), CAP)
    w = hyp_map(d)
    assert len(w) == 4
    for weight in w.values():
        assert weight == pytest.approx(0.25, abs=1e-12)


def test_expand_empty():
    d = lmb_to_dglmb(lmb_from_tracks({}), CAP)
    assert hyp_map(d) == {(): pytest.approx(1.0)}


def test_expand_general_products():
    rs = [0.2, 0.7, 0.9]
    d = lmb_to_dglmb(make_lmb(rs), CAP)
    w = hyp_map(d)
    labels = [Label(0, i) for i in range(3)]
    for bits in itertools.product([0, 1], repeat=3):
        expected = 1.0
        for i, b in enumerate(bits):
            expected *= rs[i] if b else 1.0 - rs[i]
        key = tuple(lab for i, lab in enumerate(labels) if bits[i])
        assert w[key] == pytest.approx(expected, abs=1e-12)


def test_expand_cap_keeps_heaviest_and_renormalizes():
    d = lmb_to_dglmb(make_lmb([0.9, 0.8, 0.7]), max_hypotheses=3)
    assert len(d.hypotheses) == 3
    assert d.w.sum() == pytest.approx(1.0, abs=1e-12)
    # Heaviest subsets of {0.9, 0.8, 0.7}: all three (0.504), drop the
    # 0.7 one (0.216), drop the 0.8 one (0.126).
    ordered = sorted(d.w)[::-1]
    raw = np.array([0.504, 0.216, 0.126])
    np.testing.assert_allclose(ordered, raw / raw.sum(), atol=1e-12)


def test_expand_certain_track_clamped():
    d = lmb_to_dglmb(make_lmb([1.0]), CAP)
    w = hyp_map(d)
    assert w[(Label(0, 0),)] == pytest.approx(1.0, abs=1e-8)
    assert d.w.sum() == pytest.approx(1.0, abs=1e-12)


def test_collapse_single_certain_hypothesis():
    lab = Label(0, 0)
    d = dglmb_from_rows((lab,), [((lab,), 1.0,
                                  {lab: single([0.0], [[1.0]])})])
    lmb = dglmb_to_lmb(d)
    assert tracks_of(lmb)[lab][0] == pytest.approx(1.0, abs=1e-12)


def test_collapse_pairwise_half():
    l1, l2 = Label(0, 0), Label(0, 1)
    g = single([0.0], [[1.0]])
    d = dglmb_from_rows((l1, l2), [
        ((), 0.5, {}),
        ((l1, l2), 0.5, {l1: g, l2: g}),
    ])
    lmb = dglmb_to_lmb(d)
    assert lmb.label_space == (l1, l2)
    assert lmb.r == pytest.approx([0.5, 0.5], abs=1e-12)


def test_collapse_matches_existence_helper():
    l1, l2 = Label(0, 0), Label(1, 0)
    g = single([0.0], [[1.0]])
    d = dglmb_from_rows((l1, l2), [
        ((l1,), 0.3, {l1: g}),
        ((l2,), 0.2, {l2: g}),
        ((l1, l2), 0.5, {l1: g, l2: g}),
    ])
    lmb = dglmb_to_lmb(d)
    for lab in (l1, l2):
        assert tracks_of(lmb)[lab][0] == pytest.approx(
            existence_from_dglmb(d, lab), abs=1e-12)


def test_round_trip_existences(rng):
    for _ in range(20):
        rs = rng.uniform(0.05, 0.95, rng.integers(1, 6))
        lmb = make_lmb(rs)
        back = dglmb_to_lmb(lmb_to_dglmb(lmb, CAP))
        for i, r in enumerate(rs):
            assert tracks_of(back)[Label(0, i)][0] == pytest.approx(
                r, abs=1e-9)


def test_cardinality_single():
    np.testing.assert_allclose(lmb_cardinality(make_lmb([0.6])), [0.4, 0.6],
                               atol=1e-12)


def test_cardinality_two_halves():
    np.testing.assert_allclose(lmb_cardinality(make_lmb([0.5, 0.5])),
                               [0.25, 0.5, 0.25], atol=1e-12)


def brute_cardinality(rs):
    rho = np.zeros(len(rs) + 1)
    for bits in itertools.product([0, 1], repeat=len(rs)):
        p = 1.0
        for r, b in zip(rs, bits):
            p *= r if b else 1.0 - r
        rho[sum(bits)] += p
    return rho


def test_cardinality_matches_subset_enumeration(rng):
    for _ in range(10):
        rs = rng.uniform(0.0, 1.0, int(rng.integers(1, 9)))
        np.testing.assert_allclose(lmb_cardinality(make_lmb(rs)),
                                   brute_cardinality(rs), atol=1e-12)


def test_dglmb_cardinality_sums_by_size():
    l1, l2 = Label(0, 0), Label(0, 1)
    g = single([0.0], [[1.0]])
    d = dglmb_from_rows((l1, l2), [
        ((), 0.1, {}),
        ((l1,), 0.3, {l1: g}),
        ((l2,), 0.2, {l2: g}),
        ((l1, l2), 0.4, {l1: g, l2: g}),
    ])
    np.testing.assert_allclose(dglmb_cardinality(d), [0.1, 0.5, 0.4],
                               atol=1e-12)


def test_mean_cardinality_of_distribution():
    assert mean_cardinality([0.25, 0.5, 0.25]) == pytest.approx(1.0)
    assert mean_cardinality([0.0, 0.0, 1.0]) == pytest.approx(2.0)


def test_mean_cardinality_identity_across_conversion(rng):
    # Expected |X| of an LMB is sum of existences; expansion keeps it.
    rs = rng.uniform(0.0, 1.0, 5)
    lmb = make_lmb(rs)
    d = lmb_to_dglmb(lmb, CAP)
    assert mean_cardinality(dglmb_cardinality(d)) == pytest.approx(
        float(np.sum(rs)), abs=1e-10)


def test_top_weighted_subsets_order():
    odds = np.log([0.9 / 0.1, 0.2 / 0.8])
    out = list(top_weighted_subsets(odds, CAP))
    assert [s for s, _ in out] == [(0,), (0, 1), (), (1,)]
    rel = np.array([w for _, w in out])
    assert np.all(np.diff(rel) <= 1e-12)


def test_top_weighted_subsets_limit():
    odds = np.zeros(4)
    out = list(top_weighted_subsets(odds, limit=5))
    assert len(out) == 5


def test_segment_sums_match_np_sum(rng):
    # Segments of 0-20 terms of mixed magnitudes, in any order in the flat
    # array: np.sum sums fewer than 8 terms one at a time and more
    # pairwise, and each segment must get its bits.
    for _ in range(200):
        count = int(rng.integers(1, 6))
        sizes = rng.integers(0, 21, count)
        segments = rng.permutation(np.repeat(np.arange(count), sizes))
        values = rng.random(len(segments)) * 10.0 ** rng.integers(
            -8, 8, len(segments))
        got = segment_sums(values, segments, count)
        assert got.tolist() == [np.sum(values[segments == k])
                                for k in range(count)]
