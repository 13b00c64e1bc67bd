"""delta-GLMB prediction, update, and pruning against brute-force oracles."""

import numpy as np
import pytest

from almbtrack import (ConfigurationError, GaussianMixture, Label,
                       NumericalError, SensorModel, dglmb_predict,
                       dglmb_prune, dglmb_update, lmb_to_dglmb)
from almbtrack import dglmb
from almbtrack.assignment import ENUMERATE_LIMIT
from almbtrack.dglmb import _CONSOLIDATE_ATOL, _consolidate
from almbtrack.gaussian import MotionModel, gate_mask, gm_kalman_update_log
from almbtrack.pipeline import GATE_SQ, DensityGroup, gate_measurements

from conftest import CAP, cv_motion, random_mixture, scalar_sensor, single
from oracles import (brute_dglmb_update, dglmb_from_rows,
                     existence_from_dglmb, lmb_from_tracks,
                     random_lmb_instance, ref_consolidate, rows_of,
                     same_mixture)

L0 = Label(0, 0)
LB = Label(1, 0)


def one_track_density(existence=1.0, mean=(0.0,), cov=((1.0,),)):
    gm = single(mean, cov)
    if existence >= 1.0:
        return dglmb_from_rows((L0,), [((L0,), 1.0, {L0: gm})])
    return lmb_to_dglmb(lmb_from_tracks({L0: (existence, gm)}), CAP)


def hyp_map(d):
    out = {}
    for labels, weight, _ in rows_of(d):
        out[labels] = out.get(labels, 0.0) + weight
    return out


def test_predict_survival_split():
    motion = MotionModel(np.eye(1), np.zeros((1, 1)), 0.99)
    out = dglmb_predict(one_track_density(), motion, CAP)
    w = hyp_map(out)
    assert w[()] == pytest.approx(0.01, abs=1e-12)
    assert w[(L0,)] == pytest.approx(0.99, abs=1e-12)


def test_predict_unit_survival_identity_weights():
    motion = MotionModel(np.eye(1), np.zeros((1, 1)), 1.0)
    prior = one_track_density(existence=0.5)
    out = dglmb_predict(prior, motion, CAP)
    assert hyp_map(out) == pytest.approx(hyp_map(prior))


def test_predict_applies_kalman_prediction():
    motion = cv_motion(dt=1.0, accel_var=0.0, survival=1.0)
    gm = single([0.0, 0.0, 3.0, -1.0], np.eye(4))
    d = dglmb_from_rows((L0,), [((L0,), 1.0, {L0: gm})])
    out = dglmb_predict(d, motion, CAP)
    (_, _, spatial), = rows_of(out)
    np.testing.assert_allclose(spatial[L0].m[0], [3.0, -1.0, 3.0, -1.0])


def test_predict_with_a_motion_model_of_another_dimension_raises():
    d = dglmb_from_rows((L0,), [((L0,), 1.0, {L0: single([0.0, 0.0],
                                                         np.eye(2))})])
    with pytest.raises(ConfigurationError):
        dglmb_predict(d, cv_motion(), CAP)


def test_update_of_an_ungated_table_raises_for_an_unfactorable_covariance():
    # R = -I makes S = P + R = 0 for a unit covariance: no factor.  The
    # update fills the terms the table lacks, and that fill raises.
    sensor = SensorModel(np.eye(2), -np.eye(2), 0.9, 1e-4)
    d = dglmb_from_rows((L0, LB), [
        ((L0, LB), 1.0, {L0: single([0.0, 0.0], 2.0 * np.eye(2)),
                         LB: single([5.0, 5.0], np.eye(2))})])
    with pytest.raises(NumericalError) as err:
        dglmb_update(d, [np.array([0.5, 0.5])], sensor, cap=CAP, gate_sq=9.0)
    assert err.value.diagnostics["what"] == "innovation covariance"
    np.testing.assert_array_equal(err.value.diagnostics["matrix"],
                                  np.zeros((2, 2)))


def test_update_empty_measurement_set():
    # With no measurements every label multiplies by (1 - p_D).
    sensor = scalar_sensor(1.0, detection_prob=0.5, clutter_density=1e-3)
    prior = lmb_to_dglmb(lmb_from_tracks({
        L0: (0.3, single([0.0], [[1.0]])),
        LB: (0.8, single([5.0], [[1.0]])),
    }), CAP)
    out = dglmb_update(prior, [], sensor, cap=CAP, gate_sq=np.inf)
    raw = {labels: weight * 0.5 ** len(labels)
           for labels, weight, _ in rows_of(prior)}
    tot = sum(raw.values())
    got = hyp_map(out.posterior)
    for key, val in raw.items():
        assert got[key] == pytest.approx(val / tot, abs=1e-12)
    assert out.assoc_marginals.shape == (2, 0)


def test_update_miss_and_hit_thirds():
    # One certain track, one zero-innovation measurement, p_D = 1/2 and
    # clutter density chosen so p_D g / kappa = 1: posterior splits 1/3
    # miss, 2/3 hit.
    g = 1.0 / np.sqrt(4.0 * np.pi)
    sensor = scalar_sensor(1.0, detection_prob=0.5, clutter_density=0.5 * g)
    out = dglmb_update(one_track_density(), [[0.0]], sensor, cap=CAP,
                       gate_sq=np.inf)
    weights = sorted(out.posterior.w)
    np.testing.assert_allclose(weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    np.testing.assert_allclose(out.assoc_marginals, [[2.0 / 3.0]], atol=1e-12)
    assert existence_from_dglmb(out.posterior, L0) == pytest.approx(1.0)
    # The hit branch carries the Kalman posterior (variance 1/2).
    _, _, hit = max(rows_of(out.posterior), key=lambda row: row[1])
    np.testing.assert_allclose(hit[L0].P[0], [[0.5]], atol=1e-12)


def test_update_certain_detection_no_clutter():
    sensor = scalar_sensor(1.0, detection_prob=1.0, clutter_density=0.0)
    out = dglmb_update(one_track_density(), [[2.0]], sensor, cap=CAP,
                       gate_sq=np.inf)
    (_, weight, spatial), = rows_of(out.posterior)
    assert weight == pytest.approx(1.0)
    expected, _ = gm_kalman_update_log(single([0.0], [[1.0]]), [2.0],
                                       scalar_sensor(1.0))
    np.testing.assert_allclose(spatial[L0].m[0], expected.m[0], atol=1e-12)


def test_update_gated_out_measurement_is_pure_clutter():
    sensor = scalar_sensor(1.0, detection_prob=0.5, clutter_density=1e-2)
    prior = one_track_density(existence=0.5)
    far = dglmb_update(prior, [[1000.0]], sensor, cap=CAP, gate_sq=9.0)
    none = dglmb_update(prior, [], sensor, cap=CAP, gate_sq=np.inf)
    assert hyp_map(far.posterior) == pytest.approx(hyp_map(none.posterior),
                                                   abs=1e-12)
    assert float(far.assoc_marginals.sum()) == pytest.approx(0.0, abs=1e-12)


def test_update_after_gate_pass_matches_direct_call_bit_for_bit():
    # The gate pass caches innovation terms for the scan's whole
    # measurement list, which the update of the gated subset fills again
    # for the subset; a direct call on fresh mixtures fills them for the
    # subset at once.
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    Z = [np.array(z) for z in ([0.5, 0.3], [300.0, 0.0], [4.2, -1.0],
                               [2.0, 2.0], [-3.0, 6.5])]

    def prior():
        return lmb_to_dglmb(lmb_from_tracks({
            L0: (0.6, random_mixture(np.random.default_rng(7))),
            LB: (0.8, random_mixture(np.random.default_rng(8))),
        }), CAP)

    gated_prior = prior()
    gate, = gate_measurements([DensityGroup(gated_prior)], Z, sensor)
    assert 0 < len(gate) < len(Z)
    subset = [Z[j] for j in gate]
    via_gate = dglmb_update(gated_prior, subset, sensor, cap=50,
                            gate_sq=GATE_SQ)
    direct = dglmb_update(prior(), subset, sensor, cap=50, gate_sq=GATE_SQ)
    assert np.array_equal(via_gate.assoc_marginals, direct.assoc_marginals)
    assert len(via_gate.posterior.w) == len(direct.posterior.w)
    for a, b in zip(rows_of(via_gate.posterior), rows_of(direct.posterior)):
        assert a[:2] == b[:2]
        for lab in a[0]:
            assert same_mixture(a[2][lab], b[2][lab])


def test_update_of_a_table_equals_that_of_the_measurements_it_gates(rng):
    # Far measurements among the near ones: the update of the whole table
    # reads the terms the gate cached and ranks only the measurements a
    # mixture of the table gates.  Its rows and mixtures are those of the
    # update of that sub-list, to the bit, and so are its marginals on
    # those columns; they are 0 on the others.
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    for _ in range(20):
        lmb, Z = random_lmb_instance(rng, max_tracks=3, max_measurements=4)
        for _ in range(int(rng.integers(1, 3))):
            Z.insert(int(rng.integers(0, len(Z) + 1)),
                     rng.normal(0.0, 8.0, 2) + 500.0)
        prior = lmb_to_dglmb(lmb, CAP)
        gated = gate_mask(Z, prior.mixtures, sensor, 9.2).nonzero()[0]
        assert len(gated) < len(Z)
        whole = dglmb_update(prior, Z, sensor, cap=CAP, gate_sq=9.2)
        sub = dglmb_update(prior, [Z[j] for j in gated], sensor, cap=CAP,
                           gate_sq=9.2)
        assert whole.assoc_marginals.shape == (len(prior.label_space),
                                               len(Z))
        assert np.array_equal(whole.assoc_marginals[:, gated],
                              sub.assoc_marginals)
        assert not np.delete(whole.assoc_marginals, gated, 1).any()
        assert len(whole.posterior.w) == len(sub.posterior.w)
        for a, b in zip(rows_of(whole.posterior), rows_of(sub.posterior)):
            assert a[:2] == b[:2]
            for lab in a[0]:
                assert same_mixture(a[2][lab], b[2][lab])


def test_update_matches_brute_force(rng, monkeypatch):
    # Priors of 1-3 tracks over 0-3 measurements, all enumerated; then of
    # 2-3 tracks over 7-9 measurements, where every hypothesis of k labels
    # over m measurements with k * m > 16 takes Murty's algorithm.
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    murty, real_ranked = [], dglmb.ranked_assignments

    def ranked(cost, k):
        murty.append(cost.shape)
        return real_ranked(cost, k)

    monkeypatch.setattr(dglmb, "ranked_assignments", ranked)
    instances = [random_lmb_instance(rng, max_tracks=3, max_measurements=3)
                 for _ in range(25)] + [
        random_lmb_instance(rng, max_tracks=3, max_measurements=9,
                            min_tracks=2, min_measurements=7)
        for _ in range(6)]
    reached = 0
    for lmb, Z in instances:
        prior = lmb_to_dglmb(lmb, CAP)
        murty.clear()
        out = dglmb_update(prior, Z, sensor, cap=CAP, gate_sq=np.inf)
        weights, existence, marginals, means = brute_dglmb_update(
            prior, Z, sensor)
        got = np.sort(out.posterior.w)
        np.testing.assert_allclose(got, weights, atol=1e-9)
        labels = sorted(prior.label_space)
        for i, lab in enumerate(labels):
            assert existence_from_dglmb(out.posterior, lab) == pytest.approx(
                existence[lab], abs=1e-9)
        row = {lab: i
               for i, lab in enumerate(out.posterior.label_space)}
        for i, lab in enumerate(labels):
            np.testing.assert_allclose(out.assoc_marginals[row[lab]],
                                       marginals[i], atol=1e-9)
        big = sorted({k for k in range(len(labels) + 1) if k * len(Z) > 16})
        assert sorted({k for k, _ in murty}) == big
        assert all(columns == k + len(Z) for k, columns in murty)
        reached += bool(big)
    # 4 of the 6 larger priors hold such a hypothesis.
    assert reached == 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ranked_hands_murty_only_problems_above_the_limit(k, rng,
                                                          monkeypatch):
    # Stacks of k rows over m measurements, k * m on both sides of
    # ENUMERATE_LIMIT: the enumerator takes the stack at or below it, and
    # above it each problem reaches ranked_assignments alone, as its 2-D
    # padded matrix, and its maps come back in stack order.
    padded, real_ranked = [], dglmb.ranked_assignments

    def ranked(cost, quota):
        padded.append(cost)
        return real_ranked(cost, quota)

    monkeypatch.setattr(dglmb, "ranked_assignments", ranked)
    edge = ENUMERATE_LIMIT // k
    for m in range(edge - 1, edge + 3):
        cost = rng.normal(size=(3, k, m + 1))
        quota = np.array([4, 0, 7])
        padded.clear()
        hyp, maps, score = dglmb._ranked(cost, quota)
        if k * m <= ENUMERATE_LIMIT:
            assert padded == []
            continue
        assert len(padded) == len(cost)
        want = []
        for h, (problem, matrix) in enumerate(zip(cost, padded)):
            miss = np.full((k, k), np.inf)
            np.fill_diagonal(miss, problem[:, 0])
            assert np.array_equal(matrix, np.concatenate(
                (problem[:, 1:], miss), 1))
            want += [(h, t, s) for t, s in real_ranked(matrix, quota[h])]
        assert [(h, tuple(t), s) for h, t, s in zip(
            hyp.tolist(), maps.tolist(), score.tolist())] == want


def test_update_marginals_bounded_by_existence(rng):
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.85, 1e-3)
    for _ in range(10):
        lmb, Z = random_lmb_instance(rng)
        prior = lmb_to_dglmb(lmb, CAP)
        out = dglmb_update(prior, Z, sensor, cap=CAP, gate_sq=np.inf)
        for i, lab in enumerate(out.posterior.label_space):
            r = existence_from_dglmb(out.posterior, lab)
            assert float(out.assoc_marginals[i].sum()) <= r + 1e-10


def test_prune_threshold_and_cap():
    g = single([0.0], [[1.0]])
    d = dglmb_from_rows((L0,), [
        ((), 0.7, {}),
        ((L0,), 0.25, {L0: g}),
        ((L0,), 0.05, {L0: g}),
    ])
    out = dglmb_prune(d, 0.1, 10)
    w = sorted(out.w)
    np.testing.assert_allclose(w, [0.25 / 0.95, 0.7 / 0.95], atol=1e-12)
    out = dglmb_prune(d, 0.0, 1)
    (labels, weight, _), = rows_of(out)
    assert weight == pytest.approx(1.0)
    assert labels == ()


def test_prune_keeps_heaviest_when_all_below():
    g = single([0.0], [[1.0]])
    d = dglmb_from_rows((L0,), [((L0,), 1.0, {L0: g})])
    out = dglmb_prune(d, 2.0, 10)
    assert len(out.w) == 1
    assert out.w[0] == pytest.approx(1.0)


def test_capped_update_keeps_best_assignments(rng):
    # Capped output weights must be the top of the uncapped ranking,
    # renormalized.
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    lmb, Z = random_lmb_instance(rng, max_tracks=2, max_measurements=3)
    prior = lmb_to_dglmb(lmb, CAP)
    full = dglmb_update(prior, Z, sensor, cap=CAP, gate_sq=np.inf)
    capped = dglmb_update(prior, Z, sensor, cap=4, gate_sq=np.inf)
    w_full = np.sort(full.posterior.w)[::-1]
    w_capped = np.sort(capped.posterior.w)[::-1]
    k = len(w_capped)
    np.testing.assert_allclose(w_capped, w_full[:k] / w_full[:k].sum(),
                               atol=1e-9)


def both_consolidations(rows, log_w, mixtures):
    """(kept row, merged log weight) pairs of ``_consolidate`` and of the
    concatenated-signature reference."""
    labels = [Label(0, k) for k in range(len(rows[0]))]
    kept, merged = _consolidate(np.array(rows), log_w, mixtures)
    entries = [(tuple(lab for lab, i in zip(labels, row) if i >= 0), lw,
                {lab: mixtures[i] for lab, i in zip(labels, row) if i >= 0},
                e) for e, (row, lw) in enumerate(zip(rows, log_w))]
    return list(zip(kept, merged)), ref_consolidate(entries,
                                                    _CONSOLIDATE_ATOL)


def mixture(*parts):
    return GaussianMixture(*zip(*parts))


EYE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("moved, merges", [
    # Exactly the tolerance apart: on the screened mean entry, and on a
    # covariance entry.
    (mixture((1.0, [_CONSOLIDATE_ATOL, 0.0], EYE)), True),
    (mixture((1.0, [0.0, 0.0], [[1.0, _CONSOLIDATE_ATOL],
                                [_CONSOLIDATE_ATOL, 1.0]])), True),
    # One ulp beyond it.
    (mixture((1.0, [np.nextafter(_CONSOLIDATE_ATOL, 1.0), 0.0], EYE)),
     False),
])
def test_consolidate_at_the_tolerance(moved, merges):
    mixtures = [mixture((1.0, [0.0, 0.0], EYE)), moved]
    got, expected = both_consolidations([[0], [1]], [-1.0, -2.0], mixtures)
    assert got == expected
    assert len(got) == (1 if merges else 2)


def test_consolidate_compares_concatenations_of_unequal_shapes():
    # Per label the two rows' mixtures differ in component count, yet
    # their signatures concatenated in label order are equal, so the
    # rows merge.
    a = (0.5, [0.0, 0.0], EYE)
    b = (0.5, [1.0, 2.0], EYE)
    c = (1.0, [3.0, 4.0], [[2.0, 0.0], [0.0, 2.0]])
    mixtures = [mixture(a, b), mixture(c), mixture(a), mixture(b, c)]
    got, expected = both_consolidations([[0, 1], [2, 3]], [-1.0, -2.0],
                                        mixtures)
    assert got == expected == [(0, np.logaddexp(-1.0, -2.0))]
