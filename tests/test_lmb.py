"""LMB predict and update (expand, exact update, collapse)."""

import numpy as np
import pytest

from almbtrack import (Label, SensorModel, dglmb_cardinality, dglmb_to_lmb,
                       lmb_cardinality, lmb_predict, lmb_update)
from almbtrack.gaussian import MotionModel, gm_kalman_update_log

from conftest import CAP, scalar_sensor, single
from oracles import (existence_from_dglmb, lmb_from_tracks, mean_cardinality,
                     random_lmb_instance, tracks_of)

L0 = Label(0, 0)


def one_track(existence, mean=(0.0,), cov=((1.0,),)):
    return lmb_from_tracks({L0: (existence, single(mean, cov))})


def test_predict_discounts_existence():
    motion = MotionModel(np.eye(1), np.zeros((1, 1)), 0.99)
    out = lmb_predict(one_track(0.5), motion)
    assert out.r == pytest.approx([0.495], abs=1e-12)


def test_predict_unit_survival_keeps_existence():
    motion = MotionModel(np.eye(1), np.zeros((1, 1)), 1.0)
    out = lmb_predict(one_track(0.37), motion)
    assert out.r == pytest.approx([0.37], abs=1e-15)


def test_update_no_measurements_shrinks_existence():
    # Missed detection: r' = r q_D / (r q_D + 1 - r) with q_D = 0.02.
    sensor = scalar_sensor(1.0, detection_prob=0.98, clutter_density=1e-3)
    out = lmb_update(one_track(0.5), [], sensor, CAP, np.inf)
    expected = 0.5 * 0.02 / (0.5 * 0.02 + 0.5)
    assert tracks_of(dglmb_to_lmb(out.posterior))[L0][0] == \
        pytest.approx(expected, abs=1e-12)


def test_update_approx_is_collapse_of_full(rng):
    # The LMB approximation is one object, kept on the posterior, whose
    # existences are the posterior's summed hypothesis weights.
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    for _ in range(10):
        lmb, Z = random_lmb_instance(rng)
        out = lmb_update(lmb, Z, sensor, CAP, np.inf)
        approx = dglmb_to_lmb(out.posterior)
        assert dglmb_to_lmb(out.posterior) is approx
        assert approx.label_space == tuple(
            lab for lab in out.posterior.label_space
            if existence_from_dglmb(out.posterior, lab) > 0.0)
        for lab, r in zip(approx.label_space, approx.r):
            assert r == pytest.approx(
                existence_from_dglmb(out.posterior, lab), abs=1e-12)


def test_update_preserves_mean_cardinality(rng):
    # The LMB collapse keeps the posterior's expected target count.
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    for _ in range(10):
        lmb, Z = random_lmb_instance(rng)
        out = lmb_update(lmb, Z, sensor, CAP, np.inf)
        full_mean = mean_cardinality(dglmb_cardinality(out.posterior))
        approx_mean = mean_cardinality(lmb_cardinality(
            dglmb_to_lmb(out.posterior)))
        assert approx_mean == pytest.approx(full_mean, abs=1e-10)


def test_update_single_target_reduces_to_kalman():
    sensor = scalar_sensor(1.0, detection_prob=1.0, clutter_density=0.0)
    out = dglmb_to_lmb(lmb_update(one_track(1.0), [[2.0]], sensor, CAP,
                                  np.inf).posterior)
    (r, got), = tracks_of(out).values()
    assert r == pytest.approx(1.0)
    expected, _ = gm_kalman_update_log(single([0.0], [[1.0]]), [2.0], sensor)
    np.testing.assert_allclose(got.m[0], expected.m[0], atol=1e-12)
    np.testing.assert_allclose(got.P[0], expected.P[0], atol=1e-12)


def test_update_detection_raises_existence():
    # A nearby measurement should confirm a tentative track.
    sensor = scalar_sensor(1.0, detection_prob=0.9, clutter_density=1e-4)
    out = lmb_update(one_track(0.05), [[0.1]], sensor, CAP, np.inf)
    assert tracks_of(dglmb_to_lmb(out.posterior))[L0][0] > 0.5
