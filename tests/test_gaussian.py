"""Gaussian-mixture primitives: prediction, update, reduction, gating."""

import warnings

import numpy as np
import pytest

from almbtrack import (ConfigurationError, GaussianMixture, MotionModel,
                       NumericalError, SensorModel, UsageError, gm_predict,
                       gm_reduce)
from almbtrack.gaussian import (_mixture, gate_mask, gm_kalman_update_log,
                                innovation_terms, mahalanobis_sq, map_point,
                                predicted_measurement)

from conftest import (cv_motion, position_sensor, random_mixture,
                      scalar_sensor, single)
from oracles import (gm_covariance, gm_mean, ref_gm_reduce, ref_terms,
                     same_components)


def log_likelihood(gm, z, sensor):
    return gm_kalman_update_log(gm, z, sensor)[1]


def test_component_validation():
    with pytest.raises(ConfigurationError):
        GaussianMixture([0.5, -0.1], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(ConfigurationError):
        GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0]]])
    with pytest.raises(ConfigurationError):
        GaussianMixture([1.0, 1.0], [[0.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(UsageError):
        GaussianMixture([], np.zeros((0, 1)), np.zeros((0, 1, 1)))
    with pytest.raises(UsageError):
        GaussianMixture([], [], [])
    gm = GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [0.0, 1.0]]])
    assert np.array_equal(gm.P, [[[1.0, 1.0], [1.0, 1.0]]])


@pytest.mark.parametrize("field", ["F", "Q", "H", "R", "clutter_density",
                                   "w", "m", "P"])
def test_models_reject_non_finite_settings(field):
    # Each setting in turn holds inf, -inf or NaN, the others are valid:
    # the models' matrices and clutter density, and a mixture's weights,
    # means and covariances.
    for value in (np.inf, -np.inf, np.nan):
        settings = {name: np.eye(2) for name in "FQHR"}
        settings.update(clutter_density=1e-4, w=np.ones(2),
                        m=np.zeros((2, 2)), P=np.stack([np.eye(2)] * 2))
        if field == "clutter_density":
            settings[field] = value
        else:
            settings[field].flat[1] = value
        with pytest.raises(ConfigurationError,
                           match=r"^(motion|sensor|mixture) %s " % field):
            MotionModel(settings["F"], settings["Q"], 0.99)
            SensorModel(settings["H"], settings["R"], 0.98,
                        settings["clutter_density"])
            GaussianMixture(settings["w"], settings["m"], settings["P"])


def test_predict_identity():
    gm = single([1.0, 2.0], [[4.0, 0.0], [0.0, 9.0]])
    model = MotionModel(np.eye(2), np.zeros((2, 2)), 1.0)
    out, = gm_predict([gm], model)
    np.testing.assert_allclose(out.m[0], [1.0, 2.0])
    np.testing.assert_allclose(out.P[0],
                               [[4.0, 0.0], [0.0, 9.0]])


def test_predict_constant_velocity_mean():
    # x' = x + v with unit step: position 0, velocity 1 lands at 1.
    gm = single([0.0, 1.0], np.eye(2))
    model = MotionModel([[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)), 1.0)
    out, = gm_predict([gm], model)
    np.testing.assert_allclose(out.m[0], [1.0, 1.0])


def test_predict_covariance_by_hand():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = np.array([[0.25, 0.5], [0.5, 1.0]])
    gm = single([0.0, 0.0], P)
    out, = gm_predict([gm], MotionModel(F, Q, 1.0))
    np.testing.assert_allclose(out.P[0], F @ P @ F.T + Q,
                               atol=1e-12)


def test_scalar_kalman_update():
    # Prior N(0, 1), R = 1, z = 2: gain 1/2, mean 1, variance 1/2,
    # likelihood N(2; 0, 2).
    gm = single([0.0], [[1.0]])
    post, log_lik = gm_kalman_update_log(gm, [2.0], scalar_sensor(1.0))
    np.testing.assert_allclose(post.m[0], [1.0], atol=1e-12)
    np.testing.assert_allclose(post.P[0], [[0.5]],
                               atol=1e-12)
    expected = np.exp(-1.0) / np.sqrt(4.0 * np.pi)
    np.testing.assert_allclose(np.exp(log_lik), expected, rtol=1e-12)


def test_zero_innovation_likelihood():
    gm = single([3.0, -1.0], 2.0 * np.eye(2))
    sensor = SensorModel(np.eye(2), np.eye(2), 1.0, 0.0)
    S = 3.0 * np.eye(2)
    lik = np.exp(log_likelihood(gm, [3.0, -1.0], sensor))
    np.testing.assert_allclose(lik, 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(S))),
                               rtol=1e-12)


def test_two_component_likelihood_sums():
    sensor = scalar_sensor(1.0)
    a = single([0.0], [[1.0]])
    b = single([4.0], [[3.0]])
    gm = GaussianMixture([0.3, 0.7], [[0.0], [4.0]], [[[1.0]], [[3.0]]])
    z = [1.5]
    la = np.exp(log_likelihood(a, z, sensor))
    lb = np.exp(log_likelihood(b, z, sensor))
    lik = np.exp(log_likelihood(gm, z, sensor))
    np.testing.assert_allclose(lik, 0.3 * la + 0.7 * lb, rtol=1e-12)


def test_update_preserves_total_weight_normalization(rng):
    gm = random_mixture(rng, dim=2, n_comp=4)
    sensor = SensorModel(np.eye(2), np.eye(2), 0.9, 1e-4)
    post, _ = gm_kalman_update_log(gm, rng.normal(0, 3, 2), sensor)
    np.testing.assert_allclose(post.total_weight(), 1.0, atol=1e-12)


def test_reduce_merges_duplicates():
    gm = GaussianMixture([0.5, 0.5], [[0.0], [0.0]], [[[1.0]], [[1.0]]])
    out = gm_reduce(gm, 1e-5, 4.0, 20)
    assert len(out.w) == 1
    np.testing.assert_allclose(out.w[0], 1.0)
    np.testing.assert_allclose(out.m[0], [0.0])
    np.testing.assert_allclose(out.P[0], [[1.0]])


def test_reduce_prunes_and_renormalizes():
    gm = GaussianMixture([0.999, 0.001], [[0.0], [100.0]],
                         [[[1.0]], [[1.0]]])
    out = gm_reduce(gm, 0.01, 4.0, 20)
    assert len(out.w) == 1
    np.testing.assert_allclose(out.total_weight(), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.m[0], [0.0])


def test_reduce_merge_preserves_moments():
    gm = GaussianMixture([0.6, 0.4], [[0.0], [1.0]], [[[1.0]], [[2.0]]])
    before_mean = gm_mean(gm)
    before_cov = gm_covariance(gm)
    out = gm_reduce(gm, 1e-9, 100.0, 20)
    assert len(out.w) == 1
    np.testing.assert_allclose(gm_mean(out), before_mean, atol=1e-12)
    np.testing.assert_allclose(gm_covariance(out), before_cov, atol=1e-12)


def test_reduce_identity_settings(rng):
    gm = random_mixture(rng, dim=2, n_comp=5, spread=50.0)
    out = gm_reduce(gm, 0.0, 0.0, 100)
    assert len(out.w) == 5
    np.testing.assert_allclose(sorted(out.w), sorted(gm.w), atol=1e-12)


@pytest.mark.parametrize("weight", [1e-9, 1.0, 7.3])
def test_reduce_one_component_matches_merge_path(rng, weight):
    # A lone component only normalizes; the prune, merge and renormalize
    # steps it skips would give the same bits.
    for _ in range(20):
        c = random_mixture(rng, dim=4, n_comp=1)
        gm = GaussianMixture([weight], c.m, c.P)
        want = ref_gm_reduce(gm, 1e-5, 4.0, 20)
        assert want[0][0] == 1.0
        assert same_components(gm_reduce(gm, 1e-5, 4.0, 20), want)
    with pytest.raises(NumericalError):
        gm_reduce(single([0.0], [[1.0]], weight=0.0), 1e-5, 4.0, 20)


@pytest.mark.parametrize("weight", [0.0, np.nan, np.inf])
def test_normalized_rejects_a_total_not_positive_and_finite(weight):
    # The public constructor rejects a weight that is not finite; a
    # mixture the library forms itself is not checked.
    gm = _mixture(np.array([weight, 0.0]), np.array([[0.0], [1.0]]),
                  np.ones((2, 1, 1)))
    with pytest.raises(NumericalError) as err:
        gm.normalized()
    total = err.value.diagnostics["total"]
    assert total == weight or np.isnan(total) and np.isnan(weight)


def test_reduce_singular_covariance_raises_numerical_error():
    # The heaviest component has no velocity spread, so its covariance
    # has no inverse for the merge distance.
    P = np.diag([10.0, 0.0])
    gm = GaussianMixture([0.7, 0.3], [[0.0, 0.0], [1.0, 0.0]], [P, np.eye(2)])
    with pytest.raises(NumericalError) as err:
        gm_reduce(gm, 1e-5, 4.0, 20)
    assert err.value.diagnostics["what"] == "component covariance"
    assert np.array_equal(err.value.diagnostics["matrix"], P)


def test_reduce_caps_component_count(rng):
    gm = random_mixture(rng, dim=2, n_comp=8, spread=100.0)
    out = gm_reduce(gm, 0.0, 0.0, 3)
    assert len(out.w) == 3
    np.testing.assert_allclose(out.total_weight(), 1.0, atol=1e-12)
    # Heaviest three survive.
    top = sorted(gm.w)[-3:]
    kept = sorted(out.w)
    np.testing.assert_allclose(kept, np.asarray(top) / np.sum(top), atol=1e-12)


def test_mahalanobis_zero_at_predicted_measurement():
    sensor = scalar_sensor(4.0)
    gm = single([2.0], [[1.0]])
    assert mahalanobis_sq([2.0], gm, sensor) == pytest.approx(0.0, abs=1e-15)


def test_mahalanobis_scalar_by_hand():
    # S = P + R = 4, innovation 2 -> d^2 = 4/4 = 1.
    sensor = scalar_sensor(3.0)
    gm = single([0.0], [[1.0]])
    assert mahalanobis_sq([2.0], gm, sensor) == pytest.approx(1.0, rel=1e-12)


def test_mahalanobis_rotation_invariant(rng):
    theta = 0.7
    Rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    mean = rng.normal(0, 5, 2)
    A = rng.normal(0, 1, (2, 2))
    P = A @ A.T + np.eye(2)
    z = rng.normal(0, 5, 2)
    sensor = SensorModel(np.eye(2), 2.0 * np.eye(2), 1.0, 0.0)
    d0 = mahalanobis_sq(z, single(mean, P), sensor)
    sensor_r = SensorModel(np.eye(2), Rot @ (2.0 * np.eye(2)) @ Rot.T, 1.0, 0.0)
    d1 = mahalanobis_sq(Rot @ z, single(Rot @ mean, Rot @ P @ Rot.T), sensor_r)
    assert d1 == pytest.approx(d0, rel=1e-10)


def test_mahalanobis_takes_min_over_components():
    # A low-weight component sitting on the measurement still counts:
    # gating must not starve the alternatives kept to recover from
    # association mistakes.
    sensor = scalar_sensor(1.0)
    gm = GaussianMixture([0.99, 0.01], [[10.0], [0.0]], [[[1.0]], [[1.0]]])
    assert mahalanobis_sq([0.0], gm, sensor) == pytest.approx(0.0, abs=1e-15)


def test_innovation_terms_follow_the_sensor():
    # A mixture keeps the innovation terms of the last sensor it met;
    # another sensor, or a normalized copy of the mixture, which shares
    # them, must not see stale ones.  By hand: S = P + R, d^2 = 4 / S.
    gm = single([0.0], [[1.0]], weight=2.0)
    d = [mahalanobis_sq([2.0], gm, scalar_sensor(3.0))]
    half = gm.normalized()
    assert half._terms is gm._terms
    d += [mahalanobis_sq([2.0], gm, scalar_sensor(1.0)),
          mahalanobis_sq([2.0], half, scalar_sensor(7.0))]
    np.testing.assert_allclose(d, [1.0, 2.0, 0.5], rtol=1e-12)
    _, S = predicted_measurement([gm], scalar_sensor(3.0))
    np.testing.assert_allclose(S, [[[4.0]]], rtol=1e-12)


TERMS = ("z_pred", "K", "cov", "logdet", "d2")


def random_terms_case(rng):
    # A sensor with a dense 2x4 H, 7 measurements and the means and
    # covariances of 12 mixtures of 1-3 components in 4-D.
    H = rng.normal(0.0, 1.0, (2, 4))
    A = rng.normal(0.0, 1.0, (2, 2))
    sensor = SensorModel(H, A @ A.T + np.eye(2), 0.9, 1e-4)
    Z = list(rng.normal(0.0, 5.0, (7, 2)))
    arrays = []
    for _ in range(12):
        n = rng.integers(1, 4)
        B = rng.normal(0.0, 1.0, (n, 4, 4))
        arrays.append((rng.normal(0.0, 3.0, (n, 4)),
                       B @ B.swapaxes(1, 2) + 0.1 * np.eye(4)))
    return sensor, Z, arrays


def test_stacked_terms_equal_one_component_at_a_time(rng):
    # The terms of one stacked call over every mixture must be the bits
    # of a call per mixture, and those, component by component, the bits
    # of the plain per-component algebra of ``ref_terms``.
    sensor, Z, arrays = random_terms_case(rng)
    stacked = [GaussianMixture(np.ones(len(m)), m, P) for m, P in arrays]
    apart = [GaussianMixture(np.ones(len(m)), m, P) for m, P in arrays]
    innovation_terms(stacked, sensor, Z)
    for gm in apart:
        innovation_terms([gm], sensor, Z)
    for a, b in zip(stacked, apart):
        for name in TERMS:
            assert np.array_equal(a._terms[name], b._terms[name]), name
        for i in range(len(b.w)):
            want = ref_terms(b.m[i], b.P[i], sensor, Z)
            for name in TERMS:
                assert np.array_equal(b._terms[name][i], want[name]), name


def test_terms_for_another_table_are_a_whole_fill(rng):
    # Half the mixtures hold terms for the first three measurements; one
    # call for the other four then gives every mixture the terms of a
    # single fill for those four, and keeps only the five term arrays.
    sensor, Z, arrays = random_terms_case(rng)
    refilled = [GaussianMixture(np.ones(len(m)), m, P) for m, P in arrays]
    once = [GaussianMixture(np.ones(len(m)), m, P) for m, P in arrays]
    innovation_terms(refilled[::2], sensor, Z[:3])
    innovation_terms(refilled, sensor, Z[3:])
    innovation_terms(once, sensor, Z[3:])
    for a, b in zip(refilled, once):
        assert set(a._terms) == {"sensor", "table", *TERMS}
        assert a._terms["table"] == b._terms["table"]
        for name in TERMS:
            assert np.array_equal(a._terms[name], b._terms[name]), name


def test_predicted_measurement_is_the_heaviest_components(rng):
    # z_pred and S of each mixture's heaviest component, with the bits of
    # ``ref_terms``, whether or not the mixtures hold their terms.
    sensor, Z, arrays = random_terms_case(rng)
    mixtures = [GaussianMixture(rng.uniform(0.1, 1.0, len(m)), m, P)
                for m, P in arrays]
    for filled in (False, True):
        if filled:
            innovation_terms(mixtures, sensor, Z)
        z_pred, S = predicted_measurement(mixtures, sensor)
        assert z_pred.shape == (len(mixtures), 2)
        for k, gm in enumerate(mixtures):
            i = int(np.argmax(gm.w))
            want = ref_terms(gm.m[i], gm.P[i], sensor)
            assert np.array_equal(z_pred[k], want["z_pred"])
            assert np.array_equal(S[k], want["S"])


def test_a_component_without_a_factor_raises_when_its_terms_are_filled():
    # R = -I makes S = P + R = 0 for a unit covariance: no factor.  Every
    # call that fills the terms raises and keeps none.
    gm = single([0.0, 0.0], np.eye(2))
    sensor = SensorModel(np.eye(2), -np.eye(2), 0.9, 1e-4)
    z = np.array([0.5, 0.5])
    for call in (lambda: innovation_terms([gm], sensor, [z]),
                 lambda: mahalanobis_sq(z, gm, sensor),
                 lambda: gate_mask([z], [gm], sensor, 9.0),
                 lambda: gm_kalman_update_log(gm, z, sensor)):
        with pytest.raises(NumericalError) as err:
            call()
        assert err.value.diagnostics["what"] == "innovation covariance"
        np.testing.assert_array_equal(err.value.diagnostics["matrix"],
                                      np.zeros((2, 2)))
        assert gm._terms is None
    # Predicting the measurement takes no factor, so it does not raise.
    z_pred, S = predicted_measurement([gm], sensor)
    np.testing.assert_array_equal(S, np.zeros((1, 2, 2)))


def test_update_at_no_finite_distance_raises_with_the_measurement():
    # Both components' squared distances overflow to inf, silently: no
    # component gives the measurement a likelihood, so there is no
    # posterior, where a log-sum-exp over the infinite terms gave NaN.  A
    # near measurement then updates as before.
    gm = GaussianMixture([0.5, 0.5], [[0.0, 0.0, 0.0, 0.0],
                                      [5.0, 5.0, 0.0, 0.0]],
                         [np.eye(4), np.eye(4)])
    sensor = position_sensor(1.0)
    far = np.array([1e200, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            gm_kalman_update_log(gm, far, sensor)
    np.testing.assert_array_equal(err.value.diagnostics["measurement"], far)
    post, log_lik = gm_kalman_update_log(gm, [1.0, 1.0], sensor)
    assert np.isfinite(log_lik) and np.isfinite(post.w).all()


def test_gate_raises_for_a_component_without_a_factor_in_any_order():
    # The good component gates every measurement; the other, whose
    # S = P + R = -2 I has no factor, makes the gate raise all the same,
    # first or second.  A stacked call keeps the terms of no mixture in
    # the stack, not even those of a good one before it.
    sensor = SensorModel(np.eye(2), np.eye(2), 0.9, 1e-4)
    gm = GaussianMixture([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]],
                         [np.eye(2), -3.0 * np.eye(2)])
    Z = [np.array([0.1, 0.2]), np.array([-0.3, 0.0])]
    good = single([0.0, 0.0], np.eye(2))
    for order in (slice(None), slice(None, None, -1)):
        mixture = GaussianMixture(gm.w[order], gm.m[order], gm.P[order])
        for call in (lambda: gate_mask(Z, [good, mixture], sensor, 9.0),
                     lambda: innovation_terms([good, mixture], sensor, Z)):
            with pytest.raises(NumericalError) as err:
                call()
            np.testing.assert_array_equal(err.value.diagnostics["matrix"],
                                          -2.0 * np.eye(2))
            assert mixture._terms is None and good._terms is None
    assert gate_mask(Z, [good], sensor, 9.0).all()


def test_gate_mask_matches_distance(rng):
    sensor = SensorModel(np.eye(2), np.eye(2), 1.0, 0.0)
    gm = random_mixture(rng, dim=2, n_comp=3)
    Z = rng.normal(0, 6, (40, 2))
    mask = gate_mask(Z, [gm], sensor, 9.2103)
    for j, z in enumerate(Z):
        assert mask[j] == (mahalanobis_sq(z, gm, sensor) < 9.2103)


def test_gate_mask_empty():
    sensor = scalar_sensor()
    assert gate_mask([], [single([0.0], [[1.0]])], sensor, 9.0).shape == (0,)


def test_map_point_argmax_and_ties():
    gm = GaussianMixture([0.2, 0.6, 0.2], [[1.0], [5.0], [9.0]],
                         np.ones((3, 1, 1)))
    np.testing.assert_allclose(map_point(gm), [5.0])
    tie = GaussianMixture([0.5, 0.5], [[1.0], [2.0]], np.ones((2, 1, 1)))
    np.testing.assert_allclose(map_point(tie), [1.0])


def test_predicted_measurement_uses_heaviest_component():
    sensor = scalar_sensor(2.0)
    gm = GaussianMixture([0.7, 0.3], [[3.0], [8.0]], [[[1.0]], [[5.0]]])
    z_pred, S = predicted_measurement([gm], sensor)
    np.testing.assert_allclose(z_pred, [[3.0]])
    np.testing.assert_allclose(S, [[[3.0]]])


def test_likelihood_reorder_invariant(rng):
    gm = random_mixture(rng, dim=2, n_comp=4)
    sensor = SensorModel(np.eye(2), np.eye(2), 1.0, 0.0)
    z = rng.normal(0, 4, 2)
    l0 = log_likelihood(gm, z, sensor)
    l1 = log_likelihood(GaussianMixture(gm.w[::-1], gm.m[::-1], gm.P[::-1]),
                        z, sensor)
    assert l1 == pytest.approx(l0, rel=1e-12)


def test_mean_and_covariance_of_mixture():
    gm = GaussianMixture([0.5, 0.5], [[0.0], [2.0]], np.ones((2, 1, 1)))
    np.testing.assert_allclose(gm_mean(gm), [1.0])
    # Spread term: 1 + E[(m - mu)^2] = 1 + 1.
    np.testing.assert_allclose(gm_covariance(gm), [[2.0]])


def test_dimension_mismatch_raises():
    gm = single([0.0, 0.0], np.eye(2))
    with pytest.raises(ConfigurationError):
        gm_kalman_update_log(gm, [1.0], scalar_sensor())
    model_bad = cv_motion()
    with pytest.raises(ConfigurationError):
        gm_predict([gm], model_bad)
