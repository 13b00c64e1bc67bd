"""Shared model builders for the test suite."""

import numpy as np
import pytest

from almbtrack import GaussianMixture, MotionModel, SensorModel


# A hypothesis cap no test instance reaches: the truncated recursion then
# keeps every subset and association map, so enumeration can check it.
CAP = 10 ** 6


def single(mean, cov, weight=1.0):
    """One-component mixture from plain lists."""
    return GaussianMixture([weight], [mean], [cov])


def cv_motion(dt=1.0, accel_var=5.0, survival=0.99):
    """Planar constant-velocity model, state [x, y, vx, vy]."""
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    G = np.array([[dt ** 2 / 2.0, 0.0],
                  [0.0, dt ** 2 / 2.0],
                  [dt, 0.0],
                  [0.0, dt]])
    Q = accel_var * (G @ G.T)
    return MotionModel(F, Q, survival)


def position_sensor(noise_std=10.0, detection_prob=0.98,
                    clutter_density=1.25e-5):
    H = np.zeros((2, 4))
    H[0, 0] = H[1, 1] = 1.0
    return SensorModel(H, noise_std ** 2 * np.eye(2), detection_prob,
                       clutter_density)


def scalar_sensor(r_var=1.0, detection_prob=1.0, clutter_density=0.0):
    return SensorModel(np.eye(1), [[r_var]], detection_prob, clutter_density)


@pytest.fixture
def rng():
    return np.random.default_rng(20250814)


def random_mixture(rng, dim=2, n_comp=3, spread=5.0):
    w = rng.dirichlet(np.ones(n_comp))
    means, covs = [], []
    for i in range(n_comp):
        means.append(rng.normal(0.0, spread, dim))
        A = rng.normal(0.0, 1.0, (dim, dim))
        covs.append(A @ A.T + np.eye(dim))
    return GaussianMixture(w, means, covs)
