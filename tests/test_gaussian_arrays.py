"""Array-backed Gaussian-mixture operations against their component-loop
references.

Random mixtures have 1-4 components in a 4-D state, with weights that tie
often; the sensor measures 2-D positions through a dense ``H``.  Every
operation must reproduce the reference of ``oracles.py`` bit for bit
(arrays by ``np.array_equal``, floats by ``==``).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from almbtrack import (GaussianMixture, MotionModel, SensorModel,  # noqa: E402
                       gm_predict, gm_reduce)
from almbtrack.densities import mixture_average  # noqa: E402
from almbtrack.gaussian import (gate_mask, gm_kalman_update_log,  # noqa: E402
                                innovation_terms)

from oracles import (ref_gate_mask, ref_gm_predict,  # noqa: E402
                     ref_gm_reduce, ref_kalman_update, ref_mixture_average,
                     same_components)

SETTINGS = settings(max_examples=60, deadline=None)


def random_mixture(rng, spread):
    n = int(rng.integers(1, 5))
    w = [float(rng.choice([0.25, 0.5, rng.uniform(1e-6, 1.0)]))
         for _ in range(n)]
    B = rng.normal(0.0, 1.0, (n, 4, 4))
    return GaussianMixture(w, rng.normal(0.0, spread, (n, 4)),
                           B @ B.swapaxes(1, 2) + 0.5 * np.eye(4))


def models(rng):
    A = rng.normal(0.0, 1.0, (4, 4))
    motion = MotionModel(np.eye(4) + 0.3 * rng.normal(0.0, 1.0, (4, 4)),
                         A @ A.T, 0.9)
    A = rng.normal(0.0, 1.0, (2, 2))
    sensor = SensorModel(rng.normal(0.0, 1.0, (2, 4)), A @ A.T + np.eye(2),
                         0.9, 1e-4)
    return motion, sensor


seeds = st.integers(0, 2 ** 32 - 1)


@SETTINGS
@given(seeds)
def test_predict_matches_component_loop(seed):
    rng = np.random.default_rng(seed)
    gm = random_mixture(rng, 5.0)
    motion, _ = models(rng)
    assert same_components(gm_predict(gm, motion), ref_gm_predict(gm, motion))


@SETTINGS
@given(seeds, st.booleans())
def test_kalman_update_matches_component_loop(seed, gated):
    # With the terms the gate pass filled for the whole scan, or filled
    # on first use for the one measurement.
    rng = np.random.default_rng(seed)
    gm = random_mixture(rng, 3.0)
    _, sensor = models(rng)
    Z = list(rng.normal(0.0, 4.0, (int(rng.integers(1, 5)), 2)))
    if gated:
        innovation_terms([gm], sensor, Z)
    want, want_lik = ref_kalman_update(gm, Z[-1], sensor)
    post, log_lik = gm_kalman_update_log(gm, Z[-1], sensor)
    assert log_lik == want_lik
    assert same_components(post, want)


@SETTINGS
@given(seeds, st.sampled_from([0.0, 1e-5, 0.3]),
       st.sampled_from([0.0, 4.0, 100.0]), st.sampled_from([1, 2, 20]))
def test_reduce_matches_component_loop(seed, prune, merge, cap):
    # One component takes the shortcut; the reference merges it anyway.
    rng = np.random.default_rng(seed)
    gm = random_mixture(rng, 1.0)
    assert same_components(gm_reduce(gm, prune, merge, cap),
                           ref_gm_reduce(gm, prune, merge, cap))


@SETTINGS
@given(seeds, st.integers(1, 3))
def test_mixture_average_matches_component_loop(seed, n_parts):
    rng = np.random.default_rng(seed)
    parts = [(float(rng.choice([0.25, rng.uniform(1e-6, 1.0)])),
              random_mixture(rng, 5.0)) for _ in range(n_parts)]
    total = sum(w for w, _ in parts)
    assert same_components(mixture_average(parts, total),
                           ref_mixture_average(parts, total))


@SETTINGS
@given(seeds, st.integers(0, 6), st.sampled_from([1.0, 9.2103, np.inf]))
def test_gate_mask_matches_component_loop(seed, m, gate_sq):
    rng = np.random.default_rng(seed)
    gm = random_mixture(rng, 3.0)
    _, sensor = models(rng)
    Z = rng.normal(0.0, 4.0, (m, 2))
    assert np.array_equal(gate_mask(Z, gm, sensor, gate_sq),
                          ref_gate_mask(Z, gm, sensor, gate_sq))
