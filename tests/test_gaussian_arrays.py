"""Array-backed Gaussian-mixture operations against their component-loop
references.

Random mixtures have 1-4 components in a 4-D state, with weights that tie
often; the sensor measures 2-D positions through a dense ``H``.  The
prediction, gate and Kalman-update cases also draw 8, 9 and 20
components, where ``np.sum`` sums pairwise, and the operations that take a
list of mixtures run on lists of 0 to 4.  Every operation must
reproduce the reference of ``oracles.py`` bit for bit (arrays by
``np.array_equal``, floats by ``==``); the stacked kernels must reproduce
the single-mixture and single-pair calls the same way.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from almbtrack import (GaussianMixture, MotionModel, SensorModel,  # noqa: E402
                       gm_predict, gm_reduce)
from almbtrack.gaussian import (gate_mask, gm_kalman_update_log,  # noqa: E402
                                innovation_terms, kalman_updates,
                                mahalanobis_sq, mixture_average,
                                predicted_measurement)

from oracles import (ref_gate_mask, ref_gm_predict,  # noqa: E402
                     ref_gm_reduce, ref_kalman_update, ref_mixture_average,
                     ref_terms, same_components, same_mixture)

SETTINGS = settings(max_examples=60, deadline=None)


def random_mixture(rng, spread, n=None):
    n = int(rng.integers(1, 5)) if n is None else n
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
# Component counts on both sides of np.sum's pairwise summation, which
# starts at 8 terms; None draws 1-4.
sizes = st.sampled_from([None, 1, 2, 8, 9, 20])
# The component counts of a list of up to 4 mixtures; the lists of 0 and
# 1 mixtures are also explicit examples.
lists = st.lists(sizes, max_size=4)


@SETTINGS
@given(seeds, sizes)
def test_predict_matches_component_loop(seed, n):
    rng = np.random.default_rng(seed)
    gm = random_mixture(rng, 5.0, n)
    motion, _ = models(rng)
    (got,) = gm_predict([gm], motion)
    assert same_components(got, ref_gm_predict(gm, motion))


@SETTINGS
@given(seeds, lists)
@example(seed=0, counts=[])
@example(seed=1, counts=[20])
def test_stacked_predict_matches_component_loop(seed, counts):
    rng = np.random.default_rng(seed)
    mixtures = [random_mixture(rng, 5.0, n) for n in counts]
    motion, _ = models(rng)
    out = gm_predict(mixtures, motion)
    assert len(out) == len(mixtures)
    for gm, got in zip(mixtures, out):
        assert same_components(got, ref_gm_predict(gm, motion))


@SETTINGS
@given(seeds, lists)
@example(seed=0, counts=[])
@example(seed=1, counts=[None])
def test_predicted_measurement_is_each_heaviest_component(seed, counts):
    # The heaviest component of each mixture, the first of a tie, found by
    # a loop over the weights.
    rng = np.random.default_rng(seed)
    mixtures = [random_mixture(rng, 5.0, n) for n in counts]
    _, sensor = models(rng)
    z_pred, S = predicted_measurement(mixtures, sensor)
    assert z_pred.shape == (len(mixtures), 2)
    assert S.shape == (len(mixtures), 2, 2)
    for gm, z, Si in zip(mixtures, z_pred, S):
        w = gm.w.tolist()
        i = w.index(max(w))
        want = ref_terms(gm.m[i], gm.P[i], sensor)
        assert np.array_equal(z, want["z_pred"])
        assert np.array_equal(Si, want["S"])


@SETTINGS
@given(seeds, st.booleans(), sizes)
def test_kalman_update_matches_component_loop(seed, gated, n):
    # With the terms the gate pass filled for the whole scan, or filled
    # on first use for the one measurement.
    rng = np.random.default_rng(seed)
    gm = random_mixture(rng, 3.0, n)
    _, sensor = models(rng)
    Z = list(rng.normal(0.0, 4.0, (int(rng.integers(1, 5)), 2)))
    if gated:
        innovation_terms([gm], sensor, Z)
    want, want_lik = ref_kalman_update(gm, Z[-1], sensor)
    post, log_lik = gm_kalman_update_log(gm, Z[-1], sensor)
    assert log_lik == want_lik
    assert same_components(post, want)


@SETTINGS
@given(seeds, st.lists(sizes, min_size=1, max_size=5), st.integers(1, 5))
def test_stacked_kalman_update_matches_pair_loop(seed, counts, m):
    # Each mixture holds terms for a table that covers Z (some in one
    # stacked fill, with Z's rows among others in another order), for a
    # table that does not, or none.  The gate sits exactly at one pair's
    # distance, which puts that pair outside.
    rng = np.random.default_rng(seed)
    _, sensor = models(rng)
    mixtures = [random_mixture(rng, 3.0, n) for n in counts]
    Z = rng.normal(0.0, 4.0, (m, 2))
    # The reference loop runs on copies, whose terms it fills pair by pair.
    copies = [GaussianMixture(gm.w, gm.m, gm.P) for gm in mixtures]
    d2 = [[mahalanobis_sq(z, gm, sensor) for z in Z] for gm in copies]
    gate_sq = float(rng.choice(np.ravel(d2)))
    extra = rng.normal(0.0, 4.0, (2, 2))
    state = rng.integers(0, 3, len(mixtures))
    innovation_terms([gm for gm, s in zip(mixtures, state) if s == 1],
                     sensor, rng.permutation(np.concatenate([Z, extra])))
    for gm in (gm for gm, s in zip(mixtures, state) if s == 2):
        innovation_terms([gm], sensor, np.concatenate([Z[1:], extra]))
    log_lik, posteriors = kalman_updates(mixtures, sensor, Z, gate_sq)
    assert log_lik.shape == (len(mixtures), m)
    e = 0
    for i, gm in enumerate(copies):
        for j, z in enumerate(Z):
            if d2[i][j] >= gate_sq:
                assert log_lik[i, j] == -np.inf
                continue
            want, want_lik = gm_kalman_update_log(gm, z, sensor)
            assert log_lik[i, j] == want_lik
            assert same_mixture(posteriors[e], want)
            e += 1
    assert e == len(posteriors)


def test_stacked_kalman_update_of_an_empty_table_or_scan():
    rng = np.random.default_rng(5)
    _, sensor = models(rng)
    gm = random_mixture(rng, 3.0)
    Z = rng.normal(0.0, 4.0, (3, 2))
    for mixtures, meas in (([], Z), ([gm], []), ([], [])):
        log_lik, posteriors = kalman_updates(mixtures, sensor, meas, 9.0)
        assert log_lik.shape == (len(mixtures), len(meas))
        assert posteriors == []
    assert gm._terms is None


@SETTINGS
@given(seeds, st.lists(sizes, min_size=1, max_size=4), st.integers(1, 5))
def test_stacked_kalman_update_refills_terms_of_another_table_once(
        seed, counts, m):
    # Terms filled for exactly Z are read whole.  Terms filled for a
    # larger table, Z's rows among others in another order, are filled
    # again for Z, with the same bits, and a later call reads them as
    # they are.  Alone or in one call, both give the same results.
    rng = np.random.default_rng(seed)
    _, sensor = models(rng)
    Z = rng.normal(0.0, 4.0, (m, 2))
    larger = rng.permutation(np.concatenate([Z, rng.normal(0.0, 4.0,
                                                           (2, 2))]))
    exact = [random_mixture(rng, 3.0, n) for n in counts]
    wider = [GaussianMixture(gm.w, gm.m, gm.P) for gm in exact]
    innovation_terms(exact, sensor, Z)
    innovation_terms(wider, sensor, larger)
    d2 = np.concatenate([gm._terms["d2"] for gm in exact])
    gate_sq = float(rng.choice(np.ravel(d2)))
    held = [gm._terms for gm in exact]
    whole, whole_post = kalman_updates(exact, sensor, Z, gate_sq)
    refilled, refilled_post = kalman_updates(wider, sensor, Z, gate_sq)
    filled = [gm._terms for gm in wider]
    for t, f in zip(held, filled):
        assert f["table"] == t["table"] == Z.tobytes()
        for name in TERM_NAMES:
            assert np.array_equal(f[name], t[name]), name
    both, both_post = kalman_updates(exact + wider, sensor, Z, gate_sq)
    assert all(gm._terms is t for gm, t in zip(exact + wider,
                                                held + filled))
    assert (whole == refilled).all()
    assert (both == np.concatenate([whole, refilled])).all()
    assert len(whole_post) == len(refilled_post)
    assert len(both_post) == 2 * len(whole_post)
    for a, b, c, d in zip(whole_post, refilled_post, both_post,
                          both_post[len(whole_post):]):
        assert same_mixture(a, b) and same_mixture(a, c)
        assert same_mixture(a, d)


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


TERM_NAMES = ("z_pred", "K", "cov", "logdet", "d2")


@SETTINGS
@given(seeds, st.integers(1, 3), st.sampled_from(
    ["shared", "table", "sensor", "none"]))
def test_mixture_average_carries_terms_of_one_table(seed, n_parts, odd):
    # Every part holds terms for (sensor, Z), except that with n_parts > 1
    # the last holds them for another table, another sensor or none.
    rng = np.random.default_rng(seed)
    parts = [(float(rng.uniform(0.1, 1.0)), random_mixture(rng, 5.0))
             for _ in range(n_parts)]
    _, sensor = models(rng)
    _, other = models(rng)
    Z = rng.normal(0.0, 4.0, (3, 2))
    innovation_terms([gm for _, gm in parts], sensor, Z)
    last = parts[-1][1]
    odd = odd if n_parts > 1 else "shared"
    if odd == "table":
        last._terms = None
        innovation_terms([last], sensor, Z[:2])
    elif odd == "sensor":
        last._terms = None
        innovation_terms([last], other, Z)
    elif odd == "none":
        last._terms = None
    total = sum(w for w, _ in parts)
    out = mixture_average(parts, total)
    if odd != "shared":
        assert out._terms is None
    elif n_parts == 1:
        assert out._terms is last._terms
    else:
        terms = [gm._terms for _, gm in parts]
        for key in ("sensor", "table"):
            assert out._terms[key] is terms[0][key]
        for name in TERM_NAMES:
            assert np.array_equal(out._terms[name], np.concatenate(
                [t[name] for t in terms]))
        # They are the terms a fill gives the average's own components.
        fresh = mixture_average(parts, total)
        fresh._terms = None
        innovation_terms([fresh], sensor, Z)
        for name in TERM_NAMES:
            assert np.array_equal(out._terms[name], fresh._terms[name])


@SETTINGS
@given(seeds, lists, st.integers(0, 6),
       st.sampled_from([1.0, 9.2103, np.inf]))
@example(seed=0, counts=[], m=3, gate_sq=np.inf)
@example(seed=1, counts=[9], m=3, gate_sq=9.2103)
def test_gate_mask_matches_component_loop(seed, counts, m, gate_sq):
    # Each mixture holds terms for Z, for another table, or none.
    rng = np.random.default_rng(seed)
    mixtures = [random_mixture(rng, 3.0, n) for n in counts]
    _, sensor = models(rng)
    Z = rng.normal(0.0, 4.0, (m, 2))
    state = rng.integers(0, 3, len(mixtures))
    if m:
        innovation_terms([gm for gm, s in zip(mixtures, state) if s == 1],
                         sensor, Z)
    innovation_terms([gm for gm, s in zip(mixtures, state) if s == 2],
                     sensor, rng.normal(0.0, 4.0, (2, 2)))
    want = np.zeros(m, dtype=bool)
    for gm in mixtures:
        want |= ref_gate_mask(Z, gm, sensor, gate_sq)
    assert np.array_equal(gate_mask(Z, mixtures, sensor, gate_sq), want)
