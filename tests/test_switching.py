"""Representation-switching criteria and the mode automaton."""

import numpy as np
import pytest

from almbtrack import (Label, Mode, PipelineConfig, Trigger,
                       association_entropy, decide_switch, kl_criterion,
                       kl_divergence, lmb_to_dglmb)
from almbtrack.lmb import lmb_update
from almbtrack import SensorModel
from almbtrack.switching import association_entropies, cardinality_kl

from conftest import CAP, single
from oracles import (dglmb_from_rows, lmb_from_tracks, random_lmb_instance,
                     ref_association_entropy, ref_kl_divergence,
                     switch_cases)

L1, L2 = Label(0, 0), Label(0, 1)


def test_kl_identical_is_zero():
    p = np.array([0.2, 0.5, 0.3])
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_nonnegative_random(rng):
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert kl_divergence(p, q) >= -1e-12


def test_kl_support_mismatch_is_infinite():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf


def test_kl_pads_shorter_distribution():
    # Same distribution written with trailing zeros.
    assert kl_divergence([0.3, 0.7], [0.3, 0.7, 0.0]) == pytest.approx(0.0)
    assert kl_divergence([0.3, 0.7, 0.0], [0.3, 0.7]) == pytest.approx(0.0)


def test_kl_known_value():
    val = kl_divergence([0.75, 0.25], [0.5, 0.5])
    expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert val == pytest.approx(expected, abs=1e-12)


def test_criterion_correlated_pair_is_ln2():
    # Perfectly correlated pair: cardinality [1/2, 0, 1/2]; the LMB
    # approximation with r = 1/2 each gives [1/4, 1/2, 1/4]; KL = ln 2.
    g = single([0.0], [[1.0]])
    d = dglmb_from_rows((L1, L2), [
        ((), 0.5, {}),
        ((L1, L2), 0.5, {L1: g, L2: g}),
    ])
    assert kl_criterion(d) == pytest.approx(np.log(2.0), abs=1e-12)


def test_criterion_zero_for_independent_density(rng):
    # An LMB expanded to delta-GLMB form carries no extra cardinality
    # information, so the criterion must vanish.
    for _ in range(50):
        lmb, _ = random_lmb_instance(rng, max_tracks=4, max_measurements=0)
        assert kl_criterion(lmb_to_dglmb(lmb, CAP)) < 1e-10


def test_criterion_positive_after_contested_update(rng):
    # Two overlapping tracks fighting for one measurement leave real
    # cardinality correlation behind.
    lmb = lmb_from_tracks({
        L1: (0.5, single([0.0, 0.0], np.eye(2))),
        L2: (0.5, single([0.5, 0.0], np.eye(2))),
    })
    sensor = SensorModel(np.eye(2), np.eye(2), 0.9, 1e-4)
    out = lmb_update(lmb, [[0.2, 0.0]], sensor, CAP, np.inf)
    assert kl_criterion(out.posterior) > 1e-4


def test_entropy_certain_association_is_zero():
    assert association_entropy(np.array([[1.0], [0.0]])) == pytest.approx(
        0.0, abs=1e-12)


def test_entropy_even_split_is_ln2():
    assert association_entropy(np.array([[0.5], [0.5]])) == pytest.approx(
        np.log(2.0), abs=1e-12)


def test_entropy_mild_split_value():
    got = association_entropy(np.array([[0.98], [0.02]]))
    expected = -0.98 * np.log(0.98) - 0.02 * np.log(0.02)
    assert got == pytest.approx(expected, abs=1e-12)


def test_entropy_sums_over_columns():
    m = np.array([[0.5, 0.3], [0.5, 0.7]])
    expected = (-0.5 * np.log(0.5) * 2
                - 0.3 * np.log(0.3) - 0.7 * np.log(0.7))
    assert association_entropy(m) == pytest.approx(expected, abs=1e-12)


def test_entropy_permutation_invariant(rng):
    m = rng.uniform(0.01, 0.5, (4, 3))
    perm = rng.permutation(4)
    assert association_entropy(m[perm]) == pytest.approx(
        association_entropy(m), abs=1e-12)


def test_entropy_empty_matrix_is_zero():
    assert association_entropy(np.zeros((0, 0))) == 0.0
    assert association_entropy(np.zeros((3, 0))) == 0.0


def test_stacked_criteria_match_the_one_density_formulas(rng):
    # Up to 12 cells per row (np.sum sums pairwise from 8), with zero
    # cells, support mismatches and mass below the 1e-15 floor; up to 4 x
    # 4 marginals per density, some empty.
    for _ in range(300):
        g, n = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        p = rng.random((g, n)) * (rng.random((g, n)) < 0.7)
        p[:, 0] += 1e-3
        p /= p.sum(1, keepdims=True)
        p[rng.random((g, n)) < 0.1] = 1e-16
        q = rng.random((g, n)) * (rng.random((g, n)) < 0.9)
        want = [ref_kl_divergence(np.where(a > 1e-15, a, 0.0), b)
                for a, b in zip(p, q)]
        assert cardinality_kl(p, q).tolist() == want
        assert [cardinality_kl(a, b) for a, b in zip(p, q)] == want
        shapes = rng.integers(0, 5, (g, 2))
        marginals = [rng.random(shape) * (rng.random(shape) < 0.7)
                     for shape in shapes.tolist()]
        want = [ref_association_entropy(m) for m in marginals]
        got = association_entropies(
            np.concatenate([m.ravel() for m in marginals]),
            np.repeat(np.arange(g), shapes.prod(1)), g)
        assert got.tolist() == want
        assert [association_entropy(m) for m in marginals] == want


def test_switch_automaton_exhaustive():
    config = PipelineConfig(kl_threshold=1e-4, entropy_threshold=0.5)
    for state, kl, entropy, expected in switch_cases(config):
        got = decide_switch(state, kl, entropy, config)
        assert got is expected, (state, kl, entropy, got, expected)


def test_trigger_mode_names_the_form():
    # NONE is LMB form; every other trigger holds delta-GLMB form.
    assert [t.mode for t in Trigger] == [Mode.LMB] + 3 * [Mode.DGLMB]
    assert [t.name for t in Trigger] == ["NONE", "KL", "ENTROPY", "PINNED"]


def test_switch_kl_checked_before_entropy():
    config = PipelineConfig(kl_threshold=1e-4, entropy_threshold=0.5)
    out = decide_switch(Trigger.NONE, 1.0, 1.0, config)
    assert out is Trigger.KL


def test_switch_back_only_on_own_criterion():
    config = PipelineConfig(kl_threshold=1e-4, entropy_threshold=0.5)
    # KL-triggered group ignores entropy staying high.
    out = decide_switch(Trigger.KL, 0.0, 10.0, config)
    assert out.mode is Mode.LMB
    # Entropy-triggered group ignores KL staying high.
    out = decide_switch(Trigger.ENTROPY, 10.0, 0.0, config)
    assert out.mode is Mode.LMB


def test_lmb_state_never_carries_a_trigger():
    back = decide_switch(Trigger.KL, 0.0, 0.0, PipelineConfig())
    assert back is Trigger.NONE and back.mode is Mode.LMB
