"""OSPA and labeled OSPA scoring."""

import numpy as np
import pytest

from almbtrack import ConfigurationError, OspaParams, ospa, ospat

P = OspaParams(p=1.0, c=300.0, alpha=100.0)


def test_identical_sets_score_zero():
    x = [[0.0, 0.0], [10.0, 5.0]]
    assert ospa(x, x, P) == pytest.approx(0.0, abs=1e-12)


def test_empty_versus_empty():
    assert ospa([], [], P) == 0.0


def test_empty_versus_point_costs_cutoff():
    assert ospa([], [[1.0, 2.0]], P) == pytest.approx(300.0)
    assert ospa([[1.0, 2.0]], [], P) == pytest.approx(300.0)


def test_singletons_score_their_distance():
    assert ospa([[0.0, 0.0]], [[6.0, 8.0]], P) == pytest.approx(10.0)


def test_distance_capped_at_cutoff():
    assert ospa([[0.0, 0.0]], [[1e6, 0.0]], P) == pytest.approx(300.0)


def test_cardinality_error_averages_cutoff():
    # One matched pair at distance 0 plus one unmatched element, which
    # costs the full cutoff wherever it sits: (0 + c) / 2.
    x = [[0.0, 0.0]]
    for extra in ([50.0, 0.0], [1e5, 0.0]):
        y = [[0.0, 0.0], extra]
        assert ospa(x, y, P) == pytest.approx((0.0 + 300.0) / 2.0)


def test_symmetry(rng):
    for _ in range(20):
        x = rng.normal(0, 100, (int(rng.integers(0, 5)), 2))
        y = rng.normal(0, 100, (int(rng.integers(0, 5)), 2))
        assert ospa(x, y, P) == pytest.approx(ospa(y, x, P), abs=1e-9)


def test_bounded_by_cutoff(rng):
    for _ in range(20):
        x = rng.normal(0, 500, (int(rng.integers(0, 6)), 2))
        y = rng.normal(0, 500, (int(rng.integers(0, 6)), 2))
        assert 0.0 <= ospa(x, y, P) <= 300.0 + 1e-9


def test_order_two_matches_hand_value():
    params = OspaParams(p=2.0, c=100.0, alpha=0.0)
    # One pair at distance 3, one at 4: sqrt((9 + 16) / 2).
    x = [[0.0, 0.0], [10.0, 0.0]]
    y = [[3.0, 0.0], [10.0, 4.0]]
    assert ospa(x, y, params) == pytest.approx(np.sqrt(12.5))


def test_params_validation():
    with pytest.raises(ConfigurationError):
        OspaParams(p=0.5)
    with pytest.raises(ConfigurationError):
        OspaParams(c=-1.0)
    with pytest.raises(ConfigurationError):
        OspaParams(alpha=400.0)
    with pytest.raises(ConfigurationError):
        OspaParams(p=float("nan"))


def steps_from(paths):
    """Build per-scan (id, position) lists from id -> list of positions
    (None marks absence)."""
    length = max(len(v) for v in paths.values())
    out = []
    for k in range(length):
        step = []
        for ident, positions in paths.items():
            if k < len(positions) and positions[k] is not None:
                step.append((ident, np.asarray(positions[k], dtype=float)))
        out.append(step)
    return out


def test_ospat_consistent_labels_score_zero():
    truth = steps_from({"a": [[0, 0], [1, 0], [2, 0]]})
    est = steps_from({7: [[0, 0], [1, 0], [2, 0]]})
    np.testing.assert_allclose(ospat(truth, est, P), np.zeros(3), atol=1e-12)


def test_ospat_position_error_passes_through():
    truth = steps_from({"a": [[0, 0], [1, 0]]})
    est = steps_from({7: [[0, 3], [1, 3]]})
    np.testing.assert_allclose(ospat(truth, est, P), [3.0, 3.0], atol=1e-12)


def test_ospat_label_switch_costs_alpha():
    # The estimator swaps its labels at scan 2 while staying on target:
    # stage 1 pairs each truth with the label covering most of its life,
    # so the post-swap scans carry the alpha penalty per target.
    truth = steps_from({
        "a": [[0, 0], [0, 1], [0, 2], [0, 3]],
        "b": [[100, 0], [100, 1], [100, 2], [100, 3]],
    })
    est = steps_from({
        1: [[0, 0], [0, 1], [100, 2], [100, 3]],
        2: [[100, 0], [100, 1], [0, 2], [0, 3]],
    })
    got = ospat(truth, est, P)
    np.testing.assert_allclose(got[:2], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(got[2:], [100.0, 100.0], atol=1e-12)


def test_ospat_relabeling_invariance():
    # A bijective renaming of estimate labels cannot change the score.
    truth = steps_from({
        "a": [[0, 0], [0, 1], [0, 2]],
        "b": [[50, 0], [50, 1], [50, 2]],
    })
    est1 = steps_from({
        10: [[0, 0.5], [0, 1.5], [0, 2.5]],
        20: [[50, 0.5], [50, 1.5], [50, 2.5]],
    })
    est2 = steps_from({
        99: [[0, 0.5], [0, 1.5], [0, 2.5]],
        -3: [[50, 0.5], [50, 1.5], [50, 2.5]],
    })
    np.testing.assert_allclose(ospat(truth, est1, P), ospat(truth, est2, P),
                               atol=1e-12)


def test_ospat_missing_track_costs_cutoff_share():
    truth = steps_from({
        "a": [[0, 0], [0, 1]],
        "b": [[50, 0], [50, 1]],
    })
    est = steps_from({1: [[0, 0], [0, 1]]})
    # One covered truth at distance 0, one unmatched: (0 + 300) / 2.
    np.testing.assert_allclose(ospat(truth, est, P), [150.0, 150.0],
                               atol=1e-12)


def test_ospat_empty_scans():
    truth = [[], [("a", np.array([0.0, 0.0]))]]
    est = [[], []]
    got = ospat(truth, est, P)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(300.0)


def test_ospat_short_lived_clutter_track_not_preferred():
    # A two-scan clutter track sitting exactly on the truth must not
    # steal the correspondence from the track covering all five scans
    # at a small offset.
    truth = steps_from({"a": [[0, 0], [0, 10], [0, 20], [0, 30], [0, 40]]})
    est = steps_from({
        1: [[2, 0], [2, 10], [2, 20], [2, 30], [2, 40]],
        2: [None, [0, 10], [0, 20], None, None],
    })
    got = ospat(truth, est, P)
    # Scans 1, 4, 5: single estimate, matched label, distance 2.
    np.testing.assert_allclose(got[[0, 3, 4]], [2.0, 2.0, 2.0], atol=1e-12)
    # Scans 2, 3: spurious extra estimate costs the cutoff share; the
    # matched track still scores 2, the interloper alpha-penalized.
    assert got[1] == pytest.approx((2.0 + 300.0) / 2.0)


def test_ospat_length_mismatch_raises():
    with pytest.raises(ConfigurationError):
        ospat([[]], [[], []], P)


def test_ospat_alpha_zero_equals_unlabeled_ospa(rng):
    params = OspaParams(p=1.0, c=300.0, alpha=0.0)
    truth = steps_from({
        "a": [[0, 0], [0, 10], [0, 20]],
        "b": [[40, 0], [40, 10], [40, 20]],
    })
    est = steps_from({
        1: [[1, 0], [1, 10], [1, 20]],
        2: [[41, 0], [39, 10], [41, 20]],
    })
    got = ospat(truth, est, params)
    for k in range(3):
        t = [pos for _, pos in truth[k]]
        e = [pos for _, pos in est[k]]
        assert got[k] == ospa(t, e, params)


@pytest.mark.parametrize("p, c, alpha", [(8, 300, 100), (7, 1000, 0)])
def test_ospat_takes_integer_settings_as_floats(p, c, alpha):
    # c ** p in Python ints passes 2**63 here, past what a numpy float
    # array can be scaled by; the settings are stored as floats.
    params = OspaParams(p=p, c=c, alpha=alpha)
    assert all(type(v) is float for v in (params.p, params.c, params.alpha))
    truth = steps_from({
        "a": [[0, 0], [0, 1], [0, 2], [0, 3]],
        "b": [[100, 0], [100, 1], [100, 2], None],
    })
    est = steps_from({
        1: [[0, 0], [0, 1], [100, 2], [100, 3]],
        2: [[100, 0], None, [0, 2], [0, 3]],
    })
    floats = OspaParams(p=float(p), c=float(c), alpha=float(alpha))
    assert ospat(truth, est, params).tobytes() == \
        ospat(truth, est, floats).tobytes()
