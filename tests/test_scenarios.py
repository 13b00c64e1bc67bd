"""Scenario configs, builtin scenarios, truth and measurement generation."""

import json
from importlib import resources

import numpy as np
import pytest

from almbtrack import (BUILTIN_SCENARIOS, ConfigurationError,
                       PipelineConfig, UsageError, builtin_scenario,
                       generate_measurements, generate_truth, load_scenario,
                       scenario_from_dict, truth_cardinality, truth_positions)
from almbtrack.scenarios import (make_birth_model, make_motion,
                                 make_ospa_params, make_pipeline_config,
                                 make_sensor, region_area, transition_matrix)


def test_builtin_names():
    assert sorted(BUILTIN_SCENARIOS) == ["sixteen-target", "two-target"]


def test_unknown_builtin_raises():
    with pytest.raises(UsageError):
        builtin_scenario("no-such-scenario")


def test_two_target_truth_shape():
    cfg = builtin_scenario("two-target")
    assert cfg.steps == 100
    assert cfg.sensor.clutter_rate == 50.0
    assert cfg.sensor.detection_prob == 0.98
    truth = generate_truth(cfg)
    card = truth_cardinality(truth, cfg.steps)
    assert list(card[:90]) == [2] * 90
    assert list(card[90:]) == [0] * 10


def test_two_target_tracks_cross():
    # The trajectories meet head-on mid-scenario inside the central
    # region where label ambiguity matters.
    cfg = builtin_scenario("two-target")
    truth = generate_truth(cfg)
    dists = {}
    for k in range(1, 91):
        pos = truth_positions(truth, k)
        dists[k] = float(np.linalg.norm(pos[0][1] - pos[1][1]))
    k_min = min(dists, key=dists.get)
    assert dists[k_min] < 1.0
    pos = truth_positions(truth, k_min)
    for _, p in pos:
        assert -100.0 <= p[0] <= 100.0
        assert 0.0 <= p[1] <= 250.0


def test_two_target_starts_at_opposite_edges():
    cfg = builtin_scenario("two-target")
    truth = generate_truth(cfg)
    xs = sorted(p[0] for _, p in truth_positions(truth, 1))
    assert xs[0] == pytest.approx(-1000.0)
    assert xs[1] == pytest.approx(1000.0)


def test_sixteen_target_ramps_to_sixteen():
    cfg = builtin_scenario("sixteen-target")
    assert cfg.sensor.clutter_rate == 25.0
    truth = generate_truth(cfg)
    card = truth_cardinality(truth, cfg.steps)
    assert card[0] == 4
    assert max(card) == 16
    assert card[89] == 16


def test_truth_motion_is_noise_free_constant_velocity():
    cfg = builtin_scenario("two-target")
    truth = generate_truth(cfg)
    t = truth[0]
    F = transition_matrix(cfg.cycle_time)
    for k in range(t.birth_step, t.death_step):
        np.testing.assert_allclose(t.state(k + 1), F @ t.state(k), atol=1e-12)


def test_measurements_detection_only():
    # p_D = 1 and no clutter: exactly one measurement per alive target.
    cfg = builtin_scenario("two-target")
    cfg.sensor.detection_prob = 1.0
    cfg.sensor.clutter_rate = 0.0
    truth = generate_truth(cfg)
    scans = generate_measurements(truth, cfg, np.random.default_rng(7))
    card = truth_cardinality(truth, cfg.steps)
    for k, scan in enumerate(scans):
        assert len(scan) == card[k]


def test_measurement_noise_level():
    cfg = builtin_scenario("two-target")
    cfg.sensor.detection_prob = 1.0
    cfg.sensor.clutter_rate = 0.0
    truth = generate_truth(cfg)
    scans = generate_measurements(truth, cfg, np.random.default_rng(11))
    residuals = []
    for k in range(1, 91):
        pos = sorted(truth_positions(truth, k), key=lambda t: t[1][0])
        zs = sorted(scans[k - 1], key=lambda z: z[0])
        for (_, p), z in zip(pos, zs):
            residuals.extend(z - p)
    std = np.std(residuals)
    assert 9.0 < std < 11.0


def test_clutter_count_is_poisson_rate():
    cfg = builtin_scenario("two-target")
    cfg.sensor.detection_prob = 0.0
    cfg.steps = 400
    truth = generate_truth(cfg)
    scans = generate_measurements(truth, cfg, np.random.default_rng(13))
    counts = [len(s) for s in scans]
    assert abs(np.mean(counts) - 50.0) < 1.5
    region = np.asarray(cfg.region, dtype=float)
    for scan in scans[:10]:
        for z in scan:
            assert region[0, 0] <= z[0] <= region[0, 1]
            assert region[1, 0] <= z[1] <= region[1, 1]


def test_measurements_reproducible_by_seed():
    cfg = builtin_scenario("two-target")
    truth = generate_truth(cfg)
    a = generate_measurements(truth, cfg, np.random.default_rng(42))
    b = generate_measurements(truth, cfg, np.random.default_rng(42))
    for sa, sb in zip(a, b):
        assert len(sa) == len(sb)
        for za, zb in zip(sa, sb):
            np.testing.assert_array_equal(za, zb)


def test_model_builders_match_config():
    cfg = builtin_scenario("two-target")
    motion = make_motion(cfg)
    assert motion.survival_prob == pytest.approx(0.99)
    np.testing.assert_allclose(motion.F, transition_matrix(1.0))
    sensor = make_sensor(cfg)
    np.testing.assert_allclose(sensor.R, 100.0 * np.eye(2))
    # Clutter density: rate divided by region area.
    assert region_area(cfg) == pytest.approx(4e6)
    assert sensor.clutter_density == pytest.approx(50.0 / 4e6)
    births = make_birth_model(cfg)
    assert len(births) == 2
    assert births[0][0] == pytest.approx(0.05)
    assert make_pipeline_config(cfg) == PipelineConfig(
        kl_threshold=1e-4, entropy_threshold=0.5)
    params = make_ospa_params(cfg)
    assert (params.p, params.c, params.alpha) == (1.0, 300.0, 100.0)


def test_transition_matrix_block_structure():
    F = transition_matrix(2.0)
    x = np.array([1.0, 3.0, -2.0, 0.5])
    y = F @ x
    np.testing.assert_allclose(y, [1.0 + 6.0, 3.0, -2.0 + 1.0, 0.5])


def test_scenario_dict_round_trip():
    cfg = builtin_scenario("two-target")
    again = scenario_from_dict(cfg.to_dict())
    assert again.steps == cfg.steps
    assert again.sensor.clutter_rate == cfg.sensor.clutter_rate
    assert len(again.truth) == len(cfg.truth)


def test_unknown_keys_rejected():
    cfg = builtin_scenario("two-target").to_dict()
    cfg["frobnicate"] = 1
    with pytest.raises(ConfigurationError):
        scenario_from_dict(cfg)
    cfg = builtin_scenario("two-target").to_dict()
    cfg["sensor"]["typo_key"] = 2
    with pytest.raises(ConfigurationError):
        scenario_from_dict(cfg)


def test_validation_catches_bad_lifetimes():
    cfg = builtin_scenario("two-target").to_dict()
    cfg["truth"][0]["death_step"] = 500
    with pytest.raises(ConfigurationError):
        scenario_from_dict(cfg)


def bad(block, key, value):
    # A block of None means a top-level key.  Tracker and top-level cases
    # get plain "key-value" ids, the others "block.key-value".  Tracker
    # keys other than the two thresholds are rejected as unknown.
    name = key if block in ("tracker", None) else "%s.%s" % (block, key)
    return pytest.param(block, key, value, id="%s-%s" % (name, value))


NAN = float("nan")


@pytest.mark.parametrize("block, key, value", [
    bad("tracker", "cap", 0), bad("tracker", "cap", -5),
    bad("tracker", "cap", 2.5), bad("tracker", "cap", float("inf")),
    bad("tracker", "cap", "50"), bad("tracker", "cap", True),
    bad("tracker", "merge_cap", 0), bad("tracker", "gm_cap", 0),
    bad("tracker", "gate_sq", 0.0), bad("tracker", "gate_sq", -9.0),
    bad("tracker", "gate_sq", NAN), bad("tracker", "gm_merge", -0.5),
    bad("tracker", "lmb_prune", 1.0), bad("tracker", "lmb_prune", -0.01),
    bad("tracker", "dglmb_prune", 1.0), bad("tracker", "gm_prune", 2.0),
    bad("tracker", "extraction", 1.0), bad("tracker", "extraction", NAN),
    bad("tracker", "kl_threshold", -1e-4),
    bad("tracker", "entropy_threshold", -0.5),
    bad("tracker", "entropy_threshold", NAN),
    bad("ospa", "p", "x"), bad("ospa", "p", NAN), bad("ospa", "p", 0.5),
    bad("ospa", "c", 0.0), bad("ospa", "alpha", -1.0),
    bad("ospa", "alpha", 400.0),
    bad("sensor", "clutter_rate", "x"), bad("sensor", "clutter_rate", -1.0),
    bad("sensor", "position_noise_std", NAN),
    bad("sensor", "position_noise_std", 0.0),
    bad("sensor", "detection_prob", 1.5),
    bad("motion", "velocity_noise_std", NAN),
    bad("motion", "velocity_noise_std", -1.0),
    bad("motion", "survival_prob", "x"),
    bad(None, "cycle_time", "x"), bad(None, "cycle_time", 0.0),
    bad(None, "steps", "x"), bad(None, "steps", 2.5), bad(None, "steps", 100.0),
    bad(None, "seed", "x"), bad(None, "seed", -1), bad(None, "seed", 1.5),
    bad(None, "region", "x"), bad(None, "region", [[-1.0, NAN], [0.0, 1.0]]),
    bad(None, "region", [["-1", "1"], ["-1", "1"]]),
    bad(None, "region", [[-1.0, 1.0], [-1.0]]),
    bad(None, "region", [[0.0, 1e-200], [0.0, 1e-200]]),
    bad(None, "region", [[-1e200, 1e200], [-1e200, 1e200]]),
    bad(None, "birth", 5), bad(None, "birth", None), bad(None, "truth", None),
    bad("birth", "existence", "x"), bad("birth", "mean", [0.0, "x", 0.0, 0.0]),
    bad("birth", "std", [1.0, 1.0, 1.0, NAN]),
    bad("birth", "std", [-10.0, 10.0, 10.0, 10.0]),
    bad("truth", "birth_step", "x"), bad("truth", "death_step", 2.5),
    bad("truth", "state", [0.0, 1.0, None, 0.0]),
])
def test_validation_catches_bad_tracker_values(block, key, value):
    cfg = builtin_scenario("two-target").to_dict()
    target = cfg if block is None else cfg[block]
    # birth and truth are lists: the first entry gets the bad value.
    (target[0] if isinstance(target, list) else target)[key] = value
    with pytest.raises(ConfigurationError, match=key):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("block, key", [
    (None, "cycle_time"), ("motion", "velocity_noise_std"),
    ("sensor", "position_noise_std"), ("sensor", "clutter_rate"),
    ("ospa", "p"), ("ospa", "c")])
def test_validation_rejects_infinite_settings(block, key):
    # JSON readers accept Infinity; these settings must be finite.
    cfg = builtin_scenario("two-target").to_dict()
    (cfg if block is None else cfg[block])[key] = float("inf")
    text = json.dumps(cfg)
    assert "Infinity" in text
    with pytest.raises(ConfigurationError,
                       match=r"%s %s must be in .*, inf\), got inf" % (
                           block or "scenario", key)):
        scenario_from_dict(json.loads(text))


def test_validation_accepts_tracker_range_edges():
    cfg = builtin_scenario("two-target").to_dict()
    for edge in (0.0, float("inf")):
        cfg["tracker"].update(kl_threshold=edge, entropy_threshold=edge)
        assert scenario_from_dict(cfg).tracker == PipelineConfig(edge, edge)


def test_builtin_tracker_blocks_hold_only_the_thresholds():
    for name in BUILTIN_SCENARIOS:
        path = resources.files("almbtrack.data") / (
            name.replace("-", "_") + ".json")
        tracker = json.loads(path.read_text())["tracker"]
        assert sorted(tracker) == ["entropy_threshold", "kl_threshold"]


@pytest.mark.parametrize("key, value", [("cap", 50), ("gate_sq", 9.2103)])
def test_removed_tracker_key_rejected_at_its_old_default(key, value):
    # The truncation limits are constants, not settings: a scenario that
    # sets one, even to the constant's value, is told which key is wrong.
    cfg = builtin_scenario("two-target").to_dict()
    cfg["tracker"][key] = value
    with pytest.raises(ConfigurationError,
                       match=r"unknown key\(s\) \['%s'\] in tracker" % key):
        scenario_from_dict(cfg)


def test_load_scenario_from_file(tmp_path):
    cfg = builtin_scenario("two-target")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_scenario(str(path))
    assert loaded.steps == 100
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_scenario(str(bad))
