"""Invariants after every pipeline stage.

The stages of ``pipeline_step`` run by hand for 20 scans, for every
policy, on both builtins at their scenario seeds and on two-target with
degenerate detection, survival and clutter.  After each stage:
delta-GLMB weights are finite and sum to one, existences lie in [0, 1]
and no mixture holds a NaN; after the update every covariance is
symmetric and has a Cholesky factor.  The hand-run scans report what
``MultiObjectTracker`` reports, so the stages are those the tracker
runs.
"""

import dataclasses

import numpy as np
import pytest

from almbtrack import (DglmbDensity, MultiObjectTracker, builtin_scenario,
                       generate_measurements, generate_truth)
from almbtrack.harness import FILTER_NAMES
from almbtrack.pipeline import (EXTRACTION, GATE_SQ, extract_tracks,
                                gate_measurements, inject_birth, merge_groups,
                                predict_group, prune_group, split_group,
                                update_group)
from almbtrack.scenarios import (make_birth_model, make_motion,
                                 make_pipeline_config, make_sensor)

SCANS = 20

# (scenario, block, changes) with the scenario seed.
SETTINGS = {
    "two-target": ("two-target", None, {}),
    "sixteen-target": ("sixteen-target", None, {}),
    "p_D=0": ("two-target", "sensor", {"detection_prob": 0.0}),
    "p_D=1": ("two-target", "sensor", {"detection_prob": 1.0}),
    "p_S=0": ("two-target", "motion", {"survival_prob": 0.0}),
    "p_S=1": ("two-target", "motion", {"survival_prob": 1.0}),
    "no-clutter": ("two-target", "sensor", {"clutter_rate": 0.0}),
}


def scenario(name):
    base, block, changes = SETTINGS[name]
    config = builtin_scenario(base)
    if block is not None:
        config = dataclasses.replace(config, **{
            block: dataclasses.replace(getattr(config, block), **changes)})
    return config


def mixtures(group):
    if isinstance(group.density, DglmbDensity):
        return group.density.mixtures
    return [track.spatial for track in group.density.tracks.values()]


def check(groups, stage, updated=False):
    for group in groups:
        d = group.density
        if isinstance(d, DglmbDensity):
            assert np.isfinite(d.w).all(), stage
            assert abs(float(d.w.sum()) - 1.0) <= 1e-12, stage
        for track in group.lmb_view().tracks.values():
            assert 0.0 <= track.existence <= 1.0, stage
        for gm in mixtures(group):
            for c in gm.components:
                assert not np.isnan(c.weight), stage
                assert not np.isnan(c.mean).any(), stage
                assert not np.isnan(c.covariance).any(), stage
                if updated:
                    assert np.array_equal(c.covariance, c.covariance.T), \
                        stage
                    np.linalg.cholesky(c.covariance)


@pytest.mark.parametrize("policy", FILTER_NAMES)
@pytest.mark.parametrize("setting", SETTINGS)
def test_invariants_hold_after_every_stage(setting, policy):
    config = scenario(setting)
    truth = generate_truth(config)
    measurements = generate_measurements(
        truth, config, np.random.default_rng(config.seed))[:SCANS]
    tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                 make_birth_model(config),
                                 make_pipeline_config(config), policy)
    motion, sensor = tracker.motion, tracker.sensor
    groups = []
    for k, Z in enumerate(measurements, 1):
        groups = inject_birth(groups, tracker.births, k, tracker.birth_state,
                              sensor)
        check(groups, "birth")
        groups = [predict_group(g, motion) for g in groups]
        check(groups, "predict")
        groups = gate_measurements(groups, Z, sensor, GATE_SQ)
        check(groups, "gate")
        groups = merge_groups(groups)
        check(groups, "merge")
        results = [update_group(g, [Z[j] for j in g.gated], sensor,
                                tracker.config) for g in groups]
        for _, kl, entropy in results:
            assert not np.isnan(kl) and not np.isnan(entropy)
        groups = [group for group, _, _ in results]
        check(groups, "update", updated=True)
        groups = [g for g in map(prune_group, groups) if g is not None]
        check(groups, "prune")
        groups = [part for g in groups for part in split_group(g, sensor)]
        check(groups, "split")
        extracted = extract_tracks(groups, EXTRACTION)
        expected, _ = tracker.step(Z)
        assert [label for label, _ in extracted] == \
            [label for label, _ in expected]
        for (_, state), (_, want) in zip(extracted, expected):
            assert np.isfinite(state).all()
            assert np.array_equal(state, want)
