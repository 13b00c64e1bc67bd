"""Invariants after every pipeline stage.

The stages of ``pipeline_step`` run by hand for 20 scans, for every
policy, on both builtins at their scenario seeds and on two-target with
degenerate detection, survival and clutter.  After each stage:
delta-GLMB weights are finite and sum to one, existences lie in [0, 1]
and no mixture holds a NaN; after the update every covariance is
symmetric and has a Cholesky factor.  The hand-run scans report what
``MultiObjectTracker`` reports, so the stages are those the tracker
runs.  One more run adds, from scan 5 on, a measurement exactly on each
reported track's predicted measurement (squared Mahalanobis distance
zero).  Long runs of 1,000 scans check the same invariants, and the
hypothesis cap, after every scan.
"""

import dataclasses

import numpy as np
import pytest

from almbtrack import (DglmbDensity, MultiObjectTracker, builtin_scenario,
                       generate_measurements, generate_truth)
from almbtrack.gaussian import mahalanobis_sq, predicted_measurement
from almbtrack.harness import FILTER_NAMES
from almbtrack.pipeline import (CAP, EXTRACTION, extract_tracks,
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


def check(groups, stage, updated=False):
    for group in groups:
        d = group.density
        if isinstance(d, DglmbDensity):
            assert np.isfinite(d.w).all(), stage
            assert abs(float(d.w.sum()) - 1.0) <= 1e-12, stage
        for r in group.lmb_view().r:
            assert 0.0 <= r <= 1.0, stage
        for gm in d.mixtures:
            assert not np.isnan(gm.w).any(), stage
            assert not np.isnan(gm.m).any(), stage
            assert not np.isnan(gm.P).any(), stage
            if updated:
                assert np.array_equal(gm.P, gm.P.swapaxes(1, 2)), stage
                np.linalg.cholesky(gm.P)


def on_predictions(groups, sensor):
    """A measurement exactly at ``H m`` of the heaviest predicted
    component of each track above the extraction threshold."""
    out = []
    for group in groups:
        view = group.lmb_view()
        for gm, r in zip(view.mixtures, view.r):
            if r > EXTRACTION:
                z = predicted_measurement([gm], sensor)[0][0]
                assert mahalanobis_sq(z, gm, sensor) == 0.0
                out.append(z)
    return out


def run_stages(config, policy, exact_from=None):
    """Run the stages by hand for ``SCANS`` scans, checking after each,
    and check each scan against ``MultiObjectTracker``.  From scan
    ``exact_from`` on the scan also holds ``on_predictions``; returns how
    many such measurements there were."""
    truth = generate_truth(config)
    measurements = generate_measurements(
        truth, config, np.random.default_rng(config.seed))[:SCANS]
    tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                 make_birth_model(config),
                                 make_pipeline_config(config), policy)
    motion, sensor = tracker.motion, tracker.sensor
    groups, exact = [], 0
    for k, Z in enumerate(measurements, 1):
        groups = inject_birth(groups, tracker.births, k, tracker.birth_state,
                              sensor)
        check(groups, "birth")
        groups = [predict_group(g, motion) for g in groups]
        check(groups, "predict")
        if exact_from is not None and k >= exact_from:
            on = on_predictions(groups, sensor)
            Z, exact = list(Z) + on, exact + len(on)
        gates = gate_measurements(groups, Z, sensor)
        assert all(0 <= j < len(Z) for gate in gates for j in gate)
        groups = merge_groups(groups, gates)
        check(groups, "merge")
        results = update_group(groups, Z, sensor, tracker.config)
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
    return exact


@pytest.mark.parametrize("policy", FILTER_NAMES)
@pytest.mark.parametrize("setting", SETTINGS)
def test_invariants_hold_after_every_stage(setting, policy):
    run_stages(scenario(setting), policy)


@pytest.mark.parametrize("policy", FILTER_NAMES)
def test_invariants_hold_with_measurements_on_predictions(policy):
    assert run_stages(scenario("two-target"), policy, exact_from=5) > 0


@pytest.mark.parametrize("policy", FILTER_NAMES)
def test_invariants_hold_over_a_long_run(policy):
    # Two-target for 1,000 scans with its shipped truth and births at the
    # scenario seed.  The targets die at scan 90 and what clutter starts
    # at the edge births rarely lives 100 scans, so every scan is checked.
    config = dataclasses.replace(builtin_scenario("two-target"), steps=1000)
    measurements = generate_measurements(
        generate_truth(config), config, np.random.default_rng(config.seed))
    tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                 make_birth_model(config),
                                 make_pipeline_config(config), policy)
    for k, Z in enumerate(measurements, 1):
        tracker.step(Z)
        check(tracker.groups, "scan %d" % k)
        assert all(len(g.density.w) <= CAP for g in tracker.groups
                   if isinstance(g.density, DglmbDensity))
