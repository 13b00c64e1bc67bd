"""Group pipeline: birth, gating, merging, the update and its switching,
prune, split, extraction, and the stateful tracker wrapper with its
three filter settings."""

import dataclasses
import warnings

import numpy as np
import pytest

from almbtrack import (ConfigurationError, DensityGroup, DglmbDensity,
                       GaussianMixture, Label, LmbDensity, Mode,
                       MultiObjectTracker, NumericalError, PipelineConfig,
                       SensorModel, Trigger, UsageError, association_entropy,
                       builtin_scenario, decide_switch, dglmb_to_lmb,
                       dglmb_update, generate_measurements, generate_truth,
                       kl_criterion, lmb_to_dglmb, lmb_update)
from almbtrack import dglmb, pipeline
from almbtrack.assignment import ranked_assignments
from almbtrack.dglmb import one_track_update, one_track_updates
from almbtrack.gaussian import gate_mask, gm_kalman_update_log
from almbtrack.harness import run_filter
from almbtrack.scenarios import make_birth_model, make_motion, make_sensor
from almbtrack.pipeline import (CAP, GATE_SQ, _reduce_lmb, _within,
                                extract_tracks, gate_measurements,
                                inject_birth, merge_groups, pipeline_step,
                                prune_group, split_group, update_group)

from conftest import cv_motion, position_sensor, single
from oracles import dglmb_from_rows, lmb_from_tracks, rows_of, same_mixture

CFG = PipelineConfig()
LMB_STATE = Trigger.NONE
PINNED = Trigger.PINNED
SENSOR = position_sensor(10.0, 0.98, 1.25e-5)
MOTION = cv_motion()


def birth_entry(x, y, existence=0.05, std=10.0):
    return existence, single([x, y, 0.0, 0.0], std ** 2 * np.eye(4))


def track_group(label, x, y, existence=0.9, std=10.0, state=None):
    lmb = lmb_from_tracks({label: (existence, single(
        [x, y, 0.0, 0.0], std ** 2 * np.eye(4)))})
    if state is None:
        return DensityGroup(lmb)
    return DensityGroup(lmb, state)


def update_one(group, scan, sensor, config):
    """``update_group`` of ``group`` alone on the table ``scan``, which
    the update gates itself."""
    return update_group([group], np.array(scan), sensor, config)[0]


def test_birth_injects_one_group_per_entry():
    births = [birth_entry(-1000.0, 0.0), birth_entry(1000.0, 0.0)]
    groups = inject_birth([], births, 3, LMB_STATE, SENSOR)
    assert len(groups) == 2
    labels = sorted(lab for g in groups for lab in g.density.label_space)
    assert labels == [Label(3, 0), Label(3, 1)]
    for g in groups:
        assert isinstance(g.density, LmbDensity)
        assert g.state.mode is Mode.LMB
        assert g.density.r == [pytest.approx(0.05)]


def test_birth_pinned_delta_for_dglmb_policy():
    births = [birth_entry(0.0, 0.0)]
    groups = inject_birth([], births, 1, PINNED, SENSOR)
    assert isinstance(groups[0].density, DglmbDensity)
    assert groups[0].state.mode is Mode.DGLMB
    assert groups[0].state is Trigger.PINNED


def test_birth_masked_by_covering_track():
    # A live track sitting on the site suppresses the entry; the other
    # site still fires.
    births = [birth_entry(-1000.0, 0.0), birth_entry(1000.0, 0.0)]
    existing = track_group(Label(1, 0), -1001.0, 2.0)
    groups = inject_birth([existing], births, 5, LMB_STATE, SENSOR)
    labels = sorted(lab for g in groups for lab in g.density.label_space)
    assert labels == [Label(1, 0), Label(5, 1)]


def test_birth_mask_counts_weak_tracks_too():
    # Even a nearly-dead track at the site blocks re-seeding: one more
    # detection would revive it, and a duplicate label could never be
    # separated from it afterwards.
    births = [birth_entry(0.0, 0.0)]
    weak = track_group(Label(1, 0), 0.5, -0.5, existence=0.02)
    groups = inject_birth([weak], births, 2, LMB_STATE, SENSOR)
    assert len(groups) == 1


def test_birth_mask_ignores_distant_track():
    births = [birth_entry(0.0, 0.0)]
    far = track_group(Label(1, 0), 400.0, 0.0)
    groups = inject_birth([far], births, 2, LMB_STATE, SENSOR)
    assert len(groups) == 2


def test_gate_keeps_near_drops_far():
    # Innovation covariance here is (std^2 + 100) I; choose a point
    # track so S = R = 100 I and the gate radius is sqrt(9.2103) * 10.
    group = track_group(Label(1, 0), 0.0, 0.0, std=0.0)
    inside = [np.sqrt(9.2103) * 10.0 - 0.5, 0.0]
    outside = [np.sqrt(9.2103) * 10.0 + 0.5, 0.0]
    out = gate_measurements([group], [inside, outside, [500.0, 500.0]], SENSOR)
    assert out == [[0]]


def test_gate_unions_over_tracks():
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.9, single([0.0, 0.0, 0.0, 0.0], np.eye(4))),
        l2: (0.9, single([200.0, 0.0, 0.0, 0.0], np.eye(4))),
    })
    group = DensityGroup(lmb)
    out = gate_measurements([group], [[0.0, 0.0], [200.0, 0.0],
                                      [100.0, 0.0]], SENSOR)
    assert out == [[0, 1]]


def test_gate_empty_scan():
    group = track_group(Label(1, 0), 0.0, 0.0)
    out = gate_measurements([group], [], SENSOR)
    assert out == [[]]


def test_merge_leaves_disjoint_groups_alone():
    a = track_group(Label(1, 0), 0.0, 0.0)
    b = track_group(Label(1, 1), 500.0, 0.0)
    Z = [[0.0, 0.0], [500.0, 0.0]]
    gates = gate_measurements([a, b], Z, SENSOR)
    assert gates == [[0], [1]]
    merged = merge_groups([a, b], gates)
    assert merged == [a, b]


def test_merge_unions_lmb_groups_sharing_a_measurement():
    a = track_group(Label(1, 0), 0.0, 0.0)
    b = track_group(Label(1, 1), 20.0, 0.0)
    Z = [[10.0, 0.0]]
    gates = gate_measurements([a, b], Z, SENSOR)
    assert gates == [[0], [0]]
    merged = merge_groups([a, b], gates)
    assert len(merged) == 1
    assert isinstance(merged[0].density, LmbDensity)
    assert merged[0].density.label_space == (Label(1, 0), Label(1, 1))


def test_merge_closes_chains_of_shared_measurements():
    # a and b share measurement 0, b and c share measurement 1: a, b and c
    # form one group although a and c share nothing.  d gates alone.
    labels = [Label(1, i) for i in range(4)]
    a, d, b, c = [track_group(lab, 0.0, 0.0) for lab in labels]
    merged = merge_groups([a, d, b, c], [[0], [2], [0, 1], [1]])
    assert len(merged) == 2
    assert merged[0].density.label_space == (labels[0], labels[2],
                                             labels[3])
    assert merged[1] is d


def test_merge_cross_product_weights():
    la, lb = Label(1, 0), Label(1, 1)
    da = lmb_to_dglmb(lmb_from_tracks(
        {la: (0.5, single([0, 0, 0, 0], np.eye(4)))}), CAP)
    db = lmb_to_dglmb(lmb_from_tracks(
        {lb: (0.3, single([9, 0, 0, 0], np.eye(4)))}), CAP)
    ga = DensityGroup(da, Trigger.KL, 0.2)
    gb = DensityGroup(db, Trigger.ENTROPY, 0.1)
    merged = merge_groups([ga, gb], [[0], [0]])
    assert len(merged) == 1
    d = merged[0].density
    assert isinstance(d, DglmbDensity)
    weights = sorted(d.w)
    np.testing.assert_allclose(weights, sorted([0.35, 0.35, 0.15, 0.15]),
                               atol=1e-12)
    assert float(d.w.sum()) == pytest.approx(1.0, abs=1e-12)
    # State follows the member with the larger outstanding criterion.
    assert merged[0].state is Trigger.KL
    assert merged[0].criterion_value == pytest.approx(0.2)


def test_merge_expands_lmb_member_into_delta():
    la, lb = Label(1, 0), Label(1, 1)
    a = track_group(la, 0.0, 0.0, existence=0.5)
    db = lmb_to_dglmb(lmb_from_tracks(
        {lb: (0.3, single([9, 0, 0, 0], np.eye(4)))}), CAP)
    gb = DensityGroup(db, Trigger.KL, 0.4)
    merged = merge_groups([a, gb], [[0], [0]])
    assert len(merged) == 1
    assert isinstance(merged[0].density, DglmbDensity)
    assert len(merged[0].density.hypotheses) == 4


def contested_group():
    # Two tracks competing for one measurement between them.
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.5, single([0, 0, 0, 0], 25.0 * np.eye(4))),
        l2: (0.5, single([5, 0, 0, 0], 25.0 * np.eye(4))),
    })
    return DensityGroup(lmb)


def test_update_policy_lmb_always_collapses():
    # The LMB filter's setting: with infinite thresholds even a contested
    # update stays in LMB form.
    never = PipelineConfig(kl_threshold=np.inf, entropy_threshold=np.inf)
    new, kl, entropy = update_one(contested_group(), [[2.0, 0.0]],
                                  SENSOR, never)
    assert kl > CFG.kl_threshold
    assert isinstance(new.density, LmbDensity)
    assert new.state == LMB_STATE and new.criterion_value == 0.0


def test_update_policy_dglmb_keeps_full_posterior():
    group = DensityGroup(lmb_to_dglmb(track_group(Label(1, 0), 0.0, 0.0,
                                                  existence=0.5).density,
                                      CAP),
                         PINNED)
    new, _, _ = update_one(group, [[1.0, 0.0]], SENSOR, CFG)
    assert isinstance(new.density, DglmbDensity)
    # Miss and hit branches both survive in the exact posterior.
    assert len(new.density.hypotheses) >= 2
    assert new.state == PINNED and new.criterion_value == 0.0


def test_update_policy_almb_switches_on_contested_measurement():
    new, kl, entropy = update_one(contested_group(), [[2.0, 0.0]],
                                  SENSOR, CFG)
    assert kl > CFG.kl_threshold
    assert new.state.mode is Mode.DGLMB
    assert isinstance(new.density, DglmbDensity)
    assert new.criterion_value == pytest.approx(kl)


def test_update_policy_almb_stays_lmb_when_clean():
    group = track_group(Label(1, 0), 0.0, 0.0)
    new, kl, entropy = update_one(group, [[1.0, 0.0]], SENSOR, CFG)
    assert new.state.mode is Mode.LMB
    assert isinstance(new.density, LmbDensity)
    assert new.criterion_value == 0.0


def test_update_empty_scan_cannot_trigger_entropy():
    # No measurement columns means zero association entropy by
    # construction, whatever the track configuration.
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.9, single([0, 0, 0, 0], np.eye(4))),
        l2: (0.9, single([1, 0, 0, 0], np.eye(4))),
    })
    group = DensityGroup(lmb)
    new, kl, entropy = update_one(group, [], SENSOR, CFG)
    assert entropy == 0.0
    assert new.state.mode is Mode.LMB


def test_prune_drops_weak_lmb_tracks():
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.9, single([0, 0, 0, 0], np.eye(4))),
        l2: (0.005, single([9, 0, 0, 0], np.eye(4))),
    })
    out = prune_group(DensityGroup(lmb))
    assert out.density.label_space == (l1,)


def test_prune_dead_group_returns_none():
    lmb = lmb_from_tracks({Label(1, 0): (0.004, single([0, 0, 0, 0],
                                                       np.eye(4)))})
    assert prune_group(DensityGroup(lmb)) is None


def test_prune_delta_drops_light_hypotheses_and_dead_labels():
    la, lb = Label(1, 0), Label(1, 1)
    g = single([0, 0, 0, 0], np.eye(4))
    d = dglmb_from_rows((la, lb), [
        ((la,), 0.991, {la: g}),
        ((la, lb), 0.009, {la: g, lb: g}),
        ((lb,), 1e-7, {lb: g}),
    ])
    out = prune_group(DensityGroup(d))
    # The 1e-7 hypothesis dies on weight; lb's remaining marginal 0.009
    # is at or below lmb_prune and the label leaves the space.
    assert list(out.density.label_space) == [la]
    assert sum(out.density.w.tolist()) == pytest.approx(1.0)


def test_split_separates_distant_tracks():
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.9, single([0, 0, 0, 0], np.eye(4))),
        l2: (0.9, single([500, 0, 0, 0], np.eye(4))),
    })
    out = split_group(DensityGroup(lmb), SENSOR)
    assert len(out) == 2
    assert sorted(g.density.label_space[0] for g in out) == [l1, l2]


def test_split_keeps_interacting_tracks_together():
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.9, single([0, 0, 0, 0], np.eye(4))),
        l2: (0.9, single([30, 0, 0, 0], np.eye(4))),
    })
    out = split_group(DensityGroup(lmb), SENSOR)
    assert len(out) == 1


def test_split_keeps_chains_together_in_label_order():
    # Split distance is sqrt(4 gate_sq / 200) ~ 85.8 m here: l1-l3 and
    # l3-l2 are 60 m apart, l1-l2 are 120 m apart, l0 is far away.
    l0, l1, l2, l3 = (Label(1, i) for i in range(4))
    xs = {l0: 1000.0, l1: 0.0, l2: 120.0, l3: 60.0}
    lmb = lmb_from_tracks({lab: (0.9, single([x, 0, 0, 0],
                                             100.0 * np.eye(4)))
                           for lab, x in xs.items()})
    out = split_group(DensityGroup(lmb), SENSOR)
    assert [g.density.label_space for g in out] == [(l0,), (l1, l2, l3)]


def test_split_marginalizes_independent_delta_pair():
    # Expansion of two independent Bernoullis splits back into the
    # original marginals.
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.5, single([0, 0, 0, 0], np.eye(4))),
        l2: (0.5, single([500, 0, 0, 0], np.eye(4))),
    })
    parent = DensityGroup(lmb_to_dglmb(lmb, CAP), Trigger.KL, 0.3)
    out = split_group(parent, SENSOR)
    assert len(out) == 2
    for child in out:
        assert isinstance(child.density, DglmbDensity)
        weights = {labels: weight
                   for labels, weight, _ in rows_of(child.density)}
        lab = child.density.label_space[0]
        assert weights[()] == pytest.approx(0.5, abs=1e-12)
        assert weights[(lab,)] == pytest.approx(0.5, abs=1e-12)
        # Children inherit the parent's representation state.
        assert child.state is Trigger.KL
        assert child.criterion_value == pytest.approx(0.3)


def test_split_preserves_existence(rng):
    labels = [Label(1, i) for i in range(3)]
    xs = [0.0, 40.0, 800.0]
    rs = [0.7, 0.6, 0.9]
    lmb = lmb_from_tracks({lab: (r, single([x, 0, 0, 0], np.eye(4)))
                           for lab, x, r in zip(labels, xs, rs)})
    out = split_group(DensityGroup(lmb_to_dglmb(lmb, CAP)), SENSOR)
    got = {}
    for child in out:
        view = dglmb_to_lmb(child.density)
        got.update(zip(view.label_space, view.r))
    for lab, r in zip(labels, rs):
        assert got[lab] == pytest.approx(r, abs=1e-9)


def test_extract_threshold_is_strict():
    l1, l2 = Label(1, 0), Label(1, 1)
    lmb = lmb_from_tracks({
        l1: (0.6, single([3, 4, 0, 0], np.eye(4))),
        l2: (0.5, single([9, 9, 0, 0], np.eye(4))),
    })
    out = extract_tracks([DensityGroup(lmb)], 0.5)
    assert [lab for lab, _ in out] == [l1]
    np.testing.assert_allclose(out[0][1], [3.0, 4.0, 0.0, 0.0])


def test_extract_collapses_delta_groups():
    lab = Label(1, 0)
    g = single([1, 2, 0, 0], np.eye(4))
    d = dglmb_from_rows((lab,), [
        ((), 0.3, {}),
        ((lab,), 0.7, {lab: g}),
    ])
    out = extract_tracks([DensityGroup(d)], 0.5)
    assert [lab_ for lab_, _ in out] == [lab]


def test_pipeline_step_is_deterministic():
    births = [birth_entry(0.0, 0.0)]
    Z = [[[1.0, 0.5]], [[2.1, 0.9]], [[3.0, 1.6]]]

    def run():
        groups = []
        log = []
        for k, scan in enumerate(Z, start=1):
            groups, extracted, _ = pipeline_step(
                groups, scan, k, MOTION, SENSOR, births, CFG)
            log.append(tuple((lab, tuple(np.round(x, 12)))
                             for lab, x in extracted))
        return log

    assert run() == run()


def test_tracker_rejects_unknown_policy():
    with pytest.raises(UsageError):
        MultiObjectTracker(MOTION, SENSOR, [], policy="foo")


@pytest.mark.parametrize("existence", [1.5, -0.1, float("nan")])
def test_tracker_rejects_bad_birth_existence(existence):
    births = [birth_entry(0.0, 0.0), birth_entry(500.0, 0.0, existence)]
    with pytest.raises(ConfigurationError, match=r"births\[1\] existence"):
        MultiObjectTracker(MOTION, SENSOR, births)


def test_tracker_rejects_models_of_another_state_dimension():
    # The builtin 4-D motion and births with a sensor over a 3-D state,
    # and births over a 2-D state with the 4-D models: each used to fail
    # only at the first scan, in a matrix product.
    config = builtin_scenario("two-target")
    motion, births = make_motion(config), make_birth_model(config)
    sensor = SensorModel(np.eye(2, 3), np.eye(2), 0.9, 1e-6)
    with pytest.raises(ConfigurationError, match="sensor H columns 3, "
                       "motion state dimension 4"):
        MultiObjectTracker(motion, sensor, births)
    flat = births + [(0.1, single([0.0, 0.0], np.eye(2)))]
    with pytest.raises(ConfigurationError, match=r"births\[%d\] mixture "
                       "dimension 2" % len(births)):
        MultiObjectTracker(motion, make_sensor(config), flat)


def test_tracker_policies_are_settings():
    births = [birth_entry(0.0, 0.0)]
    lmb = MultiObjectTracker(MOTION, SENSOR, births, CFG, "lmb")
    assert lmb.config == PipelineConfig(kl_threshold=np.inf,
                                        entropy_threshold=np.inf)
    assert MultiObjectTracker(MOTION, SENSOR, births, CFG, "almb").config \
        is CFG
    dglmb = MultiObjectTracker(MOTION, SENSOR, births, CFG, "dglmb")
    dglmb.step([[0.0, 0.0]])
    assert [g.state for g in dglmb.groups] == [PINNED]
    assert isinstance(dglmb.groups[0].density, DglmbDensity)


@pytest.mark.parametrize("name, value", [
    ("cap", 0), ("gate_sq", float("nan")), ("kl_threshold", -1.0),
    ("extraction", "0.5"), ("entropy_threshold", float("nan"))])
def test_config_validated_at_construction(name, value):
    # Thresholds built in code are checked like a scenario's tracker
    # block; the truncation constants are not settings at all.
    fields = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert fields == ["kl_threshold", "entropy_threshold"]
    error = ConfigurationError if name in fields else TypeError
    with pytest.raises(error, match=name):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("scans", [
    [[[0.0, 0.0]]], [[[0.0, 0.0], [-500.0, 500.0]]], [[], [[0.0, 0.0]]]],
    ids=["near", "near-and-far", "empty-then-near"])
@pytest.mark.parametrize("policy", ["lmb", "almb", "dglmb"])
def test_unfactorable_innovation_covariance_raises_in_its_scan(policy,
                                                               scans):
    # The birth's second component has covariance -300 I: predicted, its
    # S = H (F P F' + Q) H' + R = (-600 + 1.25 + 100) I has no Cholesky
    # factor.  The first scan with a measurement raises, whether the
    # measurement lies near the good component only or one is far from
    # both; after an empty scan the missed track is pruned, so the raise
    # is a new birth's.
    birth = GaussianMixture([0.5, 0.5], [[0.0] * 4, [1000.0, 1000.0, 0, 0]],
                            [100.0 * np.eye(4), -300.0 * np.eye(4)])
    tracker = MultiObjectTracker(MOTION, SENSOR, [(0.05, birth)],
                                 policy=policy)
    for scan in scans[:-1]:
        tracker.step(scan)
    with pytest.raises(NumericalError) as err:
        tracker.step(scans[-1])
    assert tracker.step_index == len(scans)
    assert err.value.diagnostics["scan"] == len(scans)
    assert err.value.diagnostics["what"] == "innovation covariance"
    np.testing.assert_array_equal(err.value.diagnostics["matrix"],
                                  -498.75 * np.eye(2))


@pytest.mark.parametrize("scan", [
    [[0.0, 0.0, 0.0]], [[np.nan, 0.0]], [[-1000.0, np.inf]], [[1.0], [2.0]],
    [[1.0, 2.0], [3.0]]],
    ids=["three-entries", "nan", "inf", "one-entry-rows", "ragged"])
def test_malformed_scan_raises_before_any_stage(scan, monkeypatch):
    # A scan must be a table of finite rows of the sensor's dimension;
    # anything else names its scan, and no stage runs on it.  An empty
    # scan is valid.
    config = builtin_scenario("two-target")
    tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                 make_birth_model(config), policy="lmb")
    tracker.step([])
    tracker.step([[-990.0, 5.0]])

    def stage(*args):
        raise AssertionError("a stage ran on a malformed scan")

    monkeypatch.setattr(pipeline, "inject_birth", stage)
    with pytest.raises(ConfigurationError, match="^scan 3: "):
        tracker.step(scan)


@pytest.mark.parametrize("policy", ["lmb", "almb", "dglmb"])
def test_far_measurements_step_without_a_warning(policy):
    # Measurements finite but too far for a finite squared distance lie
    # outside every gate: the tracker steps on them as on clutter, and no
    # numpy warning escapes the library.
    config = builtin_scenario("two-target")
    tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                 make_birth_model(config), policy=policy)
    scan = [[-990.0, 5.0], [1e200, 1e200], [1e150, -1e150]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            tracker.step(scan)
    assert tracker.step_index == 5


def test_tracker_locks_onto_clean_target():
    # p_D = 1, no clutter: the track confirms quickly and the estimate
    # follows the constant-velocity truth.
    sensor = position_sensor(1.0, 1.0, 0.0)
    births = [birth_entry(0.0, 0.0, existence=0.05, std=10.0)]
    tracker = MultiObjectTracker(MOTION, sensor, births, policy="almb")
    errs = []
    for k in range(1, 21):
        true_pos = np.array([2.0 * k, 1.0 * k])
        z = true_pos
        extracted, _ = tracker.step([z])
        if k >= 5:
            assert len(extracted) == 1
            errs.append(np.linalg.norm(extracted[0][1][:2] - true_pos))
    assert np.mean(errs) < 2.0


# The closed-form update of one-track LMB groups against the generic
# path it replaces, bit for bit.

def generic_update(group, measurements, sensor, config):
    """``update_group`` of a group through the delta-GLMB update (of its
    expansion, for an LMB group): the update, both criteria, the
    automaton and the reduction."""
    update = dglmb_update if isinstance(group.density, DglmbDensity) \
        else lmb_update
    result = update(group.density, measurements, sensor, cap=CAP,
                    gate_sq=GATE_SQ)
    kl = kl_criterion(result.posterior)
    entropy = association_entropy(result.assoc_marginals)
    state = decide_switch(group.state, kl, entropy, config)
    if state.mode is Mode.DGLMB:
        value = {Trigger.KL: kl, Trigger.ENTROPY: entropy}.get(state, 0.0)
        return (dataclasses.replace(group, density=result.posterior,
                                    state=state, criterion_value=value),
                kl, entropy)
    reduced = _reduce_lmb(dglmb_to_lmb(result.posterior))
    return (dataclasses.replace(group, density=reduced,
                                state=state, criterion_value=0.0),
            kl, entropy)


def assert_same_update(fast, slow):
    (g, kl, entropy), (h, kl_ref, entropy_ref) = fast, slow
    assert kl == kl_ref and entropy == entropy_ref
    assert g.state == h.state and g.criterion_value == h.criterion_value
    assert type(g.density) is type(h.density)
    if isinstance(h.density, LmbDensity):
        assert g.density.label_space == h.density.label_space
        assert g.density.r == h.density.r
        for a, b in zip(g.density.mixtures, h.density.mixtures):
            assert same_mixture(a, b)
        return
    assert g.density.label_space == h.density.label_space
    assert len(g.density.w) == len(h.density.w)
    for a, b in zip(rows_of(g.density), rows_of(h.density)):
        assert a[:2] == b[:2]
        for label in b[0]:
            assert same_mixture(a[2][label], b[2][label])


def one_track(existence, components):
    """A one-track group of ``components`` normalized components, or, for
    a float ``components``, of one component of that weight."""
    label = Label(1, 0)
    if isinstance(components, float):
        weights, components = [components], 1
    else:
        weights = [0.6, 0.3, 0.1][:components]
        weights = [w / sum(weights) for w in weights]
    gm = GaussianMixture(
        weights,
        [[3.0 * i, -2.0 * i, 1.0, 0.5] for i in range(components)],
        [(80.0 + 20.0 * i) * np.eye(4) for i in range(components)])
    return DensityGroup(lmb_from_tracks({label: (existence, gm)}))


# Three measurements inside the gate, two of them identical (their Kalman
# posteriors consolidate), and one far outside it.
SCANS = [[], [[5.0, 3.0]],
         [[5.0, 3.0], [-8.0, 12.0], [-8.0, 12.0], [400.0, 0.0]]]
NEVER = PipelineConfig(kl_threshold=np.inf, entropy_threshold=np.inf)


@pytest.mark.parametrize("config", [CFG, NEVER], ids=["almb", "lmb"])
@pytest.mark.parametrize("components", [1, 3, 0.37])
@pytest.mark.parametrize("scan", SCANS, ids=["gated0", "gated1", "gated3"])
@pytest.mark.parametrize("p_d", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("existence", [0.0, 0.02, 0.5, 0.9, 1.0 - 1e-12,
                                       1.0])
def test_one_track_update_matches_generic_path(existence, p_d, scan,
                                               components, config):
    sensor = position_sensor(10.0, p_d, 1.25e-5)
    fast = update_one(one_track(existence, components), scan, sensor,
                      config)
    slow = generic_update(one_track(existence, components), scan, sensor,
                          config)
    assert_same_update(fast, slow)


@pytest.mark.parametrize("p_d", [0.0, 0.5, 0.98, 1.0])
def test_one_track_miss_entries_match_the_generic_update(p_d, rng):
    # The posterior rows of an empty scan, in order: existence 0.5 at p_D 0
    # ties, and the absent row comes first.  Existence 0, and p_D 1, keep
    # the absent row alone.
    sensor = position_sensor(10.0, p_d, 1.25e-5)
    for existence in [0.0, 1e-300, 0.02, 0.5, 0.9, 1.0 - 1e-12, 1.0] + \
            rng.random(300).tolist():
        group = one_track(existence, 1)
        gm = group.density.mixtures[0]
        mixtures, index, theta, w = one_track_update(
            existence, gm, [], sensor, CAP, GATE_SQ)
        slow = lmb_update(group.density, [], sensor, cap=CAP,
                          gate_sq=GATE_SQ).posterior
        assert index.tolist() == slow.hypotheses.tolist()
        assert theta == [0] * len(index) and w.tolist() == slow.w.tolist()
        assert [mixtures[i] for i in index[:, 0] if i >= 0] == \
            [slow.mixtures[i] for i in slow.hypotheses[:, 0] if i >= 0]


def assert_entries_of_one_track_update(table, index, theta, w, gate,
                                       expected):
    """Whether one density's batch entries, positions in the batch's
    ``table`` and maps over the whole measurement table, equal the
    entries ``expected`` of its ``one_track_update`` on the measurements
    ``gate``, child by child."""
    mixtures, want_index, want_theta, want_w = expected
    want_index = want_index[:, 0].tolist()
    assert [i >= 0 for i in index.tolist()] == [i >= 0 for i in want_index]
    assert all(same_mixture(table[i], mixtures[k])
               for i, k in zip(index.tolist(), want_index) if k >= 0)
    assert theta.tolist() == [gate[t - 1] + 1 if t else 0
                              for t in want_theta]
    assert w.tolist() == want_w.tolist()


@pytest.mark.parametrize("cap", [1, 2, 3, CAP])
@pytest.mark.parametrize("p_d", [0.0, 0.9, 1.0])
def test_one_track_batch_entries_match_one_track_update(p_d, cap, rng):
    # Tracks of every existence class and of 1-3 components, spread so
    # that they gate none to all of 14 measurements, two of them
    # identical; caps of 1-3 cut their entries.  Each track's entries in
    # the batch equal those of its own one_track_update on the
    # measurements the gate stage gives it, in order.
    sensor = position_sensor(10.0, p_d, 1.25e-5)
    Z = rng.normal(0.0, 15.0, (12, 2)).tolist() + [[5.0, 3.0]] * 2
    tracks = []
    for existence in [0.0, 1e-300, 0.02, 0.5, 0.9, 1.0] + \
            rng.random(10).tolist():
        gm = one_track(existence, int(rng.integers(1, 4))).density \
            .mixtures[0]
        tracks.append((existence, GaussianMixture(
            gm.w, gm.m + [*rng.uniform(-70.0, 70.0, 2), 0.0, 0.0], gm.P)))
    gates = gate_measurements(
        [DensityGroup(lmb_from_tracks({Label(1, 0): track}))
         for track in tracks], Z, sensor)
    assert min(map(len, gates)) == 0 and max(map(len, gates)) == len(Z)
    seg, index, theta, w, table = one_track_updates(
        tracks, np.array(Z), sensor, cap, GATE_SQ)
    assert seg.tolist() == sorted(seg.tolist())
    for e, ((existence, gm), gate) in enumerate(zip(tracks, gates)):
        assert_entries_of_one_track_update(
            table, index[seg == e], theta[seg == e], w[seg == e], gate,
            one_track_update(existence, gm, [Z[j] for j in gate], sensor,
                             cap, GATE_SQ))


def test_one_track_update_keeps_the_quota_truncation():
    # At existence 0.02 the present hypothesis may keep only
    # ceil(50 * 0.02) + 1 = 2 of its five options (miss and four hits).
    scan = [[5.0, 3.0], [-8.0, 12.0], [2.0, -6.0], [11.0, 9.0]]
    sensor = position_sensor(10.0, 0.9, 1.25e-5)
    fast = update_one(one_track(0.02, 1), scan, sensor, CFG)
    slow = generic_update(one_track(0.02, 1), scan, sensor, CFG)
    assert_same_update(fast, slow)
    full = lmb_update(one_track(0.02, 1).density, scan, sensor, cap=CAP,
                      gate_sq=GATE_SQ).posterior
    assert sum(1 for labels, _, _ in rows_of(full) if labels) == 2


def test_one_track_update_ranks_many_measurements_like_murty(monkeypatch):
    # Above 16 gated measurements, too, the one row of a one-track update
    # is sorted by ranked_stack, never handed to Murty's algorithm.  Here
    # no measurement ties the miss, so its maps are those Murty's
    # algorithm gives the padded 1 x 20 matrix: identical measurements tie
    # and keep index order.
    rng = np.random.default_rng(7)
    scan = [list(z) for z in rng.normal(0.0, 8.0, (16, 2))]
    scan += [scan[3], scan[3], scan[10]]
    sensor = position_sensor(10.0, 0.9, 1.25e-5)
    for existence in (0.05, 0.9):
        fast = update_one(one_track(existence, 3), scan, sensor, CFG)
        slow = generic_update(one_track(existence, 3), scan, sensor, CFG)
        assert_same_update(fast, slow)
    murty, stacked, real_stack = [], [], dglmb.ranked_stack

    def stack(cost, quota):
        stacked.append((cost, real_stack(cost, quota)))
        return stacked[-1][1]

    monkeypatch.setattr(dglmb, "ranked_assignments",
                        lambda *args: murty.append(args))
    monkeypatch.setattr(dglmb, "ranked_stack", stack)
    gm = one_track(0.9, 3).density.mixtures[0]
    mixtures, index, theta, w = one_track_update(0.9, gm, scan, sensor, CAP,
                                                 GATE_SQ)
    assert not murty and len(stacked) == 1
    cost, (_, j, score) = stacked[0]
    assert cost.shape == (1, 1, 20)
    maps = j[:, 0].tolist()
    want = ranked_assignments(np.append(cost[0, 0, 1:], cost[0, 0, 0])[None],
                              len(maps) + 1)
    assert maps == [t for (t,), _ in want]
    assert score.tolist() == [s for _, s in want]
    # The twins of measurements 4 and 11 (scan rows 3 and 10) rank in
    # index order; their children consolidate.
    assert [maps.index(t) for t in (4, 17, 18)] == sorted(
        maps.index(t) for t in (4, 17, 18))
    assert maps.index(11) < maps.index(19)
    assert sorted(maps) == list(range(20)) and len(mixtures) == 20
    assert set(theta) <= set(maps) and len(theta) < 21


def test_one_track_update_switches_on_entropy():
    # Two equally likely sources split the association marginals; a
    # single track's KL criterion stays at zero.
    scan = [[10.0, 0.0], [-10.0, 0.0]]
    fast = update_one(one_track(0.9, 1), scan, SENSOR, CFG)
    slow = generic_update(one_track(0.9, 1), scan, SENSOR, CFG)
    assert_same_update(fast, slow)
    group, kl, entropy = fast
    assert kl <= CFG.kl_threshold < entropy
    assert group.state is Trigger.ENTROPY
    assert group.criterion_value == entropy


def mixed_scan(rng):
    """One scan's groups, the gated measurements ``gate_measurements``
    returns for each, and its measurement table.  In order: a one-track
    group with one hit; a delta-GLMB group; one with two identical
    measurements, whose posteriors consolidate; one of 18 gated
    measurements, whose cost row the batch sorts like any other; a
    two-track group; one with an empty gate; and one-track groups of
    existence 0 and 1, with one hit each.  The groups lie 300 m apart."""
    def at(x, y, existence, components=1):
        group = one_track(existence, components)
        gm = group.density.mixtures[0]
        shifted = GaussianMixture(gm.w, gm.m + [x, y, 0.0, 0.0], gm.P)
        return DensityGroup(lmb_from_tracks({Label(1, int(x + 3 * y)): (
            existence, shifted)}))

    pinned = at(-300.0, 0.0, 0.7)
    pinned = DensityGroup(lmb_to_dglmb(pinned.density, CAP), PINNED)
    pair = lmb_from_tracks({
        Label(2, 0): (0.8, single([0.0, 600.0, 0.0, 0.0], 80.0 * np.eye(4))),
        Label(2, 1): (0.6, single([12.0, 600.0, 0.0, 0.0],
                                  80.0 * np.eye(4)))})
    groups = [at(0.0, 0.0, 0.9), pinned, at(300.0, 0.0, 0.5),
              at(-600.0, 0.0, 0.6, 3), DensityGroup(pair),
              at(0.0, 300.0, 0.3), at(0.0, -300.0, 0.0),
              at(600.0, 0.0, 1.0)]
    Z = [[5.0, 3.0], [-296.0, 4.0], [292.0, 12.0], [292.0, 12.0]]
    Z += (rng.normal(0.0, 6.0, (18, 2)) + [-600.0, 0.0]).tolist()
    Z += [[6.0, 598.0], [3.0, -304.0], [603.0, -2.0]]
    return groups, gate_measurements(groups, Z, SENSOR), Z


@pytest.mark.parametrize("config", [CFG, NEVER], ids=["almb", "lmb"])
@pytest.mark.parametrize("p_d", [0.0, 0.9, 1.0])
def test_one_batch_of_every_path_matches_the_generic_update(p_d, config,
                                                            monkeypatch):
    groups, gates, Z = mixed_scan(np.random.default_rng(11))
    assert [len(gate) for gate in gates] == [1, 1, 2, 18, 1, 0, 1, 1]
    sensor = position_sensor(10.0, p_d, 1.25e-5)
    taken, real_update = [], dglmb.one_track_update

    def update(existence, gm, measurements, *args):
        taken.append(len(measurements))
        return real_update(existence, gm, measurements, *args)

    monkeypatch.setattr(dglmb, "one_track_update", update)
    batch = update_group(groups, np.array(Z), sensor, config)
    # Without detections no two posteriors compete; otherwise the twin
    # measurements must consolidate.  The group of 18 gated measurements
    # stays in the batch.
    assert taken == ([] if p_d == 0.0 else [2])
    assert len(batch) == len(groups)
    for group, gate, result in zip(groups, gates, batch):
        assert_same_update(result, generic_update(
            group, [Z[j] for j in gate], sensor, config))


def test_one_track_hits_take_the_measurements_of_the_gate_stage():
    # The batch gates each one-track group from its own Kalman pass.  Its
    # hit entries are the Kalman posteriors of exactly the measurements
    # gate_measurements returns for the group (the twins consolidate into
    # one entry), and a group of existence 0 has none.
    groups, gates, Z = mixed_scan(np.random.default_rng(11))
    one = [(g.density.r[0], g.density.mixtures[0], gate)
           for g, gate in zip(groups, gates)
           if isinstance(g.density, LmbDensity)
           and len(g.density.label_space) == 1]
    assert [len(gate) for _, _, gate in one] == [1, 2, 18, 0, 1, 1]
    seg, index, theta, w, table = one_track_updates(
        [(existence, gm) for existence, gm, _ in one], np.array(Z), SENSOR,
        CAP, GATE_SQ)
    for e, (existence, gm, gate) in enumerate(one):
        hits = (seg == e) & (theta > 0)
        taken = [t - 1 for t in theta[hits].tolist()]
        want = [] if existence == 0.0 else gate
        assert set(taken) <= set(want)
        assert {tuple(Z[j]) for j in taken} == {tuple(Z[j]) for j in want}
        for i, j in zip(index[hits].tolist(), taken):
            assert same_mixture(table[i],
                                gm_kalman_update_log(gm, Z[j], SENSOR)[0])


def test_one_track_group_of_many_separated_hits_takes_the_closed_form(
        monkeypatch):
    # Seven gated measurements 10 m apart, none at the prior's mean, give
    # nine entries, the absent one, the miss and seven hits, whose means
    # are far apart: no two can merge, so the batch sorts them itself and
    # never calls one_track_update.  Its entries equal one_track_update's.
    existence, gm = 0.9, one_track(0.9, 1).density.mixtures[0]
    Z = [[x, 0.0] for x in range(-35, 30, 10)]
    taken, real_update = [], dglmb.one_track_update

    def update(*args):
        taken.append(args)
        return real_update(*args)

    monkeypatch.setattr(dglmb, "one_track_update", update)
    seg, index, theta, w, table = one_track_updates(
        [(existence, gm)], np.array(Z), SENSOR, CAP, GATE_SQ)
    assert not taken and len(w) == 9
    assert_entries_of_one_track_update(
        table, index, theta, w, list(range(len(Z))),
        real_update(existence, gm, Z, SENSOR, CAP, GATE_SQ))


def test_every_update_takes_its_children_from_one_expansion(monkeypatch):
    # On the mixed scan, update_group expands the one-track batch in one
    # _children call and the delta-GLMB and two-track groups in one call
    # each.  The batch neither gates nor ranks: its kalman_updates and
    # _ranked calls run inside _children, or inside the one_track_update
    # of the group whose twin measurements consolidate.
    assert not {"kalman_updates", "_ranked", "ranked_stack",
                "ranked_assignments", "_finalize"} & set(
                    one_track_updates.__code__.co_names)
    groups, gates, Z = mixed_scan(np.random.default_rng(11))
    sensor = position_sensor(10.0, 0.9, 1.25e-5)
    where, calls = [], []

    def spy(module, name):
        real = getattr(module, name)

        def run(*args, **kwargs):
            calls.append((name, tuple(where)))
            where.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                where.pop()

        monkeypatch.setattr(module, name, run)

    spy(pipeline, "one_track_updates")
    for name in ("_children", "one_track_update", "kalman_updates",
                 "_ranked"):
        spy(dglmb, name)
    update_group(groups, np.array(Z), sensor, CFG)
    expansions = [inside for name, inside in calls if name == "_children"]
    assert [("one_track_updates" in inside) for inside in expansions] == [
        False, False, True]
    batch = [(name, inside) for name, inside in calls
             if "one_track_updates" in inside]
    assert [name for name, _ in batch].count("one_track_update") == 1
    assert [name for name, _ in batch].count("kalman_updates") == 1
    for name, inside in batch:
        if name in ("kalman_updates", "_ranked"):
            assert "_children" in inside or "one_track_update" in inside


def test_update_of_a_merged_group_skips_a_measurement_no_mixture_gates():
    # Both tracks gate the shared measurement; only the unlikely one gates
    # the other.  The merge's prune drops every row that holds that track,
    # so its mixture leaves the table, and the members' gates hold a
    # measurement no table mixture gates.  The update of the whole scan
    # equals the update of the sub-list the members gate.
    pinned = DensityGroup(lmb_to_dglmb(track_group(
        Label(1, 0), 0.0, 0.0).density, CAP), PINNED)
    unlikely = track_group(Label(1, 1), 30.0, 0.0, existence=1e-6)
    Z = [[-400.0, 0.0], [15.0, 0.0], [60.0, 0.0]]
    gates = gate_measurements([pinned, unlikely], Z, SENSOR)
    assert gates == [[1], [1, 2]]
    group, = merge_groups([pinned, unlikely], gates)
    assert isinstance(group.density, DglmbDensity)
    table = group.density.mixtures
    assert gate_mask(Z, table, SENSOR, GATE_SQ).tolist() == [
        False, True, False]
    assert_same_update(update_group([group], np.array(Z), SENSOR, CFG)[0],
                       generic_update(group, [Z[1], Z[2]], SENSOR, CFG))


def test_lmb_filter_sends_only_multi_track_groups_to_lmb_update(monkeypatch):
    # One update_group call per scan takes every group; the one-track LMB
    # groups among them never reach lmb_update.
    config = builtin_scenario("two-target")
    scans = generate_measurements(generate_truth(config), config,
                                  np.random.default_rng(2025))[:30]
    seen, one_track_updates, calls = [], [], []
    real_lmb_update, real_update_group = pipeline.lmb_update, \
        pipeline.update_group

    def spy_lmb_update(lmb, *args, **kwargs):
        seen.append(len(lmb.label_space))
        return real_lmb_update(lmb, *args, **kwargs)

    def spy_update_group(groups, *args):
        calls.append(len(groups))
        one_track_updates.extend(
            g for g in groups if isinstance(g.density, LmbDensity)
            and len(g.density.label_space) == 1)
        return real_update_group(groups, *args)

    monkeypatch.setattr(pipeline, "lmb_update", spy_lmb_update)
    monkeypatch.setattr(pipeline, "update_group", spy_update_group)
    run_filter("lmb", scans, config)
    assert len(calls) == 30 and one_track_updates
    assert all(n >= 2 for n in seen)


def test_miss_only_update_skips_the_generic_one_track_update(monkeypatch):
    # A one-track group with nothing in its gate takes the batch's closed
    # form: it never reaches one_track_update, and the batch reaches
    # _finalize only inside one_track_update.  The other updates of the
    # run still call _finalize.  A group's gate is what the gate stage
    # returns for it, found by its mixture.
    config = builtin_scenario("two-target")
    scans = generate_measurements(generate_truth(config), config,
                                  np.random.default_rng(2025))[:30]
    real_gate, real_batch, real_update, real_finalize = \
        pipeline.gate_measurements, pipeline.one_track_updates, \
        dglmb.one_track_update, dglmb._finalize
    inside, empty, finalized = {"batch": 0, "update": 0}, [], []
    gate_of = {}

    def gate(groups, *args):
        gates = real_gate(groups, *args)
        gate_of.clear()
        gate_of.update((id(gm), g) for group, g in zip(groups, gates)
                       for gm in group.density.mixtures)
        return gates

    def batch(tracks, *args):
        empty.extend(not gate_of[id(gm)] for _, gm in tracks)
        inside["batch"] += 1
        try:
            return real_batch(tracks, *args)
        finally:
            inside["batch"] -= 1

    def update(existence, gm, measurements, *args):
        if not measurements:
            raise AssertionError("an empty gate reached one_track_update")
        inside["update"] += 1
        try:
            return real_update(existence, gm, measurements, *args)
        finally:
            inside["update"] -= 1

    def finalize(*args):
        if inside["batch"] and not inside["update"]:
            raise AssertionError("the batch reached _finalize")
        finalized.append(args)
        return real_finalize(*args)

    monkeypatch.setattr(pipeline, "gate_measurements", gate)
    monkeypatch.setattr(pipeline, "one_track_updates", batch)
    monkeypatch.setattr(dglmb, "one_track_update", update)
    monkeypatch.setattr(dglmb, "_finalize", finalize)
    for name in ("lmb", "almb"):
        del empty[:], finalized[:]
        assert len(run_filter(name, scans, config).estimates) == 30
        assert any(empty) and finalized


def close_pair(a, b, limit):
    # The per-pair cover and split test the stacked one replaced.
    d = a[0] - b[0]
    return float(d @ np.linalg.solve(0.5 * (a[1] + b[1]), d)) < limit


def random_sites(rng, n):
    sites = []
    for _ in range(n):
        A = rng.normal(0.0, 6.0, (2, 2))
        sites.append((rng.normal(0.0, 40.0, 2), A @ A.T + 50.0 * np.eye(2)))
    return sites


def test_stacked_cover_test_is_exact(rng):
    for _ in range(200):
        tracks = random_sites(rng, int(rng.integers(1, 12)))
        z, S = map(np.array, zip(*tracks))
        site = random_sites(rng, 1)[0]
        for limit in (GATE_SQ, 4.0 * GATE_SQ):
            expected = [close_pair(t, site, limit) for t in tracks]
            assert list(_within(z, S, *site, limit)) == expected
        # A limit at one pair's exact distance, and one ulp above it,
        # separates a quadratic form that is off by a single bit.
        d = tracks[0][0] - site[0]
        exact = float(d @ np.linalg.solve(0.5 * (tracks[0][1] + site[1]), d))
        for limit in (exact, np.nextafter(exact, np.inf)):
            assert _within(z, S, *site, limit)[0] == \
                close_pair(tracks[0], site, limit)
        # inject_birth tests every birth site against every track at once,
        # as (births, tracks); the last birth is the site above.
        births = random_sites(rng, int(rng.integers(0, 5))) + [site]
        zb, Sb = map(np.array, zip(*births))
        for limit in (GATE_SQ, 4.0 * GATE_SQ, exact,
                      np.nextafter(exact, np.inf)):
            got = _within(z, S, zb[:, None], Sb[:, None], limit)
            assert got.tolist() == [[close_pair(t, b, limit) for t in tracks]
                                    for b in births]


def test_stacked_split_test_is_exact(rng):
    for _ in range(100):
        sites = random_sites(rng, int(rng.integers(2, 10)))
        z, S = map(np.array, zip(*sites))
        i, k = np.triu_indices(len(sites), 1)
        for limit in (GATE_SQ, 4.0 * GATE_SQ):
            expected = [close_pair(sites[a], sites[b], limit)
                        for a, b in zip(i, k)]
            assert list(_within(z[i], S[i], z[k], S[k], limit)) == expected


def test_update_of_an_empty_lmb_group_takes_the_generic_path():
    new, kl, entropy = update_one(DensityGroup(lmb_from_tracks({})),
                                  [[1.0, 0.0]], SENSOR, CFG)
    assert new.density.label_space == () and kl == 0.0 and entropy == 0.0
