"""Acceptance suite: end-to-end behavior targets for the tracking library.

Each test prints its measured values on one line before asserting, so a
failing criterion still reports what was observed.  The three scenario
fixtures run full Monte-Carlo experiments on up to two worker processes
(one run per task, rows identical to a serial ``monte_carlo``) and take a
few minutes together; everything else is analytic.
"""

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from almbtrack import (Label, MultiObjectTracker, PipelineConfig, SensorModel,
                       association_entropy, builtin_scenario, decide_switch,
                       dglmb_to_lmb, dglmb_update, generate_measurements,
                       generate_truth, kl_criterion, lmb_cardinality,
                       lmb_to_dglmb, scenario_from_dict)
from almbtrack.cli import main
from almbtrack.harness import FILTER_NAMES, monte_carlo
from almbtrack.scenarios import (make_birth_model, make_motion,
                                 make_pipeline_config, make_sensor)

from conftest import CAP, single
from oracles import (brute_dglmb_update, dglmb_from_rows,
                     existence_from_dglmb, lmb_from_tracks,
                     random_lmb_instance, rows_of, switch_cases)

WINDOW = (65, 90)          # post-crossing scoring window (criterion 1)
CRITICAL = (50, 65)        # crossing-time runtime window (criterion 2)
STEADY = (20, 90)          # steady-state runtime window (criterion 2)
SLOW_RUNS = 21             # smallest run count for MARGIN_SE (criterion 1)
MARGIN_SE = 2.0            # paired-difference margin in standard errors
LOST_M = 50.0              # alpha / 2: above it, a run lost or swapped a label
WORKERS = min(2, len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def monte_carlo_runs(config, n_runs, filters=FILTER_NAMES):
    """``monte_carlo(config, n_runs, filters, base_seed=config.seed)``
    with its runs spread over WORKERS processes.

    Run ``r`` is ``monte_carlo(config, 1, filters, config.seed + r)`` with
    its rows renumbered to ``r``: the same seed, measurements and filter
    order as the serial call, so every row but ``step_time_s`` is equal.
    Each scan is still timed inside one process, one filter at a time.
    """
    if WORKERS < 2:
        return monte_carlo(config, n_runs, filters, base_seed=config.seed)
    seeds = [config.seed + run for run in range(n_runs)]
    with ProcessPoolExecutor(
            WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        chunks = pool.map(monte_carlo, itertools.repeat(config),
                          itertools.repeat(1), itertools.repeat(filters),
                          seeds)
        rows = []
        for run, chunk in enumerate(chunks):
            for row in chunk:
                row["run"] = run
            rows.extend(chunk)
    return rows


@pytest.fixture(scope="session")
def two_target_rows():
    """100 Monte-Carlo runs of every filter on the crossing scenario."""
    return monte_carlo_runs(builtin_scenario("two-target"), 100)


@pytest.fixture(scope="session")
def slow_crossing_rows():
    """SLOW_RUNS Monte-Carlo runs of every filter on a slow crossing.

    The two-target scenario with the targets starting at x = -/+98 m,
    closing at 2 m/s each and born at their start points, so they still
    meet at scan 50 but share gates for many scans.  At the builtin
    20 m/s they share a gate for about one scan and no filter builds up
    label ambiguity.
    """
    data = builtin_scenario("two-target").to_dict()
    for script, site, side in zip(data["truth"], data["birth"], (-1.0, 1.0)):
        script["state"][:2] = [98.0 * side, -2.0 * side]
        site["mean"][0] = 98.0 * side
    return monte_carlo_runs(scenario_from_dict(data), SLOW_RUNS)


@pytest.fixture(scope="session")
def sixteen_rows():
    """50 Monte-Carlo runs of LMB and ALMB on the dense scenario."""
    return monte_carlo_runs(builtin_scenario("sixteen-target"), 50,
                            filters=("lmb", "almb"))


def test_monte_carlo_runs_match_serial():
    # The fixtures' parallel runs must hold the serial experiment's data.
    data = builtin_scenario("two-target").to_dict()
    data["steps"] = 15
    for script in data["truth"]:
        script["death_step"] = 15
    config = scenario_from_dict(data)
    serial = monte_carlo(config, 3, base_seed=config.seed)
    spread = monte_carlo_runs(config, 3)
    assert len(spread) == len(serial)
    for a, b in zip(serial, spread):
        a.pop("step_time_s")
        b.pop("step_time_s")
        assert a == b


def mean_over(rows, filter_name, field, k_range=None, invert=False):
    lo, hi = k_range if k_range else (1, 10 ** 9)
    vals = [row[field] for row in rows
            if row["filter"] == filter_name
            and ((lo <= row["k"] <= hi) != invert)]
    return float(np.mean(vals))


def window_means(rows, filter_name):
    """Per-run mean labeled OSPA over WINDOW, ordered by run."""
    lo, hi = WINDOW
    runs = {}
    for row in rows:
        if row["filter"] == filter_name and lo <= row["k"] <= hi:
            runs.setdefault(row["run"], []).append(row["ospat_m"])
    return np.array([np.mean(runs[run]) for run in sorted(runs)])


def test_01_crossing_error_ordering(slow_crossing_rows):
    # On a critical crossing LMB must lose to dGLMB and to ALMB by more
    # than MARGIN_SE standard errors of the paired per-run difference,
    # and ALMB must sit nearer to dGLMB than to LMB.
    means = {name: window_means(slow_crossing_rows, name)
             for name in FILTER_NAMES}

    def paired(a, b):
        diff = means[a] - means[b]
        return diff.mean(), diff.std(ddof=1) / np.sqrt(len(diff))

    lmb_dglmb, lmb_dglmb_se = paired("lmb", "dglmb")
    lmb_almb, lmb_almb_se = paired("lmb", "almb")
    almb_dglmb, almb_dglmb_se = paired("almb", "dglmb")
    lost = {name: int(np.sum(means[name] > LOST_M)) for name in means}
    print("criterion 1: %d slow-crossing runs, window means lmb=%.2f "
          "almb=%.2f dglmb=%.2f; paired lmb-dglmb=%.2f+-%.2f "
          "lmb-almb=%.2f+-%.2f almb-dglmb=%.2f+-%.2f (SE); runs above "
          "%.0f m: lmb=%d almb=%d dglmb=%d (need lmb-dglmb and lmb-almb "
          "> %.0f SE, almb-dglmb < (lmb-dglmb)/2)"
          % (SLOW_RUNS, means["lmb"].mean(), means["almb"].mean(),
             means["dglmb"].mean(), lmb_dglmb, lmb_dglmb_se, lmb_almb,
             lmb_almb_se, almb_dglmb, almb_dglmb_se, LOST_M, lost["lmb"],
             lost["almb"], lost["dglmb"], MARGIN_SE))
    failures = []
    if not lmb_dglmb > MARGIN_SE * lmb_dglmb_se:
        failures.append("lmb-dglmb %.2f not > %.0f SE (%.2f)"
                        % (lmb_dglmb, MARGIN_SE, lmb_dglmb_se))
    if not lmb_almb > MARGIN_SE * lmb_almb_se:
        failures.append("lmb-almb %.2f not > %.0f SE (%.2f)"
                        % (lmb_almb, MARGIN_SE, lmb_almb_se))
    if not almb_dglmb < lmb_dglmb / 2.0:
        failures.append("almb-dglmb %.2f not < (lmb-dglmb)/2 = %.2f"
                        % (almb_dglmb, lmb_dglmb / 2.0))
    assert not failures, "; ".join(failures)


def test_02_runtime_ordering(two_target_rows):
    lmb_steady = mean_over(two_target_rows, "lmb", "step_time_s", STEADY)
    dglmb_steady = mean_over(two_target_rows, "dglmb", "step_time_s", STEADY)
    lmb_out = mean_over(two_target_rows, "lmb", "step_time_s", CRITICAL,
                        invert=True)
    almb_out = mean_over(two_target_rows, "almb", "step_time_s", CRITICAL,
                         invert=True)
    almb_in = mean_over(two_target_rows, "almb", "step_time_s", CRITICAL)
    dglmb_in = mean_over(two_target_rows, "dglmb", "step_time_s", CRITICAL)
    print("criterion 2: steady dglmb/lmb=%.2f (need >= 3); outside window "
          "almb=%.5fs vs 1.5*lmb=%.5fs; inside almb=%.5fs vs dglmb=%.5fs"
          % (dglmb_steady / lmb_steady, almb_out, 1.5 * lmb_out,
             almb_in, dglmb_in))
    assert dglmb_steady >= 3.0 * lmb_steady
    assert almb_out <= 1.5 * lmb_out
    assert almb_in < dglmb_in


def test_03_sixteen_target_dominance(sixteen_rows):
    # ALMB may never be more than 2 m worse than LMB at any scan.
    steps = sorted({row["k"] for row in sixteen_rows})
    worst = -np.inf
    bad = []
    for k in steps:
        lmb_k = mean_over(sixteen_rows, "lmb", "ospat_m", (k, k))
        almb_k = mean_over(sixteen_rows, "almb", "ospat_m", (k, k))
        worst = max(worst, almb_k - lmb_k)
        if almb_k > lmb_k + 2.0:
            bad.append((k, lmb_k, almb_k))
    print("criterion 3: worst per-step almb-lmb gap %.3f m over %d steps "
          "(need <= 2); violations: %s" % (worst, len(steps), bad or "none"))
    assert not bad


def random_dglmb(rng, max_labels=8, max_hyps=64):
    n = int(rng.integers(1, max_labels + 1))
    labels = [Label(0, i) for i in range(n)]
    gm = single([0.0], [[1.0]])
    n_hyp = int(rng.integers(1, max_hyps + 1))
    w = rng.dirichlet(np.ones(n_hyp))
    hyps = []
    for i in range(n_hyp):
        chosen = tuple(lab for lab in labels if rng.random() < 0.5)
        hyps.append((chosen, float(w[i]), {lab: gm for lab in chosen}))
    return dglmb_from_rows(labels, hyps)


def test_04_mean_cardinality_preserved(rng):
    worst = 0.0
    for _ in range(1000):
        d = random_dglmb(rng)
        lmb = dglmb_to_lmb(d)
        r_sum = sum(lmb.r)
        w_sum = sum(weight * len(labels)
                    for labels, weight, _ in rows_of(d))
        worst = max(worst, abs(r_sum - w_sum))
    print("criterion 4: worst |sum r - sum w|I|| = %.2e over 1000 densities "
          "(need < 1e-12)" % worst)
    assert worst < 1e-12


def test_05_update_matches_enumeration(rng):
    sensor = SensorModel(np.eye(2), 4.0 * np.eye(2), 0.9, 1e-3)
    worst_w, worst_m = 0.0, 0.0
    for _ in range(200):
        lmb, Z = random_lmb_instance(rng, max_tracks=3, max_measurements=4)
        prior = lmb_to_dglmb(lmb, CAP)
        out = dglmb_update(prior, Z, sensor, cap=CAP, gate_sq=np.inf)
        weights, existence, marginals, _ = brute_dglmb_update(prior, Z,
                                                              sensor)
        worst_w = max(worst_w, float(np.max(np.abs(
            np.sort(out.posterior.w) - weights))))
        row = {lab: i
               for i, lab in enumerate(out.posterior.label_space)}
        for i, lab in enumerate(sorted(prior.label_space)):
            if len(Z):
                worst_m = max(worst_m, float(np.max(np.abs(
                    out.assoc_marginals[row[lab]] - marginals[i]))))
            worst_m = max(worst_m, abs(
                existence_from_dglmb(out.posterior, lab) - existence[lab]))
    print("criterion 5: worst weight error %.2e, worst marginal error %.2e "
          "over 200 instances (need < 1e-9)" % (worst_w, worst_m))
    assert worst_w < 1e-9
    assert worst_m < 1e-9


def kalman_reference(config, scans):
    """Standalone Kalman filter from the birth prior."""
    motion = make_motion(config)
    sensor = make_sensor(config)
    site = config.birth[0]
    mean = np.asarray(site.mean, dtype=float)
    cov = np.diag(np.asarray(site.std, dtype=float) ** 2)
    out = []
    for scan in scans:
        mean = motion.F @ mean
        cov = motion.F @ cov @ motion.F.T + motion.Q
        z = np.asarray(scan[0], dtype=float)
        S = sensor.H @ cov @ sensor.H.T + sensor.R
        K = np.linalg.solve(S, sensor.H @ cov).T
        mean = mean + K @ (z - sensor.H @ mean)
        cov = (np.eye(4) - K @ sensor.H) @ cov
        out.append(mean.copy())
    return out


def test_06_single_target_reduces_to_kalman():
    data = builtin_scenario("two-target").to_dict()
    data["steps"] = 20
    data["sensor"]["clutter_rate"] = 0.0
    data["sensor"]["detection_prob"] = 1.0
    data["truth"] = [data["truth"][0]]
    data["truth"][0]["death_step"] = 20
    data["birth"] = [data["birth"][0]]
    config = scenario_from_dict(data)
    truth = generate_truth(config)
    scans = generate_measurements(truth, config, np.random.default_rng(1))
    reference = kalman_reference(config, scans)
    worst = 0.0
    for policy in ("lmb", "dglmb", "almb"):
        tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                     make_birth_model(config),
                                     make_pipeline_config(config), policy)
        for k, scan in enumerate(scans):
            extracted, _ = tracker.step(scan)
            assert len(extracted) == 1, (policy, k)
            err = float(np.max(np.abs(extracted[0][1] - reference[k])))
            worst = max(worst, err)
    print("criterion 6: worst per-coordinate deviation from the Kalman "
          "reference %.2e over 20 steps x 3 filters (need < 1e-9)" % worst)
    assert worst < 1e-9


def test_07_criteria_analytics(rng):
    l1, l2 = Label(0, 0), Label(0, 1)
    g = single([0.0], [[1.0]])
    correlated = dglmb_from_rows((l1, l2), [
        ((), 0.5, {}),
        ((l1, l2), 0.5, {l1: g, l2: g}),
    ])
    kl_pair = kl_criterion(correlated)
    entropy_pair = association_entropy(np.array([[0.5], [0.5]]))
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        tracks = {Label(0, i): (float(rng.uniform(0.01, 0.99)), g)
                  for i in range(n)}
        worst = max(worst, kl_criterion(lmb_to_dglmb(
            lmb_from_tracks(tracks), CAP)))
    print("criterion 7: kl(correlated pair)=%.12f (ln 2 = %.12f), "
          "entropy([.5,.5])=%.12f, worst kl of independent density %.2e "
          "(need < 1e-10)" % (kl_pair, np.log(2.0), entropy_pair, worst))
    assert kl_pair == pytest.approx(np.log(2.0), abs=1e-12)
    assert entropy_pair == pytest.approx(np.log(2.0), abs=1e-12)
    assert worst < 1e-10


def test_08_cardinality_oracle(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        rs = rng.uniform(0.0, 1.0, n)
        got = lmb_cardinality(lmb_from_tracks({
            Label(0, i): (float(r), single([0.0], [[1.0]]))
            for i, r in enumerate(rs)}))
        brute = np.zeros(n + 1)
        for bits in itertools.product([0, 1], repeat=n):
            p = 1.0
            for r, b in zip(rs, bits):
                p *= r if b else 1.0 - r
            brute[sum(bits)] += p
        worst = max(worst, float(np.max(np.abs(got - brute))))
    print("criterion 8: worst cardinality-pmf error %.2e over 100 vectors "
          "up to 10 tracks (need < 1e-12)" % worst)
    assert worst < 1e-12


def test_09_switch_automaton_table():
    config = PipelineConfig(kl_threshold=1e-4, entropy_threshold=0.5)
    cases = switch_cases(config)
    wrong = []
    for state, kl, entropy, expected in cases:
        got = decide_switch(state, kl, entropy, config)
        if got is not expected:
            wrong.append((state, kl, entropy, got, expected))
    print("criterion 9: %d/%d automaton cells correct (states x below/at/"
          "above threshold)" % (len(cases) - len(wrong), len(cases)))
    assert not wrong


def test_10_csv_determinism(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["run", "--scenario", "builtin:two-target",
                     "--filter", "all", "--runs", "2", "--seed", "11",
                     "--out", str(out), "--timing-mode", "zero"])
        assert code == 0
        blobs.append((out / "results.csv").read_bytes())
    identical = blobs[0] == blobs[1]
    print("criterion 10: repeated run byte-identical: %s (%d bytes)"
          % (identical, len(blobs[0])))
    assert identical
