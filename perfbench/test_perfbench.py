"""Tests of the benchmark itself: the output check, the percentile
accounting and the trace wiring.

    python3 -m pytest -q perfbench
"""

import sys
import time

import bench  # first: pins BLAS/OpenMP threads before numpy loads
import numpy as np
import pytest
import run
import tracing
from calibration import REFERENCE_S, Calibration
from almbtrack.errors import NumericalError
from almbtrack.harness import run_filter
from almbtrack.pipeline import MultiObjectTracker

CROSSING = bench.WORKLOADS["crossing"]
DENSE = bench.WORKLOADS["dense"]


@pytest.fixture(scope="module")
def reference():
    return bench.load_reference()


@pytest.fixture(scope="module")
def crossing_inputs():
    return bench.make_inputs(CROSSING, [CROSSING.base_seed])


def test_batch_seeds_rotate_within_the_recorded_batch(reference):
    base = CROSSING.base_seed
    batch = list(range(base, base + CROSSING.batch))
    assert bench.batch_seeds(CROSSING, base) == batch
    assert bench.batch_seeds(CROSSING, base + 3)[:2] == [base + 3, base + 4]
    for seed in (0, 7, -5, 10 ** 9):
        assert sorted(bench.batch_seeds(CROSSING, seed)) == batch
    for name, workload in bench.WORKLOADS.items():
        seeds = bench.batch_seeds(workload, workload.base_seed)
        assert sorted(reference[name]) == [str(s) for s in seeds]
        for seed in seeds:
            assert sorted(reference[name][str(seed)]) == sorted(bench.FILTERS)


def test_output_check_catches_perturbed_estimate(reference, crossing_inputs):
    seed = CROSSING.base_seed
    result = run_filter("lmb", crossing_inputs.measurements[seed],
                        crossing_inputs.config)

    def check(estimates):
        unit = bench.summarize(crossing_inputs, estimates, result.step_times)
        return bench.check_unit(reference, "crossing", "lmb", seed, unit)

    assert check(result.estimates) is None
    k = 50
    assert result.estimates[k]
    moved = [list(step) for step in result.estimates]
    label, position = moved[k][0]
    moved[k][0] = (label, position + np.array([0.5, 0.5]))
    assert "mean ospat" in check(moved)
    dropped = [list(step) for step in result.estimates]
    dropped[k] = dropped[k][1:]
    assert check(dropped) == "estimate counts differ at scans [%d]" % (k + 1)


def test_numerical_error_counts_as_failed(reference, crossing_inputs,
                                          monkeypatch):
    real_step = MultiObjectTracker.step

    def step(self, measurements):
        if self.policy == "almb" and self.step_index == 40:
            raise NumericalError("all hypothesis weights vanished")
        return real_step(self, measurements)

    monkeypatch.setattr(MultiObjectTracker, "step", step)
    tally = run.Tally(reference, "crossing")
    units = {name: tally.run_unit(name, crossing_inputs, CROSSING.base_seed)
             for name in bench.FILTERS}
    # The other filters still match the reference.
    assert units["almb"] is None
    assert units["lmb"] is not None and units["dglmb"] is not None
    assert tally.attempted == 3 and len(tally.failures) == 1
    assert "NumericalError" in tally.failures[0]


def test_p95_needs_ten_scans_beyond_it():
    times = np.arange(200, dtype=float)
    p50, p95, beyond = run.percentiles(times, "lmb")
    assert (p50, beyond) == (99.5, 10) and 189.0 < p95 < 190.0
    with pytest.raises(SystemExit):
        run.percentiles(times[:150], "lmb")
    # After a failed unit the run is reported as incorrect, not refused.
    assert run.percentiles(times[:150], "lmb", check=False)[2] == 8


def test_calibration_is_polled_outside_the_timed_scans(crossing_inputs):
    calibration = Calibration()
    calibration.PERIOD_S = 0.0
    start = time.perf_counter()
    unit = bench.run_unit("lmb", crossing_inputs, CROSSING.base_seed,
                          calibration)
    wall = time.perf_counter() - start
    # One call before every scan: scan k follows call k.
    assert unit.marks == list(range(1, len(unit.times) + 1))
    assert len(calibration.samples) == len(unit.times)
    # Had a call been inside a scan's timer, the timed scans and the
    # calls would add up to more than the wall time of the pass.
    assert sum(unit.times) + sum(calibration.samples) <= wall


def test_traced_seeds_do_not_depend_on_seed():
    for workload in bench.WORKLOADS.values():
        base = workload.base_seed
        expected = sorted(bench.batch_seeds(workload, base))[
            : max(1, workload.batch // 2)]
        for seed in range(base, base + workload.batch):
            seeds = run.trace_seeds(bench.batch_seeds(workload, seed))
            assert sorted(seeds) == expected


def test_top_up_repeats_filters_timed_in_few_short_units():
    seeds = [1, 2]
    samples = {(seed, name): [bench.Unit([1.0], "", 0.0)]
               for seed in seeds for name in bench.FILTERS}
    for seed in seeds:  # timed in few units, but for long enough
        samples[(seed, "dglmb")] = [bench.Unit([7.0], "", 0.0)]
    calls = []

    class Tally:
        def run_unit(self, name, inputs, seed, calibration):
            calls.append((name, seed))
            if name == "almb" and len(calls) > 3:
                return None  # failed: no more almb units
            return bench.Unit([1.0], "", 0.0)

    run.top_up(samples, seeds, None, Tally(), None)
    count = {name: sum(len(samples[(seed, name)]) for seed in seeds)
             for name in bench.FILTERS}
    assert count == {"lmb": run.MIN_UNITS, "almb": 3, "dglmb": 2}
    assert [seed for name, seed in calls if name == "lmb"] == [2, 1] * 3
    assert ("dglmb", 1) not in calls and ("dglmb", 2) not in calls


def test_calibration_scales_each_scan_by_nearby_calls():
    calibration = Calibration()
    calibration.poll()
    calibration.poll()  # within PERIOD_S of the first call
    assert len(calibration.samples) == 1
    calibration.samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    ref = REFERENCE_S
    # Scan 1 follows call 1 (calls 1-4 around it), scan 2 follows call 7.
    scaled = calibration.scale([3.0, 3.0], [1, 7])
    assert scaled == pytest.approx([3.0 * ref, 1.5 * ref])


def test_tracer_wraps_every_import_site():
    tracer = tracing.Tracer()
    originals = {name: getattr(sys.modules["almbtrack." + home], name)
                 for home, name in tracing.TRACED}
    modules = [m for key, m in sys.modules.items()
               if key.startswith("almbtrack")]
    sites = set(tracer.install())
    try:
        for name, original in originals.items():
            for module in modules:
                assert getattr(module, name, None) is not original, \
                    "%s.%s not wrapped" % (module.__name__, name)
        for site in [("almbtrack.pipeline", "pipeline_step"),
                     ("almbtrack.pipeline", "gate_mask"),
                     ("almbtrack.pipeline", "dglmb_to_lmb"),
                     ("almbtrack.lmb", "dglmb_update"),
                     ("almbtrack.lmb", "gm_predict"),
                     ("almbtrack.dglmb", "ranked_assignments"),
                     ("almbtrack.dglmb", "mahalanobis_sq"),
                     ("almbtrack.switching", "dglmb_to_lmb"),
                     ("almbtrack.switching", "lmb_cardinality")]:
            assert site in sites
    finally:
        tracer.uninstall()
    for (home, name), original in zip(tracing.TRACED, originals.values()):
        assert getattr(sys.modules["almbtrack." + home], name) is original


def _traced_run(tracer, filter_name, inputs, seed):
    tracer.reset()
    tracer.install()
    try:
        result = run_filter(filter_name, inputs.measurements[seed],
                            inputs.config)
    finally:
        tracer.uninstall()
    return result.estimates, dict(tracer.calls), dict(tracer.counts)


@pytest.mark.parametrize("filter_name", bench.FILTERS)
def test_trace_keeps_estimates_and_counts_repeat(crossing_inputs,
                                                 filter_name):
    seed = CROSSING.base_seed
    plain = run_filter(filter_name, crossing_inputs.measurements[seed],
                       crossing_inputs.config).estimates
    tracer = tracing.Tracer()
    first = _traced_run(tracer, filter_name, crossing_inputs, seed)
    second = _traced_run(tracer, filter_name, crossing_inputs, seed)
    assert first[1:] == second[1:]
    assert first[2]["scans"] == len(plain)
    for traced_step, plain_step in zip(first[0], plain):
        assert [lab for lab, _ in traced_step] == [lab for lab, _ in plain_step]
        for (_, a), (_, b) in zip(traced_step, plain_step):
            assert np.array_equal(a, b)
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in tracing.LAYER_METRICS}


def test_dense_dglmb_to_lmb_calls_match_profile():
    # The profiled count of dglmb_to_lmb calls in one sixteen-target
    # delta-GLMB run at the scenario seed.
    inputs = bench.make_inputs(DENSE, [DENSE.base_seed])
    _, calls, _ = _traced_run(tracing.Tracer(), "dglmb", inputs,
                              DENSE.base_seed)
    assert calls["dglmb_to_lmb"] == 10496
