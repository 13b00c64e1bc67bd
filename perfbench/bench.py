"""Workloads, inputs, timed filter passes and the output check.

A workload is one builtin scenario with a fixed Monte-Carlo batch of
seeds.  Every filter runs on every seed of the batch, one filter at a
time, through ``almbtrack.harness.run_filter``, which times each
``tracker.step``.
The benchmark's ``--seed`` picks where in the batch a run starts and the
order seeds are visited; run ``r`` uses batch seed ``base + (seed - base
+ r) mod batch``.  Every run therefore covers the same measurement
sequences, which the recorded reference pins down, so run-to-run
differences measure the code rather than Monte-Carlo sampling error.

Import this module before numpy.  It pins BLAS and OpenMP threads to
one, and imports ``almbtrack`` from ``src/`` of the checkout it sits in,
failing when that tree is missing.
"""

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# The matrices are 4x4: BLAS and OpenMP thread pools only add scheduling
# noise.  The limits take effect only if set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

FILTERS = ("lmb", "almb", "dglmb")

# A run's mean OSPA may differ from the reference by this share of it.
# Reordered floating-point sums (the intended effect of a refactor) move
# the mean by about 1e-12 relative.  One estimate moved by a decimetre in
# one of 100 scans moves it by more than 1e-6 relative on both workloads
# (0.1 m / 16 truths / 100 scans / 17 m = 3.7e-6 on sixteen-target), and
# any changed gate, prune or cap decision moves it far more.
OSPA_RTOL = 1e-6


def _import_almbtrack():
    if not (SRC / "almbtrack" / "__init__.py").is_file():
        raise SystemExit("error: %s/almbtrack not found; run from a "
                         "checkout of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import almbtrack
    if Path(almbtrack.__file__).resolve().parent != SRC / "almbtrack":
        raise SystemExit("error: imported almbtrack from %s, not %s"
                         % (almbtrack.__file__, SRC))
    return almbtrack


almbtrack = _import_almbtrack()
from almbtrack.errors import NumericalError  # noqa: E402
from almbtrack.harness import run_filter  # noqa: E402
from almbtrack.metrics import ospat  # noqa: E402
from almbtrack.scenarios import (builtin_scenario,  # noqa: E402
                                 generate_measurements, generate_truth,
                                 make_ospa_params, truth_positions)


@dataclass(frozen=True)
class Workload:
    scenario: str
    base_seed: int
    batch: int


# Why each workload is here is listed in BENCHMARK.json and README.md.
WORKLOADS = {
    # 2 tracks against 50 clutter per scan: cheap LMB/ALMB scans of
    # per-group bookkeeping, enumeration-only assignment, idle merge and
    # split.  Six seeds keep one pass of all filters near half a minute.
    "crossing": Workload("two-target", 2025, 6),
    # Up to 16 tracks whose close pairs merge, switch and split; delta-GLMB
    # mixtures read by many hypotheses.  Two seeds are the fewest that give
    # a p95 with 10 scans beyond it.
    "dense": Workload("sixteen-target", 4033, 2),
}


def batch_seeds(workload, seed):
    """Seeds of one run, in visiting order (run ``r`` is entry ``r``)."""
    start = (int(seed) - workload.base_seed) % workload.batch
    return [workload.base_seed + (start + r) % workload.batch
            for r in range(workload.batch)]


@dataclass(eq=False)
class Inputs:
    """Scenario, ground truth and one measurement sequence per seed."""

    config: object
    truth_steps: list
    ospa_params: object
    measurements: dict


def make_inputs(workload, seeds):
    config = builtin_scenario(workload.scenario)
    truth = generate_truth(config)
    truth_steps = [truth_positions(truth, k)
                   for k in range(1, config.steps + 1)]
    measurements = {s: generate_measurements(truth, config,
                                             np.random.default_rng(s))
                    for s in seeds}
    return Inputs(config, truth_steps, make_ospa_params(config),
                  measurements)


@dataclass(eq=False)
class Unit:
    """One filter pass over one seed: per-scan times and what it
    output, summarized for the output check.  ``marks`` holds, per scan,
    the number of ``Calibration`` calls made before it, if one ran."""

    times: list
    n_est: str
    ospat_m: float
    marks: list = None


def encode_counts(counts):
    """Per-scan estimate counts as one base-36 character per scan."""
    return "".join(np.base_repr(n, 36).lower() for n in counts)


def summarize(inputs, estimates, times, marks=None):
    errors = ospat(inputs.truth_steps, estimates, inputs.ospa_params)
    return Unit(times, encode_counts(len(e) for e in estimates),
                float(np.mean(errors)), marks)


def calibrated(scans, calibration, marks):
    """Yield ``scans``, polling ``calibration`` before each one and
    appending to ``marks`` the number of calibration calls made so far.

    ``harness.run_filter`` fetches a scan before it starts the scan's
    timer, so the calibration work stays outside the timed section.
    """
    for scan in scans:
        calibration.poll()
        marks.append(len(calibration.samples))
        yield scan


def run_unit(filter_name, inputs, seed, calibration=None):
    """Run one filter over one seed with ``harness.run_filter``, polling
    ``calibration`` between scans if one is given; raises
    ``NumericalError`` when the recursion degenerates."""
    measurements = inputs.measurements[seed]
    marks = None
    if calibration is not None:
        marks = []
        measurements = calibrated(measurements, calibration, marks)
    result = run_filter(filter_name, measurements, inputs.config)
    return summarize(inputs, result.estimates, result.step_times, marks)


def load_reference():
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_unit(reference, workload_name, filter_name, seed, unit):
    """Return why ``unit`` disagrees with the reference, or None."""
    try:
        ref = reference[workload_name][str(seed)][filter_name]
    except KeyError:
        return "no reference for %s seed %s %s" % (workload_name, seed,
                                                   filter_name)
    if unit.n_est != ref["n_est"]:
        scans = [k + 1 for k, (a, b) in enumerate(zip(unit.n_est,
                                                       ref["n_est"]))
                 if a != b]
        return "estimate counts differ at scans %s" % scans[:10]
    if abs(unit.ospat_m - ref["ospat_m"]) > OSPA_RTOL * abs(ref["ospat_m"]):
        return "mean ospat %.12g m, reference %.12g m" % (unit.ospat_m,
                                                         ref["ospat_m"])
    return None
