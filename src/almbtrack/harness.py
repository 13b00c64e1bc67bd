"""Monte-Carlo experiment harness.

``run_filter`` drives one tracker policy over one measurement sequence,
timing each scan (filter work only; ground truth, metrics and I/O are
outside the timed section).  ``monte_carlo`` repeats this over seeded
runs and filters, scores every run with the labeled tracking error, and
writes one CSV row per (run, scan, filter).

All statistical output is a pure function of (scenario config, seed);
the wall-clock column is measured and therefore varies between
invocations unless ``timing_mode="zero"`` stubs it out.
"""

import csv
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, check_numbers
from .metrics import ospat
from .pipeline import FILTER_NAMES, MultiObjectTracker
from .scenarios import (generate_measurements, generate_truth, make_birth_model,
                        make_motion, make_ospa_params, make_pipeline_config,
                        make_sensor, truth_positions)

CSV_HEADER = ["run", "k", "filter", "ospat_m", "step_time_s", "n_est",
              "n_true", "n_lmb_groups", "n_dglmb_groups", "max_kl",
              "max_entropy"]


@dataclass(eq=False)
class FilterRun:
    """Per-scan extraction results and diagnostics of one filter pass."""

    estimates: list
    diagnostics: list
    step_times: list


def run_filter(policy, measurements, config):
    """Run one tracker policy over a measurement sequence."""
    tracker = MultiObjectTracker(make_motion(config), make_sensor(config),
                                 make_birth_model(config),
                                 make_pipeline_config(config), policy)
    estimates, diagnostics, times = [], [], []
    for scan in measurements:
        start = time.perf_counter()
        extracted, diag = tracker.step(scan)
        times.append(time.perf_counter() - start)
        estimates.append([(label, state[[0, 2]]) for label, state in extracted])
        diagnostics.append(diag)
    return FilterRun(estimates, diagnostics, times)


def monte_carlo(config, n_runs, filters=FILTER_NAMES, base_seed=None,
                timing_mode="wall"):
    """Run the scenario ``n_runs`` times per filter.

    Run ``r`` uses seed ``base_seed + r`` (``base_seed`` defaults to the
    scenario seed); all filters of a run share the same measurement
    sequence.  Returns a list of row dicts matching ``CSV_HEADER``.
    Bad arguments raise before any run.
    """
    if timing_mode not in ("wall", "zero"):
        raise UsageError("timing_mode must be 'wall' or 'zero'")
    filters = tuple(filters)
    if not filters or not set(filters) <= set(FILTER_NAMES):
        raise UsageError("filters must name one or more of %s, got %r"
                         % (", ".join(FILTER_NAMES), filters))
    if base_seed is None:
        base_seed = config.seed
    check_numbers("monte_carlo", {"n_runs": n_runs, "base_seed": base_seed}, [
        (("n_runs",), "an integer >= 1",
         lambda v: isinstance(v, numbers.Integral) and v >= 1),
        (("base_seed",), "an integer >= 0",
         lambda v: isinstance(v, numbers.Integral) and v >= 0)])
    truth = generate_truth(config)
    truth_steps = [truth_positions(truth, k)
                   for k in range(1, config.steps + 1)]
    n_true = [len(step) for step in truth_steps]
    params = make_ospa_params(config)
    rows = []
    for run in range(n_runs):
        rng = np.random.default_rng(base_seed + run)
        measurements = generate_measurements(truth, config, rng)
        for name in filters:
            result = run_filter(name, measurements, config)
            errors = ospat(truth_steps, result.estimates, params)
            for k in range(config.steps):
                diag = result.diagnostics[k]
                step_time = 0.0 if timing_mode == "zero" \
                    else result.step_times[k]
                rows.append({
                    "run": run,
                    "k": k + 1,
                    "filter": name,
                    "ospat_m": float(errors[k]),
                    "step_time_s": float(step_time),
                    "n_est": len(result.estimates[k]),
                    "n_true": n_true[k],
                    "n_lmb_groups": diag["n_lmb_groups"],
                    "n_dglmb_groups": diag["n_dglmb_groups"],
                    "max_kl": float(diag["max_kl"]),
                    "max_entropy": float(diag["max_entropy"]),
                })
    return rows


def write_rows(rows, path):
    """Write result rows with a fixed header and full-precision floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v)
                             for v in map(row.__getitem__, CSV_HEADER)])


def read_rows(path):
    try:
        with open(path, newline="") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError("cannot read %s: %s" % (path, err)) from None
    reader = csv.DictReader(lines)
    if reader.fieldnames != CSV_HEADER:
        raise UsageError("unexpected CSV header in %s" % path)
    rows = []
    for raw in reader:
        row = dict(raw)
        try:
            for name in ("run", "k", "n_est", "n_true", "n_lmb_groups",
                         "n_dglmb_groups"):
                row[name] = int(row[name])
            for name in ("ospat_m", "step_time_s", "max_kl", "max_entropy"):
                row[name] = float(row[name])
        except (TypeError, ValueError):
            raise UsageError("%s line %d, column %s: %r is not a valid "
                             "value" % (path, reader.line_num, name,
                                        row[name])) from None
        rows.append(row)
    return rows


def _mean_by_step(rows, field_name):
    acc = {}
    for row in rows:
        key = (row["k"], row["filter"])
        acc.setdefault(key, []).append(row[field_name])
    return {key: float(np.mean(values)) for key, values in acc.items()}


def write_plotdata(rows, out_dir):
    """Aggregate rows into per-scan mean curves, one CSV per quantity."""
    os.makedirs(out_dir, exist_ok=True)
    filters = [name for name in FILTER_NAMES
               if any(row["filter"] == name for row in rows)]
    steps = sorted({row["k"] for row in rows})
    missing = {(k, name) for k in steps for name in filters} - {
        (row["k"], row["filter"]) for row in rows}
    if missing:
        raise UsageError("results have no row for scan %d of filter %s"
                         % min(missing))
    written = []
    for field_name, filename in (("ospat_m", "ospat_mean.csv"),
                                 ("step_time_s", "step_time_mean.csv")):
        means = _mean_by_step(rows, field_name)
        path = os.path.join(out_dir, filename)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["k"] + filters)
            for k in steps:
                writer.writerow([k] + [repr(means[(k, name)])
                                       for name in filters])
        written.append(path)
    return written
