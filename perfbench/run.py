"""Tracker benchmark: per-scan time and tracking error of LMB, ALMB and
delta-GLMB on the ``crossing`` and ``dense`` workloads.

    python3 perfbench/run.py --workload crossing --seed 2025 --seconds 30 --trace 0

Load is a closed loop in one process: one scan is in flight at a time
and each scan follows the previous one.  A run times set-up in fresh
interpreters (half of them after the timed passes), warms every filter
up on the first ``WARMUP_SCANS`` scans, then makes one timed pass over the
workload's batch: every filter on every seed.  Further passes, with the
seed and filter order reversed each time, repeat whole seeds while the
next one still fits in ``--seconds``.  ``calibration.Calibration`` runs
between scans, and every time is reported at reference host speed.
Each scan's time is the median over its repeats; percentiles are taken
over the scans of the batch.  Every unit's outputs are checked against
``reference.json``; a unit that raises ``NumericalError`` or drifts from
it counts as failed.

``--trace 1`` measures the layers instead: for the lower half of the
batch it runs every (seed, filter) unit once untraced and once under the
outside-in tracer of ``tracing.py``, and reports per-scan layer metrics
and the traced/untraced time ratio.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# bench pins BLAS/OpenMP threads, so it is imported before numpy.
import bench
import numpy as np
import scipy
import tracing
from calibration import Calibration

# Set-up is timed this many times before the timed passes and as many
# after them, so that its median and the run's speed cover the same span.
SETUP_REPEATS = 3
WARMUP_SCANS = 10
# The p95 of a filter needs at least this many scans beyond it.
MIN_BEYOND_P95 = 10
# A filter's times vary from run to run with the host's state in the
# few windows it ran in.  A filter timed in fewer than ``MIN_UNITS``
# units and for less than ``MIN_FILTER_S`` seconds (LMB on dense) repeats
# units after the passes until it is not.
MIN_UNITS = 8
MIN_FILTER_S = 12.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="batch start seed (default: the workload's "
                             "scenario seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_lines():
    clock = time.get_clock_info("perf_counter")
    return [
        "host: nproc %d, Python %s, numpy %s, scipy %s"
        % (os.cpu_count(), platform.python_version(), np.__version__,
           scipy.__version__),
        "clock: time.perf_counter (%s, resolution %g s); BLAS/OpenMP "
        "threads %s" % (clock.implementation, clock.resolution,
                        os.environ["OMP_NUM_THREADS"]),
    ]


def measure_setup(workload_name, seeds):
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, probe, workload_name] + [str(s) for s in seeds],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Attempted and failed (seed, filter) units, with the reasons."""

    def __init__(self, reference, workload_name):
        self.reference = reference
        self.workload_name = workload_name
        self.attempted = 0
        self.failures = []

    def record(self, seed, name, outcome):
        """Check one unit's outcome (a ``Unit`` or the ``NumericalError``
        it raised); returns the unit if it passed, else None."""
        self.attempted += 1
        if isinstance(outcome, bench.NumericalError):
            failure = "NumericalError: %s" % outcome
        else:
            failure = bench.check_unit(self.reference, self.workload_name,
                                       name, seed, outcome)
        if failure is None:
            return outcome
        self.failures.append("%s seed %d %s: %s" % (self.workload_name, seed,
                                                    name, failure))
        return None

    def run_unit(self, name, inputs, seed, calibration=None):
        gc.collect()
        try:
            outcome = bench.run_unit(name, inputs, seed, calibration)
        except bench.NumericalError as exc:
            outcome = exc
        return self.record(seed, name, outcome)


def timed_passes(seconds, seeds, inputs, tally, calibration):
    """Closed-loop timing; returns the passing units of each (seed,
    filter), one per pass, and the first pass's units.  Each pass runs
    every filter over every seed, one unit at a time; every second pass
    reverses the seed and filter order."""
    samples = {(seed, name): [] for seed in seeds for name in bench.FILTERS}
    first = {}
    last_s = {}
    start = time.perf_counter()
    for p in itertools.count():
        forward = p % 2 == 0
        for seed in (seeds if forward else seeds[::-1]):
            if p and time.perf_counter() - start + last_s[seed] > seconds:
                return samples, first
            t0 = time.perf_counter()
            for name in (bench.FILTERS if forward else bench.FILTERS[::-1]):
                unit = tally.run_unit(name, inputs, seed, calibration)
                if unit is not None:
                    samples[(seed, name)].append(unit)
                    if p == 0:
                        first[(seed, name)] = unit
            last_s[seed] = time.perf_counter() - t0


def top_up(samples, seeds, inputs, tally, calibration):
    """Repeat the units of filters timed in fewer than ``MIN_UNITS``
    units and for less than ``MIN_FILTER_S`` seconds, seeds in reverse
    order, until none is left or has failed a unit."""
    def short(name):
        units = [unit for seed in seeds for unit in samples[(seed, name)]]
        return (len(units) < MIN_UNITS
                and sum(sum(unit.times) for unit in units) < MIN_FILTER_S)

    failed = set()
    for seed in itertools.cycle(seeds[::-1]):
        names = [name for name in bench.FILTERS
                 if name not in failed and short(name)]
        if not names:
            return
        for name in names:
            unit = tally.run_unit(name, inputs, seed, calibration)
            if unit is None:
                failed.add(name)
            else:
                samples[(seed, name)].append(unit)


def scan_times_ms(samples, seeds, name, calibration):
    """Median time of each scan over its repeats, at reference speed, for
    one filter."""
    out = []
    for seed in seeds:
        reps = [calibration.scale(unit.times, unit.marks)
                for unit in samples[(seed, name)]]
        if reps:
            out.extend(1e3 * np.median(reps, axis=0))
    return np.asarray(out)


def percentiles(scans_ms, name, check=True):
    """p50 and p95 of per-scan times, and the scans beyond p95; with
    ``check``, refuses a p95 with fewer than ``MIN_BEYOND_P95`` scans
    beyond it."""
    p95 = float(np.percentile(scans_ms, 95))
    beyond = int(np.sum(scans_ms > p95))
    if check and beyond < MIN_BEYOND_P95:
        raise SystemExit("error: %s p95 has %d scans beyond it, fewer than "
                         "%d" % (name, beyond, MIN_BEYOND_P95))
    return float(np.median(scans_ms)), p95, beyond


def warm_up(inputs, seed):
    for name in bench.FILTERS:
        bench.run_filter(name, inputs.measurements[seed][:WARMUP_SCANS],
                         inputs.config)


def end_to_end(args, workload_name, seeds, inputs, reference):
    tally = Tally(reference, workload_name)
    setup_wall = measure_setup(workload_name, seeds)
    warm_up(inputs, seeds[0])
    calibration = Calibration()
    samples, first = timed_passes(args.seconds, seeds, inputs, tally,
                                  calibration)
    top_up(samples, seeds, inputs, tally, calibration)
    setup_wall += measure_setup(workload_name, seeds)
    # Times are reported at reference host speed: each scan's wall time
    # is scaled by the calibration calls made around it.  A set-up is
    # too short for that, and the few calls a fresh interpreter can make
    # do not follow its noise; it is scaled by the speed of the whole run.
    speed = calibration.speed()
    setup_s = speed * statistics.median(setup_wall)
    lines = ["host speed %.4f x reference (median of %d calibration "
             "calls); times are at reference speed"
             % (speed, len(calibration.samples)),
             "setup_s = %.4f s (median of %d fresh interpreters x speed; "
             "wall s: %s)"
             % (setup_s, len(setup_wall),
                ", ".join("%.3f" % t for t in setup_wall))]
    metrics = {}
    total_scans, total_ms = 0, 0.0
    for name in bench.FILTERS:
        scans = scan_times_ms(samples, seeds, name, calibration)
        if not scans.size:
            lines.append("%s: every unit failed; no times" % name)
            continue
        reps = sum(len(samples[(s, name)]) for s in seeds)
        # A failed unit leaves its filter short of scans.  The run is
        # then reported as incorrect rather than refused, so that the
        # failure is counted.
        p50, p95, beyond = percentiles(scans, name, check=not tally.failures)
        good = [first[(s, name)].ospat_m for s in seeds if (s, name) in first]
        metrics["scan_ms_p50.%s" % name] = (p50, "ms")
        metrics["scan_ms_p95.%s" % name] = (p95, "ms")
        if good:
            metrics["ospat_m.%s" % name] = (float(np.mean(good)), "m")
        lines.append("%s: %d scans over %d seeds, %d timed units, %d "
                     "scans beyond p95; ospat over %d seeds"
                     % (name, scans.size, len(seeds), reps, beyond,
                        len(good)))
        total_scans += scans.size
        total_ms += float(scans.sum())
    if total_ms:
        metrics["scans_per_s"] = (1e3 * total_scans / total_ms, "1/s")
    metrics["setup_s"] = (setup_s, "s")
    lines.append("failed_share = %.4f (%d of %d units failed)"
                 % (len(tally.failures) / tally.attempted,
                    len(tally.failures), tally.attempted))
    return metrics, lines, tally


def trace_seeds(seeds):
    """The traced seeds: the lower half of the batch whatever ``--seed``
    is, so that counts repeat exactly between traced runs, in the order
    ``seeds`` visits them."""
    lower = sorted(seeds)[: max(1, len(seeds) // 2)]
    return [s for s in seeds if s in lower]


def traced(args, workload_name, seeds, inputs, reference):
    tally = Tally(reference, workload_name)
    seeds_traced = trace_seeds(seeds)
    warm_up(inputs, seeds[0])
    tracer = tracing.Tracer()

    def run_traced(name, seed):
        tracer.install()
        try:
            return tally.run_unit(name, inputs, seed)
        finally:
            tracer.uninstall()

    metrics = {}
    lines = ["traced seeds: %s" % seeds_traced]
    for i, name in enumerate(bench.FILTERS):
        plain_s = traced_s = 0.0
        tracer.reset()
        for j, seed in enumerate(seeds_traced):
            # Alternate which of the pair runs first, against host drift.
            if (i + j) % 2:
                with_trace = run_traced(name, seed)
                plain = tally.run_unit(name, inputs, seed)
            else:
                plain = tally.run_unit(name, inputs, seed)
                with_trace = run_traced(name, seed)
            if plain is not None and with_trace is not None:
                plain_s += sum(plain.times)
                traced_s += sum(with_trace.times)
        if not plain_s:
            lines.append("%s: every traced pair failed; no metrics" % name)
            continue
        units = dict(tracing.LAYER_METRICS)
        for metric, value in tracer.metrics().items():
            metrics["%s.%s" % (metric, name)] = (value, units[metric])
        metrics["trace.overhead.%s" % name] = (traced_s / plain_s, "ratio")
        lines.append("%s: %d traced scans" % (name, tracer.counts["scans"]))
    return metrics, lines, tally


def main(argv=None):
    args = parse_args(argv)
    workload = bench.WORKLOADS[args.workload]
    seed = workload.base_seed if args.seed is None else args.seed
    seeds = bench.batch_seeds(workload, seed)
    reference = bench.load_reference()
    inputs = bench.make_inputs(workload, seeds)
    measure = traced if args.trace else end_to_end
    metrics, lines, tally = measure(args, args.workload, seeds, inputs,
                                    reference)
    print("workload %s: builtin %s, seeds %s" % (args.workload,
                                                   workload.scenario, seeds))
    for line in host_lines() + lines + tally.failures:
        print(line)
    for metric, (value, unit) in metrics.items():
        print("%-34s %14.6f %s" % (metric, value, unit))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
