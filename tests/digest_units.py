"""Print one SHA-256 digest per (scenario, seed, filter) unit.

A digest covers every scan's estimate labels, the bytes of their
position vectors and ``repr(sorted(diagnostics.items()))``.  The units
are all three filters on builtin two-target seeds 2025-2030 and
sixteen-target seeds 4033-4034, the benchmark's units, and on
sixteen-target seeds 4033-4034 with ``CROWDED``'s sensor, 30 m noise and
50 clutter per scan, and with ``BUSY``'s, 30 m noise and 150 clutter,
whose larger gates reach Murty's algorithm (36 lines).  Run it with each
tree's ``src`` and diff the output to show that a change keeps the
filters' output bit for bit:

    PYTHONPATH=src python3 tests/digest_units.py > digests.txt

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

import dataclasses
import hashlib

import numpy as np

from almbtrack import builtin_scenario, generate_measurements, generate_truth
from almbtrack.harness import FILTER_NAMES, run_filter

# The crowded sixteen-target: its sensor's wider noise and clutter make
# gates of 2-5 tracks over enough measurements to reach Murty's algorithm.
CROWDED = dict(position_noise_std=30.0, clutter_rate=50.0)
# The busy sixteen-target: three times the crowded clutter also gives
# single tracks more than 16 gated measurements, so Murty's algorithm
# ranks problems of one row too.
BUSY = dict(position_noise_std=30.0, clutter_rate=150.0)

# (printed name, builtin scenario, seed, sensor settings) of each unit.
UNITS = [("two-target", "two-target", seed, {})
         for seed in range(2025, 2031)] + [
    ("sixteen-target", "sixteen-target", seed, {}) for seed in (4033, 4034)
] + [(name, "sixteen-target", seed, sensor)
     for name, sensor in (("sixteen-target-crowded", CROWDED),
                          ("sixteen-target-busy", BUSY))
     for seed in (4033, 4034)]


def digest(result):
    h = hashlib.sha256()
    for estimates, diagnostics in zip(result.estimates, result.diagnostics):
        for label, position in estimates:
            h.update(repr(label).encode())
            h.update(np.ascontiguousarray(position, dtype=float).tobytes())
        h.update(repr(sorted(diagnostics.items())).encode())
    return h.hexdigest()


def main():
    for unit, scenario, seed, sensor in UNITS:
        config = builtin_scenario(scenario)
        # dataclasses.replace, so that the script runs on any tree.
        config = dataclasses.replace(config, sensor=dataclasses.replace(
            config.sensor, **sensor))
        measurements = generate_measurements(
            generate_truth(config), config, np.random.default_rng(seed))
        for name in FILTER_NAMES:
            result = run_filter(name, measurements, config)
            print(unit, seed, name, digest(result), flush=True)


if __name__ == "__main__":
    main()
