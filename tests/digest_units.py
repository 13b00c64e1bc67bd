"""Print one SHA-256 digest per (scenario, seed, filter) unit.

A digest covers every scan's estimate labels, the bytes of their
position vectors and ``repr(sorted(diagnostics.items()))``.  The units
are all three filters on builtin two-target seeds 2025-2030 and
sixteen-target seeds 4033-4034, the benchmark's units (24 lines).  Run
it with each tree's ``src`` and diff the output to show that a change
keeps the filters' output bit for bit:

    PYTHONPATH=src python3 tests/digest_units.py > digests.txt

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib

import numpy as np

from almbtrack import builtin_scenario, generate_measurements, generate_truth
from almbtrack.harness import FILTER_NAMES, run_filter

UNITS = [("two-target", seed) for seed in range(2025, 2031)] + [
    ("sixteen-target", seed) for seed in (4033, 4034)]


def digest(result):
    h = hashlib.sha256()
    for estimates, diagnostics in zip(result.estimates, result.diagnostics):
        for label, position in estimates:
            h.update(repr(label).encode())
            h.update(np.ascontiguousarray(position, dtype=float).tobytes())
        h.update(repr(sorted(diagnostics.items())).encode())
    return h.hexdigest()


def main():
    for scenario, seed in UNITS:
        config = builtin_scenario(scenario)
        measurements = generate_measurements(
            generate_truth(config), config, np.random.default_rng(seed))
        for name in FILTER_NAMES:
            result = run_filter(name, measurements, config)
            print(scenario, seed, name, digest(result), flush=True)


if __name__ == "__main__":
    main()
