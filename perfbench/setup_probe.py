"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is what a Monte-Carlo user pays before the first scan: importing
``almbtrack`` (with numpy and scipy), building the scenario, its ground
truth and the measurement sequences of a batch, and constructing one
tracker per filter.

    python3 perfbench/setup_probe.py <workload> <seed>...
"""

import sys
import time

start = time.perf_counter()

import bench  # noqa: E402
from almbtrack.pipeline import MultiObjectTracker  # noqa: E402
from almbtrack.scenarios import (make_birth_model,  # noqa: E402
                                 make_motion, make_pipeline_config,
                                 make_sensor)


def main(argv):
    workload = bench.WORKLOADS[argv[0]]
    inputs = bench.make_inputs(workload, [int(s) for s in argv[1:]])
    config = inputs.config
    for name in bench.FILTERS:
        MultiObjectTracker(make_motion(config), make_sensor(config),
                           make_birth_model(config),
                           make_pipeline_config(config), name)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
