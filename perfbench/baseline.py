"""Run the benchmark once per seed and summarize each metric by its median
and quartiles, the form the baseline in ``baseline.json`` is kept in.

    python3 perfbench/baseline.py > perfbench/baseline.json

It makes ``RUNS`` end-to-end runs of each workload, at seeds 1 to
``RUNS`` and ``--seconds 30``, one interpreter at a time; progress goes
to standard error.  ``spread`` is the interquartile range as a share of
the median; ``values`` lists the runs in seed order.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
WORKLOADS = ("crossing", "dense")


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "min": min(values), "max": max(values)}


def main():
    out = {}
    for workload in WORKLOADS:
        results = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", "30", "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit("error: %s seed %d failed its output check"
                                 % (workload, seed))
            results.append(result["metrics"])
            print(workload, seed, "done", file=sys.stderr, flush=True)
        out[workload] = {
            name: dict(summarize([r[name]["value"] for r in results]),
                       unit=results[0][name]["unit"],
                       values=[r[name]["value"] for r in results])
            for name in results[0]}
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
