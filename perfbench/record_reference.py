"""Record the output-check reference: per-scan estimate counts and mean
OSPA of every (workload, batch seed, filter).

Run it only when the program's outputs change on purpose, and say so in
the change that commits the new ``reference.json``:

    python3 perfbench/record_reference.py
"""

import json

import bench


def main():
    reference = {}
    for name, workload in bench.WORKLOADS.items():
        seeds = bench.batch_seeds(workload, workload.base_seed)
        inputs = bench.make_inputs(workload, seeds)
        reference[name] = {}
        for seed in seeds:
            reference[name][str(seed)] = {}
            for filter_name in bench.FILTERS:
                unit = bench.run_unit(filter_name, inputs, seed)
                reference[name][str(seed)][filter_name] = {
                    "n_est": unit.n_est, "ospat_m": unit.ospat_m}
                print(name, seed, filter_name, unit.ospat_m, flush=True)
    with open(bench.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
