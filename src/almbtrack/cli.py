"""Command line front end.

``track run`` executes a Monte-Carlo experiment and writes ``results.csv``
plus a copy of the resolved scenario; ``track plotdata`` aggregates such a
results file into per-scan mean curves ready for plotting.

Exit codes: 0 on success, 2 on configuration or usage errors (an output
path that cannot be written included), 3 when the filter recursion
degenerates numerically.
"""

import argparse
import json
import os
import sys

from .errors import ConfigurationError, NumericalError, UsageError
from .harness import (FILTER_NAMES, monte_carlo, read_rows, write_plotdata,
                      write_rows)
from .scenarios import BUILTIN_SCENARIOS, builtin_scenario, load_scenario


def _resolve_scenario(spec):
    if spec.startswith("builtin:"):
        return builtin_scenario(spec[len("builtin:"):])
    return load_scenario(spec)


def _cmd_run(args):
    config = _resolve_scenario(args.scenario)
    filters = FILTER_NAMES if args.filter == "all" else (args.filter,)
    seed = config.seed if args.seed is None else args.seed
    out_csv, out_json = (os.path.join(args.out, name)
                         for name in ("results.csv", "scenario.json"))
    # An output path that cannot be written fails now, not after the runs.
    head = args.out
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    for path, is_dir in ((head, True), (out_csv, False), (out_json, False)):
        if not args.out or (os.path.exists(path)
                            and os.path.isdir(path) != is_dir):
            raise UsageError("cannot write %r: %s a directory"
                             % (path, "not" if is_dir else "is"))
    rows = monte_carlo(config, args.runs, filters=filters, base_seed=seed,
                       timing_mode=args.timing_mode)
    os.makedirs(args.out, exist_ok=True)
    write_rows(rows, out_csv)
    scenario_copy = dict(config.to_dict())
    scenario_copy["seed"] = int(seed)
    with open(out_json, "w") as handle:
        json.dump(scenario_copy, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d rows)" % (out_csv, len(rows)))
    return 0


def _cmd_plotdata(args):
    rows = read_rows(os.path.join(args.indir, "results.csv"))
    written = write_plotdata(rows, args.out)
    for path in written:
        print("wrote %s" % path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="track",
        description="Multi-object tracking experiments with adaptive "
                    "mixed-density filters.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo experiment")
    run.add_argument("--scenario", required=True,
                     help="scenario JSON path, or builtin:<name> (%s)"
                          % ", ".join(BUILTIN_SCENARIOS))
    run.add_argument("--filter", default="all",
                     choices=list(FILTER_NAMES) + ["all"])
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--seed", type=int, default=None,
                     help="base seed; run r uses seed+r (default: "
                          "scenario seed)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--timing-mode", default="wall",
                     choices=["wall", "zero"],
                     help="'zero' writes 0.0 step times so identical "
                          "invocations produce identical bytes")
    run.set_defaults(func=_cmd_run)

    plotdata = sub.add_parser("plotdata",
                              help="aggregate results.csv into mean curves")
    plotdata.add_argument("--in", dest="indir", required=True,
                          help="directory containing results.csv")
    plotdata.add_argument("--out", required=True, help="output directory")
    plotdata.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        scan = exc.diagnostics.get("scan")
        where = "" if scan is None else " in scan %d" % scan
        print("numerical failure%s: %s" % (where, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
