"""Golden output: all three filters on the first 60 scans of builtin
two-target at seed 2025, checked against ``golden_two_target.json``.

Labels, estimate counts and group counts must match exactly, estimate
positions to 1e-9 m and the per-scan ``max_kl``/``max_entropy`` to a
relative 1e-9.  Below 1e-12 nats the criteria are rounding noise (most
scans read ``max_kl`` in (0, 1e-12), against a threshold of 1e-4), so
that much absolute slack is allowed, and a change that only reorders
sums still passes.  A change meant to keep the filters' output must pass
unchanged; one meant to move it re-records the file and says why:

    PYTHONPATH=src python3 tests/test_golden_output.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from almbtrack import builtin_scenario, generate_measurements, generate_truth
from almbtrack.harness import FILTER_NAMES, run_filter

GOLDEN = Path(__file__).with_name("golden_two_target.json")
SEED = 2025
SCANS = 60


def compute():
    """Per-filter lists of per-scan records, as stored in the file."""
    config = builtin_scenario("two-target")
    rng = np.random.default_rng(SEED)
    measurements = generate_measurements(generate_truth(config), config,
                                         rng)[:SCANS]
    out = {}
    for name in FILTER_NAMES:
        result = run_filter(name, measurements, config)
        out[name] = [{
            "labels": [[lab.birth_step, lab.birth_index] for lab, _ in est],
            "positions": [[float(v) for v in pos] for _, pos in est],
            "n_lmb_groups": diag["n_lmb_groups"],
            "n_dglmb_groups": diag["n_dglmb_groups"],
            "max_kl": float(diag["max_kl"]),
            "max_entropy": float(diag["max_entropy"]),
        } for est, diag in zip(result.estimates, result.diagnostics)]
    return out


@pytest.fixture(scope="module")
def runs():
    return compute()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_filter_matches_golden_output(runs, golden, name):
    got, want = runs[name], golden[name]
    assert len(got) == len(want) == SCANS
    for k, (g, w) in enumerate(zip(got, want), start=1):
        where = "%s scan %d" % (name, k)
        assert len(g["labels"]) == len(w["labels"]), where
        for key in ("labels", "n_lmb_groups", "n_dglmb_groups"):
            assert g[key] == w[key], "%s %s" % (where, key)
        np.testing.assert_allclose(
            np.reshape(g["positions"], (-1, 2)),
            np.reshape(w["positions"], (-1, 2)), rtol=0.0, atol=1e-9,
            err_msg=where)
        for key in ("max_kl", "max_entropy"):
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=1e-12), \
                "%s %s" % (where, key)


def test_golden_almb_run_switches(runs):
    # Without a delta-GLMB scan the ALMB golden output would not cover
    # the switching path at all.
    assert any(scan["n_dglmb_groups"] > 0 for scan in runs["almb"])


if __name__ == "__main__":
    # One scan per line keeps the file diffable.
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: [\n%s\n]" % (json.dumps(name), ",\n".join(map(json.dumps, scans)))
        for name, scans in compute().items()))
    print("wrote", GOLDEN)
