"""Golden output: all three filters on the first 60 scans of builtin
two-target at seed 2025 and of builtin sixteen-target at seed 4033,
checked against ``golden_two_target.json`` and
``golden_sixteen_target.json``.

Labels, estimate counts and group counts must match exactly, estimate
positions to 1e-9 m and the per-scan ``max_kl``/``max_entropy`` to a
relative 1e-9.  Below 1e-12 nats the criteria are rounding noise (most
scans read ``max_kl`` in (0, 1e-12), against a threshold of 1e-4), so
that much absolute slack is allowed, and a change that only reorders
sums still passes.  The sixteen-target window holds group merges, a
split and delta-GLMB mixtures of several components, which two-target
barely reaches.  A change meant to keep the filters' output must pass
unchanged; one meant to move it re-records both files and says why:

    PYTHONPATH=src python3 tests/test_golden_output.py
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from almbtrack import builtin_scenario, generate_measurements, generate_truth
from almbtrack import pipeline
from almbtrack.harness import FILTER_NAMES, run_filter

HERE = Path(__file__).parent
GOLDENS = {
    "two-target": (HERE / "golden_two_target.json", 2025),
    "sixteen-target": (HERE / "golden_sixteen_target.json", 4033),
}
SCANS = 60


def compute(scenario):
    """Per-filter lists of per-scan records, as stored in the file, and
    per-filter counts of groups merged away and split off."""
    config = builtin_scenario(scenario)
    rng = np.random.default_rng(GOLDENS[scenario][1])
    measurements = generate_measurements(generate_truth(config), config,
                                         rng)[:SCANS]
    merge, split = pipeline.merge_groups, pipeline.split_group
    out, events = {}, {}
    for name in FILTER_NAMES:
        count = events[name] = {"merged_away": 0, "split_off": 0}

        def counted_merge(groups, gates):
            result = merge(groups, gates)
            count["merged_away"] += len(groups) - len(result)
            return result

        def counted_split(group, sensor):
            result = split(group, sensor)
            count["split_off"] += len(result) - 1
            return result

        with mock.patch.object(pipeline, "merge_groups", counted_merge), \
                mock.patch.object(pipeline, "split_group", counted_split):
            result = run_filter(name, measurements, config)
        out[name] = [{
            "labels": [[lab.birth_step, lab.birth_index] for lab, _ in est],
            "positions": [[float(v) for v in pos] for _, pos in est],
            "n_lmb_groups": diag["n_lmb_groups"],
            "n_dglmb_groups": diag["n_dglmb_groups"],
            "max_kl": float(diag["max_kl"]),
            "max_entropy": float(diag["max_entropy"]),
        } for est, diag in zip(result.estimates, result.diagnostics)]
    return out, events


@pytest.fixture(scope="module")
def runs():
    return compute("two-target")[0]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS["two-target"][0].read_text())


@pytest.fixture(scope="module")
def sixteen_runs():
    return compute("sixteen-target")


@pytest.fixture(scope="module")
def sixteen_golden():
    return json.loads(GOLDENS["sixteen-target"][0].read_text())


def check(got, want, name):
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


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_filter_matches_golden_output(runs, golden, name):
    check(runs[name], golden[name], name)


def test_golden_almb_run_switches(runs):
    # Without a delta-GLMB scan the ALMB golden output would not cover
    # the switching path at all.
    assert any(scan["n_dglmb_groups"] > 0 for scan in runs["almb"])


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_sixteen_target_matches_golden_output(sixteen_runs, sixteen_golden,
                                              name):
    check(sixteen_runs[0][name], sixteen_golden[name], name)


def test_sixteen_target_window_merges_and_splits(sixteen_runs):
    # The window must reach the merge and split paths, or the file pins
    # nothing of them.
    for name in ("almb", "dglmb"):
        assert sixteen_runs[1][name]["merged_away"] >= 1, name
        assert sixteen_runs[1][name]["split_off"] >= 1, name


if __name__ == "__main__":
    # One scan per line keeps the files diffable.
    for scenario, (path, _) in GOLDENS.items():
        path.write_text("{\n%s\n}\n" % ",\n".join(
            "%s: [\n%s\n]" % (json.dumps(name),
                              ",\n".join(map(json.dumps, scans)))
            for name, scans in compute(scenario)[0].items()))
        print("wrote", path)
