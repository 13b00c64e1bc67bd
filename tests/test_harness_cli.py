"""Monte-Carlo harness and the track command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from almbtrack import (ConfigurationError, UsageError, builtin_scenario,
                       scenario_from_dict)
from almbtrack import harness
from almbtrack.cli import main
from almbtrack.harness import (CSV_HEADER, monte_carlo, read_rows, run_filter,
                               write_plotdata, write_rows)

HEADER_LINE = ("run,k,filter,ospat_m,step_time_s,n_est,n_true,"
               "n_lmb_groups,n_dglmb_groups,max_kl,max_entropy")


def tiny_config(steps=12, clutter=5.0):
    data = builtin_scenario("two-target").to_dict()
    data["steps"] = steps
    data["sensor"]["clutter_rate"] = clutter
    for script in data["truth"]:
        script["death_step"] = min(script["death_step"], steps)
    return scenario_from_dict(data)


@pytest.fixture(scope="module")
def tiny_rows():
    return monte_carlo(tiny_config(), 2, base_seed=77, timing_mode="zero")


def test_run_filter_rejects_unknown_policy():
    with pytest.raises(UsageError):
        run_filter("bogus", [], tiny_config())


def test_adaptive_equals_lmb_on_clean_data():
    # Single well-separated target, no clutter: the adaptive filter
    # never leaves LMB form, so the two policies emit identical tracks.
    data = builtin_scenario("two-target").to_dict()
    data["steps"] = 15
    data["sensor"]["clutter_rate"] = 0.0
    data["sensor"]["detection_prob"] = 1.0
    data["truth"] = [data["truth"][0]]
    data["truth"][0]["death_step"] = 15
    data["birth"] = [data["birth"][0]]
    config = scenario_from_dict(data)
    truth = __import__("almbtrack").generate_truth(config)
    scans = __import__("almbtrack").generate_measurements(
        truth, config, np.random.default_rng(3))
    a = run_filter("almb", scans, config)
    b = run_filter("lmb", scans, config)
    assert all(d["n_dglmb_groups"] == 0 for d in a.diagnostics)
    for ea, eb in zip(a.estimates, b.estimates):
        assert [lab for lab, _ in ea] == [lab for lab, _ in eb]
        for (_, xa), (_, xb) in zip(ea, eb):
            np.testing.assert_allclose(xa, xb, atol=1e-12)


def test_monte_carlo_row_shape(tiny_rows):
    config = tiny_config()
    assert len(tiny_rows) == 2 * 3 * config.steps
    assert set(tiny_rows[0]) == set(CSV_HEADER)
    assert {row["filter"] for row in tiny_rows} == {"lmb", "dglmb", "almb"}
    for row in tiny_rows:
        assert row["step_time_s"] == 0.0
        assert 0.0 <= row["ospat_m"] <= 300.0
        assert row["n_true"] == 2
        assert row["n_lmb_groups"] >= 0 and row["n_dglmb_groups"] >= 0


def test_monte_carlo_seed_determinism():
    config = tiny_config(steps=8)
    a = monte_carlo(config, 1, filters=("almb",), base_seed=5,
                    timing_mode="zero")
    b = monte_carlo(config, 1, filters=("almb",), base_seed=5,
                    timing_mode="zero")
    c = monte_carlo(config, 1, filters=("almb",), base_seed=6,
                    timing_mode="zero")
    assert [r["ospat_m"] for r in a] == [r["ospat_m"] for r in b]
    assert [r["ospat_m"] for r in a] != [r["ospat_m"] for r in c]


def test_monte_carlo_validates_arguments():
    config = tiny_config(steps=4)
    with pytest.raises(UsageError):
        monte_carlo(config, 1, filters=("nope",))
    with pytest.raises(UsageError):
        monte_carlo(config, 1, timing_mode="fast")


@pytest.mark.parametrize("n_runs", [0, -3, 2.5, "2", True])
def test_monte_carlo_rejects_run_count(n_runs):
    with pytest.raises(ConfigurationError, match="n_runs"):
        monte_carlo(tiny_config(steps=4), n_runs, timing_mode="zero")


@pytest.mark.parametrize("base_seed", [-1, 1.5])
def test_monte_carlo_rejects_base_seed(base_seed):
    with pytest.raises(ConfigurationError, match="base_seed"):
        monte_carlo(tiny_config(steps=4), 1, base_seed=base_seed,
                    timing_mode="zero")


@pytest.mark.parametrize("filters", [(), ("lmb", "nope"), iter(()), "lmb"],
                         ids=["empty", "unknown", "empty-iterator", "string"])
def test_monte_carlo_rejects_filters(filters, monkeypatch):
    # Checked before any run, though the first filter is valid.
    monkeypatch.setattr(harness, "run_filter", None)
    with pytest.raises(UsageError, match="filters"):
        monte_carlo(tiny_config(steps=4), 1, filters=filters,
                    timing_mode="zero")


def test_monte_carlo_takes_filters_from_an_iterator():
    rows = monte_carlo(tiny_config(steps=4), 1, filters=iter(["lmb"]),
                       timing_mode="zero")
    assert [row["filter"] for row in rows] == ["lmb"] * 4


def test_rows_round_trip(tiny_rows, tmp_path):
    path = tmp_path / "results.csv"
    write_rows(tiny_rows, str(path))
    with open(path) as handle:
        assert handle.readline().rstrip("\n") == HEADER_LINE
    back = read_rows(str(path))
    assert back == tiny_rows


def test_read_rows_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(UsageError):
        read_rows(str(path))


def test_plotdata_aggregates_means(tiny_rows, tmp_path):
    out = tmp_path / "plots"
    written = write_plotdata(tiny_rows, str(out))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["ospat_mean.csv", "step_time_mean.csv"]
    with open(out / "ospat_mean.csv") as handle:
        header = handle.readline().strip().split(",")
        assert header[0] == "k"
        assert set(header[1:]) == {"lmb", "dglmb", "almb"}
        k_values = [int(line.split(",")[0]) for line in handle]
    assert k_values == list(range(1, tiny_config().steps + 1))


def write_scenario(tmp_path, **overrides):
    data = builtin_scenario("two-target").to_dict()
    data["steps"] = 10
    data["sensor"]["clutter_rate"] = 5.0
    for script in data["truth"]:
        script["death_step"] = 10
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_writes_outputs(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--scenario", scenario, "--filter", "almb",
                 "--runs", "1", "--seed", "9", "--out", str(out),
                 "--timing-mode", "zero"])
    assert code == 0
    assert (out / "results.csv").exists()
    assert (out / "scenario.json").exists()
    rows = read_rows(str(out / "results.csv"))
    assert len(rows) == 10
    saved = json.loads((out / "scenario.json").read_text())
    assert saved["seed"] == 9


def test_cli_identical_invocations_identical_bytes(tmp_path):
    scenario = write_scenario(tmp_path)
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["run", "--scenario", scenario, "--filter", "all",
                     "--runs", "2", "--seed", "4", "--out", str(out),
                     "--timing-mode", "zero"])
        assert code == 0
        blobs.append((out / "results.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_builtin_scenario_spec(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "builtin:two-target", "--filter",
                 "lmb", "--runs", "1", "--seed", "2", "--out", str(out),
                 "--timing-mode", "zero"])
    assert code == 0
    rows = read_rows(str(out / "results.csv"))
    assert len(rows) == 100


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["run", "--scenario", "builtin:nope", "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "x")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", "--scenario", str(bad), "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "y")]) == 2
    assert main(["plotdata", "--in", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "z")]) == 2
    # A scenario path that is a directory, a scenario file that is not
    # UTF-8, and a results.csv that is a directory.
    assert main(["run", "--scenario", str(tmp_path), "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "s")]) == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["run", "--scenario", str(latin), "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "r")]) == 2
    (tmp_path / "nested" / "results.csv").mkdir(parents=True)
    assert main(["plotdata", "--in", str(tmp_path / "nested"),
                 "--out", str(tmp_path / "q")]) == 2
    # An empty output directory, for run and for plotdata.
    assert main(["run", "--scenario", write_scenario(tmp_path), "--filter",
                 "lmb", "--runs", "1", "--out", ""]) == 2
    ok = tmp_path / "ok"
    ok.mkdir()
    (ok / "results.csv").write_text(
        ",".join(CSV_HEADER) + "\n0,1,lmb,1.5,0.0,1,1,1,0,0.0,0.0\n")
    assert main(["plotdata", "--in", str(ok), "--out", ""]) == 2
    # Output paths that cannot be written: an existing file as the output
    # directory of run and of plotdata, and a directory where run's
    # results.csv or plotdata's ospat_mean.csv goes.  The error names it.
    taken = tmp_path / "taken"
    taken.write_text("")
    for name in ("results.csv", "ospat_mean.csv"):
        (tmp_path / "held" / name).mkdir(parents=True)
    run_to = ["run", "--scenario", write_scenario(tmp_path), "--filter",
              "lmb", "--runs", "1", "--out"]
    for argv, path in (
            (run_to + [str(taken)], taken),
            (["plotdata", "--in", str(ok), "--out", str(taken)], taken),
            (run_to + [str(tmp_path / "held")],
             tmp_path / "held" / "results.csv"),
            (["plotdata", "--in", str(ok), "--out", str(tmp_path / "held")],
             tmp_path / "held" / "ospat_mean.csv")):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
    zero_cap = write_scenario(tmp_path, tracker={"cap": 0})
    assert main(["run", "--scenario", zero_cap, "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "w")]) == 2
    nan_noise = write_scenario(tmp_path,
                               motion={"velocity_noise_std": float("nan")})
    assert main(["run", "--scenario", nan_noise, "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "v")]) == 2
    # No process noise and no birth velocity spread pass validation, but
    # give LMB tracks singular covariances: a numerical failure, exit 3.
    birth = builtin_scenario("two-target").to_dict()["birth"]
    for entry in birth:
        entry["std"] = [10.0, 0.0, 10.0, 0.0]
    singular = write_scenario(tmp_path, birth=birth,
                              motion={"velocity_noise_std": 0.0,
                                      "survival_prob": 0.99})
    for name in ("lmb", "almb"):
        assert main(["run", "--scenario", singular, "--filter", name,
                     "--runs", "1", "--out", str(tmp_path / name)]) == 3
    # Regions whose area underflows to 0.0 or overflows to inf.
    for region in ([[0.0, 1e-200], [0.0, 1e-200]],
                   [[-1e200, 1e200], [-1e200, 1e200]]):
        tiny_or_huge = write_scenario(tmp_path, region=region, truth=[])
        assert main(["run", "--scenario", tiny_or_huge, "--filter", "lmb",
                     "--runs", "1", "--out", str(tmp_path / "p")]) == 2
    text_steps = write_scenario(tmp_path, steps="x")
    assert main(["run", "--scenario", text_steps, "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "u")]) == 2
    assert main(["run", "--scenario", write_scenario(tmp_path), "--filter",
                 "lmb", "--runs", "1", "--seed", "-1",
                 "--out", str(tmp_path / "t")]) == 2
    for runs in ("0", "-1"):
        out = tmp_path / ("runs" + runs)
        assert main(["run", "--scenario", write_scenario(tmp_path),
                     "--filter", "lmb", "--runs", runs,
                     "--out", str(out)]) == 2
        assert not out.exists()
    # A results file with a non-numeric cell, and one where a filter has
    # no row for a scan.
    row = "0,1,lmb,1.5,0.0,1,1,1,0,0.0,0.0"
    for name, rows in (("cell", [row, row.replace("1.5", "n/a")]),
                       ("scan", [row, row.replace("lmb", "dglmb")
                                 .replace("0,1,", "0,2,", 1)])):
        results = tmp_path / name
        results.mkdir()
        (results / "results.csv").write_text(
            "\n".join([",".join(CSV_HEADER)] + rows) + "\n")
        assert main(["plotdata", "--in", str(results),
                     "--out", str(tmp_path / (name + "_plots"))]) == 2


def test_run_checks_its_output_path_before_the_runs(tmp_path, monkeypatch,
                                                    capsys):
    # No filter may run: an output directory that is a file or lies under
    # one, and one whose results.csv or scenario.json is a directory, fail
    # first and name the path; so does an empty one.
    def no_run(*args):
        raise AssertionError("a filter ran")

    monkeypatch.setattr(harness, "run_filter", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    held = [tmp_path / "a" / "results.csv", tmp_path / "b" / "scenario.json"]
    for path in held:
        path.mkdir(parents=True)
    scenario = write_scenario(tmp_path)
    for out, path in [(taken, taken), (taken / "sub", taken), ("", "''")] + [
            (path.parent, path) for path in held]:
        assert main(["run", "--scenario", scenario, "--filter", "lmb",
                     "--runs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


def test_cli_rejects_removed_tracker_key(tmp_path, capsys):
    # Setting a truncation constant is a usage error naming the key.
    scenario = write_scenario(tmp_path, tracker={
        "kl_threshold": 1e-4, "entropy_threshold": 0.5, "gate_sq": 9.2103})
    assert main(["run", "--scenario", scenario, "--filter", "lmb",
                 "--runs", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: unknown key(s) ['gate_sq'] in tracker\n"


def test_cli_rejects_infinite_ospa_order_before_the_runs(
        tmp_path, monkeypatch, capsys):
    # The file says Infinity; the error names the field, and no filter
    # runs before it.
    def no_run(*args):
        raise AssertionError("a filter ran")

    monkeypatch.setattr(harness, "run_filter", no_run)
    ospa = dict(builtin_scenario("two-target").to_dict()["ospa"],
                p=float("inf"))
    scenario = write_scenario(tmp_path, ospa=ospa)
    assert "Infinity" in Path(scenario).read_text()
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--filter", "lmb",
                 "--runs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: ospa p must be in [1, inf), got inf\n"
    assert not out.exists()


def test_cli_run_takes_integer_ospa_settings(tmp_path):
    # 300 ** 8 in Python ints overflows a numpy scale factor; the run
    # scores as it does with the same settings written as floats.
    ospat = []
    for ospa in ({"p": 8, "c": 300, "alpha": 100},
                 {"p": 8.0, "c": 300.0, "alpha": 100.0}):
        case = tmp_path / str(len(ospat))
        case.mkdir()
        scenario = write_scenario(case, ospa=ospa)
        assert main(["run", "--scenario", scenario, "--filter", "lmb",
                     "--runs", "1", "--out", str(case / "out"),
                     "--timing-mode", "zero"]) == 0
        ospat.append([row["ospat_m"] for row in
                      read_rows(str(case / "out" / "results.csv"))])
    assert len(ospat[0]) == 10 and ospat[0] == ospat[1]


def test_cli_plotdata_from_run(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", "--scenario", scenario, "--filter", "lmb", "--runs", "1",
          "--seed", "1", "--out", str(out), "--timing-mode", "zero"])
    plots = tmp_path / "plots"
    assert main(["plotdata", "--in", str(out), "--out", str(plots)]) == 0
    assert (plots / "ospat_mean.csv").exists()


def test_entry_point_target_exit_codes(tmp_path):
    # The project half of the installed-script check: pyproject.toml maps
    # `track` to the CLI, and that target, run the way the generated
    # wrapper runs it, keeps the exit-code contract (0 ok, 2 bad input).
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["track"] == "almbtrack.cli:main"
    module, func = scripts["track"].split(":")
    wrapper = ("import sys; from %s import %s; sys.exit(%s())"
               % (module, func, func))

    def track(scenario, out):
        return subprocess.run(
            [sys.executable, "-c", wrapper, "run", "--scenario", scenario,
             "--filter", "lmb", "--runs", "1", "--seed", "3",
             "--out", str(out), "--timing-mode", "zero"],
            capture_output=True, text=True)

    proc = track(write_scenario(tmp_path), tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").exists()
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    proc = track(str(bad), tmp_path / "bad_out")
    assert proc.returncode == 2, proc.stderr


@pytest.mark.skipif(shutil.which("track") is None,
                    reason="the `track` script is on PATH only after "
                           "`pip install --no-build-isolation -e .`")
def test_installed_entry_point(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        ["track", "run", "--scenario", scenario, "--filter", "lmb",
         "--runs", "1", "--seed", "3", "--out", str(out),
         "--timing-mode", "zero"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "results.csv").exists()
