import json
import math
from pathlib import Path

import pytest

from ladderlab.cli import SUBCOMMANDS, load_schema, run, validate_config


def read_json(path):
    return json.loads(Path(path).read_text())


def test_schema_loads_and_validates():
    schema = load_schema()
    assert "subcommand" in schema["properties"]
    good = {"subcommand": "verify", "seed": 1, "params": {"suite": "minorant"}}
    assert validate_config(good) == []
    assert validate_config({"seed": 1}) != []  # missing subcommand
    assert validate_config({"subcommand": "nope"}) != []
    assert validate_config({"subcommand": "verify", "params": {"a": -1.0}}) != []
    assert validate_config({"subcommand": "verify", "params": {"n": 3}}) != []  # not a verify param


def test_schema_subcommands_are_the_table():
    assert load_schema()["properties"]["subcommand"]["enum"] == list(SUBCOMMANDS)


def test_help_lists_table_defaults(capsys):
    assert run(["returns", "--help"]) == 0
    text = capsys.readouterr().out
    assert "default: 4,8,16" in text and "default: 2000" in text


@pytest.mark.parametrize("args, message", [
    (["returns", "--n-list", "4,x"], "expected comma-separated integers"),
    (["simulate", "--start", "0,1,2"], "more than 2 items"),
    (["simulate", "--start", "0"], "fewer than 2 items"),
])
def test_malformed_list_flags_are_config_errors(tmp_path, capsys, args, message):
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_list", "k_list"])
def test_empty_return_lists_are_config_errors(tmp_path, capsys, key):
    # an empty list once passed validation and the run died in min()/max()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "returns", "params": {key: [], "replicas": 10}}))
    out = tmp_path / "out.json"
    assert run(["returns", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"$.params.{key}: fewer than 1 items" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_is_config_error(capsys):
    assert run(["verify", "--does-not-exist", "1"]) == 2


def test_bad_config_file(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run(["verify", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"subcommand": "verify", "params": {"suite": "bogus"}}))
    assert run(["verify", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"subcommand": "profile"}))
    assert run(["verify", "--config", str(bad)]) == 2  # config for a different subcommand


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("subcommand, key, value", [
    ("simulate", "a", math.nan), ("spectrum", "eta", math.nan), ("chain-stats", "a", math.inf),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, form, subcommand, key, value):
    # every comparison with NaN is false, so NaN passed every bound and inf passed a > 0
    out = tmp_path / "out.json"
    if form == "flag":
        args = [subcommand, f"--{key}={value}"]
    else:  # json writes and reads the NaN and Infinity tokens
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": subcommand, "params": {key: value}}))
        args = [subcommand, "--config", str(cfg)]
    assert run(args + ["--out", str(out)]) == 2
    assert f"$.params.{key}: expected finite number" in capsys.readouterr().err
    assert not out.exists()


def test_config_params_of_another_subcommand_are_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "verify", "params": {"n": 3, "steps": 10,
                                                                  "suite": "minorant"}}))
    out = tmp_path / "out.json"
    assert run(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "n, steps" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text(json.dumps({"subcommand": "verify", "params": {"suite": "minorant"}}))
    assert run(["verify", "--config", str(cfg), "--out", str(out)]) == 0


def test_verify_linear_minorant(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "minorant", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["status"] == "ok"
    checks = doc["summary"]["checks"]
    assert checks[0]["name"] == "minorant"
    assert checks[0]["passed"]
    assert len(checks[0]["details"]["residuals"]) == 15


def test_verify_scaling_suite(tmp_path):
    out = tmp_path / "scaling.json"
    assert run(["verify", "--suite", "scaling", "--samples", "300",
                "--seed", "5", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["summary"]["checks"][0]["details"]["max_relative_residual"] < 1e-12


@pytest.mark.parametrize("suite, samples", [("gibbs-identity", 5), ("gamma-derivatives", 19)])
def test_verify_fails_a_check_that_ran_no_samples(tmp_path, suite, samples):
    # samples // 9 and samples // 20 are 0: nothing was checked, so nothing passed
    out = tmp_path / "empty.json"
    assert run(["verify", "--suite", suite, "--samples", str(samples), "--out", str(out)]) == 1
    doc = read_json(out)
    assert doc["status"] == "check-failure" and not doc["summary"]["passed"]
    (check,) = doc["summary"]["checks"]
    assert check["details"]["samples"] == 0 and not check["passed"]


def test_simulate_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--n", "3", "--steps", "2000", "--replicas", "2",
            "--seed", "9", "--format", "csv"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# ladderlab csv schema v")
    assert lines[1].startswith("# config:")
    assert lines[2].split(",")[:3] == ["replica", "last_vertex", "returns"]
    assert len(lines) == 5


def test_simulate_seed_changes_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["simulate", "--n", "3", "--steps", "2000", "--replicas", "1", "--format", "csv"]
    run(base + ["--seed", "1", "--out", str(out1)])
    run(base + ["--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_profile_small(tmp_path):
    out = tmp_path / "prof.csv"
    code = run(["profile", "--n", "5", "--steps", "20000", "--replicas", "12",
                "--seed", "3", "--fit-lo", "1", "--fit-hi", "4",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    summary = read_json(out.with_suffix(".csv.summary.json"))
    assert summary["summary"]["slope"] < 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 12 * 5


def test_sample_env(tmp_path):
    out = tmp_path / "env.csv"
    code = run(["sample-env", "--n", "3", "--samples", "300", "--burn-in", "300",
                "--seed", "11", "--format", "csv", "--out", str(out)])
    assert code == 0  # sampler diagnostics are reported, not failed
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    assert header[1] == "Z0" and header[-1] == "Zn"
    assert "T_2" in header
    assert len(lines) == 3 + 300


def test_simulate_rwre_mode(tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"x": [1.0, 0.5, 2.0, 1.0, 0.5, 2.0, 1.0]}))
    out = tmp_path / "rwre.csv"
    code = run(["simulate", "--n", "2", "--mode", "rwre", "--weights", str(weights),
                "--steps", "5000", "--replicas", "1", "--seed", "4",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1
    counts = [int(v) for v in rows[0].split(",")[3:]]
    assert sum(counts) == 5000


@pytest.mark.parametrize("args,keys", [
    (["simulate", "--n", "2", "--steps", "100", "--seed", "1"], ("weights", "mode")),
    (["resistance", "--random-weights", "2"], ("weights", "random_weights")),
])
def test_ignored_weights_file_is_a_config_error(tmp_path, capsys, args, keys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"x": [1.0, 0.5, 2.0, 1.0, 0.5, 2.0, 1.0]}))
    out = tmp_path / "o.json"
    assert run(args + ["--weights", str(weights), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and all(key in err for key in keys)
    assert not out.exists()
    # the same combination from a config file, checked on the effective config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": args[0], "params": {"weights": str(weights)}}))
    assert run(args + ["--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("subcommand", [["simulate", "--mode", "rwre"], ["resistance"]])
@pytest.mark.parametrize("content", [None, "not json", '{"y": [1]}', '{"x": [1, 2]}',
                                     '{"x": [1, -1, 1, 1, 1, 1, 1]}', '{"x": [1, 1, 1, 1]}',
                                     '{"x": [1, Infinity, 1, 1, 1, 1, 1]}'])
def test_bad_weights_file_is_a_config_error(tmp_path, capsys, subcommand, content):
    weights = tmp_path / "w.json"
    if content is not None:  # None: the file is missing
        weights.write_text(content)
    out = tmp_path / "o.json"
    assert run(subcommand + ["--n", "2", "--weights", str(weights), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


def test_resistance_unit(tmp_path):
    out = tmp_path / "res.json"
    code = run(["resistance", "--n", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    row = doc["rows"][0]
    assert row[1] == pytest.approx(13 / 11)
    assert row[4] == pytest.approx(11 / 26)


def test_resistance_random(tmp_path):
    out = tmp_path / "res.csv"
    code = run(["resistance", "--n", "4", "--random-weights", "50",
                "--seed", "2", "--format", "csv", "--out", str(out)])
    assert code == 0


def test_returns_trend(tmp_path):
    out = tmp_path / "ret.json"
    code = run(["returns", "--n-list", "2,4", "--k-list", "1,2", "--replicas", "400",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["summary"]["nondecreasing_in_n"]


def test_returns_checks_the_levels_in_level_order(tmp_path):
    # the table keeps the order of --n-list; the monotonicity check reads level order
    docs = []
    for n_list in ("16,8,4", "4,8,16"):
        out = tmp_path / f"ret{n_list}.json"
        assert run(["returns", "--n-list", n_list, "--k-list", "1,2", "--replicas", "400",
                    "--seed", "3", "--out", str(out)]) == 0
        docs.append(read_json(out)["summary"])
    given, ordered = docs
    assert given["levels"] == [16, 8, 4] and given["nondecreasing_in_n"]
    assert given["fractions"] == {k: v[::-1] for k, v in ordered["fractions"].items()}
    assert given["fractions"]["1"] != sorted(given["fractions"]["1"])


def test_spectrum_small_grid(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectrum", "--grid", "small", "--a", "1.0", "--eta", "0.0",
                "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    s = doc["summary"]
    assert s["lambda"] > 0
    assert s["gap"] < 1
    assert s["symmetry_defect"] < 1e-8
    assert s["symmetry_control_quarter"] > 1e-3


def test_chain_stats_operator_only(tmp_path):
    out = tmp_path / "chain.json"
    code = run(["chain-stats", "--n", "6", "--j", "4", "--i", "2", "--grid", "small",
                "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert "operator_value" in doc["summary"]


CHAIN_SMALL = ["chain-stats", "--n", "4", "--j", "2", "--i", "1", "--grid", "small", "--seed", "1"]


def test_chain_stats_tag_one_refuses_mcmc_samples(tmp_path, capsys):
    # with tag 'one' the operator value is the normalization 1, which the
    # sampled Gamma mean does not estimate
    out = tmp_path / "chain.json"
    assert run(CHAIN_SMALL + ["--tag", "one", "--mcmc-samples", "2000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "tag" in err and "mcmc_samples" in err
    assert not out.exists()
    # the same combination split between a config file and a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "chain-stats", "params": {"tag": "one"}}))
    assert run(CHAIN_SMALL + ["--config", str(cfg), "--mcmc-samples", "50",
                              "--out", str(out)]) == 2
    assert not out.exists()


def test_chain_stats_without_finite_stderr_fails(tmp_path):
    # three samples are too few for batch means: the standard error is
    # infinite, and an infinite error bar agrees with nothing
    out = tmp_path / "chain.json"
    assert run(CHAIN_SMALL + ["--mcmc-samples", "3", "--out", str(out)]) == 1
    doc = read_strict_json(out)
    assert doc["status"] == "check-failure"
    assert doc["summary"]["mcmc_stderr"] == "inf" and doc["summary"]["agree_3sigma"] is False


def test_dump_matrix_rows_are_the_kernel_values(tmp_path):
    from ladderlab import transfer
    from ladderlab.cli import _grid_params

    dump = tmp_path / "k.csv"
    assert run(["spectrum", "--grid", "small", "--dump-matrix", str(dump),
                "--out", str(tmp_path / "spec.json")]) == 0
    grid = transfer.build_grid(_grid_params("small"), a=1.0)
    sw = grid.sqrt_w  # raw kernel values: S divided by sqrt_w on both sides
    want = transfer.assemble_kernel(grid, 1.0, 0.0).dense() / sw[:, None] / sw
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("# ladderlab csv schema v") and lines[1].startswith("# config: ")
    assert lines[2].split(",") == ["row"] + [f"c{j}" for j in range(grid.size)]
    assert len(lines) == 3 + grid.size
    for idx, line in enumerate(lines[3:]):
        fields = line.split(",")
        assert fields[0] == str(idx) and len(fields) == 1 + grid.size
        row = [float(v) for v in fields[1:]]
        assert all(math.isfinite(v) for v in row)
        assert row == want[idx].tolist(), idx


def read_strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


PROFILE_UNCROSSED = ["profile", "--n", "3", "--steps", "60", "--replicas", "40", "--seed", "2",
                     "--fit-lo", "1", "--fit-hi", "2"]


def test_profile_rows_keep_infinite_ratios(tmp_path):
    # 7 of these 40 replicas never cross the left rung: their ratios are +inf
    out = tmp_path / "prof.csv"
    assert run(PROFILE_UNCROSSED + ["--format", "csv", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    ratios = [float(r[2]) for r in rows]
    logs = [float(r[3]) for r in rows]
    assert len(rows) == 120
    assert sum(v == math.inf for v in ratios) == 21
    for ratio, log_ratio in zip(ratios, logs):
        if ratio == 0.0:
            assert log_ratio == -math.inf
        elif ratio == math.inf:
            assert log_ratio == math.inf
        else:
            assert log_ratio == pytest.approx(math.log(ratio), rel=1e-12, abs=1e-12)


STRICT_CASES = [
    PROFILE_UNCROSSED,
    ["sample-env", "--n", "1", "--samples", "50", "--burn-in", "50", "--seed", "1"],
    ["sample-env", "--n", "3", "--samples", "50", "--burn-in", "50", "--seed", "1"],
    ["spectrum", "--grid", "small"],
    ["simulate", "--n", "3", "--steps", "2000", "--replicas", "2", "--seed", "9"],
    ["simulate", "--n", "2", "--mode", "rwre", "--steps", "500", "--replicas", "2", "--seed", "4"],
    ["returns", "--n-list", "2,4", "--k-list", "1,2", "--replicas", "100", "--seed", "7"],
    ["verify", "--suite", "scaling", "--samples", "300", "--seed", "5"],
    ["resistance", "--n", "3", "--random-weights", "4"],
    ["chain-stats", "--n", "6", "--j", "3", "--i", "2", "--grid", "small"],
    ["verify", "--suite", "gamma-derivatives", "--samples", "400"],
    ["verify", "--suite", "minorant"],
    ["verify", "--suite", "gibbs-identity", "--samples", "900"],
]


@pytest.mark.parametrize("args", STRICT_CASES)
def test_json_output_is_strict(tmp_path, args):
    out = tmp_path / "out.json"
    run(args + ["--out", str(out)])
    doc = read_strict_json(out)
    assert doc["status"] == "ok"
    if args[0] == "profile":
        assert "-inf" in doc["summary"]["median_log_ratio"]
        assert ["inf", "inf"] == doc["rows"][0][2:]
    if args[:3] == ["sample-env", "--n", "1"]:
        assert doc["summary"]["acceptance"]["gamma"] is None  # never proposed at n=1
    if args[:3] == ["sample-env", "--n", "3"]:
        assert len(doc["rows"]) == 50 and len(doc["summary"]["mean_Gamma"]) == 2
        assert all(0 < rate <= 1 for rate in doc["summary"]["acceptance"].values())
    if args[0] == "spectrum":
        assert doc["summary"]["gap_residual"] < 1e-10
        assert doc["summary"]["gap_iterations"] > 0
    if args[0] == "simulate":
        assert len(doc["rows"]) == 2
        assert all(sum(row[3:]) == int(args[args.index("--steps") + 1]) for row in doc["rows"])
    if args[0] == "returns":
        assert doc["summary"]["undecided_replicas"] == 0
        assert set(doc["summary"]["fractions"]) == {"1", "2"}
    if args[0] == "resistance":
        assert len(doc["rows"]) == 4 and doc["summary"]["all_bounds_hold"] is True
    if args[0] == "chain-stats":
        assert math.isfinite(doc["summary"]["operator_value"])
    if args[:3] == ["verify", "--suite", "scaling"]:
        assert doc["summary"]["checks"][0]["details"]["max_relative_residual"] < 1e-12
    if args[:3] == ["verify", "--suite", "gamma-derivatives"]:
        assert doc["summary"]["checks"][0]["details"]["max_relative_fd_error"] < 1e-4
    if args[:3] == ["verify", "--suite", "minorant"]:
        assert len(doc["summary"]["checks"][0]["details"]["residuals"]) == 15
    if args[:3] == ["verify", "--suite", "gibbs-identity"]:
        details = doc["summary"]["checks"][0]["details"]
        assert details["samples"] == 900 and details["max_residual"] < 1e-9


@pytest.mark.parametrize("args, message", [
    (["simulate", "--n", "4", "--start", "0,3", "--steps", "10"], "level=3 outside the range"),
    (["simulate", "--n", "4", "--start", "5,1", "--steps", "10"], "i=5 outside the range"),
    (["profile", "--n", "4", "--steps", "2000", "--replicas", "4", "--fit-lo", "3", "--fit-hi", "3"],
     "not two or more levels"),
    (["profile", "--n", "4", "--steps", "2000", "--replicas", "4", "--fit-lo", "6", "--fit-hi", "9"],
     "not two or more levels"),
    # at a >= 2**53 a step no longer raises the weight: the walk would run unreinforced
    (["simulate", "--n", "1", "--steps", "10", "--a", "1e16"], "exceeds 2**50"),
    (["chain-stats", "--n", "8", "--i", "8", "--grid", "small"], "i must be in 1..7"),
    (["sample-env", "--n", "4", "--deform-j", "4", "--samples", "10"], "deform_j=4 outside"),
    # the coupling kernel needs a > 1/2: the weight's gate refuses 0.4 before any grid is built
    (["spectrum", "--grid", "small", "--a", "0.4"], "a must be finite and > 0.5"),
    (["chain-stats", "--grid", "small", "--a", "0.4"], "a must be finite and > 0.5"),
    # the small grid's truncation box is built for a = 1: a = 0.6 needs a larger box
    (["spectrum", "--grid", "small", "--a", "0.6"], "truncation too small"),
])
def test_out_of_range_values_write_a_failure_report(tmp_path, args, message):
    # the library refuses these inputs before any check runs: exit 2, like a
    # configuration error, but with a report that names the refusal
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == 2
    doc = read_strict_json(out)
    assert doc["status"] == "input-refused" and message in doc["error"]


def test_workers_environment_variable_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("LADDERLAB_WORKERS", "2")
    out = tmp_path / "out.json"
    assert run(["verify", "--suite", "minorant", "--out", str(out)]) == 0
    assert read_strict_json(out)["config"]["workers"] == 1


def test_csv_failure_report_goes_next_to_the_csv(tmp_path):
    # two replicas of 50 steps never reach level 12: the profile check raises
    args = ["profile", "--n", "12", "--steps", "50", "--replicas", "2", "--seed", "1"]
    out = tmp_path / "e.csv"
    assert run(args + ["--format", "csv", "--out", str(out)]) == 1
    assert not out.exists()
    doc = read_strict_json(out.with_suffix(".csv.summary.json"))
    assert doc["status"] == "check-failure"
    assert "median log ratio not finite" in doc["error"]
    out_json = tmp_path / "e.json"
    assert run(args + ["--out", str(out_json)]) == 1
    assert read_strict_json(out_json)["status"] == "check-failure"


# CLI goldens: every strict-JSON case above, CSV runs of the subcommands with
# rows, and one config file with a flag overriding it.  Most outputs must match
# byte for byte.  Floats that pass through BLAS/LAPACK or NumPy reductions may
# differ in the last bits between builds, so they compare to 1e-12 relative
# (the sampler ESS is left out of tests/mcmc_golden.json for the same reason);
# the eigen residuals and the symmetry defect sit at the rounding floor and
# carry no reproducible digits, hence the 1e-12 absolute floor.
CLI_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

CSV_CASES = [
    ["simulate", "--n", "3", "--steps", "2000", "--replicas", "2", "--seed", "9"],
    ["simulate", "--n", "3", "--steps", "500", "--replicas", "1", "--start", "2,1", "--seed", "5"],
    ["profile", "--n", "5", "--steps", "20000", "--replicas", "12", "--seed", "3",
     "--fit-lo", "1", "--fit-hi", "4"],
    ["returns", "--n-list", "2,4", "--k-list", "1,2", "--replicas", "100", "--seed", "7"],
    ["resistance", "--n", "4", "--random-weights", "5", "--seed", "2"],
    ["sample-env", "--n", "3", "--samples", "60", "--burn-in", "60", "--seed", "11"],
]

CONFIG_CASE = {"subcommand": "simulate", "seed": 4, "format": "csv",
               "params": {"n": 2, "mode": "rwre", "steps": 300, "replicas": 2, "start": [1, 1]}}
CONFIG_OVERRIDE = ["--steps", "400"]

LOOSE_FLOATS = {
    "spectrum": lambda path: path[0] == "summary",
    "chain-stats": lambda path: path[0] == "summary",
    "resistance": lambda path: path[0] == "rows",
    "sample-env": lambda path: path[:2] in (("summary", "ess"), ("summary", "mean_Gamma")),
}


def cli_outputs(tmp_path, args) -> dict:
    """Exit code and text of every file one CLI run writes next to ``out``."""
    code = run(args + ["--out", str(tmp_path / "out")])
    files = {p.name: p.read_text() for p in sorted(tmp_path.glob("out*"))}
    return {"code": code, "files": files}


def _parsed(text):
    if not text.startswith("# ladderlab csv"):
        return json.loads(text)
    lines = text.splitlines()
    return {"head": lines[:3], "rows": [[_cell(v) for v in line.split(",")] for line in lines[3:]]}


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def assert_close(got, want, loose, path=()):
    if isinstance(want, float) and isinstance(got, float) and loose(path):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), path
        return
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], loose, path + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for idx, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, loose, path + (idx,))
    else:
        assert got == want, path


def assert_matches_golden(key, subcommand, got):
    want = CLI_GOLDEN[key]
    assert got["code"] == want["code"]
    assert sorted(got["files"]) == sorted(want["files"])
    for name, text in want["files"].items():
        if subcommand in LOOSE_FLOATS:
            assert_close(_parsed(got["files"][name]), _parsed(text), LOOSE_FLOATS[subcommand])
        else:
            assert got["files"][name] == text, name


GOLDEN_CASES = STRICT_CASES + [args + ["--format", "csv"] for args in CSV_CASES]


@pytest.mark.parametrize("args", GOLDEN_CASES, ids=" ".join)
def test_cli_golden(tmp_path, args):
    assert_matches_golden(" ".join(args), args[0], cli_outputs(tmp_path, args))


def test_cli_golden_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG_CASE))
    got = cli_outputs(tmp_path, ["simulate", "--config", str(cfg)] + CONFIG_OVERRIDE)
    assert_matches_golden("config-file", "simulate", got)
