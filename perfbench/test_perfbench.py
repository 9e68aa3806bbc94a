"""Tests of the benchmark itself: declared metrics, checks, strict output."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_declared_tables_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in DECLARED["workloads"]] == [
        workloads.WORKLOADS[name].why for name in run.WORKLOAD_NAMES]
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS]
    moves = set(END_TO_END) | {"error_rate", "ess_per_s"}
    for m in layers.METRICS:
        assert set(m.moves) <= moves and set(m.on) <= set(run.WORKLOAD_NAMES), m


def test_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    inner = tracer.wrap("walk.inner", lambda: leaf() + traced_leaf() + hot_leaf() + hot_leaf())
    traced_leaf = tracer.wrap("walk.leaf", leaf)
    hot_leaf = tracer.wrap_leaf("environment.leaf", leaf)
    with tracer.span("bench.pass"):
        inner()
        traced_leaf()
    self_s = spans.self_times(tracer.spans)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.spans[1].leaves["environment.leaf"][0] == 2
    assert all(t >= 0 for t in self_s)
    leaf_s = tracer.spans[1].leaves["environment.leaf"][1]
    assert sum(self_s) + leaf_s == pytest.approx(tracer.spans[0].duration, abs=1e-12)


def test_leaf_time_counts_toward_its_layer():
    tracer = spans.Tracer()
    energy = tracer.wrap_leaf("environment.middle_energy", lambda: sum(range(20000)))
    chain = tracer.wrap("mcmc.chain", lambda: [energy() for _ in range(5)])
    with tracer.span("bench.pass"):
        chain()
    s = tracer.spans
    metrics = layers.layer_metrics(s, spans.self_times(s), 1, [s[0].duration], [], 0.0, 0.0)
    leaf_calls, leaf_s = s[1].leaves["environment.middle_energy"]
    assert leaf_calls == 5
    assert metrics["environment.busy_s"] == pytest.approx(leaf_s)
    assert metrics["mcmc.busy_s"] == pytest.approx(s[1].duration - leaf_s)
    assert metrics["environment.energy_evals_per_s"] == pytest.approx(5 / leaf_s)


def test_calibrated_overhead_is_small_and_nonnegative():
    per_span, per_leaf = spans.calibrate(calls=2000, repeats=3)
    assert 0 <= per_span < 1e-3 and 0 <= per_leaf < 1e-3


def test_patched_restores_the_entry_points():
    tracer = spans.Tracer()
    original = workloads.walk.escape_frequency
    with spans.patched(layers.traced_targets(tracer)):
        assert workloads.walk.escape_frequency is not original
    assert workloads.walk.escape_frequency is original


def _fake(run_pass):
    return workloads.Workload("fake", "test", lambda seed: {"seed": seed},
                              lambda state, k: {}, run_pass)


@pytest.fixture
def fake_workload(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 0)

    def install(run_pass):
        monkeypatch.setitem(workloads.WORKLOADS, "fake", _fake(run_pass))
    return install


@pytest.mark.parametrize("trace", [False, True])
def test_forced_failing_check_raises_error_rate(fake_workload, trace):
    def run_pass(state, inp, check):
        check("holds", True)
        check("forced to fail", False, "on purpose")
        return {}

    fake_workload(run_pass)
    out = run.run_workload("fake", 1, 0.0, trace)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= 2
    assert out["record"]["error_rate"] > 0
    if trace:
        assert result["metrics"]["error_rate"]["value"] > 0
    assert any("forced to fail" in f for f in out["record"]["failures"])


def test_raising_pass_is_a_failed_check(fake_workload):
    def run_pass(state, inp, check):
        raise ValueError("boom")

    fake_workload(run_pass)
    result = run.run_workload("fake", 1, 0.0, False)["result"]
    assert not result["correct"] and result["failed"] == 1 and result["metrics"] == {}


def test_pass_outside_the_layers_fails_the_coverage_check(fake_workload):
    def run_pass(state, inp, check):
        sum(range(200_000))  # benchmark-side work only, no layer call
        check("holds", True)
        return {}

    fake_workload(run_pass)
    out = run.run_workload("fake", 1, 0.0, True)
    assert out["result"]["failed"] == 1
    assert any("cover at least" in f for f in out["record"]["failures"])


def test_idle_layers_report_every_metric_finite(fake_workload):
    fake_workload(lambda state, inp, check: check("holds", True) or {})
    metrics = run.run_workload("fake", 1, 0.0, True)["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == PER_LAYER
    assert all(math.isfinite(m["value"]) for m in metrics.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_real_run_emits_declared_metrics_as_strict_json(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_returns", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = strict_json(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = strict_json((ROOT / ".perfbench_out" / f"walk_returns-seed3-trace{trace}.json").read_text())
    assert record["machine"]["thread_caps"]["workers"] == 1
    assert bool(record["spans"]) == bool(trace)


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampler", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
