"""Tests of the pipeline benchmark on seconds-long versions of its workloads."""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, smoke, write_inputs  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def pair(request, tmp_path_factory):
    """One untraced and one traced in-process run of a smoke workload."""
    work = tmp_path_factory.mktemp(request.param)
    config = write_inputs(smoke(WORKLOADS[request.param]), SEED, work / "inputs")
    plain = child.run_once(config, work / "plain", trace=False)
    traced = child.run_once(config, work / "traced", trace=True)
    return work, plain, traced


def test_traced_run_matches_untraced(pair):
    work, _, _ = pair
    assert gate.comparable_key(work / "plain") == gate.comparable_key(work / "traced")


def test_every_wrapper_is_restored(pair):
    from hpcmobo import gp, optimizer, pipeline, sampler, surrogate

    _, _, traced = pair
    assert traced["restored"]
    assert optimizer.fit_gp is gp.fit_gp
    assert pipeline.sample_table is sampler.sample_table
    assert sampler.fit_tree_ensemble is surrogate.fit_tree_ensemble
    for owner in (surrogate.SurrogateModel.predict, pipeline.PipelineRun.stage):
        assert not hasattr(owner, "__wrapped__")


def test_layer_self_times_sum_to_run_s(pair):
    _, _, traced = pair
    layers = traced["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(traced["run_s"], rel=0.01)
    assert layers["gp.fit_calls"] > 0 and layers["surrogate.predict_calls"] > 0


def test_gate_passes_and_trips_on_a_corrupted_report(pair, tmp_path):
    from hpcmobo.synthgen import load_truth

    work, _, _ = pair
    truth = load_truth(work / "inputs" / "truth.json")
    problems, scores = gate.check_and_score(work / "plain", truth)
    assert problems == []
    assert 0.0 <= scores["mobo_true_hv_frac"] <= 1.0

    copy = tmp_path / "copy"
    shutil.copytree(work / "plain", copy)
    report_path = copy / "reports" / "mobo_ctx0.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["front"][0]["runtime"] *= 1.5
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    problems, _ = gate.check_and_score(copy, truth)
    assert any("sha256" in p for p in problems)

    # with the manifest hash made to agree, the front checks still trip
    manifest_path = copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["artifacts"]["reports/mobo_ctx0.json"] = gate._sha256(report_path)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    problems, _ = gate.check_and_score(copy, truth)
    assert any("nondominated" in p for p in problems)
    assert any("re-predict" in p for p in problems)


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_emitted_with_its_unit(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPS", 1)
    name = "long-search"
    result = run.bench_workload(name, SEED, 0.0, trace, tmp_path,
                                workload=smoke(WORKLOADS[name]))
    assert result["correct"], result["info"]["problems"]
    assert result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
