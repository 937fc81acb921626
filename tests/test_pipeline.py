import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hpcmobo.core import RunConfig, load_config_file
from hpcmobo.ingest import preprocess_fit, write_table
from hpcmobo.pipeline import (
    PipelineSettings,
    manifest_comparable,
    parse_schema_sections,
    parse_settings,
    report_h1,
    run_pipeline,
    timing_table,
    train_single_surrogate,
    write_timing_csv,
)
from hpcmobo.sampler import sample_table
from hpcmobo.synthgen import (
    DURATION_PAIRS,
    SyntheticSpec,
    generate,
    save_truth,
    table_schema,
)

TIMING_ROW_SET = ["Preprocessing", "Runtime Model", "Power Model", "Preproc. MOBO",
                  "MOBO", "SOBO Runtime", "SOBO Power"]


def _write_config(tmp_path, n_noise=2, extra_run=(), extra_pipe=()):
    spec = SyntheticSpec(n_jobs=220, n_noise_features=n_noise, noise_sigma=1.0, seed=5)
    table, truth = generate(spec)
    write_table(table, tmp_path / "data.csv")
    save_truth(truth, tmp_path / "truth.json")
    lines = [
        "[run]",
        "mobo_iterations = 6",
        "mc_samples = 32",
        "random_seeds = 3",
        "seed = 1",
        "sampling_fraction = 0.8",
        *extra_run,
        "",
        "[pipeline]",
        "input = data.csv",
        "truth = truth.json",
        "out_dir = out",
        "runtime_target = runtime_seconds",
        "power_target = node_power",
        "n_job_contexts = 1",
        "n_estimators = 12",
        "max_depth = 5",
        "mask_epochs = 120",
        "h1_seeds = 2",
        *extra_pipe,
        "",
        "[durations]",
    ]
    for start, end, name in DURATION_PAIRS:
        lines.append(f"{name} = {start},{end}")
    lines.append("")
    lines.append("[schema]")
    for s in table_schema(n_noise):
        lines.append(f"{s.name} = {s.kind}:{s.role}")
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg_path, truth


def test_schema_section_parsing():
    sections = {
        "schema": {"a": "numeric:feature", "b": "categorical:ignored"},
        "durations": {"wait": "s,e"},
    }
    specs, pairs = parse_schema_sections(sections)
    assert [s.name for s in specs] == ["a", "b"]
    assert specs[1].role == "ignored"
    assert pairs == [("s", "e", "wait")]


def test_timing_table_has_exact_row_set_and_total():
    seconds = {"preprocess": 1.0, "sample": 0.5, "runtime_model": 2.0,
               "power_model": 2.0, "preproc_mobo": 0.1, "mobo": 3.0,
               "sobo_runtime": 1.0, "sobo_power": 1.0, "random": 9.9, "report": 0.25}
    timings = timing_table([{"name": name, "seconds": s} for name, s in seconds.items()])
    assert list(timings) == TIMING_ROW_SET
    assert timings["Preprocessing"] == 1.5
    # random baseline and report time are manifest-only, never a table row
    assert sum(timings.values()) == pytest.approx(10.6)
    # a stage that did not run counts as zero seconds
    assert timing_table([])["MOBO"] == 0.0


def test_run_pipeline_writes_expected_artifacts(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    manifest = run_pipeline(cfg_path)
    out = tmp_path / "out"
    for name in ("preprocessed.csv", "subset.csv", "plan.json", "recipe.json",
                 "runtime_model.json", "power_model.json", "surrogate_metrics.json",
                 "context_0.csv", "timing_table.csv", "manifest.json"):
        assert (out / name).exists(), name
    for stem in ("mobo", "sobo_runtime", "sobo_power", "random"):
        assert (out / "reports" / f"{stem}_ctx0.json").exists()
    assert (out / "reports" / "comparison_ctx0.csv").exists()
    assert (out / "reports" / "pareto_ctx0.svg").exists()
    # manifest completeness: every artifact hashed
    for rel in manifest["artifacts"]:
        assert (out / rel).exists()
    # every written report file appears in the manifest
    listed = set(manifest["artifacts"])
    for path in out.rglob("*"):
        if path.is_file() and path.name != "manifest.json":
            assert str(path.relative_to(out)) in listed, path


def test_every_json_file_of_a_run_is_strict_json(tmp_path):
    # RFC 8259 has no NaN or Infinity; Random's history once held NaN
    # acquisitions, which strict parsers reject
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    cfg_path, _ = _write_config(tmp_path)
    run_pipeline(cfg_path)
    out = tmp_path / "out"
    paths = sorted(out.rglob("*.json"))
    assert out / "reports" / "random_ctx0.json" in paths
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    history = json.loads((out / "reports" / "random_ctx0.json").read_text())["history"]
    assert history and not any("acquisition" in entry for entry in history)
    mobo = json.loads((out / "reports" / "mobo_ctx0.json").read_text())["history"]
    assert all(math.isfinite(entry["acquisition"]) for entry in mobo)


def test_timing_csv_matches_table9_layout(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    run_pipeline(cfg_path)
    lines = (tmp_path / "out" / "timing_table.csv").read_text().strip().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == TIMING_ROW_SET + ["TOTAL"]
    seconds = [float(line.split(",")[1]) for line in lines[1:]]
    assert seconds[-1] == pytest.approx(sum(seconds[:-1]), rel=1e-4)


def test_timing_csv_total_is_the_sum_of_its_rows(tmp_path):
    # each row rounds down by 4e-7; the unrounded total would round up
    write_timing_csv(dict.fromkeys(TIMING_ROW_SET, 1.0000004), tmp_path / "timing_table.csv")
    lines = (tmp_path / "timing_table.csv").read_text().strip().splitlines()
    assert lines[1:] == [f"{name},1.000000" for name in TIMING_ROW_SET] + ["TOTAL,7.000000"]


def test_pipeline_rerun_is_deterministic(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    m1 = run_pipeline(cfg_path, out_dir_override=str(tmp_path / "o1"))
    m2 = run_pipeline(cfg_path, out_dir_override=str(tmp_path / "o2"))
    assert manifest_comparable(m1) == manifest_comparable(m2)
    for p in sorted((tmp_path / "o1").rglob("*")):
        if not p.is_file() or p.name in ("manifest.json", "timing_table.csv"):
            continue
        q = tmp_path / "o2" / p.relative_to(tmp_path / "o1")
        assert p.read_bytes() == q.read_bytes(), p.name


def test_out_dir_override_is_relative_to_cwd(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    cfg_path, _ = _write_config(inputs)
    monkeypatch.chdir(tmp_path)
    run_pipeline(cfg_path, out_dir_override="art/x")
    assert (tmp_path / "art" / "x" / "manifest.json").exists()
    assert not (inputs / "art").exists()
    # without an override, [pipeline] out_dir stays relative to the config file
    sections = load_config_file(cfg_path)
    assert parse_settings(sections, cfg_path.parent).out_dir == inputs / "out"


def test_sampled_run_trains_on_fewer_rows(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    half = run_pipeline(cfg_path, overrides={"sampling_fraction": 0.5},
                        out_dir_override=str(tmp_path / "half"))
    full = run_pipeline(cfg_path, overrides={"sampling_fraction": 1.0},
                        out_dir_override=str(tmp_path / "full"))
    assert half["subset_rows"] < full["subset_rows"]


def test_single_surrogate_reports_validation_metrics(tmp_path):
    spec = SyntheticSpec(n_jobs=150, n_noise_features=2, noise_sigma=1.0, seed=2)
    table, _ = generate(spec)
    processed, _ = preprocess_fit(table, DURATION_PAIRS)
    settings = PipelineSettings(
        input_path=Path("x"), out_dir=tmp_path, runtime_target="runtime_seconds",
        power_target="node_power", specs=[], n_estimators=10, max_depth=4,
        mask_epochs=60,
    )
    for target in ("runtime_seconds", "node_power"):
        model, metrics = train_single_surrogate(processed, settings, target, seed=0)
        assert model.target == target
        assert metrics["n_train"] + metrics["n_val"] == 150
        assert metrics["mse"] > 0
        assert metrics["mape"] > 0


def test_report_h1_direction_and_blocks(tmp_path):
    spec = SyntheticSpec(n_jobs=240, n_noise_features=6, noise_sigma=1.5, seed=4)
    table, truth = generate(spec)
    processed, _ = preprocess_fit(table, DURATION_PAIRS)
    settings = PipelineSettings(
        input_path=Path("x"), out_dir=tmp_path, runtime_target="runtime_seconds",
        power_target="node_power", specs=[], n_estimators=16, max_depth=5,
        mask_epochs=150, h1_seeds=2,
    )
    cfg = RunConfig(mobo_iterations=5, random_seeds=2, seed=0)
    result = report_h1(processed, settings, cfg, out_dir=tmp_path / "reports",
                       truth=truth, context_rows=[0], methods=("MOBO",))
    assert set(result["median_validation"]) == {"raw", "embedded"}
    assert (tmp_path / "reports" / "h1_report.json").exists()
    blocks = (tmp_path / "reports" / "h1_blocks.csv").read_text()
    assert "# block: raw features" in blocks
    assert "# block: embedded features" in blocks
    assert 0.0 <= result["downstream_median"]["embedded"]["MOBO"]["hv"] <= 1.0


def test_report_h1_all_method_columns(tmp_path):
    spec = SyntheticSpec(n_jobs=150, n_noise_features=1, noise_sigma=1.0, seed=6)
    table, truth = generate(spec)
    processed, _ = preprocess_fit(table, DURATION_PAIRS)
    settings = PipelineSettings(
        input_path=Path("x"), out_dir=tmp_path, runtime_target="runtime_seconds",
        power_target="node_power", specs=[], n_estimators=8, max_depth=4,
        mask_epochs=60, h1_seeds=1,
    )
    cfg = RunConfig(mobo_iterations=3, random_seeds=2, seed=0)
    result = report_h1(processed, settings, cfg, out_dir=tmp_path / "r",
                       truth=truth, context_rows=[0])
    header = (tmp_path / "r" / "h1_blocks.csv").read_text().splitlines()[2]
    assert header == "Metric,MOBO,SOBO (Runtime),SOBO (Power),Random"


def test_stage_input_fingerprint_guard(tmp_path):
    from hpcmobo.core import DataError
    from hpcmobo.pipeline import PipelineRun, parse_settings
    from hpcmobo.core import load_config_file, run_config_from_sections
    cfg_path, _ = _write_config(tmp_path)
    sections = load_config_file(cfg_path)
    cfg = run_config_from_sections(sections, None)
    settings = parse_settings(sections, tmp_path)
    run = PipelineRun(settings, cfg, sections)
    artifact = settings.out_dir / "a.txt"

    def produce():
        artifact.write_text("v1")
        return None, [artifact]

    run.stage("one", [], produce)
    artifact.write_text("tampered")
    with pytest.raises(DataError, match="fingerprint"):
        run.stage("two", [artifact], lambda: (None, []))


# sha256 of recipe.json, and of plan.json at two sampling fractions, from one
# fixed synthetic log; at tau = 0.8 more than SAT_CAP of the rows saturate, so
# that plan is the winsorized one
@pytest.mark.parametrize("tau, digest", [
    (None, "96e343c8d1406f8394c94ace7c6436df4b1526be378485e0a94c7e16bbeba166"),
    (0.5, "ba561db1a3d63ecf32d1984327b48d831fa16eaa54230dbb102b109bb8893e32"),
    (0.8, "7837207c5f63bb60c8f4c9e47dddaa4f20ce578b2358bc760a4f4f06490f18f9"),
], ids=["recipe", "plan", "plan_winsorized"])
def test_recipe_and_plan_json_match_the_golden_digest(tau, digest, tmp_path):
    table, _ = generate(SyntheticSpec(n_jobs=200, n_noise_features=3, seed=11))
    processed, recipe = preprocess_fit(table, DURATION_PAIRS)
    path = tmp_path / "out.json"
    if tau is None:
        recipe.save(path)
    else:
        _, plan = sample_table(processed, tau, 0.01, 3)
        assert plan.winsorized == (tau == 0.8)
        plan.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of each optimizer's report and front CSV from one `_write_config`
# run: they pin the GP search, the acquisitions and the report writers
# end to end
_REPORT_DIGESTS = {
    "mobo_ctx0.json": "9a81e2d07f394b63a2374d9a7af390d208af370459690a3bc58ac5be6449b676",
    "mobo_ctx0_front.csv": "4a5f9e03283266461f1757cb011714ebd0e28a70c78f095d5f24901f5795c695",
    "sobo_runtime_ctx0.json": "1a60c673ac2fa476ea4355ee50408338ee919f03651d2768c5eec480fb587d78",
    "sobo_runtime_ctx0_front.csv":
        "76abc14cc4ce30d575c264164eb2424105d374f41e6364325df085cca424198f",
    "sobo_power_ctx0.json": "6e09a54d6151744e94ca0fbcda3fd664f49a864a1e7e49c0cd721a277b1ba04f",
    "sobo_power_ctx0_front.csv":
        "e4314e4de60a67df5a720e369b04a244f6b1791075bb9b30724c580c8bba3308",
    "random_ctx0.json": "793ce4fc47f77ef7ded9802ecc3e049afa814c4ceaa758f7fe695d296820e019",
    "random_ctx0_front.csv": "1d3b75493f9b8c73d701008f781972e39f3212a6182f2c765581b64e95af08ea",
}


def test_optimizer_reports_and_fronts_match_the_golden_digests(tmp_path):
    cfg_path, _ = _write_config(tmp_path)
    run_pipeline(cfg_path)
    reports = tmp_path / "out" / "reports"
    digests = {name: hashlib.sha256((reports / name).read_bytes()).hexdigest()
               for name in _REPORT_DIGESTS}
    assert digests == _REPORT_DIGESTS
