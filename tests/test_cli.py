import csv
import json
import logging
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcmobo.cli import build_parser, main
from hpcmobo.core import load_config_file, run_config_from_sections
from hpcmobo.ingest import read_table
from hpcmobo.pipeline import METHODS
from hpcmobo.surrogate import MAX_DESIGN_NODES, train_objective_surrogate


def _synth(tmp_path, jobs=200, seed=3):
    rc = main([
        "synthgen", "--jobs", str(jobs), "--noise-features", "2", "--seed", str(seed),
        "--nodes-max", "32", "--out", str(tmp_path / "data.csv"),
        "--truth", str(tmp_path / "truth.json"),
        "--emit-config", str(tmp_path / "config.ini"),
    ])
    assert rc == 0
    # tighten budgets for test speed
    text = (tmp_path / "config.ini").read_text()
    text = text.replace("mobo_iterations = 40", "mobo_iterations = 5")
    text = text.replace("n_estimators = 40", "n_estimators = 10")
    (tmp_path / "config.ini").write_text(text)
    return tmp_path / "config.ini"


def test_synthgen_writes_dataset_truth_and_config(tmp_path):
    _synth(tmp_path)
    assert (tmp_path / "data.csv").exists()
    assert (tmp_path / "truth.json").exists()
    assert (tmp_path / "config.ini").exists()
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(truth["jobs"]) == 200


def test_full_run_and_exit_code(tmp_path):
    cfg = _synth(tmp_path)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "reports" / "comparison_aggregate.csv").exists()


def test_sample_subcommand_writes_plan(tmp_path):
    cfg = _synth(tmp_path)
    rc = main(["preprocess", "--config", str(cfg)])
    assert rc == 0
    rc = main([
        "sample", "--config", str(cfg), "--tau", "0.5", "--run-p-min", "0.01",
        "--seed", "7", "--in", str(tmp_path / "out" / "preprocessed.csv"),
        "--out", str(tmp_path / "out" / "half.csv"),
        "--plan", str(tmp_path / "out" / "plan_half.json"),
    ])
    assert rc == 0
    plan = json.loads((tmp_path / "out" / "plan_half.json").read_text())
    assert {"lambda", "expected_rate", "saturated_fraction", "mask"} <= set(plan)
    assert plan["rate_converged"]
    assert abs(plan["expected_rate"] - 0.5) <= 1e-12 * 0.5


def test_embed_and_train_subcommands(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["preprocess", "--config", str(cfg)]) == 0
    rc = main([
        "embed", "--config", str(cfg), "--in", str(tmp_path / "out" / "preprocessed.csv"),
        "--target", "runtime_seconds",
        "--out", str(tmp_path / "out" / "mask.json"),
    ])
    assert rc == 0
    mask = json.loads((tmp_path / "out" / "mask.json").read_text())
    assert mask["d"] == len(mask["theta"])
    rc = main(["train", "--config", str(cfg),
               "--in", str(tmp_path / "out" / "preprocessed.csv")])
    assert rc == 0
    assert (tmp_path / "out" / "runtime_model.json").exists()
    assert (tmp_path / "out" / "power_model.json").exists()


def test_stage_subcommands_write_the_bytes_run_writes(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out, alone = tmp_path / "out", tmp_path / "alone"
    flags = ["--config", str(cfg), "--out-dir", str(alone)]
    assert main(["preprocess", *flags]) == 0
    assert main(["sample", *flags, "--in", str(out / "preprocessed.csv"),
                 "--out", str(alone / "subset.csv"), "--plan", str(alone / "plan.json")]) == 0
    assert main(["train", *flags, "--in", str(out / "subset.csv")]) == 0
    for name in ("preprocessed.csv", "recipe.json", "subset.csv", "plan.json",
                 "runtime_model.json", "power_model.json", "surrogate_metrics.json"):
        assert (alone / name).read_bytes() == (out / name).read_bytes(), name


def test_embed_with_default_settings_fits_the_mask_train_fits(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["preprocess", "--config", str(cfg)]) == 0
    table_path = tmp_path / "out" / "preprocessed.csv"
    rc = main(["embed", "--config", str(cfg), "--in", str(table_path),
               "--target", "runtime_seconds", "--out", str(tmp_path / "mask.json")])
    assert rc == 0
    saved = np.asarray(json.loads((tmp_path / "mask.json").read_text())["theta"])
    seed = run_config_from_sections(load_config_file(cfg)).seed
    model = train_objective_surrogate(read_table(table_path), "runtime_seconds", seed=seed)
    assert np.array_equal(saved, model.mask.theta)


def _set_pipeline_line(cfg, line):
    """Append `line` to the [pipeline] section of a synthgen config; it wins
    over an earlier line setting the same key."""
    cfg.write_text(cfg.read_text().replace("max_depth = 8\n", f"max_depth = 8\n{line}\n"))


# a typo, then each key the pipeline no longer reads
@pytest.mark.parametrize("line", [
    "n_estimator = 5", "surrogate_mode = boosted", "learning_rate = 0.1", "mask_lr = 0.05",
    "validation_fraction = 0.2", "sat_cap = 0.1", "spread_method = deb",
    "log_runtime_gp = false",
])
def test_unknown_pipeline_key_is_config_error(tmp_path, capsys, line):
    cfg = _synth(tmp_path)
    _set_pipeline_line(cfg, line)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert f"unknown [pipeline] key '{key}'" in err and "n_estimators" in err


@pytest.mark.parametrize("line", [
    "n_estimators = ten", "use_embedding = maybe", "max_depth = 2.5",
    "n_estimators = 0", "max_depth = -1", "n_job_contexts = 0", "h1_seeds = 0",
    "mask_epochs = -1",
])
def test_bad_pipeline_value_is_config_error_naming_the_key(tmp_path, capsys, line):
    cfg = _synth(tmp_path)
    _set_pipeline_line(cfg, line)
    assert main(["run", "--config", str(cfg)]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_optimize_subcommand_from_artifacts(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rc = main([
        "optimize", "--config", str(cfg), "--method", "mobo", "--mobo-iterations", "4",
        "--seed", "2", "--surrogates", str(out),
        "--job-context", str(out / "context_0.csv"),
        "--out", str(out / "opt_report.json"),
    ])
    assert rc == 0
    payload = json.loads((out / "opt_report.json").read_text())
    assert payload["method"] == "MOBO"
    assert payload["config"]["mobo_iterations"] == 4
    assert payload["config"]["seed"] == 2
    assert "wall_clock_seconds" in payload
    assert len(payload["history"]) == 4
    assert payload["hv"] > 0


def test_optimize_reproduces_the_run_report(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rc = main([
        "optimize", "--config", str(cfg), "--method", "mobo",
        "--surrogates", str(out), "--job-context", str(out / "context_0.csv"),
        "--out", str(out / "opt_report.json"),
    ])
    assert rc == 0
    optimized = json.loads((out / "opt_report.json").read_text())
    pipelined = json.loads((out / "reports" / "mobo_ctx0.json").read_text())
    assert optimized["observations"] == pipelined["observations"]


def test_optimize_method_choices_follow_the_registry(tmp_path):
    subcommands = build_parser()._subparsers._group_actions[0].choices
    method = next(a for a in subcommands["optimize"]._actions if a.dest == "method")
    assert method.choices == [stem.replace("_", "-") for stem in METHODS]
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for choice in method.choices:
        rc = main([
            "optimize", "--config", str(cfg), "--method", choice, "--mobo-iterations", "2",
            "--surrogates", str(out), "--job-context", str(out / "context_0.csv"),
            "--out", str(out / f"{choice}.json"),
        ])
        assert rc == 0
        payload = json.loads((out / f"{choice}.json").read_text())
        assert payload["method"] == METHODS[choice.replace("-", "_")].label


def test_run_logs_a_wall_clock_covering_every_stage(tmp_path, caplog):
    cfg = _synth(tmp_path)
    caplog.set_level(logging.INFO, logger="hpcmobo")
    assert main(["run", "--config", str(cfg)]) == 0
    [record] = [r for r in caplog.records if r.msg.startswith("pipeline complete in")]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    stages = sum(stage["seconds"] for stage in manifest["stages"])
    assert record.args[0] >= stages > manifest["timing_table"]["TOTAL"]


def test_report_h1_subcommand(tmp_path):
    cfg = _synth(tmp_path, jobs=120)
    text = (tmp_path / "config.ini").read_text()
    text = text.replace("n_estimators = 10", "n_estimators = 6\nh1_seeds = 1\nmask_epochs = 40")
    text = text.replace("mobo_iterations = 5", "mobo_iterations = 2")
    (tmp_path / "config.ini").write_text(text)
    assert main(["preprocess", "--config", str(cfg)]) == 0
    rc = main(["report", "--config", str(cfg), "--h1",
               "--in", str(tmp_path / "out" / "preprocessed.csv")])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "reports" / "h1_report.json").read_text())
    assert set(payload["median_validation"]) == {"raw", "embedded"}
    assert (tmp_path / "out" / "reports" / "h1_blocks.csv").exists()


def test_report_subcommand_checks_method_files(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    (tmp_path / "out" / "reports" / "mobo_ctx0.json").unlink()
    assert main(["report", "--config", str(cfg)]) == 1


def test_run_config_cli_overrides(tmp_path):
    cfg = _synth(tmp_path)
    rc = main(["run", "--config", str(cfg), "--mobo-iterations", "3",
               "--random-seeds", "2",
               "--sampling-fraction", "0.9", "--seed", "11"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    run_cfg = manifest["run_config"]
    assert run_cfg["mobo_iterations"] == 3
    assert run_cfg["random_seeds"] == 2
    assert run_cfg["sampling_fraction"] == 0.9
    assert run_cfg["seed"] == 11


def test_config_error_exit_code(tmp_path):
    cfg = _synth(tmp_path)
    text = (tmp_path / "config.ini").read_text().replace(
        "sampling_fraction = 0.75", "sampling_fraction = 0")
    (tmp_path / "config.ini").write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2


def test_data_error_exit_code(tmp_path):
    cfg = _synth(tmp_path)
    (tmp_path / "data.csv").unlink()
    assert main(["run", "--config", str(cfg)]) == 3


def test_run_whose_sample_is_too_small_to_train_is_a_data_error(tmp_path, capsys):
    # at tau = 0.01 a 20-job log samples fewer than 2 rows; the mask then
    # trained on no rows and ended in a ZeroDivisionError
    assert main(["synthgen", "--jobs", "20", "--noise-features", "2", "--seed", "0",
                 "--out", str(tmp_path / "data.csv"), "--truth", str(tmp_path / "truth.json"),
                 "--emit-config", str(tmp_path / "config.ini")]) == 0
    for seed in range(1, 6):
        assert main(["run", "--config", str(tmp_path / "config.ini"), "--tau", "0.01",
                     "--seed", str(seed)]) == 3, seed
        assert "surrogate training needs at least 2 rows" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["1e308", "0.5", "0", "-1", "1e-320"])
def test_run_on_node_counts_outside_the_design_domain_is_a_data_error(tmp_path, capsys, cell):
    # 1e308 ended in a traceback when the candidate set was built; the
    # others were a config error that printed every node count
    cfg = _synth(tmp_path)
    with (tmp_path / "data.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("num_nodes_alloc")
    for row in rows[1::10]:  # every tenth job, so some land in the training rows
        row[col] = cell
    with (tmp_path / "data.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["run", "--config", str(cfg)]) == 3
    assert ("design column 'num_nodes_alloc' of the training rows: design bounds"
            in capsys.readouterr().err)


def test_optimize_with_a_model_that_predicts_a_nonpositive_objective_is_a_data_error(
        tmp_path, capsys):
    # the runtime GP modelled such runtimes as plain values, and power ran as
    # it was, each with exit 0
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for objective in ("runtime", "power"):
        model = out / f"{objective}_model.json"
        good = model.read_text()
        zeroed = json.loads(good)
        for tree in zeroed["ensemble"]["trees"]:
            tree["value"] = [0.0] * len(tree["value"])
        model.write_text(json.dumps(zeroed))
        assert main(["optimize", "--config", str(cfg), "--method", "mobo",
                     "--surrogates", str(out), "--job-context", str(out / "context_0.csv"),
                     "--out", str(out / "opt_report.json")]) == 3
        assert (f"the {objective} surrogate predicts 0.0 at node count 1, but objectives "
                "must be positive") in capsys.readouterr().err
        model.write_text(good)


def test_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_optimize_with_a_broken_model_file_is_a_data_error(tmp_path, capsys):
    cfg = _synth(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    model = out / "runtime_model.json"
    flags = ["optimize", "--config", str(cfg), "--method", "random",
             "--surrogates", str(out), "--job-context", str(out / "context_0.csv"),
             "--out", str(out / "opt_report.json")]
    good = model.read_text()
    for field in ("scaler_mean", "scaler_std", "theta", "readout_w"):
        short = json.loads(good)
        (short if field in short else short["mask"])[field].pop()  # one entry short
        model.write_text(json.dumps(short))
        assert main(flags) == 3
        err = capsys.readouterr().err
        assert "runtime_model.json names" in err and f"{field} has shape" in err
    # each ran with exit 0, or 4 where a prediction came out NaN
    for field, keys, value, fault in (
            ("scaler_std", ("scaler_std", 0), math.inf, "finite"),
            ("scaler_std", ("scaler_std", 0), 0.0, "positive"),
            ("scaler_mean", ("scaler_mean", 0), math.inf, "finite"),
            ("theta", ("mask", "theta", 0), math.inf, "finite"),
            ("readout_w", ("mask", "readout_w", 0), math.nan, "finite"),
            ("readout_b", ("mask", "readout_b"), math.nan, "finite"),
            ("base_value", ("ensemble", "base_value"), -math.inf, "finite"),
            ("tree 0 threshold", ("ensemble", "trees", 0, "threshold", 0), math.inf, "finite"),
            ("tree 0 value", ("ensemble", "trees", 0, "value", 0), math.nan, "finite")):
        damaged = json.loads(good)
        owner = damaged
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = value
        model.write_text(json.dumps(damaged))
        assert main(flags) == 3, (field, value)
        assert (f"runtime_model.json: {field} holds a value that is not {fault}"
                in capsys.readouterr().err), (field, value)
    # finite leaves 1e300 apart: it ran with exit 0, reporting runtimes near
    # 1e301 and a hypervolume of 3e303
    damaged = json.loads(good)
    for tree in damaged["ensemble"]["trees"]:
        tree["value"] = [1e300 * i for i in range(len(tree["value"]))]
    model.write_text(json.dumps(damaged))
    assert main(flags) == 3
    assert ("column 'predicted runtime' has no finite standard deviation"
            in capsys.readouterr().err)
    d = len(json.loads(good)["feature_names"])
    n = len(json.loads(good)["ensemble"]["trees"][0]["feature"])
    for field, at, value in (("left", 0, 0),  # a cycle, which hung
                             ("left", 0, n),  # a child past the tree: IndexError
                             ("right", 0, 10**6),
                             ("feature", 0, d),  # a feature past the names: IndexError
                             ("value", slice(-1, None), [])):  # one short: it ran
        damaged = json.loads(good)
        tree = damaged["ensemble"]["trees"][0]
        assert tree["feature"][0] >= 0  # the root splits
        tree[field][at] = value
        model.write_text(json.dumps(damaged))
        assert main(flags) == 3
        assert "runtime_model.json" in capsys.readouterr().err
    # [1], [1, 5, 9] and ["a", "b"] raised a traceback, [40, 2] was a config
    # error, and [1.5, 9.5] failed on node count 1 without naming the file
    # [1, 10**9] passed and then allocated one candidate row per node count
    for bounds in ([1], [1, 5, 9], ["a", "b"], [40, 2], [1.5, 9.5], [0, 5], [True, 5],
                   [1, MAX_DESIGN_NODES + 1], [1, 10**9]):
        damaged = json.loads(good)
        damaged["design_bounds"] = bounds
        model.write_text(json.dumps(damaged))
        assert main(flags) == 3, bounds
        err = capsys.readouterr().err
        assert "runtime_model.json: design bounds" in err, bounds
    damaged = json.loads(good)
    damaged["design_feature"] = "no_such_column"
    model.write_text(json.dumps(damaged))
    assert main(flags) == 3
    assert "runtime_model.json: design feature 'no_such_column'" in capsys.readouterr().err
    model.write_text(good[:1000])
    assert main(flags) == 3
    assert "runtime_model.json" in capsys.readouterr().err
    model.write_text('{"target": "x"}')
    assert main(flags) == 3
    assert "runtime_model.json" in capsys.readouterr().err
    model.unlink()
    assert main(flags) == 3
    assert "runtime_model.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The config and output directory of one `run` on the test config."""
    cfg = _synth(tmp_path_factory.mktemp("run"))
    assert main(["run", "--config", str(cfg)]) == 0
    return cfg, cfg.parent / "out"


def _swap_first_two(header, row):
    header[:2], row[:2] = header[1::-1], row[1::-1]


def _repeat_row(header, row):
    row[-1] += "\n" + ",".join(row)


@pytest.mark.parametrize("edit, message", [
    # the same columns in another order, names and values together
    (_swap_first_two, "job context column 0 is"),
    (lambda header, row: row.pop(), "context.csv has"),
    (lambda header, row: row.__setitem__(0, "x"), "context.csv: could not convert"),
    (lambda header, row: row.__setitem__(0, "nan"), "context.csv holds a non-finite value"),
    (_repeat_row, "context.csv needs a header and one row, has 3 lines"),
], ids=["reordered", "value_missing", "not_a_number", "not_finite", "second_row"])
def test_optimize_with_a_bad_job_context_is_a_data_error(run_dir, tmp_path, capsys, edit,
                                                         message):
    cfg, out = run_dir
    header, row = ((out / "context_0.csv").read_text().splitlines()[i].split(",")
                   for i in (0, 1))
    edit(header, row)
    context = tmp_path / "context.csv"
    context.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    assert main(["optimize", "--config", str(cfg), "--method", "sobo-runtime",
                 "--surrogates", str(out), "--job-context", str(context),
                 "--out", str(tmp_path / "report.json")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", ["runtime_model.json", "power_model.json", "both"])
def test_optimize_with_surrogates_of_two_design_features_is_a_data_error(run_dir, tmp_path,
                                                                        capsys, name):
    # a runtime model tuning "queue" ran and wrote the node count over the
    # context's queue column, while num_nodes_alloc kept the context's value;
    # two models tuning "queue" passed every check and did the same
    cfg, out = run_dir
    for model in ("runtime_model.json", "power_model.json"):
        payload = json.loads((out / model).read_text())
        if name in (model, "both"):
            assert "queue" in payload["feature_names"]
            payload["design_feature"] = "queue"
        (tmp_path / model).write_text(json.dumps(payload))
    assert main(["optimize", "--config", str(cfg), "--method", "random",
                 "--surrogates", str(tmp_path), "--job-context", str(out / "context_0.csv"),
                 "--out", str(tmp_path / "report.json")]) == 3
    err = capsys.readouterr().err
    assert "design feature is" in err
    assert "runtime_model.json and " in err and "power_model.json must both tune" in err
    assert "design variable 'num_nodes_alloc'" in err
    assert not (tmp_path / "report.json").exists()


def _edit_rows(data, column, value, rows=slice(1, None, 2)):
    """Set `column` to `value` in the data rows `rows` selects (by default
    every other one)."""
    with data.open(newline="") as fh:
        table = list(csv.reader(fh))
    col = table[0].index(column)
    for row in table[rows]:
        row[col] = value
    with data.open("w", newline="") as fh:
        csv.writer(fh).writerows(table)


# each trained and optimized with exit 0, the runtime GP quietly modelling
# plain values instead of logs
@pytest.mark.parametrize("column, value", [
    ("runtime_seconds", "0"), ("runtime_seconds", "-1"), ("node_power", "-5;-7"),
])
def test_run_on_a_nonpositive_target_is_a_data_error(tmp_path, capsys, column, value):
    cfg = _synth(tmp_path)
    _edit_rows(tmp_path / "data.csv", column, value)
    assert main(["run", "--config", str(cfg)]) == 3
    assert f"regression target {column!r} must be positive" in capsys.readouterr().err


# each wrote Infinity, which is not JSON, into a model file's scaler_std or
# into surrogate_metrics.json: a 1e308 overflows its column's standard
# deviation, and relative errors overflow dividing by a subnormal runtime
@pytest.mark.parametrize("column, value, rows, message", [
    ("base", "1e308", slice(1, 2), "column 'base' has no finite standard deviation"),
    ("runtime_seconds", "1e308", slice(1, 2),
     "column 'runtime_seconds' has no finite standard deviation"),
    ("runtime_seconds", "1e-320", slice(1, None, 2),
     "regression target 'runtime_seconds' must be at least the smallest normal float"),
], ids=["huge_feature", "huge_target", "subnormal_target"])
def test_run_on_an_overflowing_or_subnormal_column_is_a_data_error(tmp_path, capsys, column,
                                                                   value, rows, message):
    cfg = _synth(tmp_path, jobs=300, seed=1)
    _edit_rows(tmp_path / "data.csv", column, value, rows)
    assert main(["run", "--config", str(cfg), "--log-level", "ERROR"]) == 3
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """The config of a 300-job synthgen log, cut to 4 trees and 6
    iterations."""
    cfg = _synth(tmp_path_factory.mktemp("small_log"), jobs=300)
    text = cfg.read_text().replace("mobo_iterations = 5", "mobo_iterations = 6")
    cfg.write_text(text.replace("n_estimators = 10", "n_estimators = 4"))
    return cfg


_DAMAGE = ["", "NA", "nan", "None", "inf", "-inf", "nan;nan", "1e308", "0", "-1", "0.5",
           ";", "garbage", "1;x", "2024-01-01T00:00:00Z"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_run_on_a_damaged_log_exits_with_a_pipeline_code(small_log, tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("damaged")
    for name in (small_log.name, "truth.json"):
        shutil.copy(small_log.parent / name, directory / name)
    with (small_log.parent / "data.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    for _ in range(data.draw(st.integers(1, 3), label="cells")):
        row = data.draw(st.integers(1, len(rows) - 1), label="row")
        col = data.draw(st.sampled_from(rows[0]), label="column")
        rows[row][rows[0].index(col)] = data.draw(st.sampled_from(_DAMAGE), label="value")
    with (directory / "data.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = main(["run", "--config", str(directory / small_log.name), "--log-level", "ERROR"])
    assert code in (0, 2, 3, 4)
    if code == 0:
        # what CI's JSON step checks: RFC 8259 JSON, so no NaN or Infinity
        for path in (directory / "out").rglob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


# values a damaged model field may hold: wrong types, empty and huge ones,
# and the non-finite floats Python's json reads
_FIELD_DAMAGE = [None, True, 0, -1, 1, 2 ** 70, 0.5, -1e308, 1e308, 5e-324,
                 float("nan"), float("inf"), "", "x", "bagged", [], [0], {}]


@pytest.mark.parametrize("name", ["runtime_model.json", "power_model.json"])
def test_optimize_with_a_subnormal_scaler_std_is_a_data_error(run_dir, tmp_path, capsys,
                                                             name):
    # found by the damaged-field property below: predicting raised numpy's
    # overflow RuntimeWarning, dividing a context feature by 5e-324
    cfg, out = run_dir
    for model in ("runtime_model.json", "power_model.json"):
        payload = json.loads((out / model).read_text())
        if model == name:
            payload["scaler_std"] = [5e-324] * len(payload["scaler_std"])
        (tmp_path / model).write_text(json.dumps(payload))
    assert main(["optimize", "--config", str(cfg), "--method", "mobo",
                 "--surrogates", str(tmp_path), "--job-context", str(out / "context_0.csv"),
                 "--out", str(tmp_path / "report.json")]) == 3
    assert re.search(r"surrogate '\w+' scales feature '\w+' of row \d+ from .* to -?inf, "
                     "which is not finite", capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()


def _damage_one_field(payload, data):
    """Replace one value of the JSON tree `payload`: from the root, step to
    a drawn key or index until a leaf, or stop early at a container with
    probability 1/4."""
    parent, key = None, None
    node = payload
    while isinstance(node, (dict, list)) and node:
        if parent is not None and data.draw(st.integers(0, 3), label="stop") == 0:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys), label="key")
        node = parent[key]
    value = data.draw(st.sampled_from(_FIELD_DAMAGE), label="value")
    if parent is None:
        return value
    parent[key] = value
    return payload


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_optimize_with_a_damaged_model_field_exits_with_a_pipeline_code(run_dir,
                                                                        tmp_path_factory,
                                                                        data):
    cfg, out = run_dir
    directory = tmp_path_factory.mktemp("damaged_model")
    damaged = data.draw(st.sampled_from(["runtime_model.json", "power_model.json"]),
                        label="model")
    for name in ("runtime_model.json", "power_model.json"):
        payload = json.loads((out / name).read_text())
        if name == damaged:
            payload = _damage_one_field(payload, data)
        (directory / name).write_text(json.dumps(payload))
    method = data.draw(st.sampled_from([stem.replace("_", "-") for stem in METHODS]),
                       label="method")
    report = directory / "report.json"
    code = main(["optimize", "--config", str(cfg), "--method", method,
                 "--surrogates", str(directory), "--job-context", str(out / "context_0.csv"),
                 "--out", str(report), "--log-level", "ERROR"])
    assert code in (0, 2, 3, 4)
    if code == 0:
        json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def test_a_nan_power_sample_is_imputed_like_a_missing_cell(tmp_path):
    cfg = _synth(tmp_path)
    data = tmp_path / "data.csv"
    with data.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("node_power")
    rows[6][col] = "nan;" + rows[6][col]  # data row 5
    with data.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    power = read_table(out / "preprocessed.csv").column("node_power")
    recipe = json.loads((out / "recipe.json").read_text())
    assert power[5] == recipe["numeric_medians"]["node_power"]
