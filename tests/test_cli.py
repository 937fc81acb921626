import csv
import json
import logging
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpcmobo.cli import build_parser, main
from hpcmobo.core import load_config_file, run_config_from_sections
from hpcmobo.ingest import read_table, write_table
from hpcmobo.pipeline import METHODS, parse_settings
from hpcmobo.surrogate import MAX_DESIGN_NODES, train_objective_surrogate
from hpcmobo.synthgen import SyntheticSpec, generate, save_truth


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


def test_synthgen_without_size_flags_writes_the_default_specs_log(tmp_path):
    assert main(["synthgen", "--out", str(tmp_path / "data.csv"),
                 "--truth", str(tmp_path / "truth.json")]) == 0
    table, truth = generate(SyntheticSpec())
    write_table(table, tmp_path / "spec.csv")
    save_truth(truth, tmp_path / "spec.json")
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()
    assert (tmp_path / "truth.json").read_bytes() == (tmp_path / "spec.json").read_bytes()


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
    assert main(["sample", "--config", str(cfg), "--in", str(out / "preprocessed.csv"),
                 "--out", str(alone / "subset.csv"), "--plan", str(alone / "plan.json")]) == 0
    assert main(["train", *flags, "--in", str(out / "subset.csv")]) == 0
    for name in ("preprocessed.csv", "recipe.json", "subset.csv", "plan.json",
                 "runtime_model.json", "power_model.json", "surrogate_metrics.json"):
        assert (alone / name).read_bytes() == (out / name).read_bytes(), name


_SHARED_FLAGS = ["--config", "--out-dir", "--seed", "--mobo-iterations", "--random-seeds",
                 "--sampling-fraction", "--run-p-min"]
# the shared flags each subcommand reads, and the arguments it requires
_READS = {
    "synthgen": ["--seed"],
    "preprocess": ["--config", "--out-dir"],
    "sample": ["--config", "--seed", "--sampling-fraction", "--run-p-min"],
    "embed": ["--config", "--seed"],
    "train": ["--config", "--out-dir", "--seed"],
    "optimize": ["--config", "--seed", "--mobo-iterations", "--random-seeds"],
    "report": ["--config", "--out-dir", "--seed", "--mobo-iterations", "--random-seeds"],
    "run": _SHARED_FLAGS,
}
_REQUIRED = {
    "synthgen": ["--out", "d.csv", "--truth", "t.json"],
    "sample": ["--in", "p.csv", "--out", "s.csv", "--plan", "p.json"],
    "embed": ["--in", "s.csv", "--target", "runtime_seconds", "--out", "m.json"],
    "train": ["--in", "s.csv"],
    "optimize": ["--method", "mobo", "--surrogates", "out", "--job-context", "c.csv",
                 "--out", "r.json"],
}
# 28 (subcommand, flag) pairs
_UNREAD = [(command, flag) for command, flags in _READS.items()
           for flag in _SHARED_FLAGS if flag not in flags]


@pytest.mark.parametrize("command, flag", _UNREAD)
def test_a_subcommand_rejects_a_shared_flag_it_does_not_read(command, flag, capsys,
                                                            tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a command that ran would write here
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED.get(command, []), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", _READS)
def test_help_lists_log_level_and_the_shared_flags_the_subcommand_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert listed & set(_SHARED_FLAGS) == set(_READS[command])
    assert ("--tau" in listed) == ("--sampling-fraction" in listed)
    assert "--log-level" in listed


def test_embed_with_default_settings_fits_the_mask_train_fits(tmp_path):
    cfg = _synth(tmp_path)
    assert main(["preprocess", "--config", str(cfg)]) == 0
    table_path = tmp_path / "out" / "preprocessed.csv"
    rc = main(["embed", "--config", str(cfg), "--in", str(table_path),
               "--target", "runtime_seconds", "--out", str(tmp_path / "mask.json")])
    assert rc == 0
    saved = np.asarray(json.loads((tmp_path / "mask.json").read_text())["theta"])
    sections = load_config_file(cfg)
    pipe = parse_settings(sections, cfg.parent)
    model = train_objective_surrogate(read_table(table_path), "runtime_seconds",
                                      pipe.n_estimators, pipe.max_depth, pipe.mask_epochs, True,
                                      run_config_from_sections(sections).seed)
    assert np.array_equal(saved, model.mask_theta)


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


# a column kind and a role that the pipeline no longer reads
@pytest.mark.parametrize("column, entry, removed", [
    ("queue", "string_numeric:feature", "kind 'string_numeric'"),
    ("runtime_seconds", "numeric:classification_target", "role 'classification_target'"),
])
def test_a_schema_entry_of_a_removed_kind_or_role_is_a_config_error(tmp_path, capsys, column,
                                                                    entry, removed):
    cfg = _synth(tmp_path)
    text, n = re.subn(rf"^{column} = .*$", f"{column} = {entry}", cfg.read_text(),
                      flags=re.MULTILINE)
    assert n == 1
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"unknown column {removed} for column '{column}'" in err
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


def test_report_h1_without_an_input_table_is_a_config_error(tmp_path, capsys):
    # it ended in a TypeError from Path(None), exit 1
    cfg = _synth(tmp_path)
    assert main(["report", "--config", str(cfg), "--h1"]) == 2
    assert "report --h1 needs --in" in capsys.readouterr().err


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


def _five_job_truth(path):
    main(["synthgen", "--jobs", "5", "--noise-features", "2", "--seed", "0",
          "--out", str(path.parent / "five.csv"), "--truth", str(path)])


@pytest.mark.parametrize("write, message", [
    # a truth file of another log: run trained every model, then ended in an IndexError
    (_five_job_truth, "describes 5 jobs, but the table has 200 rows"),
    # no jobs list: a KeyError
    (lambda path: path.write_text('{"spec": {}}'), "holds no `jobs` list"),
    (lambda path: path.write_text('{"jobs": ['), "is not readable JSON"),
    (lambda path: path.write_text(json.dumps({"jobs": [{"base": 1.0}] * 200})),
     "job 0 lacks serial_frac, per_node, idle"),
], ids=["other_log", "no_jobs", "truncated", "no_laws"])
def test_run_with_a_truth_file_of_another_table_is_a_data_error(tmp_path, capsys, write,
                                                                message):
    cfg = _synth(tmp_path)
    write(tmp_path / "truth.json")
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"truth file {tmp_path / 'truth.json'}" in err and message in err
    # checked right after preprocessing, before any model trains
    assert (tmp_path / "out" / "preprocessed.csv").exists()
    assert not (tmp_path / "out" / "runtime_model.json").exists()


def test_report_h1_on_a_subset_of_the_truth_files_log_is_a_data_error(run_dir, tmp_path,
                                                                     capsys):
    # each context was scored against the truth job of its row number in the
    # full log, a different job, and the command exited 0
    cfg, out = run_dir
    assert main(["report", "--config", str(cfg), "--h1", "--in", str(out / "subset.csv"),
                 "--out-dir", str(tmp_path)]) == 3
    assert "but the table has" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("command", [
    ["sample", "--out", "{tmp}/subset.csv", "--plan", "{tmp}/plan.json"],
    ["embed", "--target", "runtime_seconds", "--out", "{tmp}/mask.json"],
    ["train", "--out-dir", "{tmp}"],
    ["report", "--h1", "--out-dir", "{tmp}"],
], ids=["sample", "embed", "train", "report_h1"])
def test_a_stage_subcommand_given_the_raw_log_is_a_data_error(run_dir, tmp_path, capsys,
                                                              command):
    # each ended in a ValueError from float('batch'), exit 1
    cfg, _ = run_dir
    flags = [flag.format(tmp=tmp_path) for flag in command]
    assert main(flags + ["--config", str(cfg), "--in", str(cfg.parent / "data.csv")]) == 3
    assert ("column 'queue' is categorical, not numeric: preprocess the table first"
            in capsys.readouterr().err)


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


def test_run_on_a_log_of_one_node_count_is_a_data_error_before_any_model_trains(tmp_path,
                                                                               capsys):
    # both models trained, then the GP engines' config error (exit 2) told
    # the user to run the random baseline, which `run` cannot do alone
    assert main(["synthgen", "--jobs", "60", "--noise-features", "1", "--nodes-min", "8",
                 "--nodes-max", "8", "--out", str(tmp_path / "data.csv"),
                 "--truth", str(tmp_path / "truth.json"),
                 "--emit-config", str(tmp_path / "config.ini")]) == 0
    assert main(["run", "--config", str(tmp_path / "config.ini")]) == 3
    assert ("design column 'num_nodes_alloc' of the training rows: design bounds [8, 8] "
            "span one node count" in capsys.readouterr().err)
    assert not (tmp_path / "out" / "runtime_model.json").exists()


def test_run_whose_training_split_holds_one_node_count_writes_no_model(tmp_path, capsys):
    # one job of 30 at 16 nodes, the rest at 8: where that job was held out
    # for validation (seed 7), both models trained on 8 nodes alone and were
    # written, and then the GP engines' config error exited 2
    assert main(["synthgen", "--jobs", "30", "--noise-features", "1", "--nodes-min", "8",
                 "--nodes-max", "8", "--seed", "0", "--out", str(tmp_path / "data.csv"),
                 "--truth", str(tmp_path / "truth.json"),
                 "--emit-config", str(tmp_path / "config.ini")]) == 0
    with (tmp_path / "data.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1 + 4][rows[0].index("num_nodes_alloc")] = "16.0"
    with (tmp_path / "data.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    codes = []
    for seed in range(10):
        out = tmp_path / f"out{seed}"
        codes.append(main(["run", "--config", str(tmp_path / "config.ini"), "--tau", "1.0",
                           "--seed", str(seed), "--out-dir", str(out)]))
        assert codes[-1] in (0, 3), seed
        if codes[-1] == 3:
            assert not (out / "runtime_model.json").exists(), seed
            assert "design bounds [8, 8] span one node count" in capsys.readouterr().err
    assert 3 in codes


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
    short = json.loads(good)
    short["mask"]["theta"].pop()  # one entry short
    model.write_text(json.dumps(short))
    assert main(flags) == 3
    err = capsys.readouterr().err
    assert "runtime_model.json names" in err and "theta has shape" in err
    leaf = json.loads(good)["ensemble"]["trees"][0]["feature"].index(-1)
    # each ran with exit 0, or 4 where a prediction came out NaN; a NaN leaf
    # also raised a RuntimeWarning in the leaf-overflow check
    for field, keys, value, fault in (
            ("theta", ("mask", "theta", 0), math.inf, "finite"),
            ("base_value", ("ensemble", "base_value"), -math.inf, "finite"),
            ("tree 0 threshold", ("ensemble", "trees", 0, "threshold", 0), math.inf, "finite"),
            ("tree 0 value", ("ensemble", "trees", 0, "value", 0), math.nan, "finite"),
            ("tree 0 value", ("ensemble", "trees", 0, "value", leaf), math.nan, "finite")):
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
    # every leaf 1e308: a prediction's sum over the trees overflowed numpy's
    # add, a RuntimeWarning, or exit 4 without the warning filter
    damaged = json.loads(good)
    for tree in damaged["ensemble"]["trees"]:
        tree["value"] = [1e308] * len(tree["value"])
    model.write_text(json.dumps(damaged))
    assert main(flags) == 3
    assert ("runtime_model.json: the largest leaf magnitudes of its 10 trees sum past the "
            "largest float" in capsys.readouterr().err)
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


# each setting out of its range, as a command line, and the field its error
# names: {cfg} is the run_dir config, {bad} that config with `[run] seed =
# -1`, {run} the output of `run` on {cfg}, and {out} a directory no command
# may create
_BAD_SETTINGS = {
    "run [run] seed": ("seed", "run --config {bad} --out-dir {out}"),
    "run --seed": ("seed", "run --config {cfg} --out-dir {out} --seed -1"),
    "run --tau nan": ("sampling_fraction", "run --config {cfg} --out-dir {out} --tau nan"),
    "sample --seed": ("seed", "sample --config {cfg} --seed -1 --in {run}/preprocessed.csv "
                              "--out {out}/subset.csv --plan {out}/plan.json"),
    "train --seed": ("seed", "train --config {cfg} --seed -1 --out-dir {out} "
                             "--in {run}/subset.csv"),
    "embed --seed": ("seed", "embed --config {cfg} --seed -1 --in {run}/subset.csv "
                             "--target runtime_seconds --out {out}/mask.json"),
    **{f"optimize {method} --seed": (
        "seed", f"optimize --config {{cfg}} --seed -1 --method {method} --surrogates {{run}} "
                "--job-context {run}/context_0.csv --out {out}/report.json")
       for method in ("random", "mobo")},
    **{f"synthgen {flag} {value}": (
        field, f"synthgen {flag} {value} --out {{out}}/data.csv --truth {{out}}/truth.json "
               "--emit-config {out}/config.ini")
       for field, flag, value in [("seed", "--seed", "-3"),
                                  ("n_noise_features", "--noise-features", "-1"),
                                  ("noise_sigma", "--noise-sigma", "nan"),
                                  ("noise_sigma", "--noise-sigma", "inf")]},
}


@pytest.mark.parametrize("case", _BAD_SETTINGS)
def test_a_setting_out_of_its_range_exits_2_naming_it_before_writing_anything(
        run_dir, tmp_path, capsys, case):
    cfg, run_out = run_dir
    bad = cfg.parent / "negative_seed.ini"
    bad.write_text(cfg.read_text().replace("\nseed = 3\n", "\nseed = -1\n"))
    field, command = _BAD_SETTINGS[case]
    out = tmp_path / "out"
    argv = [token.format(cfg=cfg, bad=bad, run=run_out, out=out) for token in command.split()]
    assert main(argv) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def _optimize(cfg, surrogates, context, method, report):
    return main(["optimize", "--config", str(cfg), "--method", method,
                 "--surrogates", str(surrogates), "--job-context", str(context),
                 "--out", str(report), "--log-level", "ERROR"])


def test_optimize_with_a_model_file_of_the_earlier_format_is_a_data_error(run_dir, tmp_path,
                                                                         capsys):
    # a file whose trees split standardized features holds every field the
    # program reads, so it loaded and routed raw rows through its thresholds
    cfg, out = run_dir
    for name in ("runtime_model.json", "power_model.json"):
        shutil.copy(out / name, tmp_path / name)
    payload = json.loads((out / "runtime_model.json").read_text())
    d = len(payload["feature_names"])
    payload.update(scaler_mean=[0.0] * d, scaler_std=[1.0] * d)
    payload["mask"].update(readout_w=[0.0] * d, readout_b=0.0)
    payload["ensemble"].update(mode="bagged", learning_rate=0.0)
    (tmp_path / "runtime_model.json").write_text(json.dumps(payload, sort_keys=True))
    report = tmp_path / "report.json"
    assert _optimize(cfg, tmp_path, out / "context_0.csv", "mobo", report) == 3
    assert ("runtime_model.json: holds 'scaler_mean': the model-file format changed"
            in capsys.readouterr().err)
    assert not report.exists()


def test_optimize_with_runtime_leaves_of_1e154_runs_mobo(run_dir, tmp_path):
    # candidates that reach one of these leaves predict a runtime near 1e153,
    # which MOBO's lognormal partial expectation overflowed as inf * 0, a
    # RuntimeWarning in exp
    cfg, out = run_dir
    shutil.copy(out / "power_model.json", tmp_path / "power_model.json")
    payload = json.loads((out / "runtime_model.json").read_text())
    tree = payload["ensemble"]["trees"][0]
    leaves = [node for node, feature in enumerate(tree["feature"]) if feature < 0]
    for node in leaves[::2]:
        tree["value"][node] = 1e154
    (tmp_path / "runtime_model.json").write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    assert _optimize(cfg, tmp_path, out / "context_0.csv", "mobo", report) == 0
    observed = json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert max(o["runtime"] for o in observed["observations"]) > 1e152


_METHOD_FLAGS = [stem.replace("_", "-") for stem in METHODS]


@pytest.mark.parametrize("method", _METHOD_FLAGS)
def test_optimize_with_a_model_that_predicts_subnormal_runtimes_is_a_data_error(
        run_dir, tmp_path, capsys, method):
    # every method ran with exit 0; MOBO reported runtimes near 1e-318 and a
    # hypervolume near 1e-316
    cfg, out = run_dir
    shutil.copy(out / "power_model.json", tmp_path / "power_model.json")
    payload = json.loads((out / "runtime_model.json").read_text())
    ensemble = payload["ensemble"]
    ensemble["base_value"] *= 1e-320
    for tree in ensemble["trees"]:
        tree["value"] = [v * 1e-320 if f < 0 else v
                         for f, v in zip(tree["feature"], tree["value"])]
    (tmp_path / "runtime_model.json").write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    assert _optimize(cfg, tmp_path, out / "context_0.csv", method, report) == 3
    err = capsys.readouterr().err
    assert "the runtime surrogate predicts " in err
    assert "but objectives must be at least the smallest normal float" in err
    assert not report.exists()


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(allow_nan=False, allow_infinity=False),
       method=st.sampled_from(_METHOD_FLAGS))
@example(factor=4e305, method="random").via("ten leaves of 1e306 to 1.7e308 sum past a float")
def test_optimize_with_every_runtime_leaf_scaled_exits_0_or_3(run_dir, tmp_path_factory,
                                                              factor, method):
    # the damaged-field property changes one value, so it never drew a sum
    # of leaves past a float
    cfg, out = run_dir
    directory = tmp_path_factory.mktemp("scaled_model")
    shutil.copy(out / "power_model.json", directory / "power_model.json")
    payload = json.loads((out / "runtime_model.json").read_text())
    for tree in payload["ensemble"]["trees"]:
        tree["value"] = [v * factor if f < 0 else v
                         for f, v in zip(tree["feature"], tree["value"])]
    (directory / "runtime_model.json").write_text(json.dumps(payload))
    report = directory / "report.json"
    code = _optimize(cfg, directory, out / "context_0.csv", method, report)
    assert code in (0, 3)
    if code == 0:
        json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)


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


def test_run_and_optimize_on_a_log_whose_feature_name_holds_a_comma(tmp_path):
    # run wrote the context header unquoted, and optimize then read the name
    # as two columns: "has 9 columns but 8 values", exit 3
    cfg = _synth(tmp_path)
    name = 'noise,"0"'
    with (tmp_path / "data.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[0][rows[0].index("noise_0")] = name
    with (tmp_path / "data.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    cfg.write_text(cfg.read_text().replace("noise_0 = ", f"{name} = "))
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    with (out / "context_0.csv").open(newline="") as fh:
        assert name in next(csv.reader(fh))
    report = tmp_path / "report.json"
    assert _optimize(cfg, out, out / "context_0.csv", "mobo", report) == 0
    # the report names the column as the log does, and optimize reproduces run
    payload = json.loads(report.read_text())
    assert name in payload["context"]["feature_names"]
    assert (payload["observations"]
            == json.loads((out / "reports" / "mobo_ctx0.json").read_text())["observations"])


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
    method = data.draw(st.sampled_from(_METHOD_FLAGS), label="method")
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
