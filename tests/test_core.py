import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from hpcmobo.core import (
    ColumnSpec,
    ConfigError,
    NumericalError,
    RunConfig,
    cast_section,
    parse_config_text,
    run_config_from_sections,
)
from oracles import build_table, tables_equal


def test_run_config_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.mobo_iterations == 300
    assert cfg.random_seeds == 5
    assert cfg.sampling_fraction == 1.0
    assert cfg.p_min == 0.01


def test_run_config_rejects_zero_fraction():
    with pytest.raises(ConfigError, match=r"sampling_fraction must be in \(0, 1\], got 0.0"):
        RunConfig(sampling_fraction=0.0)


@pytest.mark.parametrize("field, value", [("seed", -1), ("sampling_fraction", math.nan)])
def test_run_config_names_a_field_out_of_its_range(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be .*, got {value}$"):
        RunConfig(**{field: value})


def test_run_config_minimal_budget_ok():
    assert RunConfig(mobo_iterations=1).mobo_iterations == 1


def test_run_config_reports_first_violation_with_field_name():
    with pytest.raises(ConfigError, match="mobo_iterations"):
        RunConfig(mobo_iterations=0, p_min=0.0)
    with pytest.raises(ConfigError, match="p_min"):
        RunConfig(p_min=0.0)
    # a copy is checked as it is built, too
    with pytest.raises(ConfigError, match="random_seeds must be >= 1, got 0"):
        dataclasses.replace(RunConfig(), random_seeds=0)


def test_config_file_parsing_with_sections_and_overrides(tmp_path):
    text = """
# comment
[run]
seed = 3
mobo_iterations = 40
tau = 0.5
"""
    sections = parse_config_text(text)
    cfg = run_config_from_sections(sections, overrides={"seed": 9})
    assert cfg.mobo_iterations == 40
    assert cfg.sampling_fraction == 0.5
    assert cfg.seed == 9  # CLI override wins over file


@pytest.mark.parametrize("line", ["mobo_iteration = 5", "q = 2"])
def test_config_rejects_unknown_run_key(line):
    # a typo and a retired knob would otherwise parse to the defaults unnoticed
    key = line.split("=")[0].strip()
    sections = parse_config_text(f"[run]\n{line}\n")
    with pytest.raises(ConfigError, match=f"unknown \\[run\\] key '{key}'") as exc:
        run_config_from_sections(sections)
    assert "mobo_iterations" in str(exc.value) and "sampling_fraction" in str(exc.value)


@pytest.mark.parametrize("text, lineno", [
    ("seed = 3\n[run]\nseed = 4\n", 1),
    ("\n; a comment\n\nmc_samples = 64\n[run]\n", 4),
    ("# a comment\nmobo_iteration = 5\n[run]\nseed = 4\n", 2),
])
def test_a_run_key_above_the_first_section_is_a_config_error_naming_its_line(text, lineno):
    # [run] is the one place for run keys: there is no top-level fallback
    message = f"config line {lineno} sets a key above the first \\[section\\]"
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


@pytest.mark.parametrize("text, message", [
    ("[run]\nseed = 1\nseed = 2\n", "[run] key 'seed' is given twice, on lines 2 and 3"),
    # a section may be reopened; a key it already set is still a repeat
    ("[run]\nseed = 1\n[pipeline]\ninput = a.csv\n[run]\nseed = 1\n",
     "[run] key 'seed' is given twice, on lines 2 and 6"),
    ("[schema]\nx = numeric:feature\ny = numeric:feature\nx = categorical:ignored\n",
     "[schema] key 'x' is given twice, on lines 2 and 4"),
])
def test_a_key_repeated_in_a_section_is_a_config_error_naming_both_lines(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


@pytest.mark.parametrize("order", [("tau", "sampling_fraction"), ("sampling_fraction", "tau")])
def test_tau_next_to_sampling_fraction_is_a_config_error(order):
    sections = parse_config_text("[run]\n" + "".join(f"{key} = 0.5\n" for key in order))
    with pytest.raises(ConfigError, match="both sampling_fraction and tau"):
        run_config_from_sections(sections)


@pytest.mark.parametrize("text", ["[run]\nmc_samples = 64\nseed = 4\n",
                                  "[run]\nseed = 4\nmc_samples = 64\n"])
def test_config_ignores_mc_samples_with_one_warning(text, caplog):
    caplog.set_level(logging.WARNING, logger="hpcmobo")
    cfg = run_config_from_sections(parse_config_text(text))
    assert cfg == RunConfig(seed=4)
    [record] = caplog.records
    assert record.levelname == "WARNING" and "mc_samples" in record.getMessage()


def test_cast_section_casts_by_declared_type():
    keys = {"n": "int", "x": "float", "on": "bool", "name": "str"}
    values = {"n": "3", "x": "0.5", "on": "Off", "name": "a b"}
    assert cast_section("s", values, keys) == {"n": 3, "x": 0.5, "on": False, "name": "a b"}
    for key, value in (("n", "3.0"), ("x", "half"), ("on", "maybe")):
        with pytest.raises(ConfigError, match=f"\\[s\\] key '{key}' = '{value}'"):
            cast_section("s", {key: value}, keys)
    with pytest.raises(ConfigError, match="unknown \\[s\\] key 'm'; valid keys are n, x"):
        cast_section("s", {"m": "1"}, keys)


def test_config_rejects_an_unparseable_run_value():
    with pytest.raises(ConfigError, match="'seed' = 'x' is not a valid int"):
        run_config_from_sections(parse_config_text("[run]\nseed = x\n"))


def test_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a key value pair")


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)])
def test_a_non_finite_surrogate_prediction_is_a_numerical_error(bad):
    from hpcmobo.optimizer import CandidateSet, JobContext, evaluate_objectives

    class OneBadNode:
        feature_names = ["nodes"]
        design_feature = "nodes"
        design_bounds = (1, 8)

        def __init__(self, col):
            self.col = col

        def predict(self, X):
            return np.where(X[:, 0] == 5, bad[self.col], 1.0)

    candidates = CandidateSet.from_bounds(1, 8, JobContext(("nodes",), np.array([1.0]), "nodes"))
    with pytest.raises(NumericalError, match="must be finite.*at node count 5"):
        evaluate_objectives(OneBadNode(0), OneBadNode(1), candidates)


def test_table_requires_exactly_one_design_variable():
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"), ColumnSpec("y", "numeric", "feature")],
        {"x": [1.0], "y": [2.0]},
    )
    with pytest.raises(ConfigError, match="design_variable"):
        table.design_column()


def test_tables_equal_detects_cell_and_mask_differences():
    cols = [ColumnSpec("a", "numeric")]
    t1 = build_table(cols, {"a": [1.0, None]})
    t2 = build_table(cols, {"a": [1.0, None]})
    t3 = build_table(cols, {"a": [1.0, 2.0]})
    assert tables_equal(t1, t2)
    assert not tables_equal(t1, t3)
