"""End-to-end pipeline orchestration.

Stages run in order (preprocess -> sample -> runtime model -> power model ->
optimizer prep -> MOBO -> SOBO x2 -> random -> report), each a `*_stage`
function that writes file artifacts; the CLI's stage subcommands call the
same functions, so any stage can be rerun in isolation. A manifest
records every artifact with its content hash, per-stage wall-clock timings,
and the dataset fingerprint; stage inputs are fingerprint-checked before the
stage runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import optimizer
from .core import (
    ColumnSpec,
    ConfigError,
    DataError,
    JobTable,
    RunConfig,
    cast_section,
    config_fields,
    load_config_file,
    run_config_from_sections,
)
from .ingest import preprocess_fit, read_table, write_table
from .optimizer import (
    METHOD_MOBO,
    METHOD_RANDOM,
    METHOD_SOBO_POWER,
    METHOD_SOBO_RUNTIME,
    CandidateSet,
    ComparisonTable,
    JobContext,
    ParetoReport,
    compare_methods,
    mobo_run,
    random_run,
    save_report,
    sobo_run,
)
from .pareto import (
    ParetoFront,
    front_to_csv,
    fronts_to_svg,
    hypervolume,
    infer_reference,
    nondominated,
    spread,
)
from .sampler import SamplerPlan, sample_table
from .surrogate import (
    SurrogateModel,
    mape,
    save_surrogate,
    surrogate_features,
    train_objective_surrogate,
    training_data,
)
from .synthgen import load_table_truth, objectives_at, true_front

# each row of the timing table and the stages whose seconds it sums: the
# sampler is part of Preprocessing and the random baseline is manifest-only
TIMING_ROWS = {
    "Preprocessing": ("preprocess", "sample"),
    "Runtime Model": ("runtime_model",),
    "Power Model": ("power_model",),
    "Preproc. MOBO": ("preproc_mobo",),
    "MOBO": ("mobo",),
    "SOBO Runtime": ("sobo_runtime",),
    "SOBO Power": ("sobo_power",),
}


# share of the subset held out to score each surrogate
VALIDATION_FRACTION = 0.2


class Method(NamedTuple):
    """One optimizer of the comparison: its report label and how to run it
    on one context's candidates and their `evaluate_objectives` table, as
    `run(candidates, objectives, cfg)`."""

    label: str
    run: Callable[..., ParetoReport]


# Keyed by the stem of each method's stage and report files, in run order.
# The lambdas look the engines up when called, not when this module loads.
METHODS: dict[str, Method] = {
    "mobo": Method(METHOD_MOBO, lambda c, y, cfg: mobo_run(c, y, cfg)),
    "sobo_runtime": Method(METHOD_SOBO_RUNTIME,
                           lambda c, y, cfg: sobo_run(c, y, cfg, "runtime")),
    "sobo_power": Method(METHOD_SOBO_POWER, lambda c, y, cfg: sobo_run(c, y, cfg, "power")),
    "random": Method(METHOD_RANDOM, lambda c, y, cfg: random_run(c, y, cfg)),
}
ALL_METHODS = tuple(method.label for method in METHODS.values())

# least value of each integer setting: a forest needs a tree and a split, a
# run or an H1 sweep a context and a seed; zero mask epochs keep the uniform mask
_SETTING_MINIMUMS = {"n_job_contexts": 1, "n_estimators": 1, "max_depth": 1,
                     "mask_epochs": 0, "h1_seeds": 1}


@dataclass
class PipelineSettings:
    """Dataset- and model-level knobs read from the config file sections
    outside [run]."""

    input_path: Path
    out_dir: Path
    runtime_target: str
    power_target: str
    specs: list[ColumnSpec]
    duration_pairs: list[tuple[str, str, str]] = field(default_factory=list)
    n_job_contexts: int = 1
    use_embedding: bool = True
    n_estimators: int = 100
    max_depth: int = 10
    mask_epochs: int = 400
    h1_seeds: int = 3
    truth_path: Path | None = None

    def __post_init__(self) -> None:
        for key, least in _SETTING_MINIMUMS.items():
            if getattr(self, key) < least:
                raise ConfigError(f"[pipeline] {key} must be >= {least}, "
                                  f"got {getattr(self, key)}")

    def targets(self) -> dict[str, str]:
        """Objective key -> target column, runtime first."""
        return {"runtime": self.runtime_target, "power": self.power_target}


def parse_schema_sections(sections) -> tuple[list[ColumnSpec], list[tuple[str, str, str]]]:
    schema = sections.get("schema", {})
    if not schema:
        raise ConfigError("config has no [schema] section describing the input columns")
    specs = []
    for name, value in schema.items():
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigError(f"schema entry {name} = {value!r} is not kind:role")
        specs.append(ColumnSpec(name, parts[0].strip(), parts[1].strip()))
    pairs = []
    for out_col, value in sections.get("durations", {}).items():
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2:
            raise ConfigError(
                f"duration entry {out_col} = {value!r} must be start_col,end_col"
            )
        pairs.append((parts[0], parts[1], out_col))
    return specs, pairs


# [pipeline] keys: three file paths, relative to the config file, and every
# PipelineSettings field a config value can set
_PIPELINE_KEYS = {"input": "str", "out_dir": "str", "truth": "str",
                  **config_fields(PipelineSettings)}


def parse_settings(sections, config_dir: Path,
                   out_dir_override: str | None = None) -> PipelineSettings:
    """PipelineSettings from the [pipeline], [schema] and [durations]
    sections. An unknown [pipeline] key, or a value of the wrong type or
    range, is a ConfigError."""
    pipe = cast_section("pipeline", sections.get("pipeline", {}), _PIPELINE_KEYS)
    for key in ("input", "runtime_target", "power_target"):
        if key not in pipe:
            raise ConfigError(f"[pipeline] section is missing required key {key!r}")
    specs, pairs = parse_schema_sections(sections)

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else config_dir / path

    input_path = resolve(pipe.pop("input"))
    # paths in the file are relative to it; an override is relative to the cwd
    out_dir = pipe.pop("out_dir", "out")
    out_dir = Path(out_dir_override) if out_dir_override else resolve(out_dir)
    truth = pipe.pop("truth", None)
    return PipelineSettings(
        input_path=input_path,
        out_dir=out_dir,
        truth_path=resolve(truth) if truth is not None else None,
        specs=specs,
        duration_pairs=pairs,
        **pipe,
    )


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class PipelineRun:
    """Stage runner that owns one output directory, times every stage, and
    verifies input fingerprints before a stage executes."""

    def __init__(self, out_dir: Path, sections):
        self.sections = {k: dict(v) for k, v in sections.items()}
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, str] = {}
        self.stage_records: list[dict] = []

    def rel(self, path: Path) -> str:
        return str(Path(path).relative_to(self.out_dir))

    def register(self, *paths: Path) -> None:
        for p in paths:
            self.artifacts[self.rel(p)] = file_sha256(p)

    def check_inputs(self, paths: list[Path]) -> None:
        for p in paths:
            p = Path(p)
            if not p.exists():
                raise DataError(f"stage input missing: {p}")
            rel = self.rel(p) if p.is_relative_to(self.out_dir) else None
            if rel is not None and rel in self.artifacts:
                if file_sha256(p) != self.artifacts[rel]:
                    raise DataError(f"stage input fingerprint mismatch: {p}")

    def stage(self, name: str, inputs: list[Path],
              fn: Callable[..., tuple[object, list[Path]]], *args):
        """Check the inputs, then run fn(*args) as the timed stage `name`. fn
        returns (result, written paths); the paths are fingerprinted and the
        result is returned."""
        self.check_inputs(inputs)
        start = time.perf_counter()
        result, outputs = fn(*args)
        seconds = time.perf_counter() - start
        self.register(*outputs)
        self.stage_records.append({
            "name": name,
            "inputs": [str(p) if not Path(p).is_relative_to(self.out_dir) else self.rel(p)
                       for p in inputs],
            "outputs": [self.rel(p) for p in outputs],
            "seconds": seconds,
        })
        return result


def manifest_comparable(manifest: dict) -> dict:
    """The manifest with every timing-derived field removed, for run-to-run
    reproducibility comparisons (timings differ by nature; all other content
    is seed-deterministic)."""
    out = json.loads(json.dumps(manifest))
    out.pop("timing_table", None)
    for stage in out.get("stages", []):
        stage.pop("seconds", None)
    out.get("artifacts", {}).pop("timing_table.csv", None)
    return out


def timing_table(stage_records: list[dict]) -> dict[str, float]:
    """Fold the seconds of the stage records into the `TIMING_ROWS` layout."""
    return {row: sum((r["seconds"] for r in stage_records if r["name"] in stages), 0.0)
            for row, stages in TIMING_ROWS.items()}


def write_timing_csv(timings: dict[str, float], path: Path) -> None:
    """Write the rows with 6 decimals and a TOTAL row that is the sum of the
    rows as written, so the file adds up whatever the rounding."""
    rows = [(name, round(seconds, 6)) for name, seconds in timings.items()]
    lines = ["Step,Seconds"] + [f"{name},{seconds:.6f}" for name, seconds in rows]
    lines.append(f"TOTAL,{sum(seconds for _, seconds in rows):.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def report_h2(reports: dict[str, ParetoReport], out_dir: Path, tag: str,
              truth_front: ParetoFront | None = None) -> ComparisonTable:
    """Comparison table plus the overlaid Pareto scatter for one context."""
    missing = [m for m in ALL_METHODS if m not in reports]
    if missing:
        raise DataError(f"missing method reports: {missing}")
    table = compare_methods(reports)
    out_dir.mkdir(parents=True, exist_ok=True)
    table.to_csv(out_dir / f"comparison_{tag}.csv")
    fronts = {name: rep.front for name, rep in reports.items()}
    fronts_to_svg(fronts, out_dir / f"pareto_{tag}.svg", true_front=truth_front,
                  title=f"Pareto fronts ({tag})")
    return table


def _train_val_split(table: JobTable, seed: int):
    n = table.n_rows
    rng = np.random.default_rng([seed, 77])
    order = rng.permutation(n)
    n_val = max(1, int(round(VALIDATION_FRACTION * n))) if n > 4 else 0
    val_idx = np.sort(order[:n_val])
    train_idx = np.sort(order[n_val:])
    return table.select_rows(train_idx), table.select_rows(val_idx)


def train_single_surrogate(table: JobTable, settings: PipelineSettings, target: str,
                           use_embedding: bool, seed: int) -> tuple[SurrogateModel, dict]:
    """Train one objective predictor, with the settings' forest and mask
    epochs, on a train split; report validation MSE/MAPE on the held-out
    rows. Every row of `table`, held out or not, must pass `training_data`'s
    checks, so that a validation target is positive too."""
    training_data(table, target)
    train, val = _train_val_split(table, seed)
    model = train_objective_surrogate(train, target, settings.n_estimators, settings.max_depth,
                                      settings.mask_epochs, use_embedding, seed)
    entry: dict = {"mse": None, "mape": None,
                   "n_train": train.n_rows, "n_val": val.n_rows,
                   "mape_units": "fraction"}
    if val.n_rows:
        X = val.numeric_matrix(model.feature_names)
        y = val.numeric_matrix([target])[:, 0]
        pred = model.predict(X)
        entry["mse"] = float(np.mean((pred - y) ** 2))
        entry["mape"] = mape(y, pred)
    return model, entry


def context_from_row(table: JobTable, row: int) -> JobContext:
    names = surrogate_features(table)
    values = table.numeric_matrix(names)[row]
    return JobContext(feature_names=tuple(names), values=values,
                      design_feature=table.design_column().name)


def save_context(context: JobContext, path: Path) -> None:
    """Write the context as a header of feature names and one row of values;
    the csv module quotes a name that holds a comma or a quote."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(context.feature_names)
        writer.writerow(repr(float(v)) for v in context.values)


def load_context(path: Path, design_feature: str) -> JobContext:
    """Read the one-row context CSV `save_context` writes. A missing or a
    second row, a row whose value count differs from the header's, or a
    value that is not a finite number is a DataError naming the file."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) != 2:
        raise DataError(f"job context file {path} needs a header and one row, "
                        f"has {len(rows)} lines")
    names = tuple(n.strip() for n in rows[0])
    cells = rows[1]
    if len(cells) != len(names):
        raise DataError(f"job context file {path} has {len(names)} columns "
                        f"but {len(cells)} values")
    try:
        values = np.array([float(v) for v in cells])
    except ValueError as exc:
        raise DataError(f"job context file {path}: {exc}") from exc
    if not np.isfinite(values).all():
        raise DataError(f"job context file {path} holds a non-finite value")
    if design_feature not in names:
        raise DataError(f"design feature {design_feature!r} not in context columns")
    return JobContext(feature_names=names, values=values, design_feature=design_feature)


def preprocess_stage(settings: PipelineSettings,
                     input_path: Path) -> tuple[JobTable, list[Path]]:
    """Read the raw log, fit the preprocessing recipe, and write
    `preprocessed.csv` (with its schema sidecar) and `recipe.json` into
    settings.out_dir. Returns the processed table and the written paths."""
    table = read_table(input_path, settings.specs)
    processed, recipe = preprocess_fit(table, settings.duration_pairs)
    recipe_path = settings.out_dir / "recipe.json"
    outputs = write_table(processed, settings.out_dir / "preprocessed.csv")
    recipe.save(recipe_path)
    return processed, outputs + [recipe_path]


def sample_stage(table: JobTable, cfg: RunConfig, subset_path: Path,
                 plan_path: Path) -> tuple[tuple[JobTable, SamplerPlan], list[Path]]:
    """Draw the loss-proportional subset at the run config's rate and write
    it (with its schema sidecar) and the plan. Returns (subset, plan) and the
    written paths."""
    subset, plan = sample_table(table, cfg.sampling_fraction, cfg.p_min, cfg.seed)
    outputs = write_table(subset, subset_path)
    plan.save(plan_path)
    return (subset, plan), outputs + [plan_path]


def model_stage(table: JobTable, settings: PipelineSettings, key: str, target: str,
                seed: int) -> tuple[tuple[SurrogateModel, dict], list[Path]]:
    """Train one objective's surrogate and save it as
    settings.out_dir/`{key}_model.json`. Returns (model, validation entry)
    and the written path."""
    model, entry = train_single_surrogate(table, settings, target, settings.use_embedding,
                                          seed)
    path = settings.out_dir / f"{key}_model.json"
    save_surrogate(model, path)
    return (model, entry), [path]


def write_surrogate_metrics(metrics: dict, out_dir: Path) -> Path:
    """Write the per-target validation entries as `surrogate_metrics.json`."""
    path = out_dir / "surrogate_metrics.json"
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True), encoding="utf-8")
    return path


def preproc_mobo_stage(subset: JobTable, plan: SamplerPlan, n_contexts: int, seed: int,
                       surr_r: SurrogateModel, surr_p: SurrogateModel, out_dir: Path
                       ) -> tuple[tuple[list[int], list[CandidateSet], list[np.ndarray]],
                                  list[Path]]:
    """Draw the job contexts to optimize, write each as `context_{i}.csv`,
    build its candidate set and predict its objective table, the one every
    method searches. Returns (the contexts' rows in the full table, the
    candidate sets, their tables) and the written paths."""
    rng = np.random.default_rng([seed, 42])
    n_ctx = min(n_contexts, subset.n_rows)
    rows = np.sort(rng.choice(subset.n_rows, size=n_ctx, replace=False))
    # map subset rows back to original dataset rows for truth lookup
    original = np.flatnonzero(plan.mask)[rows]
    candidates, tables, outputs = [], [], []
    for i, row in enumerate(rows):
        context = context_from_row(subset, int(row))
        path = out_dir / f"context_{i}.csv"
        save_context(context, path)
        candidates.append(CandidateSet.for_surrogates(surr_r, surr_p, context))
        # looked up on its module when called, as METHODS looks up the
        # engines, so that a wrapper of optimizer.evaluate_objectives sees it
        tables.append(optimizer.evaluate_objectives(surr_r, surr_p, candidates[-1]))
        outputs.append(path)
    return ([int(i) for i in original], candidates, tables), outputs


def method_stage(stem: str, method: Method, candidates: list[CandidateSet],
                 tables: list[np.ndarray], cfg: RunConfig,
                 reports_dir: Path) -> tuple[list[ParetoReport], list[Path]]:
    """Run one method on every context's candidates and objective table, and
    write each report and its front. Returns the reports and the written
    paths."""
    reports, outputs = [], []
    for i, (context_candidates, table) in enumerate(zip(candidates, tables)):
        rep = method.run(context_candidates, table, cfg)
        path = reports_dir / f"{stem}_ctx{i}.json"
        front_path = reports_dir / f"{stem}_ctx{i}_front.csv"
        save_report(rep, path)
        front_to_csv(rep.front, front_path, node_counts=rep.front_nodes,
                     iterations=rep.front_found_at)
        reports.append(rep)
        outputs += [path, front_path]
    return reports, outputs


def report_stage(reports: dict[str, list[ParetoReport]], candidates: list[CandidateSet],
                 context_rows: list[int], truth: dict | None,
                 reports_dir: Path) -> tuple[None, list[Path]]:
    """Write each context's comparison and front overlay, then the mean over
    contexts. `reports` maps each method label to its per-context reports."""
    outputs = []
    aggregate: dict[str, dict[str, list[float]]] = {
        m: {"hv": [], "spread": []} for m in ALL_METHODS
    }
    for i, context_candidates in enumerate(candidates):
        truth_front = None
        if truth is not None:
            job = truth["jobs"][context_rows[i]]
            truth_front = true_front(job, context_candidates.bounds)
        table = report_h2({m: reps[i] for m, reps in reports.items()}, reports_dir,
                          f"ctx{i}", truth_front)
        outputs.append(reports_dir / f"comparison_ctx{i}.csv")
        outputs.append(reports_dir / f"pareto_ctx{i}.svg")
        for m in ALL_METHODS:
            aggregate[m]["hv"].append(table.hv[m])
            aggregate[m]["spread"].append(table.spread[m])
    agg_path = reports_dir / "comparison_aggregate.csv"
    lines = ["Metric," + ",".join(ALL_METHODS)]
    lines.append("Hypervolume (mean over contexts),"
                 + ",".join(repr(float(np.mean(aggregate[m]["hv"]))) for m in ALL_METHODS))
    lines.append("Spread (mean over contexts),"
                 + ",".join(repr(float(np.mean(aggregate[m]["spread"]))) for m in ALL_METHODS))
    agg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append(agg_path)
    return None, outputs


def run_pipeline(config_path: str | Path, overrides: dict | None = None,
                 out_dir_override: str | None = None) -> dict:
    """Execute every stage and return the manifest (also written to disk)."""
    config_path = Path(config_path)
    sections = load_config_file(config_path)
    cfg = run_config_from_sections(sections, overrides)
    settings = parse_settings(sections, config_path.parent, out_dir_override)
    run = PipelineRun(settings.out_dir, sections)
    out = run.out_dir

    processed = run.stage("preprocess", [settings.input_path], preprocess_stage,
                          settings, settings.input_path)
    # checked before any model trains: the contexts are scored by row number
    truth = load_table_truth(settings.truth_path, processed) if settings.truth_path else None
    subset, plan = run.stage("sample", [out / "preprocessed.csv"], sample_stage, processed,
                             cfg, out / "subset.csv", out / "plan.json")
    surrogates, metrics = {}, {}
    for key, target in settings.targets().items():
        surrogates[key], metrics[target] = run.stage(
            f"{key}_model", [out / "subset.csv"], model_stage, subset, settings, key, target,
            cfg.seed)
    run.register(write_surrogate_metrics(metrics, out))
    context_rows, candidates, tables = run.stage(
        "preproc_mobo", [out / "subset.csv"], preproc_mobo_stage, subset, plan,
        settings.n_job_contexts, cfg.seed, surrogates["runtime"], surrogates["power"], out)

    reports_dir = out / "reports"
    reports = {
        method.label: run.stage(stem, [out / "runtime_model.json", out / "power_model.json"],
                                method_stage, stem, method, candidates, tables, cfg,
                                reports_dir)
        for stem, method in METHODS.items()
    }
    run.stage("report", [], report_stage, reports, candidates, context_rows, truth,
              reports_dir)

    timings = timing_table(run.stage_records)
    write_timing_csv(timings, out / "timing_table.csv")
    run.register(out / "timing_table.csv")

    manifest = {
        "config": run.sections,
        "run_config": asdict(cfg),
        "dataset": {
            "path": str(settings.input_path),
            "rows": processed.n_rows,
            "columns": len(processed.columns),
            "sha256": file_sha256(settings.input_path),
        },
        "subset_rows": subset.n_rows,
        "context_rows": context_rows,
        "aggregation": f"mean over {len(candidates)} sampled job contexts",
        "stages": run.stage_records,
        "artifacts": dict(sorted(run.artifacts.items())),
        "timing_table": timings | {"TOTAL": sum(timings.values())},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                             encoding="utf-8")
    return manifest


def truth_capture(report: ParetoReport, job: dict, bounds: tuple[int, int]) -> dict:
    """Score a run's recommended front on the exact laws: fraction of the
    exhaustive true-front hypervolume captured, plus the truth-space spread."""
    enum = objectives_at(job, range(bounds[0], bounds[1] + 1))
    ref = infer_reference(enum)
    true_hv = hypervolume(nondominated(enum), ref)
    front = nondominated(objectives_at(job, report.front_nodes))
    hv = hypervolume(front, ref)
    return {
        "hv": hv / true_hv if true_hv > 0 else 0.0,
        "spread": spread(front),
    }


def report_h1(table: JobTable, settings: PipelineSettings, cfg: RunConfig,
              out_dir: Path | None = None, truth: dict | None = None,
              context_rows: list[int] | None = None,
              methods: tuple[str, ...] = ALL_METHODS) -> dict:
    """Embedded-vs-raw surrogate comparison: validation MSE/MAPE per seed plus
    downstream optimizer metrics per method, in a two-block layout.

    One sweep: for each seed and variant it trains both surrogates, predicts
    each context's objective table once, runs every method on it and
    appends the method's means over the contexts to the (variant, method)
    record, from which the medians are read. With ground-truth laws
    available, each run's recommended front is re-scored on the exact laws
    and reported as the captured fraction of the true-front hypervolume;
    otherwise each variant reports the hypervolume of its own predicted
    objective space.
    """
    runs = {method.label: method.run for method in METHODS.values()}
    unknown = [m for m in methods if m not in runs]
    if unknown:
        raise ConfigError(f"unknown method(s) {unknown}; expected some of {list(runs)}")
    variants = ("raw", "embedded")
    context_rows = list(context_rows) if context_rows else [0]
    contexts = [context_from_row(table, row) for row in context_rows]
    per_seed: list[dict] = []
    # (variant, method) -> metric -> the mean over the contexts, one per seed
    records = {(v, m): {"hv": [], "spread": []} for v in variants for m in methods}

    for s in range(settings.h1_seeds):
        seed_cfg = replace(cfg, seed=cfg.seed + s)
        entry: dict = {"seed": seed_cfg.seed}
        for variant in variants:
            surrogates, entry[variant] = {}, {}
            for key, target in settings.targets().items():
                surrogates[key], metrics = train_single_surrogate(
                    table, settings, target, variant == "embedded", seed_cfg.seed)
                entry[variant][target] = {"mse": metrics["mse"], "mape": metrics["mape"]}
            surr_r, surr_p = surrogates["runtime"], surrogates["power"]
            searches = []
            for row, context in zip(context_rows, contexts):
                candidates = CandidateSet.for_surrogates(surr_r, surr_p, context)
                searches.append((row, candidates,
                                 optimizer.evaluate_objectives(surr_r, surr_p, candidates)))
            for method in methods:
                scores = []
                for row, candidates, objectives in searches:
                    rep = runs[method](candidates, objectives, seed_cfg)
                    scores.append(
                        truth_capture(rep, truth["jobs"][row], candidates.bounds)
                        if truth is not None else {"hv": rep.hv, "spread": rep.spread})
                for key, values in records[variant, method].items():
                    values.append(float(np.mean([score[key] for score in scores])))
        per_seed.append(entry)

    def median(values: list[float | None]) -> float | None:
        # a table of 4 rows or fewer holds out no validation row in any seed
        return None if None in values else float(np.median(values))

    result = {
        "seeds": [e["seed"] for e in per_seed],
        "context_rows": context_rows,
        "per_seed": per_seed,
        "median_validation": {
            v: {t: {key: median([e[v][t][key] for e in per_seed]) for key in ("mse", "mape")}
                for t in settings.targets().values()}
            for v in variants
        },
        "downstream_per_seed": {
            v: {m: records[v, m]["hv"] for m in methods} for v in variants
        },
        "downstream_median": {
            v: {m: {key: median(values) for key, values in records[v, m].items()}
                for m in methods}
            for v in variants
        },
        "downstream_space": (
            "true-front hypervolume capture, mean over contexts"
            if truth is not None else "per-variant predicted objectives"
        ),
        "mape_units": "fraction",
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "h1_report.json").write_text(
            json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
        lines = [f"# downstream metric: {result['downstream_space']}"]
        for v in variants:
            lines.append(f"# block: {v} features")
            lines.append("Metric," + ",".join(methods))
            lines.append("Hypervolume," + ",".join(
                repr(result["downstream_median"][v][m]["hv"]) for m in methods))
            lines.append("Spread," + ",".join(
                repr(result["downstream_median"][v][m]["spread"]) for m in methods))
        (out_dir / "h1_blocks.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result
