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

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

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
    TreeParams,
    mape,
    save_surrogate,
    surrogate_features,
    train_objective_surrogate,
)
from .synthgen import load_truth, objectives_at, true_front

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
    as `run(surr_runtime, surr_power, candidates, cfg)`."""

    label: str
    run: Callable[..., ParetoReport]


# Keyed by the stem of each method's stage and report files, in run order.
# The lambdas look the engines up when called, not when this module loads.
METHODS: dict[str, Method] = {
    "mobo": Method(METHOD_MOBO, lambda r, p, c, cfg: mobo_run(r, p, c, cfg)),
    "sobo_runtime": Method(METHOD_SOBO_RUNTIME, lambda r, p, c, cfg: sobo_run(
        r, p, c, "runtime", cfg)),
    "sobo_power": Method(METHOD_SOBO_POWER, lambda r, p, c, cfg: sobo_run(
        r, p, c, "power", cfg)),
    "random": Method(METHOD_RANDOM, lambda r, p, c, cfg: random_run(r, p, c, cfg)),
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


def tree_params(settings: PipelineSettings, seed: int) -> TreeParams:
    return TreeParams(n_estimators=settings.n_estimators, max_depth=settings.max_depth,
                      seed=seed)


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class PipelineRun:
    """Stage runner that owns one output directory, times every stage, and
    verifies input fingerprints before a stage executes."""

    def __init__(self, settings: PipelineSettings, cfg: RunConfig, sections):
        self.settings = settings
        self.cfg = cfg
        self.sections = {k: dict(v) for k, v in sections.items()}
        self.out_dir = settings.out_dir
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
                           use_embedding: bool | None = None,
                           seed: int = 0) -> tuple[SurrogateModel, dict]:
    """Train one objective predictor on a train split; report validation
    MSE/MAPE on the held-out rows."""
    embedding = settings.use_embedding if use_embedding is None else use_embedding
    train, val = _train_val_split(table, seed)
    model = train_objective_surrogate(
        train, target, use_embedding=embedding, params=tree_params(settings, seed),
        mask_epochs=settings.mask_epochs, seed=seed,
    )
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
    lines = [",".join(context.feature_names),
             ",".join(repr(float(v)) for v in context.values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_context(path: Path, design_feature: str) -> JobContext:
    """Read the one-row context CSV `save_context` writes. A missing or a
    second row, a row whose value count differs from the header's, or a
    value that is not a finite number is a DataError naming the file."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if len(lines) != 2:
        raise DataError(f"job context file {path} needs a header and one row, "
                        f"has {len(lines)} lines")
    names = tuple(n.strip() for n in lines[0].split(","))
    cells = lines[1].split(",")
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
    model, entry = train_single_surrogate(table, settings, target, seed=seed)
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
                       ) -> tuple[tuple[list[int], list[CandidateSet]], list[Path]]:
    """Draw the job contexts to optimize, write each as `context_{i}.csv` and
    build its candidate set. Returns (the contexts' rows in the full table,
    the candidate sets) and the written paths."""
    rng = np.random.default_rng([seed, 42])
    n_ctx = min(n_contexts, subset.n_rows)
    rows = np.sort(rng.choice(subset.n_rows, size=n_ctx, replace=False))
    # map subset rows back to original dataset rows for truth lookup
    original = np.flatnonzero(plan.mask)[rows]
    candidates, outputs = [], []
    for i, row in enumerate(rows):
        context = context_from_row(subset, int(row))
        path = out_dir / f"context_{i}.csv"
        save_context(context, path)
        candidates.append(CandidateSet.for_surrogates(surr_r, surr_p, context))
        outputs.append(path)
    return ([int(i) for i in original], candidates), outputs


def method_stage(stem: str, method: Method, surr_r: SurrogateModel, surr_p: SurrogateModel,
                 candidates: list[CandidateSet], cfg: RunConfig,
                 reports_dir: Path) -> tuple[list[ParetoReport], list[Path]]:
    """Run one method on every context's candidates and write each report
    and its front. Returns the reports and the written paths."""
    reports, outputs = [], []
    for i, context_candidates in enumerate(candidates):
        rep = method.run(surr_r, surr_p, context_candidates, cfg)
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
    run = PipelineRun(settings, cfg, sections)
    out = run.out_dir

    processed = run.stage("preprocess", [settings.input_path], preprocess_stage,
                          settings, settings.input_path)
    subset, plan = run.stage("sample", [out / "preprocessed.csv"], sample_stage, processed,
                             cfg, out / "subset.csv", out / "plan.json")
    surrogates, metrics = {}, {}
    for key, target in settings.targets().items():
        surrogates[key], metrics[target] = run.stage(
            f"{key}_model", [out / "subset.csv"], model_stage, subset, settings, key, target,
            cfg.seed)
    run.register(write_surrogate_metrics(metrics, out))
    surr_r, surr_p = surrogates["runtime"], surrogates["power"]
    context_rows, candidates = run.stage(
        "preproc_mobo", [out / "subset.csv"], preproc_mobo_stage, subset, plan,
        settings.n_job_contexts, cfg.seed, surr_r, surr_p, out)

    truth = load_truth(settings.truth_path) if settings.truth_path else None
    reports_dir = out / "reports"
    reports = {
        method.label: run.stage(stem, [out / "runtime_model.json", out / "power_model.json"],
                                method_stage, stem, method, surr_r, surr_p, candidates, cfg,
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

    With ground-truth laws available, each run's recommended front is
    re-scored on the exact laws and reported as the captured fraction of the
    true-front hypervolume, averaged over the sampled job contexts; otherwise
    each variant reports the hypervolume of its own predicted objective space.
    """
    variants = ("raw", "embedded")
    context_rows = list(context_rows) if context_rows else [0]
    per_seed: list[dict] = []
    downstream: dict[str, dict[str, dict[str, list[float]]]] = {
        v: {m: {"hv": [], "spread": []} for m in methods} for v in variants
    }

    runs = {method.label: method.run for method in METHODS.values()}
    unknown = [m for m in methods if m not in runs]
    if unknown:
        raise ConfigError(f"unknown method(s) {unknown}; expected some of {list(runs)}")

    for s in range(settings.h1_seeds):
        seed = cfg.seed + s
        seed_cfg = replace(cfg, seed=seed)
        entry: dict = {"seed": seed}
        for variant in variants:
            surrogates, entry[variant] = {}, {}
            for key, target in settings.targets().items():
                surrogates[key], metrics = train_single_surrogate(
                    table, settings, target, use_embedding=(variant == "embedded"),
                    seed=seed)
                entry[variant][target] = {"mse": metrics["mse"], "mape": metrics["mape"]}
            surr_r, surr_p = surrogates["runtime"], surrogates["power"]
            scores: dict[str, dict[str, list[float]]] = {
                m: {"hv": [], "spread": []} for m in methods
            }
            for row in context_rows:
                candidates = CandidateSet.for_surrogates(
                    surr_r, surr_p, context_from_row(table, row))
                for method in methods:
                    rep = runs[method](surr_r, surr_p, candidates, seed_cfg)
                    if truth is not None:
                        scored = truth_capture(rep, truth["jobs"][row], candidates.bounds)
                        scores[method]["hv"].append(scored["hv"])
                        scores[method]["spread"].append(scored["spread"])
                    else:
                        scores[method]["hv"].append(rep.hv)
                        scores[method]["spread"].append(rep.spread)
            for method in methods:
                downstream[variant][method]["hv"].append(
                    float(np.mean(scores[method]["hv"])))
                downstream[variant][method]["spread"].append(
                    float(np.mean(scores[method]["spread"])))
        per_seed.append(entry)

    def median_metric(variant: str, target: str, key: str) -> float:
        return float(np.median([e[variant][target][key] for e in per_seed]))

    result = {
        "seeds": [e["seed"] for e in per_seed],
        "context_rows": context_rows,
        "per_seed": per_seed,
        "median_validation": {
            v: {
                t: {
                    "mse": median_metric(v, t, "mse"),
                    "mape": median_metric(v, t, "mape"),
                }
                for t in (settings.runtime_target, settings.power_target)
            }
            for v in variants
        },
        "downstream_per_seed": {
            v: {m: downstream[v][m]["hv"] for m in methods} for v in variants
        },
        "downstream_median": {
            v: {
                m: {
                    "hv": float(np.median(downstream[v][m]["hv"])),
                    "spread": float(np.median(downstream[v][m]["spread"])),
                }
                for m in methods
            }
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
