"""Command-line entry points.

Subcommands: synthgen, preprocess, sample, embed, train, optimize, report,
run. preprocess, sample and train each run one stage of `run` through the
function `run` calls (`pipeline.*_stage`), and embed runs train's mask fit
(`surrogate.fit_feature_mask`). Each subcommand takes --log-level and only
the `_SHARED_FLAGS` it reads. Exit codes: 0 success, 2 config error, 3 data
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DataError,
    PipelineError,
    RunConfig,
    config_fields,
    design_spec,
    load_config_file,
    run_config_from_sections,
)
from .ingest import read_table, write_table
from .optimizer import CandidateSet, evaluate_objectives, report_to_dict
from .pipeline import (
    METHODS,
    PipelineSettings,
    load_context,
    model_stage,
    parse_schema_sections,
    parse_settings,
    preprocess_stage,
    report_h1,
    run_pipeline,
    sample_stage,
    write_surrogate_metrics,
)
from .surrogate import fit_feature_mask, load_surrogate, training_data
from .synthgen import (
    DURATION_PAIRS,
    SyntheticSpec,
    generate,
    load_table_truth,
    save_truth,
    table_schema,
)

log = logging.getLogger("hpcmobo")


# the flags several subcommands share, by dest: a run-config override's dest
# is its RunConfig field. Each subcommand takes only the ones it reads.
_SHARED_FLAGS = {
    "config": (["--config"], {"help": "config file (key = value with [sections])"}),
    "out_dir": (["--out-dir"], {"help": "override the output directory"}),
    "seed": (["--seed"], {"type": int}),
    "mobo_iterations": (["--mobo-iterations"], {"type": int}),
    "random_seeds": (["--random-seeds"], {"type": int}),
    "sampling_fraction": (["--sampling-fraction", "--tau"], {"type": float}),
    "p_min": (["--run-p-min"], {"type": float}),
}


def _overrides(args) -> dict:
    return {f: getattr(args, f) for f in config_fields(RunConfig) if hasattr(args, f)}


def _load(args, require_config: bool = True):
    if args.config is None and require_config:
        raise ConfigError("this command needs --config")
    sections = {} if args.config is None else load_config_file(args.config)
    return sections, run_config_from_sections(sections, _overrides(args))


def _cmd_synthgen(args) -> int:
    spec = SyntheticSpec(
        n_jobs=args.jobs,
        n_noise_features=args.noise_features,
        node_range=(args.nodes_min, args.nodes_max),
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    table, truth = generate(spec)
    write_table(table, args.out)
    save_truth(truth, args.truth)
    if args.emit_config:
        _write_pipeline_config(args, spec)
    log.info("wrote %s rows to %s", table.n_rows, args.out)
    return 0


def _write_pipeline_config(args, spec: SyntheticSpec) -> None:
    out = Path(args.out)
    lines = [
        "[run]",
        "mobo_iterations = 40",
        "random_seeds = 5",
        f"seed = {spec.seed}",
        "sampling_fraction = 0.75",
        "p_min = 0.01",
        "",
        "[pipeline]",
        f"input = {out.name}",
        f"truth = {Path(args.truth).name}",
        "out_dir = out",
        "runtime_target = runtime_seconds",
        "power_target = node_power",
        "n_job_contexts = 1",
        "use_embedding = true",
        "n_estimators = 40",
        "max_depth = 8",
        "",
        "[durations]",
    ]
    for start, end, name in DURATION_PAIRS:
        lines.append(f"{name} = {start},{end}")
    lines.append("")
    lines.append("[schema]")
    for s in table_schema(spec.n_noise_features):
        lines.append(f"{s.name} = {s.kind}:{s.role}")
    Path(args.emit_config).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _settings(args, sections) -> PipelineSettings:
    return parse_settings(sections, Path(args.config).parent, args.out_dir)


def _cmd_preprocess(args) -> int:
    sections, cfg = _load(args)
    settings = _settings(args, sections)
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    processed, _ = preprocess_stage(settings, Path(args.input or settings.input_path))
    log.info("preprocessed %d rows, %d columns", processed.n_rows, len(processed.columns))
    return 0


def _cmd_sample(args) -> int:
    _, cfg = _load(args)
    table = read_table(args.input)
    (subset, _), _ = sample_stage(table, cfg, Path(args.out), Path(args.plan))
    log.info("kept %d of %d rows (target %.3f, realized %.3f)", subset.n_rows,
             table.n_rows, cfg.sampling_fraction, subset.n_rows / table.n_rows)
    return 0


def _cmd_embed(args) -> int:
    sections, cfg = _load(args)
    settings = parse_settings(sections, Path(args.config).parent, None)
    features, X, y = training_data(read_table(args.input), args.target)
    means, scales, mask = fit_feature_mask(X, y, settings.mask_epochs, cfg.seed)
    mask.save(args.out, means, scales)
    log.info("trained mask over %d features; top weight %s",
             len(features), features[int(np.argmax(mask.m))])
    return 0


def _cmd_train(args) -> int:
    sections, cfg = _load(args)
    settings = _settings(args, sections)
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    if args.no_embedding:
        settings.use_embedding = False
    table = read_table(args.input)
    metrics = {}
    for key, target in settings.targets().items():
        (_, metrics[target]), _ = model_stage(table, settings, key, target, cfg.seed)
    write_surrogate_metrics(metrics, settings.out_dir)
    return 0


def _cmd_optimize(args) -> int:
    sections, cfg = _load(args, require_config=False)
    surr_dir = Path(args.surrogates)
    paths = (surr_dir / "runtime_model.json", surr_dir / "power_model.json")
    surr_r, surr_p = (load_surrogate(path) for path in paths)
    if args.config is not None:  # its [schema] is the one record of the design column
        design = design_spec(parse_schema_sections(sections)[0]).name
        if {surr_r.design_feature, surr_p.design_feature} != {design}:
            raise DataError(f"{paths[0]} and {paths[1]} must both tune the config's design "
                            f"variable {design!r}; their design feature is "
                            f"{surr_r.design_feature!r} and {surr_p.design_feature!r}")
    context = load_context(Path(args.job_context), surr_r.design_feature)
    candidates = CandidateSet.for_surrogates(surr_r, surr_p, context)
    method = METHODS[args.method.replace("-", "_")]
    start = time.perf_counter()
    report = method.run(candidates, evaluate_objectives(surr_r, surr_p, candidates), cfg)
    elapsed = time.perf_counter() - start
    payload = report_to_dict(report)
    payload["wall_clock_seconds"] = {"optimize": elapsed}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True),
                              encoding="utf-8")
    log.info("%s: %d evaluations, HV %.6g, spread %.6g",
             report.method, report.n_evaluations, report.hv, report.spread)
    return 0


def _cmd_report(args) -> int:
    sections, cfg = _load(args)
    settings = _settings(args, sections)
    if args.h1:
        if args.input is None:
            raise ConfigError("report --h1 needs --in, the preprocessed table to train on")
        table = read_table(Path(args.input))
        truth = None
        if settings.truth_path is not None:
            truth = load_table_truth(settings.truth_path, table)
        result = report_h1(table, settings, cfg,
                           out_dir=settings.out_dir / "reports", truth=truth)
        log.info("H1 report written; downstream space: %s", result["downstream_space"])
        return 0
    # check that `run` left a first-context report for every method
    reports_dir = settings.out_dir / "reports"
    missing = [method.label for stem, method in METHODS.items()
               if not (reports_dir / f"{stem}_ctx0.json").exists()]
    if missing:
        raise PipelineError(f"missing method report(s): {missing}")
    log.info("all method reports present under %s", reports_dir)
    return 0


def _cmd_run(args) -> int:
    if args.config is None:
        raise ConfigError("run needs --config")
    start = time.perf_counter()
    manifest = run_pipeline(args.config, overrides=_overrides(args),
                            out_dir_override=args.out_dir)
    elapsed = time.perf_counter() - start
    log.info("pipeline complete in %.2fs; %d artifacts", elapsed, len(manifest["artifacts"]))
    return 0


def _subcommand(sub, name: str, summary: str, fn, *shared: str) -> argparse.ArgumentParser:
    """Add subcommand `name`, running `fn`, with --log-level and the named
    `_SHARED_FLAGS`."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--log-level", default="INFO",
                   choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    for dest in shared:
        flags, kwargs = _SHARED_FLAGS[dest]
        p.add_argument(*flags, dest=dest, default=None, **kwargs)
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcmobo",
        description="Runtime-power trade-off optimization for HPC job node counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "synthgen", "generate a synthetic job log with ground truth",
                    _cmd_synthgen)
    # SyntheticSpec holds every default of the generator
    spec = SyntheticSpec()
    p.add_argument("--jobs", type=int, default=spec.n_jobs)
    p.add_argument("--noise-features", type=int, default=spec.n_noise_features)
    p.add_argument("--nodes-min", type=int, default=spec.node_range[0])
    p.add_argument("--nodes-max", type=int, default=spec.node_range[1])
    p.add_argument("--noise-sigma", type=float, default=spec.noise_sigma)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--emit-config", default=None,
                   help="also write a ready-to-run pipeline config")

    p = _subcommand(sub, "preprocess", "build the numeric view of a raw job log",
                    _cmd_preprocess, "config", "out_dir")
    p.add_argument("--in", dest="input", default=None)

    p = _subcommand(sub, "sample", "loss-proportional subset sampling", _cmd_sample,
                    "config", "seed", "sampling_fraction", "p_min")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plan", required=True)

    p = _subcommand(sub, "embed", "train an attentive feature mask", _cmd_embed,
                    "config", "seed")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)

    p = _subcommand(sub, "train", "train runtime and power surrogates", _cmd_train,
                    "config", "out_dir", "seed")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--no-embedding", action="store_true")

    p = _subcommand(sub, "optimize", "run one optimizer against frozen surrogates",
                    _cmd_optimize, "config", "seed", "mobo_iterations", "random_seeds")
    p.add_argument("--method", required=True,
                   choices=[stem.replace("_", "-") for stem in METHODS])
    p.add_argument("--surrogates", required=True, help="directory with *_model.json")
    p.add_argument("--job-context", required=True, help="one-row CSV of feature values")
    p.add_argument("--out", required=True)

    # --h1's comparison reads the seed and the search budget
    p = _subcommand(sub, "report", "check that every method's context-0 report exists, "
                                   "or write the embedded-vs-raw comparison", _cmd_report,
                    "config", "out_dir", "seed", "mobo_iterations", "random_seeds")
    p.add_argument("--h1", action="store_true",
                   help="produce the embedded-vs-raw comparison")
    p.add_argument("--in", dest="input", default=None,
                   help="preprocessed table for --h1")

    _subcommand(sub, "run", "execute the full pipeline", _cmd_run, *_SHARED_FLAGS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
