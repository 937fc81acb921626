"""Benchmark workloads: sizes, config and seeded input generation.

Each workload is a synthetic job log from `hpcmobo.synthgen.generate` plus a
pipeline config. The program under test sees only the generated CSV, the
truth file and the config; the seed picks both the log and the run seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

NOISE_FEATURES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_jobs: int
    nodes_max: int
    tau: float
    n_estimators: int
    max_depth: int
    n_contexts: int
    iterations: int
    mc_samples: int
    mask_epochs: int = 400


# Sizes keep one pipeline run near 5-6 s on an idle core; README.md records
# how each was cut down from the larger sizes first proposed, and why.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="long-search",
            n_jobs=1000, nodes_max=64, tau=0.75, n_estimators=40, max_depth=8,
            n_contexts=1, iterations=70, mc_samples=128),
        Workload(
            name="big-log",
            n_jobs=20000, nodes_max=64, tau=0.15, n_estimators=20, max_depth=10,
            n_contexts=1, iterations=10, mc_samples=32),
        Workload(
            name="wide-fleet",
            n_jobs=2000, nodes_max=1024, tau=0.75, n_estimators=20, max_depth=8,
            n_contexts=3, iterations=12, mc_samples=64),
    )
}


def smoke(workload: Workload) -> Workload:
    """A seconds-long version of a workload with the same shape, for tests."""
    return replace(
        workload,
        n_jobs=min(workload.n_jobs, 300),
        nodes_max=min(workload.nodes_max, 96),
        n_estimators=4, max_depth=4, iterations=6, mc_samples=16,
        n_contexts=min(workload.n_contexts, 2), mask_epochs=40,
    )


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Generate the job log, truth file and config for one seed; return the
    config path. The same seed writes the same bytes."""
    from hpcmobo.ingest import write_table
    from hpcmobo.synthgen import DURATION_PAIRS, SyntheticSpec, generate, save_truth, table_schema

    directory.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(n_jobs=workload.n_jobs,
                         n_noise_features=NOISE_FEATURES,
                         node_range=(1, workload.nodes_max), seed=seed)
    table, truth = generate(spec)
    write_table(table, directory / "data.csv")
    save_truth(truth, directory / "truth.json")
    lines = [
        "[run]",
        f"mobo_iterations = {workload.iterations}",
        f"mc_samples = {workload.mc_samples}",
        "random_seeds = 5",
        f"seed = {seed}",
        f"sampling_fraction = {workload.tau}",
        "p_min = 0.01",
        "",
        "[pipeline]",
        "input = data.csv",
        "truth = truth.json",
        "out_dir = out",
        "runtime_target = runtime_seconds",
        "power_target = node_power",
        f"n_job_contexts = {workload.n_contexts}",
        "use_embedding = true",
        f"n_estimators = {workload.n_estimators}",
        f"max_depth = {workload.max_depth}",
        f"mask_epochs = {workload.mask_epochs}",
        "",
        "[durations]",
        *(f"{name} = {start},{end}" for start, end, name in DURATION_PAIRS),
        "",
        "[schema]",
        *(f"{s.name} = {s.kind}:{s.role}" for s in table_schema(NOISE_FEATURES)),
    ]
    config = directory / "config.ini"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config
