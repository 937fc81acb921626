"""Synthetic job-log generator with closed-form runtime/power ground truth.

Runtime follows an Amdahl-style law (a serial fraction bounds the parallel
speedup) and power grows linearly in node count, so the two objectives
genuinely conflict and the true Pareto front is computable by enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import ColumnSpec, ConfigError, DataError, JobTable
from .pareto import ParetoFront, nondominated

QUEUE_NAMES = ("batch", "debug", "long", "wide")
_EPOCH_START = 1704067200.0  # 2024-01-01T00:00:00Z


# the law parameters of a job, as `objectives_at` reads them from a truth job
LAW_FIELDS = ("base", "serial_frac", "per_node", "idle")
# the uniform range each law parameter is drawn from, in `LAW_FIELDS` order
_LAW_RANGES = {
    "base": (50.0, 500.0),
    "serial_frac": (0.0, 0.5),
    "per_node": (2.0, 10.0),
    "idle": (20.0, 100.0),
}


@dataclass(frozen=True)
class SyntheticSpec:
    n_jobs: int = 1000
    n_noise_features: int = 5
    node_range: tuple[int, int] = (1, 64)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.n_noise_features < 0:
            raise ConfigError(
                f"n_noise_features must be >= 0, got {self.n_noise_features}")
        if self.node_range[0] < 1 or self.node_range[1] < self.node_range[0]:
            raise ConfigError(f"invalid node_range {self.node_range}")
        # one range, so that NaN fails it
        if not (0 <= self.noise_sigma < math.inf):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def runtime_law(base: float, serial_frac: float, nodes: int) -> float:
    return serial_frac * base + (1.0 - serial_frac) * base / nodes


def power_law(idle: float, per_node: float, nodes: int) -> float:
    return idle + per_node * nodes


def _iso(ts: float) -> str:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"


def table_schema(n_noise_features: int) -> list[ColumnSpec]:
    specs = [
        ColumnSpec("job_id", "categorical", "ignored"),
        ColumnSpec("queue", "categorical", "feature"),
        ColumnSpec("submit_time", "datetime", "feature"),
        ColumnSpec("start_time", "datetime", "ignored"),
        ColumnSpec("end_time", "datetime", "ignored"),
        ColumnSpec("base", "numeric", "feature"),
        ColumnSpec("serial_frac", "numeric", "feature"),
        ColumnSpec("per_node", "numeric", "feature"),
        ColumnSpec("idle", "numeric", "feature"),
    ]
    specs.extend(
        ColumnSpec(f"noise_{j}", "numeric", "feature") for j in range(n_noise_features)
    )
    specs.append(ColumnSpec("num_nodes_alloc", "numeric", "design_variable"))
    specs.append(ColumnSpec("runtime_seconds", "numeric", "regression_target"))
    specs.append(ColumnSpec("node_power", "power_array", "regression_target"))
    return specs


DURATION_PAIRS = [("submit_time", "start_time", "wait_seconds")]


def generate(spec: SyntheticSpec) -> tuple[JobTable, dict]:
    """Emit a raw job-log table plus the ground-truth law parameters per job.

    start/end datetimes are consistent with the runtime law; the node_power
    array sums to the power law value; noise columns are pure N(0, 1).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_jobs
    base, serial, per_node, idle = (rng.uniform(*_LAW_RANGES[key], size=n)
                                    for key in LAW_FIELDS)
    nodes = rng.integers(spec.node_range[0], spec.node_range[1] + 1, size=n)
    queues = rng.choice(QUEUE_NAMES, size=n)
    noise_cols = rng.normal(0.0, 1.0, size=(n, spec.n_noise_features))
    runtime_noise = rng.normal(0.0, spec.noise_sigma, size=n) if spec.noise_sigma else np.zeros(n)
    power_noise = rng.normal(0.0, spec.noise_sigma, size=n) if spec.noise_sigma else np.zeros(n)
    arrivals = np.cumsum(rng.uniform(1.0, 120.0, size=n))
    waits = rng.uniform(0.0, 3600.0, size=n)

    runtimes = np.maximum(
        np.array([runtime_law(b, s, int(k)) for b, s, k in zip(base, serial, nodes)])
        + runtime_noise,
        1e-6,
    )
    powers = np.maximum(
        np.array([power_law(i, p, int(k)) for i, p, k in zip(idle, per_node, nodes)])
        + power_noise,
        1e-6,
    )
    power_arrays = []
    for k, total in zip(nodes, powers):
        shares = rng.uniform(0.5, 1.5, size=int(k))
        shares *= total / shares.sum()
        power_arrays.append(shares)

    submit = _EPOCH_START + arrivals
    start = submit + waits
    end = start + runtimes
    data = {
        "job_id": [f"job-{i:06d}" for i in range(n)],
        "queue": [str(q) for q in queues],
        "submit_time": [_iso(t) for t in submit],
        "start_time": [_iso(t) for t in start],
        "end_time": [_iso(t) for t in end],
        "base": [float(v) for v in base],
        "serial_frac": [float(v) for v in serial],
        "per_node": [float(v) for v in per_node],
        "idle": [float(v) for v in idle],
        "num_nodes_alloc": [float(v) for v in nodes],
        "runtime_seconds": [float(v) for v in runtimes],
        "node_power": list(power_arrays),
    }
    for j in range(spec.n_noise_features):
        data[f"noise_{j}"] = [float(v) for v in noise_cols[:, j]]
    specs = table_schema(spec.n_noise_features)
    table = JobTable(
        tuple(specs),
        tuple(list(data[s.name]) for s in specs),
    )
    truth = {
        "spec": asdict(spec),
        "jobs": [
            {
                "base": float(base[i]),
                "serial_frac": float(serial[i]),
                "per_node": float(per_node[i]),
                "idle": float(idle[i]),
                "nodes": int(nodes[i]),
            }
            for i in range(n)
        ],
    }
    return table, truth


def save_truth(truth: dict, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)  # streams its chunks instead of joining them


def load_truth(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_table_truth(path: str | Path, table: JobTable) -> dict:
    """The truth file of `table`: readable JSON whose `jobs` list holds one
    entry per table row, in row order, each with the `LAW_FIELDS`. Anything
    else is a DataError naming the file, for a context would be scored
    against another job's laws."""
    try:
        truth = load_truth(path)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise DataError(f"truth file {path} is not readable JSON: {exc}") from exc
    jobs = truth.get("jobs") if isinstance(truth, dict) else None
    if not isinstance(jobs, list):
        raise DataError(f"truth file {path} holds no `jobs` list")
    if len(jobs) != table.n_rows:
        raise DataError(f"truth file {path} describes {len(jobs)} jobs, but the table has "
                        f"{table.n_rows} rows: it is not this table's truth file")
    for i, job in enumerate(jobs):
        missing = [key for key in LAW_FIELDS if not isinstance(job, dict) or key not in job]
        if missing:
            raise DataError(f"truth file {path}: job {i} lacks {', '.join(missing)}")
    return truth


def objectives_at(job: dict, nodes: Iterable[int]) -> list[tuple[float, float]]:
    """Noise-free (runtime, power) of one truth job at each node count."""
    return [(runtime_law(job["base"], job["serial_frac"], k),
             power_law(job["idle"], job["per_node"], k)) for k in nodes]


def true_front(job: dict, bounds: tuple[int, int]) -> ParetoFront:
    """Exhaustive-enumeration oracle: nondominated set of the exact laws over
    the node counts bounds[0]..bounds[1]."""
    return nondominated(objectives_at(job, range(bounds[0], bounds[1] + 1)))
