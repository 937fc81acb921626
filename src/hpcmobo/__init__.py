"""Surrogate-driven multi-objective Bayesian optimization of HPC job node counts.

Pipeline: ingest job-log CSVs, select informative rows with the
loss-proportional sampler, train embedding-informed runtime/power surrogates,
and search the node-count design space for Pareto-optimal runtime-power
trade-offs.
"""

from .core import (
    ColumnSpec,
    ConfigError,
    DataError,
    JobTable,
    NumericalError,
    PipelineError,
    RunConfig,
)
from .pareto import ParetoFront, hypervolume, infer_reference, nondominated, spread

__version__ = "0.1.0"

__all__ = [
    "ColumnSpec",
    "ConfigError",
    "DataError",
    "JobTable",
    "NumericalError",
    "ParetoFront",
    "PipelineError",
    "RunConfig",
    "hypervolume",
    "infer_reference",
    "nondominated",
    "spread",
    "__version__",
]
