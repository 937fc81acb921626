"""Shared domain types: tables, columns, run configuration."""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)


class PipelineError(Exception):
    """Base class for pipeline failures; `exit_code` drives the CLI."""

    exit_code = 1


class ConfigError(PipelineError):
    exit_code = 2


class DataError(PipelineError):
    exit_code = 3


class NumericalError(PipelineError):
    exit_code = 4


COLUMN_KINDS = ("numeric", "categorical", "datetime", "power_array")
COLUMN_ROLES = ("feature", "regression_target", "design_variable", "ignored")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    role: str = "feature"

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ConfigError(f"unknown column kind {self.kind!r} for column {self.name!r}")
        if self.role not in COLUMN_ROLES:
            raise ConfigError(f"unknown column role {self.role!r} for column {self.name!r}")


def design_spec(columns: Iterable[ColumnSpec]) -> ColumnSpec:
    """The one column whose role is design_variable; none or several is a
    ConfigError."""
    designs = [c for c in columns if c.role == "design_variable"]
    if len(designs) != 1:
        raise ConfigError(
            f"exactly one design_variable column required, found {len(designs)}"
        )
    return designs[0]


@dataclass(frozen=True)
class JobTable:
    """Rectangular job-log table, column major. Missing cells hold None, and
    they are the only record of what is missing.

    Transforms never mutate in place; they return new tables.
    """

    columns: tuple[ColumnSpec, ...]
    cells: tuple[list, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.cells):
            raise DataError("column specs and cells must align")
        n = self.n_rows
        for spec, col in zip(self.columns, self.cells):
            if len(col) != n:
                raise DataError(f"column {spec.name!r} has ragged length")

    @property
    def n_rows(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index(self, name: str) -> int:
        for j, c in enumerate(self.columns):
            if c.name == name:
                return j
        raise DataError(f"no column named {name!r}")

    def column(self, name: str) -> list:
        return self.cells[self.index(name)]

    def columns_with_role(self, *roles: str) -> list[ColumnSpec]:
        return [c for c in self.columns if c.role in roles]

    def design_column(self) -> ColumnSpec:
        return design_spec(self.columns)

    def numeric_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Stack named numeric columns into an (n, k) float matrix. Missing cells
        become NaN. A named column of another kind is a DataError: the table
        is a raw log, which preprocessing makes numeric."""
        cols = []
        for name in names:
            j = self.index(name)
            if self.columns[j].kind != "numeric":
                raise DataError(f"column {name!r} is {self.columns[j].kind}, not numeric: "
                                "preprocess the table first (hpcmobo preprocess)")
            vals = [v if v is not None else math.nan for v in self.cells[j]]
            cols.append(np.asarray(vals, dtype=float))
        if not cols:
            return np.empty((self.n_rows, 0))
        return np.column_stack(cols)

    def replace_column(self, name: str, spec: ColumnSpec, values: list) -> "JobTable":
        j = self.index(name)
        cells = list(self.cells)
        cols = list(self.columns)
        cols[j] = spec
        cells[j] = values
        return JobTable(tuple(cols), tuple(cells))

    def add_column(self, spec: ColumnSpec, values: list) -> "JobTable":
        if spec.name in self.names:
            raise DataError(f"column {spec.name!r} already present")
        return JobTable(
            self.columns + (spec,), self.cells + (values,)
        )

    def drop_columns(self, names: Iterable[str]) -> "JobTable":
        drop = set(names)
        keep = [j for j, c in enumerate(self.columns) if c.name not in drop]
        return JobTable(
            tuple(self.columns[j] for j in keep),
            tuple(self.cells[j] for j in keep),
        )

    def select_rows(self, keep: np.ndarray) -> "JobTable":
        keep = np.asarray(keep)
        if keep.dtype == bool:
            idx = np.flatnonzero(keep)
        else:
            idx = keep.astype(int)
        cells = tuple([col[i] for i in idx] for col in self.cells)
        return JobTable(self.columns, cells)


@dataclass(frozen=True)
class RunConfig:
    """Optimizer and sampler budget knobs, overridable from config file and
    CLI. A bad field is a ConfigError naming the first one, raised when the
    config is built."""

    mobo_iterations: int = 300
    random_seeds: int = 5
    sampling_fraction: float = 1.0
    p_min: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mobo_iterations < 1:
            raise ConfigError(f"mobo_iterations must be >= 1, got {self.mobo_iterations}")
        if self.random_seeds < 1:
            raise ConfigError(f"random_seeds must be >= 1, got {self.random_seeds}")
        # one range each, so that NaN fails it
        if not (0 < self.sampling_fraction <= 1):
            raise ConfigError(
                f"sampling_fraction must be in (0, 1], got {self.sampling_fraction}")
        if not (0 < self.p_min <= 1):
            raise ConfigError(f"p_min must be in (0, 1], got {self.p_min}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Parse a `key = value` config file of [section] headers. Lines starting
    with # or ; are comments. A key above the first header, or one given
    twice in a section, is a ConfigError naming its line(s)."""
    sections: dict[str, dict[str, str]] = {}
    seen_at: dict[tuple[str, str], int] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not `key = value`: {raw!r}")
        if current is None:
            raise ConfigError(f"config line {lineno} sets a key above the first "
                              f"[section]: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if (current, key) in seen_at:
            raise ConfigError(f"[{current}] key {key!r} is given twice, on lines "
                              f"{seen_at[current, key]} and {lineno}")
        seen_at[current, key] = lineno
        sections[current][key] = value
    return sections


def load_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"))


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


# the declared field types a config value can be cast to
_CASTS: dict[str, Callable[[str], Any]] = {
    "int": int, "float": float, "bool": _parse_bool, "str": str,
}


def config_fields(cls) -> dict[str, str]:
    """Name -> declared type of each field of the dataclass `cls` that a
    config value can set: those typed int, float, bool or str."""
    types = {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(cls)}
    return {name: kind for name, kind in types.items() if kind in _CASTS}


def cast_section(section: str, values: Mapping[str, str],
                 keys: Mapping[str, str]) -> dict[str, Any]:
    """Cast each `key = value` of one config section by the type `keys` gives
    it. An unknown key, or a value its type cannot parse, is a ConfigError
    naming the key."""
    out: dict[str, Any] = {}
    for key, value in values.items():
        if key not in keys:
            raise ConfigError(f"unknown [{section}] key {key!r}; valid keys are "
                              f"{', '.join(keys)}")
        try:
            out[key] = _CASTS[keys[key]](value)
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] key {key!r} = {value!r} is not a valid {keys[key]}") from exc
    return out


_RUN_FIELDS = config_fields(RunConfig)
# tau is the paper's name for sampling_fraction
_RUN_KEYS = {**_RUN_FIELDS, "tau": "float"}


def run_config_from_sections(sections: Mapping[str, Mapping[str, str]],
                             overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig from the [run] section of parsed config sections plus
    CLI overrides. An unknown [run] key, or `tau` next to `sampling_fraction`,
    is a ConfigError; `mc_samples` is ignored with a warning."""
    values = dict(sections.get("run", {}))
    if "mc_samples" in values:  # set by older configs; MOBO's EHVI is exact
        log.warning("config key mc_samples is ignored: no engine reads it")
        del values["mc_samples"]
    if {"tau", "sampling_fraction"} <= values.keys():
        raise ConfigError("[run] sets both sampling_fraction and tau, its other name")
    merged = {"sampling_fraction" if key == "tau" else key: value
              for key, value in cast_section("run", values, _RUN_KEYS).items()}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _RUN_FIELDS:
            raise ConfigError(f"unknown run config field {key!r}")
        merged[key] = value
    return RunConfig(**merged)
