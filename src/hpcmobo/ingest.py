"""CSV ingestion and the numeric-view preprocessing steps.

Raw job logs arrive as RFC-4180 CSV with power arrays packed into single
";"-separated fields. The reader sums each array as it parses its row, so a
loaded table holds power columns as numeric totals and ingest memory grows
with rows, not with rows times nodes. Preprocessing reduces any arrays left
in an in-memory table to the same totals, converts datetimes to epoch
seconds, derives configured durations, imputes, and label-encodes, leaving a
fully numeric table with no missing (None) cell.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import ColumnSpec, DataError, JobTable

ARRAY_SEP = ";"
_NA_TOKENS = {"", "NA", "na", "NaN", "nan", "null", "None"}


def _parse_float(token: str, row: int, name: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DataError(
            f"unparseable numeric cell at row {row}, column {name!r}: {token!r}"
        ) from exc


def _power_total(parts) -> float | None:
    """The total of one power-array cell, or None (missing) when it is empty
    or a sample is NaN, so preprocessing imputes it like any missing cell.

    `parts` is the cell's array or its parsed tokens; numpy converts each str
    through float(), so tokens and the floats they spell give the same bits.
    The start value -0.0 changes no other total but keeps an all -0.0 array's
    sign, which numpy's default start of +0.0 drops.
    """
    if len(parts) == 0:
        return None
    total = float(np.sum(np.asarray(parts, dtype=float), initial=-0.0))
    return None if math.isnan(total) else total


def _parse_cell(token: str, spec: ColumnSpec, row: int):
    if token in _NA_TOKENS:
        return None
    if spec.kind == "numeric":
        return _parse_float(token, row, spec.name)
    if spec.kind == "power_array":
        parts = [p for p in token.split(ARRAY_SEP) if p != ""]
        try:
            return _power_total(parts)
        except ValueError:
            for p in parts:
                _parse_float(p, row, spec.name)
            raise
    # categorical / datetime / string_numeric stay as text until their pass
    return token


def load_csv(path: str | Path, specs: list[ColumnSpec]) -> JobTable:
    """Load a CSV whose header matches `specs` by name, in any column order.

    Each power_array cell is summed as its row is read (`_power_total`), so
    the returned table holds those columns as numeric totals, an empty array
    is missing, and no array outlives its row. A leading UTF-8 byte-order
    mark is skipped; a header that names a column twice is a DataError.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}") from None
        duplicates = sorted(n for n, count in Counter(header).items() if count > 1)
        if duplicates:
            raise DataError(f"header of {path} repeats columns {duplicates}")
        expected = [s.name for s in specs]
        missing_cols = [n for n in expected if n not in header]
        extra_cols = [n for n in header if n not in expected]
        if missing_cols or extra_cols:
            raise DataError(
                f"header mismatch in {path}: missing columns {missing_cols}, "
                f"extra columns {extra_cols}"
            )
        positions = [header.index(n) for n in expected]
        cells: list[list] = [[] for _ in specs]
        for row_i, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(
                    f"row {row_i} has {len(row)} cells, expected {len(header)}"
                )
            for j, spec in enumerate(specs):
                cells[j].append(_parse_cell(row[positions[j]], spec, row_i))
    columns = tuple(ColumnSpec(s.name, "numeric", s.role) if s.kind == "power_array" else s
                    for s in specs)
    return JobTable(columns, tuple(cells))


def _format_cell(value, row: int, name: str) -> str:
    """The CSV text of one cell. A present cell whose text `load_csv` would
    read as missing (a NaN, or a string that is an NA token) is a DataError;
    an empty power array is written empty and reads back as missing."""
    if value is None:
        return ""
    if isinstance(value, np.ndarray):
        if len(value) == 0:
            return ""
        text = ARRAY_SEP.join(repr(float(v)) for v in value)
    elif isinstance(value, (float, np.floating)):
        text = repr(float(value))
    else:
        text = str(value)
    if text in _NA_TOKENS:
        raise DataError(f"cell at row {row}, column {name!r} is not missing but would "
                        f"be written as {text!r}, which reads back as missing")
    return text


def write_csv(table: JobTable, path: str | Path) -> None:
    """Write a JobTable back to CSV; missing cells become empty fields.

    Floats are written with repr so a write/read cycle is bit-identical; a
    present cell that would read back as missing is a DataError
    (`_format_cell`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for i in range(table.n_rows):
            writer.writerow([_format_cell(col[i], i, name)
                             for name, col in zip(table.names, table.cells)])


def reduce_power_arrays(table: JobTable) -> JobTable:
    """Replace each power_array column of an in-memory table with per-row
    `_power_total`s, the totals `load_csv` gives for the same arrays.

    Empty arrays become missing; the column keeps its name and role but turns
    numeric.
    """
    out = table
    for spec in table.columns:
        if spec.kind != "power_array":
            continue
        values = [None if v is None else _power_total(v) for v in out.column(spec.name)]
        out = out.replace_column(
            spec.name, ColumnSpec(spec.name, "numeric", spec.role), values
        )
    return out


def _parse_iso8601_utc(text: str, row: int, name: str) -> float:
    token = text.strip()
    if token.endswith(("Z", "z")):
        token = token[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(token)
    except ValueError as exc:
        raise DataError(
            f"unparseable timestamp at row {row}, column {name!r}: {text!r}"
        ) from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def datetimes_to_epoch(table: JobTable) -> JobTable:
    """Convert datetime columns (ISO-8601 UTC) to numeric epoch seconds."""
    out = table
    for spec in table.columns:
        if spec.kind != "datetime":
            continue
        col = out.column(spec.name)
        values = [
            None if v is None else _parse_iso8601_utc(v, i, spec.name)
            for i, v in enumerate(col)
        ]
        out = out.replace_column(
            spec.name, ColumnSpec(spec.name, "numeric", spec.role), values
        )
    return out


@dataclass
class PreprocessRecipe:
    """Fitted preprocessing state: the duration pairs, the medians and
    modes that filled missing cells, and the dense label codes, assigned in
    first-appearance order."""

    derived_duration_columns: list[tuple[str, str, str]] = field(default_factory=list)
    numeric_medians: dict[str, float] = field(default_factory=dict)
    categorical_modes: dict[str, str] = field(default_factory=dict)
    label_encodings: dict[str, dict[str, int]] = field(default_factory=dict)

    def save(self, path: str | Path) -> None:
        payload = {
            "derived_duration_columns": [list(t) for t in self.derived_duration_columns],
            "numeric_medians": self.numeric_medians,
            "categorical_modes": self.categorical_modes,
            "label_encodings": self.label_encodings,
            "imputation": ["median_numeric", "mode_categorical"],
            "power_reduction": "sum",
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def derive_durations(table: JobTable, pairs: list[tuple[str, str, str]]) -> JobTable:
    """Add out_col = end - start per (start, end, out_col) pair; negative gaps
    are missing."""
    out = table
    for start_col, end_col, out_col in pairs:
        for ref in (start_col, end_col):
            if ref not in out.names:
                raise DataError(f"duration source column {ref!r} not in table")
        starts = out.column(start_col)
        ends = out.column(end_col)
        values = []
        for s, e in zip(starts, ends):
            if s is None or e is None:
                values.append(None)
            else:
                d = float(e) - float(s)
                values.append(d if d >= 0 else None)
        out = out.add_column(ColumnSpec(out_col, "numeric", "feature"), values)
    return out


def fit_apply_recipe(
    table: JobTable,
    duration_pairs: list[tuple[str, str, str]] | None = None,
) -> tuple[JobTable, PreprocessRecipe]:
    """Fit imputation values and label encodings on `table` and apply them.

    Expects array reduction and datetime conversion to have run already.
    Ignored-role columns are dropped here (explicitly, by role). The returned
    table is fully numeric with no missing cell.
    """
    recipe = PreprocessRecipe(derived_duration_columns=list(duration_pairs or []))
    out = table.drop_columns([c.name for c in table.columns if c.role == "ignored"])

    for spec in list(out.columns):
        col = out.column(spec.name)
        mask = out.mask(spec.name)
        if spec.kind == "string_numeric":
            col = [
                None if v is None else _parse_float(str(v), i, spec.name)
                for i, v in enumerate(col)
            ]
            spec = ColumnSpec(spec.name, "numeric", spec.role)
            out = out.replace_column(spec.name, spec, col)
        if spec.kind == "numeric":
            present = [float(v) for v in col if v is not None]
            if not present:
                raise DataError(f"column {spec.name!r} is entirely missing; cannot impute")
            median = float(np.median(present))
            recipe.numeric_medians[spec.name] = median
            if mask.any():
                col = [median if v is None else float(v) for v in col]
                out = out.replace_column(spec.name, spec, col)
        elif spec.kind == "categorical":
            present = [v for v in col if v is not None]
            if not present:
                raise DataError(f"column {spec.name!r} is entirely missing; cannot impute")
            # the first of the most frequent values to appear
            mode = Counter(present).most_common(1)[0][0]
            recipe.categorical_modes[spec.name] = mode
            filled = [mode if v is None else v for v in col]
            codes: dict[str, int] = {}
            for v in filled:
                if v not in codes:
                    codes[v] = len(codes)
            recipe.label_encodings[spec.name] = codes
            encoded = [float(codes[v]) for v in filled]
            out = out.replace_column(
                spec.name, ColumnSpec(spec.name, "numeric", spec.role), encoded
            )
        elif spec.kind in ("datetime", "power_array"):
            raise DataError(
                f"column {spec.name!r} still has kind {spec.kind}; run array "
                "reduction and datetime conversion first"
            )
    return out, recipe


def preprocess_fit(
    table: JobTable, duration_pairs: list[tuple[str, str, str]] | None = None
) -> tuple[JobTable, PreprocessRecipe]:
    """Full numeric-view pass: arrays -> epochs -> durations -> impute/encode."""
    pairs = duration_pairs or []
    out = reduce_power_arrays(table)
    out = datetimes_to_epoch(out)
    out = derive_durations(out, pairs)
    return fit_apply_recipe(out, duration_pairs=pairs)


def save_specs(specs, path: str | Path) -> None:
    payload = [{"name": s.name, "kind": s.kind, "role": s.role} for s in specs]
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_specs(path: str | Path) -> list[ColumnSpec]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [ColumnSpec(d["name"], d["kind"], d["role"]) for d in payload]


def _schema_sidecar(csv_path: Path) -> Path:
    return csv_path.with_suffix(csv_path.suffix + ".schema.json")


def write_table(table: JobTable, path: str | Path) -> list[Path]:
    """Write a CSV plus a schema sidecar so the table can be reloaded as-is."""
    path = Path(path)
    write_csv(table, path)
    sidecar = _schema_sidecar(path)
    save_specs(table.columns, sidecar)
    return [path, sidecar]


def read_table(path: str | Path, specs: list[ColumnSpec] | None = None) -> JobTable:
    """Load a CSV using explicit specs or the schema sidecar written next to it."""
    path = Path(path)
    if specs is None:
        sidecar = _schema_sidecar(path)
        if not sidecar.exists():
            raise DataError(f"no column specs given and no schema sidecar at {sidecar}")
        specs = load_specs(sidecar)
    return load_csv(path, specs)
