"""CSV ingestion and the numeric-view preprocessing steps.

Raw job logs arrive as RFC-4180 CSV with power arrays packed into single
";"-separated fields. One table, `_CONVERTERS`, says how a present cell of
each raw column kind becomes a number: numeric cells go through float() (a
NaN, however spelt, is missing), ISO-8601 datetimes become epoch seconds,
and a power array becomes the total of its samples; categorical cells stay
text until the recipe encodes them.

`load_csv` sums each power array as it parses its row, so ingest memory grows
with rows, not with rows times nodes, and converts every other column once
after the last row: a loaded table is numeric except for its categorical
columns. `preprocess_fit` applies the same table to any column of an
in-memory table still of a raw kind, then derives configured durations,
imputes, and label-encodes, leaving a fully numeric table with no missing
(None) cell.

Reading and writing pay for little beyond float conversion, with the bytes
csv would give. `load_csv` splits a line that holds no '"' at its commas and
hands only a line that holds one to csv.reader. `write_csv` formats a
column's cells with one repr of their list when all are Python floats,
joins a block of rows whose cells are all floats by hand, and writes the
header and every other block with csv.writer.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import ColumnSpec, DataError, JobTable

ARRAY_SEP = ";"
_NA_TOKENS = {"", "NA", "na", "NaN", "nan", "null", "None"}
# csv's field size cap while a CSV is read: the default, 128 KiB, holds a
# power array of about 6,900 samples; this one, the largest that fits a C
# long everywhere, holds any the design bounds allow
_FIELD_SIZE_LIMIT = 2**31 - 1


def _parse_float(cell, row: int, name: str) -> float | None:
    """float(cell), or None (missing) for a NaN however it is spelt, as for
    the NA tokens; a cell float() rejects is a DataError naming its row and
    column."""
    try:
        value = float(cell)
    except (TypeError, ValueError) as exc:
        raise DataError(
            f"unparseable numeric cell at row {row}, column {name!r}: {cell!r}"
        ) from exc
    return None if math.isnan(value) else value


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


def _power_total(cell, row: int, name: str) -> float | None:
    """The total of one power-array cell, or None (missing) when it is empty
    or a sample is NaN, so preprocessing imputes it like any missing cell.

    `cell` is the field's ";"-separated text or an in-memory array; numpy
    converts each token through float(), so tokens and the floats they spell
    give the same bits. The start value -0.0 changes no other total but keeps
    an all -0.0 array's sign, which numpy's default start of +0.0 drops. A
    sum that overflows is an infinite total, like an infinite sample, and
    one that meets both infinities is NaN, so the cell is missing.
    """
    parts = cell
    if isinstance(cell, str):
        parts = cell.split(ARRAY_SEP)
        if "" in parts:
            parts = [p for p in parts if p != ""]
    if len(parts) == 0:
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(np.asarray(parts, dtype=float), initial=-0.0))
    except ValueError:
        for p in parts:  # name the first sample float() rejects
            _parse_float(p, row, name)
        raise
    return None if math.isnan(total) else total


# How a present cell of each raw column kind becomes a number, called as
# convert(cell, row, column name). Categorical cells stay text until the
# recipe encodes them.
_CONVERTERS = {
    "numeric": _parse_float,
    "datetime": _parse_iso8601_utc,
    "power_array": _power_total,
}


def _convert_column(spec: ColumnSpec, values: list) -> list:
    """The cells of one column converted by its kind's entry in
    `_CONVERTERS`; a missing (None) cell stays missing."""
    convert = _CONVERTERS[spec.kind]
    return [None if v is None else convert(v, i, spec.name) for i, v in enumerate(values)]


def _records(lines):
    """The records of a CSV file opened with newline="", as csv.reader gives
    them. A line that holds no '"' is split at its commas (an empty line is
    the empty record); a line that holds one goes to csv.reader with the
    lines after it, so a quoted field that spans lines reads, and csv.reader
    stays the only parser of quoted records."""
    for line in lines:
        if '"' in line:
            yield next(csv.reader(itertools.chain((line,), lines)))
        else:
            line = line.rstrip("\r\n")
            yield line.split(",") if line else []


@contextmanager
def _csv_field_size_limit(limit: int):
    """csv's field size cap raised to `limit` inside the block, then restored."""
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def load_csv(path: str | Path, specs: list[ColumnSpec]) -> JobTable:
    """Load a CSV whose header matches `specs` by name, in any column order.

    Records are read as csv.reader reads them (`_records`): a quote-free line
    is split at its commas, and a line holding a '"' goes to csv.reader,
    whose 128 KiB field cap is lifted for the read, so a power array of any
    width reads. A record csv.reader rejects is a DataError naming its row.
    Each power_array cell is summed as its row is read, so no array outlives
    its row, and every other non-categorical column is converted once after
    the last row (`_CONVERTERS`). The returned table is numeric except for
    its categorical columns; an NA token or an empty array is missing. A
    leading UTF-8 byte-order mark is skipped; a header that names a column
    twice is a DataError.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with _csv_field_size_limit(_FIELD_SIZE_LIMIT), \
            path.open(newline="", encoding="utf-8-sig") as fh:
        records = _records(fh)
        try:
            header = next(records)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}") from None
        except csv.Error as exc:
            raise DataError(f"unreadable header in {path}: {exc}") from exc
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
        row_i = -1
        try:
            for row_i, row in enumerate(records):
                if len(row) != len(header):
                    raise DataError(
                        f"row {row_i} has {len(row)} cells, expected {len(header)}"
                    )
                for j, spec in enumerate(specs):
                    token = row[positions[j]]
                    if token in _NA_TOKENS:
                        token = None
                    elif spec.kind == "power_array":
                        token = _power_total(token, row_i, spec.name)
                    cells[j].append(token)
        except csv.Error as exc:
            # only reading a record raises csv.Error, so the record that
            # failed is the one after the last row read
            raise DataError(f"unreadable record at row {row_i + 1} of {path}: {exc}") from exc
    for j, spec in enumerate(specs):
        if spec.kind not in ("categorical", "power_array"):
            cells[j] = _convert_column(spec, cells[j])
    columns = tuple(s if s.kind == "categorical" else ColumnSpec(s.name, "numeric", s.role)
                    for s in specs)
    return JobTable(columns, tuple(cells))


def _all_floats(values: list) -> bool:
    return all(type(v) is float for v in values)


def _format_column(values: list, name: str, first_row: int) -> list[str]:
    """The CSV text of each cell of a column from row `first_row` on: floats
    by repr, so a write/read cycle is bit-identical, a power array as its
    samples joined by ";", and a missing cell or an empty array as an empty
    field, which reads back as missing. Cells that are all Python floats
    take one repr of their list, which holds each cell's repr. A present
    cell that would read back as missing (a NaN, or a string that is an NA
    token) is a DataError naming its row and column."""
    if _all_floats(values):
        texts = repr(values)[1:-1].split(", ")
    else:
        texts = ["" if v is None
                 else ARRAY_SEP.join(map(repr, np.asarray(v, dtype=float).tolist()))
                 if isinstance(v, np.ndarray)
                 else repr(float(v)) if isinstance(v, (float, np.floating))
                 else str(v)
                 for v in values]
    if _NA_TOKENS.isdisjoint(texts):
        return texts
    for row, (value, text) in enumerate(zip(values, texts), first_row):
        if (text in _NA_TOKENS and value is not None
                and not (isinstance(value, np.ndarray) and value.size == 0)):
            raise DataError(f"cell at row {row}, column {name!r} is not missing but "
                            f"would be written as {text!r}, which reads back as missing")
    return texts


# rows formatted at a time: a wide log's power-array text stays a few
# hundred kilobytes instead of the whole file's
_WRITE_BLOCK_ROWS = 64


def write_csv(table: JobTable, path: str | Path) -> None:
    """Write a JobTable back to CSV, each block of rows column by column
    (`_format_column`). A block whose cells are all Python floats is joined
    by hand: a float's repr holds no comma, quote or line break and is never
    empty, so csv.writer would quote nothing there. The header and every
    other block go through csv.writer."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for start in range(0, table.n_rows, _WRITE_BLOCK_ROWS):
            block = [col[start:start + _WRITE_BLOCK_ROWS] for col in table.cells]
            rows = zip(*(_format_column(values, name, start)
                         for name, values in zip(table.names, block)))
            if all(map(_all_floats, block)):
                fh.write("".join(",".join(row) + "\r\n" for row in rows))
            else:
                writer.writerows(rows)
            # free this block's text before the next block is formatted
            del rows


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


def preprocess_fit(
    table: JobTable, duration_pairs: list[tuple[str, str, str]] | None = None
) -> tuple[JobTable, PreprocessRecipe]:
    """Fit the numeric view of `table` and apply it.

    Columns still of a raw kind (an in-memory table's datetimes and power
    arrays) go through `_CONVERTERS`, as `load_csv`'s do; then the
    configured durations are derived, ignored-role columns dropped
    (explicitly, by role), missing numeric cells filled with the median and
    missing categorical cells with the mode, and categoricals label-encoded.
    The returned table is fully numeric with no missing cell.
    """
    pairs = list(duration_pairs or [])
    out = table
    for spec in table.columns:
        if spec.kind not in ("numeric", "categorical"):
            out = out.replace_column(spec.name, ColumnSpec(spec.name, "numeric", spec.role),
                                     _convert_column(spec, out.column(spec.name)))
    out = derive_durations(out, pairs)
    recipe = PreprocessRecipe(derived_duration_columns=pairs)
    out = out.drop_columns([c.name for c in out.columns if c.role == "ignored"])

    for spec in list(out.columns):
        col = out.column(spec.name)
        present = [v for v in col if v is not None]
        if not present:
            raise DataError(f"column {spec.name!r} is entirely missing; cannot impute")
        if spec.kind == "numeric":
            median = float(np.median([float(v) for v in present]))
            recipe.numeric_medians[spec.name] = median
            if len(present) < len(col):
                out = out.replace_column(spec.name, spec,
                                         [median if v is None else float(v) for v in col])
        else:
            # the first of the most frequent values to appear
            mode = Counter(present).most_common(1)[0][0]
            recipe.categorical_modes[spec.name] = mode
            filled = [mode if v is None else v for v in col]
            codes: dict[str, int] = {}
            for v in filled:
                if v not in codes:
                    codes[v] = len(codes)
            recipe.label_encodings[spec.name] = codes
            out = out.replace_column(spec.name, ColumnSpec(spec.name, "numeric", spec.role),
                                     [float(codes[v]) for v in filled])
    return out, recipe


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
