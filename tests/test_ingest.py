import json
import math
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcmobo.core import ColumnSpec, DataError, build_table, tables_equal
from hpcmobo.ingest import (
    _CONVERTERS,
    _NA_TOKENS,
    derive_durations,
    load_csv,
    preprocess_fit,
    read_table,
    write_csv,
    write_table,
)
from hpcmobo.synthgen import SyntheticSpec, generate


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC_SPECS = [
    ColumnSpec("runtime", "numeric", "regression_target"),
    ColumnSpec("nodes", "numeric", "design_variable"),
    ColumnSpec("power", "power_array", "regression_target"),
]


def test_load_csv_marks_empty_cell_missing(tmp_path):
    path = _write(tmp_path, "runtime,nodes,power\n10,1,100;200\n,2,5\n30,4,1;2;3\n")
    table = load_csv(path, BASIC_SPECS)
    assert table.n_rows == 3
    assert table.mask("runtime").tolist() == [False, True, False]
    assert table.column("runtime")[1] is None


def test_load_csv_parses_power_array_field(tmp_path):
    path = _write(tmp_path, "runtime,nodes,power\n10,1,100;200;300\n")
    table = load_csv(path, BASIC_SPECS)
    assert table.spec("power") == ColumnSpec("power", "numeric", "regression_target")
    assert table.column("power") == [600.0]
    assert table.mask("power").tolist() == [False]


def test_power_array_parts_parse_as_float_parses_them(tmp_path):
    parts = ["1_0", " 2.5 ", "inf", "-Infinity", "1e400", "4.9e-324", "0.1", "-0.0", ".5"]
    rows = "".join(f'10,1,"{p};"\n' for p in parts)
    got = load_csv(_write(tmp_path, "runtime,nodes,power\n" + rows), BASIC_SPECS)
    totals = got.column("power")
    assert all(type(t) is float for t in totals)
    assert np.array(totals).tobytes() == np.array([float(p) for p in parts]).tobytes()


def test_load_csv_reports_bad_power_array_part_position(tmp_path):
    path = _write(tmp_path, "runtime,nodes,power\n10,1,1;2\n10,1,1;2;0x10;3\n")
    with pytest.raises(DataError, match="row 1, column 'power': '0x10'"):
        load_csv(path, BASIC_SPECS)


def test_load_csv_header_mismatch_lists_columns(tmp_path):
    path = _write(tmp_path, "runtime,power\n10,1\n")
    with pytest.raises(DataError, match="nodes"):
        load_csv(path, BASIC_SPECS)


def test_load_csv_rejects_a_header_that_repeats_a_column(tmp_path):
    path = _write(tmp_path, "a,a,b\n1,2,3\n")
    specs = [ColumnSpec("a", "numeric", "feature"), ColumnSpec("b", "numeric", "feature")]
    with pytest.raises(DataError, match=r"repeats columns \['a'\]"):
        load_csv(path, specs)


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    path = _write(tmp_path, "\ufeffruntime,nodes,power\n10,1,1;2\n")
    table = load_csv(path, BASIC_SPECS)
    assert table.names == ["runtime", "nodes", "power"]
    assert table.column("runtime") == [10.0]
    assert table.column("power") == [3.0]


def test_load_csv_holds_no_power_array_past_its_row(tmp_path):
    n_rows, width = 200, 5000
    cell = ";".join(["250.5"] * width)
    path = _write(tmp_path, "runtime,nodes,power\n" + f"10,1,{cell}\n" * n_rows)
    array_bytes = n_rows * width * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        table = load_csv(path, BASIC_SPECS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * array_bytes
    assert table.column("power") == [250.5 * width] * n_rows


# a present cell of each raw kind, as an in-memory table holds it: every value
# write_csv can write without it reading back as missing
_RAW_CELLS = {
    "numeric": st.floats(allow_nan=False),
    "string_numeric": st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.integers().map(str),
        st.floats(allow_nan=False).map(lambda x: f" {x!r} "),
    ),
    "datetime": st.builds(
        lambda dt, zone: dt.isoformat() + zone,
        st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
        st.sampled_from(["", "Z", "+05:30", "-08:00"]),
    ),
    "power_array": st.lists(st.floats(width=64), max_size=8)
    .filter(lambda xs: not (len(xs) == 1 and math.isnan(xs[0])))
    .map(np.array),
    "categorical": st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=8,
    ).filter(lambda text: text not in _NA_TOKENS),
}


@st.composite
def _raw_tables(draw):
    n_rows = draw(st.integers(1, 10))
    specs = [ColumnSpec(f"c_{kind}", kind, "feature") for kind in _RAW_CELLS]
    data = {spec.name: draw(st.lists(st.none() | _RAW_CELLS[spec.kind],
                                     min_size=n_rows, max_size=n_rows))
            for spec in specs}
    return specs, build_table(specs, data)


def _bits(values):
    return [v if v is None or isinstance(v, str) else np.float64(v).tobytes()
            for v in values]


@settings(max_examples=80, deadline=None)
@given(_raw_tables())
def test_a_written_table_reads_back_as_its_per_kind_conversion_bit_for_bit(
        tmp_path_factory, drawn):
    specs, table = drawn
    path = tmp_path_factory.mktemp("kinds") / "kinds.csv"
    write_csv(table, path)
    read = load_csv(path, specs)
    for spec in specs:
        assert read.spec(spec.name).kind == (
            "categorical" if spec.kind == "categorical" else "numeric")
        cells = table.column(spec.name)
        if spec.kind == "categorical":
            expected = cells
        else:
            convert = _CONVERTERS[spec.kind]
            expected = [None if v is None else convert(v, i, spec.name)
                        for i, v in enumerate(cells)]
        assert _bits(read.column(spec.name)) == _bits(expected), spec.kind


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 40), st.integers(1, 300))
def test_a_written_log_preprocesses_like_the_generated_table(tmp_path_factory, seed, n_jobs,
                                                             max_nodes):
    spec = SyntheticSpec(n_jobs=n_jobs, n_noise_features=1, node_range=(1, max_nodes),
                         seed=seed)
    table, _ = generate(spec)
    written = tmp_path_factory.mktemp("log") / "log.csv"
    write_table(table, written)
    assert tables_equal(preprocess_fit(read_table(written))[0], preprocess_fit(table)[0])


def test_a_nan_however_spelt_reads_as_missing(tmp_path):
    # "+nan" and "NAN" are no NA tokens: they read as a present NaN, which
    # the median took in, and failed only when the preprocessed table was written
    specs = [ColumnSpec("x", "numeric", "feature"), ColumnSpec("s", "string_numeric", "feature")]
    table = load_csv(_write(tmp_path, "x,s\n+nan,NAN\n-nan,nAn\n1,2\n"), specs)
    assert table.column("x") == [None, None, 1.0]
    assert table.column("s") == [None, None, 2.0]


def test_load_csv_reports_bad_cell_position(tmp_path):
    path = _write(tmp_path, "runtime,nodes,power\nabc,1,2\n")
    with pytest.raises(DataError, match="row 0.*runtime"):
        load_csv(path, BASIC_SPECS)


def test_csv_round_trip_reads_each_kind_as_its_number(tmp_path):
    specs = [
        ColumnSpec("runtime", "numeric", "regression_target"),
        ColumnSpec("nodes", "numeric", "design_variable"),
        ColumnSpec("power", "power_array", "regression_target"),
        ColumnSpec("queue", "categorical", "feature"),
        ColumnSpec("when", "datetime", "feature"),
        ColumnSpec("size", "string_numeric", "feature"),
    ]
    table = build_table(specs, {
        "runtime": [0.1 + 0.2, None, 1e-17, 12345.6789],
        "nodes": [1.0, 2.0, 3.0, 4.0],
        "power": [np.array([1.5, 2.5]), None, np.array([0.0]), np.array([7.0])],
        "queue": ["batch", None, "debug", "batch"],
        "when": ["1970-01-01T00:00:10Z", "2024-05-01T12:00:00Z", None, "1999-12-31T23:59:59Z"],
        "size": ["42.5", "1", None, " 7 "],
    })
    path = tmp_path / "round.csv"
    write_csv(table, path)
    again = load_csv(path, specs)
    # categorical cells read back as written, every other kind as its number
    assert [s.kind for s in again.columns] == ["numeric"] * 3 + ["categorical"] + ["numeric"] * 2
    assert again.column("runtime") == [0.1 + 0.2, None, 1e-17, 12345.6789]
    assert again.column("power") == [4.0, None, 0.0, 7.0]
    assert again.column("queue") == ["batch", None, "debug", "batch"]
    assert again.column("when") == [10.0, 1714564800.0, None, 946684799.0]
    assert again.column("size") == [42.5, 1.0, None, 7.0]


def _write_one_bad_cell(tmp_path, spec, cells):
    specs = [ColumnSpec("nodes", "numeric", "design_variable"), spec]
    table = build_table(specs, {"nodes": [1.0] * len(cells), spec.name: cells})
    path = tmp_path / "bad.csv"
    with pytest.raises(DataError, match=rf"row 1, column '{spec.name}'"):
        write_csv(table, path)


def test_write_csv_rejects_a_nan_that_would_read_back_as_missing(tmp_path):
    # written as `nan`, an NA token: the cell came back missing
    _write_one_bad_cell(tmp_path, ColumnSpec("x", "numeric", "feature"), [2.0, math.nan])


def test_write_csv_rejects_a_one_element_nan_power_array(tmp_path):
    spec = ColumnSpec("power", "power_array", "regression_target")
    _write_one_bad_cell(tmp_path, spec, [np.array([1.0, 2.0]), np.array([math.nan])])


def test_write_csv_rejects_a_string_that_is_an_na_token(tmp_path):
    _write_one_bad_cell(tmp_path, ColumnSpec("queue", "categorical", "feature"),
                        ["batch", "NA"])


def test_write_csv_names_the_row_of_a_bad_cell_past_the_first_block(tmp_path):
    cells = [1.0] * 200
    cells[150] = math.nan
    table = build_table([ColumnSpec("x", "numeric", "feature")], {"x": cells})
    with pytest.raises(DataError, match="row 150, column 'x'"):
        write_csv(table, tmp_path / "bad.csv")


@pytest.mark.parametrize("in_memory", [False, True], ids=["csv", "in_memory"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_a_power_array_whose_sum_overflows_totals_an_infinity(tmp_path, sign, in_memory):
    # the sum raised numpy's overflow RuntimeWarning instead
    samples = [sign * 1e308, sign * 1e308, 1.0]
    if in_memory:
        table, _ = preprocess_fit(build_table(
            BASIC_SPECS, {"runtime": [10.0], "nodes": [1.0], "power": [np.array(samples)]}))
    else:
        cell = ";".join(map(repr, samples))
        table = load_csv(_write(tmp_path, f"runtime,nodes,power\n10,1,{cell}\n"), BASIC_SPECS)
    assert table.column("power") == [sign * math.inf]


@pytest.mark.parametrize("in_memory", [False, True], ids=["csv", "in_memory"])
def test_a_power_array_whose_sum_meets_both_infinities_is_missing(tmp_path, in_memory):
    # inf + -inf raised numpy's invalid-value RuntimeWarning instead
    samples = [1e308, 1e308, -math.inf]
    if in_memory:
        table, _ = preprocess_fit(build_table(
            BASIC_SPECS, {"runtime": [10.0, 20.0], "nodes": [1.0, 2.0],
                          "power": [np.array(samples), np.array([5.0, 1.0])]}))
        assert table.column("power") == [6.0, 6.0]  # imputed by the median
    else:
        cell = ";".join(map(repr, samples))
        table = load_csv(_write(tmp_path, f"runtime,nodes,power\n10,1,{cell}\n20,2,5;1\n"),
                         BASIC_SPECS)
        assert table.column("power") == [None, 6.0]


def test_preprocess_sums_in_memory_power_arrays_and_imputes_an_empty_one():
    table = build_table(
        [ColumnSpec("p", "power_array", "regression_target"),
         ColumnSpec("n", "numeric", "design_variable")],
        {"p": [np.array([100.0, 200.0, 300.0]), np.array([]), np.array([0.0])],
         "n": [1.0, 2.0, 3.0]},
    )
    out, recipe = preprocess_fit(table)
    assert out.spec("p").kind == "numeric"
    # the empty array is missing, so it takes the median of {600, 0}
    assert recipe.numeric_medians["p"] == 300.0
    assert out.column("p") == [600.0, 300.0, 0.0]


def test_datetimes_read_and_preprocess_as_epoch_seconds(tmp_path):
    specs = [ColumnSpec("t", "datetime", "feature")]
    stamps = ["1970-01-01T00:00:10Z", "1970-01-02T00:00:00Z"]
    loaded = load_csv(_write(tmp_path, "t\n" + "\n".join(stamps) + "\n"), specs)
    in_memory, _ = preprocess_fit(build_table(specs, {"t": stamps}))
    for out in (loaded, in_memory):
        assert out.column("t") == [10.0, 86400.0]
        assert out.spec("t").kind == "numeric"


def test_a_bad_timestamp_names_its_row_and_column(tmp_path):
    specs = [ColumnSpec("t", "datetime", "feature")]
    with pytest.raises(DataError, match="row 1, column 't'"):
        load_csv(_write(tmp_path, "t\n1970-01-01T00:00:10Z\nnot-a-date\n"), specs)
    with pytest.raises(DataError, match="row 1, column 't'"):
        preprocess_fit(build_table(specs, {"t": ["1970-01-01T00:00:10Z", "not-a-date"]}))


def test_derive_durations_subtracts_and_flags_negative():
    table = build_table(
        [ColumnSpec("s", "numeric", "ignored"), ColumnSpec("e", "numeric", "ignored")],
        {"s": [100.0, 50.0, 200.0], "e": [160.0, 50.0, 100.0]},
    )
    out = derive_durations(table, [("s", "e", "dur")])
    assert out.column("dur") == [60.0, 0.0, None]
    assert out.mask("dur").tolist() == [False, False, True]


def test_derive_durations_missing_source_column():
    table = build_table([ColumnSpec("s", "numeric")], {"s": [1.0]})
    with pytest.raises(DataError, match="gone"):
        derive_durations(table, [("s", "gone", "d")])


def test_recipe_imputes_median_and_encodes_first_appearance():
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("kind", "categorical", "feature"),
         ColumnSpec("sn", "string_numeric", "feature"),
         ColumnSpec("n", "numeric", "design_variable")],
        {"x": [1.0, None, 3.0],
         "kind": ["gpu", "cpu", "gpu"],
         "sn": ["42.5", "1", "2"],
         "n": [1.0, 2.0, 3.0]},
    )
    out, recipe = preprocess_fit(table)
    assert out.column("x") == [1.0, 2.0, 3.0]  # median of {1, 3}
    assert out.column("kind") == [0.0, 1.0, 0.0]
    assert out.column("sn")[0] == 42.5
    assert recipe.numeric_medians["x"] == 2.0
    assert recipe.label_encodings["kind"] == {"gpu": 0, "cpu": 1}
    assert not any(out.mask(name).any() for name in out.names)


def test_recipe_mode_imputation_for_categoricals():
    table = build_table(
        [ColumnSpec("kind", "categorical", "feature"),
         ColumnSpec("n", "numeric", "design_variable")],
        {"kind": ["a", None, "b", "a"], "n": [1.0, 2.0, 3.0, 4.0]},
    )
    out, recipe = preprocess_fit(table)
    assert recipe.categorical_modes["kind"] == "a"
    assert out.column("kind") == [0.0, 0.0, 1.0, 0.0]


def test_recipe_entirely_missing_column_errors():
    table = build_table(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("n", "numeric", "design_variable")],
        {"x": [None, None], "n": [1.0, 2.0]},
    )
    with pytest.raises(DataError, match="entirely missing"):
        preprocess_fit(table)


def test_recipe_serialization_round_trip(tmp_path):
    table = build_table(
        [ColumnSpec("kind", "categorical", "feature"),
         ColumnSpec("n", "numeric", "design_variable"),
         ColumnSpec("s", "numeric", "ignored"),
         ColumnSpec("e", "numeric", "ignored")],
        {"kind": ["a", "b", None], "n": [1.0, None, 3.0], "s": [0.0, 1.0, 2.0],
         "e": [5.0, 5.0, 5.0]},
    )
    _, recipe = preprocess_fit(table, duration_pairs=[("s", "e", "d")])
    path = tmp_path / "recipe.json"
    recipe.save(path)
    saved = json.loads(path.read_text())
    assert saved == {
        "derived_duration_columns": [["s", "e", "d"]],
        "numeric_medians": recipe.numeric_medians,
        "categorical_modes": recipe.categorical_modes,
        "label_encodings": recipe.label_encodings,
        "imputation": ["median_numeric", "mode_categorical"],
        "power_reduction": "sum",
    }


def test_preprocess_drops_ignored_and_keeps_everything_else(tmp_path):
    specs = [
        ColumnSpec("id", "categorical", "ignored"),
        ColumnSpec("submit", "datetime", "feature"),
        ColumnSpec("start", "datetime", "ignored"),
        ColumnSpec("x", "numeric", "feature"),
        ColumnSpec("power", "power_array", "regression_target"),
        ColumnSpec("runtime", "numeric", "regression_target"),
        ColumnSpec("nodes", "numeric", "design_variable"),
    ]
    table = build_table(specs, {
        "id": ["a", "b"],
        "submit": ["1970-01-01T00:00:00Z", "1970-01-01T00:01:00Z"],
        "start": ["1970-01-01T00:00:30Z", "1970-01-01T00:02:00Z"],
        "x": [1.0, 2.0],
        "power": [np.array([5.0, 5.0]), np.array([7.0])],
        "runtime": [30.0, 60.0],
        "nodes": [1.0, 2.0],
    })
    out, _ = preprocess_fit(table, duration_pairs=[("submit", "start", "wait")])
    # column count = features + targets + design variable, no silent drops
    roles = [c.role for c in out.columns]
    assert roles.count("feature") == 3  # submit, x, wait
    assert roles.count("regression_target") == 2
    assert roles.count("design_variable") == 1
    assert len(out.columns) == 6
    assert out.column("wait") == [30.0, 60.0]
    assert not any(out.mask(name).any() for name in out.names)


def test_replay_determinism_bit_identical(tmp_path):
    csv_text = "runtime,nodes,power\n10,1,100;200\n,2,5\n30,4,1;2;3\n"
    p1 = _write(tmp_path, csv_text, "a.csv")
    p2 = _write(tmp_path, csv_text, "b.csv")
    t1, _ = preprocess_fit(load_csv(p1, BASIC_SPECS))
    t2, _ = preprocess_fit(load_csv(p2, BASIC_SPECS))
    assert tables_equal(t1, t2)
    out1 = tmp_path / "o1.csv"
    out2 = tmp_path / "o2.csv"
    write_csv(t1, out1)
    write_csv(t2, out2)
    assert out1.read_bytes() == out2.read_bytes()
