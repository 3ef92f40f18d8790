"""Round-trip tests for CSV persistence."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import load_csv, save_csv
from repro.data.relation import Relation, Schema


@pytest.fixture
def relation():
    schema = Schema.of(job="nominal", age="interval", score="ordinal")
    return Relation.from_rows(
        schema,
        [("dba", 30.5, 1), ("mgr", 45.25, 3), ("dev, senior", 28.0, 2)],
    )


class TestRoundTrip:
    def test_schema_preserved(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert loaded.schema == relation.schema

    def test_values_preserved_exactly(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert list(loaded.rows()) == list(relation.rows())

    def test_nominal_with_comma_survives(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert loaded.row(2)[0] == "dev, senior"

    def test_float_precision_survives(self, tmp_path):
        schema = Schema.of(x="interval")
        relation = Relation(schema, {"x": [np.pi, 1e-17, -2.5e300]})
        path = tmp_path / "r.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.column("x"), relation.column("x"))

    def test_empty_relation_round_trip(self, tmp_path):
        relation = Relation.empty(Schema.of(a="interval", b="nominal"))
        path = tmp_path / "empty.csv"
        save_csv(relation, path)
        loaded = load_csv(path)
        assert len(loaded) == 0
        assert loaded.schema == relation.schema


class TestErrors:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="schema header"):
            load_csv(path)

    def test_malformed_schema_entry(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a\na\n1\n")
        with pytest.raises(ValueError, match="malformed"):
            load_csv(path)

    def test_header_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a:interval\nwrong\n1\n")
        with pytest.raises(ValueError, match="does not match"):
            load_csv(path)

    def test_empty_file_names_path_and_problem(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="file is empty"):
            load_csv(path)
        with pytest.raises(ValueError, match=path.name):
            load_csv(path)

    def test_schema_only_file_names_missing_header_row(self, tmp_path):
        path = tmp_path / "schema-only.csv"
        path.write_text("# a:interval,b:nominal\n")
        with pytest.raises(ValueError, match="ends after the schema line"):
            load_csv(path)

    def test_header_only_file_loads_empty_relation(self, tmp_path):
        path = tmp_path / "header-only.csv"
        path.write_text("# a:interval\na\n")
        assert len(load_csv(path)) == 0

    def test_long_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("# a:interval,b:interval\na,b\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=rf"{path.name}:4: row has 3 cells"):
            load_csv(path)

    def test_short_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# a:interval,b:interval\na,b\n1\n")
        with pytest.raises(ValueError, match=rf"{path.name}:3: row has 1 cells"):
            load_csv(path)

    def test_unparseable_float_names_cell_and_attribute(self, tmp_path):
        path = tmp_path / "badfloat.csv"
        path.write_text("# a:interval\na\n1.0\nbogus\n")
        with pytest.raises(
            ValueError, match=r":4: unparseable value 'bogus' for .*'a'"
        ):
            load_csv(path)

    def test_errors_are_ingest_errors(self, tmp_path):
        from repro.resilience.errors import IngestError

        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            load_csv(path)


class TestLoadPlainCsv:
    def test_kind_inference(self, tmp_path):
        from repro.data.io import load_plain_csv
        from repro.data.relation import AttributeKind

        path = tmp_path / "plain.csv"
        path.write_text("job,age,salary\ndba,30,40000\nmgr,45,90000\n")
        relation = load_plain_csv(path)
        assert relation.schema["job"].kind is AttributeKind.NOMINAL
        assert relation.schema["age"].kind is AttributeKind.INTERVAL
        assert relation.column("salary")[1] == 90000.0

    def test_mixed_numeric_text_column_is_nominal(self, tmp_path):
        from repro.data.io import load_plain_csv
        from repro.data.relation import AttributeKind

        path = tmp_path / "plain.csv"
        path.write_text("code\n12\nabc\n")
        relation = load_plain_csv(path)
        assert relation.schema["code"].kind is AttributeKind.NOMINAL

    def test_empty_file_rejected(self, tmp_path):
        from repro.data.io import load_plain_csv

        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_plain_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        from repro.data.io import load_plain_csv

        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="cells"):
            load_plain_csv(path)

    def test_all_blank_column_is_nominal(self, tmp_path):
        from repro.data.io import load_plain_csv
        from repro.data.relation import AttributeKind

        path = tmp_path / "blank.csv"
        path.write_text("a,b\n,1\n,2\n")
        relation = load_plain_csv(path)
        assert relation.schema["a"].kind is AttributeKind.NOMINAL


def _write_numeric(path, rows, width):
    names = [f"c{j}" for j in range(width)]
    lines = ["# " + ",".join(f"{name}:interval" for name in names), ",".join(names)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _row_parsed(path):
    """The row parser alone, as lenient and out-of-core loads use it."""
    from repro.data import io

    return io._load_rows(path, None, False, None, None)


def _traced_load(path, **kwargs):
    """``load_csv`` under tracing; returns ``(result, data.load spans)``."""
    from repro.obs import trace

    tracer = trace.enable_tracing(capacity=256)
    try:
        loaded = load_csv(path, **kwargs)
    finally:
        trace.disable_tracing()
    return loaded, [s for s in tracer.spans() if s.name == "data.load"]


def _assert_bitwise_equal(left, right):
    assert left.schema == right.schema
    assert len(left) == len(right)
    for name in left.schema.names:
        a = np.asarray(left.column(name), dtype=np.float64)
        b = np.asarray(right.column(name), dtype=np.float64)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


#: Cells ``float()`` accepts that are easy to get subtly wrong: signed
#: zeros, subnormals, overflow, every NaN/inf spelling, padding, and the
#: underscore grouping only ``float()`` (not ``np.loadtxt``) accepts.
_SPELLINGS = [
    "-0.0", "0.0", "5e-324", "-2.225073858507201e-308", "1e400", "-1e400",
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+inf", "Infinity",
    "-Infinity", "iNfInItY", " 1.5", "2.5 ", ".5", "5.", "+3", "1E3", "1_000",
]
_cells = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=-1e-306, max_value=1e-306).map(repr),
    st.sampled_from(_SPELLINGS),
    st.integers(-10**7, 10**7).map(lambda value: f"{value:_}"),
)


class TestVectorIngest:
    """The ``np.loadtxt`` fast path returns bitwise the row parser's columns."""

    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=8),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_columns_bitwise_equal_to_row_parser(self, shaped):
        width, rows = shaped
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "cells.csv"
            _write_numeric(path, rows, width)
            loaded, (load_span,) = _traced_load(path)
            _assert_bitwise_equal(loaded, _row_parsed(path))
        underscored = any("_" in cell for row in rows for cell in row)
        assert load_span.attributes["parser"] == ("rows" if underscored else "vector")

    def test_underscore_grouping_comes_back_through_row_parser(self, tmp_path):
        path = tmp_path / "grouped.csv"
        _write_numeric(path, [["1_000"], ["2.5"]], 1)
        loaded, (load_span,) = _traced_load(path)
        assert load_span.attributes["parser"] == "rows"
        assert loaded.column("c0").tolist() == [1000.0, 2.5]

    def test_columns_are_contiguous_float64(self, tmp_path):
        path = tmp_path / "wide.csv"
        _write_numeric(path, [["1", "2", "3"], ["4", "5", "6"]], 3)
        loaded = load_csv(path)
        for name in loaded.schema.names:
            column = loaded.column(name)
            assert column.dtype == np.float64
            assert column.flags.c_contiguous
        assert loaded.column("c1").tolist() == [2.0, 5.0]

    def test_blank_lines_skipped_like_row_parser(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("# a:interval,b:interval\na,b\n\n1,2\n\r\n3,4\n\n")
        loaded, (load_span,) = _traced_load(path)
        assert load_span.attributes["parser"] == "vector"
        _assert_bitwise_equal(loaded, _row_parsed(path))
        assert len(loaded) == 2

    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,2\nbogus,3\n", 4),      # a bad cell
            ("1,2\n3\n", 4),            # a ragged row
            ("1,2\n3,4,5\n", 4),        # a long row
            ("1,2,3\n4,5,6\n", 3),      # every row one cell too wide
            ("1\n2\n", 3),              # every row one cell short
            ("1,2\n   \n3,4\n", 4),     # a whitespace-only line
            ("   \n1,2\n", 3),          # ... as the first body line
            ("1,2\n# note,3\n", 4),     # a body line starting with '#'
            ("1,2\n\"3\",4\n", None),   # quoted cells parse; loadtxt rejects them
        ],
    )
    def test_rejected_bodies_fall_back_to_row_parser(self, tmp_path, body, line):
        from repro.resilience.errors import IngestError

        path = tmp_path / "body.csv"
        path.write_text("# a:interval,b:interval\na,b\n" + body)
        if line is None:
            loaded, (load_span,) = _traced_load(path)
            assert load_span.attributes["parser"] == "rows"
            _assert_bitwise_equal(loaded, _row_parsed(path))
            return
        with pytest.raises(IngestError) as fast:
            load_csv(path)
        with pytest.raises(IngestError) as rows:
            _row_parsed(path)
        assert str(fast.value) == str(rows.value)
        assert f"{path}:{line}: " in str(fast.value)

    def test_header_only_file_loads_empty_without_warning(self, tmp_path):
        path = tmp_path / "header-only.csv"
        path.write_text("# a:interval,b:interval\na,b\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded, (load_span,) = _traced_load(path)
        assert len(loaded) == 0
        assert load_span.attributes == {
            "path": str(path), "parser": "vector", "rows": 0, "columns": 2,
        }

    def test_lenient_out_of_core_and_nominal_loads_use_row_parser(self, tmp_path):
        from repro.resilience.sink import Quarantine

        numeric = tmp_path / "numeric.csv"
        _write_numeric(numeric, [["1", "2"], ["3", "4"]], 2)
        nominal = tmp_path / "nominal.csv"
        save_csv(
            Relation.from_rows(Schema.of(x="interval", job="nominal"), [(1.0, "a")]),
            nominal,
        )
        cases = [
            (numeric, {"sink": Quarantine()}),
            (numeric, {"out_of_core": True, "spill_dir": tmp_path / "spill"}),
            (nominal, {}),
        ]
        for path, kwargs in cases:
            loaded, (load_span,) = _traced_load(path, **kwargs)
            assert load_span.attributes["parser"] == "rows"
            assert load_span.attributes["rows"] == len(loaded)

    def test_traced_load_emits_exactly_one_span(self, tmp_path):
        path = tmp_path / "one.csv"
        _write_numeric(path, [["1", "2"], ["3", "4"], ["5", "6"]], 2)
        _, spans = _traced_load(path)
        (load_span,) = spans
        assert load_span.attributes["rows"] == 3
        assert load_span.attributes["columns"] == 2
        assert load_span.attributes["parser"] == "vector"


def _row_writer_csv(relation, path):
    """The row-at-a-time writer ``save_csv`` replaced, frozen: every cell
    read through ``Relation.rows()`` and rendered on its own."""

    def render(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    import csv

    with Path(path).open("w", newline="") as handle:
        schema_line = ",".join(
            f"{attribute.name}:{attribute.kind.value}" for attribute in relation.schema
        )
        handle.write(f"# {schema_line}\n")
        writer = csv.writer(handle)
        writer.writerow(relation.schema.names)
        for row in relation.rows():
            writer.writerow([render(value) for value in row])


_EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16,
                1e-5, 0.1, -2.5e300]
_kind_cells = {
    "interval": st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=True),
    "ordinal": st.sampled_from(_EDGE_FLOATS) | st.integers(-10**6, 10**6).map(float),
    "nominal": st.sampled_from(["", " ", "a,b", 'say "hi"', "line\nbreak", "cr\rlf",
                                "plain", "x y"]) | st.text(max_size=6),
}


@st.composite
def _relations(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_kind_cells)), min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    rows = draw(st.integers(0, 12))
    schema = Schema.of(**dict(zip(names, kinds)))
    columns = {
        name: draw(st.lists(_kind_cells[kind], min_size=rows, max_size=rows))
        for name, kind in zip(names, kinds)
    }
    return Relation(schema, columns)


class TestColumnWriter:
    @settings(max_examples=150, deadline=None)
    @given(_relations())
    def test_bytes_equal_the_row_writer(self, relation):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
            save_csv(relation, new)
            _row_writer_csv(relation, old)
            assert new.read_bytes() == old.read_bytes()

    def test_numpy_scalars_in_a_nominal_column(self, tmp_path):
        schema = Schema.of(tag="nominal", x="interval")
        relation = Relation(schema, {
            "tag": [np.float32(0.1), np.float64(2.5), np.int64(3), "a,b"],
            "x": [1.0, -0.0, float("nan"), 5e-324],
        })
        save_csv(relation, tmp_path / "new.csv")
        _row_writer_csv(relation, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
