import re

import numpy as np
import pytest

from explainkit import (
    DataError,
    SchemaError,
    ag_break,
    dataset_from_rows,
    empirical_draw,
    fit_ols,
    load_csv,
    relaxed_prediction,
)
from explainkit.tabular import CATEGORICAL, NUMERIC, Column, Dataset, FeatureSchema


class TestLoadCsv:
    def test_wine_shape_and_fifth_row(self, wine):
        assert len(wine.columns) == 12
        assert wine.n_rows == 1599
        assert wine.columns[wine.response_index].name == "quality"
        expected = (7.40, 0.70, 0.00, 1.90, 0.076, 11, 34, 0.9978, 3.51, 0.56, 9.40)
        assert wine.observation(4) == pytest.approx(expected, abs=0)

    def test_semicolon_autodetected(self, wine):
        # detected from the header; names must not contain semicolons
        assert wine.feature_names[0] == "fixed_acidity"

    def test_minimal_two_column_file(self, tmp_path):
        f = tmp_path / "mini.csv"
        f.write_text("a,b\n1,2\n")
        ds = load_csv(str(f))
        assert ds.n_rows == 1
        assert [c.kind for c in ds.columns] == [NUMERIC, NUMERIC]
        assert ds.columns[0].values[0] == 1.0

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(str(f))

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(str(f))

    def test_non_utf8_file_rejected(self, tmp_path):
        f = tmp_path / "latin1.csv"
        f.write_bytes("a,y\nr\xe9d,1\nblue,2\n".encode("latin-1"))
        with pytest.raises(DataError, match="utf-8"):
            load_csv(str(f))

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n5,6\n")
        ds = load_csv(str(f), response_name="a")
        assert [c.name for c in ds.columns] == ["a", "b"]
        assert ds.response_values().tolist() == [1.0, 3.0, 5.0]

    def test_column_values_are_read_only_copies(self):
        source = np.array([1.0, 2.0])
        col = Column("a", NUMERIC, source)
        with pytest.raises(ValueError, match="read-only"):
            col.values[0] = 5.0
        source[1] = 3.0  # the caller's own array stays writable
        assert list(col.values) == [1.0, 2.0]  # and writing it leaves the column alone

    def test_dataset_does_not_change_with_its_callers_arrays(self):
        # a Dataset is immutable, and the relaxed-value slot keys a table by
        # the identity of its column arrays, so no caller array may alias one
        a = np.array([1.0, 2.0, 3.0])
        ds = Dataset((Column("a", NUMERIC, a), Column("y", NUMERIC, a * 2)), 1)
        a[0] = 99.0
        assert ds.columns[0].values.tolist() == [1.0, 2.0, 3.0]
        assert ds.observation(0) == (1.0,)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_duplicate_headers_rejected(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(str(f))

    def test_missing_cell_rejected(self, tmp_path):
        f = tmp_path / "gap.csv"
        f.write_text("a,b\n1,\n")
        with pytest.raises(DataError, match="missing cell"):
            load_csv(str(f))

    def test_categorical_inference(self, tmp_path):
        f = tmp_path / "cat.csv"
        f.write_text("color,code\nred,1\nblue,2\nred,3\n")
        ds = load_csv(str(f))
        assert ds.columns[0].kind == CATEGORICAL
        assert ds.columns[0].levels == ("red", "blue")
        assert ds.columns[1].kind == NUMERIC

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n\n\n3\n", "ragged row at line 5"),
            ("a,b\n1,2\n\n3,\n", "missing cell in column 'b' at line 4"),
            ("a,b\n \t\n1,2\n  \n3\n", "ragged row at line 5"),
            # a row spanning lines is named by the line it starts on
            ('a,b\n"x\n\ny",1\n\n"p\nq",\n', "missing cell in column 'b' at line 6"),
        ],
    )
    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path, text, message):
        f = tmp_path / "blanks.csv"
        f.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(str(f))

    def test_nan_text_is_not_numeric(self, tmp_path):
        f = tmp_path / "nan.csv"
        f.write_text("a\n1\nnan\n")
        ds = load_csv(str(f))
        assert ds.columns[0].kind == CATEGORICAL

    def test_quoted_cells_round_trip(self, tmp_path):
        f = tmp_path / "quoted.csv"
        f.write_text('name,v\n"a, b",1\nplain,2\n')
        ds = load_csv(str(f))
        assert ds.columns[0].values[0] == "a, b"

    def test_quoted_cell_keeps_its_line_breaks(self, tmp_path):
        f = tmp_path / "multiline.csv"
        f.write_bytes(b'name,v\n"a\n  \nb",1\nc,2\n')
        ds = load_csv(str(f))
        assert ds.columns[0].values.tolist() == ["a\n  \nb", "c"]
        assert ds.columns[1].values.tolist() == [1.0, 2.0]

    def test_delimiter_from_header_past_blank_lines(self, tmp_path):
        f = tmp_path / "semicolons.csv"
        f.write_text("\na;b\n1;2\n3;4\n")
        ds = load_csv(str(f))
        assert [c.name for c in ds.columns] == ["a", "b"]
        assert [c.kind for c in ds.columns] == [NUMERIC, NUMERIC]
        assert ds.columns[1].values.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize(
        "text", ["  \na;b\n1;2\n3;4\n", "a,b\n1,2\n  \n3,4\n", "a;b\n1;2\n\t\n3;4\n \n"]
    )
    def test_whitespace_only_lines_are_blank(self, tmp_path, text):
        f = tmp_path / "spaces.csv"
        f.write_text(text)
        ds = load_csv(str(f))
        assert [c.name for c in ds.columns] == ["a", "b"]
        assert ds.columns[1].values.tolist() == [2.0, 4.0]

    def test_tab_delimiter(self, tmp_path):
        f = tmp_path / "tabs.tsv"
        f.write_text("a\tb\n1\t2\n")
        ds = load_csv(str(f))
        assert len(ds.columns) == 2


class TestEmpiricalDraw:
    def test_constant_column(self):
        ds = dataset_from_rows(["a"], ["numeric"], [(7,), (7,), (7,)])
        rng = np.random.Generator(np.random.PCG64(123))
        assert all(empirical_draw(ds, 0, rng) == 7.0 for _ in range(20))

    def test_binomial_concentration(self):
        ds = dataset_from_rows(["a"], ["numeric"], [(0,), (1,)])
        rng = np.random.Generator(np.random.PCG64(42))
        draws = [empirical_draw(ds, 0, rng) for _ in range(10_000)]
        assert 0.47 <= np.mean(draws) <= 0.53

    def test_categorical_closure(self):
        ds = dataset_from_rows(
            ["a"], ["categorical"], [("a",), ("b",), ("c",), ("b",)]
        )
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            assert empirical_draw(ds, 0, rng) in {"a", "b", "c"}

    def test_seed_reproducibility(self, wine):
        a = np.random.Generator(np.random.PCG64(99))
        b = np.random.Generator(np.random.PCG64(99))
        seq_a = [empirical_draw(wine, 0, a) for _ in range(100)]
        seq_b = [empirical_draw(wine, 0, b) for _ in range(100)]
        assert seq_a == seq_b


class TestInvariants:
    def test_columns_must_align(self):
        with pytest.raises(DataError, match="differing lengths"):
            Dataset(
                columns=(
                    Column("a", NUMERIC, np.array([1.0, 2.0])),
                    Column("b", NUMERIC, np.array([1.0])),
                )
            )

    def test_nonfinite_cells_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Column("a", NUMERIC, np.array([1.0, np.nan]))

    def test_response_index_bounds(self):
        with pytest.raises(DataError, match="out of range"):
            Dataset(
                columns=(Column("a", NUMERIC, np.array([1.0])),),
                response_index=3,
            )

    @pytest.mark.parametrize("build", ["Dataset", "load_csv", "dataset_from_rows"])
    def test_response_must_leave_a_feature_column(self, build, tmp_path):
        with pytest.raises(DataError, match="no feature columns"):
            if build == "Dataset":
                Dataset(columns=(Column("y", NUMERIC, np.array([1.0, 2.0])),), response_index=0)
            elif build == "load_csv":
                f = tmp_path / "only.csv"
                f.write_text("y\n1\n2\n")
                load_csv(str(f), response_name="y")
            else:
                dataset_from_rows(["y"], [NUMERIC], [(1.0,), (2.0,)], response_name="y")

    def test_observation_excludes_response(self, wine):
        assert len(wine.observation(0)) == 11

    @pytest.mark.parametrize(
        "kinds, rows, match",
        [
            ([NUMERIC, NUMERIC], [(1.0,), (2.0, 3.0)], "has 1 cells, schema expects 2"),
            ([NUMERIC], [(1.0,), ("x",)], "expects a numeric cell, got 'x'"),
            (["ordinal"], [("x",)], "unknown column kind"),
        ],
    )
    def test_dataset_from_rows_bad_rows_are_data_errors(self, kinds, rows, match):
        with pytest.raises(DataError, match=match):
            dataset_from_rows(["a", "b"][: len(kinds)], kinds, rows)


class TestCategoricalLabels:
    """A categorical column stores str labels whatever type they arrive in,
    so an int-labelled table explains exactly like its str-labelled twin."""

    A = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    G = [1, 2, 3, 1, 2, 3, 1, 2]
    Y = [1.0, 2.5, 2.0, 1.8, 3.1, 2.2, 2.4, 3.4]

    def _table(self, labels):
        return Dataset(
            columns=(
                Column("a", NUMERIC, np.array(self.A)),
                Column("g", CATEGORICAL, np.array(labels, dtype=object)),
                Column("y", NUMERIC, np.array(self.Y)),
            ),
            response_index=2,
        )

    def _pair(self):
        as_int, as_str = self._table(self.G), self._table([str(v) for v in self.G])
        assert as_int.schema() == as_str.schema()
        return as_int, as_str

    def test_int_labels_are_stored_as_str(self):
        as_int, as_str = self._pair()
        assert as_int.columns[1].values.tolist() == as_str.columns[1].values.tolist()
        assert all(type(v) is str for v in as_int.columns[1].values)
        assert as_int.columns[1].levels == ("1", "2", "3")

    def test_fit_ols_matches(self):
        as_int, as_str = self._pair()
        a, b = fit_ols(as_int, "y"), fit_ols(as_str, "y")
        assert a.intercept == b.intercept
        assert a.coefficients.tolist() == b.coefficients.tolist()

    @pytest.mark.parametrize("fixed", [(), (0,)])
    def test_relaxed_prediction_matches(self, fixed):
        as_int, as_str = self._pair()
        model, x = fit_ols(as_str, "y"), as_str.observation(4)
        assert relaxed_prediction(model, as_int, x, fixed) == relaxed_prediction(
            model, as_str, x, fixed
        )

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_ag_break_matches(self, direction):
        as_int, as_str = self._pair()
        model, x = fit_ols(as_str, "y"), as_str.observation(4)
        assert (
            ag_break(model, as_int, x, direction=direction).to_json_dict()
            == ag_break(model, as_str, x, direction=direction).to_json_dict()
        )


class TestWithResponse:
    def _table(self):
        return dataset_from_rows(
            ["a", "g", "y"], [NUMERIC, CATEGORICAL, NUMERIC], [(1.0, "u", 2.0), (3.0, "v", 4.0)]
        )

    @pytest.mark.parametrize("response", [2, "y"])
    def test_index_or_name_designates_the_response(self, response):
        ds = self._table().with_response(response)
        assert ds.response_index == 2
        assert ds.feature_names == ("a", "g")
        assert ds.response_values().tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("response", [11, "quality"])
    def test_designated_response_returns_self(self, wine, response):
        assert wine.with_response(response) is wine

    @pytest.mark.parametrize(
        "response, match",
        [("nope", "not found"), (0, "disagrees"), ("fixed_acidity", "disagrees")],
    )
    def test_bad_response_against_designated_one(self, wine, response, match):
        with pytest.raises(DataError, match=match):
            wine.with_response(response)

    @pytest.mark.parametrize("response", [3, -1])
    def test_bad_index_on_undesignated_table(self, response):
        with pytest.raises(DataError, match="out of range"):
            self._table().with_response(response)

    def test_dataset_from_rows_unknown_response_rejected(self):
        with pytest.raises(DataError, match="not found"):
            dataset_from_rows(["a", "y"], [NUMERIC, NUMERIC], [(1.0, 2.0)], response_name="z")


class TestFeatureSchemaColumns:
    SCHEMA = FeatureSchema(("a", "g"), (NUMERIC, CATEGORICAL), (None, ("u", "v")))

    def test_to_columns_validates_and_splits_by_kind(self):
        a, g = self.SCHEMA.to_columns([("1", "u"), (2, "v")])
        assert a.dtype == float and a.tolist() == [1.0, 2.0]
        assert g.dtype == object and g.tolist() == ["u", "v"]
        with pytest.raises(SchemaError, match="unknown label"):
            self.SCHEMA.to_columns([(1.0, "w")])

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_row_inverts_to_columns(self, i):
        rows = [("1", "u"), (2, "v"), (-0.25, "u")]
        cells = self.SCHEMA.row(self.SCHEMA.to_columns(rows), i)
        assert cells == self.SCHEMA.validate_observation(rows[i])
        assert [type(c) for c in cells] == [float, str]

    @pytest.mark.parametrize("n", [0, 3])
    def test_repeat_copies_the_normalised_observation(self, n):
        a, g = self.SCHEMA.repeat(("1.5", "v"), n)
        assert a.dtype == float and a.tolist() == [1.5] * n
        assert g.dtype == object and g.tolist() == ["v"] * n
        a[:] = 0.0  # each call returns fresh, writable arrays
        assert self.SCHEMA.repeat(("1.5", "v"), n)[0].tolist() == [1.5] * n


def numbers(name, *values):
    return Column(name, NUMERIC, np.array(values, dtype=float))


ERROR_PATHS = {
    "empty-name": (lambda: numbers("", 1.0), "column names must be non-empty"),
    "outside-levels": (
        lambda: Column("c", CATEGORICAL, np.array(["x", "z"], dtype=object), ("x", "y")),
        "column 'c' has labels outside its level set: ['z']",
    ),
    "no-columns": (lambda: Dataset(()), "dataset needs at least one column"),
    "no-rows": (lambda: Dataset((numbers("a"),)), "dataset needs at least one row"),
    "duplicate-names": (
        lambda: Dataset((numbers("a", 1.0), numbers("b", 2.0), numbers("a", 3.0))),
        "duplicate column names: ['a']",
    ),
    "observation-range": (
        lambda: Dataset((numbers("a", 1.0, 2.0),)).observation(2),
        "row 2 out of range for 2 rows",
    ),
    "no-response": (
        lambda: Dataset((numbers("a", 1.0),)).response_values(),
        "dataset has no response column",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_path(case):
    call, message = ERROR_PATHS[case]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()
