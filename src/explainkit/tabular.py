"""Columnar tabular data model: CSV ingestion and empirical marginals.

A :class:`Dataset` is an immutable, fully materialized table of numeric and
categorical columns. One column may be designated as the response; all other
columns are "features" and keep their file order everywhere downstream
(attributions, traces, schemas).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, SchemaError

Cell = float | str

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_DELIMITERS = (",", ";", "\t")


@dataclass(frozen=True, eq=False)
class Column:
    """A named column of homogeneous cells.

    Numeric columns hold finite float64 values; categorical columns hold
    `str` labels (other values are converted with `str`) plus the explicit
    level set covering them. `values` is read-only, so a scorer handed the
    column cannot change the table.
    """

    name: str
    kind: str
    values: np.ndarray
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise DataError("column names must be non-empty")
        if self.kind == NUMERIC:
            arr = np.asarray(self.values, dtype=float)
            if arr.size and not np.all(np.isfinite(arr)):
                raise DataError(f"column {self.name!r} contains non-finite numeric cells")
            object.__setattr__(self, "levels", None)
        elif self.kind == CATEGORICAL:
            # labels are stored as str, the type of a categorical observation cell
            labels = [str(v) for v in self.values]
            arr = np.array(labels, dtype=object)
            levels = self.levels
            if levels is None:
                levels = dict.fromkeys(labels)  # level order: first appearance
            elif missing := sorted(set(labels).difference(levels)):
                raise DataError(
                    f"column {self.name!r} has labels outside its level set: {missing}"
                )
            object.__setattr__(self, "levels", tuple(levels))
        else:
            raise DataError(f"unknown column kind {self.kind!r}")
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FeatureSchema:
    """Feature names, kinds, and categorical level sets, in dataset order."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    levels: tuple[tuple[str, ...] | None, ...]

    @property
    def n_features(self) -> int:
        return len(self.names)

    def validate_observation(self, obs: Sequence[Cell]) -> tuple[Cell, ...]:
        """Check arity and cell types of one observation; returns it normalized."""
        if len(obs) != self.n_features:
            raise SchemaError(
                f"observation has {len(obs)} cells, schema expects {self.n_features}"
            )
        out: list[Cell] = []
        for name, kind, levels, cell in zip(self.names, self.kinds, self.levels, obs):
            if kind == NUMERIC:
                try:
                    v = float(cell)
                except (TypeError, ValueError):
                    raise SchemaError(f"feature {name!r} expects a numeric cell, got {cell!r}")
                if not math.isfinite(v):
                    raise SchemaError(f"feature {name!r} got non-finite value {cell!r}")
                out.append(v)
            else:
                label = str(cell)
                if levels is not None and label not in levels:
                    raise SchemaError(f"feature {name!r} got unknown label {label!r}")
                out.append(label)
        return tuple(out)

    def to_columns(self, rows: Sequence[Sequence[Cell]]) -> list[np.ndarray]:
        """Validate observations and return them as one array per feature:
        float for numeric features, object (labels) for categorical ones."""
        normalized = [self.validate_observation(r) for r in rows]
        return [
            np.array([r[j] for r in normalized], dtype=float if kind == NUMERIC else object)
            for j, kind in enumerate(self.kinds)
        ]

    def repeat(self, obs: Sequence[Cell], n: int) -> list[np.ndarray]:
        """One validated observation repeated n times, one array per feature."""
        return [np.repeat(col, n) for col in self.to_columns([obs])]

    def row(self, columns: Sequence[np.ndarray], i: int) -> tuple[Cell, ...]:
        """Cells of row i of feature columns; the inverse of `to_columns`."""
        return tuple(_cell(kind, col[i]) for kind, col in zip(self.kinds, columns))


def _cell(kind: str, value) -> Cell:
    """The observation cell of one stored value: a float or a str label."""
    return float(value) if kind == NUMERIC else str(value)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable columnar table, optionally with a designated response column.

    A designated response must leave at least one feature column.
    """

    columns: tuple[Column, ...]
    response_index: int | None = None
    _feature_indices: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset needs at least one column")
        lengths = {len(c) for c in self.columns}
        if len(lengths) != 1:
            raise DataError(f"columns have differing lengths: {sorted(lengths)}")
        if lengths == {0}:
            raise DataError("dataset needs at least one row")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate column names: {dupes}")
        if self.response_index is not None and not (
            0 <= self.response_index < len(self.columns)
        ):
            raise DataError(f"response index {self.response_index} out of range")
        if self.response_index is not None and len(self.columns) == 1:
            raise DataError(f"response column {names[0]!r} leaves no feature columns")
        feats = tuple(
            i for i in range(len(self.columns)) if i != self.response_index
        )
        object.__setattr__(self, "_feature_indices", feats)

    def with_response(self, response: int | str) -> "Dataset":
        """This table with `response`, a column index or name, as its response.

        Returns self when that response is already designated. Raises
        DataError for an unknown column or one that disagrees with the
        designated response.
        """
        if isinstance(response, str):
            names = [c.name for c in self.columns]
            if response not in names:
                raise DataError(f"response column {response!r} not found")
            response = names.index(response)
        if self.response_index is None:
            return Dataset(self.columns, response)
        if response != self.response_index:
            raise DataError("response argument disagrees with the dataset's response column")
        return self

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    @property
    def n_features(self) -> int:
        return len(self._feature_indices)

    @property
    def feature_indices(self) -> tuple[int, ...]:
        """Column indices of the feature columns (response excluded)."""
        return self._feature_indices

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.columns[i].name for i in self._feature_indices)

    def feature_columns(self) -> list[Column]:
        return [self.columns[i] for i in self._feature_indices]

    def schema(self) -> FeatureSchema:
        cols = self.feature_columns()
        return FeatureSchema(
            names=tuple(c.name for c in cols),
            kinds=tuple(c.kind for c in cols),
            levels=tuple(c.levels for c in cols),
        )

    def observation(self, row: int) -> tuple[Cell, ...]:
        """Feature cells of one row (0-indexed), response excluded."""
        if not (0 <= row < self.n_rows):
            raise DataError(f"row {row} out of range for {self.n_rows} rows")
        return self.schema().row([c.values for c in self.feature_columns()], row)

    def response_values(self) -> np.ndarray:
        if self.response_index is None:
            raise DataError("dataset has no response column")
        col = self.columns[self.response_index]
        if col.kind != NUMERIC:
            raise DataError(f"response column {col.name!r} is not numeric")
        return col.values


def _detect_delimiter(header_line: str) -> str:
    """Pick the delimiter that splits the header into the most fields."""
    best, best_count = ",", 1
    for d in _DELIMITERS:
        count = len(next(csv.reader([header_line], delimiter=d)))
        if count > best_count:
            best, best_count = d, count
    return best


def _parse_numeric(cell: str) -> float | None:
    """Finite float value of the cell, or None if it does not parse as one."""
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def load_csv(
    path: str,
    delimiter: str | None = None,
    has_header: bool = True,
    response_name: str | None = None,
    type_overrides: dict[str, str] | None = None,
) -> Dataset:
    """Load a delimited text file into a Dataset.

    Column kinds are inferred: numeric when every cell parses as a finite
    real (decimal point format), categorical otherwise. `type_overrides`
    maps column names to "numeric" or "categorical" and wins over inference.
    When `delimiter` is None it is auto-detected from the header line among
    comma, semicolon, and tab.

    Raises DataError on unreadable or non-UTF-8 files, ragged rows, empty
    input, missing cells, duplicate header names, or a numeric override that
    does not parse.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path!r}: {exc}") from exc

    lines = text.splitlines()
    if not lines or all(not ln.strip() for ln in lines):
        raise DataError(f"{path!r} is empty")

    if delimiter is None:
        delimiter = _detect_delimiter(lines[0])
    elif delimiter not in _DELIMITERS:
        raise DataError(f"unsupported delimiter {delimiter!r}")

    rows = list(csv.reader(lines, delimiter=delimiter))
    rows = [r for r in rows if r]  # ignore blank lines

    if has_header:
        header = [h.strip() for h in rows[0]]
        data_rows = rows[1:]
    else:
        header = [f"c{i + 1}" for i in range(len(rows[0]))]
        data_rows = rows
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"duplicate header names: {dupes}")
    if not data_rows:
        raise DataError(f"{path!r} has a header but no data rows")

    arity = len(header)
    for lineno, row in enumerate(data_rows, start=2 if has_header else 1):
        if len(row) != arity:
            raise DataError(
                f"ragged row at line {lineno}: expected {arity} cells, got {len(row)}"
            )
        for name, cell in zip(header, row):
            if cell == "":
                raise DataError(f"missing cell in column {name!r} at line {lineno}")

    overrides = dict(type_overrides or {})
    for name in overrides:
        if name not in header:
            raise DataError(f"type override for unknown column {name!r}")

    columns: list[Column] = []
    for j, name in enumerate(header):
        cells = [row[j] for row in data_rows]
        parsed = [_parse_numeric(c) for c in cells]
        all_numeric = all(v is not None for v in parsed)
        kind = overrides.get(name, NUMERIC if all_numeric else CATEGORICAL)
        if kind == NUMERIC:
            if not all_numeric:
                bad = next(c for c, v in zip(cells, parsed) if v is None)
                raise DataError(
                    f"column {name!r} is declared numeric but cell {bad!r} does not parse"
                )
            columns.append(Column(name, NUMERIC, np.array(parsed, dtype=float)))
        elif kind == CATEGORICAL:
            columns.append(Column(name, CATEGORICAL, np.array(cells, dtype=object)))
        else:
            raise DataError(f"unknown type override {kind!r} for column {name!r}")

    dataset = Dataset(columns=tuple(columns))
    return dataset if response_name is None else dataset.with_response(response_name)


def empirical_draw(dataset: Dataset, col: int, rng: np.random.Generator) -> Cell:
    """One draw from the column's empirical distribution.

    Sampling is uniform over observed rows (with replacement) and reproducible
    for a given seeded generator.
    """
    i = int(rng.integers(0, dataset.n_rows))
    column = dataset.columns[col]
    return _cell(column.kind, column.values[i])


def dataset_from_rows(
    names: Sequence[str],
    kinds: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    response_name: str | None = None,
) -> Dataset:
    """Build a Dataset from row tuples; convenience for tests and callers.

    Cells are checked as `FeatureSchema.validate_observation` checks them,
    so a row of the wrong length or a cell that is not a finite number in a
    numeric column raises DataError.
    """
    schema = FeatureSchema(tuple(names), tuple(kinds), (None,) * len(names))
    try:
        values = schema.to_columns([tuple(r) for r in rows])
    except SchemaError as exc:
        raise DataError(f"rows do not fit the columns: {exc}") from exc
    dataset = Dataset(columns=tuple(map(Column, names, kinds, values)))
    return dataset.with_response(response_name) if response_name else dataset
