"""Scoring-function abstraction plus self-contained trainers.

Every predictor scores batches given as feature columns (one array per
feature) so the relaxation machinery can swap whole columns cheaply. Row
oriented entry points are thin wrappers over the column path.

Built-in kinds: ordinary least squares (with standard errors), RBF kernel
ridge, constant, and an external subprocess scorer speaking a CSV
stdin/stdout protocol.
"""

from __future__ import annotations

import csv
import io
import subprocess
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ModelError, SchemaError, ScorerError
from .tabular import NUMERIC, Cell, Dataset, FeatureSchema


class Predictor:
    """Base class: a deterministic scoring function over feature rows.

    Subclasses implement `score_columns`; every caller goes through
    `scores`, which checks the batch and what the scorer returns.
    """

    schema: FeatureSchema

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Scores of a non-empty batch given as one read-only array per feature."""
        raise NotImplementedError

    def scores(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """One finite score per row of a batch given as feature columns.

        Raises SchemaError for a malformed batch, and ModelError unless the
        scorer returns a float array of shape (n,) with every value finite.
        A zero-row batch yields an empty array without calling the scorer.
        """
        n = self._check_columns(columns)
        if n == 0:
            return np.empty(0, dtype=float)
        scores = np.asarray(self.score_columns(columns))
        if scores.dtype.kind != "f" or scores.shape != (n,):
            raise ModelError(
                f"predictor returned {scores.dtype} scores of shape {scores.shape} "
                f"for {n} rows"
            )
        if not np.all(np.isfinite(scores)):
            raise ModelError("predictor produced non-finite scores")
        return scores

    def scores_of(
        self, batches: Iterable[Sequence[np.ndarray]]
    ) -> Iterator[np.ndarray]:
        """The checked `scores` of each batch, in order, one batch at a time."""
        return (self.scores(columns) for columns in batches)

    def score_rows(self, rows: Sequence[Sequence[Cell]]) -> np.ndarray:
        """Score a batch of observations; empty batches yield an empty array."""
        return self.scores(self.schema.to_columns(rows))

    def score_one(self, obs: Sequence[Cell]) -> float:
        return float(self.score_rows([obs])[0])

    def _check_columns(self, columns: Sequence[np.ndarray]) -> int:
        if len(columns) != self.schema.n_features:
            raise SchemaError(
                f"batch has {len(columns)} columns, schema expects {self.schema.n_features}"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"batch columns have differing lengths: {sorted(lengths)}")
        return lengths.pop() if lengths else 0


# ---------------------------------------------------------------------------
# encoding


@dataclass(frozen=True)
class Encoder:
    """Maps feature cells to a real design vector.

    Numeric features pass through; each categorical feature becomes
    level-indicator columns with one reference level dropped to keep the
    design full rank.
    """

    schema: FeatureSchema
    reference_levels: tuple[str | None, ...]
    encoded_names: tuple[str, ...]
    feature_of_encoded: tuple[int, ...]

    @classmethod
    def for_schema(
        cls, schema: FeatureSchema, reference: dict[str, str] | None = None
    ) -> "Encoder":
        reference = reference or {}
        refs: list[str | None] = []
        names: list[str] = []
        owners: list[int] = []
        for j, (name, kind, levels) in enumerate(
            zip(schema.names, schema.kinds, schema.levels)
        ):
            if kind == NUMERIC:
                refs.append(None)
                names.append(name)
                owners.append(j)
            else:
                ref = reference.get(name, levels[0])
                if ref not in levels:
                    raise SchemaError(
                        f"reference level {ref!r} not among levels of {name!r}"
                    )
                refs.append(ref)
                for lv in levels:
                    if lv == ref:
                        continue
                    names.append(f"{name}={lv}")
                    owners.append(j)
        return cls(schema, tuple(refs), tuple(names), tuple(owners))

    @property
    def n_encoded(self) -> int:
        return len(self.encoded_names)

    def encode_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        n = len(columns[0]) if columns else 0
        out = np.empty((n, self.n_encoded), dtype=float)
        k = 0
        for j, (kind, levels, ref) in enumerate(
            zip(self.schema.kinds, self.schema.levels, self.reference_levels)
        ):
            if kind == NUMERIC:
                out[:, k] = np.asarray(columns[j], dtype=float)
                k += 1
            else:
                col = columns[j]
                for lv in levels:
                    if lv == ref:
                        continue
                    out[:, k] = np.fromiter(
                        (1.0 if c == lv else 0.0 for c in col), dtype=float, count=n
                    )
                    k += 1
        return out

    def encode_observation(self, obs: Sequence[Cell]) -> np.ndarray:
        return self.encode_columns(self.schema.to_columns([obs]))[0]


# ---------------------------------------------------------------------------
# linear model


@dataclass(frozen=True, eq=False)
class LinearModel(Predictor):
    """Additive model: score = intercept + coefficients . encoded(features).

    `feature_means` are the training means of the encoded design columns;
    they anchor the mean-centered attribution of additive scores. Standard
    errors (one per slope coefficient) are present for least-squares fits
    and None for penalized fits.
    """

    schema: FeatureSchema
    encoder: Encoder
    intercept: float
    coefficients: np.ndarray
    feature_means: np.ndarray
    std_errors: np.ndarray | None = None
    intercept_std_error: float | None = None
    residual_variance: float | None = None

    def __post_init__(self):
        k = len(self.coefficients)
        if len(self.feature_means) != k:
            raise ModelError("coefficient and mean vectors differ in length")
        if self.std_errors is not None:
            if len(self.std_errors) != k:
                raise ModelError("coefficient and standard-error vectors differ in length")
            if np.any(np.asarray(self.std_errors) < 0):
                raise ModelError("standard errors must be nonnegative")

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        design = self.encoder.encode_columns(columns)
        return self.intercept + design @ self.coefficients


def _qr_least_squares(design: np.ndarray, y: np.ndarray, names: Sequence[str]):
    """Solve min ||y - design b|| via Householder QR; detects rank deficiency.

    Returns (beta, stderr, residual_variance). Normal equations are never
    formed; the covariance uses the triangular factor directly.
    """
    n, k = design.shape
    q, r = np.linalg.qr(design, mode="reduced")
    diag = np.abs(np.diag(r))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    deficient = np.nonzero(diag <= tol)[0]
    if deficient.size:
        raise ModelError(
            f"design matrix is rank deficient at column {names[deficient[0]]!r}"
        )
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - design @ beta
    df = n - k
    sigma2 = float(residuals @ residuals) / df if df > 0 else 0.0
    rinv = np.linalg.solve(r, np.eye(k))
    cov = sigma2 * (rinv @ rinv.T)
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return beta, stderr, sigma2


def fit_ols(
    dataset: Dataset,
    response: int | str,
    reference_levels: dict[str, str] | None = None,
) -> LinearModel:
    """Least-squares linear model of the response on all feature columns.

    `response` is a column index or name (see `Dataset.with_response`).
    Categorical features are one-hot encoded against `reference_levels`
    (first observed level by default). Standard errors use the unbiased
    residual variance. Raises ModelError when rows are too few or the
    encoded design is rank deficient (the offending column is named).
    """
    dataset = dataset.with_response(response)
    y = dataset.response_values()
    schema = dataset.schema()
    encoder = Encoder.for_schema(schema, reference_levels)
    encoded = encoder.encode_columns([c.values for c in dataset.feature_columns()])
    n, k = encoded.shape
    if n <= k + 1:
        raise ModelError(f"need more than {k + 1} rows to fit {k} encoded features, got {n}")
    design = np.hstack([np.ones((n, 1)), encoded])
    beta, stderr, sigma2 = _qr_least_squares(
        design, y, ["(intercept)", *encoder.encoded_names]
    )
    return LinearModel(
        schema=schema,
        encoder=encoder,
        intercept=float(beta[0]),
        coefficients=beta[1:],
        feature_means=encoded.mean(axis=0),
        std_errors=stderr[1:],
        intercept_std_error=float(stderr[0]),
        residual_variance=sigma2,
    )


# ---------------------------------------------------------------------------
# kernel ridge


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """RBF kernel matrix exp(-gamma ||a_i - b_j||^2) between the rows of a and b."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True, eq=False)
class KernelRidgePredictor(Predictor):
    """RBF kernel ridge regressor with frozen training statistics.

    Features are standardized by the stored training means and standard
    deviations; responses are centered so predictions shrink toward the
    training mean as the ridge grows.
    """

    schema: FeatureSchema
    train_standardized: np.ndarray
    feature_means: np.ndarray
    feature_scales: np.ndarray
    dual_weights: np.ndarray
    response_mean: float
    gamma: float
    ridge: float

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        x = np.column_stack([np.asarray(c, dtype=float) for c in columns])
        z = (x - self.feature_means) / self.feature_scales
        k = _rbf(z, self.train_standardized, self.gamma)
        return self.response_mean + k @ self.dual_weights


def fit_kernel_ridge(
    dataset: Dataset, response: int | str, gamma: float, ridge: float
) -> KernelRidgePredictor:
    """Fit dual weights (K + ridge I)^-1 (y - mean y) with an RBF kernel.

    `response` is a column index or name (see `Dataset.with_response`).
    """
    if gamma <= 0 or ridge <= 0:
        raise ModelError("gamma and ridge must be positive")
    dataset = dataset.with_response(response)
    y = dataset.response_values()
    feature_cols = dataset.feature_columns()
    for col in feature_cols:
        if col.kind != NUMERIC:
            raise ModelError(f"kernel ridge requires numeric features, {col.name!r} is categorical")
    x = np.column_stack([col.values for col in feature_cols])
    means = x.mean(axis=0)
    scales = x.std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)
    z = (x - means) / scales
    kmat = _rbf(z, z, gamma)
    y_mean = float(y.mean())
    try:
        alpha = np.linalg.solve(kmat + ridge * np.eye(len(y)), y - y_mean)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"kernel system could not be solved: {exc}") from exc
    return KernelRidgePredictor(
        schema=dataset.schema(),
        train_standardized=z,
        feature_means=means,
        feature_scales=scales,
        dual_weights=alpha,
        response_mean=y_mean,
        gamma=gamma,
        ridge=ridge,
    )


# ---------------------------------------------------------------------------
# constant


@dataclass(frozen=True, eq=False)
class ConstantPredictor(Predictor):
    schema: FeatureSchema
    value: float

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        return np.full(len(columns[0]), self.value, dtype=float)


# ---------------------------------------------------------------------------
# external subprocess scorer


def _format_cell(v: Cell) -> str:
    if isinstance(v, str):
        return v
    f = float(v)
    return repr(int(f)) if f.is_integer() and abs(f) < 1e16 else repr(f)


# Most rows one external scorer payload holds. A batch larger than this still
# goes alone in one payload.
PAYLOAD_ROWS = 32_768


@dataclass(frozen=True, eq=False)
class ExternalPredictor(Predictor):
    """Scores rows by spawning a command once per payload.

    Wire protocol: the command receives a header line of feature names
    joined by commas, then one CSV row per observation (decimal-point
    numerics, unquoted; labels quoted only when necessary), with a trailing
    newline, all UTF-8. It must print one decimal score per line on stdout,
    in row order, in UTF-8, and exit 0.

    `scores_of` joins the rows of consecutive batches (the hybrid rows of
    several pinned sets) into one payload of at most `PAYLOAD_ROWS` rows, so
    the command must score each row independently of the others. Pinning
    everything gives f(x_new) exactly: that set is the one row x_new. Spawns
    per explanation: `ag_break` one per greedy step, the start and full sets
    joining the first (Up p - 1 for p >= 2, Down p); `relaxation_trace` 1;
    the Shapley estimators one per payload of as many whole pinned sets as
    fit in `PAYLOAD_ROWS` rows (at least one).
    """

    schema: FeatureSchema
    command: tuple[str, ...]

    def scores_of(
        self, batches: Iterable[Sequence[np.ndarray]]
    ) -> Iterator[np.ndarray]:
        chunk: list[Sequence[np.ndarray]] = []
        sizes: list[int] = []
        rows = 0
        for columns in batches:
            n = self._check_columns(columns)
            if chunk and rows + n > PAYLOAD_ROWS:
                yield from self._joined_scores(chunk, sizes)
                chunk, sizes, rows = [], [], 0
            chunk.append(columns)
            sizes.append(n)
            rows += n
        if chunk:
            yield from self._joined_scores(chunk, sizes)

    def _joined_scores(
        self, chunk: list[Sequence[np.ndarray]], sizes: list[int]
    ) -> list[np.ndarray]:
        """Score the batches of `chunk` in one payload, then split the scores."""
        joined = [np.concatenate(parts) for parts in zip(*chunk)]
        for col in joined:
            col.flags.writeable = False
        return np.split(self.scores(joined), np.cumsum(sizes[:-1], dtype=int))

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        n = len(columns[0])
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=",", lineterminator="\n")
        writer.writerow(self.schema.names)
        for i in range(n):
            writer.writerow([_format_cell(col[i]) for col in columns])
        try:
            proc = subprocess.run(
                list(self.command),
                input=buf.getvalue().encode("utf-8"),
                capture_output=True,
            )
        except OSError as exc:
            raise ScorerError(f"cannot spawn {self.command[0]!r}: {exc}") from exc
        stderr = proc.stderr.decode("utf-8", errors="replace")
        if proc.returncode != 0:
            raise ScorerError(
                f"scorer {self.command[0]!r} failed",
                exit_status=proc.returncode,
                stderr_text=stderr,
            )
        try:
            stdout = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScorerError(
                f"scorer output is not UTF-8: {exc}",
                exit_status=proc.returncode,
                stderr_text=stderr,
            ) from exc
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        if len(lines) != n:
            raise ScorerError(
                f"scorer returned {len(lines)} scores for {n} rows",
                exit_status=proc.returncode,
                stderr_text=stderr,
            )
        out = np.empty(n, dtype=float)
        for i, ln in enumerate(lines):
            try:
                out[i] = float(ln)
            except ValueError:
                raise ScorerError(
                    f"unparsable score line {ln!r}",
                    exit_status=proc.returncode,
                    stderr_text=stderr,
                )
        if not np.all(np.isfinite(out)):
            raise ScorerError("scorer produced non-finite scores")
        return out


def external_scorer(command: Sequence[str], schema: FeatureSchema) -> ExternalPredictor:
    """Wrap an executable (plus args) as a Predictor over the given schema."""
    if not command:
        raise ScorerError("external scorer command is empty")
    return ExternalPredictor(schema=schema, command=tuple(command))
