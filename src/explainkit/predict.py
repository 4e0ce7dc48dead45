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
import math
import numbers
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import ModelError, SchemaError, ScorerError
from .tabular import NUMERIC, Cell, Dataset, FeatureSchema

if TYPE_CHECKING:  # imported where a process starts or is waited for
    import subprocess


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
        self, batches: Iterable[Sequence[np.ndarray]], ahead: Iterable[Iterable] = ()
    ) -> Iterator[np.ndarray]:
        """The checked `scores` of each batch, in order, one batch at a time.
        `ahead`: lazy layers of batches later calls may need, which a scorer
        may score after `batches`, in the order it pulls them; this one never
        pulls it."""
        return (self.scores(columns) for columns in batches)

    def additive_view(self) -> tuple[float, Encoder, np.ndarray] | None:
        """(intercept, encoder, coefficients) when every score is
        intercept + coefficients . the row's encoding, else None. With a view,
        relaxed predictions come in closed form (see `relax`)."""
        return None

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
                col = np.asarray(columns[j], dtype=object)
                for lv in levels:
                    if lv == ref:
                        continue
                    out[:, k] = col == lv
                    k += 1
        return out

    def encode_observation(self, obs: Sequence[Cell]) -> np.ndarray:
        return self.encode_columns(self.schema.to_columns([obs]))[0]

    def fold(self, per_encoded: np.ndarray) -> np.ndarray:
        """Per-feature sums of a per-encoded-column vector, in column order,
        summed in encoded order."""
        owners = np.asarray(self.feature_of_encoded, dtype=np.intp)
        return np.bincount(owners, per_encoded, self.schema.n_features)


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
        with np.errstate(over="ignore", invalid="ignore"):  # `scores` refuses what overflows
            return self.intercept + design @ self.coefficients

    def additive_view(self) -> tuple[float, Encoder, np.ndarray]:
        return self.intercept, self.encoder, self.coefficients


def _finite_mean(values: np.ndarray, what: str) -> float:
    """The mean of `values`, or ModelError naming `what` where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
    if not math.isfinite(mean):
        raise ModelError(f"the mean of {what} overflows; rescale the response")
    return mean


def _fit_least_squares(encoder: Encoder, encoded: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least-squares linear model of y on [1, encoded] by Householder QR.

    `encoded` is the design `encoder` made of the rows. Normal equations are
    never formed; the covariance uses the triangular factor directly, and
    standard errors use the unbiased residual variance. Raises ModelError
    when rows are too few or the design is rank deficient (the offending
    column is named).
    """
    n, k = encoded.shape
    if n <= k + 1:
        raise ModelError(f"need more than {k + 1} rows to fit {k} encoded features, got {n}")
    design = np.hstack([np.ones((n, 1)), encoded])
    q, r = np.linalg.qr(design, mode="reduced")
    # each diagonal against its column's largest entry, which cannot overflow as a norm can
    scale = np.abs(design).max(axis=0)
    deficient = np.nonzero(np.abs(np.diag(r)) <= n * np.finfo(float).eps * scale)[0]
    if deficient.size:
        names = ["(intercept)", *encoder.encoded_names]
        raise ModelError(
            f"design matrix is rank deficient at column {names[deficient[0]]!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        beta = np.linalg.solve(r, q.T @ y)
        residuals = y - design @ beta
        sigma2 = float(residuals @ residuals) / (n - k - 1)
        rinv = np.linalg.solve(r, np.eye(k + 1))
        stderr = np.sqrt(np.maximum(np.diag(sigma2 * (rinv @ rinv.T)), 0.0))
        feature_means = encoded.mean(axis=0)
    if not np.isfinite(beta).all():
        raise ModelError("least-squares coefficients overflow; rescale the response")
    return LinearModel(
        schema=encoder.schema,
        encoder=encoder,
        intercept=float(beta[0]),
        coefficients=beta[1:],
        feature_means=feature_means,
        std_errors=stderr[1:],
        intercept_std_error=float(stderr[0]),
        residual_variance=sigma2,
    )


def _standardize(x: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """Column means, standard deviations, and x centred and divided by them
    (by 1 where a column is constant). Raises ModelError naming the first
    column whose deviation or standardized values are not finite, as where
    values near the float limits overflow its spread."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=0)
        spreads = x.std(axis=0)
        z = (x - means) / np.where(spreads == 0.0, 1.0, spreads)
    finite = np.isfinite(spreads) & np.isfinite(z).all(axis=0)
    if not finite.all():
        raise ModelError(f"the spread of {names[int(np.argmin(finite))]!r} overflows; rescale it")
    return means, spreads, z


def fit_ols(dataset: Dataset, response: int | str) -> LinearModel:
    """Least-squares linear model of the response on all feature columns.

    `response` is a column index or name (see `Dataset.with_response`).
    Categorical features are one-hot encoded against their first observed
    level. The fit is the one the OLS surrogate of `live.fit_explanation`
    also uses: QR, standard errors from the unbiased residual variance, and
    ModelError when rows are too few or the encoded design is rank deficient
    (the offending column is named).
    """
    dataset = dataset.with_response(response)
    y = dataset.response_values()
    encoder = Encoder.for_schema(dataset.schema())
    encoded = encoder.encode_columns([c.values for c in dataset.feature_columns()])
    return _fit_least_squares(encoder, encoded, y)


# ---------------------------------------------------------------------------
# kernel ridge

# Kernel entries one scoring block holds: 256 KiB, so a block stays in cache.
KERNEL_BLOCK_ENTRIES = 32_768


def _lift_train(t: np.ndarray, gamma: float) -> np.ndarray:
    """Columns [2 gamma t_k, -gamma ||t_k||^2, -gamma], one per training point t_k."""
    return np.vstack([2.0 * gamma * t.T, -gamma * np.sum(t * t, axis=1), np.full(len(t), -gamma)])


def _aligned_empty(rows: int, cols: int) -> np.ndarray:
    """An uninitialized rows x cols array whose data starts on a 64-byte boundary."""
    raw = np.empty(rows * cols + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + rows * cols].reshape(rows, cols)


def _lift_batch(z: np.ndarray) -> np.ndarray:
    """Rows [z_i, 1, ||z_i||^2]: times `_lift_train(t, gamma)`, -gamma ||z_i - t_k||^2."""
    return np.column_stack([z, np.ones(len(z)), np.sum(z * z, axis=1)])


def _rbf(lifted_rows: np.ndarray, lifted_train: np.ndarray, out=None) -> np.ndarray:
    """exp(-gamma ||z_i - t_k||^2) from one product, the exponent clamped to <= 0."""
    k = np.matmul(lifted_rows, lifted_train, out=out)
    np.minimum(k, 0.0, out=k)
    return np.exp(k, out=k)


@dataclass(frozen=True, eq=False)
class KernelRidgePredictor(Predictor):
    """RBF kernel ridge regressor with frozen training statistics.

    Features are standardized by the stored training means and standard
    deviations; responses are centered so predictions shrink toward the
    training mean as the ridge grows. Each kernel block is one product of the
    lifted rows [z, 1, ||z||^2] and `lifted_train` (see `_rbf`), clamped so no
    entry exceeds 1. A batch is padded with copies of its last row to a
    multiple of 4 rows and scored in blocks of a multiple of 4 rows and about
    `KERNEL_BLOCK_ENTRIES` entries: BLAS then sums every row alike, so a row's
    score does not depend on its batch or its place in it, and memory does
    not grow with the batch. All blocks of a call go into one 64-byte aligned
    buffer: unaligned, `minimum` and `exp` ran about 15% slower.
    """

    schema: FeatureSchema
    train_standardized: np.ndarray
    feature_means: np.ndarray
    feature_scales: np.ndarray
    dual_weights: np.ndarray
    response_mean: float
    gamma: float
    ridge: float
    lifted_train: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lifted_train", _lift_train(self.train_standardized, self.gamma))

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        x = np.column_stack([np.asarray(c, dtype=float) for c in columns])
        z = (x - self.feature_means) / self.feature_scales
        z = _lift_batch(np.concatenate([z, z[-1:].repeat(-len(z) % 4, axis=0)]))
        rows = max(4, KERNEL_BLOCK_ENTRIES // len(self.dual_weights) // 4 * 4)
        block = _aligned_empty(min(rows, len(z)), len(self.dual_weights))
        fitted = np.empty(len(z))
        with np.errstate(over="ignore", invalid="ignore"):  # `scores` refuses what overflows
            for i in range(0, len(z), rows):
                k = _rbf(z[i : i + rows], self.lifted_train, block[: len(z) - i])
                fitted[i : i + rows] = k @ self.dual_weights
        return self.response_mean + fitted[: len(x)]


def fit_kernel_ridge(
    dataset: Dataset, response: int | str, gamma: float, ridge: float
) -> KernelRidgePredictor:
    """Fit dual weights (K + ridge I)^-1 (y - mean y) with an RBF kernel.

    `response` is a column index or name (see `Dataset.with_response`). A
    feature whose spread overflows is a ModelError (see `_standardize`).
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
    means, scales, z = _standardize(x, [col.name for col in feature_cols])
    scales = np.where(scales == 0.0, 1.0, scales)
    kmat = _rbf(_lift_batch(z), _lift_train(z, gamma))
    y_mean = _finite_mean(y, "the response")
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


def _field(v: Cell, alone: bool) -> str:
    """`_format_cell(v)` as `csv.writer` writes it in a row (`alone`: as its only
    field); numbers never need quotes, labels are quoted by `csv.writer`. Its
    `\r\n` terminator makes it quote a label holding `\r` too, which a
    `csv.reader` would otherwise split on."""
    text = _format_cell(v)
    if not isinstance(v, str):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text] if alone else [text, ""])
    return buf.getvalue()[: -2 if alone else -3]


# Most rows one external scorer payload holds. A batch larger than this still
# goes alone in one payload.
PAYLOAD_ROWS = 32_768

# Most rows `ExternalPredictor.scores_of` takes from the layers `ahead` of a
# call. A spare hides much of a later payload's start-up, but each payload
# still costs a round trip to a process, which outweighs this many rows.
LOOKAHEAD_ROWS = 5_000


def _reap(procs: list[subprocess.Popen | None]) -> None:
    """Kill and reap every process of `procs` (None: no process), and empty it."""
    for proc in filter(None, procs):
        proc.kill()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()
        proc.wait()
    procs.clear()


@dataclass(frozen=True, eq=False)
class ExternalPredictor(Predictor):
    """Scores rows by running a command once per payload.

    Wire protocol: the command receives a header line of feature names
    joined by commas, then one CSV row per observation (decimal-point
    numerics, unquoted; labels quoted when they hold a comma, a double
    quote, a newline or a carriage return), with a trailing newline, all
    UTF-8. It must print one decimal score per line on stdout, in row order,
    in UTF-8, and exit 0. With a `timeout` (seconds), a command still
    running then is killed and raises ScorerError.

    `scores_of` joins the rows of consecutive batches (the hybrid rows of
    several pinned sets) into one payload of at most `PAYLOAD_ROWS` rows, so
    the command must score each row independently of the others. Pinning
    everything gives f(x_new) exactly: that set is the one row x_new. Payloads
    per explanation: `ag_break` one per greedy step with unscored candidates,
    the start and full sets joining the first, each taking whole layers of
    later steps' sets `ahead` within `LOOKAHEAD_ROWS` rows: 1 whenever all 2^p
    sets fit, 2 for Up and Down at p = 5 over 400 rows. `relaxation_trace`
    none along a walk's path, else 1; the Shapley estimators one per payload
    of as many whole pinned sets as fit in `PAYLOAD_ROWS` rows (at least one).

    Before a payload known to be followed by another (a later payload of the
    same `scores_of` call, or the last one of a call that left a layer out),
    `scores_of` starts processes until two wait: its own and the next one's
    (the spare), so the command's start-up overlaps this payload's scoring;
    `score_columns` takes the oldest, or starts one. A predictor starts one
    process per payload, but that process reads its files, environment and
    working directory one payload early, and two are alive while such a
    payload is scored. Waiting processes have pipes for all three streams,
    are killed and reaped after any error, on garbage collection and at
    exit, and if orphaned read an empty stdin. `timeout` counts from when
    the payload is sent.
    """

    schema: FeatureSchema
    command: tuple[str, ...]
    timeout: float | None = None
    # processes started for payloads still to come, oldest first
    _started: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        weakref.finalize(self, _reap, self._started)

    def scores_of(
        self, batches: Iterable[Sequence[np.ndarray]], ahead: Iterable[Iterable] = ()
    ) -> Iterator[np.ndarray]:
        # the asked batches, then whole layers `ahead` within `LOOKAHEAD_ROWS`
        # rows; the layer that overflows is left out, and no later one pulled
        taken = [(columns, self._check_columns(columns)) for columns in batches]
        pulled = 0
        for layer in ahead:
            in_layer = []
            for columns in layer:
                in_layer.append((columns, self._check_columns(columns)))
                pulled += in_layer[-1][1]
                if pulled > LOOKAHEAD_ROWS:
                    break
            if pulled > LOOKAHEAD_ROWS:
                break
            taken += in_layer
        runs, rows = [], 0  # the batches of each payload, with their rows
        for columns, n in taken:
            if not runs or rows + n > PAYLOAD_ROWS:
                runs.append([])
                rows = 0
            runs[-1].append((columns, n))
            rows += n
        for k, run in enumerate(runs):
            chunk, sizes = zip(*run)
            # followed by a later payload of this call, or by a later call
            if sum(sizes) and (k + 1 < len(runs) or pulled > LOOKAHEAD_ROWS):
                while len(self._started) < 2:
                    self._started.append(self._spawn())
            joined = [np.concatenate(parts) for parts in zip(*chunk)]
            for col in joined:
                col.flags.writeable = False
            yield from np.split(self.scores(joined), np.cumsum(sizes[:-1], dtype=int))

    def _payload(self, columns: Sequence[np.ndarray]) -> bytes:
        """Header and rows in UTF-8: each distinct value of a column is
        formatted once, then one `%` pass fills a template of every row."""
        n, alone = len(columns[0]), len(columns) == 1
        fields = np.empty((n, len(columns)), dtype=object)
        for j, col in enumerate(columns):
            values, index = np.unique(col, return_inverse=True)
            texts = [_field(v, alone).encode("utf-8") for v in values.tolist()]
            fields[:, j] = np.array(texts, dtype=object)[index]
        header = b",".join(_field(name, alone).encode("utf-8") for name in self.schema.names)
        row = b",".join([b"%s"] * len(columns)) + b"\n"
        return (header.replace(b"%", b"%%") + b"\n" + row * n) % tuple(fields.ravel())

    def _spawn(self) -> subprocess.Popen:
        """A new process of the command; if none starts, every started one is reaped."""
        import subprocess

        pipe = subprocess.PIPE
        try:
            return subprocess.Popen(list(self.command), stdin=pipe, stdout=pipe, stderr=pipe)
        except OSError as exc:
            _reap(self._started)
            raise ScorerError(f"cannot spawn {self.command[0]!r}: {exc}") from exc

    def score_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        import subprocess

        n, started, proc = len(columns[0]), self._started, None
        try:
            proc = started.pop(0) if started else self._spawn()
            try:
                stdout, stderr = proc.communicate(self._payload(columns), self.timeout)
            except subprocess.TimeoutExpired as exc:
                name, seconds = self.command[0], self.timeout
                raise ScorerError(f"scorer {name!r} timed out after {seconds:g} s") from exc
            stderr = stderr.decode("utf-8", errors="replace")

            def failure(message: str) -> ScorerError:
                return ScorerError(message, exit_status=proc.returncode, stderr_text=stderr)

            if proc.returncode != 0:
                raise failure(f"scorer {self.command[0]!r} failed")
            try:
                stdout = stdout.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise failure(f"scorer output is not UTF-8: {exc}") from exc
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
            if len(lines) != n:
                raise failure(f"scorer returned {len(lines)} scores for {n} rows")
            out = np.empty(n, dtype=float)
            for i, ln in enumerate(lines):
                try:
                    out[i] = float(ln)
                except ValueError:
                    raise failure(f"unparsable score line {ln!r}")
            if not np.all(np.isfinite(out)):
                raise ScorerError("scorer produced non-finite scores")
        except BaseException:
            started.append(proc)
            _reap(started)
            raise
        return out


def external_scorer(
    command: Sequence[str], schema: FeatureSchema, timeout: float | None = None
) -> ExternalPredictor:
    """Wrap an executable (plus args) as a Predictor over the given schema;
    a scorer still running `timeout` seconds after its payload was sent
    raises ScorerError."""
    if isinstance(command, str) or not command:
        raise ScorerError(f"scorer command must be a non-empty argument list, got {command!r}")
    if timeout is not None and not (isinstance(timeout, numbers.Real) and 0 < timeout < math.inf):
        raise ScorerError(f"scorer timeout must be a positive number of seconds, got {timeout!r}")
    return ExternalPredictor(schema=schema, command=tuple(command), timeout=timeout)
