"""Local surrogate pipeline: neighborhood simulation, black-box scoring,
and white-box fitting.

The neighborhood is built by duplicating the explained observation and
changing at most one feature per copy, drawing replacements from the
feature's empirical distribution. All generated rows count as equally
similar (identity kernel), so the surrogate fit is plain least squares, or
an L1-penalized fit when sparsity is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, DataError, ModelError, SchemaError
from .predict import Encoder, LinearModel, Predictor, _fit_least_squares
from .tabular import CATEGORICAL, Cell, Dataset, FeatureSchema, empirical_draw


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """Simulated rows around one explained observation.

    Every row differs from `origin` in at most one feature. `response` is
    None until predictions are attached.
    """

    schema: FeatureSchema
    feature_values: tuple[np.ndarray, ...]
    origin: tuple[Cell, ...]
    response_name: str
    response: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(self.feature_values[0]) if self.feature_values else 0

    def row(self, i: int) -> tuple[Cell, ...]:
        return self.schema.row(self.feature_values, i)


@dataclass(frozen=True, eq=False)
class SurrogateFit:
    """White-box model fitted to a local dataset."""

    model: LinearModel
    lambda_: float
    selected_features: tuple[str, ...]
    r2: float


def sample_locally(
    dataset: Dataset,
    x_new: Sequence[Cell],
    response: int | str,
    size: int,
    seed: int,
) -> LocalDataset:
    """Simulate `size` rows around x_new, one perturbed feature per row.

    With p features and p <= size, row i (i < p) perturbs feature i and the
    remaining rows perturb one uniformly chosen feature each. With p > size,
    a uniform subset of `size` features is drawn first and each row perturbs
    one uniformly chosen feature from that subset. Replacement values come
    from the feature's empirical distribution, so a draw may coincide with
    the original value. Deterministic per seed.
    """
    if size < 0:
        raise DataError("size must be nonnegative")
    base = dataset.with_response(response)
    schema = base.schema()
    x_new = schema.validate_observation(x_new)
    p = schema.n_features
    rng = np.random.Generator(np.random.PCG64(seed))

    cols = schema.repeat(x_new, size)

    def perturb(row: int, feature: int) -> None:
        cols[feature][row] = empirical_draw(base, base.feature_indices[feature], rng)

    if p <= size:
        for i in range(p):
            perturb(i, i)
        for i in range(p, size):
            perturb(i, int(rng.integers(0, p)))
    else:
        chosen = np.sort(rng.choice(p, size=size, replace=False))
        for i in range(size):
            perturb(i, int(chosen[rng.integers(0, size)]))
    for col in cols:
        col.flags.writeable = False

    return LocalDataset(
        schema=schema,
        feature_values=tuple(cols),
        origin=tuple(x_new),
        response_name=base.columns[base.response_index].name,
    )


def add_predictions(local: LocalDataset, predictor: Predictor) -> LocalDataset:
    """Attach black-box scores of the simulated rows as the response."""
    if local.response is not None:
        raise DataError("local dataset already carries predictions")
    if predictor.schema != local.schema:
        raise SchemaError("predictor schema does not match the local dataset")
    return replace(local, response=predictor.scores(list(local.feature_values)))


@dataclass(frozen=True, eq=False)
class LassoResult:
    """One lasso fit; `objectives` holds the start's and each sweep's objective."""

    coefficients: np.ndarray
    n_sweeps: int
    objectives: tuple[float, ...]


LASSO_TOL = 1e-9
LASSO_MAX_SWEEPS = 10_000
OBJECTIVE_BLOCK = 64
CV_FOLDS = 5
LAMBDA_GRID_POINTS = 50


def _append_objectives(
    xt: np.ndarray, y: np.ndarray, lam: float, history: list, objectives: list, sweep: int
) -> None:
    """Append the objective of each vector in `history` (the last after `sweep`),
    raising ModelError at the first that increased; `xt` is X', so
    `history @ xt - y` are the residuals, negated, of the whole block."""
    b = np.array(history)
    r = b @ xt - y
    values = np.einsum("ij,ij->i", r, r) / (2.0 * len(y)) + lam * np.abs(b).sum(axis=1)
    for i, obj in enumerate(values.tolist(), sweep - len(history) + 1):
        prev = objectives[-1] if objectives else np.inf
        if obj > prev + 1e-12 * max(1.0, abs(prev)):
            raise ModelError(f"penalized objective increased in sweep {i}: {prev!r} -> {obj!r}")
        objectives.append(obj)


def _lasso_path(
    x: np.ndarray, y: np.ndarray, lambdas: Sequence[float], start: np.ndarray | None = None
) -> Iterator[LassoResult]:
    """`lasso_coordinate_descent` down `lambdas`, each fit warm-started from the
    previous one (the first from `start`); G = X'X/n and X'y/n are formed once."""
    lambdas = [float(lam) for lam in lambdas]
    if any(lam < 0 for lam in lambdas):
        raise ModelError("lambda must be nonnegative")
    n, k = x.shape
    beta = np.zeros(k) if start is None else np.array(start, dtype=float)
    if beta.shape != (k,):
        raise ModelError(f"start has shape {beta.shape}, wanted ({k},)")
    gram = x.T @ x / n
    corr = x.T @ y / n
    xt = np.ascontiguousarray(x.T)
    coords = [(j, row, row[j]) for j, row in enumerate(gram.tolist()) if row[j] != 0.0]
    for lam in lambdas:
        grad = (corr - gram @ beta).tolist()
        b = beta.tolist()
        objectives, history = [], [b[:]]
        for sweep in range(1, LASSO_MAX_SWEEPS + 1):
            max_delta = 0.0
            for j, row, col_sq in coords:
                old = b[j]
                z = grad[j] + col_sq * old  # new = soft_threshold(z, lam) / col_sq
                new = (z - lam) / col_sq if z > lam else (z + lam) / col_sq if z < -lam else 0.0
                if new != old:
                    step = new - old
                    grad = [g - gij * step for g, gij in zip(grad, row)]
                    b[j] = new
                    if step > max_delta or -step > max_delta:
                        max_delta = abs(step)
            history.append(b[:])
            done = max_delta < LASSO_TOL
            if done or len(history) == OBJECTIVE_BLOCK or sweep == LASSO_MAX_SWEEPS:
                _append_objectives(xt, y, lam, history, objectives, sweep)
                history = []
            if done:
                break
        else:
            raise ConvergenceError(f"coordinate descent did not converge in {sweep} sweeps")
        beta = np.array(b)
        yield LassoResult(beta, sweep, tuple(objectives))


def lasso_coordinate_descent(
    x: np.ndarray, y: np.ndarray, lambda_: float, *, start: np.ndarray | None = None
) -> LassoResult:
    """Cyclic coordinate descent for min (1/2n)||y - X b||^2 + lambda ||b||_1.

    Expects standardized columns (mean 0, variance 1); the intercept is
    handled by the caller through centering. Uses covariance updates
    (Friedman, Hastie & Tibshirani 2010) as the one-lambda `_lasso_path`:
    G = X'X/n is formed once per path and the gradient X'y/n - G b is kept
    in plain floats, updated per changed coordinate, so a sweep's updates
    cost O(k^2) whatever n is. `start` warm-starts from the given
    coefficients (left unchanged) instead of zero. Stops when the largest
    coefficient change in a sweep falls below `LASSO_TOL`; raises
    ConvergenceError after `LASSO_MAX_SWEEPS` sweeps. The penalized
    objective must not increase in any sweep; it is evaluated from the
    residuals per block of at most `OBJECTIVE_BLOCK` sweeps and at the last,
    so an increase raises ModelError at most one block late (its Gram form
    y'y/2n - c'b + b'Gb/2 would lose a close fit's residual to cancellation).
    """
    return next(_lasso_path(x, y, [lambda_], start))


def _lambda_grid(lambda_max: float) -> np.ndarray:
    return np.geomspace(lambda_max, 1e-4 * lambda_max, LAMBDA_GRID_POINTS)


def _cross_validate_lambda(x: np.ndarray, y: np.ndarray) -> float:
    """Pick lambda by `CV_FOLDS`-fold CV on a `LAMBDA_GRID_POINTS` log grid down from lambda_max.

    Fold assignment is row index modulo `CV_FOLDS` (deterministic); a fold
    whose training or validation part is empty is skipped. Each fold walks
    the grid from high to low lambda as one `_lasso_path`, warm-starting
    every fit from the previous lambda's coefficients, and adds its
    validation error to that lambda's total. Ties in total error prefer the
    larger lambda.
    """
    n = len(y)
    # with no varying column x has no columns, and lambda_max is 0
    lambda_max = float(np.max(np.abs(x.T @ (y - y.mean())), initial=0.0)) / n
    if lambda_max == 0.0:
        return 0.0
    grid = _lambda_grid(lambda_max)
    fold_of = np.arange(n) % CV_FOLDS
    errors = [0.0] * len(grid)
    for f in range(CV_FOLDS):
        train = fold_of != f
        val = ~train
        if not val.any() or not train.any():
            continue
        xt, yt, xv, yv = x[train], y[train], x[val], y[val]
        mu = yt.mean()
        yt = yt - mu
        for i, fit in enumerate(_lasso_path(xt, yt, grid)):
            pred = mu + xv @ fit.coefficients
            errors[i] += float(np.sum((yv - pred) ** 2))
    best_lam, best_err = None, np.inf
    for lam, err in zip(grid, errors):
        if err < best_err - 1e-12:
            best_err, best_lam = err, float(lam)
    return best_lam if best_lam is not None else 0.0


def fit_explanation(
    local: LocalDataset,
    white_box: str = "ols",
    lambda_: float | None = None,
) -> SurrogateFit:
    """Fit the white-box model to the simulated rows and their scores.

    All rows carry weight 1. The rows are encoded once, categorical features
    one-hot against the explained observation's own level. "ols" is the
    least-squares fit `predict.fit_ols` makes; "lasso" solves the
    L1-penalized problem on the same encoding, standardized, with an
    unpenalized intercept, reporting coefficients on the original scale.
    When lambda is unset for lasso, it is chosen by 5-fold cross-validation.
    Raises ModelError when the rows are too few for the white box; for "ols"
    the message adds "increase size".
    """
    if local.response is None:
        raise DataError("attach predictions before fitting an explanation")
    reference = {
        name: v
        for name, kind, v in zip(local.schema.names, local.schema.kinds, local.origin)
        if kind == CATEGORICAL
    }
    encoder = Encoder.for_schema(local.schema, reference)
    encoded = encoder.encode_columns(list(local.feature_values))
    y = local.response

    if white_box == "ols":
        try:
            model = _fit_least_squares(encoder, encoded, y)
        except ModelError as exc:
            raise ModelError(
                f"{exc} (local dataset may be degenerate; increase size)"
            ) from exc
        r2 = _r_squared(model, local)
        selected = _nonzero_features(model)
        return SurrogateFit(model=model, lambda_=0.0, selected_features=selected, r2=r2)

    if white_box != "lasso":
        raise ModelError(f"unknown white box {white_box!r}")
    if lambda_ is not None and not 0.0 <= lambda_ < np.inf:
        raise ModelError("lambda must be finite and nonnegative")
    if len(y) < 2:
        raise ModelError("need at least 2 rows to fit a lasso surrogate")
    means = encoded.mean(axis=0)
    scales = encoded.std(axis=0)
    usable = scales > 0
    z = np.zeros_like(encoded)
    z[:, usable] = (encoded[:, usable] - means[usable]) / scales[usable]
    y_mean = float(y.mean())
    if lambda_ is None:
        lambda_ = _cross_validate_lambda(z[:, usable], y)
    fit = lasso_coordinate_descent(z[:, usable], y - y_mean, float(lambda_))
    beta = np.zeros(encoder.n_encoded)
    beta[usable] = fit.coefficients / scales[usable]
    intercept = y_mean - float(means @ beta)
    model = LinearModel(
        schema=local.schema,
        encoder=encoder,
        intercept=intercept,
        coefficients=beta,
        feature_means=means,
        std_errors=None,
        intercept_std_error=None,
        residual_variance=None,
    )
    r2 = _r_squared(model, local)
    selected = _nonzero_features(model)
    return SurrogateFit(
        model=model, lambda_=float(lambda_), selected_features=selected, r2=r2
    )


def _r_squared(model: LinearModel, local: LocalDataset) -> float:
    y = local.response
    pred = model.scores(list(local.feature_values))
    rss = float(np.sum((y - pred) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        return 1.0 if rss <= 1e-24 else 0.0
    return max(0.0, min(1.0, 1.0 - rss / tss))


def _nonzero_features(model: LinearModel) -> tuple[str, ...]:
    nonzero = model.encoder.fold(model.coefficients != 0.0)
    return tuple(name for name, count in zip(model.schema.names, nonzero) if count)
