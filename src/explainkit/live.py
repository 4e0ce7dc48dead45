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
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, ModelError, SchemaError
from .predict import Encoder, LinearModel, Predictor, fit_ols
from .tabular import (
    CATEGORICAL,
    NUMERIC,
    Cell,
    Column,
    Dataset,
    FeatureSchema,
    empirical_draw,
)


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

    def to_dataset(self) -> Dataset:
        """Materialize as a Dataset (response appended when present)."""
        cols = [
            Column(name, kind, vals, levels)
            for name, kind, vals, levels in zip(
                self.schema.names, self.schema.kinds, self.feature_values, self.schema.levels
            )
        ]
        response_index = None
        if self.response is not None:
            cols.append(Column(self.response_name, NUMERIC, self.response))
            response_index = len(cols) - 1
        return Dataset(columns=tuple(cols), response_index=response_index)


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
    coefficients: np.ndarray
    n_sweeps: int
    objectives: tuple[float, ...]


def _lasso_objective(x: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    r = y - x @ beta
    n = len(y)
    return float(r @ r) / (2.0 * n) + lam * float(np.abs(beta).sum())


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def lasso_coordinate_descent(
    x: np.ndarray,
    y: np.ndarray,
    lambda_: float,
    tol: float = 1e-9,
    max_sweeps: int = 10_000,
    *,
    start: np.ndarray | None = None,
) -> LassoResult:
    """Cyclic coordinate descent for min (1/2n)||y - X b||^2 + lambda ||b||_1.

    Expects standardized columns (mean 0, variance 1); the intercept is
    handled by the caller through centering. Uses covariance updates
    (Friedman, Hastie & Tibshirani 2010): G = X'X/n is formed once per
    call, and the gradient X'(y - X b)/n = X'y/n - G b is kept in plain
    floats and updated per changed coordinate, so the updates of a sweep
    cost O(k^2) whatever n is. `start` warm-starts from the given
    coefficients (left unchanged) instead of zero. Stops when the largest
    coefficient change in a sweep falls below `tol`. The penalized
    objective is evaluated from the residual after every sweep and must
    never increase; its Gram form y'y/2n - c'b + b'Gb/2 would lose the
    residual sum of squares of a close fit to cancellation.
    """
    if lambda_ < 0:
        raise ModelError("lambda must be nonnegative")
    n, k = x.shape
    beta = np.zeros(k) if start is None else np.array(start, dtype=float)
    if beta.shape != (k,):
        raise ModelError(f"start has shape {beta.shape}, wanted ({k},)")
    gram = x.T @ x / n
    grad = (x.T @ y / n - gram @ beta).tolist()
    rows = gram.tolist()
    b = beta.tolist()
    objectives = [_lasso_objective(x, y, beta, lambda_)]
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j, row in enumerate(rows):
            col_sq = row[j]
            if col_sq == 0.0:
                continue
            old = b[j]
            new = _soft_threshold(grad[j] + col_sq * old, lambda_) / col_sq
            if new != old:
                step = new - old
                grad = [g - gij * step for g, gij in zip(grad, row)]
                b[j] = new
                max_delta = max(max_delta, abs(step))
        beta = np.array(b)
        obj = _lasso_objective(x, y, beta, lambda_)
        if obj > objectives[-1] + 1e-12 * max(1.0, abs(objectives[-1])):
            raise ModelError(
                f"penalized objective increased in sweep {sweep}: "
                f"{objectives[-1]!r} -> {obj!r}"
            )
        objectives.append(obj)
        if max_delta < tol:
            return LassoResult(beta, sweep, tuple(objectives))
    raise ConvergenceError(f"coordinate descent did not converge in {max_sweeps} sweeps")


def _lambda_grid(lambda_max: float, points: int = 50) -> np.ndarray:
    return np.geomspace(lambda_max, 1e-4 * lambda_max, points)


def _cross_validate_lambda(x: np.ndarray, y: np.ndarray, folds: int = 5) -> float:
    """Pick lambda by k-fold CV over a log grid from lambda_max down.

    Fold assignment is row index modulo `folds` (deterministic); a fold
    whose training or validation part is empty is skipped. Each fold walks
    the grid from high to low lambda, warm-starting every fit from the
    previous lambda's coefficients, and adds its validation error to that
    lambda's total. Ties in total error prefer the larger lambda.
    """
    n = len(y)
    # with no varying column x has no columns, and lambda_max is 0
    lambda_max = float(np.max(np.abs(x.T @ (y - y.mean())), initial=0.0)) / n
    if lambda_max == 0.0:
        return 0.0
    grid = _lambda_grid(lambda_max)
    fold_of = np.arange(n) % folds
    errors = [0.0] * len(grid)
    for f in range(folds):
        train = fold_of != f
        val = ~train
        if not val.any() or not train.any():
            continue
        xt, yt, xv, yv = x[train], y[train], x[val], y[val]
        mu = yt.mean()
        yt = yt - mu
        beta = None
        for i, lam in enumerate(grid):
            beta = lasso_coordinate_descent(xt, yt, float(lam), start=beta).coefficients
            pred = mu + xv @ beta
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

    All rows carry weight 1. "ols" is unweighted least squares; "lasso"
    solves the L1-penalized problem on standardized features with an
    unpenalized intercept, reporting coefficients on the original scale.
    When lambda is unset for lasso, it is chosen by 5-fold cross-validation.
    Categorical features are one-hot encoded against the explained
    observation's own level.
    """
    if local.response is None:
        raise DataError("attach predictions before fitting an explanation")
    reference = {
        name: v
        for name, kind, v in zip(local.schema.names, local.schema.kinds, local.origin)
        if kind == CATEGORICAL
    }
    dataset = local.to_dataset()

    if white_box == "ols":
        try:
            model = fit_ols(dataset, dataset.response_index, reference_levels=reference)
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

    encoder = Encoder.for_schema(local.schema, reference)
    encoded = encoder.encode_columns(list(local.feature_values))
    y = local.response
    n = len(y)
    if n < 2:
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
    if len(y) == 0:
        raise ModelError("cannot score an empty local dataset")
    pred = model.scores(list(local.feature_values))
    rss = float(np.sum((y - pred) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        return 1.0 if rss <= 1e-24 else 0.0
    return max(0.0, min(1.0, 1.0 - rss / tss))


def _nonzero_features(model: LinearModel) -> tuple[str, ...]:
    selected = []
    for j, name in enumerate(model.schema.names):
        owned = [
            k for k, owner in enumerate(model.encoder.feature_of_encoded) if owner == j
        ]
        if any(model.coefficients[k] != 0.0 for k in owned):
            selected.append(name)
    return tuple(selected)
