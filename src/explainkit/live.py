"""Local surrogate pipeline: neighborhood simulation, black-box scoring,
and white-box fitting.

The neighborhood is built by duplicating the explained observation and
changing at most one feature per copy, drawing replacements from the
feature's empirical distribution. All generated rows count as equally
similar (identity kernel), so the surrogate fit is plain least squares, or
an L1-penalized fit when sparsity is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, ModelError, SchemaError
from .predict import Encoder, LinearModel, Predictor, _finite_mean, _fit_least_squares, _standardize
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
    """One lasso fit; `n_sweeps` counts the steps its path took to reach its
    lambda, one per knot below lambda_max."""

    coefficients: np.ndarray
    n_sweeps: int


CV_FOLDS = 5
LAMBDA_GRID_POINTS = 50
# A path on k columns may take KNOT_CAP_PER_COLUMN * (k + 1) steps; the knot
# count is finite but exponential in the worst case (Mairal & Yu 2012).
KNOT_CAP_PER_COLUMN = 8


def _roundoff(scale, k: int):
    """The roundoff bound for k columns: 2^10 (k + 1) machine epsilons of `scale`."""
    return 1024.0 * (k + 1) * np.finfo(float).eps * scale


def _lasso_knots(x: np.ndarray, y: np.ndarray, lambda_min: float) -> tuple[np.ndarray, ...]:
    """Knots of the path of min (1/2n)||y - X b||^2 + lam ||b||_1, linear in
    lam between them: lambdas falling from lambda_max = max |X'y|/n to
    `lambda_min`, and coefficients. The homotopy of Osborne, Presnell &
    Turlach 2000 (LARS with its lasso modification, Efron et al. 2004).

    With G = X'X/n, c = X'y/n and active set A with signs s, b_A = G_AA^-1
    (c_A - lam s_A). The next knot is where an active coefficient reaches 0
    (it leaves) or an inactive correlation c_j - G_jA b_A reaches +-lam (it
    joins), the lower column first on a tie. A column within `_roundoff` of
    the active columns' span never joins, since its correlation follows
    theirs (Tibshirani 2013): of columns equal up to sign, or beyond the
    rank of X, the path keeps the first. Every knot is checked by
    `_certify`, correlation j to `_roundoff` of the terms it is made of,
    |c_j| + sum_i |G_ji| (|u_i| + lam |d_i|) where b_A = u - lam d. More
    than `KNOT_CAP_PER_COLUMN` (k + 1) steps is ConvergenceError.
    """
    n, k = x.shape
    gram, corr = x.T @ x / n, x.T @ y / n
    diag = np.diag(gram)
    lam = float(np.max(np.abs(corr), initial=0.0))
    beta, signs = np.zeros(k), np.zeros(k)
    lams, betas, cap = [lam], [beta], KNOT_CAP_PER_COLUMN * (k + 1)
    for _ in range(cap):
        if lam <= lambda_min:
            break
        a = np.flatnonzero(signs)
        ga = gram[:, a]
        sol = np.linalg.solve(gram[np.ix_(a, a)], np.column_stack([corr[a], signs[a], ga.T]))
        u, d = sol[:, 0], sol[:, 1]  # b_A = u - lam d
        p, q = corr - ga @ u, ga @ d  # correlations c - G b = p + lam q
        free = (signs == 0) & (diag - np.einsum("ji,ij->j", ga, sol[:, 2:]) > _roundoff(diag, k))
        den = np.where(free & (p != 0.0), 1.0 - np.sign(p) * q, 0.0)
        events = np.where(den > 0.0, np.abs(p) / np.where(den > 0.0, den, 1.0), -1.0)
        leaving = signs[a] * d < 0.0
        events[a[leaving]] = u[leaving] / d[leaving]
        j = int(np.argmax(events))
        step = min(lam, max(float(events[j]), lambda_min))
        if step < lam:
            lam, beta = step, np.zeros(k)
            beta[a] = u - lam * d
            if lam > lambda_min and signs[j]:
                beta[j] = 0.0
            terms = np.abs(corr) + np.abs(ga) @ (np.abs(u) + lam * np.abs(d))
            _certify(gram, corr, beta, signs, lam, _roundoff(terms, k))
            lams.append(lam)
            betas.append(beta)
        if lam > lambda_min:
            signs[j] = 0.0 if signs[j] else np.sign(p[j])
    if lam > lambda_min:
        raise ConvergenceError(f"lasso path did not reach lambda {lambda_min!r} in {cap} steps")
    return np.array(lams), np.array(betas)


def _certify(gram, corr, beta, signs, lam, tol) -> None:
    """KKT conditions at a knot, or ModelError: each active correlation is lam
    times its sign s, each active coefficient has sign s or is 0, and no
    inactive correlation exceeds lam, with `tol` for the correlations."""
    r = corr - gram @ beta
    active_bad = (np.abs(r - lam * signs) > tol) | (signs * beta < 0)
    bad = np.where(signs != 0, active_bad, np.abs(r) > lam + tol)
    if bad.any():
        j = int(np.argmax(bad))
        raise ModelError(f"lasso knot fails its optimality check at lambda {lam!r}: "
                         f"column {j} has correlation {r[j]!r} and coefficient {beta[j]!r}")


def _read_path(lams: np.ndarray, betas: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Coefficients at each `query` lambda, interpolated linearly between knots."""
    if len(lams) == 1:
        return np.zeros((len(query), betas.shape[1]))
    up, b = lams[::-1], betas[::-1]
    i = np.clip(np.searchsorted(up, query), 1, len(up) - 1)
    w = np.clip((query - up[i - 1]) / (up[i] - up[i - 1]), 0.0, 1.0)[:, None]
    return (1.0 - w) * b[i - 1] + w * b[i]


def lasso_coordinate_descent(x: np.ndarray, y: np.ndarray, lambda_: float) -> LassoResult:
    """The lasso solution at `lambda_`, read off the exact path of
    `_lasso_knots` (the name is that of the coordinate descent it replaced).
    Expects standardized columns and centred y; `n_sweeps` counts the path's
    steps down to `lambda_`."""
    lambda_ = float(lambda_)
    if not lambda_ >= 0.0:
        raise ModelError("lambda must be nonnegative")
    lams, betas = _lasso_knots(x, y, lambda_)
    return LassoResult(_read_path(lams, betas, np.array([lambda_]))[0], len(lams) - 1)


def _lambda_grid(lambda_max: float) -> np.ndarray:
    return np.geomspace(lambda_max, 1e-4 * lambda_max, LAMBDA_GRID_POINTS)


def _cross_validate_lambda(x: np.ndarray, y: np.ndarray) -> float:
    """Pick lambda by `CV_FOLDS`-fold CV on a `LAMBDA_GRID_POINTS` log grid down from lambda_max.

    Fold assignment is row index modulo `CV_FOLDS`; a fold whose training or
    validation part is empty is skipped. Each fold's path goes down to the
    grid's smallest lambda once, and every grid lambda is read off it. The
    pick is the largest lambda whose total error is within `_roundoff` of
    the least, relative to the total at lambda_max: errors that differ by
    roundoff alone tie, and the larger lambda wins.
    """
    n, k = x.shape
    # with no varying column x has no columns, and lambda_max is 0
    lambda_max = float(np.max(np.abs(x.T @ (y - y.mean())), initial=0.0)) / n
    if lambda_max == 0.0:
        return 0.0
    grid = _lambda_grid(lambda_max)
    fold_of = np.arange(n) % CV_FOLDS
    errors = np.zeros(len(grid))
    for f in range(CV_FOLDS):
        train = fold_of != f
        if train.all() or not train.any():
            continue
        mu = y[train].mean()
        coefficients = _read_path(*_lasso_knots(x[train], y[train] - mu, grid[-1]), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            errors += np.sum((y[~train] - mu - coefficients @ x[~train].T) ** 2, axis=1)
    return float(grid[np.argmax(errors <= errors.min() + _roundoff(errors[0], k))])


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
    Raises ModelError when the rows are too few for the white box (for "ols"
    the message adds "increase size"), or the predictions' mean or a
    column's spread overflows.
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
    y_mean = _finite_mean(y, "the local predictions") if len(y) else 0.0

    if white_box == "ols":
        try:
            model = _fit_least_squares(encoder, encoded, y)
        except ModelError as exc:
            raise ModelError(
                f"{exc} (local dataset may be degenerate; increase size)"
            ) from exc
        if not np.isfinite([model.intercept_std_error, *model.std_errors]).all():
            raise ModelError("the surrogate's standard errors overflow; rescale the data")
        lambda_ = 0.0
    elif white_box != "lasso":
        raise ModelError(f"unknown white box {white_box!r}")
    else:
        if lambda_ is not None and not 0.0 <= lambda_ < np.inf:
            raise ModelError("lambda must be finite and nonnegative")
        if len(y) < 2:
            raise ModelError("need at least 2 rows to fit a lasso surrogate")
        means, scales, z = _standardize(encoded, encoder.encoded_names)
        usable = scales > 0
        if lambda_ is None:
            lambda_ = _cross_validate_lambda(z[:, usable], y)
        beta = np.zeros(encoder.n_encoded)
        beta[usable] = lasso_coordinate_descent(z[:, usable], y - y_mean, lambda_).coefficients
        beta[usable] /= scales[usable]
        model = LinearModel(local.schema, encoder, y_mean - float(means @ beta), beta, means)
    return SurrogateFit(model, float(lambda_), _nonzero_features(model), _r_squared(model, local))


def _r_squared(model: LinearModel, local: LocalDataset) -> float:
    y = local.response
    pred = model.scores(list(local.feature_values))
    with np.errstate(over="ignore", invalid="ignore"):
        rss = float(np.sum((y - pred) ** 2))
        tss = float(np.sum((y - y.mean()) ** 2))
    if not math.isfinite(rss + tss):
        raise ModelError("the surrogate's squared errors overflow; rescale the response")
    if tss == 0.0:
        return 1.0 if rss <= 1e-24 else 0.0
    return max(0.0, min(1.0, 1.0 - rss / tss))


def _nonzero_features(model: LinearModel) -> tuple[str, ...]:
    nonzero = model.encoder.fold(model.coefficients != 0.0)
    return tuple(name for name, count in zip(model.schema.names, nonzero) if count)
