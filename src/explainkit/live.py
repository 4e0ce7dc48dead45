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
from .tabular import CATEGORICAL, Cell, Dataset, FeatureSchema


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
    the original value. Deterministic per seed: the draws are those of a
    loop over the rows that draws each row's feature (`rng.integers(0, p)`,
    or `rng.integers(0, size)` into the subset; row i < p owns feature i)
    and then its value (`tabular.empirical_draw`), taken in one call.
    """
    if size < 0:
        raise DataError("size must be nonnegative")
    base = dataset.with_response(response)
    schema = base.schema()
    x_new = schema.validate_observation(x_new)
    p, n = schema.n_features, base.n_rows
    rng = np.random.Generator(np.random.PCG64(seed))

    cols = schema.repeat(x_new, size)
    if p <= size:
        draws = rng.integers(0, np.array([n] * p + [p, n] * (size - p), dtype=np.int64))
        features = np.concatenate([np.arange(p), draws[p::2]])
        rows = np.concatenate([draws[:p], draws[p + 1 :: 2]])
    else:
        chosen = np.sort(rng.choice(p, size=size, replace=False))
        draws = rng.integers(0, np.array([size, n] * size, dtype=np.int64))
        features, rows = chosen[draws[::2]], draws[1::2]
    for f, col in enumerate(cols):
        perturbed = features == f
        col[perturbed] = base.columns[base.feature_indices[f]].values[rows[perturbed]]
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
    """One lasso fit of `lasso_coordinate_descent`; `n_sweeps` counts the knots
    its path took below lambda_max to reach its lambda. A CV fit makes none: it
    reads the whole table's path walked in the folds' stack."""

    coefficients: np.ndarray
    n_sweeps: int


CV_FOLDS = 5
LAMBDA_GRID_POINTS = 50
# A path on k columns may take KNOT_CAP_PER_COLUMN * (k + 1) steps; the knot
# count is finite but exponential in the worst case (Mairal & Yu 2012).
KNOT_CAP_PER_COLUMN = 8
_EPS = np.finfo(float).eps


def _roundoff(scale, k: int):
    """The roundoff bound for k columns: 2^10 (k + 1) machine epsilons of `scale`."""
    return 1024.0 * (k + 1) * _EPS * scale


def _moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lasso problem: its Gram matrix X'X/n and correlations X'y/n."""
    return x.T @ x / len(x), x.T @ y / len(x)


def _lasso_knots(problems, lambda_min: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Knots of the path of min (1/2n)||y - X b||^2 + lam ||b||_1, linear in
    lam between them, for each of a stack of `_moments` over the same k
    columns: lambdas falling from lambda_max = max |X'y|/n to `lambda_min`,
    and coefficients. The homotopy of Osborne, Presnell & Turlach 2000
    (LARS with its lasso modification, Efron et al. 2004).

    With G = X'X/n, c = X'y/n and active set A with signs s, b_A = G_AA^-1
    (c_A - lam s_A). The next knot is where an active coefficient reaches 0
    (it leaves) or an inactive correlation c_j - G_jA b_A reaches +-lam (it
    joins), the lower column first on a tie. A column within `_roundoff` of
    the active columns' span never joins, since its correlation follows
    theirs (Tibshirani 2013): of columns equal up to sign, or beyond the
    rank of X, the path keeps the first. The problems walk in lockstep, one
    batched solve per step, each problem's system G_AA on its active block
    and the identity on its inactive columns, so a path has the same bits
    alone and in any stack. Every knot is checked by `_certify`, correlation
    j to `_roundoff` of the terms it is made of, |c_j| + sum_i |G_ji| (|u_i|
    + lam |d_i|) where b_A = u - lam d. A stack raises ConvergenceError when
    a problem takes more than `KNOT_CAP_PER_COLUMN` (k + 1) steps.
    """
    gram, corr = (np.array(a) for a in zip(*problems))
    m, k = corr.shape
    diag = np.diagonal(gram, axis1=1, axis2=2)
    spanned, abs_corr, abs_gram = _roundoff(diag, k), np.abs(corr), np.abs(gram)
    lam = np.max(abs_corr, axis=1, initial=0.0)
    # row j of a problem holds column j's right-hand sides [c_j, s_j, G_j.]; `signs` views column 1
    rhs = np.concatenate([corr[..., None], np.zeros((m, k, 1)), gram.transpose(0, 2, 1)], axis=2)
    signs, rows, eye = rhs[..., 1], np.arange(m), np.eye(k)
    paths, cap = [[(top, np.zeros(k))] for top in lam], KNOT_CAP_PER_COLUMN * (k + 1)
    for _ in range(cap):
        if not (lam > lambda_min).any():
            break
        active = signs != 0.0
        system = np.where(active[:, :, None] & active[:, None, :], gram, eye)
        sol = np.linalg.solve(system, np.where(active[..., None], rhs, 0.0))
        u, d = sol[..., 0], sol[..., 1]  # b_A = u - lam d, and 0 off A
        p = corr - (gram @ u[..., None])[..., 0]  # correlations c - G b = p + lam q
        q = (gram @ d[..., None])[..., 0]
        free = ~active & (diag - np.einsum("mji,mij->mj", gram, sol[..., 2:]) > spanned)
        den = np.where(free & (p != 0.0), 1.0 - np.sign(p) * q, 0.0)
        rising = den > 0.0
        events = np.where(rising, np.abs(p) / np.where(rising, den, 1.0), -1.0)
        np.divide(u, d, out=events, where=signs * d < 0.0)
        j = events.argmax(axis=1)
        step = np.minimum(lam, np.maximum(events[rows, j], lambda_min))
        moved = step < lam
        lam = np.where(moved, step, lam)
        beta, go = u - lam[:, None] * d, lam > lambda_min
        leaving = go & active[rows, j]
        beta[rows[leaving], j[leaving]] = 0.0
        if moved.any():
            weights = np.abs(u) + lam[:, None] * np.abs(d)
            terms = abs_corr + (abs_gram @ weights[..., None])[..., 0]
            _certify(*(a[moved] for a in (gram, corr, beta, signs, lam, _roundoff(terms, k))))
            for i in moved.nonzero()[0]:
                paths[i].append((lam[i], beta[i]))
        signs[rows[go], j[go]] = np.where(leaving, 0.0, np.sign(p[rows, j]))[go]
    if (lam > lambda_min).any():
        raise ConvergenceError(f"lasso path did not reach lambda {lambda_min!r} in {cap} steps")
    return [(np.array(lams), np.array(betas)) for lams, betas in (zip(*path) for path in paths)]


def _certify(gram, corr, beta, signs, lam, tol) -> None:
    """KKT conditions at a stack of knots, one lam each, or ModelError: each
    active correlation is lam times its sign s, to `tol`; each active
    coefficient has sign s or is 0; no inactive correlation exceeds lam + `tol`."""
    r, lam = corr - (gram @ beta[..., None])[..., 0], lam[:, None]
    active_bad = (np.abs(r - lam * signs) > tol) | (signs * beta < 0)
    bad = np.where(signs != 0, active_bad, np.abs(r) > lam + tol)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ModelError(f"lasso knot fails its optimality check at lambda {float(lam[i, 0])!r}: "
                         f"column {j} has correlation {r[i, j]!r} and coefficient {beta[i, j]!r}")


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
    `_lasso_knots`, a stack of one (the name is that of the coordinate
    descent it replaced). Expects standardized columns and centred y;
    `n_sweeps` counts the path's steps down to `lambda_`."""
    lambda_ = float(lambda_)
    if not lambda_ >= 0.0:
        raise ModelError("lambda must be nonnegative")
    [(lams, betas)] = _lasso_knots([_moments(x, y)], lambda_)
    return LassoResult(_read_path(lams, betas, np.array([lambda_]))[0], len(lams) - 1)


def _lambda_grid(lambda_max: float) -> np.ndarray:
    return np.geomspace(lambda_max, 1e-4 * lambda_max, LAMBDA_GRID_POINTS)


def _cross_validate_lambda(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Pick lambda by `CV_FOLDS`-fold CV on a `LAMBDA_GRID_POINTS` log grid
    down from lambda_max; returns it and the whole table's coefficients there.

    Fold assignment is row index modulo `CV_FOLDS`; a fold whose training or
    validation part is empty is skipped. The folds' paths and the whole
    table's walk in one stack of `_lasso_knots` down to the grid's smallest
    lambda, each problem's moments built from its own rows in turn; every
    grid lambda is read off each fold's path, and the coefficients off the
    whole table's at the pick. The pick is the largest lambda whose total
    error is within `_roundoff` of the least, relative to the total at
    lambda_max: errors that differ by roundoff alone tie, and the larger
    lambda wins.
    """
    n, k = x.shape
    # with no varying column x has no columns, and lambda_max is 0
    whole = _moments(x, y - _finite_mean(y, "the local predictions"))
    lambda_max = float(np.max(np.abs(whole[1]), initial=0.0))
    if lambda_max == 0.0:
        return 0.0, np.zeros(k)
    grid = _lambda_grid(lambda_max)
    fold_of = np.arange(n) % CV_FOLDS
    folds = [t for t in (fold_of != f for f in range(CV_FOLDS)) if t.any() and not t.all()]
    mus = [_finite_mean(y[train], "the local predictions") for train in folds]
    *fold_paths, whole_path = _lasso_knots(
        [_moments(x[train], y[train] - mu) for train, mu in zip(folds, mus)] + [whole], grid[-1]
    )
    errors = np.zeros(len(grid))
    for train, mu, path in zip(folds, mus, fold_paths):
        coefficients = _read_path(*path, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            errors += np.sum((y[~train] - mu - coefficients @ x[~train].T) ** 2, axis=1)
    lambda_ = float(grid[np.argmax(errors <= errors.min() + _roundoff(errors[0], k))])
    return lambda_, _read_path(*whole_path, np.array([lambda_]))[0]


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
    Unset, lambda is picked by 5-fold CV, whose stack also walks the whole
    table's path, read at the pick. Raises ModelError when the rows are too
    few for the white box (for "ols" the message adds "increase size"), or
    the predictions' mean or squared deviations, a column's spread or the
    least-squares fit overflow.
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
    with np.errstate(over="ignore", invalid="ignore"):
        tss = float(np.sum((y - y_mean) ** 2))

    if white_box == "ols":
        advice = " (local dataset may be degenerate; increase size)"
        model = _fit_least_squares(encoder, encoded, y, advice)
        lambda_ = 0.0
    elif white_box != "lasso":
        raise ModelError(f"unknown white box {white_box!r}")
    else:
        if lambda_ is not None and not 0.0 <= lambda_ < np.inf:
            raise ModelError("lambda must be finite and nonnegative")
        if len(y) < 2:
            raise ModelError("need at least 2 rows to fit a lasso surrogate")
        means, scales, z = _standardize(encoded, encoder.encoded_names)
        if not math.isfinite(tss):  # the path's sums of the centred predictions would too
            raise ModelError("the surrogate's squared errors overflow; rescale the response")
        usable = scales > 0
        beta = np.zeros(encoder.n_encoded)
        if lambda_ is None:
            lambda_, beta[usable] = _cross_validate_lambda(z[:, usable], y)
        else:
            beta[usable] = lasso_coordinate_descent(z[:, usable], y - y_mean, lambda_).coefficients
        beta[usable] /= scales[usable]
        model = LinearModel(local.schema, encoder, y_mean - float(means @ beta), beta, means)
    r2 = _r_squared(model, local, tss)
    return SurrogateFit(model, float(lambda_), _nonzero_features(model), r2)


def _r_squared(model: LinearModel, local: LocalDataset, tss: float) -> float:
    y = local.response
    pred = model.scores(list(local.feature_values))
    with np.errstate(over="ignore", invalid="ignore"):
        rss = float(np.sum((y - pred) ** 2))
    if not math.isfinite(rss + tss):
        raise ModelError("the surrogate's squared errors overflow; rescale the response")
    if tss == 0.0:
        return 1.0 if rss <= 1e-24 else 0.0
    return max(0.0, min(1.0, 1.0 - rss / tss))


def _nonzero_features(model: LinearModel) -> tuple[str, ...]:
    nonzero = model.encoder.fold(model.coefficients != 0.0)
    return tuple(name for name, count in zip(model.schema.names, nonzero) if count)
